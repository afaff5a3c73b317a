"""Exact analysis of iterated sumsets of finite integer point sets.

Core objects: PointConfig (an ordered finite subset of Z^d), exact hull
geometry (facets, volumes, height ratios, origin triangulations, dilate
counting), iterated sumset growth, semigroup membership with exceptional
points, the zero-weight kernel lattice with its circuits, the growth
polynomial with its exact onset threshold and proven bounds, and the
structure equation with its thresholds and bounds.
"""

from .errors import (
    BudgetExceededError,
    DegenerateDimensionError,
    DimensionError,
    InputFormatError,
    InternalInvariantError,
    KindError,
    MembershipError,
    PreconditionError,
    SumsetLabError,
)
from .lattice import (
    Normalization,
    Point,
    PointConfig,
    determinant,
    extremal_points,
    integer_kernel,
    is_anchored,
    is_normalized,
    lattice_basis,
    normalize_config,
)
from .polynomials import RationalPolynomial, interpolate_consecutive
from .polytope import (
    FacetFunctional,
    Polytope,
    Triangulation,
    VolumeData,
    convex_hull,
    count_dilate_points,
    facet_functional,
    facet_height_ratio,
    triangulate_from_origin,
    volumes,
)
from .sumsets import (
    GrowthRecord,
    GrowthTable,
    RegionSpec,
    SemigroupOracle,
    SemigroupSieve,
    exceptional_in_region,
    iter_sumsets,
    semigroup_contains,
    semigroup_sieve,
    sumset_arrays,
    sumset_iterate,
)
from .circuits import (
    circuits,
    conformal_decompose,
    find_reduction,
    is_kernel_vector,
    kernel_lattice,
    regular_decompose,
)
from .khovanskii import (
    KhovanskiiBounds,
    ObstructionSet,
    ThresholdResult,
    enumerate_representations,
    khovanskii_bounds,
    khovanskii_polynomial,
    khovanskii_threshold,
    minimal_obstructions,
    sumset_size_formula,
)
from .structure import (
    StructureBounds,
    StructureReport,
    StructureThresholdResult,
    structure_bounds,
    structure_levels,
    structure_rhs,
    structure_threshold,
    verify_extremal_decomposition,
    verify_structure_equation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
