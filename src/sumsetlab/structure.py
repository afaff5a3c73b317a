"""When NA fills its whole dilated hull minus the reflected exceptional sets.

For a normalized configuration, NA always sits inside the lattice points of
N*H(A) with, for every hull vertex a, the set a*N - E(a - A) carved out
(E is the exceptional set of the semigroup at that vertex).  Eventually this
inclusion is an equality; this module verifies it level by level, finds the
exact onset when the proven bounds are within budget, and evaluates those
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import (
    BudgetExceededError,
    InternalInvariantError,
)
from .lattice import (
    Point,
    PointConfig,
    require_anchored,
    require_normalized,
)
from .polytope import (
    _dilate_box,
    cone_functional,
    convex_hull,
    dilate_points,
    facet_height_ratio,
    volumes,
)
from .sumsets import (
    RegionSpec,
    SemigroupOracle,
    region_points,
    semigroup_sieve,
    sumset_arrays,
)


@dataclass(frozen=True)
class StructureReport:
    """Outcome of comparing NA with its maximal possible shape at one N.

    ``extra`` lists sumset points outside the predicted shape; the inclusion
    is unconditional, so extra must always be empty.  ``holds`` means the
    two sides agree exactly.
    """

    n: int
    holds: bool
    missing: tuple[Point, ...]
    extra: tuple[Point, ...]


@dataclass(frozen=True)
class StructureBounds:
    """Proven onset bounds for the structure equation (ceilinged, >= 1).

    bound_a uses the hull volume and vertex count; bound_b only cardinality
    and the extreme simplex determinant; clean is the weaker volume-squared
    form; coarse is the width-power bound.
    """

    bound_a: int
    bound_b: int
    clean: int
    coarse: int


def _ceil_fraction(value) -> int:
    f = Fraction(value)
    return -((-f.numerator) // f.denominator)


def structure_bounds(config: PointConfig) -> StructureBounds:
    require_anchored(config)
    d = config.dim
    n = config.size
    v = volumes(config)
    kappa = facet_height_ratio(config)
    ex_count = len(config.extremal())
    d_fact_vol = v.volume * math.factorial(d)
    if d_fact_vol.denominator != 1:
        raise InternalInvariantError("d! * volume must be an integer")
    bound_a = _ceil_fraction(
        (d + 1) * kappa * (d_fact_vol + (ex_count - d - 1) * v.det_max))
    bound_b = _ceil_fraction((d + 1) * kappa * (n - d - 1) * v.det_max)
    clean = _ceil_fraction(
        (d + 1) * math.factorial(d) ** 2 * (ex_count - d) * v.volume ** 2)
    coarse = (d * n * v.width) ** (13 * d ** 6) if d > 0 else 1
    return StructureBounds(
        bound_a=max(1, bound_a),
        bound_b=max(1, bound_b),
        clean=max(1, clean),
        coarse=max(1, coarse),
    )


def reflected_config(config: PointConfig, vertex) -> PointConfig:
    """The configuration vertex - A (sorted); normalized whenever A is."""
    a = tuple(vertex)
    pts = sorted(tuple(x - y for x, y in zip(a, p)) for p in config.points)
    return PointConfig(points=tuple(pts), dim=config.dim,
                       normalized=config.normalized)


def _vertex_sieves(config: PointConfig, top: int, cap_points: int):
    """One semigroup sieve per hull vertex a, covering levels 1..top.

    At level n every reflected point a*n - x of a dilate point x lies in
    n*H(a - A), so in the cone of a - A with ell <= n * max ell(a - A); the
    sieve of P(a - A) up to top * max ell answers all of them.  For a
    normalized A the points a - A generate Z^d, so no lattice reduction is
    needed.  Returns (sieves, top), with top lowered to the levels the
    sieves could be built for within ``cap_points``.
    """
    sieves = []
    for a in config.extremal():
        cfg = reflected_config(config, a)
        ell = cone_functional(convex_hull(cfg))
        reach = max(sum(e * x for e, x in zip(ell, p)) for p in cfg.points)
        try:
            sieve = semigroup_sieve(cfg, ell, top * reach, cap_points)
        except BudgetExceededError as exc:
            sieve = exc.partial
            top = sieve.limit // reach
        sieves.append((a, sieve))
    return sieves, top


def _rhs_array(config: PointConfig, sieves, n: int, cap_points: int) -> np.ndarray:
    """structure_rhs at level n as a lex-sorted point array."""
    x = dilate_points(config, n, cap_points)
    for a, sieve in sieves:
        x = x[sieve.members(np.asarray(a, dtype=x.dtype) * n - x)]
    return x


def _compare(config: PointConfig, n: int, na: np.ndarray,
             rhs: np.ndarray) -> StructureReport:
    """NA against its predicted shape by a set difference of packed keys.

    ``na`` and ``rhs`` must be lex-sorted point arrays.  The strides of
    key_strides are lex-major, so their keys come out ascending and each
    side is searched by bisection.
    """
    lo, hi = _dilate_box(config, n)
    strides, span = kernels.key_strides(lo, hi)
    dtype = kernels.key_dtype(span)
    na_keys = kernels.pack_rows(na, lo, strides, dtype)
    rhs_keys = kernels.pack_rows(rhs, lo, strides, dtype)
    missing = kernels.array_to_points(rhs[~kernels.sorted_member(rhs_keys, na_keys)])
    extra = kernels.array_to_points(na[~kernels.sorted_member(na_keys, rhs_keys)])
    return StructureReport(n=n, holds=not missing and not extra,
                           missing=tuple(sorted(missing)), extra=tuple(sorted(extra)))


def _sieves_through(config: PointConfig, n: int, cap_points: int):
    """The vertex sieves for levels 1..n, or BudgetExceededError."""
    sieves, top = _vertex_sieves(config, n, cap_points)
    if top < n:
        raise BudgetExceededError(
            f"the vertex sieves for level {n} exceed the {cap_points} point cap",
            reached=top)
    return sieves


def structure_rhs(config: PointConfig, n: int,
                  cap_points: int = 10 ** 7) -> list[Point]:
    """The maximal possible shape of NA at level n, as a sorted point list.

    Every lattice point of n*H(A) is kept unless, for some hull vertex a,
    its reflection a*n - x lands in the cone of a - A without being a
    nonnegative combination of those points.
    """
    require_normalized(config)
    sieves = _sieves_through(config, n, cap_points)
    return kernels.array_to_points(_rhs_array(config, sieves, n, cap_points))


def verify_structure_equation(config: PointConfig, n: int,
                              cap_points: int = 10 ** 7,
                              _sumset_points=None) -> StructureReport:
    """Compare NA against structure_rhs at one level."""
    require_normalized(config)
    if _sumset_points is None:
        na = None
        for na in sumset_arrays(config, n):
            pass
    else:
        na = np.asarray(sorted(_sumset_points)).reshape(len(_sumset_points), config.dim)
    sieves = _sieves_through(config, n, cap_points)
    return _compare(config, n, na, _rhs_array(config, sieves, n, cap_points))


def structure_levels(config: PointConfig, max_n: int,
                     cap_points: int = 10 ** 7) -> list[StructureReport]:
    """verify_structure_equation for N = 1..max_n, walking the sumsets once."""
    require_normalized(config)
    if max_n < 1:
        return []
    sieves = _sieves_through(config, max_n, cap_points)
    return [_compare(config, n, na, _rhs_array(config, sieves, n, cap_points))
            for n, na in enumerate(sumset_arrays(config, max_n), start=1)]


@dataclass(frozen=True)
class StructureThresholdResult:
    value: int
    status: str  # "exact" | "empirical"
    window_top: int
    bound: int
    failing_levels: tuple[int, ...]


def structure_threshold(config: PointConfig, *,
                        cap_points: int = 10 ** 7,
                        test_budget: int = 10 ** 7,
                        max_n: int | None = None) -> StructureThresholdResult:
    """Least N from which the structure equation holds, verified level by level.

    With B = min(bound_a, bound_b): when every level up to B fits the test
    budget the result is exact (levels beyond B are covered by the proven
    bound); otherwise the window stops early and the status is "empirical".
    The full window is always checked; equality at one level is never
    assumed to propagate upward.  The vertex sieves are built once, for the
    whole window.
    """
    require_normalized(config)
    bounds = structure_bounds(config)
    bound = min(bounds.bound_a, bounds.bound_b)
    # level 1 is checked even under max_n < 1: the sumsets start there
    top = max(1, bound if max_n is None else min(bound, max_n))
    sieves, top = _vertex_sieves(config, top, cap_points)
    spent = 0
    vertex_count = max(1, len(sieves))
    failing = []
    checked = 0
    for n, na in zip(range(1, top + 1), sumset_arrays(config, top)):
        cost = len(na) * (1 + vertex_count)
        if spent + cost > test_budget and checked > 0:
            break
        try:
            report = _compare(config, n, na, _rhs_array(config, sieves, n, cap_points))
        except BudgetExceededError:
            break
        spent += cost
        checked = n
        if report.extra:
            raise InternalInvariantError(
                f"sumset escaped its predicted shape at N={n}: {report.extra[:3]}")
        if not report.holds:
            failing.append(n)
    if checked == 0:
        raise BudgetExceededError("no structure level fits the test budget",
                                  reached=0)
    status = "exact" if checked >= bound else "empirical"
    value = (failing[-1] + 1) if failing else 1
    if status == "exact" and value > bound:
        raise InternalInvariantError(
            "structure equation fails at its proven bound")
    return StructureThresholdResult(value=value, status=status,
                                    window_top=checked, bound=bound,
                                    failing_levels=tuple(failing))


def verify_extremal_decomposition(config: PointConfig, region: RegionSpec,
                                  cap_points: int = 10 ** 7) -> tuple[bool, list[Point]]:
    """Check P(A) = (d! Vol) A + P(ex(H(A))) on the region's cone points.

    Returns (ok, witnesses); witnesses are region points on which the two
    sides disagree (there should never be any).
    """
    require_anchored(config)
    d = config.dim
    v = volumes(config)
    scale = v.volume * math.factorial(d)
    if scale.denominator != 1:
        raise InternalInvariantError("d! * volume must be an integer")
    scale = int(scale)
    shifts = None
    for shifts in sumset_arrays(config, scale):
        pass
    ex_cfg = PointConfig(points=tuple(sorted(config.extremal())), dim=d,
                         normalized=config.normalized)
    pts = region_points(config, region, cap_points=cap_points)
    rows = len(pts) * len(shifts)
    if rows > cap_points:
        raise BudgetExceededError(
            f"{rows} shifted region points exceed the {cap_points} point cap")
    lhs = SemigroupOracle(config).members(pts, cap_points)
    # p is on the right side when p - s is in P(ex) for some shift s
    shifted = (pts[None, :, :] - shifts[:, None, :]).reshape(rows, d)
    rhs = SemigroupOracle(ex_cfg).members(shifted, cap_points).reshape(
        len(shifts), len(pts)).any(axis=0)
    witnesses = kernels.array_to_points(pts[lhs != rhs])
    return (not witnesses, witnesses)
