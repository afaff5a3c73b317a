"""Exact convex-hull machinery for finite integer point sets.

Facets are found by exhaustive scan over d-subsets (the target scale is
small d and small point counts), kept as primitive integer normals with the
hull on the <= side, and classified *outer* (offset > 0, the facet misses
the origin) or *inner* (offset 0, the facet contains the origin).  The same
scan gives the vertices: the points whose incident facet normals have rank
d.  All volumes, functionals, and ratios are exact integers or Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import (
    BudgetExceededError,
    DegenerateDimensionError,
    InternalInvariantError,
    KindError,
    PreconditionError,
)
from .lattice import (
    Point,
    PointConfig,
    config_memo,
    content,
    determinant,
    hermite_basis,
    lattice_rank,
    solve_in_lattice,
)


@dataclass(frozen=True)
class FacetFunctional:
    """One facet hyperplane, stored as normal . x <= offset on the hull.

    kind is "outer" (offset > 0, normalized form beta = normal/offset with
    beta <= 1 on the hull and beta = 1 on the facet), "inner" (offset = 0,
    gamma = -normal with gamma >= 0 on the hull and gamma = 0 on the facet),
    or None when the origin lies strictly outside the hull.
    """

    normal: Point
    offset: int
    incident: tuple[int, ...]
    kind: str | None

    def dot(self, point) -> int:
        return sum(n * x for n, x in zip(self.normal, point))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        if self.kind == "outer":
            return tuple(Fraction(n, self.offset) for n in self.normal)
        if self.kind == "inner":
            return tuple(Fraction(-n) for n in self.normal)
        raise KindError("facet has no normalized functional (origin outside hull)")

    def beta_value(self, point) -> Fraction:
        """beta(point) for an outer facet: 1 on the facet, <= 1 on the hull."""
        if self.kind != "outer":
            raise KindError("beta is defined only for outer facets")
        return Fraction(self.dot(point), self.offset)

    def gamma_value(self, point) -> int:
        """gamma(point) for an inner facet: 0 on the facet, >= 0 on the hull."""
        if self.kind != "inner":
            raise KindError("gamma is defined only for inner facets")
        return -self.dot(point)


@dataclass(frozen=True)
class Polytope:
    """Exact facet description of the convex hull of a point configuration."""

    dim: int
    points: tuple[Point, ...]
    facets: tuple[FacetFunctional, ...]
    extremal: tuple[Point, ...]

    @property
    def outer_facets(self) -> tuple[FacetFunctional, ...]:
        return tuple(f for f in self.facets if f.kind == "outer")

    @property
    def inner_facets(self) -> tuple[FacetFunctional, ...]:
        return tuple(f for f in self.facets if f.kind == "inner")


@dataclass(frozen=True)
class Triangulation:
    """Simplices sharing the origin as an implicit common vertex.

    Each entry is a tuple of dim linearly independent extremal points;
    together with the origin they partition the hull up to measure zero.
    """

    simplices: tuple[tuple[Point, ...], ...]


def _hyperplane_normal(points, dim) -> Point | None:
    """Primitive integer normal of the affine span of dim points, or None."""
    if dim == 1:
        return (1,)
    base = points[0]
    rows = [[p[k] - base[k] for k in range(dim)] for p in points[1:]]
    normal = []
    for k in range(dim):
        minor = [row[:k] + row[k + 1:] for row in rows]
        normal.append((-1) ** k * determinant(minor))
    if not any(normal):
        return None
    g = content(normal)
    return tuple(v // g for v in normal)


_hull_cache: dict[tuple, Polytope] = {}
_volume_cache: dict[tuple, "VolumeData"] = {}
_triangulation_cache: dict[tuple, "Triangulation"] = {}


@config_memo(_hull_cache)
def convex_hull(config: PointConfig) -> Polytope:
    """Exact facets and extremal points of the hull of ``config``.

    Requires the points to span the full ambient space; degenerate inputs
    should be normalized first so the ambient dimension matches the rank.
    """
    d = config.dim
    pts = config.points
    if d == 0:
        return Polytope(dim=0, points=pts, facets=(), extremal=pts)
    diffs = [tuple(p[k] - pts[0][k] for k in range(d)) for p in pts[1:]]
    if lattice_rank(diffs) != d:
        raise DegenerateDimensionError(
            "points do not span the ambient space; normalize_config first"
        )
    seen: dict[tuple[Point, int], set[int]] = {}
    for subset in itertools.combinations(range(len(pts)), d):
        normal = _hyperplane_normal([pts[i] for i in subset], d)
        if normal is None:
            continue
        c = sum(n * x for n, x in zip(normal, pts[subset[0]]))
        dots = [sum(n * x for n, x in zip(normal, p)) for p in pts]
        if all(v <= c for v in dots):
            pass
        elif all(v >= c for v in dots):
            normal = tuple(-n for n in normal)
            c = -c
            dots = [-v for v in dots]
        else:
            continue
        key = (normal, c)
        incident = {i for i, v in enumerate(dots) if v == c}
        seen.setdefault(key, set()).update(incident)
    facets = []
    for (normal, c), incident in seen.items():
        kind = "outer" if c > 0 else ("inner" if c == 0 else None)
        facets.append(FacetFunctional(
            normal=normal, offset=c, incident=tuple(sorted(incident)), kind=kind,
        ))
    facets.sort(key=lambda f: ({"outer": 0, "inner": 1}.get(f.kind, 2), f.normal, f.offset))
    # a point is a vertex when the facets through it meet in that point
    # alone, that is when their normals have rank d
    normals: list[list[Point]] = [[] for _ in pts]
    for f in facets:
        for i in f.incident:
            normals[i].append(f.normal)
    return Polytope(
        dim=d,
        points=pts,
        facets=tuple(facets),
        extremal=tuple(sorted(p for p, ns in zip(pts, normals)
                              if lattice_rank(ns) == d)),
    )


def facet_functional(poly: Polytope, facet_id: int) -> FacetFunctional:
    """The exact rational functional of the outer facet with this id."""
    try:
        facet = poly.facets[facet_id]
    except IndexError:
        raise PreconditionError(f"no facet with id {facet_id}") from None
    if facet.kind != "outer":
        raise KindError(f"facet {facet_id} is {facet.kind}, not outer")
    return facet


@dataclass(frozen=True)
class VolumeData:
    volume: Fraction
    det_max: int
    det_min: int
    width: int


def _subset_dets(pts, d):
    for subset in itertools.combinations(pts, d + 1):
        base = subset[0]
        rows = [[p[k] - base[k] for k in range(d)] for p in subset[1:]]
        yield abs(determinant(rows))


@config_memo(_volume_cache)
def volumes(config: PointConfig) -> VolumeData:
    """Hull volume, extreme simplex determinants, and infinity-norm width.

    det_max / det_min are the largest and smallest nonzero |det| over all
    (d+1)-point subsets; det_max / d! is the largest simplex volume spanned
    by the points.
    """
    d = config.dim
    pts = config.points
    width = 0
    for p, q in itertools.combinations(pts, 2):
        width = max(width, max(abs(a - b) for a, b in zip(p, q)))
    if d == 0:
        return VolumeData(volume=Fraction(1), det_max=1, det_min=1, width=0)
    dets = [v for v in _subset_dets(pts, d)]
    nonzero = [v for v in dets if v]
    if not nonzero:
        raise DegenerateDimensionError("points do not span the ambient space")
    apex = min(pts)  # the lex-least point is a vertex
    vol = Fraction(0)
    for simplex in _triangulate(pts, d, apex):
        rows = [[p[k] - apex[k] for k in range(d)] for p in simplex]
        vol += Fraction(abs(determinant(rows)), math.factorial(d))
    return VolumeData(volume=vol, det_max=max(nonzero), det_min=min(nonzero), width=width)


def _facet_sub_points(facet_points, dim):
    """Map points of a facet into exact Z^(dim-1) coordinates.

    Returns (base, basis, mapped) where original = base + coeffs . basis.
    The Hermite basis makes the map preserve lexicographic order.
    """
    base = min(facet_points)
    diffs = [tuple(p[k] - base[k] for k in range(dim)) for p in facet_points]
    basis = hermite_basis(diffs)
    if len(basis) != dim - 1:
        raise InternalInvariantError("facet is not (dim-1)-dimensional")
    mapped = []
    for t in diffs:
        coeffs = solve_in_lattice(basis, t)
        if coeffs is None:
            raise InternalInvariantError("facet point outside its own lattice")
        mapped.append(coeffs)
    return base, basis, mapped


def _triangulate(points, dim, apex) -> list[tuple[Point, ...]]:
    """Simplices (apex implicit) covering hull(points), vertices extremal.

    Recursive construction: triangulate each facet that misses the apex and
    cone the pieces back to the apex.  Sub-recursion apexes are the
    lexicographically least facet vertices, making the output canonical.
    """
    if dim == 0:
        return [()]
    config = PointConfig.from_points(sorted(set(points)), dim)
    if dim == 1:
        ends = config.extremal()
        other = [p for p in ends if p != apex]
        if apex not in ends or len(other) != 1:
            raise PreconditionError("apex must be an endpoint")
        return [(other[0],)]
    poly = convex_hull(config)
    simplices = []
    for facet in poly.facets:
        c = sum(n * x for n, x in zip(facet.normal, apex))
        if c == facet.offset:
            continue  # facet contains the apex
        facet_pts = [config.points[i] for i in facet.incident]
        base, basis, mapped = _facet_sub_points(facet_pts, dim)
        sub_apex = min(
            m for m, p in zip(mapped, facet_pts)
            if p in poly.extremal
        )
        for sub in _triangulate(mapped, dim - 1, sub_apex):
            verts = [sub_apex] + list(sub)
            orig = []
            for v in verts:
                p = list(base)
                for coeff, row in zip(v, basis):
                    for k in range(dim):
                        p[k] += coeff * row[k]
                orig.append(tuple(p))
            simplices.append(tuple(sorted(orig)))
    return sorted(set(simplices))


@config_memo(_triangulation_cache)
def triangulate_from_origin(config: PointConfig) -> Triangulation:
    """Partition the hull into simplices sharing the origin as a vertex.

    Requires 0 to be an extremal point.  Every simplex is spanned by dim
    linearly independent extremal points (plus the implicit origin), and the
    simplex volumes add up to the hull volume exactly.
    """
    d = config.dim
    zero = (0,) * d
    if zero not in config.points or zero not in config.extremal():
        raise PreconditionError("origin must be an extremal point of the hull")
    if d == 0:
        return Triangulation(simplices=((),))
    return Triangulation(simplices=tuple(_triangulate(config.points, d, zero)))


def facet_height_ratio(config: PointConfig) -> Fraction:
    """Worst facet-wise ratio of farthest to nearest point "heights".

    For each facet F with affinely independent incident points b_1..b_d the
    affine form g(a) = det(b_1 - a, ..., b_d - a) vanishes exactly on the
    facet's hyperplane, so |g| compares, over a in A off the facet, how far
    points sit above F.  Returns max over facets of max|g| / min|g|.
    """
    poly = convex_hull(config)
    d = config.dim
    if d == 0 or not poly.facets:
        return Fraction(1)
    worst = Fraction(1)
    for facet in poly.facets:
        incident_pts = [config.points[i] for i in facet.incident]
        chosen = None
        for subset in itertools.combinations(incident_pts, d):
            if d == 1 or _hyperplane_normal(list(subset), d) is not None:
                chosen = subset
                break
        if chosen is None:
            raise InternalInvariantError(
                "facet lacks d affinely independent incident points"
            )
        values = []
        for i, a in enumerate(config.points):
            if i in facet.incident:
                continue
            rows = [[b[k] - a[k] for k in range(d)] for b in chosen]
            g = determinant(rows)
            if g == 0:
                raise InternalInvariantError("off-facet point with zero height")
            values.append(abs(g))
        if values:
            worst = max(worst, Fraction(max(values), min(values)))
    return worst


def _dilate_box(config: PointConfig, n: int):
    lo = [n * min(p[k] for p in config.points) for k in range(config.dim)]
    hi = [n * max(p[k] for p in config.points) for k in range(config.dim)]
    return lo, hi


def count_dilate_points(config: PointConfig, n: int, cap_points: int = 10 ** 7) -> int:
    """The number of lattice points of the n-fold dilated hull, exactly.

    Scans the integer bounding box of n*H with exact half-space tests; the
    box size is charged against ``cap_points``.
    """
    return _dilate_scan(config, n, False, cap_points)


def dilate_points(config: PointConfig, n: int, cap_points: int = 10 ** 7):
    """The points :func:`count_dilate_points` counts, as a lex-sorted array.

    The array is int64 when the scan fits the kernel range and holds
    Python ints (dtype object) otherwise.
    """
    return _dilate_scan(config, n, True, cap_points)


def _dilate_scan(config: PointConfig, n: int, enumerate_points: bool, cap_points: int):
    if n < 1:
        raise PreconditionError("dilation factor must be >= 1")
    d = config.dim
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64) if enumerate_points else 1
    poly = convex_hull(config)
    lo, hi = _dilate_box(config, n)
    box = 1
    for a, b in zip(lo, hi):
        box *= (b - a + 1)
    if box > cap_points:
        raise BudgetExceededError(
            f"bounding box holds {box} points, above the {cap_points} cap",
            reached=n,
        )
    lhs = [list(f.normal) for f in poly.facets]
    rhs = [n * f.offset for f in poly.facets]
    return scan_box(lo, hi, lhs, rhs, enumerate_points)


def scan_box(lo, hi, lhs, rhs, enumerate_points: bool):
    """Lattice points x with lo <= x <= hi and lhs @ x <= rhs, or their count.

    The kernels run on int64 when every dot product provably fits and on
    Python ints (dtype object) otherwise.  Points come back as a
    lex-sorted array of that dtype.
    """
    bound = max(
        (sum(abs(v) * max(abs(a), abs(b)) for v, a, b in zip(row, lo, hi))
         for row in lhs),
        default=0,
    )
    dtype = kernels.key_dtype(bound, *lo, *hi, *rhs)
    if enumerate_points:
        return kernels.box_points(lo, hi, lhs, rhs, dtype)
    return kernels.box_count(lo, hi, lhs, rhs, dtype)


def _box_scan_exact(lo, hi, lhs, rhs, enumerate_points):
    """The box scan in plain Python ints: the reference for the kernels' tests."""
    d = len(lo)
    prefix_ranges = [range(lo[j], hi[j] + 1) for j in range(d - 1)]
    total = 0
    found = []
    for prefix in itertools.product(*prefix_ranges):
        t_lo, t_hi = lo[d - 1], hi[d - 1]
        feasible = True
        for row, r in zip(lhs, rhs):
            s = sum(v * x for v, x in zip(row[:-1], prefix))
            c = row[d - 1]
            rem = r - s
            if c > 0:
                t_hi = min(t_hi, rem // c)
            elif c < 0:
                t_lo = max(t_lo, -(rem // (-c)))
            elif rem < 0:
                feasible = False
                break
        if feasible and t_hi >= t_lo:
            if enumerate_points:
                found.extend(prefix + (t,) for t in range(t_lo, t_hi + 1))
            else:
                total += t_hi - t_lo + 1
    return found if enumerate_points else total


def cone_constraints(poly: Polytope) -> list[Point]:
    """Integer normals n with cone(points) = {x : n . x <= 0 for all n}.

    The hull must have the origin as a vertex (every facet classified);
    the inner facets then cut out exactly the cone spanned by the points.
    """
    if any(f.kind is None for f in poly.facets):
        raise PreconditionError("cone requires the origin to be a hull vertex")
    return [f.normal for f in poly.inner_facets]


def cone_functional(poly: Polytope) -> Point:
    """The negated sum of the inner facet normals: an integer functional.

    The hull must have the origin as a vertex.  The functional is zero at
    the origin and at least 1 on every other lattice point of the cone,
    because the only point on every facet through a vertex is the vertex.
    """
    if (0,) * poly.dim not in poly.extremal:
        raise PreconditionError("cone is not pointed at the origin")
    normals = cone_constraints(poly)
    return tuple(-sum(n[k] for n in normals) for k in range(poly.dim))
