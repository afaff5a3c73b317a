"""Exact convex-hull machinery for finite integer point sets.

Facets are found by exhaustive scan over d-subsets (the target scale is
small d and small point counts), kept as primitive integer normals with the
hull on the <= side, and classified *outer* (offset > 0, the facet misses
the origin) or *inner* (offset 0, the facet contains the origin).  Each
subset's normal comes from one expansion of the maximal minors of its
difference rows, and each point's dot product with it is taken once.  From
those dot products the same scan gives the span test (a spanning set lies
on no hyperplane), the vertices (where the facets through a point meet in
it alone), the nonzero simplex determinant range and the facet height
ratio.  The triangulation recurses over the faces of that one hull, each
face the set of indices of the points on it.  All volumes, functionals, and
ratios are exact integers or Fractions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

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
    determinant,
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


@dataclass(frozen=True)
class Polytope:
    """Exact facet description of the convex hull of a point configuration,
    its vertices (``extremal``, lex-sorted), the largest and smallest
    nonzero |det| over its (d+1)-point subsets (1 and 1 when d = 0), and
    the facet height ratio: the worst, over the facets, of the largest over
    the least nonzero height offset - normal . a of a point a, and at least
    1 (1 when d = 0).  All are read off the one scan of ``convex_hull``."""

    dim: int
    points: tuple[Point, ...]
    facets: tuple[FacetFunctional, ...]
    extremal: tuple[Point, ...]
    det_max: int
    det_min: int
    height_ratio: Fraction

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


@functools.cache
def _minor_plan(dim: int):
    """The index plan by which ``_hyperplane_normal`` expands the minors of
    its dim - 1 rows.  Entry r - 2 lists, for each column set T of size r
    (r = 2 .. dim - 1, T in ``itertools.combinations`` order), the pairs
    (column j, index of T - {j} among the sets of size r - 1) whose terms
    add and those whose terms subtract in the expansion of the minor of the
    first r rows on T along its last row."""
    plans = []
    previous = {(j,): j for j in range(dim)}
    for r in range(2, dim):
        level = list(itertools.combinations(range(dim), r))
        plan = []
        for cols in level:
            plus, minus = [], []
            for i, j in enumerate(cols):
                term = (j, previous[cols[:i] + cols[i + 1:]])
                (minus if (r - 1 + i) % 2 else plus).append(term)
            plan.append((tuple(plus), tuple(minus)))
        plans.append(tuple(plan))
        previous = {cols: n for n, cols in enumerate(level)}
    return tuple(plans)


def _hyperplane_normal(points, dim) -> tuple[Point, int] | None:
    """The primitive integer normal n of the affine span of dim points and
    the content g of their cofactor vector g*n, or None when the points are
    affinely dependent.  For any point p, the |det| of the dim points with p
    is g*|n . p - n . points[0]| (cofactor expansion along p's row).

    The cofactors are the maximal minors of the dim - 1 difference rows,
    built by expanding the minors of the first r rows on every column set
    of size r from those of the first r - 1 rows (``_minor_plan``): one
    pass over the rows, with no determinant per coordinate.  They all
    vanish exactly when the rows are dependent, which is how
    ``convex_hull`` finds that a set has no independent d-subset.
    """
    if dim == 1:
        return (1,), 1
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    minors = rows[0]
    for row, plan in zip(rows[1:], _minor_plan(dim)):
        expanded = []
        for plus, minus in plan:
            s = 0
            for j, m in plus:
                s += row[j] * minors[m]
            for j, m in minus:
                s -= row[j] * minors[m]
            expanded.append(s)
        minors = expanded
    # the k-th minor of the last row misses column dim - 1 - k
    normal = [v if k % 2 == 0 else -v for k, v in enumerate(reversed(minors))]
    if not any(normal):
        return None
    g = math.gcd(*normal)
    return tuple(v // g for v in normal), g


_NOT_SPANNING = "points do not span the ambient space; normalize_config first"
_hull_cache: dict[tuple, Polytope] = {}
_volume_cache: dict[tuple, "VolumeData"] = {}
_triangulation_cache: dict[tuple, "Triangulation"] = {}


@config_memo(_hull_cache)
def convex_hull(config: PointConfig) -> Polytope:
    """Exact facets, vertices, simplex determinant range and facet height
    ratio of the hull of ``config``, all from one scan over the d-point
    subsets.

    Requires the points to span the full ambient space; degenerate inputs
    should be normalized first so the ambient dimension matches the rank.
    The scan itself tells: a spanning set lies on no hyperplane, a set of
    affine rank d - 1 lies on the hyperplane of every independent d-subset,
    and a set of lower rank has no independent d-subset, so
    DegenerateDimensionError is raised at the first independent subset
    whose hyperplane holds every point, or when there is none.
    """
    d = config.dim
    pts = config.points
    if d == 0:
        return Polytope(dim=0, points=pts, facets=(), extremal=pts, det_max=1, det_min=1,
                        height_ratio=Fraction(1))
    seen: dict[tuple[Point, int], set[int]] = {}
    highs, lows = [], []
    ratio_high, ratio_low = 1, 1
    for subset in itertools.combinations(range(len(pts)), d):
        plane = _hyperplane_normal([pts[i] for i in subset], d)
        if plane is None:
            continue
        normal, g = plane
        dots = [sum(map(mul, normal, p)) for p in pts]
        c = dots[subset[0]]
        top, bottom = max(dots), min(dots)
        if top == bottom:
            raise DegenerateDimensionError(_NOT_SPANNING)
        # every nonzero det of d + 1 points shows up here, since each of
        # their d-subsets is independent
        high = max(top - c, c - bottom)
        low = min(abs(v - c) for v in dots if v != c)
        highs.append(g * high)
        lows.append(g * low)
        incident = {i for i, v in enumerate(dots) if v == c}
        if top != c:
            if bottom != c:
                continue
            normal, c = tuple(-n for n in normal), -c
        # on a facet, high and low are the largest and least height off it
        if high * ratio_low > ratio_high * low:
            ratio_high, ratio_low = high, low
        seen.setdefault((normal, c), set()).update(incident)
    if not highs:
        raise DegenerateDimensionError(_NOT_SPANNING)
    facets = []
    for (normal, c), incident in seen.items():
        kind = "outer" if c > 0 else ("inner" if c == 0 else None)
        facets.append(FacetFunctional(
            normal=normal, offset=c, incident=tuple(sorted(incident)), kind=kind,
        ))
    facets.sort(key=lambda f: ({"outer": 0, "inner": 1}.get(f.kind, 2), f.normal, f.offset))
    # a point is a vertex when the facets through it meet in that point
    # alone; otherwise they meet in a face of dimension >= 1 (all of H when
    # no facet passes through it), and a face holds >= 2 points of A
    meet: list[set[int] | None] = [None] * len(pts)
    for incident in seen.values():
        for i in incident:
            meet[i] = incident if meet[i] is None else meet[i] & incident
    return Polytope(
        dim=d,
        points=pts,
        facets=tuple(facets),
        extremal=tuple(sorted(pts[i] for i, m in enumerate(meet) if m == {i})),
        det_max=max(highs),
        det_min=min(lows),
        height_ratio=Fraction(ratio_high, ratio_low),
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


@config_memo(_volume_cache)
def volumes(config: PointConfig) -> VolumeData:
    """Hull volume, extreme simplex determinants, and infinity-norm width.

    det_max / det_min are the hull scan's nonzero |det| range over all
    (d+1)-point subsets; det_max / d! is the largest simplex volume spanned
    by the points.  The volume sums the triangulation from the origin when
    it is a vertex (the one ``triangulate_from_origin`` reads), else from
    the least point.
    """
    d = config.dim
    pts = config.points
    if d == 0:
        return VolumeData(volume=Fraction(1), det_max=1, det_min=1, width=0)
    width = max(max(column) - min(column) for column in zip(*pts))
    poly = convex_hull(config)
    apex = (0,) * d if (0,) * d in poly.extremal else min(pts)  # min(pts) is a vertex
    vol = Fraction(0)
    for simplex in _simplices(config, apex):
        det = determinant([[p[k] - apex[k] for k in range(d)] for p in simplex])
        if not det:
            raise InternalInvariantError("a simplex of the triangulation is flat")
        vol += Fraction(abs(det), math.factorial(d))
    return VolumeData(volume=vol, det_max=poly.det_max, det_min=poly.det_min, width=width)


def _triangulate(poly: Polytope, face: frozenset, apex: int) -> list[tuple[Point, ...]]:
    """Simplices (apex implicit) covering one face of ``poly``, each spanned
    by hull vertices: ``face`` holds the indices of the points on the face,
    and ``apex`` the index of one of its vertices.

    A pulling triangulation: each facet of the face that misses the apex is
    triangulated from its lexicographically least vertex and coned back to
    the apex, which makes the output canonical.  The facets of a face F are
    the maximal sets among F & G.incident over the facets G of the hull, F
    itself left out: every facet of F is cut out by a facet of the hull,
    and a face is fixed by the points on it.
    """
    if face == {apex}:
        return [()]
    cuts = {face.intersection(g.incident) for g in poly.facets} - {face}
    simplices = set()
    for facet in cuts:
        if apex in facet or any(facet < other for other in cuts):
            continue  # a facet through the apex, or a lower face
        vertices = [poly.points[i] for i in facet if poly.points[i] in poly.extremal]
        if not vertices:
            raise InternalInvariantError("a face of the hull holds no vertex")
        sub_apex = min(vertices)
        for sub in _triangulate(poly, facet, poly.points.index(sub_apex)):
            simplices.add(tuple(sorted((sub_apex, *sub))))
    return sorted(simplices)


@config_memo(_triangulation_cache)
def _simplices(config: PointConfig, apex) -> tuple[tuple[Point, ...], ...]:
    """The triangulation of the hull from its vertex ``apex``: _triangulate
    on the faces of the one hull of ``config``, computed once per
    configuration and apex; ``volumes`` and ``triangulate_from_origin`` both
    read it."""
    poly = convex_hull(config)
    if apex not in poly.extremal:
        raise PreconditionError("apex must be a vertex of the hull")
    face = frozenset(range(config.size))
    return tuple(_triangulate(poly, face, config.index_of(apex)))


def triangulate_from_origin(config: PointConfig) -> Triangulation:
    """Partition the hull into simplices sharing the origin as a vertex.

    Requires 0 to be an extremal point.  Every simplex is spanned by dim
    linearly independent extremal points (plus the implicit origin), and the
    simplex volumes add up to the hull volume exactly.  The simplices are
    the pulling triangulation of :func:`_simplices` from the origin.
    """
    zero = (0,) * config.dim
    if zero not in config.points or zero not in config.extremal():
        raise PreconditionError("origin must be an extremal point of the hull")
    return Triangulation(simplices=_simplices(config, zero))


def facet_height_ratio(config: PointConfig) -> Fraction:
    """Worst facet-wise ratio of farthest to nearest point "heights".

    The height of a over a facet is offset - normal . a, positive off it.
    For d affinely independent points b_1..b_d of the facet, det(b_1 - a,
    ..., b_d - a) is a fixed nonzero multiple of it (their cofactor vector
    is a multiple of the normal), so the ratio is the determinants' ratio.
    Returns max over facets of max/min height over the points off it, and
    at least 1: the hull scan's ``height_ratio``, read off the dot products
    it takes on each facet subset, so a cached hull answers with a lookup.
    """
    return convex_hull(config).height_ratio


def _dilate_box(config: PointConfig, n: int):
    columns = list(zip(*config.points))
    return [n * min(c) for c in columns], [n * max(c) for c in columns]


def dilate_box_cells(config: PointConfig, n: int) -> int:
    """The number of points of the integer bounding box of n*H."""
    return kernels.key_strides(*_dilate_box(config, n))[1]


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
    """The one scan of dilates: the box {n} x (box of n*H) under the
    homogenized facet rows [-offset | normal] . (n, x) <= 0, so that a
    0-dimensional H needs no case of its own."""
    if n < 1:
        raise PreconditionError("dilation factor must be >= 1")
    box = dilate_box_cells(config, n)
    if box > cap_points:
        raise BudgetExceededError(
            f"bounding box holds {box} points, above the {cap_points} cap", reached=n)
    lo, hi = _dilate_box(config, n)
    lhs = [[-f.offset, *f.normal] for f in convex_hull(config).facets]
    found = scan_box([n, *lo], [n, *hi], lhs, [0] * len(lhs), enumerate_points)
    return found[:, 1:] if enumerate_points else found


def scan_box(lo, hi, lhs, rhs, enumerate_points: bool):
    """Lattice points x with lo <= x <= hi and lhs @ x <= rhs, or their count.

    The kernels run on int64 when every dot product provably fits and on
    Python ints (dtype object) otherwise.  Points come back as a
    lex-sorted array of that dtype.
    """
    extent = [max(abs(a), abs(b)) for a, b in zip(lo, hi)]
    bound = max((sum(abs(v) * e for v, e in zip(row, extent)) for row in lhs), default=0)
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


def cone_functional(poly: Polytope, vertex) -> Point:
    """The negated sum of the normals of the facets through ``vertex``: 0 at
    the origin and at least 1 on every other lattice point of the cone of
    H - vertex, as the vertex is the only point on all of those facets.
    """
    if tuple(vertex) not in poly.extremal:
        where = vertex if any(vertex) else "the origin"
        raise PreconditionError(f"cone is not pointed at {where}")
    normals = [f.normal for f in poly.facets if f.dot(vertex) == f.offset]
    return tuple(-sum(n[k] for n in normals) for k in range(poly.dim))
