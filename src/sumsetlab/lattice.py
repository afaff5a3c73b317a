"""Exact integer and rational linear algebra over point configurations.

Everything here is arbitrary precision: determinants via fraction-free
elimination, lattice bases via integer row reduction to Hermite form, and
input normalization (translate an extremal point to the origin and change
coordinates so the generated lattice is the full integer lattice).
Hull vertices come from the integer facet scan in :mod:`sumsetlab.polytope`:
a point is a vertex when the facets through it meet in that point alone.
The lex-least point of a finite set is always a vertex, which is the
default normalization pivot.  No floating point is used anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionError,
    InternalInvariantError,
    PreconditionError,
)

Point = tuple[int, ...]


def _as_point(coords) -> Point:
    return tuple(int(c) for c in coords)


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = [[int(v) for v in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _echelon(rows, ncols):
    """Integer row reduction of ``rows`` on their first ``ncols`` columns,
    by gcd steps that keep the lattice the rows span.

    Returns (pivots, rest): for each column in turn, the one row left
    nonzero there (no row when all are 0), and then the remaining nonzero
    rows, which are 0 on all ``ncols`` columns.
    """
    pivots = []
    for col in range(ncols):
        if not rows:
            break
        live = [r for r in rows if r[col] != 0]
        rows = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a = live[0]
            reduced = [a]
            for r in live[1:]:
                q = r[col] // a[col]
                new = [x - q * y for x, y in zip(r, a)]
                if new[col] != 0:
                    reduced.append(new)
                elif any(new):
                    rows.append(new)
            live = reduced
        pivots.extend(live)
    return pivots, rows


def hermite_basis(vectors) -> list[list[int]]:
    """Row Hermite normal form basis of the lattice generated by ``vectors``.

    Returns echelon rows with positive pivots and the entries above each
    pivot reduced into [0, pivot).  The result is canonical: feeding it back
    in reproduces it exactly.
    """
    rows = [list(map(int, v)) for v in vectors if any(v)]
    if not rows:
        return []
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DimensionError("vectors must share one dimension")
    basis = _echelon(rows, width)[0]
    pivots = [next(i for i, v in enumerate(row) if v != 0) for row in basis]
    basis = [row if row[c] > 0 else [-x for x in row] for row, c in zip(basis, pivots)]
    # reduce entries above each pivot so the form is canonical; ascending
    # order is required: row i only alters columns >= its pivot column
    for i in range(1, len(basis)):
        c = pivots[i]
        p = basis[i][c]
        for j in range(i):
            q = basis[j][c] // p
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


def lattice_basis(vectors) -> tuple[list[Point], int | None]:
    """Basis of the lattice generated by ``vectors`` plus its index in Z^d.

    The index is [Z^d : lattice] when the lattice has full rank, else None
    (an infinite index).  An empty input yields an empty basis.
    """
    vecs = [_as_point(v) for v in vectors]
    if not vecs:
        return [], None
    dim = len(vecs[0])
    basis = hermite_basis(vecs)
    rows = [tuple(r) for r in basis]
    if len(rows) < dim:
        return rows, None
    idx = abs(determinant(rows))
    if idx == 0:  # cannot happen for an echelon basis; guard anyway
        raise InternalInvariantError("full-rank basis with zero determinant")
    return rows, idx


def lattice_rank(vectors) -> int:
    return len(hermite_basis(vectors))


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Basis of the lattice {x in Z^n : M x = 0} for an integer matrix M.

    Row-reduces the transpose alongside an identity block; rows whose image
    part vanishes carry a basis of the full integer kernel.  The result is
    returned in canonical Hermite form.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return []
    live = [
        [int(rows[i][j]) for i in range(nrows)]
        + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    live = _echelon(live, nrows)[1]  # the pivot rows are not in the kernel
    kernel = [w[nrows:] for w in live]
    return [tuple(r) for r in hermite_basis(kernel)]


def solve_in_lattice(basis, target) -> tuple[int, ...] | None:
    """Integer coefficients c with sum(c_j * basis_j) == target, or None.

    ``basis`` must be echelon rows (as produced by :func:`hermite_basis`).
    """
    if not basis:
        return () if not any(target) else None
    width = len(basis[0])
    resid = [int(v) for v in target]
    if len(resid) != width:
        raise DimensionError("target dimension mismatch")
    coeffs = []
    for row in basis:
        c = next(i for i, v in enumerate(row) if v != 0)
        if resid[c] % row[c] != 0:
            return None
        q = resid[c] // row[c]
        coeffs.append(q)
        if q:
            resid = [x - q * y for x, y in zip(resid, row)]
    if any(resid):
        return None
    return tuple(coeffs)


def solve_rational(rows, rhs) -> tuple[list[Fraction], int] | None:
    """One exact solution of rows * x = rhs with free variables set to 0.

    Returns (solution, rank) or None when the system is inconsistent.
    """
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if len(m) != len(rhs):
        raise DimensionError("rows / rhs length mismatch")
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncols]
    return sol, len(pivots)


def extremal_points(points, dim) -> list[Point]:
    """The vertices of the convex hull of ``points`` (distinct), lex-sorted.

    A point is a vertex when the facets through it meet in that point
    alone: it is the only point of the set on all of them.
    :func:`sumsetlab.polytope.convex_hull` reads this off the incidences of
    its integer facet scan.  A set of lower rank is first mapped onto Z^rank
    (the least point to 0, coordinates over the Hermite basis of the
    differences, as in :func:`normalize_config`); the map is affine and
    injective, so it keeps exactly the same points as vertices.
    """
    from .polytope import convex_hull  # polytope imports this module

    pts = tuple(_as_point(p) for p in points)
    base = min(pts)
    diffs = [tuple(x - b for x, b in zip(p, base)) for p in pts]
    basis = hermite_basis(diffs)
    if len(basis) == dim:
        return list(convex_hull(PointConfig(points=pts, dim=dim)).extremal)
    if not basis:
        return [base]
    reduced = tuple(solve_in_lattice(basis, t) for t in diffs)
    hull = convex_hull(PointConfig(points=reduced, dim=len(basis)))
    vertices = set(hull.extremal)
    return sorted(p for p, r in zip(pts, reduced) if r in vertices)


@dataclass(frozen=True)
class Normalization:
    """How a normalized configuration maps back to its source coordinates.

    A normalized point c corresponds to ``translation + sum(c_j * basis[j])``
    in the source frame.  ``basis`` is None for a pure translation, and
    empty when the source set is one point.
    """

    translation: Point
    basis: tuple[Point, ...] | None
    source_dim: int

    def to_source(self, point: Point) -> Point:
        if self.basis is None:
            return tuple(t + x for t, x in zip(self.translation, point))
        acc = list(self.translation)
        for c, row in zip(point, self.basis):
            for k, v in enumerate(row):
                acc[k] += c * v
        return tuple(acc)


@dataclass(frozen=True)
class PointConfig:
    """An ordered finite set of distinct lattice points in Z^dim."""

    points: tuple[Point, ...]
    dim: int
    normalization: Normalization | None = None
    normalized: bool = field(default=False, compare=False)

    def __post_init__(self):
        pts = tuple(_as_point(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise PreconditionError("a point configuration needs at least one point")
        if any(len(p) != self.dim for p in pts):
            raise DimensionError("all points must have length dim")
        if len(set(pts)) != len(pts):
            raise PreconditionError("points must be pairwise distinct")

    @classmethod
    def from_points(cls, points, dim=None) -> "PointConfig":
        pts = [_as_point(p) for p in points]
        if dim is None:
            if not pts:
                raise PreconditionError("cannot infer dimension of an empty set")
            dim = len(pts[0])
        return cls(points=tuple(pts), dim=dim)

    @property
    def size(self) -> int:
        return len(self.points)

    def columns(self) -> list[list[int]]:
        """The dim-by-size matrix with the points as columns, as row lists."""
        return [[p[k] for p in self.points] for k in range(self.dim)]

    def augmented_columns(self) -> list[list[int]]:
        """Same as :meth:`columns` with an all-ones weight row appended."""
        return self.columns() + [[1] * self.size]

    def combine(self, coefficients) -> Point:
        """sum(c_i * point_i) for integer or rational coefficients."""
        acc = [0] * self.dim
        for c, p in zip(coefficients, self.points):
            if c:
                for k in range(self.dim):
                    acc[k] += c * p[k]
        return tuple(acc)

    def extremal(self) -> list[Point]:
        """The hull vertices (extremal_points), computed once per point set;
        each call returns a fresh list.  A normalized config spans its
        space, so its vertices are read off its cached hull, with no rank
        test."""
        if self.normalized:
            from .polytope import convex_hull  # polytope imports this module

            return list(convex_hull(self).extremal)
        return list(_extremal(self))

    def index_of(self, point) -> int:
        return self.points.index(_as_point(point))


CACHE_ENTRIES = 1024  # results one memo store holds before it is emptied


def config_memo(store: dict):
    """Memoize ``fn(config, *args)`` in ``store`` under the key
    ``(config.points, config.dim, *args)``: configurations with equal points
    share results, whatever their normalization.  A full store (CACHE_ENTRIES
    results) is emptied.  Results are shared, so must be immutable (not None).
    """
    def decorate(fn):
        @functools.wraps(fn)
        def memoized(config, *args):
            key = (config.points, config.dim, *args)
            value = store.get(key)
            if value is None:
                value = fn(config, *args)
                if len(store) >= CACHE_ENTRIES:
                    store.clear()
                store[key] = value
            return value

        return memoized

    return decorate


_extremal_cache: dict[tuple, tuple[Point, ...]] = {}


@config_memo(_extremal_cache)
def _extremal(config: PointConfig) -> tuple[Point, ...]:
    return tuple(extremal_points(config.points, config.dim))


def normalize_config(config: PointConfig, pivot=None) -> PointConfig:
    """Translate an extremal point to 0 and re-coordinatize onto Z^rank.

    The pivot defaults to the lexicographically least point, which is always
    a vertex of the hull (it is the unique minimizer of a linear functional
    that weighs each coordinate far above the next); this makes the
    operation deterministic and idempotent.  The recorded
    :class:`Normalization` maps results back to the input frame.  Sumset
    cardinalities and all thresholds are invariant under this map.

    The result is memoized on (points, dim, pivot as a tuple), so a cache
    hit returns the one shared immutable config; a pivot that is not a
    vertex raises on every call.  :func:`normalize_fresh` recomputes.
    """
    return _normalized(config, None if pivot is None else _as_point(pivot))


def normalize_fresh(config: PointConfig, pivot=None) -> PointConfig:
    """:func:`normalize_config` computed anew, without the memo."""
    if pivot is None:
        piv = min(config.points)
    else:
        piv = _as_point(pivot)
        if piv not in config.extremal():
            raise PreconditionError(f"pivot {piv} is not an extremal point")
    translated = [tuple(a - b for a, b in zip(p, piv)) for p in config.points]
    basis = hermite_basis(translated)
    rank = len(basis)
    new_points = []
    for t in translated:
        coeffs = solve_in_lattice(basis, t)
        if coeffs is None:
            raise InternalInvariantError("generator escaped its own lattice")
        new_points.append(coeffs)
    is_identity = rank == config.dim and all(
        basis[i][j] == (1 if i == j else 0) for i in range(rank) for j in range(config.dim)
    )
    norm = Normalization(
        translation=piv,
        basis=None if is_identity else tuple(tuple(r) for r in basis),
        source_dim=config.dim,
    )
    return PointConfig(
        points=tuple(sorted(new_points)),
        dim=rank,
        normalization=norm,
        normalized=True,
    )


_normalize_cache: dict[tuple, PointConfig] = {}


@config_memo(_normalize_cache)
def _normalized(config: PointConfig, pivot: Point | None) -> PointConfig:
    return normalize_fresh(config, pivot)


def is_normalized(config: PointConfig) -> bool:
    """True when 0 is an extremal point and the points generate Z^dim."""
    zero = (0,) * config.dim
    if zero not in config.points:
        return False
    if config.dim == 0:
        return True
    basis = hermite_basis(config.points)
    if len(basis) != config.dim:
        return False
    if abs(determinant(basis)) != 1:
        return False
    return zero in config.extremal()


def require_normalized(config: PointConfig) -> PointConfig:
    """Pass the config through, raising unless it is in normalized form."""
    if config.normalized or is_normalized(config):
        return config
    raise PreconditionError(
        "configuration must be normalized first (0 extremal, full lattice); "
        "call normalize_config"
    )


def is_anchored(config: PointConfig) -> bool:
    """True when 0 is an extremal point and the points span the space.

    Weaker than :func:`is_normalized`: the generated lattice may be a proper
    sublattice.  This matches what the reduction and decomposition
    operations actually require.
    """
    zero = (0,) * config.dim
    if zero not in config.points:
        return False
    if lattice_rank(config.points) != config.dim:
        return False
    return zero in config.extremal()


def require_anchored(config: PointConfig) -> PointConfig:
    if config.normalized or is_anchored(config):
        return config
    raise PreconditionError(
        "configuration must have the origin as an extremal point and span "
        "the ambient space; call normalize_config"
    )


def content(vector) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for v in vector:
        g = gcd(g, abs(int(v)))
    return g
