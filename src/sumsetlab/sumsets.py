"""Iterated sumsets, semigroup membership, and exceptional lattice points.

Point sets ride numpy arrays through the hot kernels: int64 whenever the
coordinates and keys provably fit, Python ints (dtype object) otherwise,
on the same code path (kernels.key_dtype picks).  All outputs are
canonicalized (lexicographically sorted) so runs are deterministic
whatever the dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from . import kernels
from .errors import BudgetExceededError, InternalInvariantError, PreconditionError
from .lattice import (
    Point,
    PointConfig,
    hermite_basis,
    require_normalized,
    solve_in_lattice,
)
from .polytope import (
    cone_constraints,
    cone_functional,
    convex_hull,
    dilate_points,
    scan_box,
)


@dataclass(frozen=True)
class GrowthRecord:
    n: int
    size: int
    points: tuple[Point, ...] | None = None


@dataclass(frozen=True)
class GrowthTable:
    records: tuple[GrowthRecord, ...]

    def sizes(self) -> list[int]:
        return [r.size for r in self.records]

    def size_at(self, n: int) -> int:
        return self.records[n - 1].size


@dataclass(frozen=True)
class RegionSpec:
    """A finite search region: an explicit coordinate box or a hull dilate."""

    kind: str
    bounds: tuple[tuple[int, int], ...] | None = None
    n: int | None = None

    @classmethod
    def box(cls, bounds) -> "RegionSpec":
        bs = tuple((int(a), int(b)) for a, b in bounds)
        if any(a > b for a, b in bs):
            raise PreconditionError("empty box region")
        return cls(kind="box", bounds=bs)

    @classmethod
    def dilate(cls, n: int) -> "RegionSpec":
        if n < 1:
            raise PreconditionError("dilate region needs n >= 1")
        return cls(kind="dilate", n=int(n))


# most sums one sumset_step call may expand before deduplication
CANDIDATE_BLOCK_ROWS = 1 << 22


def _frontier_box(config: PointConfig, n_max: int):
    """(lo, strides, dtype) of the key box that holds N*A for every N in 1..n_max.

    dtype is int64 when the coordinates and the keys of that box fit the
    kernel range, and Python ints (dtype object) otherwise.
    """
    n_top = max(n_max, 1)
    max_abs = max((abs(c) for p in config.points for c in p), default=0)
    columns = list(zip(*config.points))
    lo = [min(min(col), n_top * min(col)) for col in columns]
    hi = [max(max(col), n_top * max(col)) for col in columns]
    strides, span = kernels.key_strides(lo, hi)
    return lo, strides, kernels.key_dtype(span, max_abs * n_top * 2)


def _expand(frontier: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sorted distinct keys of frontier + offsets.

    The sums are expanded in blocks of at most CANDIDATE_BLOCK_ROWS.
    """
    m = len(offsets)
    f_step = max(1, CANDIDATE_BLOCK_ROWS // m)
    g_step = min(m, CANDIDATE_BLOCK_ROWS)
    blocks = [kernels.sumset_step(frontier[i:i + f_step], offsets[j:j + g_step])
              for i in range(0, len(frontier), f_step)
              for j in range(0, m, g_step)]
    if len(blocks) == 1:
        return blocks[0]
    return kernels.sorted_unique(np.concatenate(blocks))


def _iterate_keys(config: PointConfig, n_max: int, lo, strides, dtype,
                  cap_points: int | None = None) -> Iterator[np.ndarray]:
    """Sorted keys of N*A for N = 1..n_max, each level grown from the new
    points of the one before.

    With t the lex-least point of A, (N-1)A + t lies inside NA, and every
    other point of NA is f + a with a in A and f in the frontier
    F = (N-1)A minus ((N-2)A + t).  Keys live in one box that holds every
    level (``lo``, ``strides`` and the keys' ``dtype``, from _frontier_box):
    there adding a point a shifts every key by the same offset a @ strides,
    so the frontier stays keys from level to level, and key order is lex
    order.  A level N >= 2 of more than ``cap_points`` keys raises
    BudgetExceededError (``reached`` names it) before it is allocated.
    """
    gens = kernels.points_to_array(sorted(config.points), dtype)
    offsets = gens @ np.asarray(strides, dtype=dtype)
    keys = kernels.pack_rows(gens, lo, strides, dtype)
    frontier = keys[1:]
    yield keys
    for n in range(2, n_max + 1):
        keys = keys + offsets[0]
        if len(frontier):
            cand = _expand(frontier, offsets)
            frontier = cand[~kernels.sorted_member(cand, keys)]
            size = len(keys) + len(frontier)
            if cap_points is not None and size > cap_points:
                raise _level_over_budget(size, cap_points, n)
            # two sorted runs: the stable sort merges them in linear time
            keys = np.concatenate([keys, frontier])
            keys.sort(kind="stable")
        yield keys


def _level_over_budget(size: int, cap_points: int, n: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"sumset size {size} exceeds the {cap_points} point budget at N={n}",
        reached=n)


def _iterate_tuples(config: PointConfig, n_max: int) -> Iterator[list[Point]]:
    """N*A by the plain {p + g} set iteration: the reference for the tests."""
    gens = sorted(config.points)
    cur = set(gens)
    yield sorted(cur)
    for _ in range(2, n_max + 1):
        cur = {tuple(a + b for a, b in zip(p, g)) for p in cur for g in gens}
        yield sorted(cur)


def sumset_arrays(config: PointConfig, n_max: int) -> Iterator[np.ndarray]:
    """Yield N*A for N = 1..n_max as lexicographically sorted point arrays.

    Level 1 is always yielded.  The levels come from the frontier
    iteration; the arrays are int64 when the coordinates and the keys of
    the box that holds all levels provably fit the kernel range, and hold
    Python ints (dtype object) otherwise.
    """
    lo, strides, dtype = _frontier_box(config, n_max)
    for keys in _iterate_keys(config, n_max, lo, strides, dtype):
        yield kernels.decode_keys(keys, lo, strides)


_iterate_arrays = sumset_arrays  # the name perfbench/kernels_compare.py imports


def iter_sumsets(config: PointConfig, n_max: int) -> Iterator[list[Point]]:
    """Yield the point list of N*A for N = 1..n_max, lexicographically sorted."""
    for arr in sumset_arrays(config, n_max):
        yield kernels.array_to_points(arr)


def sumset_levels(config: PointConfig, n_max: int, cap_points: int = 10 ** 7,
                  keep_points: bool = False) -> Iterator[tuple[int, np.ndarray | None]]:
    """Yield (|N*A|, N*A) for N = 1.. up to n_max, under the point budget.

    The point arrays are those of sumset_arrays with ``keep_points`` and
    None without; then the levels are never decoded from their keys.
    A level of more than ``cap_points`` points is not yielded: a
    BudgetExceededError names it (``reached``) instead.  Past level 1
    that error comes before the level is allocated.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    lo, strides, dtype = _frontier_box(config, n_max)
    for n, keys in enumerate(
            _iterate_keys(config, n_max, lo, strides, dtype, cap_points), start=1):
        if len(keys) > cap_points:  # level 1: later ones raise before they exist
            raise _level_over_budget(len(keys), cap_points, n)
        yield len(keys), (kernels.decode_keys(keys, lo, strides) if keep_points else None)


def sumset_iterate(config: PointConfig, n_max: int, keep_points: bool = False,
                   cap_points: int = 10 ** 7) -> GrowthTable:
    """Exact growth table of |N*A| for N = 1..n_max.

    The levels come from sumset_levels: each grows from the new points of
    the one before.  When a level would exceed ``cap_points`` points, a
    BudgetExceededError is raised that names the level reached and carries
    the partial table.
    """
    records: list[GrowthRecord] = []
    try:
        for n, (size, pts) in enumerate(
                sumset_levels(config, n_max, cap_points, keep_points), start=1):
            stored = tuple(kernels.array_to_points(pts)) if keep_points else None
            records.append(GrowthRecord(n=n, size=size, points=stored))
    except BudgetExceededError as exc:
        exc.partial = GrowthTable(records=tuple(records))
        raise
    return GrowthTable(records=tuple(records))


class SemigroupOracle:
    """Membership in the semigroup P(B) of the nonzero points B of a config.

    The cone of B must be pointed (the origin a vertex of the hull of
    B + {0}).  Every answer comes from the semigroup sieve
    (``semigroup_sieve``) over ell = ``cone_functional`` of that hull, and
    minimum weights from the generator-count levels N(B + {0}).  A set B of
    rank below the dimension is mapped onto Z^rank by its Hermite basis,
    which keeps lex order; a full-rank sublattice needs no map, because
    sieve keys only ever hold sums of generators.  The oracle keeps no
    memo: answering never changes it.
    """

    def __init__(self, config: PointConfig):
        self._dim = config.dim
        self._source = sorted(set(config.points) - {(0,) * config.dim})
        basis = hermite_basis(self._source)
        self._basis = basis if len(basis) < config.dim else None
        gens = (self._source if self._basis is None
                else [solve_in_lattice(basis, g) for g in self._source])
        rank = len(basis)
        self._gens = gens
        self._config = PointConfig.from_points([(0,) * rank] + gens, rank)
        poly = convex_hull(self._config)
        self._ell = cone_functional(poly)
        self._normals = cone_constraints(poly)
        # largest |dot product| per unit coordinate over the cone tests
        self._reach = max((sum(map(abs, row)) for row in self._normals + [self._ell]),
                          default=0)

    def _coords(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The points in the sieve's coordinates and the mask of cone points.

        The rows are int64 when every cone test provably fits the kernel
        range and Python ints (dtype object) otherwise.
        """
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != self._dim:
            raise PreconditionError("point dimension mismatch")
        largest = (max(map(abs, pts.ravel().tolist()), default=0) if pts.dtype == object
                   else int(np.abs(pts).max(initial=0)))
        pts = pts.astype(kernels.key_dtype(largest * self._reach), copy=False)
        inside = np.ones(len(pts), dtype=bool)
        if self._basis is not None:
            solved = [solve_in_lattice(self._basis, p) for p in pts.tolist()]
            inside = np.array([c is not None for c in solved], dtype=bool)
            zero = (0,) * self._config.dim
            pts = np.array([c or zero for c in solved], dtype=object).reshape(
                len(solved), self._config.dim)
        for normal in self._normals:
            inside &= pts @ np.asarray(normal, dtype=pts.dtype) <= 0
        return pts, inside

    def _lookup(self, pts, cap_points) -> np.ndarray:
        """Membership of cone points (in sieve coordinates) by one sieve."""
        if not len(pts):
            return np.zeros(0, dtype=bool)
        top = int((pts @ np.asarray(self._ell, dtype=pts.dtype)).max())
        return semigroup_sieve(self._config, self._ell, top, cap_points).members(pts)

    def members(self, points, cap_points: int = 10 ** 7) -> np.ndarray:
        """Boolean mask of the rows of ``points`` that lie in P(B).

        Points outside the cone of B or off the lattice of its span are
        not members; the rest are looked up in one sieve, built up to the
        largest ell among them and charged against ``cap_points``.
        """
        pts, inside = self._coords(points)
        inside[inside] = self._lookup(pts[inside], cap_points)
        return inside

    def contains(self, point) -> bool:
        return bool(self.members(np.array([tuple(point)], dtype=object))[0])

    def _weight_levels(self, point):
        """Keys of N(B + {0}) for N = 0..w, w the least with ``point`` in it.

        Returns (levels, point in sieve coordinates, key), where key packs
        point rows into a box that holds every level and every level
        shifted by minus a generator; None when ``point`` is not in P(B).
        """
        pts, inside = self._coords(np.array([tuple(point)], dtype=object))
        if not (inside[0] and self._lookup(pts, 10 ** 7)[0]):
            return None
        y = tuple(int(v) for v in pts[0])
        cfg = self._config
        weights = [sum(e * v for e, v in zip(self._ell, p)) for p in [y] + self._gens]
        # each generator adds at least the least ell(g) to ell(y)
        n_max = max(1, weights[0] // min(weights[1:], default=1))
        columns = list(zip(*cfg.points))
        lo = [n_max * min(col) - max(col) for col in columns]
        hi = [n_max * max(col) - min(col) for col in columns]
        strides, span = kernels.key_strides(lo, hi)
        key = partial(kernels.pack_rows, lo=lo, strides=strides,
                      dtype=kernels.key_dtype(span))
        levels = [key([(0,) * cfg.dim])]
        for _, level in sumset_levels(cfg, n_max, keep_points=True):
            if kernels.sorted_member(key([y]), levels[-1])[0]:
                break
            levels.append(key(level))
        return levels, y, key

    def min_weight(self, point) -> int | None:
        """Least number of generators summing to ``point`` (None if outside)."""
        found = self._weight_levels(point)
        return None if found is None else len(found[0]) - 1

    def min_weight_certificate(self, point) -> dict[Point, int] | None:
        """A minimum-length combination {generator: count}, or None.

        Walks down the generator-count levels: from level w it steps to
        level w - 1 by the lex-least generator g with point - g there.
        """
        found = self._weight_levels(point)
        if found is None:
            return None
        levels, cur, key = found
        counts: dict[Point, int] = {}
        for level in reversed(levels[:-1]):
            children = [tuple(a - b for a, b in zip(cur, g)) for g in self._gens]
            hit = np.flatnonzero(kernels.sorted_member(key(children), level))
            if not len(hit):  # pragma: no cover - would contradict the levels
                raise InternalInvariantError("certificate reconstruction failed")
            j = int(hit[0])
            counts[self._source[j]] = counts.get(self._source[j], 0) + 1
            cur = children[j]
        return counts


def semigroup_contains(config: PointConfig, point) -> tuple[bool, dict[Point, int] | None]:
    """Whether ``point`` is a nonnegative integer combination of the nonzero
    points of ``config``, together with a witnessing (minimum-weight)
    combination."""
    cert = SemigroupOracle(config).min_weight_certificate(tuple(point))
    return (cert is not None, cert)


@dataclass(frozen=True)
class SemigroupSieve:
    """The semigroup P(B) inside {y : ell . y <= limit}, as sorted packed keys.

    Keys pack the box that holds the region (``lo`` and ``strides``, see
    kernels.key_strides); they are int64 when the box fits the kernel range
    and Python ints (dtype object) otherwise.  ``keys`` must be sorted
    ascending: ``members`` searches it by bisection.
    """

    ell: Point
    limit: int
    lo: Point
    strides: tuple[int, ...]
    keys: np.ndarray

    def members(self, points) -> np.ndarray:
        """Boolean mask of the points that lie in P(B).

        Every point must lie in the cone of B with ell . point <= limit.
        The points may come in any order: their keys are looked up by
        binary search in ``keys``, which is sorted by construction.
        """
        keys = kernels.pack_rows(points, self.lo, self.strides, self.keys.dtype)
        return kernels.sorted_member(keys, self.keys)


def semigroup_sieve(config: PointConfig, ell, limit: int,
                    cap_points: int = 10 ** 7) -> SemigroupSieve:
    """P(B) inside {ell <= limit}, for the nonzero points B of ``config``.

    ``ell`` must be an integer functional that is at least 1 on every point
    of B (polytope.cone_functional gives one when the cone of B is pointed
    at 0), so every partial sum of a representation of y stays in
    {ell <= ell . y}.  The sieve grows from {0} one ell-level at a time:
    y with ell . y = t is in P(B) exactly when y - g is for some g in B,
    and y - g sits on level t - ell . g.  Level t is therefore the union of
    the earlier levels t - ell . g shifted by g; levels are disjoint, so no
    point is ever tested against the points already found.

    Each level is charged against ``cap_points`` (points held plus the rows
    about to be merged) before it is allocated.  Past the budget a
    BudgetExceededError names the last complete level (``reached``) and
    carries the sieve up to it (``partial``).
    """
    if limit < 0:
        raise PreconditionError("sieve limit must be >= 0")
    gens = sorted(p for p in config.points if any(p))
    ell = tuple(int(v) for v in ell)
    weights = [sum(e * x for e, x in zip(ell, g)) for g in gens]
    if any(w < 1 for w in weights):
        raise PreconditionError("the functional must be at least 1 on every generator")
    # coordinate k of a sum of generators with total weight <= limit lies
    # between limit * g_k / ell(g) at its least and at its largest
    lo = tuple(min([0] + [-(-limit * g[k] // w) for g, w in zip(gens, weights)])
               for k in range(config.dim))
    hi = tuple(max([0] + [limit * g[k] // w for g, w in zip(gens, weights)])
               for k in range(config.dim))
    strides, span = kernels.key_strides(lo, hi)
    steps = [(w, sum(x * s for x, s in zip(g, strides)))
             for g, w in zip(gens, weights)]
    origin = sum(-a * s for a, s in zip(lo, strides))
    levels = [np.array([origin], dtype=kernels.key_dtype(span))]
    empty = levels[0][:0]

    def sieve(top: int) -> SemigroupSieve:
        # disjoint sorted levels: the stable sort merges the runs
        keys = np.concatenate(levels[:top + 1])
        keys.sort(kind="stable")
        return SemigroupSieve(ell=ell, limit=top, lo=lo, strides=strides, keys=keys)

    held = 1
    for t in range(1, limit + 1):
        parts = [(levels[t - w], step) for w, step in steps if w <= t]
        rows = sum(len(level) for level, _ in parts)
        if held + rows > cap_points:
            raise BudgetExceededError(
                f"semigroup sieve level {t} needs more than {cap_points} points",
                reached=t - 1, partial=sieve(t - 1))
        # a level that no generator weight reaches stays empty, unmerged
        level = empty if rows == 0 else kernels.sorted_unique(
            np.concatenate([empty] + [lv + step for lv, step in parts]))
        levels.append(level)
        held += len(level)
    return sieve(limit)


def region_points(config: PointConfig, region: RegionSpec,
                  cap_points: int = 10 ** 7) -> np.ndarray:
    """Lattice points of the region in the cone of the config, as a lex-sorted
    array (int64, or Python ints when the scan needs them)."""
    if region.kind == "dilate":
        return dilate_points(config, region.n, cap_points)
    bounds = region.bounds
    if len(bounds) != config.dim:
        raise PreconditionError("box bounds must match the dimension")
    size = 1
    for a, b in bounds:
        size *= (b - a + 1)
    if size > cap_points:
        raise BudgetExceededError(
            f"region holds {size} points, above the {cap_points} cap")
    normals = cone_constraints(convex_hull(config))
    lo = [a for a, _ in bounds]
    hi = [b for _, b in bounds]
    return scan_box(lo, hi, [list(n) for n in normals], [0] * len(normals), True)


def exceptional_in_region(config: PointConfig, region: RegionSpec,
                          cap_points: int = 10 ** 7) -> list[Point]:
    """Cone lattice points in the region that the semigroup never reaches.

    Only ever computed inside an explicit finite region; the full
    exceptional set can be infinite.
    """
    require_normalized(config)
    pts = region_points(config, region, cap_points)
    return kernels.array_to_points(pts[~SemigroupOracle(config).members(pts, cap_points)])
