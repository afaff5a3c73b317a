"""Iterated sumsets, semigroup membership, and exceptional lattice points.

Point sets ride int64 numpy arrays through the hot kernels whenever the
coordinates provably fit; otherwise everything falls back to exact Python
integers.  All outputs are canonicalized (lexicographically sorted) so runs
are deterministic regardless of backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import kernels
from .errors import BudgetExceededError, PreconditionError
from .lattice import (
    Point,
    PointConfig,
    hermite_basis,
    require_normalized,
    solve_in_lattice,
)
from .polytope import cone_constraints, convex_hull, count_dilate_points, scan_box


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
    """(lo, strides) of the key box that holds N*A for every N in 1..n_max.

    None when the coordinates or the keys of that box may leave the int64
    kernel range.
    """
    n_top = max(n_max, 1)
    max_abs = max((abs(c) for p in config.points for c in p), default=0)
    if not kernels.int64_budget_ok(max_abs * n_top * 2):
        return None
    columns = list(zip(*config.points))
    lo = [min(min(col), n_top * min(col)) for col in columns]
    hi = [max(max(col), n_top * max(col)) for col in columns]
    strides, span = kernels.key_strides(lo, hi)
    return (lo, strides) if kernels.int64_budget_ok(span) else None


def _expand(frontier: np.ndarray, gens: np.ndarray, lo,
            strides) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct rows of frontier + gens and their keys.

    The sums are expanded in blocks of at most CANDIDATE_BLOCK_ROWS.
    """
    m = len(gens)
    f_step = max(1, CANDIDATE_BLOCK_ROWS // m)
    g_step = min(m, CANDIDATE_BLOCK_ROWS)
    blocks = [kernels.sumset_step(frontier[i:i + f_step], gens[j:j + g_step])
              for i in range(0, len(frontier), f_step)
              for j in range(0, m, g_step)]
    if len(blocks) == 1:
        return blocks[0], kernels.pack_rows(blocks[0], lo, strides, np.int64)
    keys = kernels.sorted_unique(np.concatenate(
        [kernels.pack_rows(b, lo, strides, np.int64) for b in blocks]))
    return kernels.decode_keys(keys, lo, strides), keys


def _iterate_keys(config: PointConfig, n_max: int, lo, strides) -> Iterator[np.ndarray]:
    """Sorted keys of N*A for N = 1..n_max, each level grown from the new
    points of the one before.

    With t the lex-least point of A, (N-1)A + t lies inside NA, and every
    other point of NA is f + a with a in A and f in the frontier
    F = (N-1)A minus ((N-2)A + t).  Keys live in one box that holds every
    level (``lo`` and ``strides``, from _frontier_box): there adding t
    shifts every key by the same constant, and key order is lex order.
    """
    gens = kernels.points_to_array(sorted(config.points))
    shift = int(gens[0] @ np.asarray(strides, dtype=np.int64))
    keys = kernels.pack_rows(gens, lo, strides, np.int64)
    frontier = gens[1:]
    yield keys
    for _ in range(2, n_max + 1):
        keys = keys + shift
        if len(frontier):
            rows, cand = _expand(frontier, gens, lo, strides)
            new = ~kernels.sorted_member(cand, keys)
            frontier = rows[new]
            # two sorted runs: the stable sort merges them in linear time
            keys = np.concatenate([keys, cand[new]])
            keys.sort(kind="stable")
        yield keys


def _iterate_arrays(config: PointConfig, n_max: int) -> Iterator[np.ndarray]:
    """The frontier iteration as int64 point arrays (its box must fit int64)."""
    lo, strides = _frontier_box(config, n_max)
    for keys in _iterate_keys(config, n_max, lo, strides):
        yield kernels.decode_keys(keys, lo, strides)


def _iterate_tuples(config: PointConfig, n_max: int) -> Iterator[list[Point]]:
    gens = sorted(config.points)
    cur = set(gens)
    yield sorted(cur)
    for _ in range(2, n_max + 1):
        cur = {tuple(a + b for a, b in zip(p, g)) for p in cur for g in gens}
        yield sorted(cur)


def sumset_arrays(config: PointConfig, n_max: int) -> Iterator[np.ndarray]:
    """Yield N*A for N = 1..n_max as lexicographically sorted point arrays.

    Level 1 is always yielded.  The arrays are int64, from the frontier
    iteration, when the coordinates and the keys of the box that holds all
    levels provably fit the kernel range; otherwise they hold Python ints
    (dtype object) from the exact iteration.
    """
    if _frontier_box(config, n_max) is not None:
        yield from _iterate_arrays(config, n_max)
        return
    for pts in _iterate_tuples(config, n_max):
        yield np.array(pts, dtype=object).reshape(len(pts), config.dim)


def iter_sumsets(config: PointConfig, n_max: int) -> Iterator[list[Point]]:
    """Yield the point list of N*A for N = 1..n_max, lexicographically sorted."""
    for arr in sumset_arrays(config, n_max):
        yield kernels.array_to_points(arr)


def sumset_levels(config: PointConfig, n_max: int, cap_points: int = 10 ** 7,
                  keep_points: bool = False) -> Iterator[tuple[int, np.ndarray | None]]:
    """Yield (|N*A|, N*A) for N = 1.. up to n_max, under the point budget.

    The point arrays are those of sumset_arrays with ``keep_points`` and
    None without; then the int64 levels are never decoded from their keys.
    A level of more than ``cap_points`` points is not yielded: a
    BudgetExceededError names it (``reached``) instead.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    box = None if keep_points else _frontier_box(config, n_max)
    levels = (sumset_arrays(config, n_max) if box is None
              else _iterate_keys(config, n_max, *box))
    for n, level in enumerate(levels, start=1):
        if len(level) > cap_points:
            raise BudgetExceededError(
                f"sumset size {len(level)} exceeds the {cap_points} point budget at N={n}",
                reached=n)
        yield len(level), (level if keep_points else None)


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


def growth_sizes(config: PointConfig, n_max: int, cap_points: int = 10 ** 7) -> list[int]:
    """|N*A| for N = 1..n_max (same budget behavior as sumset_iterate)."""
    return sumset_iterate(config, n_max, cap_points=cap_points).sizes()


class SemigroupOracle:
    """Memoized decision procedure for nonnegative integer combinations.

    Generators are the nonzero points of a configuration whose cone is
    pointed (the origin is a vertex of hull(points + {0})).  Membership of p
    descends p -> p - g, pruned by exact cone tests; termination is
    guaranteed because every step strictly decreases the sum of the inner
    facet functionals, which is positive away from 0 on the cone.
    """

    def __init__(self, config: PointConfig):
        dim = config.dim
        zero = (0,) * dim
        gens = sorted(set(config.points) - {zero})
        self._source_dim = dim
        self._gen_map: dict[Point, Point] = {}
        if not gens:
            self._basis = []
            self._gens: list[Point] = []
            self._cone: list[Point] = []
            self._memo: dict[Point, bool] = {(): True}
            self._via: dict[Point, Point] = {}
            self._weights: dict[Point, int | None] = {(): 0}
            return
        self._basis = hermite_basis(gens)
        reduced = []
        for g in gens:
            coords = solve_in_lattice(self._basis, g)
            reduced.append(coords)
            self._gen_map[coords] = g
        rank = len(self._basis)
        rzero = (0,) * rank
        hull_cfg = PointConfig.from_points(sorted(set(reduced) | {rzero}), rank)
        poly = convex_hull(hull_cfg)
        if rzero not in poly.extremal:
            raise PreconditionError("semigroup cone is not pointed at the origin")
        self._cone = cone_constraints(poly)
        self._gens = sorted(reduced)
        self._memo = {rzero: True}
        self._via = {}
        self._weights = {rzero: 0}

    def _reduce(self, point) -> Point | None:
        if not self._basis:
            return () if not any(point) else None
        if len(point) != self._source_dim:
            raise PreconditionError("point dimension mismatch")
        return solve_in_lattice(self._basis, point)

    def _in_cone(self, point) -> bool:
        return all(sum(n * x for n, x in zip(normal, point)) <= 0
                   for normal in self._cone)

    def _solve(self, start: Point) -> bool:
        memo = self._memo
        gens = self._gens
        stack = [(start, 0)]
        while stack:
            point, idx = stack.pop()
            if point in memo:
                continue
            resolved = False
            pushed = False
            j = idx
            while j < len(gens):
                child = tuple(a - b for a, b in zip(point, gens[j]))
                if self._in_cone(child):
                    val = memo.get(child)
                    if val is True:
                        memo[point] = True
                        self._via[point] = gens[j]
                        resolved = True
                        break
                    if val is None:
                        stack.append((point, j))
                        stack.append((child, 0))
                        pushed = True
                        break
                j += 1
            if not resolved and not pushed:
                memo[point] = False
        return memo[start]

    def contains(self, point) -> bool:
        reduced = self._reduce(point)
        if reduced is None or not self._in_cone(reduced):
            return False
        return self._solve(reduced)

    def certificate(self, point) -> dict[Point, int] | None:
        """A combination {generator: count} witnessing membership, or None."""
        if not self.contains(point):
            return None
        reduced = self._reduce(point)
        counts: dict[Point, int] = {}
        cur = reduced
        while any(cur):
            g = self._via[cur]
            orig = self._gen_map[g]
            counts[orig] = counts.get(orig, 0) + 1
            cur = tuple(a - b for a, b in zip(cur, g))
        return counts

    def min_weight(self, point) -> int | None:
        """Least number of generators summing to ``point`` (None if outside)."""
        reduced = self._reduce(point)
        if reduced is None or not self._in_cone(reduced):
            return None
        weights = self._weights
        stack = [(reduced, False)]
        while stack:
            cur, expanded = stack.pop()
            if cur in weights:
                continue
            children = []
            for g in self._gens:
                child = tuple(a - b for a, b in zip(cur, g))
                if self._in_cone(child):
                    children.append(child)
            if not expanded:
                stack.append((cur, True))
                stack.extend((c, False) for c in children if c not in weights)
                continue
            best = None
            for c in children:
                w = weights.get(c)
                if w is not None and (best is None or w + 1 < best):
                    best = w + 1
            weights[cur] = best
        return weights[reduced]

    def min_weight_certificate(self, point) -> dict[Point, int] | None:
        """A minimum-length combination, built greedily (lex-least generator)."""
        total = self.min_weight(point)
        if total is None:
            return None
        counts: dict[Point, int] = {}
        cur = self._reduce(point)
        w = total
        while w > 0:
            for g in self._gens:
                child = tuple(a - b for a, b in zip(cur, g))
                if self._in_cone(child) and self._weights.get(child) == w - 1:
                    orig = self._gen_map[g]
                    counts[orig] = counts.get(orig, 0) + 1
                    cur = child
                    w -= 1
                    break
            else:  # pragma: no cover - would contradict min_weight
                raise PreconditionError("certificate reconstruction failed")
        return counts


_oracles: dict[tuple, SemigroupOracle] = {}


def semigroup_oracle(config: PointConfig) -> SemigroupOracle:
    key = (config.points, config.dim)
    oracle = _oracles.get(key)
    if oracle is None:
        oracle = SemigroupOracle(config)
        _oracles[key] = oracle
    return oracle


def semigroup_contains(config: PointConfig, point) -> tuple[bool, dict[Point, int] | None]:
    """Whether ``point`` is a nonnegative integer combination of the nonzero
    points of ``config``, together with a witnessing combination."""
    oracle = semigroup_oracle(config)
    ok = oracle.contains(tuple(point))
    return (True, oracle.certificate(tuple(point))) if ok else (False, None)


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
        level = kernels.sorted_unique(
            np.concatenate([empty] + [lv + step for lv, step in parts]))
        levels.append(level)
        held += len(level)
    return sieve(limit)


def region_points(config: PointConfig, region: RegionSpec,
                  cap_points: int = 10 ** 7) -> list[Point]:
    """Lattice points of the region, restricted to the cone of the config."""
    if region.kind == "dilate":
        return count_dilate_points(config, region.n, enumerate_points=True,
                                   cap_points=cap_points)
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
    return kernels.array_to_points(
        scan_box(lo, hi, [list(n) for n in normals], [0] * len(normals), True))


def exceptional_in_region(config: PointConfig, region: RegionSpec,
                          cap_points: int = 10 ** 7) -> list[Point]:
    """Cone lattice points in the region that the semigroup never reaches.

    Only ever computed inside an explicit finite region; the full
    exceptional set can be infinite.
    """
    require_normalized(config)
    oracle = semigroup_oracle(config)
    out = [p for p in region_points(config, region, cap_points)
           if not oracle.contains(p)]
    return sorted(out)
