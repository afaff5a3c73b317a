"""Iterated sumsets, semigroup membership, and exceptional lattice points.

Point sets ride numpy arrays through the hot kernels: int64 whenever the
coordinates and keys provably fit, Python ints (dtype object) otherwise,
on the same code path (kernels.key_dtype picks).  All outputs are
canonicalized (lexicographically sorted) so runs are deterministic
whatever the dtype.  Every reader of the levels N*A walks them through
sumset_levels, in one key box that holds them all: bit sets over its keys
(one shift and OR per generator per level) when the box has int64 keys
and no more of them than the point budget, sorted keys grown from each
level's new points otherwise.  A level comes out as a callable for its
keys in that box (kernels.PackedPoints), which unpacks a bit set only when
called; the writers render the keys without decoding a point twice.
Semigroup membership comes from dense sieves (``semigroup_sieve``): a
boolean mask over a box, closed under each generator by doubling shifts,
so one query is one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

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


def _frontier_key_box(config: PointConfig, n_max: int):
    """(lo, strides, span, dtype) of the key box that holds N*A for every N
    in 1..n_max: its keys run over 0..span-1.

    dtype is int64 when the coordinates and the keys of that box fit the
    kernel range, and Python ints (dtype object) otherwise.
    """
    n_top = max(n_max, 1)
    max_abs = max((abs(c) for p in config.points for c in p), default=0)
    columns = list(zip(*config.points))
    lo = [min(min(col), n_top * min(col)) for col in columns]
    hi = [max(max(col), n_top * max(col)) for col in columns]
    strides, span = kernels.key_strides(lo, hi)
    return lo, strides, span, kernels.key_dtype(span, max_abs * n_top * 2)


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
                  cap_points: int) -> Iterator[np.ndarray]:
    """Sorted keys of N*A for N = 1..n_max, each level grown from the new
    points of the one before.

    With t the lex-least point of A, (N-1)A + t lies inside NA, and every
    other point of NA is f + a with a in A and f in the frontier
    F = (N-1)A minus ((N-2)A + t).  Keys live in one box that holds every
    level (``lo``, ``strides`` and the keys' ``dtype``, from _frontier_key_box):
    there adding a point a shifts every key by the same offset a @ strides,
    so the frontier stays keys from level to level, and key order is lex
    order.  A level of more than ``cap_points`` keys raises
    BudgetExceededError (``reached`` names it), past level 1 before it is
    allocated.
    """
    gens = kernels.points_to_array(sorted(config.points), dtype)
    offsets = gens @ np.asarray(strides, dtype=dtype)
    keys = kernels.pack_rows(gens, lo, strides, dtype)
    if len(keys) > cap_points:
        raise _level_over_budget(len(keys), cap_points, 1)
    frontier = keys[1:]
    yield keys
    for n in range(2, n_max + 1):
        keys = keys + offsets[0]
        if len(frontier):
            cand = _expand(frontier, offsets)
            frontier = cand[~kernels.sorted_member(cand, keys)]
            size = len(keys) + len(frontier)
            if size > cap_points:
                raise _level_over_budget(size, cap_points, n)
            # two sorted runs: the stable sort merges them in linear time
            keys = np.concatenate([keys, frontier])
            keys.sort(kind="stable")
        yield keys


def _level_over_budget(size: int, cap_points: int, n: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"sumset size {size} exceeds the {cap_points} point budget at N={n}",
        reached=n)


def _iterate_bits(config: PointConfig, n_max: int, lo, strides) -> Iterator[int]:
    """N*A for N = 1..n_max as bit sets: bit k of a level is set when the
    point of key k (in the box of ``lo`` and ``strides``, from
    _frontier_key_box) lies in it.

    Adding a point a shifts every key by a @ strides, so a level is the OR
    of the level before shifted by each generator's offset.  The shifts run
    relative to the least offset, that of the lex-least generator, and the
    OR is shifted by it once (right when it is negative).  Every level lies
    inside the box, so no bit is lost, and |N*A| is the level's bit count.
    """
    gens = sorted(config.points)
    offsets = [sum(c * s for c, s in zip(g, strides)) for g in gens]
    base = offsets[0]
    steps = [o - base for o in offsets[1:]]
    mask = 0
    for key in kernels.pack_rows(gens, lo, strides, np.int64).tolist():
        mask |= 1 << key
    yield mask
    for _ in range(2, n_max + 1):
        level = mask
        for step in steps:
            level |= mask << step
        mask = level << base if base >= 0 else level >> -base
        yield mask


@dataclass(frozen=True, eq=False)
class BitLevel:
    """A level of the bit set walk (_iterate_bits): bit k of ``bits`` is set
    when the point of key k in the walk's ``box`` (lo, strides, span) lies
    in the level.  Calling it unpacks it, as every level of sumset_levels."""

    bits: int
    box: tuple

    def __call__(self) -> kernels.PackedPoints:
        return kernels.PackedPoints(kernels.bits_to_keys(self.bits), *self.box)


def level_bits(level) -> int:
    """A level of sumset_levels as a bit set over the keys of its walk's box:
    read off a BitLevel, and packed from the keys of any other level, which
    allocates a cell for every key of the box."""
    if isinstance(level, BitLevel):
        return level.bits
    packed = level()
    cells = np.zeros(packed.span, dtype=bool)
    cells[packed.keys.astype(np.int64)] = True
    return kernels.cells_to_bits(cells)


def _iterate_tuples(config: PointConfig, n_max: int) -> Iterator[list[Point]]:
    """N*A by the plain {p + g} set iteration: the reference for the tests."""
    gens = sorted(config.points)
    cur = set(gens)
    yield sorted(cur)
    for _ in range(2, n_max + 1):
        cur = {tuple(a + b for a, b in zip(p, g)) for p in cur for g in gens}
        yield sorted(cur)


def sumset_arrays(config: PointConfig, n_max: int) -> Iterator[np.ndarray]:
    """Yield N*A for N = 1..n_max as lexicographically sorted point arrays:
    the decoded levels of sumset_levels under its default point budget.
    Level 1 is always yielded."""
    for _, level in sumset_levels(config, max(n_max, 1)):
        yield level().rows()


_iterate_arrays = sumset_arrays  # the name perfbench/kernels_compare.py imports


def iter_sumsets(config: PointConfig, n_max: int) -> Iterator[list[Point]]:
    """Yield the point list of N*A for N = 1..n_max, lexicographically sorted."""
    for arr in sumset_arrays(config, n_max):
        yield kernels.array_to_points(arr)


def sumset_levels(config: PointConfig, n_max: int, cap_points: int = 10 ** 7
                  ) -> Iterator[tuple[int, Callable[[], kernels.PackedPoints]]]:
    """Yield (|N*A|, level) for N = 1.. up to n_max, under the point budget.

    This is the one walk over the levels N*A.  All levels live in one key
    box (_frontier_key_box), whose keys and coordinates are int64 when they
    provably fit the kernel range and Python ints (dtype object) otherwise.
    ``level()`` returns N*A as the kernels.PackedPoints of its sorted keys
    in that box (its ``rows()`` are the points, lexicographically sorted).
    When the box has int64 keys and at most ``cap_points`` of them, the
    levels are bit sets over those keys (_iterate_bits): one shift and OR
    per generator per level, |N*A| is a bit count, and only ``level()``
    unpacks a bit set; such a level is a BitLevel, whose bit set the
    structure check reads as it is (level_bits).  Such a box holds no
    level over the budget.
    Otherwise they come from the frontier iteration on sorted keys
    (_iterate_keys).  A level of more than ``cap_points`` points is not
    yielded: a BudgetExceededError names it (``reached``) instead.  Past
    level 1 that error comes before the level is allocated.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    lo, strides, span, dtype = _frontier_key_box(config, n_max)
    box = tuple(lo), strides, span
    if dtype == np.int64 and span <= cap_points:
        for mask in _iterate_bits(config, n_max, lo, strides):
            yield mask.bit_count(), BitLevel(mask, box)
        return
    for keys in _iterate_keys(config, n_max, lo, strides, dtype, cap_points):
        yield len(keys), partial(kernels.PackedPoints, keys, *box)


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
        for n, (size, level) in enumerate(sumset_levels(config, n_max, cap_points),
                                          start=1):
            stored = tuple(kernels.array_to_points(level().rows())) if keep_points else None
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
    which keeps lex order; a full-rank sublattice needs no map, because a
    sieve's mask only ever holds sums of generators.  The oracle keeps no
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
        self._ell = cone_functional(poly, (0,) * rank)
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

        The levels are those of one sumset_levels walk, keys of its box.
        Returns (levels, point in sieve coordinates, member), member(level,
        points) the mask of the points in a level: a point off the walk's
        box is in none.  None when ``point`` is not in P(B).
        """
        pts, inside = self._coords(np.array([tuple(point)], dtype=object))
        if not (inside[0] and self._lookup(pts, 10 ** 7)[0]):
            return None
        y = tuple(int(v) for v in pts[0])
        cfg = self._config
        weights = [sum(e * v for e, v in zip(self._ell, p)) for p in [y] + self._gens]
        # each generator adds at least the least ell(g) to ell(y)
        n_max = max(1, weights[0] // min(weights[1:], default=1))
        lo, strides, _, dtype = _frontier_key_box(cfg, n_max)
        hi = [n_max * max(col) for col in zip(*cfg.points)]

        def member(level, points):
            rows = np.array(points, dtype=object).reshape(len(points), cfg.dim)
            keys = kernels.pack_rows(rows, lo, strides, dtype)
            keys[~((rows >= lo) & (rows <= hi)).all(axis=1)] = -1
            return kernels.sorted_member(keys, level)

        levels = [kernels.pack_rows(np.zeros((1, cfg.dim), dtype=dtype), lo, strides, dtype)]
        for _, level in sumset_levels(cfg, n_max):
            if member(levels[-1], [y])[0]:
                break
            levels.append(level().keys)
        return levels, y, member

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
        levels, cur, member = found
        counts: dict[Point, int] = {}
        for level in reversed(levels[:-1]):
            children = [tuple(a - b for a, b in zip(cur, g)) for g in self._gens]
            hit = np.flatnonzero(member(level, children))
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
    """The semigroup P(B) inside {y : ell . y <= limit}, as a dense mask.

    ``mask`` is a boolean array over the box [lo, lo + mask.shape - 1] that
    holds the region, in C order, so the flat index of a cell is its key
    (``lo`` and ``strides``, see kernels.key_strides): the same lex-major
    order the sumset levels and the dilate scans use.  The mask is exact on
    the region; on the other cells of the box it is unspecified.
    """

    ell: Point
    limit: int
    lo: Point
    strides: tuple[int, ...]
    mask: np.ndarray

    def members(self, points) -> np.ndarray:
        """Boolean mask of the points that lie in P(B).

        Every point must lie in the cone of B with ell . point <= limit,
        so inside the box: then its key is a flat index into ``mask``, and
        the answer is one gather.  The points may be int64 or Python ints
        (dtype object); inside the box every coordinate fits int64.
        """
        keys = kernels.pack_rows(points, self.lo, self.strides, np.int64)
        return self.mask.ravel()[keys]


def _sieve_box(gens, weights, limit: int, dim: int):
    """(lo, hi) of the box holding every sum of generators of weight <= limit.

    Coordinate k of such a sum lies between limit * g_k / ell(g) at its
    least and at its largest over the generators g; so does every cone
    point with ell <= limit.
    """
    lo = tuple(min([0] + [-(-limit * g[k] // w) for g, w in zip(gens, weights)])
               for k in range(dim))
    hi = tuple(max([0] + [limit * g[k] // w for g, w in zip(gens, weights)])
               for k in range(dim))
    return lo, hi


def _shift_or(mask: np.ndarray, offset) -> None:
    """mask |= mask shifted by ``offset``, cut to the box (no wrap-around).

    Every |offset_k| must be below the box's extent along axis k: the
    doubling steps of semigroup_sieve are, since 2^t ell(g) <= limit puts
    2^t g inside the box.
    """
    shape = mask.shape
    src = tuple(slice(max(0, -s), n - max(0, s)) for s, n in zip(offset, shape))
    dst = tuple(slice(max(0, s), n - max(0, -s)) for s, n in zip(offset, shape))
    mask[dst] |= mask[src]


def semigroup_sieve(config: PointConfig, ell, limit: int,
                    cap_points: int = 10 ** 7) -> SemigroupSieve:
    """P(B) inside {ell <= limit}, for the nonzero points B of ``config``.

    ``ell`` must be an integer functional that is at least 1 on every point
    of B (polytope.cone_functional gives one when the cone of B is pointed
    at 0).  The sieve is a boolean mask over the box that holds every sum
    of generators of weight at most ``limit`` (_sieve_box).  It starts from
    the origin and closes under each generator g in turn by doubling
    shifts, mask |= mask shifted by 2^t g for 2^t * ell(g) <= limit.  It
    marks only sums of generators, and every one in the region {ell <=
    limit}: the box is convex, so a run m, m + g, ..., m + k g whose ends
    lie in it lies in it, and every partial sum of a representation of a
    point y of the region has weight at most ell . y <= limit, so it lies
    in the box too.  Off the region the mask is unspecified.  Each
    generator costs about log2(limit / ell(g)) array operations.

    The box's cells are charged against ``cap_points`` before the mask is
    allocated.  Past the budget a BudgetExceededError names the largest
    limit whose box fits (``reached``) and carries the sieve up to it
    (``partial``); it carries neither when not even limit 0 fits.
    """
    if limit < 0:
        raise PreconditionError("sieve limit must be >= 0")
    gens = sorted(p for p in config.points if any(p))
    ell = tuple(int(v) for v in ell)
    weights = [sum(e * x for e, x in zip(ell, g)) for g in gens]
    if any(w < 1 for w in weights):
        raise PreconditionError("the functional must be at least 1 on every generator")

    def fits(top: int) -> bool:
        return kernels.key_strides(*_sieve_box(gens, weights, top, config.dim))[1] <= cap_points

    def sieve(top: int) -> SemigroupSieve:
        lo, hi = _sieve_box(gens, weights, top, config.dim)
        strides, _ = kernels.key_strides(lo, hi)
        mask = np.zeros(tuple(b - a + 1 for a, b in zip(lo, hi)), dtype=bool)
        mask[tuple(-a for a in lo)] = True
        for g, w in zip(gens, weights):
            step = 1
            while step * w <= top:
                _shift_or(mask, [step * x for x in g])
                step *= 2
        return SemigroupSieve(ell=ell, limit=top, lo=lo, strides=strides, mask=mask)

    if fits(limit):
        return sieve(limit)
    message = f"the semigroup sieve up to ell = {limit} needs more than {cap_points} points"
    if not fits(0):
        raise BudgetExceededError(message)
    # the box grows with the limit: bisect for the largest one that fits
    low, high = 0, limit
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    raise BudgetExceededError(message, reached=low, partial=sieve(low))


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
