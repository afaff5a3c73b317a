"""When NA fills its whole dilated hull minus the reflected exceptional sets.

For a normalized configuration, NA always sits inside the lattice points of
N*H(A) with, for every hull vertex a, the set a*N - E(a - A) carved out
(E is the exceptional set of the semigroup at that vertex).  Eventually this
inclusion is an equality; this module verifies it at every level, a block
of consecutive levels at a time, finds the exact onset when the proven
bounds are within budget, and evaluates those bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from . import kernels
from .errors import (
    BudgetExceededError,
    InternalInvariantError,
)
from .lattice import (
    Point,
    PointConfig,
    config_memo,
    require_anchored,
    require_normalized,
)
from .polytope import (
    _dilate_box,
    cone_functional,
    convex_hull,
    dilate_box_cells,
    dilate_rows,
    facet_height_ratio,
    volumes,
)
from .sumsets import (
    RegionSpec,
    SemigroupOracle,
    region_points,
    semigroup_sieve,
    sumset_levels,
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
    form; coarse is the width-power bound, kept as the exact pair
    (base, exponent) of ``coarse_power`` and built on first read.
    """

    bound_a: int
    bound_b: int
    clean: int
    coarse_power: tuple[int, int]

    @cached_property
    def coarse(self) -> int:
        base, exponent = self.coarse_power
        return base ** exponent


def _ceil_fraction(value) -> int:
    f = Fraction(value)
    return -((-f.numerator) // f.denominator)


_bounds_cache: dict[tuple, StructureBounds] = {}


@config_memo(_bounds_cache)
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
    return StructureBounds(
        bound_a=max(1, bound_a),
        bound_b=max(1, bound_b),
        clean=max(1, clean),
        # (d|A| width)^(13 d^6), at least 1: 1^e when the base is 0
        coarse_power=(max(1, d * n * v.width), 13 * d ** 6),
    )


def reflected_config(config: PointConfig, vertex) -> PointConfig:
    """The configuration vertex - A (sorted); normalized whenever A is."""
    a = tuple(vertex)
    pts = sorted(tuple(x - y for x, y in zip(a, p)) for p in config.points)
    return PointConfig(points=tuple(pts), dim=config.dim,
                       normalized=config.normalized)


def _vertex_sieves(config: PointConfig, top: int, cap_points: int):
    """One semigroup sieve per vertex a of H(A), covering levels 1..top.

    The facets of H(A) through a, reflected, are the inner facets of
    H(a - A), so ell is the sum of their normals.  At level n every a*n - x
    for x in n*H lies in n*H(a - A), so ell(a*n - x) <= n * max ell(a - A):
    inside the region on which the sieve up to top * max ell is exact.  For
    a normalized A the points a - A generate Z^d, so no lattice reduction
    is needed.  Returns (sieves, top), with top lowered to the levels the
    sieves could be built for within ``cap_points``: 0 when some vertex's
    sieve does not fit even its origin.
    """
    poly = convex_hull(config)
    sieves = []
    for a in poly.extremal:
        cfg = reflected_config(config, a)
        ell = tuple(-v for v in cone_functional(poly, a))
        reach = max(sum(e * x for e, x in zip(ell, p)) for p in cfg.points)
        try:
            sieve = semigroup_sieve(cfg, ell, top * reach, cap_points)
        except BudgetExceededError as exc:
            if exc.partial is None:
                return sieves, 0
            sieve = exc.partial
            top = sieve.limit // reach
        sieves.append((a, sieve))
    return sieves, top


def _sieves_over_cap(n: int, cap_points: int, top: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"the vertex sieves for level {n} exceed the {cap_points} point cap", reached=top)


def _sieves_through(config: PointConfig, n: int, cap_points: int):
    """The vertex sieves for levels 1..n, or BudgetExceededError."""
    sieves, top = _vertex_sieves(config, n, cap_points)
    if top < n:
        raise _sieves_over_cap(n, cap_points, top)
    return sieves


# most cells of the box of {(n, x)} that one block of levels may scan
BLOCK_CELLS = 1 << 14


def _block_rhs(config: PointConfig, sieves, n0: int, n1: int, box):
    """Keys of the points (n, x), x in n*H for n = n0..n1, ascending, and
    the mask of those in structure_rhs.

    ``box`` is (lo, strides, level_span): the key of (n, x) is (n - n0) *
    level_span + (x - lo) . strides, and level_span must exceed the key of
    every x of n1*H.  One dilate_rows scan hands out, as affine forms in
    (n, x), that key and, for each hull vertex a, the flat index of a*n - x
    in a's sieve mask, n (a . s) - x . s - lo_a . s for the sieve's lo_a
    and strides s: in the region where the sieve is exact
    (_vertex_sieves), so one gather per vertex keeps the rows whose a*n - x
    is in P(a - A).  No point row is built.  The indices lie below the
    sieves' and the block's key spans, so they are gathered as int64
    whatever the scan's dtype.
    """
    lo, strides, level_span = box
    forms = [([level_span, *strides],
              -n0 * level_span - sum(a * s for a, s in zip(lo, strides)))]
    for a, sieve in sieves:
        s = sieve.strides
        forms.append(([sum(v * w for v, w in zip(a, s)), *(-w for w in s)],
                      -sum(v * w for v, w in zip(sieve.lo, s))))
    values = dilate_rows(config, n0, n1, True, forms)
    keep = np.ones(values.shape[1], dtype=bool)
    for index, (_, sieve) in zip(values[1:], sieves):
        keep &= sieve.mask.ravel()[index.astype(np.int64, copy=False)]
    return values[0].astype(np.int64, copy=False), keep


def _check_block(config: PointConfig, sieves, block) -> list[StructureReport]:
    """Each level (n, level) of ``block`` against its predicted shape.

    The levels must be consecutive in one walk of sumset_levels; each
    ``level()``, called once here, is NA as that walk's PackedPoints, whose
    key box is the box of the walk's top level; as A holds the origin,
    that box holds the dilate box [lo, hi] of every level below.  Both
    sides are keys of (n, x) in the block's key range: (n - n0) *
    level_span plus the walk's key of x less that of lo, where level_span
    is one more than the walk's key of hi less that of lo.  NA's keys are
    shifted there undecoded and scattered into one boolean mask over the
    range, and the predicted keys (_block_rhs) gather it.  A predicted key
    that misses is a missing point: its level is scanned again, as rows,
    only then.  Extra points exist exactly when the hits fall short of
    the sum of |NA|; only then are they found by a scatter of the
    predicted keys, and only they are decoded.
    """
    n0, n1 = block[0][0], block[-1][0]
    levels = [level() for _, level in block]
    walk_lo, strides, _ = levels[0].box
    lo, hi = _dilate_box(config, n1)
    first = sum((a - b) * s for a, b, s in zip(lo, walk_lo, strides))
    level_span = sum((b - a) * s for a, b, s in zip(lo, hi, strides)) + 1
    keys, keep = _block_rhs(config, sieves, n0, n1, (lo, strides, level_span))

    def local(na):
        """NA's keys less that of lo, as int64 indices into a row of the
        mask, and which of NA's keys they are: all of them unless a forged
        level holds points outside n1*H (the keys are ascending)."""
        shifted = na.keys - first
        if len(shifted) and (shifted[0] < 0 or shifted[-1] >= level_span):
            inside = (shifted >= 0) & (shifted < level_span)
            return shifted[inside].astype(np.int64), inside
        return shifted.astype(np.int64, copy=False), slice(None)

    found = np.zeros((len(levels), level_span), dtype=bool)
    for row, na in zip(found, levels):
        row[local(na)[0]] = True
    predicted = keys[keep]
    hit = found.ravel()[predicted]
    missing = [()] * len(levels)
    if not hit.all():
        # the rows of the scan that missed, by level, and where each level starts
        where = np.flatnonzero(keep)[~hit]
        lost = predicted[~hit] // level_span
        starts = np.searchsorted(keys, np.arange(len(levels)) * level_span)
        for k in sorted(set(lost.tolist())):
            rows = dilate_rows(config, n0 + k, n0 + k, True)
            missing[k] = tuple(kernels.array_to_points(
                rows[where[lost == k] - starts[k], 1:]))
    extra = [()] * len(levels)
    if np.count_nonzero(hit) < sum(len(na) for na in levels):
        found[:] = False
        found.ravel()[predicted] = True
        for k, (row, na) in enumerate(zip(found, levels)):
            shifted, inside = local(na)
            out = np.ones(len(na), dtype=bool)
            out[inside] = ~row[shifted]
            if out.any():
                extra[k] = tuple(kernels.array_to_points(
                    kernels.decode_keys(na.keys[out], walk_lo, strides)))
    return [StructureReport(n=n, holds=not miss and not ext, missing=miss, extra=ext)
            for n, miss, ext in zip(range(n0, n1 + 1), missing, extra)]


def _window(config: PointConfig, sieves, levels) -> Iterator[StructureReport]:
    """Reports for the levels 1A, 2A, ... that ``levels`` yields as
    (|NA|, level), as sumset_levels does; each ``level`` goes to
    _check_block unread, which unpacks it to the walk's packed keys when
    its block is checked, and no point of NA is decoded unless it is extra.

    The levels are checked in blocks: a block closes before its box of
    (n, x) would pass BLOCK_CELLS cells, so a level is drawn from
    ``levels``, and passes the caller's cut rules there, before it joins
    a block.  No level needs a dilate-box cap of its own: the reflection
    a*n - box(n*H) is the box of n*(a - A), which lies inside the box of
    a vertex sieve built for level n, and that box fits the point cap.
    """
    block = []
    for n, (_, level) in enumerate(levels, start=1):
        if block and (n - block[0][0] + 1) * dilate_box_cells(config, n) > BLOCK_CELLS:
            yield from _check_block(config, sieves, block)
            block = []
        block.append((n, level))
    if block:
        yield from _check_block(config, sieves, block)


def structure_rhs(config: PointConfig, n: int,
                  cap_points: int = 10 ** 7) -> list[Point]:
    """The maximal possible shape of NA at level n, as a sorted point list.

    Every lattice point of n*H(A) is kept unless, for some hull vertex a,
    its reflection a*n - x lands in the cone of a - A without being a
    nonnegative combination of those points.
    """
    require_normalized(config)
    sieves = _sieves_through(config, n, cap_points)
    lo, hi = _dilate_box(config, n)
    strides, span = kernels.key_strides(lo, hi)
    keys, keep = _block_rhs(config, sieves, n, n, (lo, strides, span))
    return kernels.array_to_points(kernels.decode_keys(keys[keep], lo, strides))


def verify_structure_equation(config: PointConfig, n: int,
                              cap_points: int = 10 ** 7) -> StructureReport:
    """Compare NA against structure_rhs at one level (the vertex sieves
    are built first, so an input over ``cap_points`` fails on them)."""
    require_normalized(config)
    sieves = _sieves_through(config, n, cap_points)
    for _, level in sumset_levels(config, n, cap_points):
        pass
    return _check_block(config, sieves, [(n, level)])[0]


def structure_levels(config: PointConfig, max_n: int,
                     cap_points: int = 10 ** 7) -> list[StructureReport]:
    """verify_structure_equation for N = 1..max_n, walking the sumsets once."""
    require_normalized(config)
    if max_n < 1:
        return []
    sieves = _sieves_through(config, max_n, cap_points)
    return list(_window(config, sieves, sumset_levels(config, max_n, cap_points)))


@dataclass(frozen=True)
class StructureThresholdResult:
    value: int
    status: str  # "exact" | "empirical"
    window_top: int
    bound: int
    failing_levels: tuple[int, ...]


# most work a structure window may do: the sum over its levels of |NA|
# times (1 + the number of hull vertices)
TEST_BUDGET = 10 ** 7


def structure_threshold(config: PointConfig, *,
                        cap_points: int = 10 ** 7,
                        max_n: int | None = None) -> StructureThresholdResult:
    """Least N from which the structure equation holds, verified level by level.

    With B = min(bound_a, bound_b): when every level up to B fits
    TEST_BUDGET the result is exact (levels beyond B are covered by the
    proven bound); otherwise the window stops early and the status is
    "empirical".  The full window is always checked; equality at one level
    is never assumed to propagate upward.  The vertex sieves are built
    once, for the whole window, and must reach level 1.  Their boxes hold
    the key box of the levels from sumset_levels, so the walk's budget
    never fires.  The levels are checked in blocks (_window); each level
    past the first passes TEST_BUDGET before it joins a block.
    """
    require_normalized(config)
    bounds = structure_bounds(config)
    bound = min(bounds.bound_a, bounds.bound_b)
    # level 1 is checked even under max_n < 1: the sumsets start there
    top = max(1, bound if max_n is None else min(bound, max_n))
    sieves, top = _vertex_sieves(config, top, cap_points)
    if top < 1:
        raise _sieves_over_cap(1, cap_points, top)
    vertex_count = max(1, len(sieves))

    def levels():
        spent = 0  # nonzero from level 2 on: every level costs at least 2
        for level in sumset_levels(config, top, cap_points):
            cost = level[0] * (1 + vertex_count)
            if spent and spent + cost > TEST_BUDGET:
                return
            spent += cost
            yield level

    failing = []
    checked = 0
    for report in _window(config, sieves, levels()):
        checked = report.n
        if report.extra:
            raise InternalInvariantError(
                f"sumset escaped its predicted shape at N={checked}: {report.extra[:3]}")
        if not report.holds:
            failing.append(checked)
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
    for _, level in sumset_levels(config, scale, cap_points):
        pass
    shifts = level().rows()  # only the last level is unpacked and decoded
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
