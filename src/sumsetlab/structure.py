"""When NA fills its whole dilated hull minus the reflected exceptional sets.

For a normalized configuration, NA always sits inside the lattice points of
N*H(A) with, for every hull vertex a, the set a*N - E(a - A) carved out
(E is the exceptional set of the semigroup at that vertex).  Eventually this
inclusion is an equality; this module verifies it at every level, as bit
sets over the keys of the sumset walk (_PredictedShape), finds the exact
onset when the proven bounds are within budget, and evaluates those bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    facet_height_ratio,
    volumes,
)
from .sumsets import (
    RegionSpec,
    SemigroupOracle,
    level_bits,
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


def _box_bits(extent, strides) -> int:
    """The bit set of the keys j . strides for 0 <= j < extent: a box of that
    extent inside a key box with those strides, its keys counted from its
    low corner.  Axis by axis, last first, the bits so far are repeated
    extent_k times, stride_k apart, by doubling."""
    bits = 1
    for count, step in zip(reversed(extent), reversed(strides)):
        out, width, block, copies = 0, 0, bits, 1
        while True:
            if count & 1:
                out |= block << width * step
                width += copies
            count >>= 1
            if not count:
                break
            block |= block << copies * step
            copies *= 2
        bits = out
    return bits


class _PredictedShape:
    """The predicted shape S(N) of NA for N = 1..top, as bit sets over the
    keys of the box of top*H: bit (x - lo) . s is set for x in S(N), where
    lo and s are the low corner and strides of that box.  As H holds the
    origin, it is the key box of a sumset_levels walk to top, so a level's
    bit set (level_bits) compares with S(N) as it is.

    Once per window, each hull vertex a's sieve mask is cut to the box of
    top*(a - H), which is top*a less the box of top*H, and flipped along
    every axis, which reverses its flat order: M_a has bit (x' - lo) . s set
    when the sieve holds top*a - x'.  At level N, with m the low corner of
    the box of H, the box of N*H starts at key q = (top - N)(-m) . s, and

        S(N) = (B_N & AND_a (M_a >> (top - N)(a - m) . s)) << q,

    B_N the box of N*H with its keys less q as bits.  The shifts are
    nonnegative as a >= m.  Nothing aliases:

    * For x in the box of N*H, x' = x + (top - N) a lies in the box of
      N*H plus (top - N) times the box of H, the box of top*H, as a is in
      H; its key is that of x plus (top - N) a . s, so bit (x - lo) . s - q
      of M_a shifted is the sieve's cell of top*a - x' = N*a - x.
    * For x in N*H, N*a - x lies in N*(a - H): in the cone of a - A with
      ell at most N times max ell(a - A), inside the region on which the
      sieve is exact (_vertex_sieves).
    * For x in the box of N*H but outside N*H, some facet normal . x <=
      N * offset fails; at a vertex a of that facet normal . (N*a - x) < 0,
      so N*a - x is outside the cone of a - A, and the mask, which off its
      region still marks only sums of generators, gives 0 there.
    * B_N clears every bit off the box of N*H.

    So S(N) is exactly structure_rhs at N, and a level holds when its bit
    set equals it; only the differences are unpacked and decoded.
    """

    def __init__(self, config: PointConfig, sieves, top: int):
        lo, hi = _dilate_box(config, top)
        self.low, self.high = _dilate_box(config, 1)
        self.top, self.lo = top, lo
        self.strides, _ = kernels.key_strides(lo, hi)
        self.corner = self._key([-m for m in self.low])  # q at top - N = 1
        shape = tuple(b - a + 1 for a, b in zip(lo, hi))
        self.reflected = []
        for a, sieve in sieves:
            # where top*a - hi, the low corner of the box of top*(a - H), sits in the mask
            corner = [top * v - b - c for v, b, c in zip(a, hi, sieve.lo)]
            if any(c < 0 or c + e > m for c, e, m in zip(corner, shape, sieve.mask.shape)):
                raise InternalInvariantError(
                    f"the sieve of vertex {a} misses the box of {top} times its reflected hull")
            cut = sieve.mask[tuple(slice(c, c + e) for c, e in zip(corner, shape))]
            self.reflected.append((kernels.cells_to_bits(np.ravel(cut)[::-1]),
                                   self._key([v - m for v, m in zip(a, self.low)])))

    def _key(self, x) -> int:
        return sum(v * s for v, s in zip(x, self.strides))

    def bits(self, n: int) -> int:
        """S(n) as a bit set over the keys of the box of top*H."""
        extent = [n * (b - a) + 1 for a, b in zip(self.low, self.high)]
        predicted = _box_bits(extent, self.strides)
        for reflected, shift in self.reflected:
            # an int shifted by 0 is a copy of all its bits
            predicted &= reflected >> (self.top - n) * shift if shift else reflected
        return predicted << (self.top - n) * self.corner

    def points(self, bits: int) -> tuple[Point, ...]:
        """The points whose keys are the set bits of ``bits``, in lex order."""
        if not bits:
            return ()
        keys = kernels.bits_to_keys(bits)
        return tuple(kernels.array_to_points(kernels.decode_keys(keys, self.lo, self.strides)))

    def check(self, n: int, level) -> StructureReport:
        """NA against S(n), ``level`` being level n of a sumset_levels walk to top."""
        na, predicted = level_bits(level), self.bits(n)
        if na == predicted:
            return StructureReport(n=n, holds=True, missing=(), extra=())
        return StructureReport(n=n, holds=False, missing=self.points(predicted & ~na),
                               extra=self.points(na & ~predicted))


def structure_rhs(config: PointConfig, n: int,
                  cap_points: int = 10 ** 7) -> list[Point]:
    """The maximal possible shape of NA at level n, as a sorted point list.

    Every lattice point of n*H(A) is kept unless, for some hull vertex a,
    its reflection a*n - x lands in the cone of a - A without being a
    nonnegative combination of those points.
    """
    require_normalized(config)
    shape = _PredictedShape(config, _sieves_through(config, n, cap_points), n)
    return list(shape.points(shape.bits(n)))


def verify_structure_equation(config: PointConfig, n: int,
                              cap_points: int = 10 ** 7) -> StructureReport:
    """Compare NA against structure_rhs at one level (the vertex sieves
    are built first, so an input over ``cap_points`` fails on them)."""
    require_normalized(config)
    shape = _PredictedShape(config, _sieves_through(config, n, cap_points), n)
    for _, level in sumset_levels(config, n, cap_points):
        pass
    return shape.check(n, level)


def structure_levels(config: PointConfig, max_n: int,
                     cap_points: int = 10 ** 7) -> list[StructureReport]:
    """verify_structure_equation for N = 1..max_n, walking the sumsets once."""
    require_normalized(config)
    if max_n < 1:
        return []
    shape = _PredictedShape(config, _sieves_through(config, max_n, cap_points), max_n)
    return [shape.check(n, level) for n, (_, level)
            in enumerate(sumset_levels(config, max_n, cap_points), start=1)]


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
    never fires.  Each level past the first passes TEST_BUDGET before it
    is checked (_PredictedShape.check).
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

    shape = _PredictedShape(config, sieves, top)
    failing = []
    checked = 0
    for checked, (_, level) in enumerate(levels(), start=1):
        report = shape.check(checked, level)
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
