"""Hot numeric kernels: lattice box scans, sumset expansion and key packing.

The kernels are vectorized numpy with one code path per kernel: the
caller picks the dtype (``key_dtype``), int64 when it has proved the
arithmetic cannot overflow 63 bits and Python ints (dtype object)
otherwise, and the same numpy code runs on either.  The plain Python
references ``sumsets._iterate_tuples`` and ``polytope._box_scan_exact``
are what the tests hold the kernels to; ``benchmarks/bench_kernels.py``
times the kernels against them.

Points of a box are packed into mixed-radix keys whose order is lex order
(``key_strides``, ``pack_rows``, ``decode_keys``), and ``PackedPoints``
holds a point set as its keys together with their box: the one form a
sumset level takes from the walk to the report writers.  The sumset levels
(``sumsets.sumset_levels``) are bit sets over those keys when their box
fits the point budget and sorted keys otherwise, and a level becomes a
PackedPoints only when a reader calls for it; a semigroup sieve is a
boolean mask over its box in the same order, so a point's key is its flat
index there.  ``cells_to_bits`` and ``bits_to_keys`` move between a
boolean array, a Python-int bit set over its flat indices and the indices
of its set bits: the structure window compares the levels with their
predicted shape as such bit sets.
``sumset_step`` expands one block of sums:
the frontier iteration on sorted keys in ``sumsets`` calls it on the keys
of the previous level's new points and the generators' key offsets, and
never unpacks a row; its 2-D form steps point arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def active_backend() -> str:
    """The kernel backend in use: always ``"numpy"``."""
    return "numpy"


def points_to_array(points, dtype=np.int64) -> np.ndarray:
    arr = np.asarray(points, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(len(points), -1)
    return arr


def array_to_points(arr) -> list[tuple[int, ...]]:
    """The rows of a point array as tuples of Python ints.

    ``tolist`` turns int64 entries into Python ints and leaves the Python
    ints of an object array as they are, so both give the same tuples.
    """
    return list(map(tuple, np.asarray(arr).tolist()))


# ---------------------------------------------------------------------------
# box scan: lattice points x with lo <= x <= hi and lhs @ x <= rhs.
# The innermost coordinate is solved as an integer interval, so the work per
# scanned "row" is O(#constraints) rather than O(#points).
# ---------------------------------------------------------------------------


def _prefix_chunks(lo, hi, chunk_rows=1 << 18):
    """Yield arrays of prefix rows (all but the last coordinate), in lo's dtype."""
    d = len(lo)
    if d == 1:
        yield np.zeros((1, 0), dtype=lo.dtype)
        return
    ranges = [np.arange(lo[j], hi[j] + 1, dtype=lo.dtype) for j in range(d - 1)]
    tail = 1
    for r in ranges[1:]:
        tail *= len(r)
    if tail == 0 or len(ranges[0]) == 0:
        return
    block = max(1, chunk_rows // max(tail, 1))
    first = ranges[0]
    for start in range(0, len(first), block):
        sub = [first[start:start + block]] + ranges[1:]
        grid = np.meshgrid(*sub, indexing="ij")
        yield np.stack([g.ravel() for g in grid], axis=1)


def _np_intervals(prefixes, lo, hi, lhs, rhs):
    d = len(lo)
    k_num = lhs.shape[0]
    m = prefixes.shape[0]
    t_lo = np.full(m, lo[d - 1], dtype=lo.dtype)
    t_hi = np.full(m, hi[d - 1], dtype=lo.dtype)
    feasible = np.ones(m, dtype=bool)
    if k_num:
        resid = rhs[None, :] - prefixes @ lhs[:, : d - 1].T
        for k in range(k_num):
            c = int(lhs[k, d - 1])
            if c > 0:
                np.minimum(t_hi, resid[:, k] // c, out=t_hi)
            elif c < 0:
                np.maximum(t_lo, -(resid[:, k] // (-c)), out=t_lo)
            else:
                feasible &= resid[:, k] >= 0
    counts = np.where(feasible, np.maximum(t_hi - t_lo + 1, 0), 0)
    return counts, t_lo


def _box_arrays(lo, hi, lhs, rhs, dtype):
    return (np.asarray(lo, dtype=dtype), np.asarray(hi, dtype=dtype),
            np.asarray(lhs, dtype=dtype).reshape(len(lhs), len(lo)),
            np.asarray(rhs, dtype=dtype))


def box_count(lo, hi, lhs, rhs, dtype=np.int64) -> int:
    """Count lattice points in the box satisfying all lhs @ x <= rhs rows.

    The scan runs in ``dtype``: int64 only when every dot product provably
    fits, Python ints (dtype object) otherwise.
    """
    lo, hi, lhs, rhs = _box_arrays(lo, hi, lhs, rhs, dtype)
    if any(a > b for a, b in zip(lo, hi)):
        return 0
    total = 0
    for prefixes in _prefix_chunks(lo, hi):
        counts, _ = _np_intervals(prefixes, lo, hi, lhs, rhs)
        total += int(counts.sum())
    return total


def box_points(lo, hi, lhs, rhs, dtype=np.int64) -> np.ndarray:
    """The points counted by :func:`box_count`, in lexicographic order, as
    an array of ``dtype``.

    Each prefix row's points are an interval of the last coordinate t, so
    a row is its prefix repeated beside the interval's start stepped by 1.
    """
    lo, hi, lhs, rhs = _box_arrays(lo, hi, lhs, rhs, dtype)
    chunks = []
    if all(a <= b for a, b in zip(lo, hi)):
        for prefixes in _prefix_chunks(lo, hi):
            counts, t_lo = _np_intervals(prefixes, lo, hi, lhs, rhs)
            keep = counts > 0
            if not keep.any():
                continue
            counts = counts[keep].astype(np.int64, copy=False)
            step = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
            t = np.repeat(t_lo[keep], counts) + step.astype(dtype, copy=False)
            chunks.append(np.column_stack([np.repeat(prefixes[keep], counts, axis=0), t]))
    if len(chunks) == 1:
        return chunks[0]
    if chunks:
        return np.concatenate(chunks)
    return np.empty((0, len(lo)), dtype=dtype)


def cells_to_bits(cells: np.ndarray) -> int:
    """The bit set of a boolean array: bit k is set when its cell of flat
    index k (C order) is True."""
    return int.from_bytes(np.packbits(cells.ravel(), bitorder="little").tobytes(), "little")


def bits_to_keys(bits: int) -> np.ndarray:
    """The positions of the set bits of ``bits``, ascending, as int64."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


# ---------------------------------------------------------------------------
# sumset expansion: {p + g} for p in points, g in gens, deduplicated and
# lexicographically sorted.  Points are packed into single int64 keys
# (mixed radix over the coordinate ranges) so deduplication is a 1-D unique.
# ---------------------------------------------------------------------------


def key_strides(lo, hi) -> tuple[tuple[int, ...], int]:
    """Mixed-radix strides packing the box [lo, hi] into keys 0..span-1.

    Returns (strides, span).  Key order is lexicographic row order.
    """
    strides = []
    span = 1
    for a, b in zip(reversed(lo), reversed(hi)):
        strides.append(span)
        span *= b - a + 1
    return tuple(reversed(strides)), span


def key_dtype(*bounds) -> np.dtype:
    """The dtype a kernel runs in: int64 when every bound (a key span, a
    coordinate or dot-product bound) fits the kernel range, else Python ints."""
    return np.dtype(np.int64) if int64_budget_ok(*bounds) else np.dtype(object)


def decode_keys(keys: np.ndarray, lo, strides) -> np.ndarray:
    """The rows of the box [lo, ...] whose keys are ``keys`` (see key_strides),
    in the keys' dtype."""
    out = np.empty((len(keys), len(strides)), dtype=keys.dtype)
    rest = keys
    for k, stride in enumerate(strides[:-1]):
        digit = rest // stride
        out[:, k] = digit
        rest = rest - digit * stride
    if strides:
        out[:, -1] = rest
    out += np.asarray(lo, dtype=keys.dtype)
    return out


@dataclass(frozen=True, eq=False)
class PackedPoints:
    """A point set as the keys of its points in the box [lo, ...] with
    ``strides`` and keys 0..span-1 (see key_strides), int64 or Python ints
    (dtype object).  The levels of one sumset walk share its box."""

    keys: np.ndarray
    lo: tuple[int, ...]
    strides: tuple[int, ...]
    span: int

    @property
    def box(self) -> tuple:
        return self.lo, self.strides, self.span

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self) -> np.ndarray:
        """The points, one row per key, in the keys' dtype."""
        return decode_keys(self.keys, self.lo, self.strides)


def pack_rows(rows, lo, strides, dtype) -> np.ndarray:
    """Keys of the rows of a point array; every row must lie in the box.

    Rows are cast to ``dtype`` first, so an object array of Python ints
    packs exactly whatever the magnitudes.  The key is summed a column at
    a time, each digit (row - lo) times its stride: no partial sum leaves
    [0, span), and numpy's integer matmul, which has no BLAS, is several
    times slower on rows of a few columns.
    """
    rows = np.asarray(rows, dtype=dtype)
    keys = np.zeros(len(rows), dtype=dtype)
    for k, (a, stride) in enumerate(zip(lo, strides)):
        keys += (rows[:, k] - a) * stride
    return keys


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, sorted.

    Same result as numpy's unique, which in numpy 2.x imports numpy.ma on its
    first call (most of the time of a cold run on a tiny input) and dedups
    integers by hashing: on numpy 2.4, 1M int64 keys take about 690 ms
    there against 28 ms for this sort (2-core VM).  The keys may come in
    any order; to test membership in the result use :func:`sorted_member`.
    """
    keys = np.sort(keys)
    return keys[first_of_runs(keys)]


def sorted_member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``keys`` that occur in ``sorted_keys``.

    ``sorted_keys`` must be sorted ascending (repeats allowed); ``keys``
    may come in any order.  Both hold int64 or both Python ints (dtype
    object).  Same result as np.isin, by one binary search per key and one
    equality gather: np.isin sorts or hashes both sides again, and in
    numpy 2.x its first call imports numpy.ma.
    """
    keys = np.asarray(keys)
    if len(sorted_keys) == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    np.minimum(pos, len(sorted_keys) - 1, out=pos)
    return sorted_keys[pos] == keys


def first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def sumset_step(pts: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """One Minkowski step: the distinct sums p + g, sorted.

    On 1-D arrays ``pts`` are the keys of points in a box that holds every
    sum and ``gens`` the generators' key offsets (g @ strides), so a sum's
    key is a key plus an offset: the step returns the sorted distinct
    keys.  On 2-D point arrays it packs the rows into the box of the sums,
    takes the same step and decodes the rows, sorted lexicographically;
    the keys, and so the rows, are Python ints when that box's keys or
    coordinates leave the int64 range.
    """
    if pts.ndim == 1:
        return sorted_unique((pts[:, None] + gens[None, :]).ravel())
    p_lo, g_lo = pts.min(axis=0).tolist(), gens.min(axis=0).tolist()
    mins = [a + b for a, b in zip(p_lo, g_lo)]
    maxs = [a + b for a, b in zip(pts.max(axis=0).tolist(), gens.max(axis=0).tolist())]
    strides, span = key_strides(mins, maxs)
    dtype = key_dtype(span, *mins, *maxs)
    keys = pack_rows(pts, p_lo, strides, dtype)
    offsets = pack_rows(gens, g_lo, strides, dtype)
    return decode_keys(sorted_unique((keys[:, None] + offsets[None, :]).ravel()),
                       mins, strides)


def int64_budget_ok(*values) -> bool:
    """True when every |value| stays clear of the int64 kernel range."""
    return all(abs(int(v)) < (1 << 62) for v in values)
