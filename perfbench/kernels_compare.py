"""Time the numpy kernels against the exact-Python paths they shortcut.

    python3 perfbench/kernels_compare.py

Pairs ``kernels.box_count`` / ``kernels.box_points`` with
``polytope._box_scan_exact``, and one ``kernels.sumset_step`` with one level
of ``sumsets._iterate_tuples``; asserts that each pair returns the same
result.  Each kernel and box scan takes the best of REPEAT runs; the tuple
level is timed once, since reaching it again means recomputing every level
below it.  Works without numba (benchmarks/bench_kernels.py compares numba
with numpy and needs both).  Rows expanded and box cells scanned are exact
counts; bytes moved are computed from array shapes (8-byte int64 entries),
not measured.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sumsetlab import PointConfig, kernels  # noqa: E402
from sumsetlab.polytope import _box_scan_exact, _dilate_box, convex_hull  # noqa: E402
from sumsetlab.sumsets import _iterate_arrays, _iterate_tuples  # noqa: E402

BOX_CASES = [
    ("2d triangle4, N=200", [(0, 0), (4, 0), (0, 4), (1, 1)], 200),
    ("3d simplex3_diag, N=40", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 40),
    ("1d a_0_3_5, N=10^5", [(0,), (3,), (5,)], 10 ** 5),
]
SUMSET_CASES = [
    ("2d unit_square, level 200", [(0, 0), (1, 0), (0, 1), (1, 1)], 200),
    ("2d hexagon6, level 80", [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)], 80),
    ("3d unit_simplex3, level 40", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 40),
]
REPEAT = 3


def best(fn):
    times, result = [], None
    for _ in range(REPEAT):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return min(times), result


def box_rows(name, points, n):
    config = PointConfig.from_points(points)
    poly = convex_hull(config)
    lo, hi = _dilate_box(config, n)
    lhs = [list(f.normal) for f in poly.facets]
    rhs = [n * f.offset for f in poly.facets]
    d, k = len(lo), len(lhs)
    cells = prefixes = 1
    for j, (a, b) in enumerate(zip(lo, hi)):
        cells *= b - a + 1
        if j < d - 1:
            prefixes *= b - a + 1
    rows = []
    for mode in ("count", "points"):
        if mode == "count":
            t_np, r_np = best(lambda: kernels.box_count(lo, hi, lhs, rhs))
            t_ex, r_ex = best(lambda: _box_scan_exact(lo, hi, lhs, rhs, False))
            found = r_np
        else:
            t_np, arr = best(lambda: kernels.box_points(lo, hi, lhs, rhs))
            r_np = kernels.array_to_points(arr)
            t_ex, r_ex = best(lambda: _box_scan_exact(lo, hi, lhs, rhs, True))
            found = len(r_np)
        assert r_np == r_ex, (name, mode)
        moved = 8 * (prefixes * (d - 1) + prefixes * k + (found * d if mode == "points" else 0))
        rows.append((f"box_{mode} {name}", t_np, t_ex, f"{cells} cells -> {found} points", moved))
    return rows


def sumset_row(name, points, level):
    config = PointConfig.from_points(points)
    arrays = _iterate_arrays(config, level)
    for _ in range(level - 1):
        prev = next(arrays)
    gens = kernels.points_to_array(sorted(config.points))
    t_np, out = best(lambda: kernels.sumset_step(prev, gens))

    levels = _iterate_tuples(config, level)
    for _ in range(level - 1):
        next(levels)
    start = perf_counter()
    exact = next(levels)
    t_ex = perf_counter() - start
    assert kernels.array_to_points(out) == exact, name
    n, d = prev.shape
    m = len(gens)
    r = len(out)
    moved = 8 * (n * d + n * m * d + n * m + 2 * n * m + r * d)
    return (f"sumset_step {name}", t_np, t_ex, f"{n * m} rows -> {r}", moved)


def main():
    print(f"backend {kernels.active_backend()}; bytes moved are computed, not measured")
    print(f"{'case':44s} {'numpy':>10s} {'exact':>10s} {'ratio':>7s}  work; computed MB")
    rows = []
    for case in BOX_CASES:
        rows += box_rows(*case)
    for case in SUMSET_CASES:
        rows.append(sumset_row(*case))
    for label, t_np, t_ex, work, moved in rows:
        print(f"{label:44s} {t_np * 1e3:8.2f}ms {t_ex * 1e3:8.2f}ms {t_ex / t_np:6.1f}x  "
              f"{work}; {moved / 1e6:.2f} MB")


if __name__ == "__main__":
    main()
