"""Benchmark the hot kernels against the plain Python references.

Times the lattice box scan, one sumset expansion step, the sumset iteration,
the obstruction scan and the JSON writer, checks that every pair returns
identical results, and prints tables:

* numpy against plain Python: ``kernels.box_count`` against
  ``polytope._box_scan_exact`` and ``kernels.sumset_step`` (numpy backend)
  against one level of ``sumsets._iterate_tuples``, the references the
  tests hold the kernels to;
* the frontier iteration (``sumsets._iterate_arrays``: each level grown
  from the new points of the one before) against the full-level loop
  (``kernels.sumset_step`` on every whole level), for hexagon6 to N=150
  and simplex3_diag to N=60;
* ``reporting.to_json`` on the ``growth --max-n 80 --emit-points`` report
  of hexagon6, whose levels are int64 arrays, against ``json.dumps(indent=2)``
  of the same report with every level turned into row lists by ``tolist()``
  (the ``tolist()`` step is also timed on its own);
* the obstruction scan with its keys packed into as few int64 words as fit
  against the same scan with one word per digit, for hexagon6, for a
  six-point set whose scan the candidate budget truncates, and for a
  twelve-point set whose keys need three words;
* ``kernels.sorted_member`` (binary search in the sorted sieve keys)
  against ``np.isin``, on every vertex-sieve query of the structure pass
  of hexagon6 and prism5 (each level's whole dilate, reflected at each
  hull vertex), both sides the best of --repeat runs;
* hull vertices read off the facet scan (``lattice.extremal_points``, hull
  cache cleared before each run) against the convex-combination search of
  ``tests/oracles.py``, on 100 fixed small sets in d = 1..4;
* the semigroup membership that ``verify_extremal_decomposition`` asks for
  on the 26 corpus sets (both sides, on the region ``verify`` checks), from
  the sieve-backed ``SemigroupOracle.members`` against the per-point DFS
  oracle of ``tests/oracles.py``;
* the obstruction scan that stops once counting proves its elements
  complete against the scan to its cap (``_CERTIFY_MAX_ELEMENTS`` set to
  0: with no element known the counts always differ, so no scan stops
  early), over the 26 corpus sets and the 21 sets of the
  ``khovanskii-random`` benchmark workload;
* the frontier iteration stepping packed keys by the generators' key
  offsets (sizes-only ``sumset_levels``) against the same iteration on
  point rows (decode, ``kernels.sumset_step`` on rows, pack), for hexagon6
  to N=150 and {0,2,5,11,12} to N=1000;
* the Hilbert series numerator of the obstruction ideal by the pivot
  recursion (``khovanskii._hilbert_numerator``) against inclusion-exclusion
  over every subset (``subset_weights`` of ``tests/oracles.py``), on the
  obstruction sets of at most 16 elements among the same 47 sets, and the
  pivot recursion alone on the 24 elements of the pinned truncating set.

    python benchmarks/bench_kernels.py [--repeat 5]

The first column takes the best of --repeat runs; the second runs once,
since it is the slower side.  Each sumset row times the step to level N;
the exact side first iterates the levels below N untimed, which is most of
the run (about two minutes on a 2-core VM).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

import numpy as np

from sumsetlab import (PointConfig, RegionSpec, SemigroupOracle, kernels, khovanskii,
                       normalize_config)
from sumsetlab.lattice import extremal_points
from sumsetlab.polytope import (_box_scan_exact, _hull_cache, convex_hull,
                                dilate_points, volumes)
from sumsetlab.reporting import Caps, growth_report, to_json
from sumsetlab.structure import _vertex_sieves, structure_bounds
from sumsetlab.sumsets import (_frontier_box, _iterate_arrays, _iterate_tuples,
                               region_points, sumset_arrays, sumset_levels)


def _box_workload(name, points, dilate):
    cfg = PointConfig.from_points(points)
    poly = convex_hull(cfg)
    d = cfg.dim
    lo = np.asarray([dilate * min(p[k] for p in cfg.points) for k in range(d)],
                    dtype=np.int64)
    hi = np.asarray([dilate * max(p[k] for p in cfg.points) for k in range(d)],
                    dtype=np.int64)
    lhs = np.asarray([list(f.normal) for f in poly.facets], dtype=np.int64)
    rhs = np.asarray([dilate * f.offset for f in poly.facets], dtype=np.int64)
    return name, (lo, hi, lhs, rhs)


def _sumset_workload(points, level):
    """The configuration, its level-``level`` sumset array and generators."""
    cfg = PointConfig.from_points(points)
    gens = kernels.points_to_array(sorted(cfg.points))
    cur = gens.copy()
    for _ in range(level - 1):
        cur = kernels.sumset_step(cur, gens)
    return cfg, cur, gens


def bench(fn, args, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _exact_sumset_level(cfg, level):
    """Level ``level`` of the exact iteration, timing only its last step."""
    levels = _iterate_tuples(cfg, level)
    for _ in range(level - 1):
        next(levels)
    t0 = time.perf_counter()
    out = next(levels)
    return time.perf_counter() - t0, out


def _obstruction_scan(cfg, word_limit):
    """The uncached obstruction scan, its key words kept below word_limit."""
    chosen = khovanskii._WORD_LIMIT
    khovanskii._WORD_LIMIT = word_limit
    try:
        return khovanskii._minimal_obstructions_scan(cfg, None, 5_000_000)
    finally:
        khovanskii._WORD_LIMIT = chosen


BOX_CASES = [
    ("box scan 2d triangle, N=600", [(0, 0), (4, 0), (0, 4), (1, 1)], 600),
    ("box scan 3d simplex,  N=120",
     [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 120),
    ("box scan 1d interval, N=2*10^6", [(0,), (3,), (5,)], 2 * 10 ** 6),
]
SUMSET_CASES = [
    ("sumset step 2d square,  |P|~10^5", [(0, 0), (1, 0), (0, 1), (1, 1)], 300),
    ("sumset step 2d hexagon, |P|~10^5",
     [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)], 120),
    ("sumset step 3d simplex, |P|~2*10^5",
     [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 100),
]
HEXAGON6 = [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)]
ITERATION_CASES = [
    ("iterate 2d hexagon6, N=150", HEXAGON6, 150),
    ("iterate 3d simplex3_diag, N=60",
     [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 60),
]
SCAN_CASES = [
    ("obstruction scan hexagon6",
     [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)]),
    ("obstruction scan {2,5,6,7,13,15}",
     [(2,), (5,), (6,), (7,), (13,), (15,)]),
    ("obstruction scan 12 points, 1-D",
     [(x,) for x in (0, 1, 3, 4, 7, 9, 10, 13, 14, 17, 19, 20)]),
]


def numpy_against_exact(repeat):
    print(f"{'workload':38s} {'numpy':>10s} {'exact':>10s} {'ratio':>8s}")
    for name, (lo, hi, lhs, rhs) in (_box_workload(*c) for c in BOX_CASES):
        t_np, n_np = bench(kernels.box_count, (lo, hi, lhs, rhs), repeat)
        t_ex, n_ex = bench(_box_scan_exact,
                           ([int(v) for v in lo], [int(v) for v in hi],
                            lhs.tolist(), rhs.tolist(), False), 1)
        assert n_np == n_ex, (name, n_np, n_ex)
        print(f"{name:38s} {t_np * 1e3:8.2f}ms {t_ex * 1e3:8.2f}ms "
              f"{t_ex / t_np:7.2f}x   ({n_np} points)")
    for name, points, level in SUMSET_CASES:
        cfg, cur, gens = _sumset_workload(points, level - 1)
        t_np, r_np = bench(kernels.sumset_step, (cur, gens), repeat)
        t_ex, r_ex = _exact_sumset_level(cfg, level)
        assert kernels.array_to_points(r_np) == r_ex, name
        print(f"{name:38s} {t_np * 1e3:8.2f}ms {t_ex * 1e3:8.2f}ms "
              f"{t_ex / t_np:7.2f}x   ({len(cur) * len(gens)} -> {len(r_np)} rows)")


def _full_levels(cfg, n_max):
    """Every level as sumset_step of the whole level before it."""
    gens = kernels.points_to_array(sorted(cfg.points))
    levels = [gens]
    for _ in range(2, n_max + 1):
        levels.append(kernels.sumset_step(levels[-1], gens))
    return levels


def frontier_against_full(repeat):
    print(f"{'workload':38s} {'frontier':>10s} {'full':>10s} {'ratio':>8s}")
    for name, points, n_max in ITERATION_CASES:
        cfg = PointConfig.from_points(points)
        t_fr, r_fr = bench(lambda: list(_iterate_arrays(cfg, n_max)), (), repeat)
        t_fu, r_fu = bench(_full_levels, (cfg, n_max), 1)
        assert len(r_fr) == len(r_fu) and all(
            np.array_equal(a, b) for a, b in zip(r_fr, r_fu)), name
        print(f"{name:38s} {t_fr * 1e3:8.2f}ms {t_fu * 1e3:8.2f}ms "
              f"{t_fu / t_fr:7.2f}x   ({sum(map(len, r_fr))} points)")


def _tolist_rows(report):
    """The growth report with every level's array turned into row lists."""
    return {**report, "growth": [{**row, "points": row["points"].tolist()}
                                 for row in report["growth"]]}


def json_writer(repeat):
    print(f"{'workload':38s} {'to_json':>10s} {'dumps':>10s} {'ratio':>8s}")
    report, _ = growth_report(PointConfig.from_points(HEXAGON6), Caps(max_n=80), True)
    t_w, text = bench(to_json, (report,), repeat)
    t_l, listed = bench(_tolist_rows, (report,), repeat)
    t_d, ref = bench(lambda: json.dumps(listed, sort_keys=True, indent=2) + "\n", (), 1)
    assert text == ref
    print(f"{'to_json hexagon6 emit report, N=80':38s} {t_w * 1e3:8.2f}ms "
          f"{(t_l + t_d) * 1e3:8.2f}ms {(t_l + t_d) / t_w:7.2f}x   ({len(text)} bytes)")
    print(f"{'  tolist() of its levels alone':38s} {'':10s} {t_l * 1e3:8.2f}ms")


def scan_word_split(repeat):
    print(f"{'workload':38s} {'packed':>10s} {'per digit':>10s} {'ratio':>8s}")
    for name, points in SCAN_CASES:
        cfg = normalize_config(PointConfig.from_points(points))
        t_pk, r_pk = bench(_obstruction_scan, (cfg, khovanskii._WORD_LIMIT),
                           repeat)
        t_dg, r_dg = bench(_obstruction_scan, (cfg, 1), 1)
        assert r_pk == r_dg, name
        print(f"{name:38s} {t_pk * 1e3:8.2f}ms {t_dg * 1e3:8.2f}ms "
              f"{t_dg / t_pk:7.2f}x   ({len(r_pk.elements)} elements, "
              f"weight {r_pk.weight_scanned}, {r_pk.status})")


MEMBER_CASES = [
    ("sieve queries hexagon6", HEXAGON6),
    ("sieve queries prism5",
     [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]),
]


def _sieve_queries(points):
    """(query keys, sieve keys) for each level and hull vertex of the
    structure pass, over the whole dilate of each level."""
    cfg = normalize_config(PointConfig.from_points(points))
    bounds = structure_bounds(cfg)
    sieves, top = _vertex_sieves(cfg, min(bounds.bound_a, bounds.bound_b), 10 ** 7)
    queries = []
    for n in range(1, top + 1):
        x = dilate_points(cfg, n)
        for a, sieve in sieves:
            keys = kernels.pack_rows(np.asarray(a, dtype=np.int64) * n - x,
                                     sieve.lo, sieve.strides, sieve.keys.dtype)
            queries.append((keys, sieve.keys))
    return queries


def members_against_isin(repeat):
    print(f"{'workload':38s} {'search':>10s} {'isin':>10s} {'ratio':>8s}")
    for name, points in MEMBER_CASES:
        queries = _sieve_queries(points)
        t_ss, r_ss = bench(lambda: [kernels.sorted_member(k, s) for k, s in queries],
                           (), repeat)
        t_in, r_in = bench(lambda: [np.isin(k, s) for k, s in queries], (), repeat)
        assert all(np.array_equal(a, b) for a, b in zip(r_ss, r_in)), name
        print(f"{name:38s} {t_ss * 1e3:8.2f}ms {t_in * 1e3:8.2f}ms "
              f"{t_in / t_ss:7.2f}x   ({len(queries)} queries, "
              f"{sum(len(k) for k, _ in queries)} keys)")


def _vertex_sets(count=100, seed=7):
    """Small distinct point sets in d = 1..4, some of lower rank."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(1, 4)
        size = rng.randint(1, d + 3)
        pts = set()
        while len(pts) < size:
            pts.add(tuple(rng.randint(0, 3) for _ in range(d)))
        out.append((sorted(pts), d))
    return out


def vertices_against_lp(repeat):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from oracles import extremal_points_by_lp

    def by_facets(sets):
        _hull_cache.clear()
        return [extremal_points(pts, d) for pts, d in sets]

    sets = _vertex_sets()
    print(f"{'workload':38s} {'facets':>10s} {'lp':>10s} {'ratio':>8s}")
    t_fc, r_fc = bench(by_facets, (sets,), repeat)
    t_lp, r_lp = bench(lambda: [extremal_points_by_lp(p, d) for p, d in sets], (), 1)
    assert r_fc == r_lp
    print(f"{'extremal 100 sets, d=1..4':38s} {t_fc * 1e3:8.2f}ms "
          f"{t_lp * 1e3:8.2f}ms {t_lp / t_fc:7.2f}x   "
          f"({sum(map(len, r_fc))} vertices)")


def _decomposition_cases():
    """(config, region points, shifts, extremal config) of verify's
    extremal-decomposition check on each corpus set."""
    from corpus import CORPUS

    cases = []
    for _, points in CORPUS:
        cfg = normalize_config(PointConfig.from_points(points))
        side = 8
        bounds = ([(0, side)] if all(c >= 0 for p in cfg.points for c in p)
                  else [(-side, side)]) * cfg.dim
        scale = int(volumes(cfg).volume * math.factorial(cfg.dim))
        shifts = list(sumset_arrays(cfg, scale))[-1]
        ex_cfg = PointConfig(points=tuple(sorted(cfg.extremal())), dim=cfg.dim,
                             normalized=True)
        cases.append((cfg, region_points(cfg, RegionSpec.box(bounds)), shifts, ex_cfg))
    return cases


def _masks_by_sieve(cases):
    out = []
    for cfg, pts, shifts, ex_cfg in cases:
        d = cfg.dim
        shifted = (pts[None, :, :] - shifts[:, None, :]).reshape(-1, d)
        out.append((SemigroupOracle(cfg).members(pts),
                    SemigroupOracle(ex_cfg).members(shifted).reshape(
                        len(shifts), len(pts)).any(axis=0)))
    return out


def _masks_by_dfs(cases, oracle_class):
    out = []
    for cfg, pts, shifts, ex_cfg in cases:
        full, ex = oracle_class(cfg), oracle_class(ex_cfg)
        rows = kernels.array_to_points(pts)
        shift_rows = kernels.array_to_points(shifts)
        out.append((np.array([full.contains(p) for p in rows], dtype=bool),
                    np.array([any(ex.contains(tuple(a - b for a, b in zip(p, s)))
                                  for s in shift_rows) for p in rows], dtype=bool)))
    return out


def membership_against_dfs(repeat):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from oracles import DfsSemigroupOracle

    cases = _decomposition_cases()
    print(f"{'workload':38s} {'sieve':>10s} {'dfs':>10s} {'ratio':>8s}")
    t_sv, r_sv = bench(_masks_by_sieve, (cases,), repeat)
    t_df, r_df = bench(_masks_by_dfs, (cases, DfsSemigroupOracle), 1)
    assert all(np.array_equal(a, b) for pair_sv, pair_df in zip(r_sv, r_df)
               for a, b in zip(pair_sv, pair_df))
    print(f"{'extremal decomposition, 26 sets':38s} {t_sv * 1e3:8.2f}ms "
          f"{t_df * 1e3:8.2f}ms {t_df / t_sv:7.2f}x   "
          f"({sum(len(pts) for _, pts, _, _ in cases)} region points, "
          f"{sum(len(pts) * len(s) for _, pts, s, _ in cases)} shifted)")


def _scans(cfgs, gate):
    """The uncached obstruction scans, certified while at most ``gate``
    elements are known."""
    chosen = khovanskii._CERTIFY_MAX_ELEMENTS
    khovanskii._CERTIFY_MAX_ELEMENTS = gate
    try:
        return [khovanskii._minimal_obstructions_scan(cfg, None, 5_000_000)
                for cfg in cfgs]
    finally:
        khovanskii._CERTIFY_MAX_ELEMENTS = chosen


def obstruction_certificate(repeat):
    here = os.path.dirname(__file__)
    sys.path.insert(0, os.path.join(here, "..", "tests"))
    sys.path.insert(0, os.path.join(here, "..", "perfbench"))
    import workloads
    from corpus import CORPUS

    sets = [pts for _, pts in CORPUS] + [
        [tuple(p) for p in group[0]["points"]]
        for group in workloads.khovanskii_random(workloads.DRAW_SEED)]
    cfgs = [normalize_config(PointConfig.from_points(pts)) for pts in sets]
    print(f"{'workload':38s} {'counted':>10s} {'full':>10s} {'ratio':>8s}")
    t_ct, r_ct = bench(_scans, (cfgs, khovanskii._CERTIFY_MAX_ELEMENTS), repeat)
    t_fu, r_fu = bench(_scans, (cfgs, 0), 1)
    assert r_ct == r_fu
    print(f"{'obstruction scans, 47 sets':38s} {t_ct * 1e3:8.2f}ms "
          f"{t_fu * 1e3:8.2f}ms {t_fu / t_ct:7.2f}x   "
          f"({sum(len(r.elements) for r in r_ct)} elements)")


def numerator_against_subsets(repeat):
    here = os.path.dirname(__file__)
    sys.path.insert(0, os.path.join(here, "..", "tests"))
    sys.path.insert(0, os.path.join(here, "..", "perfbench"))
    import workloads
    from corpus import CORPUS
    from oracles import subset_weights

    sets = [pts for _, pts in CORPUS] + [
        [tuple(p) for p in group[0]["points"]]
        for group in workloads.khovanskii_random(workloads.DRAW_SEED)]
    found = [khovanskii.minimal_obstructions(
        normalize_config(PointConfig.from_points(pts))).elements for pts in sets]
    small = [g for g in found if len(g) <= 16]
    large = [g for g in found if len(g) > 16]
    print(f"{'workload':38s} {'pivot':>10s} {'subsets':>10s} {'ratio':>8s}")
    t_pv, r_pv = bench(lambda: [khovanskii._hilbert_numerator(g) for g in small],
                       (), repeat)
    t_ss, r_ss = bench(lambda: [subset_weights(g) for g in small], (), 1)
    assert r_pv == r_ss
    print(f"{f'numerators, {len(small)} sets of <= 16':38s} {t_pv * 1e3:8.2f}ms "
          f"{t_ss * 1e3:8.2f}ms {t_ss / t_pv:7.2f}x   "
          f"(largest {max(map(len, small))} elements)")
    t_lg, _ = bench(lambda: [khovanskii._hilbert_numerator(g) for g in large],
                    (), repeat)
    print(f"{f'numerators, {len(large)} sets of > 16':38s} {t_lg * 1e3:8.2f}ms "
          f"{'-':>10s} {'-':>8s}   ({', '.join(str(len(g)) for g in large)} elements)")


def _row_frontier_sizes(cfg, n_max):
    """|N*A| by the frontier iteration on point rows: each level steps the
    rows of its new points by the generators and packs the sums again."""
    lo, strides, _ = _frontier_box(cfg, n_max)
    gens = kernels.points_to_array(sorted(cfg.points))
    shift = int(gens[0] @ np.asarray(strides, dtype=np.int64))
    keys = kernels.pack_rows(gens, lo, strides, np.int64)
    frontier = gens[1:]
    sizes = [len(keys)]
    for _ in range(2, n_max + 1):
        keys = keys + shift
        if len(frontier):
            rows = kernels.sumset_step(frontier, gens)
            cand = kernels.pack_rows(rows, lo, strides, np.int64)
            new = ~kernels.sorted_member(cand, keys)
            frontier = rows[new]
            keys = np.concatenate([keys, cand[new]])
            keys.sort(kind="stable")
        sizes.append(len(keys))
    return sizes


FRONTIER_CASES = [
    ("sizes 2d hexagon6, N=150", HEXAGON6, 150),
    ("sizes 1d {0,2,5,11,12}, N=1000", [(0,), (2,), (5,), (11,), (12,)], 1000),
]


def frontier_keys(repeat):
    print(f"{'workload':38s} {'keys':>10s} {'rows':>10s} {'ratio':>8s}")
    for name, points, n_max in FRONTIER_CASES:
        cfg = PointConfig.from_points(points)
        t_ky, r_ky = bench(lambda: [size for size, _ in sumset_levels(cfg, n_max)],
                           (), repeat)
        t_rw, r_rw = bench(_row_frontier_sizes, (cfg, n_max), repeat)
        assert r_ky == r_rw, name
        print(f"{name:38s} {t_ky * 1e3:8.2f}ms {t_rw * 1e3:8.2f}ms "
              f"{t_rw / t_ky:7.2f}x   ({sum(r_ky)} points)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    numpy_against_exact(args.repeat)
    print()
    frontier_against_full(args.repeat)
    print()
    json_writer(args.repeat)
    print()
    scan_word_split(args.repeat)
    print()
    members_against_isin(args.repeat)
    print()
    vertices_against_lp(args.repeat)
    print()
    membership_against_dfs(args.repeat)
    print()
    obstruction_certificate(args.repeat)
    print()
    frontier_keys(args.repeat)
    print()
    numerator_against_subsets(args.repeat)


if __name__ == "__main__":
    main()
