"""Benchmark the hot kernels against the plain Python references.

Times the lattice box scan, one sumset expansion step, the sumset iteration
(on keys and as bitsets), the obstruction scan and the JSON writer, checks
that every pair returns identical results, and prints tables:

* numpy against plain Python: ``kernels.box_count`` against
  ``polytope._box_scan_exact`` and ``kernels.sumset_step`` (numpy backend)
  against one level of ``sumsets._iterate_tuples``, the references the
  tests hold the kernels to;
* the frontier iteration on sorted keys (``sumsets._iterate_keys``: each
  level grown from the new points of the one before, decoded to point
  arrays) against the full-level loop
  (``kernels.sumset_step`` on every whole level), for hexagon6 to N=150
  and simplex3_diag to N=60;
* the report writers against ``json.dumps`` of row lists, with equal output
  checked: ``reporting.to_json`` and ``reporting.to_text`` on the ``growth
  --max-n 80 --emit-points`` report of hexagon6, whose levels are packed
  keys in the key box of the walk (``kernels.PackedPoints``), against
  ``json.dumps(indent=2)`` (and ``to_text``) of the same report with every
  level decoded and turned into row lists by ``tolist()`` (that step is
  also timed on its own, and the rows written are printed beside the
  distinct points the writer renders); ``to_json`` on the 1000-row
  sizes-only report of {0,2,5,11,12}, all plain ints and strs, against
  ``json.dumps(indent=2)``; that whole emit request, building the report
  and writing it, against building it and dumping its row lists; and the
  row-table build alone (``reporting._RowTable`` on the levels of that
  report, in the one-line and the indented layout), rendering its rows a
  column at a time against one ``%`` format per row
  (``row_texts_by_format`` of ``tests/oracles.py``), with equal tables
  checked;
* the obstruction scan with its keys packed into as few int64 words as fit
  against the same scan with one word per digit, for hexagon6, for a
  six-point set whose scan the candidate budget truncates, and for a
  twelve-point set whose keys need three words;
* that scan on the six-point set in fresh interpreters (``scan_cold``):
  the median of 5 sequential runs of this Python with ``PYTHONPATH`` set
  to this checkout's ``src``, each timing its first scan, beside the best
  of --repeat scans in this process; a scan that allocates fresh arrays
  each level pays page faults in every fresh process, which the warm
  figure hides;
* the dense sieve's one-gather lookup (``SemigroupSieve.members``: a
  point's key indexes the sieve's mask) against a binary search
  (``kernels.sorted_member``) in the sorted keys of the same sieve, on
  every vertex-sieve query of the structure pass of hexagon6 and prism5
  (each level's whole dilate, reflected at each hull vertex), both sides
  the best of --repeat runs;
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
  offsets (``sumsets._iterate_keys``) against the same iteration on
  point rows (decode, ``kernels.sumset_step`` on rows, pack), for hexagon6
  to N=150 and {0,2,5,11,12} to N=1000;
* the sizes |NA| from bitset levels (sizes-only ``sumset_levels``, which
  takes the bitset engine when the levels' key box fits the point budget:
  one shift and OR per generator per level, and a bit count) against the
  frontier iteration on sorted keys (``sumsets._iterate_keys``), for
  hexagon6 to N=150, simplex3_diag to N=60, {0,2,5,11,12} to N=1000, the
  interpolation walk of normalized simplex3_diag (to its sharp bound plus
  d + 1) and {0,7,1000} to N=2000;
* the Hilbert series numerator of the obstruction ideal by the pivot
  recursion (``khovanskii._hilbert_numerator``) against inclusion-exclusion
  over every subset (``subset_weights`` of ``tests/oracles.py``), on the
  obstruction sets of at most 16 elements among the same 47 sets, and the
  pivot recursion alone on the 24 elements of the pinned truncating set;
* the coarse bounds of {0, e_1..e_d, (1, ..., 1)} for d = 3..7 rendered
  from their (base, exponent) pairs (``render_int(base, exponent)``)
  against ``render_int(base ** exponent)``, which builds the integer first;
* the structure window's level check on bit sets
  (``structure._PredictedShape``: the box of N*H ANDed with each vertex
  sieve's mask, cut, flipped and shifted, against the level's bit set)
  against the check on point rows (``check_block_by_rows`` of
  ``tests/oracles.py``: a dilate scan, ``SemigroupSieve.members``,
  ``kernels.pack_rows`` and ``kernels.sorted_member``), on the window of
  ``structure_threshold`` for hexagon6, prism5 and simplex3_diag and on
  the walks of hexagon6 to N=288 and {0,7,1000} to N=999, with equal
  reports checked.  The row side runs once: on {0,7,1000} it scans half a
  billion dilate points;
* the cold triangulation from the origin (``polytope._simplices``: the
  recursion on the faces of the one hull, each face a set of point
  indices) against the recursion that gives each facet a hull of its own
  in its own Hermite coordinates (``triangulate_by_facet_hulls`` of
  ``tests/oracles.py``), on 100 normalized sets in the shapes of the
  geometry-batch workload and on the 3-D corpus sets, every hull and
  triangulation cache emptied before each run, with equal simplices
  checked;
* the quantities read off the one hull scan against the references of
  ``tests/oracles.py`` that compute each on its own, on the same 100
  geometry-batch shapes, every cache emptied before each run, with equal
  values checked: cold ``convex_hull`` (facets, vertices by incidence and
  the determinant range) against the hull with the rank-of-normals vertex
  rule (``vertices_by_normal_rank``) and a determinant of every
  (d+1)-point subset (``subset_det_range``), and cold ``volumes`` with
  ``facet_height_ratio`` against that determinant range, the width over
  all pairs and the determinant form of the height ratio
  (``facet_height_ratio_by_determinants``).  The references take cofactor
  determinants, so they are slower than the Bareiss determinants these
  computations once used.  The ``hull`` rows time cold ``convex_hull`` per
  dimension against ``convex_hull_by_cofactors`` (a Bareiss determinant
  per cofactor, a separate rank test for the span and a second pass over
  the facets for the height ratio), with equal polytopes checked.  The
  same section times cold ``_circuits```
  (one integer kernel per column subset of size rank + 1) against
  ``circuits_by_all_subsets`` (one per subset of every size 2..d+2), with
  equal circuits checked.

    python benchmarks/bench_kernels.py [--repeat 5] [--only SECTION[,SECTION]]

--only runs the named sections (the functions in SECTIONS, such as
json_writer) and defaults to all of them.  The first column takes the
best of --repeat runs; the second runs once, since it is the slower side.
Each sumset row times the step to level N; the exact side first iterates
the levels below N untimed, which is most of the run (about two minutes
on a 2-core VM).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

from sumsetlab import (PointConfig, RegionSpec, SemigroupOracle, kernels, khovanskii,
                       normalize_config, reporting, structure)
from sumsetlab.circuits import _circuit_cache, _circuits
from sumsetlab.lattice import _extremal_cache, extremal_points
from sumsetlab.polytope import (_box_scan_exact, _hull_cache, _simplices,
                                _triangulation_cache, _volume_cache, convex_hull,
                                dilate_points, facet_height_ratio, volumes)
from sumsetlab.reporting import Caps, growth_report, render_int, to_json, to_text
from sumsetlab.structure import _vertex_sieves, structure_bounds
from sumsetlab.sumsets import (_frontier_key_box, _iterate_keys, _iterate_tuples,
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
        return khovanskii._minimal_obstructions_scan(cfg, None)
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
A_0_2_5_11_12 = [(0,), (2,), (5,), (11,), (12,)]
SIMPLEX3_DIAG = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
PRISM5 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]
ITERATION_CASES = [
    ("iterate 2d hexagon6, N=150", HEXAGON6, 150),
    ("iterate 3d simplex3_diag, N=60", SIMPLEX3_DIAG, 60),
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
        t_fr, r_fr = bench(_key_frontier_levels, (cfg, n_max), repeat)
        t_fu, r_fu = bench(_full_levels, (cfg, n_max), 1)
        assert len(r_fr) == len(r_fu) and all(
            np.array_equal(a, b) for a, b in zip(r_fr, r_fu)), name
        print(f"{name:38s} {t_fr * 1e3:8.2f}ms {t_fu * 1e3:8.2f}ms "
              f"{t_fu / t_fr:7.2f}x   ({sum(map(len, r_fr))} points)")


def _tolist_rows(report):
    """The growth report with every level decoded and turned into row lists."""
    return {**report, "growth": [{**row, "points": row["points"].rows().tolist()}
                                 for row in report["growth"]]}


def _dumps(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def json_writer(repeat):
    print(f"{'workload':38s} {'writer':>10s} {'dumps':>10s} {'ratio':>8s}")
    hexagon = PointConfig.from_points(HEXAGON6)
    report, _ = growth_report(hexagon, Caps(max_n=80), True)
    t_w, text = bench(to_json, (report,), repeat)
    t_l, listed = bench(_tolist_rows, (report,), repeat)
    t_d, ref = bench(_dumps, (listed,), 1)
    assert text == ref
    rows = sum(len(row["points"]) for row in listed["growth"])
    distinct = len({tuple(p) for row in listed["growth"] for p in row["points"]})
    print(f"{'to_json hexagon6 emit report, N=80':38s} {t_w * 1e3:8.2f}ms "
          f"{(t_l + t_d) * 1e3:8.2f}ms {(t_l + t_d) / t_w:7.2f}x   ({len(text)} bytes, "
          f"{rows} rows written, {distinct} distinct points rendered)")
    print(f"{'  decode + tolist() of its levels alone':38s} {'':10s} {t_l * 1e3:8.2f}ms")
    t_w, text = bench(to_text, (report,), repeat)
    t_d, ref = bench(to_text, (listed,), 1)
    assert text == ref
    print(f"{'to_text hexagon6 emit report, N=80':38s} {t_w * 1e3:8.2f}ms "
          f"{(t_l + t_d) * 1e3:8.2f}ms {(t_l + t_d) / t_w:7.2f}x   ({len(text)} bytes)")
    sizes, _ = growth_report(PointConfig.from_points(A_0_2_5_11_12), Caps(max_n=1000),
                             False)
    t_w, text = bench(to_json, (sizes,), repeat)
    t_d, ref = bench(_dumps, (sizes,), repeat)
    assert text == ref
    print(f"{'to_json {0,2,5,11,12} sizes, N=1000':38s} {t_w * 1e3:8.2f}ms "
          f"{t_d * 1e3:8.2f}ms {t_d / t_w:7.2f}x   ({len(text)} bytes)")
    # the whole emit request of the growth-scale benchmark workload
    t_w, text = bench(lambda: to_json(growth_report(hexagon, Caps(max_n=80), True)[0]),
                      (), repeat)
    t_d, ref = bench(lambda: _dumps(_tolist_rows(
        growth_report(hexagon, Caps(max_n=80), True)[0])), (), 1)
    assert text == ref
    print(f"{'build + to_json hexagon6 emit, N=80':38s} {t_w * 1e3:8.2f}ms "
          f"{t_d * 1e3:8.2f}ms {t_d / t_w:7.2f}x   ({len(text)} bytes)")
    # the row table alone; here the second column renders one % format per row
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from oracles import row_texts_by_format

    def by_format(levels, newline):
        column_wise = reporting._row_texts
        reporting._row_texts = row_texts_by_format
        try:
            return reporting._RowTable(levels, newline)
        finally:
            reporting._row_texts = column_wise

    levels = [row["points"] for row in report["growth"]]
    for layout, newline in (("json", "\n      "), ("text", None)):
        t_c, table = bench(reporting._RowTable, (levels, newline), repeat)
        t_r, ref = bench(by_format, (levels, newline), repeat)
        assert list(table.table) == list(ref.table)
        print(f"{'row table hexagon6 N=80, ' + layout + ' layout':38s} {t_c * 1e3:8.2f}ms "
              f"{t_r * 1e3:8.2f}ms {t_r / t_c:7.2f}x   (% per row in the second column)")


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


COLD_RUNS = 5
_COLD_SCAN = """
import time
from sumsetlab import PointConfig, khovanskii, normalize_config
cfg = normalize_config(PointConfig.from_points({points!r}))
t0 = time.perf_counter()
khovanskii._minimal_obstructions_scan(cfg, None)
print(time.perf_counter() - t0)
"""


def scan_cold(repeat):
    name, points = SCAN_CASES[1]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    cold = [float(subprocess.run([sys.executable, "-c", _COLD_SCAN.format(points=points)],
                                 env=env, check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(COLD_RUNS)]
    cfg = normalize_config(PointConfig.from_points(points))
    t_warm, _ = bench(_obstruction_scan, (cfg, khovanskii._WORD_LIMIT), repeat)
    t_cold = statistics.median(cold)
    print(f"{'workload':38s} {'cold':>10s} {'warm':>10s} {'ratio':>8s}")
    print(f"{name:38s} {t_cold * 1e3:8.2f}ms {t_warm * 1e3:8.2f}ms "
          f"{t_cold / t_warm:7.2f}x   (median of {COLD_RUNS} fresh processes, "
          f"best of {repeat} in this one)")


MEMBER_CASES = [
    ("sieve queries hexagon6", HEXAGON6),
    ("sieve queries prism5", PRISM5),
]


def _sieve_queries(points):
    """(query keys, sieve mask) for each level and hull vertex of the
    structure pass, over the whole dilate of each level."""
    cfg = normalize_config(PointConfig.from_points(points))
    bounds = structure_bounds(cfg)
    sieves, top = _vertex_sieves(cfg, min(bounds.bound_a, bounds.bound_b), 10 ** 7)
    queries = []
    for n in range(1, top + 1):
        x = dilate_points(cfg, n)
        for a, sieve in sieves:
            keys = kernels.pack_rows(np.asarray(a, dtype=np.int64) * n - x,
                                     sieve.lo, sieve.strides, np.int64)
            queries.append((keys, sieve.mask.ravel()))
    return queries


def gather_against_bisection(repeat):
    print(f"{'workload':38s} {'gather':>10s} {'bisect':>10s} {'ratio':>8s}")
    for name, points in MEMBER_CASES:
        queries = _sieve_queries(points)
        sorted_keys = [np.flatnonzero(mask) for _, mask in queries]
        t_ga, r_ga = bench(lambda: [mask[k] for k, mask in queries], (), repeat)
        t_bs, r_bs = bench(lambda: [kernels.sorted_member(k, s) for (k, _), s
                                    in zip(queries, sorted_keys)], (), repeat)
        assert all(np.array_equal(a, b) for a, b in zip(r_ga, r_bs)), name
        print(f"{name:38s} {t_ga * 1e3:8.2f}ms {t_bs * 1e3:8.2f}ms "
              f"{t_bs / t_ga:7.2f}x   ({len(queries)} queries, "
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
        return [khovanskii._minimal_obstructions_scan(cfg, None)
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


def coarse_rendering(repeat):
    shapes = []
    for d in range(3, 8):
        # {0, e_1..e_d, (1, ..., 1)}: d + 2 points of width 1
        pts = [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]
        cfg = normalize_config(PointConfig.from_points(pts + [(1,) * d]))
        shapes.append((d, khovanskii.khovanskii_bounds(cfg).coarse_power,
                       structure_bounds(cfg).coarse_power))
    print(f"{'workload':38s} {'pair':>10s} {'built':>10s} {'ratio':>8s}")
    for d, *pairs in shapes:
        t_pr, r_pr = bench(lambda: [render_int(*p) for p in pairs], (), repeat)
        t_bt, r_bt = bench(lambda: [render_int(b ** e) for b, e in pairs], (), 1)
        assert r_pr == r_bt, d
        print(f"{f'coarse bounds, d={d}':38s} {t_pr * 1e3:8.2f}ms "
              f"{t_bt * 1e3:8.2f}ms {t_bt / t_pr:7.2f}x   "
              f"({r_pr[-1]['digits']} digits)")


def _row_frontier_sizes(cfg, n_max):
    """|N*A| by the frontier iteration on point rows: each level steps the
    rows of its new points by the generators and packs the sums again."""
    lo, strides, _, _ = _frontier_key_box(cfg, n_max)
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


def _key_frontier_levels(cfg, n_max):
    """N*A as point arrays by the frontier iteration on sorted keys."""
    lo, strides, _, dtype = _frontier_key_box(cfg, n_max)
    return [kernels.decode_keys(keys, lo, strides)
            for keys in _iterate_keys(cfg, n_max, lo, strides, dtype, 10 ** 7)]


def _key_frontier_sizes(cfg, n_max):
    """|N*A| by the frontier iteration on sorted keys."""
    lo, strides, _, dtype = _frontier_key_box(cfg, n_max)
    return [len(keys) for keys in _iterate_keys(cfg, n_max, lo, strides, dtype, 10 ** 7)]


FRONTIER_CASES = [
    ("sizes 2d hexagon6, N=150", HEXAGON6, 150),
    ("sizes 1d {0,2,5,11,12}, N=1000", A_0_2_5_11_12, 1000),
]


def frontier_keys(repeat):
    print(f"{'workload':38s} {'keys':>10s} {'rows':>10s} {'ratio':>8s}")
    for name, points, n_max in FRONTIER_CASES:
        cfg = PointConfig.from_points(points)
        t_ky, r_ky = bench(_key_frontier_sizes, (cfg, n_max), repeat)
        t_rw, r_rw = bench(_row_frontier_sizes, (cfg, n_max), repeat)
        assert r_ky == r_rw, name
        print(f"{name:38s} {t_ky * 1e3:8.2f}ms {t_rw * 1e3:8.2f}ms "
              f"{t_rw / t_ky:7.2f}x   ({sum(r_ky)} points)")


def _bitset_cases():
    diag = normalize_config(PointConfig.from_points(SIMPLEX3_DIAG))
    walk = khovanskii.khovanskii_bounds(diag).sharp + diag.dim + 1
    return [
        ("sizes 2d hexagon6, N=150", PointConfig.from_points(HEXAGON6), 150),
        ("sizes 3d simplex3_diag, N=60", PointConfig.from_points(SIMPLEX3_DIAG), 60),
        ("sizes 1d {0,2,5,11,12}, N=1000", PointConfig.from_points(A_0_2_5_11_12), 1000),
        (f"interpolation simplex3_diag, N={walk}", diag, walk),
        ("sizes 1d {0,7,1000}, N=2000", PointConfig.from_points([(0,), (7,), (1000,)]),
         2000),
    ]


def bitset_levels(repeat):
    print(f"{'workload':38s} {'bits':>10s} {'keys':>10s} {'ratio':>8s}")
    for name, cfg, n_max in _bitset_cases():
        _, _, span, dtype = _frontier_key_box(cfg, n_max)
        assert dtype == np.int64 and span <= 10 ** 7, name  # the bitset route
        t_bt, r_bt = bench(lambda: [size for size, _ in sumset_levels(cfg, n_max)],
                           (), repeat)
        t_ky, r_ky = bench(_key_frontier_sizes, (cfg, n_max), 1)
        assert r_bt == r_ky, name
        print(f"{name:38s} {t_bt * 1e3:8.2f}ms {t_ky * 1e3:8.2f}ms "
              f"{t_ky / t_bt:7.2f}x   ({span} keys in the box)")


def _structure_windows():
    """(name, normalized set, its vertex sieves, top, [(n, level)]) for each
    structure window timed: the whole window of structure_threshold, or
    the walk to a fixed top."""
    cases = []
    for name, points, top in (("threshold hexagon6", HEXAGON6, None),
                              ("threshold prism5", PRISM5, None),
                              ("threshold simplex3_diag", SIMPLEX3_DIAG, None),
                              ("hexagon6, N=288", HEXAGON6, 288),
                              ("{0,7,1000}, N=999", [(0,), (7,), (1000,)], 999)):
        cfg = normalize_config(PointConfig.from_points(points))
        if top is None:
            bounds = structure_bounds(cfg)
            top = min(bounds.bound_a, bounds.bound_b)
        sieves, _ = _vertex_sieves(cfg, top, 10 ** 7)
        levels = [(n, level) for n, (_, level) in enumerate(sumset_levels(cfg, top), start=1)]
        cases.append((name, cfg, sieves, top, levels))
    return cases


def structure_check(repeat):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from oracles import check_block_by_rows

    def by_bits(cfg, sieves, top, levels):
        shape = structure._PredictedShape(cfg, sieves, top)
        return [shape.check(n, level) for n, level in levels]

    print(f"{'workload':38s} {'bits':>10s} {'rows':>10s} {'ratio':>8s}")
    for name, cfg, sieves, top, levels in _structure_windows():
        t_bt, r_bt = bench(by_bits, (cfg, sieves, top, levels), repeat)
        t_rw, r_rw = bench(check_block_by_rows, (cfg, sieves, levels), 1)
        assert r_bt == r_rw, name
        failing = sum(not report.holds for report in r_bt)
        print(f"{'structure ' + name:38s} {t_bt * 1e3:8.2f}ms {t_rw * 1e3:8.2f}ms "
              f"{t_rw / t_bt:7.2f}x   ({len(levels)} levels, {failing} failing)")


def _triangulation_sets():
    """(name, normalized sets) for the triangulation section: 100 sets drawn
    in the shapes of the geometry-batch workload (d = 1..4, d + 1 or d + 2
    points in [0, top]^d, top = 10, 3, 2, 1), and the 3-D corpus sets."""
    from corpus import CORPUS

    rng = random.Random("triangulation")
    drawn = []
    for _ in range(100):
        d = rng.choice((1, 2, 3, 4))
        size = rng.randint(d + 1, d + 2)
        pts = set()
        while len(pts) < size:
            pts.add(tuple(rng.randint(0, (10, 3, 2, 1)[d - 1]) for _ in range(d)))
        drawn.append(sorted(pts))
    corpus3 = [pts for _, pts in CORPUS if len(pts[0]) == 3]
    return [(f"geometry-batch shapes, {len(drawn)} sets", drawn),
            (f"3-D corpus, {len(corpus3)} sets", corpus3)]


def triangulation(repeat):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from oracles import triangulate_by_facet_hulls

    def cold(triangulate, cfgs):
        for cache in (_hull_cache, _triangulation_cache, _extremal_cache):
            cache.clear()
        return [triangulate(cfg) for cfg in cfgs]

    def by_faces(cfg):
        return _simplices(cfg, (0,) * cfg.dim)

    def by_facet_hulls(cfg):
        return tuple(triangulate_by_facet_hulls(cfg.points, cfg.dim, (0,) * cfg.dim))

    print(f"{'workload':38s} {'faces':>10s} {'hulls':>10s} {'ratio':>8s}")
    for name, sets in _triangulation_sets():
        cfgs = [cfg for cfg in (normalize_config(PointConfig.from_points(pts))
                                for pts in sets) if cfg.dim]
        t_fc, r_fc = bench(cold, (by_faces, cfgs), repeat)
        t_fh, r_fh = bench(cold, (by_facet_hulls, cfgs), repeat)
        assert r_fc == r_fh, name
        print(f"{'triangulation ' + name:38s} {t_fc * 1e3:8.2f}ms {t_fh * 1e3:8.2f}ms "
              f"{t_fh / t_fc:7.2f}x   ({sum(map(len, r_fc))} simplices)")


def geometry(repeat):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from oracles import (circuits_by_all_subsets, convex_hull_by_cofactors,
                         facet_height_ratio_by_determinants, subset_det_range,
                         vertices_by_normal_rank)

    def cold(measure, cfgs):
        for cache in (_hull_cache, _volume_cache, _triangulation_cache, _extremal_cache,
                      _circuit_cache):
            cache.clear()
        return [measure(cfg) for cfg in cfgs]

    def hull_scan(cfg):
        poly = convex_hull(cfg)
        return list(poly.extremal), poly.det_max, poly.det_min

    def hull_by_references(cfg):
        return vertices_by_normal_rank(cfg), *subset_det_range(cfg.points, cfg.dim)

    def bounds_scan(cfg):
        v = volumes(cfg)
        return v.det_max, v.det_min, v.width, facet_height_ratio(cfg)

    def bounds_by_references(cfg):
        width = max(max(abs(a - b) for a, b in zip(p, q))
                    for p in cfg.points for q in cfg.points)
        return (*subset_det_range(cfg.points, cfg.dim), width,
                facet_height_ratio_by_determinants(cfg))

    cfgs = [cfg for cfg in (normalize_config(PointConfig.from_points(pts))
                            for pts in _triangulation_sets()[0][1]) if cfg.dim]
    print(f"{'workload':38s} {'scan':>10s} {'refs':>10s} {'ratio':>8s}")
    for label, scan, reference in (("convex_hull", hull_scan, hull_by_references),
                                   ("volumes + kappa", bounds_scan, bounds_by_references),
                                   ("circuits", _circuits, circuits_by_all_subsets)):
        t_sc, r_sc = bench(cold, (scan, cfgs), repeat)
        t_rf, r_rf = bench(cold, (reference, cfgs), repeat)
        assert r_sc == r_rf, label
        print(f"{label + f', {len(cfgs)} shapes':38s} {t_sc * 1e3:8.2f}ms "
              f"{t_rf * 1e3:8.2f}ms {t_rf / t_sc:7.2f}x")
    for d in sorted({cfg.dim for cfg in cfgs}):
        of_dim = [cfg for cfg in cfgs if cfg.dim == d]
        t_sc, r_sc = bench(cold, (convex_hull, of_dim), repeat)
        t_rf, r_rf = bench(cold, (convex_hull_by_cofactors, of_dim), repeat)
        assert r_sc == r_rf, f"hull d = {d}"
        print(f"{f'hull d = {d}, {len(of_dim)} shapes':38s} {t_sc * 1e3:8.2f}ms "
              f"{t_rf * 1e3:8.2f}ms {t_rf / t_sc:7.2f}x")


SECTIONS = (numpy_against_exact, frontier_against_full, json_writer, scan_word_split,
            scan_cold, gather_against_bisection, vertices_against_lp,
            membership_against_dfs, obstruction_certificate, frontier_keys, bitset_levels,
            numerator_against_subsets, coarse_rendering, structure_check, triangulation,
            geometry)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--only", default=None, metavar="SECTION[,SECTION]",
                        help="comma-separated sections to run (default: all)")
    args = parser.parse_args()
    by_name = {section.__name__: section for section in SECTIONS}
    names = list(by_name) if args.only is None else args.only.split(",")
    unknown = [name for name in names if name not in by_name]
    if unknown:
        parser.error(f"unknown section {', '.join(unknown)}; "
                     f"choose from {', '.join(by_name)}")
    for i, name in enumerate(names):
        if i:
            print()
        by_name[name](args.repeat)


if __name__ == "__main__":
    main()
