"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any violation fails the corresponding test with full detail.
"""

import math
import random
import time
from fractions import Fraction

from sumsetlab import (
    PointConfig,
    circuits,
    conformal_decompose,
    count_dilate_points,
    facet_height_ratio,
    find_reduction,
    kernel_lattice,
    khovanskii_bounds,
    khovanskii_polynomial,
    khovanskii_threshold,
    minimal_obstructions,
    normalize_config,
    regular_decompose,
    structure_bounds,
    structure_threshold,
    verify_extremal_decomposition,
    verify_structure_equation,
    volumes,
)
from sumsetlab import RegionSpec
from sumsetlab.circuits import negative_part, positive_part, support
from sumsetlab.lattice import lattice_rank
from sumsetlab.polytope import convex_hull
from sumsetlab.sumsets import iter_sumsets

from corpus import random_configs


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_golden_interval(capsys):
    """P = 5*X - 5 and exact onset 3 for {0,3,5}, in under a second."""
    from sumsetlab.khovanskii import _obstruction_cache
    from sumsetlab.polytope import _hull_cache, _triangulation_cache, _volume_cache
    cfg = PointConfig.from_points([(0,), (3,), (5,)])
    # warm the jitted kernels, then time a cold analysis of this set
    count_dilate_points(cfg, 2)
    for cache in (_obstruction_cache, _hull_cache, _volume_cache,
                  _triangulation_cache):
        cache.clear()
    start = time.perf_counter()
    norm = normalize_config(cfg)
    poly = khovanskii_polynomial(norm)
    result = khovanskii_threshold(norm)
    elapsed = time.perf_counter() - start
    assert str(poly) == "5*X - 5"
    assert result.value == 3 and result.status == "exact"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    with capsys.disabled():
        _report(1, f"{{0,3,5}}: polynomial 5*X - 5, exact onset 3 "
                   f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_threshold_bound(corpus, capsys):
    """Exact or windowed onset threshold stays under |A|^2 det_max - |A| + 1."""
    violations = []
    for name, _, norm in corpus:
        result = khovanskii_threshold(norm)
        bound = khovanskii_bounds(norm).sharp
        if result.value > bound:
            violations.append((name, result.value, bound))
    assert not violations, violations
    with capsys.disabled():
        _report(2, f"onset threshold under the sharp bound on all "
                   f"{len(corpus)} corpus sets (0 violations)")


def test_criterion_3_size_formula(corpus, capsys):
    """The size formula equals brute-force |hA| up to bound+5."""
    from sumsetlab import sumset_size_formula
    checked_sets = 0
    checked_values = 0
    for name, _, norm in corpus:
        obs = minimal_obstructions(norm)
        if not obs.exact:
            continue
        top = khovanskii_bounds(norm).sharp + 5
        for h, pts in enumerate(iter_sumsets(norm, top), start=1):
            formula = sumset_size_formula(norm, obs, h)
            assert formula == len(pts), (name, h, formula, len(pts))
            checked_values += 1
        checked_sets += 1
    assert checked_sets >= 20, "too few corpus sets had an exact scan"
    with capsys.disabled():
        _report(3, f"size formula exact on {checked_sets} sets, "
                   f"{checked_values} (set, h) pairs")


def test_criterion_4_circuit_invariants(corpus, capsys):
    """Circuit heights under det_max; minimal elements under |A| * det_max."""
    configs = [norm for _, _, norm in corpus]
    configs += [normalize_config(PointConfig.from_points(pts))
                for pts in random_configs(200)]
    circuit_count = 0
    element_count = 0
    for norm in configs:
        if norm.dim == 0:
            continue
        det_max = volumes(norm).det_max
        for u in circuits(norm):
            assert max(abs(v) for v in u) <= det_max, (norm.points, u)
            circuit_count += 1
        obs = minimal_obstructions(norm, max_weight=10,
                                   candidate_budget=100_000)
        for m in obs.elements:
            assert max(m) <= norm.size * det_max, (norm.points, m)
            element_count += 1
    with capsys.disabled():
        _report(4, f"{circuit_count} circuits and {element_count} minimal "
                   f"elements within their bounds over {len(configs)} sets")


def test_criterion_5_conformal_decomposition(corpus, capsys):
    """100 random kernel vectors per set decompose conformally and exactly."""
    rng = random.Random(5150)
    total = 0
    for name, _, norm in corpus:
        basis = kernel_lattice(norm)
        if not basis:
            continue
        produced = 0
        while produced < 100:
            coeffs = [rng.randint(-4, 4) for _ in basis]
            vec = [0] * norm.size
            for c, b in zip(coeffs, basis):
                vec = [x + c * y for x, y in zip(vec, b)]
            if not any(vec):
                continue
            produced += 1
            terms = conformal_decompose(norm, tuple(vec))
            assert len(terms) <= len(support(vec)), (name, vec)
            resum = [Fraction(0)] * norm.size
            for lam, u in terms:
                assert lam > 0, (name, vec)
                assert set(support(positive_part(u))) <= set(
                    support(positive_part(vec))), (name, vec, u)
                assert set(support(negative_part(u))) <= set(
                    support(negative_part(vec))), (name, vec, u)
                for i, val in enumerate(u):
                    resum[i] += lam * val
            assert resum == [Fraction(v) for v in vec], (name, vec)
        total += produced
    assert total >= 100
    with capsys.disabled():
        _report(5, f"{total} random kernel vectors decomposed conformally")


def test_criterion_6_structure_inclusion(corpus, capsys):
    """NA never contains points outside its predicted shape, N <= 30."""
    checked = 0
    for name, _, norm in corpus:
        if norm.dim == 0:
            continue
        for n, pts in enumerate(iter_sumsets(norm, 30), start=1):
            report = verify_structure_equation(norm, n, _sumset_points=pts)
            assert report.extra == (), (name, n, report.extra[:3])
            checked += 1
    with capsys.disabled():
        _report(6, f"no extra points in {checked} (set, N) structure checks")


def test_criterion_7_structure_threshold(corpus, capsys):
    """The structure equation holds through its proven bound on every set."""
    exact_sets = 0
    for name, _, norm in corpus:
        if norm.dim == 0:
            continue
        result = structure_threshold(norm)
        assert result.status == "exact", (name, result)
        assert all(n < result.value for n in result.failing_levels), \
            (name, result)
        exact_sets += 1
        if name == "a_0_3_5":
            assert result.value == 1 and result.bound == 25, result
        if name == "unit_square":
            assert result.value == 1 and result.bound == 3, result
    with capsys.disabled():
        _report(7, f"structure equation verified through its bound on "
                   f"{exact_sets} sets; {{0,3,5}}: onset 1 / bound 25, "
                   f"square: onset 1 / bound 3")


def test_criterion_8_simplex_collapse(corpus, capsys):
    """For vertex simplices the vertex-volume bound is (d+1)! Vol exactly."""
    hits = 0
    for name, _, norm in corpus:
        d = norm.dim
        if d == 0:
            continue
        ext = norm.extremal()
        if len(ext) != d + 1 or facet_height_ratio(norm) != 1:
            continue
        expected = (d + 1) * math.factorial(d) * volumes(norm).volume
        assert Fraction(expected).denominator == 1, name
        assert structure_bounds(norm).bound_a == int(expected), name
        hits += 1
    assert hits >= 4, "corpus lacks simplex sets"
    with capsys.disabled():
        _report(8, f"vertex-volume bound collapses to (d+1)!*Vol on "
                   f"{hits} simplex sets")


def test_criterion_9_identity_suites(corpus, capsys):
    """Weight-reduction exchanges, facet decompositions, functional bounds,
    triangulation additivity, and the extremal decomposition all hold
    exactly across the corpus."""
    from itertools import combinations
    from sumsetlab.lattice import determinant
    counts = {"reduction": 0, "regular": 0, "beta": 0, "volume": 0, "decomp": 0}
    for name, _, norm in corpus:
        d = norm.dim
        if d == 0:
            continue
        det_max = volumes(norm).det_max
        poly = convex_hull(norm)
        kappa = facet_height_ratio(norm)
        # weight-reduction exchange on independent subsets off the outer facets
        outer_sets = [set(norm.points[i] for i in f.incident)
                      for f in poly.outer_facets]
        nonzero = [p for p in norm.points if any(p)]
        tried = 0
        for size in range(1, d + 1):
            for sub in combinations(nonzero, size):
                if lattice_rank(sub) != len(sub):
                    continue
                if any(set(sub) <= s for s in outer_sets):
                    continue
                lam, rho = find_reduction(norm, sub)
                assert norm.combine([lam.get(p, 0) for p in norm.points]) == \
                    norm.combine([rho.get(p, 0) for p in norm.points]), (name, sub)
                assert sum(lam.values()) > sum(rho.values()), (name, sub)
                assert all(0 <= v <= det_max
                           for v in list(lam.values()) + list(rho.values()))
                tried += 1
                counts["reduction"] += 1
                if tried >= 8:
                    break
            if tried >= 8:
                break
        # facet decomposition of semigroup points
        sample = None
        for sample in iter_sumsets(norm, 3):
            pass
        for v in sample[:10]:
            u_rep, w_rep, fid = regular_decompose(norm, v)
            total = [0] * d
            for a, c in list(u_rep.items()) + list(w_rep.items()):
                for k in range(d):
                    total[k] += c * a[k]
            assert tuple(total) == v, (name, v)
            assert all(c <= det_max - 1 for c in u_rep.values()), (name, v)
            if w_rep and fid is not None:
                incident = {norm.points[i] for i in poly.facets[fid].incident}
                assert set(w_rep) <= incident, (name, v)
            counts["regular"] += 1
        # outer functionals never drop below 1 - kappa on the points
        for f in poly.outer_facets:
            for p in norm.points:
                assert f.beta_value(p) >= 1 - kappa, (name, p)
                counts["beta"] += 1
        # triangulation volumes add up
        from sumsetlab import triangulate_from_origin
        total_vol = Fraction(0)
        for simplex in triangulate_from_origin(norm).simplices:
            total_vol += Fraction(abs(determinant([list(p) for p in simplex])),
                                  math.factorial(d))
        assert total_vol == volumes(norm).volume, name
        counts["volume"] += 1
        # extremal decomposition inside a 12-wide box
        lo = min(0, min(c for p in norm.points for c in p))
        region = RegionSpec.box([(lo, lo + 12)] * d)
        ok, witnesses = verify_extremal_decomposition(norm, region)
        assert ok, (name, witnesses[:3])
        counts["decomp"] += 1
    with capsys.disabled():
        _report(9, "identity suites clean: "
                   f"{counts['reduction']} reductions, "
                   f"{counts['regular']} facet decompositions, "
                   f"{counts['beta']} functional bounds, "
                   f"{counts['volume']} triangulations, "
                   f"{counts['decomp']} extremal decompositions")


def test_criterion_10_geometry_identities(corpus, capsys):
    """Height-ratio and determinant inequalities; triangle ratio is exactly 3."""
    for name, _, norm in corpus:
        d = norm.dim
        if d == 0:
            continue
        v = volumes(norm)
        kappa = facet_height_ratio(norm)
        assert kappa <= Fraction(v.det_max, v.det_min), name
        assert v.det_max <= math.factorial(d) * v.volume, name
        assert v.det_max ** 2 <= d ** d * v.width ** (2 * d), name
    triangle = PointConfig.from_points([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert facet_height_ratio(triangle) == 3
    with capsys.disabled():
        _report(10, f"geometry identities hold on {len(corpus)} sets; "
                    f"triangle height ratio is exactly 3")
