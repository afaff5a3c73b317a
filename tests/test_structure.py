import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sumsetlab import (
    BudgetExceededError,
    InternalInvariantError,
    PointConfig,
    PreconditionError,
    RegionSpec,
    count_dilate_points,
    facet_height_ratio,
    normalize_config,
    structure_bounds,
    structure_rhs,
    structure_threshold,
    verify_extremal_decomposition,
    verify_structure_equation,
    volumes,
)
from sumsetlab import kernels, polytope, reporting, structure
from sumsetlab.cli import main
from sumsetlab.polytope import (
    cone_constraints,
    cone_functional,
    convex_hull,
    dilate_box_cells,
    dilate_points,
    scan_box,
)
from sumsetlab.structure import (
    StructureThresholdResult,
    reflected_config,
    structure_levels,
)
from sumsetlab.sumsets import semigroup_sieve, sumset_levels

from corpus import CORPUS, random_configs
from oracles import DfsSemigroupOracle, check_block_by_rows

A135 = PointConfig.from_points([(0,), (3,), (5,)])
SQUARE = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
SIMPLEX = PointConfig.from_points([(0, 0), (1, 0), (0, 1)])
TRIANGLE = PointConfig.from_points([(0, 0), (3, 0), (0, 3), (1, 1)])
AB = PointConfig.from_points([(0,), (1,)])


@pytest.fixture
def decoded(monkeypatch):
    """The row count of every kernels.decode_keys call, in order."""
    log = []
    decode = kernels.decode_keys

    def recorded(keys, lo, strides):
        log.append(len(keys))
        return decode(keys, lo, strides)

    monkeypatch.setattr(kernels, "decode_keys", recorded)
    return log


def _recorded(log, fn):
    """fn, logging each result."""
    def recorded(*args):
        log.append(fn(*args))
        return log[-1]

    return recorded


def _edited(level, add=(), drop=()):
    """A sumset level as sumset_levels hands it out (a callable for its
    packed keys), with the keys of the points ``add`` put in and those of
    ``drop`` taken out, in the walk's key box."""
    packed = level()
    lo, strides, _ = packed.box

    def keys(points):
        rows = np.array(points, dtype=object).reshape(len(points), len(lo))
        return kernels.pack_rows(rows, lo, strides, packed.keys.dtype)

    kept = packed.keys[~np.isin(packed.keys, keys(drop))]
    edited = kernels.PackedPoints(np.sort(np.concatenate([kept, keys(add)])), *packed.box)
    return lambda: edited


class TestStructureRhs:
    def test_interval_level_three(self):
        got = structure_rhs(A135, 3)
        assert [p[0] for p in got] == [0, 3, 5, 6, 8, 9, 10, 11, 13, 15]

    def test_square_keeps_grid(self):
        assert len(structure_rhs(SQUARE, 2)) == 9

    def test_two_points(self):
        assert [p[0] for p in structure_rhs(AB, 5)] == list(range(6))

    def test_requires_normalized(self):
        shifted = PointConfig.from_points([(1,), (4,), (6,)])
        with pytest.raises(PreconditionError):
            structure_rhs(shifted, 2)

    def test_cardinality_below_dilate_count(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            for n in (1, 2, 3):
                rhs = structure_rhs(norm, n)
                assert len(rhs) <= count_dilate_points(norm, n), (name, n)


class TestVerifyEquation:
    def test_interval_small_levels(self):
        for n in (1, 2):
            report = verify_structure_equation(A135, n)
            assert report.holds and not report.extra

    def test_square_level_one(self):
        report = verify_structure_equation(SQUARE, 1)
        assert report.holds

    def test_interval_missing_before_threshold(self):
        # nothing is missing for {0,3,5} even at N=1
        report = verify_structure_equation(A135, 1)
        assert report.missing == ()

    def test_inclusion_never_has_extra(self, corpus):
        for name, _, norm in corpus:
            for n in range(1, 7):
                report = verify_structure_equation(norm, n)
                assert report.extra == (), (name, n)

    def test_extra_and_missing_points_reported(self):
        # at N=1 the predicted shape of {0,3,5} is {0,3,5} itself
        (_, level), = sumset_levels(A135, 1)
        forged = _edited(level, add=[(1,)], drop=[(5,)])
        shape = structure._PredictedShape(A135, structure._sieves_through(A135, 1, 10 ** 7), 1)
        report = shape.check(1, forged)
        assert report.extra == ((1,),) and report.missing == ((5,),)
        assert not report.holds

    def test_only_the_last_level_is_unpacked(self, corpus, unpacked):
        # the walks run 60 and 6 levels; the structure check compares the
        # last one as a bit set, and the decomposition unpacks its last one
        norm = next(n for key, _, n in corpus if key == "hexagon6")
        sizes = [size for size, _ in sumset_levels(norm, 60)]
        assert verify_structure_equation(norm, 60).holds
        assert unpacked == []
        verify_extremal_decomposition(norm, RegionSpec.box([(0, 8)] * 2))
        assert unpacked == [sizes[5]]

    def test_sieves_fail_before_the_walk(self):
        # under a cap of 20 the sieves for level 5 do not fit, and the walk
        # would stop at 4A (25 points): the sieves are built first
        with pytest.raises(BudgetExceededError) as err:
            verify_structure_equation(SQUARE, 5, cap_points=20)
        assert str(err.value) == "the vertex sieves for level 5 exceed the 20 point cap"


class TestBounds:
    def test_interval(self):
        b = structure_bounds(A135)
        assert b.bound_a == 25 and b.bound_b == 25
        assert b.clean == 50
        assert b.coarse == 15 ** 13

    def test_square(self):
        b = structure_bounds(SQUARE)
        assert b.bound_a == 9 and b.bound_b == 3

    def test_triangle_raw_coordinates(self):
        b = structure_bounds(TRIANGLE)
        assert b.bound_a == 81 and b.bound_b == 81 and b.clean == 243

    def test_all_at_least_one(self, corpus):
        for name, raw, norm in corpus:
            if norm.dim == 0:
                continue
            b = structure_bounds(norm)
            assert min(b.bound_a, b.bound_b, b.clean, b.coarse) >= 1, name

    def test_threshold_leaves_coarse_unbuilt(self, monkeypatch):
        # the 4-D coarse bound (4 * 5 * 1) ** 53248 has 69,278 digits
        cfg = PointConfig.from_points(
            [(0,) * 4] + [tuple(int(i == j) for j in range(4)) for i in range(4)])
        made = []

        def recorded(config):
            made.append(structure_bounds(config))
            return made[-1]

        monkeypatch.setattr(structure, "structure_bounds", recorded)
        assert structure.structure_threshold(cfg).status == "exact"
        assert made and all("coarse" not in vars(b) for b in made)
        assert made[0].coarse_power == (20, 53248)
        assert made[0].coarse == 20 ** 53248 and "coarse" in vars(made[0])

    def test_analyze_builds_the_bounds_once(self, monkeypatch, tmp_path, capsys):
        # the report and structure_threshold both ask for the bounds
        path = tmp_path / "pentagon.txt"
        path.write_text("0 0\n1 0\n0 1\n1 1\n2 1\n")
        asked, built = [], []
        ratio = structure.facet_height_ratio

        def counted(config):
            built.append(config.points)
            return ratio(config)

        monkeypatch.setattr(structure, "facet_height_ratio", counted)
        monkeypatch.setattr(structure, "structure_bounds", _recorded(asked, structure_bounds))
        monkeypatch.setattr(reporting, "structure_bounds", _recorded(asked, structure_bounds))
        structure._bounds_cache.clear()
        assert main(["analyze", "--input", str(path)]) == 0
        capsys.readouterr()
        assert len(asked) == 2 and asked[0] is asked[1]
        assert len(built) == 1

    def test_simplex_collapse(self, corpus):
        # when the point set is exactly the d+1 vertices of a simplex, the
        # vertex-volume bound collapses to (d+1)! * Vol
        for name, _, norm in corpus:
            d = norm.dim
            if d == 0:
                continue
            ext = norm.extremal()
            if len(ext) != d + 1 or facet_height_ratio(norm) != 1:
                continue
            b = structure_bounds(norm)
            expected = (d + 1) * math.factorial(d) * volumes(norm).volume
            assert Fraction(expected).denominator == 1, name
            assert b.bound_a == int(expected), name


class TestThreshold:
    def test_interval_exact_one(self):
        result = structure_threshold(A135)
        assert isinstance(result, StructureThresholdResult)
        assert result.value == 1 and result.status == "exact"
        assert result.bound == 25 and result.window_top == 25
        assert result.failing_levels == ()

    def test_square_exact_one(self):
        result = structure_threshold(SQUARE)
        assert result.value == 1 and result.status == "exact"
        assert result.bound == 3

    def test_simplex(self):
        result = structure_threshold(SIMPLEX)
        assert result.value == 1 and result.status == "exact"

    def test_no_sieve_for_level_one_names_the_cap(self):
        with pytest.raises(BudgetExceededError) as err:
            structure_threshold(A135, cap_points=0)
        assert str(err.value) == "the vertex sieves for level 1 exceed the 0 point cap"
        assert err.value.reached == 0

    def test_budget_degrades_to_empirical(self):
        cfg = PointConfig.from_points([(0,), (7,), (11,)])
        result = structure_threshold(cfg, max_n=5)
        assert result.status == "empirical"
        assert result.window_top <= 5

    def test_budget_cut_level_is_not_unpacked(self, monkeypatch, corpus, unpacked):
        # the level the budget turns away is drawn from the walk, never read;
        # the levels read are bit sets, and none is unpacked
        norm = next(n for key, _, n in corpus if key == "hexagon6")
        monkeypatch.setattr(structure, "TEST_BUDGET", 2000)
        read = []
        monkeypatch.setattr(structure, "level_bits", _recorded(read, structure.level_bits))
        result = structure_threshold(norm)
        assert result.status == "empirical" and result.window_top > 1
        assert [value.bit_count() for value in read] == [
            size for size, _ in sumset_levels(norm, result.window_top)]
        assert unpacked == []

    def test_window_is_suffix_closed(self, monkeypatch, corpus):
        # once equality holds it keeps holding through the checked window
        monkeypatch.setattr(structure, "TEST_BUDGET", 10 ** 6)
        for name, _, norm in corpus:
            result = structure_threshold(norm, max_n=12)
            assert all(n < result.value for n in result.failing_levels), name


class TestExtremalDecomposition:
    def test_triangle_box(self):
        ok, witnesses = verify_extremal_decomposition(
            TRIANGLE, RegionSpec.box([(0, 12), (0, 12)]))
        assert ok and witnesses == []

    def test_interval_long_box(self):
        ok, _ = verify_extremal_decomposition(A135, RegionSpec.box([(0, 40)]))
        assert ok

    def test_simplex(self):
        ok, _ = verify_extremal_decomposition(
            SIMPLEX, RegionSpec.box([(0, 9), (0, 9)]))
        assert ok

    def test_shifted_rows_charged_to_the_cap(self):
        # 169 region points fit a cap of 200; shifted by all of 9A they do not
        with pytest.raises(BudgetExceededError):
            verify_extremal_decomposition(
                TRIANGLE, RegionSpec.box([(0, 12), (0, 12)]), cap_points=200)



def _rhs_by_oracle(config, n):
    """structure_rhs point by point with the DFS oracle (the reference)."""
    oracles = [(a, DfsSemigroupOracle(reflected_config(config, a)))
               for a in config.extremal()]
    return [x for x in kernels.array_to_points(dilate_points(config, n))
            if all(oracle.contains(tuple(v * n - c for v, c in zip(a, x)))
                   for a, oracle in oracles)]


def _cone_points(config, limit):
    """Lattice points of the cone of config with ell <= limit, and ell."""
    poly = convex_hull(config)
    ell = cone_functional(poly, (0,) * config.dim)
    normals = [list(v) for v in cone_constraints(poly)]
    # ell >= 1 on every generator, so |y_k| <= limit * max |g_k|
    hi = [limit * max(abs(c) for c in col) for col in zip(*config.points)]
    pts = scan_box([-h for h in hi], hi, normals + [list(ell)],
                   [0] * len(normals) + [limit], True)
    return pts, ell


def _region_cells(sieve):
    """Every cell of the sieve's box with ell <= limit: the region on which
    its mask is exact."""
    ranges = [range(a, a + m) for a, m in zip(sieve.lo, sieve.mask.shape)]
    box = np.array(list(product(*ranges)), dtype=np.int64).reshape(-1, len(ranges))
    return box[box @ np.asarray(sieve.ell, dtype=np.int64) <= sieve.limit]


class TestSieveParity:
    def test_sieve_matches_oracle_on_cone_points(self, corpus):
        # every cell of the region, in the cone of a - A or not
        checked = 0
        for name, _, norm in corpus:
            for a in norm.extremal():
                cfg = reflected_config(norm, a)
                ell = cone_functional(convex_hull(cfg), (0,) * norm.dim)
                limit = 3 * max(sum(e * x for e, x in zip(ell, p))
                                for p in cfg.points)
                sieve = semigroup_sieve(cfg, ell, limit)
                cells = _region_cells(sieve)
                oracle = DfsSemigroupOracle(cfg)
                want = [oracle.contains(p) for p in kernels.array_to_points(cells)]
                assert sieve.members(cells).tolist() == want, (name, a)
                checked += sum(want)
        assert checked > 1000

    def test_rhs_matches_oracle_reference(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            for n in (1, 2, 3):
                assert structure_rhs(norm, n) == _rhs_by_oracle(norm, n), (name, n)

    def test_budget_keeps_complete_levels(self):
        cfg = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1)])
        cone, ell = _cone_points(cfg, 40)
        full = semigroup_sieve(cfg, ell, 40)
        with pytest.raises(BudgetExceededError) as err:
            semigroup_sieve(cfg, ell, 40, cap_points=100)
        part = err.value.partial
        assert err.value.reached == part.limit < 40
        assert part.mask.size <= 100
        # below its limit the partial sieve is exactly the full one
        low = cone[cone @ np.asarray(ell) <= part.limit]
        assert part.members(low).tolist() == full.members(low).tolist()

    def test_functional_must_be_positive(self):
        with pytest.raises(PreconditionError):
            semigroup_sieve(SQUARE, (1, 0), 4)


class TestPinnedThresholds:
    """Values of the per-point DFS structure pass, kept by the sieve."""

    @pytest.mark.parametrize("name,value,top,failing", [
        ("hexagon6", 2, 54, (1,)),
        ("a_0_1_12", 1, 288, ()),
        ("a_0_2_5_11_12", 6, 288, (1, 2, 3, 4, 5)),
    ])
    def test_pinned(self, corpus, name, value, top, failing):
        norm = next(n for key, _, n in corpus if key == name)
        assert structure_threshold(norm) == StructureThresholdResult(
            value=value, status="exact", window_top=top, bound=top,
            failing_levels=failing)

    def test_sieve_budget_shortens_window(self, corpus):
        # here the vertex sieves, not the dilate scans, exhaust the cap
        norm = next(n for key, _, n in corpus if key == "hexagon6")
        result = structure_threshold(norm, cap_points=5000)
        dilate_top = max(n for n in range(1, 55) if (2 * n + 1) ** 2 <= 5000)
        assert result.status == "empirical"
        assert 1 < result.window_top < dilate_top
        assert result.value == 2 and result.failing_levels == (1,)


class TestDilateBoxInsideSieves:
    """The window needs no per-level dilate-box cap: reflected at a vertex
    a, the box of n*H is the box of n*(a - A), which lies inside the box of
    a's sieve for every level n the sieves cover, and that box fits the cap."""

    def test_corpus_under_small_caps(self, corpus):
        for name, _, norm in corpus:
            bounds = structure_bounds(norm)
            for cap in range(20, 1201, 20):
                sieves, top = structure._vertex_sieves(
                    norm, min(bounds.bound_a, bounds.bound_b), cap)
                for n in range(1, top + 1):
                    lo, hi = polytope._dilate_box(norm, n)
                    assert dilate_box_cells(norm, n) <= cap, (name, cap, n)
                    for a, sieve in sieves:
                        top_corner = [b + m - 1 for b, m in zip(sieve.lo, sieve.mask.shape)]
                        for k in range(norm.dim):
                            assert sieve.lo[k] <= a[k] * n - hi[k], (name, cap, n, a)
                            assert a[k] * n - lo[k] <= top_corner[k], (name, cap, n, a)


class TestBlockedWindow:
    """The window's levels are a block that shares one predicted shape,
    built for its top; each level is checked as bit sets
    (_PredictedShape.check)."""

    def test_levels_match_single_level_checks(self, corpus):
        for name, _, norm in corpus:
            want = [verify_structure_equation(norm, n) for n in range(1, 13)]
            assert structure_levels(norm, 12) == want, name

    def test_block_reports_each_level(self, decoded, unpacked):
        # {0,3,5}: (1,) is off the shape of 2A; (15,) is the top of 3A
        levels = [level for _, level in sumset_levels(A135, 3)]
        forged = [levels[0], _edited(levels[1], add=[(1,)]),
                  _edited(levels[2], drop=[(15,)])]
        unpacked.clear()  # the forged levels were unpacked to be edited
        shape = structure._PredictedShape(A135, structure._sieves_through(A135, 3, 10 ** 7), 3)
        reports = [shape.check(n, level) for n, level in enumerate(forged, start=1)]
        assert [r.extra for r in reports] == [(), ((1,),), ()]
        assert [r.missing for r in reports] == [(), (), ((15,),)]
        assert [r.holds for r in reports] == [True, False, False]
        # the walk's level 1 is read as its bit set; only the one extra and
        # the one missing key are decoded
        assert unpacked == [] and decoded == [1, 1]

    @pytest.mark.parametrize("name", ["hexagon6", "prism5"])
    def test_levels_are_not_decoded(self, corpus, decoded, unpacked, name):
        # the levels are compared as bit sets; only their differences from
        # the predicted shape are decoded
        norm = next(n for key, _, n in corpus if key == name)
        reports = structure_levels(norm, 30)
        structure_threshold(norm)
        assert unpacked == []
        # structure_levels and structure_threshold each decode hexagon6's
        # missing points at level 1; prism5 holds at every level
        assert sum(decoded) == 2 * sum(len(r.missing) + len(r.extra) for r in reports)
        assert (sum(decoded) > 0) == (name == "hexagon6")

    @pytest.mark.parametrize("name", ["a_0_2_5_11_12", "hexagon6", "prism5"])
    def test_block_size_does_not_change_the_threshold(self, corpus, monkeypatch, name):
        # a shape built for each level alone (a block of one level, every
        # shift 0), its points keyed in the window's box, gives the
        # threshold and reports of the one shape shifted down to each level
        norm = next(n for key, _, n in corpus if key == name)
        blocked = structure_threshold(norm, max_n=40)
        levels = structure_levels(norm, 10)
        assert blocked.window_top > 10
        init, bits = structure._PredictedShape.__init__, structure._PredictedShape.bits
        alone = []

        def kept_init(shape, config, sieves, top):
            init(shape, config, sieves, top)
            shape.source = config, sieves

        def bits_alone(shape, n):
            single = structure._PredictedShape(*shape.source, n)
            rows = np.array(single.points(bits(single, n)), dtype=np.int64)
            keys = kernels.pack_rows(rows.reshape(-1, norm.dim), shape.lo, shape.strides,
                                     np.dtype(np.int64))
            cells = np.zeros(int(keys.max(initial=-1)) + 1, dtype=bool)
            cells[keys] = True
            alone.append(n)
            return kernels.cells_to_bits(cells)

        monkeypatch.setattr(structure._PredictedShape, "__init__", kept_init)
        monkeypatch.setattr(structure._PredictedShape, "bits", bits_alone)
        assert structure_threshold(norm, max_n=40) == blocked
        assert alone == list(range(1, blocked.window_top + 1))
        assert structure_levels(norm, 10) == levels

    def test_sieve_short_of_the_window_is_an_invariant_error(self):
        # sieves built for level 2 cannot hold the reflected box of level 5
        sieves = structure._sieves_through(A135, 2, 10 ** 7)
        with pytest.raises(InternalInvariantError):
            structure._PredictedShape(A135, sieves, 5)


class TestExactPath:
    """With the int64 kernels ruled out, the same pass runs on Python ints."""

    @pytest.mark.parametrize("name", ["a_0_2_5_11_12", "hexagon6", "prism5"])
    def test_threshold_and_levels_agree(self, corpus, monkeypatch, name):
        norm = next(n for key, _, n in corpus if key == name)
        fast = structure_threshold(norm, max_n=8)
        fast_levels = structure_levels(norm, 6)
        monkeypatch.setattr(kernels, "int64_budget_ok", lambda *values: False)
        assert structure_threshold(norm, max_n=8) == fast
        assert structure_levels(norm, 6) == fast_levels
        assert structure_rhs(norm, 3) == _rhs_by_oracle(norm, 3)


class TestOneHull:
    """The structure pass reads every vertex cone off the one hull H(A)."""

    @staticmethod
    def _assert_cones_match_reflected_hulls(norm):
        sieves, _ = structure._vertex_sieves(norm, 1, 10 ** 7)
        assert [a for a, _ in sieves] == norm.extremal()
        for a, sieve in sieves:
            # the reference: the functional of the hull of a - A at its origin
            want = cone_functional(convex_hull(reflected_config(norm, a)), (0,) * norm.dim)
            assert sieve.ell == want, (norm.points, a)
        return len(sieves)

    def test_facet_sums_match_reflected_hulls(self, corpus):
        checked = sum(self._assert_cones_match_reflected_hulls(norm)
                      for _, _, norm in corpus)
        for pts in random_configs(60, seed=21):
            norm = normalize_config(PointConfig.from_points(pts))
            checked += self._assert_cones_match_reflected_hulls(norm)
        assert checked > 250

    def test_no_hull_of_a_reflected_set(self, corpus):
        for name, _, norm in corpus:
            polytope._hull_cache.clear()
            structure_threshold(norm, max_n=40)
            # a - A may be A itself (a centrally symmetric set), hulled anyway
            reflected = {reflected_config(norm, a).points for a in norm.extremal()}
            hulled = {key[0] for key in polytope._hull_cache}
            assert not (reflected - {norm.points}) & hulled, name


class TestKeySpaceParity:
    """The level check on bit sets gives the reports of the check on point
    rows and binary search (check_block_by_rows, tests/oracles.py) on every
    level the threshold window checks, on int64 and on the exact path, for
    the corpus, random sets and every extremal pivot of the corpus sets
    (whose boxes of H reach below the origin).  Each set's vertex sieves,
    which none of these change, are built once."""

    SETS = [pts for _, pts in CORPUS] + random_configs(150, seed=23, max_coord=3)

    @staticmethod
    def _configs():
        for pts in TestKeySpaceParity.SETS:
            yield normalize_config(PointConfig.from_points(pts))
        for _, pts in CORPUS:
            raw = PointConfig.from_points(pts)
            for pivot in raw.extremal():
                yield normalize_config(raw, pivot=pivot)

    @pytest.mark.parametrize("cap", [10 ** 7, 3000])
    def test_matches_the_row_check(self, monkeypatch, cap):
        seen = {"levels": 0, "missing": 0, "below": 0}
        init, check = structure._PredictedShape.__init__, structure._PredictedShape.check

        def recorded_init(shape, config, sieves, top):
            init(shape, config, sieves, top)
            shape.source = config, sieves
            seen["below"] += any(v < 0 for p in config.points for v in p)

        def both(shape, n, level):
            got = check(shape, n, level)
            assert [got] == check_block_by_rows(*shape.source, [(n, level)]), \
                (shape.source[0].points, n)
            seen["levels"] += 1
            seen["missing"] += bool(got.missing)
            return got

        built = {}
        vertex_sieves = structure._vertex_sieves

        def sieves_of_this_set(config, top, cap_points):
            key = (config.points, top, cap_points)
            if key not in built:
                built.clear()
                built[key] = vertex_sieves(config, top, cap_points)
            return built[key]

        monkeypatch.setattr(structure._PredictedShape, "__init__", recorded_init)
        monkeypatch.setattr(structure._PredictedShape, "check", both)
        monkeypatch.setattr(structure, "_vertex_sieves", sieves_of_this_set)
        for norm in self._configs():
            for exact in (False, True):
                with monkeypatch.context() as m:
                    if exact:
                        m.setattr(kernels, "int64_budget_ok", lambda *values: False)
                    try:
                        structure_threshold(norm, max_n=8, cap_points=cap)
                    except BudgetExceededError:
                        pass
        assert seen["levels"] > 1000 and seen["missing"] > 50 and seen["below"] > 20, seen
