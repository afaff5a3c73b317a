import random
from itertools import product

import numpy as np
import pytest

from sumsetlab import (
    BudgetExceededError,
    DegenerateDimensionError,
    PointConfig,
    PreconditionError,
    RegionSpec,
    SemigroupOracle,
    count_dilate_points,
    exceptional_in_region,
    khovanskii_bounds,
    normalize_config,
    semigroup_contains,
    sumset_iterate,
)
from sumsetlab import kernels, sumsets
from sumsetlab.cli import main
from sumsetlab.polytope import cone_functional, convex_hull, dilate_points
from sumsetlab.sumsets import (
    _frontier_key_box,
    _iterate_tuples,
    iter_sumsets,
    sumset_arrays,
    sumset_levels,
)

from corpus import random_configs
from oracles import (
    DfsSemigroupOracle,
    growth_sizes,
    semigroup_sieve,
    sumset_by_enumeration,
)

A135 = PointConfig.from_points([(0,), (3,), (5,)])
SQUARE = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
STRIP = PointConfig.from_points([(0, 0), (2, 0), (3, 0), (0, 1)])


class TestGrowth:
    def test_interval_sizes(self):
        assert growth_sizes(A135, 5) == [3, 6, 10, 15, 20]

    def test_interval_matches_cited_formula(self):
        # |NA| = 5N - 5 for N >= 3 on {0, 3, 5}
        sizes = growth_sizes(A135, 9)
        for n in range(3, 10):
            assert sizes[n - 1] == 5 * n - 5

    def test_square_fills_grid(self):
        assert growth_sizes(SQUARE, 5) == [(n + 1) ** 2 for n in range(1, 6)]

    def test_two_points(self):
        cfg = PointConfig.from_points([(0,), (1,)])
        assert growth_sizes(cfg, 6) == list(range(2, 8))

    def test_against_enumeration_oracle(self, corpus):
        for name, _, norm in corpus:
            for n in (1, 2, 3):
                expected = sumset_by_enumeration(norm.points, n)
                got = None
                for got in iter_sumsets(norm, n):
                    pass
                assert got == expected, (name, n)

    def test_step_consistency(self, corpus):
        # (N+1)A equals NA + A
        for name, _, norm in corpus:
            levels = list(iter_sumsets(norm, 3))
            two_plus_one = sorted({
                tuple(a + b for a, b in zip(p, g))
                for p in levels[1] for g in norm.points})
            assert two_plus_one == levels[2], name

    def test_contained_in_dilate(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            sizes = growth_sizes(norm, 4)
            for n in range(1, 5):
                assert sizes[n - 1] <= count_dilate_points(norm, n), (name, n)

    def test_points_subset_of_dilate(self):
        hull = set(kernels.array_to_points(dilate_points(A135, 4)))
        na = None
        for na in iter_sumsets(A135, 4):
            pass
        assert set(na) <= hull

    def test_budget_error_names_level(self):
        with pytest.raises(BudgetExceededError) as err:
            sumset_iterate(SQUARE, 50, cap_points=20)
        assert err.value.reached is not None
        assert err.value.partial.records  # partial table retained

    def test_keep_points(self):
        table = sumset_iterate(A135, 2, keep_points=True)
        assert table.records[1].points == ((0,), (3,), (5,), (6,), (8,), (10,))

    def test_nonzero_requires_n_max(self):
        with pytest.raises(PreconditionError):
            sumset_iterate(A135, 0)


def _key_levels(config, n_max):
    """N*A for N = 1..n_max from the frontier iteration on sorted keys,
    called directly (whatever route sumset_levels would take), as points."""
    lo, strides, _, dtype = _frontier_key_box(config, n_max)
    return [kernels.array_to_points(kernels.decode_keys(keys, lo, strides))
            for keys in sumsets._iterate_keys(config, n_max, lo, strides, dtype, 10 ** 7)]


def _assert_levels_exact(config, n_max):
    """Every level of sumset_arrays, and of the frontier iteration on sorted
    keys, equals the exact tuple iteration."""
    expected = list(_iterate_tuples(config, n_max))
    got = [kernels.array_to_points(a) for a in sumset_arrays(config, n_max)]
    assert got == expected, (config.points, n_max)
    assert _key_levels(config, n_max) == expected, (config.points, n_max)


class TestFrontierIteration:
    def test_corpus_levels_exact(self, corpus):
        for name, raw, norm in corpus:
            for config in (raw, norm):
                _assert_levels_exact(config, 12)

    def test_random_sets_exact(self):
        for pts in random_configs(60):
            _assert_levels_exact(PointConfig.from_points(pts), 8)

    @pytest.mark.parametrize("pts", [
        [(5, -3), (6, -3), (5, -1), (8, 0)],      # lex-least point off the origin
        [(-7,), (-2,), (3,), (4,)],               # negative coordinates
        [(-4, -1, 2), (-3, 0, 2), (-4, 1, 3)],    # all-negative leading column
        [(3, 4)],                                 # one point: no frontier
        [(0,)],
        [(2,), (9,)],
    ])
    def test_unnormalized_inputs_exact(self, pts):
        _assert_levels_exact(PointConfig.from_points(pts), 10)

    def test_int64_path_runs(self):
        levels = list(sumset_arrays(PointConfig.from_points([(5, -3), (6, -3), (5, -1)]), 4))
        assert all(a.dtype == np.int64 for a in levels)

    def test_key_span_guard_falls_back_to_tuples(self):
        # small coordinates for int64, but the key box of 4A spans ~2^64
        big = 1 << 30
        config = PointConfig.from_points([(0, 0), (big, 0), (0, big)])
        levels = list(sumset_arrays(config, 4))
        assert all(a.dtype == object for a in levels)
        assert [kernels.array_to_points(a) for a in levels] == \
            list(_iterate_tuples(config, 4))

    def test_forced_tuples_fallback(self, request, corpus):
        # the same iteration on Python-int keys gives the same levels
        expected = {name: [kernels.array_to_points(a) for a in sumset_arrays(raw, 8)]
                    for name, raw, _ in corpus}
        request.getfixturevalue("object_keys")
        for name, raw, _ in corpus:
            levels = list(sumset_arrays(raw, 8))
            assert all(a.dtype == object for a in levels), name
            assert [kernels.array_to_points(a) for a in levels] == expected[name], name
            assert [size for size, _ in sumset_levels(raw, 8)] == \
                [len(p) for p in expected[name]], name

    @pytest.mark.parametrize("block", [7, 2])  # 2: fewer rows than |A|
    def test_bounded_candidate_blocks(self, monkeypatch, corpus, block):
        calls = []
        step = kernels.sumset_step

        def recorded(pts, gens):
            calls.append(len(pts) * len(gens))
            return step(pts, gens)

        monkeypatch.setattr(sumsets, "CANDIDATE_BLOCK_ROWS", block)
        monkeypatch.setattr(kernels, "sumset_step", recorded)
        for name, raw, norm in corpus:
            for config in (raw, norm):
                assert _key_levels(config, 12) == list(_iterate_tuples(config, 12)), name
        assert calls and max(calls) <= block
        assert len(calls) > 2 * len(corpus) * 11  # levels split into blocks


@pytest.fixture
def merged(monkeypatch):
    """The length of every array sumsets concatenates (every merged level)."""
    log = []

    class Numpy:  # numpy, with the length of every merged level recorded
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def concatenate(arrays, *args, **kwargs):
            out = np.concatenate(arrays, *args, **kwargs)
            log.append(len(out))
            return out

    monkeypatch.setattr(sumsets, "np", Numpy())
    return log


class TestSumsetLevels:
    def test_sizes_and_points(self, unpacked):
        for config in (A135, SQUARE, STRIP):
            arrays = list(sumset_arrays(config, 6))
            unpacked.clear()
            walk = list(sumset_levels(config, 6))
            assert [size for size, _ in walk] == [len(a) for a in arrays]
            assert unpacked == []  # sizes only: no level is unpacked
            assert all(np.array_equal(a, level().rows()) for a, (_, level) in zip(arrays, walk))
            assert unpacked == [len(a) for a in arrays]

    @pytest.mark.parametrize("route", ["bits", "keys"])
    def test_kept_levels_share_the_box_and_decode_to_the_points(self, request,
                                                                sumset_routes, route):
        if route == "keys":
            request.getfixturevalue("object_keys")
        for config in (A135, SQUARE, STRIP):
            kept = [(size, level()) for size, level in sumset_levels(config, 6)]
            assert len({level.box for _, level in kept}) == 1
            assert all(level.rows().tolist() == [list(p) for p in pts] and len(level) == size
                       for (size, level), pts in zip(kept, _iterate_tuples(config, 6)))
        assert set(sumset_routes) == {route}

    def test_cap_names_first_level_over_budget(self, sumset_routes):
        got = []
        with pytest.raises(BudgetExceededError) as err:
            for size, _ in sumset_levels(SQUARE, 10, cap_points=20):
                got.append(size)
        assert got == [4, 9, 16]
        assert err.value.reached == 4
        assert sumset_routes == ["keys"]  # a box of 121 keys is over the budget

    def test_iterate_partial_table(self):
        with pytest.raises(BudgetExceededError) as err:
            sumset_iterate(SQUARE, 10, keep_points=True, cap_points=20)
        assert err.value.reached == 4
        partial = err.value.partial
        assert partial.sizes() == [4, 9, 16]
        assert partial.records[2].points == tuple(
            (x, y) for x in range(4) for y in range(4))

    def test_sizes_only_never_decode(self, monkeypatch, corpus, unpacked):
        decoded = []

        def recorded(keys, lo, strides):
            decoded.append(len(keys))
            return decode(keys, lo, strides)

        decode = kernels.decode_keys
        monkeypatch.setattr(kernels, "decode_keys", recorded)
        for name, raw, norm in corpus:
            for config in (raw, norm):
                sizes = [size for size, _ in sumset_levels(config, 12)]
                assert sizes == [len(p) for p in _iterate_tuples(config, 12)], name
        assert decoded == [] and unpacked == []
        kept = [level() for _, level in sumset_levels(SQUARE, 3)]
        assert decoded == [] and unpacked == [4, 9, 16]
        [level.rows() for level in kept]
        assert decoded == [4, 9, 16]

    @pytest.mark.parametrize("cap", [3, 10, 40, 150])
    def test_budget_checked_before_the_level_exists(self, merged, corpus, cap):
        for name, raw, _ in corpus:
            sizes = [len(p) for p in _iterate_tuples(raw, 20)]
            over = next((n for n, size in enumerate(sizes, start=1) if size > cap), None)
            got = []
            try:
                for size, _ in sumset_levels(raw, 20, cap_points=cap):
                    got.append(size)
            except BudgetExceededError as err:
                assert (err.reached, str(err)) == (over, (
                    f"sumset size {sizes[over - 1]} exceeds the "
                    f"{cap} point budget at N={over}")), name
            else:
                assert over is None, name
            assert got == sizes[:(over or 21) - 1], name
        assert merged and max(merged) <= cap

    @pytest.mark.parametrize("cap", [3, 10, 40, 150])
    def test_object_keys_stop_where_int64_keys_do(self, request, corpus, cap):
        # the exact path, too, raises before a level over the budget exists,
        # with the int64 path's level and partial table
        def run(config):
            try:
                return None, sumset_iterate(config, 20, keep_points=True, cap_points=cap)
            except BudgetExceededError as err:
                return err.reached, err.partial

        fast = {name: run(raw) for name, raw, _ in corpus}
        assert any(reached for reached, _ in fast.values())
        request.getfixturevalue("object_keys")
        assert all(a.dtype == object for a in sumset_arrays(SQUARE, 3))
        merged = request.getfixturevalue("merged")
        for name, raw, _ in corpus:
            assert run(raw) == fast[name], name
        assert merged and max(merged) <= cap


def _assert_bit_levels_exact(config, n_max):
    """Every level of the bitset engine, its size and its decoded points,
    equals the exact tuple iteration."""
    lo, strides, _, _ = _frontier_key_box(config, n_max)
    got = [(mask.bit_count(), kernels.array_to_points(
                kernels.decode_keys(kernels.bits_to_keys(mask), lo, strides)))
           for mask in sumsets._iterate_bits(config, n_max, lo, strides)]
    assert got == [(len(p), p) for p in _iterate_tuples(config, n_max)], \
        (config.points, n_max)


# the unit triangle to N = 10: a box of 11 x 11 keys, levels of at most 66
UNIT_SIMPLEX2 = PointConfig.from_points([(0, 0), (1, 0), (0, 1)])


class TestBitsetLevels:
    def test_corpus_levels_exact(self, corpus):
        for name, raw, norm in corpus:
            for config in (raw, norm):
                _assert_bit_levels_exact(config, 12)

    def test_random_sets_exact(self):
        configs = [PointConfig.from_points(pts) for pts in random_configs(60)]
        assert {c.dim for c in configs} == {1, 2, 3}
        for config in configs:
            _assert_bit_levels_exact(config, 8)

    @pytest.mark.parametrize("pts", [
        [(5, -3), (6, -3), (5, -1)],              # negative offsets: right shifts
        [(5, -3), (6, -3), (5, -1), (8, 0)],
        [(-7,), (-2,), (3,), (4,)],
        [(-9,), (-4,)],                           # every offset negative
        [(-4, -1, 2), (-3, 0, 2), (-4, 1, 3)],
        [(3, 4)],                                 # one point: one bit per level
        [(0,)],
    ])
    def test_unnormalized_inputs_exact(self, pts):
        _assert_bit_levels_exact(PointConfig.from_points(pts), 10)

    def test_first_level_only(self, corpus, unpacked):
        sizes = [[size for size, _ in sumset_levels(raw, 1)] for _, raw, _ in corpus]
        assert sizes == [[raw.size] for _, raw, _ in corpus]
        assert unpacked == []
        for _, raw, _ in corpus:
            _assert_bit_levels_exact(raw, 1)

    def test_keys_ascend_as_int64(self):
        keys = kernels.bits_to_keys((1 << 70) | (1 << 9) | 1)
        assert keys.dtype == np.int64 and keys.tolist() == [0, 9, 70]

    def test_route_boundary(self, sumset_routes):
        span = _frontier_key_box(UNIT_SIMPLEX2, 10)[2]
        assert span == 121
        at_span, past = [[(size, level()) for size, level in sumset_levels(UNIT_SIMPLEX2, 10, cap)]
                         for cap in (span, span - 1)]
        assert sumset_routes == ["bits", "keys"]
        assert [size for size, _ in at_span] == \
            [len(p) for p in _iterate_tuples(UNIT_SIMPLEX2, 10)]
        assert all(a == b and np.array_equal(p.rows(), q.rows())
                   and p.rows().dtype == q.rows().dtype == np.int64
                   for (a, p), (b, q) in zip(at_span, past))

    def test_int64_span_over_the_budget_takes_keys(self, sumset_routes):
        # {0, 1, 3, 2^62}: the box's keys leave int64
        config = PointConfig.from_points([(0,), (1,), (3,), (1 << 62,)])
        assert [size for size, _ in sumset_levels(config, 3)] == [4, 10, 19]
        assert sumset_routes == ["keys"]

    @pytest.mark.parametrize("cap", [20, 120, 121, 10 ** 7])
    @pytest.mark.parametrize("emit", [[], ["--emit-points"]])
    def test_growth_cli_equal_to_the_keys_route(self, tmp_path, capsys, request,
                                                sumset_routes, cap, emit):
        # the unit square to N = 10 has a box of 121 keys and |10A| = 121
        path = tmp_path / "square.json"
        path.write_text('{"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}')
        argv = ["growth", "--input", str(path), "--max-n", "10",
                "--cap-points", str(cap), *emit]
        code = main(argv)
        got = (code, capsys.readouterr())
        assert sumset_routes == ["bits" if cap >= 121 else "keys"]
        assert code == (0 if cap >= 121 else 3)
        request.getfixturevalue("object_keys")  # the keys route, on Python ints
        assert (main(argv), capsys.readouterr()) == got
        assert sumset_routes[1:] == ["keys"]


class TestSemigroup:
    def test_mixed_generators(self):
        ok, cert = semigroup_contains(STRIP, (5, 0))
        assert ok
        total = [0, 0]
        for g, c in cert.items():
            total = [t + c * v for t, v in zip(total, g)]
        assert tuple(total) == (5, 0)

    def test_unreachable_first_coordinate(self):
        ok, cert = semigroup_contains(STRIP, (1, 7))
        assert not ok and cert is None

    def test_zero_is_empty_sum(self):
        ok, cert = semigroup_contains(STRIP, (0, 0))
        assert ok and cert == {}

    def test_sieve_shift_steps_are_logarithmic(self, monkeypatch):
        # on {0, 1024} up to ell = 1024 * 1000 the doubling closure shifts
        # once per bit of 1000, not once per ell-level
        shifts = []
        shift_or = sumsets._shift_or

        def counted(mask, offset):
            shifts.append(tuple(offset))
            return shift_or(mask, offset)

        monkeypatch.setattr(sumsets, "_shift_or", counted)
        oracle = SemigroupOracle(PointConfig.from_points([(0,), (1024,)]))
        assert oracle.contains((1024 * 1000,))
        assert shifts == [(1024 * 2 ** t,) for t in range(10)]
        assert not oracle.contains((1024 * 1000 - 1,))

    def test_agrees_with_sumsets(self, corpus):
        # every point of NA for N <= 5 is a member; members found in the
        # region but missing from all NA up to 5 must need weight > 5
        for name, _, norm in corpus:
            oracle = SemigroupOracle(norm)
            seen = set()
            for pts in iter_sumsets(norm, 5):
                seen.update(pts)
            for p in sorted(seen)[:200]:
                assert oracle.contains(p), (name, p)
            zero = (0,) * norm.dim
            if zero in seen:
                for p in sorted(seen)[:50]:
                    w = oracle.min_weight(p)
                    assert w is not None and w <= 5, (name, p)

    def test_min_weight_certificate(self):
        oracle = SemigroupOracle(A135)
        assert oracle.min_weight((30,)) == 6
        assert oracle.min_weight_certificate((30,)) == {(5,): 6}

    def test_certificates_match_dfs_weights(self):
        # pivoted at a vertex other than the lex-least point, the generators
        # have negative coordinates, and stepping down the levels meets
        # children off the walk's box, which no level holds
        checked = 0
        for pts in random_configs(30, seed=31, max_dim=2, max_coord=3):
            raw = PointConfig.from_points(pts)
            norm = normalize_config(raw, pivot=max(raw.extremal()))
            oracle, dfs = SemigroupOracle(norm), DfsSemigroupOracle(norm)
            for p in product(range(-4, 5), repeat=norm.dim):
                weight = oracle.min_weight(p)
                assert weight == dfs.min_weight(p), (norm.points, p)
                if weight is None:
                    continue
                cert = oracle.min_weight_certificate(p)
                assert sum(cert.values()) == weight, (norm.points, p)
                total = [sum(c * g[k] for g, c in cert.items()) for k in range(norm.dim)]
                assert tuple(total) == p, (norm.points, p)
                checked += 1
        assert checked > 150

    def test_not_pointed_rejected(self):
        cfg = PointConfig.from_points([(-1,), (0,), (1,)])
        with pytest.raises(PreconditionError):
            SemigroupOracle(cfg)

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1, 0), (-1, 0), (0, 1)],          # origin inside an edge
        [(0, 0), (1, 0), (0, 1), (-1, -1)],         # origin inside the hull
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)],
    ])
    def test_not_pointed_cones_rejected(self, pts):
        cfg = PointConfig.from_points(pts)
        with pytest.raises(PreconditionError):
            SemigroupOracle(cfg)
        with pytest.raises(PreconditionError):
            semigroup_contains(cfg, pts[1])

    def test_sublattice_membership(self):
        cfg = PointConfig.from_points([(0, 0), (2, 0), (0, 2)])
        ok, _ = semigroup_contains(cfg, (2, 2))
        assert ok
        ok, _ = semigroup_contains(cfg, (1, 1))
        assert not ok

    def test_lower_rank_line(self):
        cfg = PointConfig.from_points([(0, 0), (1, 1), (2, 2)])
        assert semigroup_contains(cfg, (3, 3)) == (True, {(1, 1): 1, (2, 2): 1})
        assert semigroup_contains(cfg, (1, 0)) == (False, None)
        oracle = SemigroupOracle(cfg)
        assert oracle.min_weight((3, 3)) == 2
        assert oracle.min_weight((-1, -1)) is None
        _assert_members_match_dfs(cfg, [(-2, 5)] * 2)

    def test_lower_rank_coplanar_3d(self):
        # every point on the plane z = x + y; (2, 2, 4) is 2 * (1, 0, 1) +
        # 2 * (0, 1, 1) but also (0, 1, 1) + (2, 1, 3)
        cfg = PointConfig.from_points([(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 1, 3)])
        oracle = SemigroupOracle(cfg)
        assert oracle.contains((1, 1, 2)) and not oracle.contains((1, 1, 1))
        assert oracle.min_weight((2, 2, 4)) == 2
        assert oracle.min_weight_certificate((2, 2, 4)) == {(0, 1, 1): 1, (2, 1, 3): 1}
        _assert_members_match_dfs(cfg, [(-1, 4)] * 3)

    def test_members_match_dfs_on_boxes(self, corpus):
        # boxes around the origin hold points outside the cone too
        for name, _, norm in corpus:
            if norm.dim:
                _assert_members_match_dfs(norm, [(-3, 6) if norm.dim < 3 else (-2, 3)]
                                          * norm.dim)

    def test_object_points_agree(self, corpus):
        for name, _, norm in corpus:
            if norm.dim:
                box = kernels.points_to_array(list(product(range(-2, 5), repeat=norm.dim)))
                oracle = SemigroupOracle(norm)
                assert np.array_equal(oracle.members(box),
                                      oracle.members(box.astype(object))), name

    def test_huge_points_outside_the_cone(self):
        # the cone tests of these rows leave int64: they run on Python ints
        oracle = SemigroupOracle(STRIP)
        assert not oracle.contains((1 << 70, -1))
        huge = np.array([[1 << 62, -1], [-(1 << 62), 5], [2, 0]])
        assert oracle.members(huge).tolist() == [False, False, True]
        line = SemigroupOracle(PointConfig.from_points([(0, 0), (1, 1)]))
        assert not line.contains((1 << 70, (1 << 70) + 1))

    def test_certificates_match_dfs_on_selfcheck_samples(self, corpus):
        # the points verify's regular_representation check decomposes
        checked = 0
        for name, _, norm in corpus:
            sample = None
            for sample in iter_sumsets(norm, min(4, khovanskii_bounds(norm).sharp)):
                pass
            checked += _assert_weights_match_dfs(norm, sample[:20])
        assert checked > 400

    def test_certificates_match_dfs_on_random_sets(self):
        checked = 0
        for pts in random_configs(60):
            norm = normalize_config(PointConfig.from_points(pts))
            sample = None
            for sample in iter_sumsets(norm, 3):
                pass
            box = list(product(range(-1, 3), repeat=norm.dim))
            checked += _assert_weights_match_dfs(norm, sample[:12] + box)
        assert checked > 1000


def _seeded_cones(count=24, seed=13):
    """(config, ell) for seeded full-rank sets of nonnegative generators
    (plus the origin) in d = 1..3, ell the cone functional of their hull."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = 1 + len(out) % 3
        gens = {tuple(rng.randint(0, 4) for _ in range(d))
                for _ in range(rng.randint(d, d + 2))} - {(0,) * d}
        cfg = PointConfig.from_points(sorted(gens | {(0,) * d}))
        try:
            out.append((cfg, cone_functional(convex_hull(cfg), (0,) * d)))
        except DegenerateDimensionError:
            continue
    return out


def _region_cells(sieve):
    """Every cell of the sieve's box with ell <= limit (the region on which
    its mask is exact), and the box's bounds."""
    bounds = [(a, a + n - 1) for a, n in zip(sieve.lo, sieve.mask.shape)]
    box = np.array(list(product(*[range(a, b + 1) for a, b in bounds])),
                   dtype=np.int64).reshape(-1, len(bounds))
    return box[box @ np.asarray(sieve.ell) <= sieve.limit], bounds


class TestDenseSieve:
    """The doubling-closure sieve against the plain closure of tests/oracles.py."""

    def _assert_matches_closure(self, cfg, sieve, cells=None):
        region, bounds = _region_cells(sieve)
        cells = region if cells is None else cells
        gens = [p for p in cfg.points if any(p)]
        closure = set(semigroup_sieve(gens, bounds))
        want = [p in closure for p in kernels.array_to_points(cells)]
        assert sieve.members(cells).tolist() == want, (cfg.points, sieve.limit)

    def test_full_sieve_matches_closure(self):
        for cfg, ell in _seeded_cones():
            least = min(sum(e * x for e, x in zip(ell, p)) for p in cfg.points if any(p))
            sieve = sumsets.semigroup_sieve(cfg, ell, 6 * least)
            self._assert_matches_closure(cfg, sieve)

    @pytest.mark.parametrize("cap", [None, 7])
    def test_partial_sieve_matches_closure(self, cap):
        # None: a 3000-cell cap; 7: a cap that stops at the first few limits
        cap = cap or 3000
        for cfg, ell in _seeded_cones():
            with pytest.raises(BudgetExceededError) as err:
                sumsets.semigroup_sieve(cfg, ell, 10 ** 6, cap_points=cap)
            part = err.value.partial
            assert err.value.reached == part.limit < 10 ** 6
            assert part.mask.size <= cap
            # the box of the next limit would not have fitted the cap
            with pytest.raises(BudgetExceededError):
                sumsets.semigroup_sieve(cfg, ell, part.limit + 1, cap_points=cap)
            self._assert_matches_closure(cfg, part)

    def test_no_partial_when_the_origin_does_not_fit(self):
        for cfg, ell in _seeded_cones():
            with pytest.raises(BudgetExceededError) as err:
                sumsets.semigroup_sieve(cfg, ell, 10, cap_points=0)
            assert err.value.partial is None and err.value.reached is None

    def test_python_int_queries(self):
        for cfg, ell in _seeded_cones():
            with pytest.raises(BudgetExceededError) as err:
                sumsets.semigroup_sieve(cfg, ell, 10 ** 6, cap_points=3000)
            sieve = err.value.partial
            region, _ = _region_cells(sieve)
            fast = sieve.members(region)
            exact = sieve.members(region.astype(object))
            assert exact.dtype == bool and exact.tolist() == fast.tolist()
            self._assert_matches_closure(cfg, sieve, region.astype(object))


def _assert_members_match_dfs(config, bounds):
    """members() over a box equals the DFS reference point by point."""
    box = list(product(*(range(a, b + 1) for a, b in bounds)))
    reference = DfsSemigroupOracle(config)
    want = [reference.contains(p) for p in box]
    got = SemigroupOracle(config).members(kernels.points_to_array(box))
    assert got.tolist() == want, config.points


def _assert_weights_match_dfs(config, points):
    """min_weight and min_weight_certificate equal the DFS reference."""
    oracle = SemigroupOracle(config)
    reference = DfsSemigroupOracle(config)
    for p in points:
        assert oracle.min_weight(p) == reference.min_weight(p), (config.points, p)
        assert oracle.min_weight_certificate(p) == \
            reference.min_weight_certificate(p), (config.points, p)
    return len(points)


class TestExceptional:
    def test_strip_box(self):
        got = exceptional_in_region(STRIP, RegionSpec.box([(0, 3), (0, 1)]))
        assert got == [(1, 0), (1, 1)]

    def test_strip_matches_sieve(self):
        bounds = [(0, 9), (0, 3)]
        sieve = set(semigroup_sieve([p for p in STRIP.points if any(p)], bounds))
        got = exceptional_in_region(STRIP, RegionSpec.box(bounds))
        from itertools import product
        cone = [p for p in product(range(0, 10), range(0, 4))]
        assert got == sorted(set(cone) - sieve)

    def test_strip_exceptional_grows_forever(self):
        # (1, k) is exceptional for every k: the first coordinate needs <2,3>
        got = exceptional_in_region(STRIP, RegionSpec.box([(0, 1), (0, 6)]))
        assert {(1, k) for k in range(7)} <= set(got)

    def test_numerical_semigroup_gaps(self):
        got = exceptional_in_region(A135, RegionSpec.box([(0, 12)]))
        assert got == [(1,), (2,), (4,), (7,)]
        sieve = semigroup_sieve([(3,), (5,)], [(0, 12)])
        assert got == sorted(set((k,) for k in range(13)) - set(sieve))

    def test_square_has_none(self):
        got = exceptional_in_region(SQUARE, RegionSpec.box([(0, 6), (0, 6)]))
        assert got == []

    def test_dilate_region_cross_oracle(self):
        # dilate-region exceptional points = dilate points minus big sumsets
        region = RegionSpec.dilate(4)
        got = exceptional_in_region(A135, region)
        hull = set(kernels.array_to_points(dilate_points(A135, 4)))
        reached = set()
        for pts in iter_sumsets(A135, 25):
            reached.update(pts)
        assert got == sorted(hull - reached)

    @pytest.mark.parametrize("region", [
        RegionSpec.box([(-4, 9), (-5, 6)]),
        RegionSpec.dilate(3),
    ], ids=["box", "dilate"])
    def test_negative_coordinates_match_dfs(self, region):
        # normalized (the points generate Z^2), with negative coordinates
        config = normalize_config(PointConfig.from_points(
            [(0, 0), (1, -1), (1, 2), (3, 1)]))
        assert config.points == ((0, 0), (1, -1), (1, 2), (3, 1))
        reference = DfsSemigroupOracle(config)
        region_pts = sumsets.region_points(config, region)
        want = [p for p in kernels.array_to_points(region_pts)
                if not reference.contains(p)]
        got = exceptional_in_region(config, region)
        assert got == want and len(got) > 3

    def test_region_budget(self):
        with pytest.raises(BudgetExceededError):
            exceptional_in_region(A135, RegionSpec.box([(0, 10 ** 9)]),
                                  cap_points=1000)
