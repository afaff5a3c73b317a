from itertools import product

import numpy as np
import pytest

from sumsetlab import (
    BudgetExceededError,
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
from sumsetlab.polytope import dilate_points
from sumsetlab.sumsets import (
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


def _assert_levels_exact(config, n_max):
    """Every level of sumset_arrays equals the exact tuple iteration."""
    got = [kernels.array_to_points(a) for a in sumset_arrays(config, n_max)]
    assert got == list(_iterate_tuples(config, n_max)), (config.points, n_max)


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
                _assert_levels_exact(config, 12)
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
    def test_sizes_and_points(self):
        for config in (A135, SQUARE, STRIP):
            arrays = list(sumset_arrays(config, 6))
            sized = list(sumset_levels(config, 6))
            assert [size for size, pts in sized] == [len(a) for a in arrays]
            assert all(pts is None for _, pts in sized)
            kept = list(sumset_levels(config, 6, keep_points=True))
            assert all(np.array_equal(a, pts) for a, (_, pts) in zip(arrays, kept))

    def test_cap_names_first_level_over_budget(self):
        got = []
        with pytest.raises(BudgetExceededError) as err:
            for size, _ in sumset_levels(SQUARE, 10, cap_points=20):
                got.append(size)
        assert got == [4, 9, 16]
        assert err.value.reached == 4

    def test_iterate_partial_table(self):
        with pytest.raises(BudgetExceededError) as err:
            sumset_iterate(SQUARE, 10, keep_points=True, cap_points=20)
        assert err.value.reached == 4
        partial = err.value.partial
        assert partial.sizes() == [4, 9, 16]
        assert partial.records[2].points == tuple(
            (x, y) for x in range(4) for y in range(4))

    def test_sizes_only_never_decode(self, monkeypatch, corpus):
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
        assert decoded == []
        list(sumset_levels(SQUARE, 3, keep_points=True))
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

    def test_sieve_skips_unreachable_levels(self, monkeypatch):
        # on {0, 1024} only level 1024 holds a point: one merge, not 1024
        calls = []
        sorted_unique = kernels.sorted_unique

        def counted(keys):
            calls.append(len(keys))
            return sorted_unique(keys)

        monkeypatch.setattr(kernels, "sorted_unique", counted)
        oracle = SemigroupOracle(PointConfig.from_points([(0,), (1024,)]))
        assert oracle.contains((1024,))
        assert calls == [1]
        assert not oracle.contains((1023,))

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
