import numpy as np
import pytest

from sumsetlab import (
    BudgetExceededError,
    PointConfig,
    PreconditionError,
    RegionSpec,
    count_dilate_points,
    exceptional_in_region,
    semigroup_contains,
    semigroup_oracle,
    sumset_iterate,
)
from sumsetlab import kernels, sumsets
from sumsetlab.sumsets import (
    _iterate_tuples,
    growth_sizes,
    iter_sumsets,
    sumset_arrays,
    sumset_levels,
)

from corpus import random_configs
from oracles import semigroup_sieve, sumset_by_enumeration

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
        hull = set(count_dilate_points(A135, 4, enumerate_points=True))
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

    def test_forced_tuples_fallback(self, monkeypatch, corpus):
        expected = {name: [kernels.array_to_points(a) for a in sumset_arrays(raw, 8)]
                    for name, raw, _ in corpus}
        monkeypatch.setattr(sumsets, "_frontier_box", lambda config, n_max: None)
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

    def test_agrees_with_sumsets(self, corpus):
        # every point of NA for N <= 5 is a member; members found in the
        # region but missing from all NA up to 5 must need weight > 5
        for name, _, norm in corpus:
            oracle = semigroup_oracle(norm)
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
        oracle = semigroup_oracle(A135)
        assert oracle.min_weight((30,)) == 6
        assert oracle.min_weight_certificate((30,)) == {(5,): 6}

    def test_not_pointed_rejected(self):
        cfg = PointConfig.from_points([(-1,), (0,), (1,)])
        with pytest.raises(PreconditionError):
            semigroup_oracle(cfg)

    def test_sublattice_membership(self):
        cfg = PointConfig.from_points([(0, 0), (2, 0), (0, 2)])
        ok, _ = semigroup_contains(cfg, (2, 2))
        assert ok
        ok, _ = semigroup_contains(cfg, (1, 1))
        assert not ok


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
        hull = set(count_dilate_points(A135, 4, enumerate_points=True))
        reached = set()
        for pts in iter_sumsets(A135, 25):
            reached.update(pts)
        assert got == sorted(hull - reached)

    def test_region_budget(self):
        with pytest.raises(BudgetExceededError):
            exceptional_in_region(A135, RegionSpec.box([(0, 10 ** 9)]),
                                  cap_points=1000)
