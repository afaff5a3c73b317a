import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import (
    DimensionError,
    PointConfig,
    PreconditionError,
    circuits,
    determinant,
    integer_kernel,
    lattice_basis,
    normalize_config,
)
from sumsetlab import lattice, polytope
from sumsetlab.lattice import (
    Normalization,
    extremal_points,
    hermite_basis,
    is_normalized,
    solve_in_lattice,
)
from sumsetlab.polytope import convex_hull

from corpus import random_configs
from oracles import (
    convex_coefficients,
    extremal_points_by_lp,
    growth_sizes,
    naive_determinant,
)


class TestDeterminant:
    def test_identity(self):
        assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_two_by_two(self):
        # cofactor expansion by hand: 3*1 - 5*1
        assert determinant([[3, 5], [1, 1]]) == -2

    def test_dependent_rows(self):
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            determinant([[1, 2, 3], [4, 5, 6]])

    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n, max_size=n)))
    @settings(max_examples=150, deadline=None)
    def test_matches_cofactor_expansion(self, rows):
        assert determinant(rows) == naive_determinant(rows)

    def test_big_integers(self):
        n = 10 ** 30
        assert determinant([[n, 0], [0, n]]) == n * n


class TestLatticeBasis:
    def test_standard_basis(self):
        basis, index = lattice_basis([(1, 0), (0, 1)])
        assert basis == [(1, 0), (0, 1)] and index == 1

    def test_index_two(self):
        _, index = lattice_basis([(2, 0), (0, 1)])
        assert index == 2

    def test_gcd_in_one_dimension(self):
        basis, index = lattice_basis([(3,), (5,)])
        assert basis == [(1,)] and index == 1

    def test_empty_input(self):
        assert lattice_basis([]) == ([], None)

    def test_rank_deficient_is_infinite(self):
        basis, index = lattice_basis([(2, 4)])
        assert index is None and len(basis) == 1

    def test_reduction_fixed_point(self, corpus):
        for _, raw, _ in corpus:
            basis = hermite_basis(raw.points)
            assert hermite_basis(basis) == basis

    def test_index_equals_determinant(self):
        rows = [(3, 1, 0), (1, 2, 5), (0, 0, 2)]
        basis, index = lattice_basis(rows)
        assert index == abs(determinant(basis))

    def test_solve_in_lattice_roundtrip(self):
        basis = hermite_basis([(2, 1), (0, 3)])
        target = (4, 5)
        coeffs = solve_in_lattice(basis, target)
        total = [0, 0]
        for c, row in zip(coeffs, basis):
            total = [t + c * v for t, v in zip(total, row)]
        assert tuple(total) == target
        assert solve_in_lattice(basis, (1, 0)) is None


class TestIntegerKernel:
    def test_kernel_of_ones(self):
        assert integer_kernel([[1, 1, 1]]) == [(1, 0, -1), (0, 1, -1)]

    def test_kernel_vectors_annihilate(self):
        rows = [[0, 3, 5], [1, 1, 1]]
        for v in integer_kernel(rows):
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)

    def test_full_rank_kernel_empty(self):
        assert integer_kernel([[1, 0], [0, 1]]) == []


class TestExtremal:
    def test_interior_point_dropped(self):
        pts = [(0, 0), (3, 0), (0, 3), (1, 1)]
        assert extremal_points(pts, 2) == [(0, 0), (0, 3), (3, 0)]

    def test_convex_coefficients_exact(self):
        coeffs = convex_coefficients((1, 1), [(0, 0), (3, 0), (0, 3)], 2)
        assert coeffs is not None
        assert sum(coeffs) == 1
        total = [0, 0]
        for c, p in zip(coeffs, [(0, 0), (3, 0), (0, 3)]):
            total = [t + c * v for t, v in zip(total, p)]
        assert total == [1, 1]

    def test_outside_point(self):
        assert convex_coefficients((5, 5), [(0, 0), (3, 0), (0, 3)], 2) is None

    def test_matches_lp_on_corpus(self, corpus):
        for name, raw, norm in corpus:
            for cfg in (raw, norm):
                expected = extremal_points_by_lp(cfg.points, cfg.dim)
                assert cfg.extremal() == expected, name
            assert list(convex_hull(norm).extremal) == \
                extremal_points_by_lp(norm.points, norm.dim), name

    def test_matches_lp_on_random_sets(self):
        for pts in random_configs(60):
            cfg = PointConfig.from_points(pts)
            expected = extremal_points_by_lp(pts, cfg.dim)
            assert cfg.extremal() == expected, pts
            assert normalize_config(cfg).normalization.translation == expected[0]

    @pytest.mark.parametrize("pts", [
        [(5,)],
        [(2, -1)],
        [(0, 0, 0)],
        [(4,), (-2,)],
        [(0,), (3,), (1,), (7,), (5,)],
        [(0, 0), (1, 1), (2, 2)],
        [(3, 1), (0, 0), (-3, -1), (6, 2), (9, 3)],
        [(0, 0), (2, 4), (1, 2), (5, 10)],
        [(0, 0, 0), (1, 1, 1), (2, 2, 2), (-1, -1, -1)],
        [(1, 2, 3), (3, 2, 1), (2, 2, 2), (0, 2, 4)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 2, 0)],
        [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1), (2, 2, 1), (1, 0, 1)],
        [(0, 0, 0), (1, 1, 0), (2, 2, 1), (3, 3, 1), (1, 1, 1)],
    ])
    def test_matches_lp_on_lower_rank_sets(self, pts):
        cfg = PointConfig.from_points(pts)
        expected = extremal_points_by_lp(pts, cfg.dim)
        assert cfg.extremal() == expected
        assert extremal_points(pts, cfg.dim) == expected
        norm = normalize_config(cfg)
        assert norm.normalization.translation == expected[0]
        assert list(convex_hull(norm).extremal) == \
            extremal_points_by_lp(norm.points, norm.dim)


class TestNormalize:
    def test_translation_only(self):
        cfg = PointConfig.from_points([(2,), (5,), (7,)])
        norm = normalize_config(cfg, pivot=(2,))
        assert norm.points == ((0,), (3,), (5,))
        assert norm.normalization.basis is None

    def test_sublattice_reduction(self):
        cfg = PointConfig.from_points([(0, 0), (2, 0), (0, 1)])
        norm = normalize_config(cfg)
        assert norm.points == ((0, 0), (0, 1), (1, 0))
        assert abs(determinant(norm.normalization.basis)) == 2

    def test_already_normalized(self):
        cfg = PointConfig.from_points([(0,), (3,), (5,)])
        norm = normalize_config(cfg)
        assert norm.points == cfg.points
        assert is_normalized(norm)

    def test_rank_deficient_input(self):
        cfg = PointConfig.from_points([(0, 0), (1, 1), (2, 2)])
        norm = normalize_config(cfg)
        assert norm.dim == 1
        assert norm.points == ((0,), (1,), (2,))

    def test_pivot_must_be_extremal(self):
        cfg = PointConfig.from_points([(0,), (3,), (5,)])
        with pytest.raises(PreconditionError):
            normalize_config(cfg, pivot=(3,))

    def test_idempotent(self, corpus):
        for name, _, norm in corpus:
            again = normalize_config(norm)
            assert again.points == norm.points, name
            assert again.normalization.basis is None
            assert not any(again.normalization.translation)

    def test_map_back_to_source(self, corpus):
        # one point in Z^1 and Z^2 (rank 0) and a line in Z^3 (rank 1)
        lower = [PointConfig.from_points(pts) for pts in
                 ([(5,)], [(2, -3)], [(1, 0, 2), (3, 1, 2), (7, 3, 2)])]
        for name, raw, norm in corpus + [(str(c.points), c, normalize_config(c))
                                         for c in lower]:
            back = sorted(norm.normalization.to_source(p) for p in norm.points)
            assert back == sorted(raw.points), name

    def test_sumset_sizes_invariant(self, corpus):
        for name, raw, norm in corpus:
            assert growth_sizes(raw, 10) == growth_sizes(norm, 10), name


class TestConfigMemo:
    """One bounded memo keyed on (points, dim, *args) serves every cache."""

    def test_equal_points_share_one_entry(self):
        polytope._hull_cache.clear()
        plain = PointConfig(points=((0, 0), (2, 0), (0, 3)), dim=2)
        tagged = PointConfig(points=plain.points, dim=2, normalized=True,
                             normalization=Normalization((1, 1), None, 2))
        assert convex_hull(plain) is convex_hull(tagged)
        # perfbench's tracer counts a hull-cache hit when this key is present
        assert list(polytope._hull_cache) == [(plain.points, 2)]

    def test_full_store_is_emptied(self, monkeypatch):
        configs = [PointConfig.from_points([(0, 0), (k, 0), (0, 1), (1, k)])
                   for k in range(1, 6)]
        polytope._hull_cache.clear()
        expected = [convex_hull(c) for c in configs]
        polytope._hull_cache.clear()
        monkeypatch.setattr(lattice, "CACHE_ENTRIES", 3)
        for cfg, want in zip(configs, expected):
            assert convex_hull(cfg) == want
            assert len(polytope._hull_cache) <= 3
        assert [convex_hull(c) for c in configs] == expected
        assert len(polytope._hull_cache) <= 3

    def test_extremal_is_built_once_and_handed_out_fresh(self, monkeypatch):
        calls = []
        scan = lattice.extremal_points

        def counted(points, dim):
            calls.append(points)
            return scan(points, dim)

        monkeypatch.setattr(lattice, "extremal_points", counted)
        lattice._extremal_cache.clear()
        cfg = PointConfig.from_points([(0, 0), (2, 0), (0, 2), (1, 1)])
        first = cfg.extremal()
        first.append((9, 9))
        first[0] = (7, 7)
        assert cfg.extremal() == [(0, 0), (0, 2), (2, 0)]
        assert PointConfig(points=cfg.points, dim=2, normalized=True).extremal() == [
            (0, 0), (0, 2), (2, 0)]
        assert len(calls) == 1

    def test_normalize_idempotent_recomputes(self):
        # verify's second normalization pass must not be a memo hit, or on
        # a normalized input it would compare norm with itself: a stale
        # entry for norm's points (one that records a translation) stays
        # out of the check
        from sumsetlab.selfcheck import run_checks

        norm = normalize_config(PointConfig.from_points([(0,), (3,), (5,)]))
        stale = PointConfig(points=norm.points, dim=1, normalized=True,
                            normalization=Normalization((2,), None, 1))
        lattice._normalize_cache.clear()
        lattice._normalize_cache[(norm.points, 1, None)] = stale
        try:
            assert normalize_config(norm) is stale
            status = {c.name: c.status for c in run_checks(norm)}
        finally:
            lattice._normalize_cache.clear()
        assert status["normalize_idempotent"] == "ok"

    def test_normalization_is_shared(self):
        raw = PointConfig.from_points([(2, 1), (5, 1), (2, 4), (3, 2)])
        assert normalize_config(raw) is normalize_config(raw)
        # the pivot is keyed as a tuple, whatever sequence it is passed as
        assert normalize_config(raw, pivot=[2, 1]) is normalize_config(raw, pivot=(2, 1))

    def test_circuits_are_a_fresh_list(self):
        cfg = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
        first = circuits(cfg)
        want = list(first)
        first.append((9, 9, 9, 9))
        first[0] = (0, 0, 0, 0)
        assert circuits(cfg) == want
