import importlib
from fractions import Fraction
from math import comb

import pytest

from sumsetlab import (
    MembershipError,
    PointConfig,
    PreconditionError,
    circuits,
    conformal_decompose,
    find_reduction,
    is_kernel_vector,
    kernel_lattice,
    normalize_config,
    regular_decompose,
    volumes,
)
from sumsetlab.circuits import negative_part, positive_part, support
from sumsetlab.polytope import convex_hull
from sumsetlab.lattice import lattice_rank
from sumsetlab.sumsets import iter_sumsets

from corpus import random_configs
from oracles import circuits_by_all_subsets

circuits_module = importlib.import_module("sumsetlab.circuits")  # not the function

A135 = PointConfig.from_points([(0,), (3,), (5,)])
C0123 = PointConfig.from_points([(0,), (1,), (2,), (3,)])
SQUARE = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
SIMPLEX = PointConfig.from_points([(0, 0), (1, 0), (0, 1)])
TRIANGLE = PointConfig.from_points([(0, 0), (0, 3), (1, 1), (3, 0)])


class TestKernelLattice:
    def test_interval(self):
        assert kernel_lattice(A135) == [(2, -5, 3)]

    def test_simplex_trivial(self):
        assert kernel_lattice(SIMPLEX) == []

    def test_square(self):
        assert kernel_lattice(SQUARE) == [(1, -1, -1, 1)]

    def test_rank_formula(self, corpus):
        from sumsetlab.lattice import hermite_basis
        for name, _, norm in corpus:
            basis = kernel_lattice(norm)
            aug = norm.augmented_columns()
            aug_rank = len(hermite_basis(list(zip(*aug))))
            assert len(basis) == norm.size - aug_rank, name

    def test_members_are_kernel_vectors(self, corpus):
        for name, _, norm in corpus:
            for v in kernel_lattice(norm):
                assert is_kernel_vector(norm, v), name


class TestCircuits:
    def test_four_term_progression(self):
        got = circuits(C0123)
        assert set(got) == {(1, -2, 1, 0), (2, -3, 0, 1), (1, 0, -3, 2),
                            (0, 1, -2, 1)}

    def test_interval(self):
        got = circuits(A135)
        assert got == [(2, -5, 3)]
        assert max(abs(v) for v in got[0]) == volumes(A135).det_max

    def test_simplex_empty(self):
        assert circuits(SIMPLEX) == []

    def test_height_bound_on_corpus(self, corpus):
        for name, _, norm in corpus:
            det_max = volumes(norm).det_max if norm.dim else 1
            for u in circuits(norm):
                assert max(abs(v) for v in u) <= det_max, (name, u)

    def test_height_bound_on_random_sets(self):
        for pts in random_configs(60, seed=11):
            norm = normalize_config(PointConfig.from_points(pts))
            det_max = volumes(norm).det_max if norm.dim else 1
            for u in circuits(norm):
                assert max(abs(v) for v in u) <= det_max, (pts, u)

    def test_sign_and_content_normalized(self, corpus):
        from math import gcd
        for name, _, norm in corpus:
            for u in circuits(norm):
                first = next(v for v in u if v)
                assert first > 0, name
                g = 0
                for v in u:
                    g = gcd(g, abs(v))
                assert g == 1, name

    def test_order_independence(self, corpus):
        for name, _, norm in corpus:
            shuffled = PointConfig.from_points(list(reversed(norm.points)))
            perm = [shuffled.points.index(p) for p in norm.points]
            remapped = set()
            for u in circuits(shuffled):
                vec = [u[idx] for idx in perm]
                first = next((v for v in vec if v), 1)
                if first < 0:
                    vec = [-v for v in vec]
                remapped.add(tuple(vec))
            assert remapped == set(circuits(norm)), name

    def test_support_minimality(self, corpus):
        # no circuit's support strictly contains another's
        for name, _, norm in corpus:
            circ = circuits(norm)
            supports = [set(support(u)) for u in circ]
            for i, s in enumerate(supports):
                for j, t in enumerate(supports):
                    if i != j:
                        assert not (s < t), name


RAW_DEGENERATE = [
    [(0, 0), (1, 1), (2, 2), (4, 4)],  # collinear in 2-D
    [(0, 0, 0), (1, 2, 3), (3, 6, 9), (-1, -2, -3)],  # collinear in 3-D
    [(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 1, 3), (1, 1, 2)],  # coplanar in 3-D
    [(3, 4)],  # one point
    [(0,), (5,)],  # two points
    [(1, 0, 2), (0, 3, 1)],  # two points in 3-D
]


@pytest.fixture(scope="module")
def circuit_cases(corpus):
    """Every corpus set normalized at each vertex, random sets in d = 1..5
    normalized and as drawn, and raw degenerate sets."""
    cases = [normalize_config(raw, pivot=v) for _, raw, _ in corpus
             for v in raw.extremal()]
    for pts in random_configs(150, seed=29, max_dim=5, max_coord=3):
        raw = PointConfig.from_points(pts)
        cases += [normalize_config(raw), raw]
    cases += [PointConfig.from_points(pts) for pts in RAW_DEGENERATE]
    assert {cfg.dim for cfg in cases} == {1, 2, 3, 4, 5}
    return cases


def _kernel_calls(monkeypatch):
    """A list that logs each integer kernel the circuits module takes, with
    the circuit memo store emptied."""
    calls = []
    kernel = circuits_module.integer_kernel

    def counted(rows):
        calls.append(len(rows[0]))
        return kernel(rows)

    monkeypatch.setattr(circuits_module, "integer_kernel", counted)
    circuits_module._circuit_cache.clear()
    return calls


class TestCircuitsFromRankSubsets:
    def test_matches_all_subsets(self, circuit_cases):
        for cfg in circuit_cases:
            assert tuple(circuits(cfg)) == circuits_by_all_subsets(cfg), cfg.points

    def test_kernels_per_rank_plus_one_subset(self, circuit_cases, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        for cfg in circuit_cases:
            n = cfg.size
            rank = n - len(kernel_lattice(cfg))
            calls.clear()
            circuits_module._circuit_cache.clear()
            circuits_module._circuits(cfg)
            all_subsets = sum(comb(n, s) for s in range(2, min(n, cfg.dim + 2) + 1))
            assert len(calls) == (comb(n, rank + 1) + 1 if n > 1 else 0), cfg.points
            assert len(calls) <= all_subsets, cfg.points

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_kernel_on_d_plus_two_points(self, d, monkeypatch):
        # the unit simplex plus minus its sum: one circuit on all d + 2
        # points, from the rank kernel and the one (d+2)-subset kernel; the
        # all-sizes loop takes 2^(d+2) - d - 3 subset kernels
        pts = [(0,) * d] + [tuple(int(i == k) for i in range(d)) for k in range(d)]
        cfg = PointConfig.from_points(pts + [(-1,) * d])
        calls = _kernel_calls(monkeypatch)
        got = circuits(cfg)
        assert len(calls) == 2
        assert tuple(got) == circuits_by_all_subsets(cfg)
        assert len(got) == 1 and all(got[0])


class TestConformalDecompose:
    def test_scalar_multiple(self):
        assert conformal_decompose(A135, (4, -10, 6)) == [(Fraction(2), (2, -5, 3))]

    def test_two_term_split(self):
        got = conformal_decompose(C0123, (1, -1, -1, 1))
        assert sorted(got) == [(Fraction(1, 3), (1, 0, -3, 2)),
                               (Fraction(1, 3), (2, -3, 0, 1))]

    def test_square_identity(self):
        got = conformal_decompose(SQUARE, (1, -1, -1, 1))
        assert got == [(Fraction(1), (1, -1, -1, 1))]

    def test_rejects_non_kernel_vectors(self):
        with pytest.raises(PreconditionError):
            conformal_decompose(A135, (1, 0, 0))
        with pytest.raises(PreconditionError):
            conformal_decompose(A135, (0, 0, 0))

    def test_properties_on_kernel_samples(self, corpus):
        coeff_sets = [(1,), (-2,), (3,), (1, 1), (2, -1), (-1, 2), (1, -1, 1)]
        for name, _, norm in corpus:
            basis = kernel_lattice(norm)
            if not basis:
                continue
            samples = []
            for coeffs in coeff_sets:
                vec = [0] * norm.size
                for c, b in zip(coeffs, basis):
                    vec = [x + c * y for x, y in zip(vec, b)]
                if any(vec):
                    samples.append(tuple(vec))
            for v in samples:
                terms = conformal_decompose(norm, v)
                assert len(terms) <= len(support(v)), name
                resum = [Fraction(0)] * norm.size
                pos = [Fraction(0)] * norm.size
                for lam, u in terms:
                    assert lam > 0
                    assert set(support(positive_part(u))) <= set(
                        support(positive_part(v))), name
                    assert set(support(negative_part(u))) <= set(
                        support(negative_part(v))), name
                    for i, val in enumerate(u):
                        resum[i] += lam * val
                        if val > 0:
                            pos[i] += lam * val
                assert resum == [Fraction(x) for x in v], name
                assert pos == [Fraction(max(x, 0)) for x in v], name


class TestFindReduction:
    def test_triangle_interior_point(self):
        lam, rho = find_reduction(TRIANGLE, [(1, 1)])
        assert lam == {(1, 1): 3}
        assert rho == {(3, 0): 1, (0, 3): 1}

    def test_interval(self):
        lam, rho = find_reduction(A135, [(3,)])
        assert lam == {(3,): 5} and rho == {(5,): 3}

    def test_progression(self):
        lam, rho = find_reduction(C0123, [(1,)])
        left = sum(k[0] * v for k, v in lam.items())
        right = sum(k[0] * v for k, v in rho.items())
        assert left == right and sum(lam.values()) > sum(rho.values())

    def test_postconditions_corpus(self, corpus):
        from itertools import combinations
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            det_max = volumes(norm).det_max
            poly = convex_hull(norm)
            outer_sets = [set(norm.points[i] for i in f.incident)
                          for f in poly.outer_facets]
            nonzero = [p for p in norm.points if any(p)]
            tried = 0
            for size in range(1, norm.dim + 1):
                for sub in combinations(nonzero, size):
                    if lattice_rank(sub) != len(sub):
                        continue
                    if any(set(sub) <= s for s in outer_sets):
                        continue
                    lam, rho = find_reduction(norm, sub)
                    assert set(lam) <= set(sub), name
                    combo_l = norm.combine([lam.get(p, 0) for p in norm.points])
                    combo_r = norm.combine([rho.get(p, 0) for p in norm.points])
                    assert combo_l == combo_r, name
                    assert sum(lam.values()) > sum(rho.values()), name
                    for v in list(lam.values()) + list(rho.values()):
                        assert 0 <= v <= det_max, name
                    tried += 1
                    if tried >= 10:
                        break
                if tried >= 10:
                    break

    def test_subset_inside_outer_facet_rejected(self):
        with pytest.raises(PreconditionError):
            find_reduction(A135, [(5,)])

    def test_dependent_subset_rejected(self):
        cfg = PointConfig.from_points([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
        with pytest.raises(PreconditionError):
            find_reduction(cfg, [(1, 0), (2, 0)])


class TestRegularDecompose:
    def test_triangle_heavy_corner(self):
        u, w, fid = regular_decompose(TRIANGLE, (9, 9))
        assert u == {}
        assert w == {(3, 0): 3, (0, 3): 3}
        assert fid is not None

    def test_interval_multiple(self):
        u, w, _ = regular_decompose(A135, (30,))
        assert u == {} and w == {(5,): 6}

    def test_two_points(self):
        cfg = PointConfig.from_points([(0,), (1,)])
        u, w, _ = regular_decompose(cfg, (7,))
        assert u == {} and w == {(1,): 7}

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            regular_decompose(A135, (1,))

    def test_postconditions_corpus(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            det_max = volumes(norm).det_max
            poly = convex_hull(norm)
            sample = None
            for sample in iter_sumsets(norm, 3):
                pass
            for v in sample[:12]:
                u_rep, w_rep, fid = regular_decompose(norm, v)
                total = [0] * norm.dim
                for a, c in list(u_rep.items()) + list(w_rep.items()):
                    assert c > 0
                    for k in range(norm.dim):
                        total[k] += c * a[k]
                assert tuple(total) == v, (name, v)
                assert all(c <= det_max - 1 for c in u_rep.values()), (name, v)
                if w_rep:
                    incident = {norm.points[i]
                                for i in poly.facets[fid].incident}
                    assert set(w_rep) <= incident, (name, v)
                # weight bound: wt(u) <= (|A| - 1 - |B|)(det_max - 1)
                b_size = len(poly.facets[fid].incident) if fid is not None else 0
                assert sum(u_rep.values()) <= \
                    (norm.size - 1 - b_size) * (det_max - 1) + 0, (name, v)
