import functools
from fractions import Fraction

import pytest

from sumsetlab import (
    PointConfig,
    enumerate_representations,
    khovanskii_bounds,
    khovanskii_polynomial,
    khovanskii_threshold,
    minimal_obstructions,
    normalize_config,
    sumset_size_formula,
    volumes,
)
from sumsetlab import InternalInvariantError, khovanskii
from sumsetlab.circuits import support

from corpus import random_configs
from oracles import (
    growth_sizes,
    obstructions_by_rows,
    representations_by_multisets,
    subset_weights,
)

A135 = PointConfig.from_points([(0,), (3,), (5,)])
SQUARE = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
SIMPLEX = PointConfig.from_points([(0, 0), (1, 0), (0, 1)])


class TestRepresentations:
    def test_interval_weight_five(self):
        got = enumerate_representations(A135, (15,), 5)
        assert got == [(0, 5, 0), (2, 0, 3)]

    def test_single(self):
        assert enumerate_representations(A135, (3,), 1) == [(0, 1, 0)]

    def test_square_diagonal(self):
        got = enumerate_representations(SQUARE, (1, 1), 2)
        assert got == [(0, 1, 1, 0), (1, 0, 0, 1)]

    def test_matches_multiset_oracle(self, corpus):
        for name, _, norm in corpus:
            sizes = growth_sizes(norm, 3)
            del sizes
            for h in (2, 3):
                targets = set()
                from oracles import sumset_by_enumeration
                for x in sumset_by_enumeration(norm.points, h)[:6]:
                    targets.add(x)
                for x in sorted(targets):
                    got = enumerate_representations(norm, x, h)
                    expected = representations_by_multisets(norm.points, x, h)
                    assert got == expected, (name, x, h)


class TestMinimalObstructions:
    def test_interval(self):
        obs = minimal_obstructions(A135)
        assert obs.elements == ((2, 0, 3),)
        assert obs.exact

    def test_square(self):
        obs = minimal_obstructions(SQUARE)
        assert obs.elements == ((1, 0, 0, 1),)

    def test_simplex_empty(self):
        obs = minimal_obstructions(SIMPLEX)
        assert obs.elements == () and obs.exact

    def test_truncation_reported(self):
        obs = minimal_obstructions(A135, max_weight=3)
        assert obs.status == "truncated"
        assert obs.elements == ()  # the single element has weight 5

    def test_elements_are_genuinely_minimal(self, corpus):
        for name, _, norm in corpus:
            obs = minimal_obstructions(norm)
            for m in obs.elements:
                h = sum(m)
                x = norm.combine(m)
                reps = enumerate_representations(norm, x, h)
                assert m in reps and m != reps[0], (name, m)
                # removing any unit leaves a lex-least representative
                for i in support(m):
                    lower = list(m)
                    lower[i] -= 1
                    x2 = norm.combine(lower)
                    reps2 = enumerate_representations(norm, tuple(x2), h - 1)
                    assert tuple(lower) == reps2[0], (name, m, i)

    def test_size_bound_and_disjoint_support(self, corpus):
        for name, _, norm in corpus:
            det_max = volumes(norm).det_max if norm.dim else 1
            obs = minimal_obstructions(norm)
            for m in obs.elements:
                assert max(m) <= norm.size * det_max, (name, m)
                lexmin = enumerate_representations(
                    norm, norm.combine(m), sum(m))[0]
                assert not set(support(m)) & set(support(lexmin)), (name, m)

    def test_bounds_on_random_sets(self):
        for pts in random_configs(60, seed=23):
            norm = normalize_config(PointConfig.from_points(pts))
            if norm.dim == 0:
                continue
            det_max = volumes(norm).det_max
            obs = minimal_obstructions(norm, max_weight=10,
                                       candidate_budget=100_000)
            for m in obs.elements:
                assert max(m) <= norm.size * det_max, (pts, m)


def _fields(obs):
    return obs.elements, obs.status, obs.weight_scanned, obs.weight_required


# shared by the forced word-limit runs
_row_scan = functools.cache(obstructions_by_rows)


def _capped_configs(corpus):
    norms = [norm for _, _, norm in corpus]
    norms += [normalize_config(PointConfig.from_points(pts))
              for pts in random_configs(60)]
    return [norm for norm in norms if norm.dim]


class TestKeyPackedScan:
    """The packed-key scan against the exponent-row scan it replaced."""

    def test_corpus_full_scan(self, corpus):
        for name, _, norm in corpus:
            assert _fields(minimal_obstructions(norm)) == _row_scan(norm), name

    def test_corpus_full_scan_several_words(self, corpus, monkeypatch):
        # every corpus set that has a scan needs 2 to 7 words at this limit:
        # candidates go through lexsort and pure powers are found word by word
        monkeypatch.setattr(khovanskii, "_WORD_LIMIT", 1 << 12)
        for name, _, norm in corpus:
            got = khovanskii._minimal_obstructions_scan(norm, None, 5_000_000)
            assert _fields(got) == _row_scan(norm), name

    @pytest.mark.parametrize("limit", [1 << 62, 1 << 12, 1])
    def test_unsorted_points_pure_power(self, monkeypatch, limit):
        # 2 * e_0 = (2, 0, 0) has the lex-smaller (0, 1, 1) in its class and
        # extends one survivor, (1, 0, 0): a minimal element with run length 1
        monkeypatch.setattr(khovanskii, "_WORD_LIMIT", limit)
        cfg = PointConfig(points=((1,), (0,), (2,)), dim=1)
        got = khovanskii._minimal_obstructions_scan(cfg, None, 5_000_000)
        assert (2, 0, 0) in got.elements
        assert _fields(got) == obstructions_by_rows(cfg)

    # 1 << 62 is the natural split, 1 << 24 splits values and exponent
    # digits across words mid-digit-run, 1 puts every digit in its own word
    @pytest.mark.parametrize("limit", [1 << 62, 1 << 24, 1])
    def test_forced_word_limit(self, corpus, monkeypatch, limit):
        monkeypatch.setattr(khovanskii, "_WORD_LIMIT", limit)
        for norm in _capped_configs(corpus):
            got = khovanskii._minimal_obstructions_scan(norm, 12, 200_000)
            assert _fields(got) == _row_scan(norm, 12, 200_000), \
                (limit, norm.points)

    def test_word_split(self):
        # 1-D, 6 points, cap 468: the value and all five digits in one word
        trunc = normalize_config(PointConfig.from_points(
            [(2,), (5,), (6,), (7,), (13,), (15,)]))
        keys = khovanskii._LevelKeys(trunc, 468)
        assert keys.words == [[0, 1, 2, 3, 4, 5]]
        # a value class is the key divided by the span of the digits
        assert keys.class_stride == 469 ** 5
        # 12 points at cap 2880: eleven digits of radix 2881 need three words
        cfg = normalize_config(PointConfig.from_points(
            [(x,) for x in (0, 1, 3, 4, 7, 9, 10, 13, 14, 17, 19, 20)]))
        keys = khovanskii._LevelKeys(cfg, 2880)
        assert keys.words == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11]]
        assert (keys.class_word, keys.class_stride) == (0, 2881 ** 4)

    def test_several_words_full_cap(self):
        cfg = normalize_config(PointConfig.from_points(
            [(x,) for x in (0, 1, 3, 4, 7, 9, 10, 13, 14, 17, 19, 20)]))
        got = khovanskii._minimal_obstructions_scan(cfg, None, 300_000)
        assert _fields(got) == obstructions_by_rows(cfg, None, 300_000)

    def test_pinned_values(self):
        pinned = [
            ([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)], 9, "exact", 108, 108),
            ([(0,), (2,), (5,), (11,), (12,)], 11, "exact", 300, 300),
            ([(2,), (5,), (6,), (7,), (13,), (15,)], 24, "truncated", 427, 468),
        ]
        for pts, count, status, scanned, required in pinned:
            norm = normalize_config(PointConfig.from_points(pts))
            obs = minimal_obstructions(norm)
            assert (len(obs.elements), obs.status, obs.weight_scanned,
                    obs.weight_required) == (count, status, scanned, required)


HEXAGON6 = [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)]
TRUNCATING = [(2,), (5,), (6,), (7,), (13,), (15,)]


def _norm(pts):
    return normalize_config(PointConfig.from_points(pts))


@pytest.fixture
def checks(monkeypatch):
    """(weight scanned, elements known, gap found) of every certificate check."""
    log = []
    first_gap = khovanskii._Certificate.first_gap

    def recorded(self, found, h):
        gap = first_gap(self, found, h)
        log.append((h, len(found), gap))
        return gap

    monkeypatch.setattr(khovanskii._Certificate, "first_gap", recorded)
    return log


class TestCertificate:
    """The scan stops once counting proves the elements found complete."""

    def test_hexagon6_stops_at_its_heaviest_element(self, monkeypatch, checks):
        levels = []
        candidates = khovanskii._LevelKeys.candidates

        def recorded(self, survivors):
            levels.append(len(survivors[0]))
            return candidates(self, survivors)

        monkeypatch.setattr(khovanskii._LevelKeys, "candidates", recorded)
        norm = _norm(HEXAGON6)
        got = khovanskii._minimal_obstructions_scan(norm, None, 5_000_000)
        assert _fields(got) == _row_scan(norm)
        assert len(levels) <= 3 and got.weight_scanned == 108
        assert checks[-1] == (3, 9, None)

    def test_failed_checks_resume_at_the_gap(self, checks):
        norm = _norm([(0,), (2,), (5,), (11,), (12,)])
        got = khovanskii._minimal_obstructions_scan(norm, None, 5_000_000)
        assert _fields(got) == _row_scan(norm)
        # no element weighs 6, so the check after weight 5 skips a level
        assert checks == [(2, 0, 3), (3, 5, 4), (4, 7, 5), (5, 10, 7), (7, 11, None)]

    def test_truncating_set_stays_on_the_scan(self, checks):
        got = khovanskii._minimal_obstructions_scan(_norm(TRUNCATING), None, 5_000_000)
        assert (len(got.elements), got.status, got.weight_scanned,
                got.weight_required) == (24, "truncated", 427, 468)
        # 2 elements after weight 2, 13 after weight 3: past the gate
        assert checks == [(2, 2, 3)]

    def test_extra_point_is_an_invariant_error(self, monkeypatch):
        def inflated(config, n_max, cap_points=10 ** 7):
            for n, (size, pts) in enumerate(levels(config, n_max, cap_points), start=1):
                yield size + (n == 50), pts

        levels = khovanskii.sumset_levels
        monkeypatch.setattr(khovanskii, "sumset_levels", inflated)
        with pytest.raises(InternalInvariantError, match="below"):
            khovanskii._minimal_obstructions_scan(_norm(HEXAGON6), None, 5_000_000)

    @pytest.mark.parametrize("budget", [2_000, 20_000, 200_000, 400_000])
    def test_budget_falls_back_to_the_scan(self, budget, checks):
        # the certificate counts its own points against the budget and gives
        # up past it; the scan's candidates are counted as before
        for pts in (HEXAGON6, [(0,), (2,), (5,), (11,), (12,)], TRUNCATING):
            norm = _norm(pts)
            got = khovanskii._minimal_obstructions_scan(norm, None, budget)
            assert _fields(got) == _row_scan(norm, None, budget), (pts, budget)

    def test_certified_past_the_scans_budget(self):
        # the scan alone runs out of candidates at weight 74; the sizes up
        # to 108 hold 1.3M points, so the certificate fits the budget
        norm = _norm(HEXAGON6)
        got = khovanskii._minimal_obstructions_scan(norm, None, 1_500_000)
        assert _fields(got) == _row_scan(norm)
        assert _row_scan(norm, None, 1_500_000)[1:3] == ("truncated", 74)

    def test_no_certificate_without_the_int64_box(self, object_keys, corpus, checks):
        for name, _, norm in corpus:
            got = khovanskii._minimal_obstructions_scan(norm, None, 5_000_000)
            assert _fields(got) == _row_scan(norm), name
        assert checks == []


class TestSizeFormula:
    def test_interval_small(self):
        obs = minimal_obstructions(A135)
        assert sumset_size_formula(A135, obs, 3) == 10

    def test_interval_matches_cited_value(self):
        # |5A| = 20 = 5*5 - 5 on {0, 3, 5}
        obs = minimal_obstructions(A135)
        assert sumset_size_formula(A135, obs, 5) == 20

    def test_square(self):
        obs = minimal_obstructions(SQUARE)
        assert sumset_size_formula(SQUARE, obs, 2) == 9

    def test_requires_exact_set(self):
        obs = minimal_obstructions(A135, max_weight=3)
        with pytest.raises(Exception):
            sumset_size_formula(A135, obs, 4)

    def test_any_size_of_exact_set(self, monkeypatch):
        # the pinned set's scan stops at 427 with 24 elements; they are all
        # of them, and the numerator, computed once, gives every |hA| up to
        # the cap
        calls = []
        expand = khovanskii._hilbert_numerator
        monkeypatch.setattr(khovanskii, "_hilbert_numerator",
                            lambda elements: calls.append(elements) or expand(elements))
        norm = _norm(TRUNCATING)
        obs = minimal_obstructions(norm)
        assert (len(obs.elements), obs.status) == (24, "truncated")
        exact = khovanskii.ObstructionSet(
            elements=obs.elements, status="exact",
            weight_scanned=obs.weight_required,
            weight_required=obs.weight_required)
        sizes = growth_sizes(norm, 468)
        calls.clear()  # the scan's certificate expands numerators of its own
        assert [sumset_size_formula(norm, exact, h)
                for h in range(1, 469)] == sizes
        assert calls == [exact.elements]

    def test_numerator_matches_inclusion_exclusion(self, corpus):
        # the corpus sets' full obstruction sets, and the random sets'
        # elements up to weight 12: any monomials have the same numerator
        sets = [minimal_obstructions(norm).elements for _, _, norm in corpus]
        for pts in random_configs():
            norm = normalize_config(PointConfig.from_points(pts))
            sets.append(minimal_obstructions(
                norm, max_weight=12, candidate_budget=200_000).elements)
        checked = 0
        for elements in sets:
            if len(elements) <= 16:
                assert khovanskii._hilbert_numerator(elements) == \
                    subset_weights(elements), elements
                checked += 1
        assert checked >= 200

    def test_matches_growth_everywhere_small(self, corpus):
        for name, _, norm in corpus:
            obs = minimal_obstructions(norm)
            if not obs.exact:
                continue
            sizes = growth_sizes(norm, 8)
            for h in range(1, 9):
                assert sumset_size_formula(norm, obs, h) == sizes[h - 1], \
                    (name, h)


class TestPolynomial:
    def test_interval(self):
        assert str(khovanskii_polynomial(A135)) == "5*X - 5"

    def test_square(self):
        assert str(khovanskii_polynomial(SQUARE)) == "X^2 + 2*X + 1"

    def test_simplex(self):
        poly = khovanskii_polynomial(SIMPLEX)
        assert poly.coefficients == (Fraction(1), Fraction(3, 2), Fraction(1, 2))

    def test_route_agreement(self, corpus):
        for name, _, norm in corpus:
            if khovanskii_bounds(norm).sharp > 130:
                continue
            formula = khovanskii_polynomial(norm, route="formula")
            interp = khovanskii_polynomial(norm, route="interpolation")
            assert formula.coefficients == interp.coefficients, name

    def test_degree_equals_dimension(self, corpus):
        for name, _, norm in corpus:
            poly = khovanskii_polynomial(norm)
            assert poly.degree == norm.dim, name


class TestBounds:
    def test_interval_values(self):
        b = khovanskii_bounds(A135)
        assert b.sharp == 9 * 5 - 3 + 1 == 43
        assert b.coarse == 30 ** 15

    def test_simplex(self):
        assert khovanskii_bounds(SIMPLEX).sharp == 9 * 1 - 3 + 1 == 7


class TestThreshold:
    def test_interval_exact_three(self):
        result = khovanskii_threshold(A135)
        assert result.value == 3 and result.status == "exact"

    def test_interval_intermediate_bound_is_tight(self):
        # the column-max weight of the obstruction set gives 5 - 3 + 1 = 3
        obs = minimal_obstructions(A135)
        assert obs.column_max_weight() - A135.size + 1 == 3

    def test_square(self):
        result = khovanskii_threshold(SQUARE)
        assert result.value == 1 and result.status == "exact"

    def test_two_points(self):
        cfg = PointConfig.from_points([(0,), (1,)])
        result = khovanskii_threshold(cfg)
        assert result.value == 1 and str(result.polynomial) == "X + 1"

    def test_polynomial_matches_growth_beyond_threshold(self, corpus):
        for name, _, norm in corpus:
            result = khovanskii_threshold(norm)
            sizes = growth_sizes(norm, min(result.bound, 12))
            for n in range(result.value, len(sizes) + 1):
                assert result.polynomial(n) == sizes[n - 1], (name, n)
            if result.value > 1:
                assert result.polynomial(result.value - 1) != \
                    sizes[result.value - 2], name

    def test_under_sharp_bound(self, corpus):
        for name, _, norm in corpus:
            result = khovanskii_threshold(norm)
            assert result.value <= khovanskii_bounds(norm).sharp, name

    def test_empirical_status_under_tight_budget(self):
        cfg = PointConfig.from_points([(0,), (7,), (11,)])
        result = khovanskii_threshold(cfg, max_weight=4, max_n=20)
        assert result.status == "empirical"
        assert result.bound == 20
