import dataclasses
import importlib
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from sumsetlab import (
    BudgetExceededError,
    DegenerateDimensionError,
    InternalInvariantError,
    KindError,
    PointConfig,
    PreconditionError,
    convex_hull,
    count_dilate_points,
    facet_functional,
    facet_height_ratio,
    interpolate_consecutive,
    normalize_config,
    triangulate_from_origin,
    volumes,
)
from sumsetlab import lattice, polytope
from sumsetlab.cli import main
from sumsetlab.kernels import array_to_points
from sumsetlab.lattice import determinant, solve_rational
from sumsetlab.polytope import _box_scan_exact, _dilate_box, dilate_points, scan_box

from corpus import random_configs
from oracles import (
    convex_hull_by_cofactors,
    dilate_points_by_facets,
    extremal_points_by_lp,
    facet_height_ratio_by_determinants,
    hull_facets_by_planes,
    hyperplane_normal_by_determinants,
    subset_det_range,
    triangulate_by_facet_hulls,
    vertices_by_normal_rank,
)

TRIANGLE = PointConfig.from_points([(0, 0), (3, 0), (0, 3), (1, 1)])
SQUARE = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
A135 = PointConfig.from_points([(0,), (3,), (5,)])
SIMPLEX = PointConfig.from_points([(0, 0), (1, 0), (0, 1)])
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


class TestConvexHull:
    def test_triangle_with_interior_point(self):
        poly = convex_hull(TRIANGLE)
        assert set(poly.extremal) == {(0, 0), (3, 0), (0, 3)}
        assert len(poly.outer_facets) == 1
        outer = poly.outer_facets[0]
        assert outer.coefficients == (Fraction(1, 3), Fraction(1, 3))
        inner = {f.normal for f in poly.inner_facets}
        assert inner == {(-1, 0), (0, -1)}

    def test_interval_hull(self):
        poly = convex_hull(A135)
        assert poly.extremal == ((0,), (5,))
        assert poly.outer_facets[0].coefficients == (Fraction(1, 5),)

    def test_unit_square(self):
        poly = convex_hull(SQUARE)
        assert len(poly.extremal) == 4
        assert len(poly.outer_facets) == 2
        assert len(poly.inner_facets) == 2
        outers = {f.coefficients for f in poly.outer_facets}
        assert outers == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}

    def test_degenerate_span_raises(self):
        cfg = PointConfig.from_points([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(DegenerateDimensionError):
            convex_hull(cfg)

    def test_facets_match_plane_oracle(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            poly = convex_hull(norm)
            got = {(f.normal, f.offset) for f in poly.facets}
            expected = hull_facets_by_planes(norm.points, norm.dim)
            assert got == expected, name

    def test_extremal_on_enough_facets(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            poly = convex_hull(norm)
            for p in poly.extremal:
                on = sum(1 for f in poly.facets if f.dot(p) == f.offset)
                assert on >= norm.dim, (name, p)


class TestVolumes:
    def test_interval(self):
        v = volumes(A135)
        assert (v.volume, v.det_max, v.det_min, v.width) == (5, 5, 2, 5)

    def test_triangle(self):
        v = volumes(TRIANGLE)
        assert v.volume == Fraction(9, 2)
        assert v.det_max == 9 and v.det_min == 3

    def test_unit_simplex(self):
        v = volumes(SIMPLEX)
        assert (v.volume, v.det_max, v.det_min, v.width) == (Fraction(1, 2), 1, 1, 1)

    def test_hadamard_and_factorial_bounds(self, corpus):
        for name, _, norm in corpus:
            d = norm.dim
            if d == 0:
                continue
            v = volumes(norm)
            assert v.det_max <= math.factorial(d) * v.volume, name
            assert v.det_max ** 2 <= d ** d * v.width ** (2 * d), name


@pytest.fixture(scope="module")
def hull_scan_cases(corpus):
    """Full-rank sets for the hull scan's parity checks: every corpus set
    normalized at each of its vertices, and random sets in d = 1..5, both
    normalized and, when they span their space, as drawn."""
    cases = [normalize_config(raw, pivot=v) for _, raw, _ in corpus
             for v in raw.extremal() if raw.size > 1]
    for pts in random_configs(200, seed=28, max_points=7, max_dim=5, max_coord=3):
        raw = PointConfig.from_points(pts)
        norm = normalize_config(raw)
        cases += [norm, raw] if norm.dim == raw.dim else [norm]
    cases = [cfg for cfg in cases if cfg.dim]
    assert {cfg.dim for cfg in cases} == {1, 2, 3, 4, 5}
    return cases


class TestHeightRatio:
    def test_square_is_one(self):
        assert facet_height_ratio(SQUARE) == 1

    def test_triangle_is_three(self):
        assert facet_height_ratio(TRIANGLE) == 3

    def test_interval(self):
        assert facet_height_ratio(A135) == Fraction(5, 2)

    def test_bounded_by_det_ratio(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            v = volumes(norm)
            assert facet_height_ratio(norm) <= Fraction(v.det_max, v.det_min), name

    def test_matches_orthogonal_distance_ratio(self, hull_scan_cases):
        # the heights |normal . a - offset| give the ratio that the
        # determinants det(b_1 - a, ..., b_d - a) over d independent points
        # b_i of each facet give
        for cfg in hull_scan_cases:
            assert facet_height_ratio(cfg) == facet_height_ratio_by_determinants(cfg), \
                cfg.points

    def test_vertex_simplex_has_ratio_one(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            ext = norm.extremal()
            if len(ext) == norm.dim + 1 and set(ext) == set(norm.points):
                assert facet_height_ratio(norm) == 1, name


class TestHullScanParity:
    """The vertices, determinant range and width read off the one hull scan,
    against references that compute each on its own (the height ratio is in
    TestHeightRatio)."""

    def test_vertices(self, hull_scan_cases):
        for cfg in hull_scan_cases:
            got = list(convex_hull(cfg).extremal)
            assert got == vertices_by_normal_rank(cfg), cfg.points
            assert got == extremal_points_by_lp(cfg.points, cfg.dim), cfg.points

    def test_determinant_range_and_width(self, hull_scan_cases):
        for cfg in hull_scan_cases:
            poly, v = convex_hull(cfg), volumes(cfg)
            expected = subset_det_range(cfg.points, cfg.dim)
            assert (poly.det_max, poly.det_min) == expected, cfg.points
            assert (v.det_max, v.det_min) == expected, cfg.points
            width = max(max(abs(a - b) for a, b in zip(p, q))
                        for p in cfg.points for q in cfg.points)
            assert v.width == width, cfg.points


def _geometry_batch_sets():
    """The point sets of the geometry-batch benchmark workload."""
    sys.path.insert(0, PERFBENCH)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
    return [group[0]["points"] for group in workloads.geometry_batch(workloads.DRAW_SEED)]


def _hull_or_error(hull, cfg):
    """hull(cfg), or the class and message of what it raised."""
    try:
        return hull(cfg)
    except DegenerateDimensionError as exc:
        return type(exc), str(exc)


DEGENERATE = {
    "collinear 2-D": [(0, 0), (1, 1), (2, 2)],
    "collinear 3-D": [(0, 0, 0), (1, 2, 3), (2, 4, 6), (5, 10, 15)],
    "coplanar 3-D": [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (3, 2, 5)],
    "three points in 3-D": [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    "two points in 3-D": [(0, 0, 0), (1, 2, 3)],
    "three points in 4-D": [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)],
    "one point in 1-D": [(5,)],
    "one point in 2-D": [(4, 7)],
}


@pytest.fixture(scope="module")
def one_scan_cases(corpus):
    """Sets for the parity of the one hull scan with the cofactor-determinant
    scan: the corpus normalized at every vertex, the geometry-batch sets
    normalized, and random sets in d = 1..6, raw and normalized, with small
    coordinates, with coordinates past 2^62, and the small ones stretched
    past 2^62 (so that their collinear and coplanar subsets stay)."""
    cases = [normalize_config(raw, pivot=v) for _, raw, _ in corpus for v in raw.extremal()]
    cases += [normalize_config(PointConfig.from_points(pts)) for pts in _geometry_batch_sets()]
    drawn = random_configs(150, seed=30, max_points=8, max_dim=6, max_coord=2)
    drawn += random_configs(60, seed=31, max_points=8, max_dim=6, max_coord=2 ** 64)
    drawn += [[tuple(x * (2 ** 62 + 1) + 3 ** 41 for x in p) for p in pts] for pts in drawn[:60]]
    for pts in drawn + [DEGENERATE["one point in 2-D"]]:
        raw = PointConfig.from_points(pts)
        cases += [raw, normalize_config(raw)]
    assert {cfg.dim for cfg in cases} == {0, 1, 2, 3, 4, 5, 6}
    assert max(abs(x) for cfg in cases for p in cfg.points for x in p) > 2 ** 62
    return cases


class TestOneHullScan:
    """The one scan (cofactors from one minor expansion, the span test, the
    height ratio and the vertices read off it) against the scan with a
    determinant per cofactor, a rank test and a second pass for the ratio."""

    def test_matches_cofactor_scan(self, one_scan_cases):
        spanning = 0
        for cfg in one_scan_cases:
            polytope._hull_cache.clear()
            expected = _hull_or_error(convex_hull_by_cofactors, cfg)
            assert _hull_or_error(convex_hull, cfg) == expected, cfg.points
            if isinstance(expected, polytope.Polytope):
                spanning += 1
                assert facet_height_ratio(cfg) == expected.height_ratio, cfg.points
        assert 0 < spanning < len(one_scan_cases)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_inputs_raise_as_the_rank_test(self, name):
        cfg = PointConfig.from_points(DEGENERATE[name])
        polytope._hull_cache.clear()
        expected = _hull_or_error(convex_hull_by_cofactors, cfg)
        assert expected == (DegenerateDimensionError,
                            "points do not span the ambient space; normalize_config first")
        assert _hull_or_error(convex_hull, cfg) == expected
        with pytest.raises(DegenerateDimensionError):
            facet_height_ratio(cfg)

    def test_normal_matches_cofactor_determinants(self):
        rng = random.Random(32)
        for trial in range(3000):
            d = 1 + trial % 7
            top = rng.choice((1, 3, 2 ** 70))
            base = tuple(rng.randint(-top, top) for _ in range(d))
            rows = [[rng.randint(-top, top) for _ in range(d)] for _ in range(d - 1)]
            if d > 1 and trial % 5 == 0:
                rows[-1] = [0] * d  # a repeated point
            elif d > 2 and trial % 5 == 1:
                rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
            points = [base] + [tuple(b + x for b, x in zip(base, row)) for row in rows]
            assert polytope._hyperplane_normal(points, d) == \
                hyperplane_normal_by_determinants(points, d), (points, d)

    def test_normal_takes_no_determinant(self, monkeypatch):
        def forbidden(rows):
            raise AssertionError("a determinant in the cofactor normal")

        monkeypatch.setattr(lattice, "determinant", forbidden)
        monkeypatch.setattr(polytope, "determinant", forbidden)
        for d in range(1, 7):
            points = [tuple(int(i == k) for k in range(d)) for i in range(d)]
            assert polytope._hyperplane_normal(points, d) == ((1,) * d, 1)

    def test_normalized_hull_and_vertices_take_no_hermite_form(self, monkeypatch):
        cfgs = [normalize_config(PointConfig.from_points(pts)) for pts in (
            [(0, 0), (3, 0), (0, 3), (1, 1)], [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 1, 1)])]
        calls = []
        hermite = lattice.hermite_basis
        monkeypatch.setattr(lattice, "hermite_basis",
                            lambda vectors: calls.append(vectors) or hermite(vectors))
        polytope._hull_cache.clear()
        lattice._extremal_cache.clear()
        for cfg in cfgs:
            assert cfg.normalized
            poly = convex_hull(cfg)
            assert cfg.extremal() == list(poly.extremal)
        assert calls == []

    def test_ratio_on_a_cached_hull_takes_no_dot(self, monkeypatch):
        calls = []
        dot = polytope.FacetFunctional.dot
        monkeypatch.setattr(polytope.FacetFunctional, "dot",
                            lambda facet, point: calls.append(point) or dot(facet, point))
        for cfg in (TRIANGLE, SQUARE, A135):
            convex_hull(cfg)
            calls.clear()
            assert facet_height_ratio(cfg) == {TRIANGLE: 3, SQUARE: 1, A135: Fraction(5, 2)}[cfg]
            assert calls == []


class TestFacetFunctional:
    def test_triangle_hypotenuse(self):
        poly = convex_hull(TRIANGLE)
        idx = next(i for i, f in enumerate(poly.facets) if f.kind == "outer")
        beta = facet_functional(poly, idx)
        assert beta.coefficients == (Fraction(1, 3), Fraction(1, 3))
        assert beta.beta_value((1, 1)) == Fraction(2, 3)
        assert beta.beta_value((1, 1)) >= 1 - facet_height_ratio(TRIANGLE)

    def test_interval_outer(self):
        poly = convex_hull(A135)
        idx = next(i for i, f in enumerate(poly.facets) if f.kind == "outer")
        assert facet_functional(poly, idx).coefficients == (Fraction(1, 5),)

    def test_square_touches_negative_bound(self):
        poly = convex_hull(SQUARE)
        kappa = facet_height_ratio(SQUARE)
        for i, f in enumerate(poly.facets):
            if f.kind != "outer":
                continue
            beta = facet_functional(poly, i)
            assert min(beta.beta_value(p) for p in SQUARE.points) == 1 - kappa

    def test_inner_facet_rejected(self):
        poly = convex_hull(SQUARE)
        idx = next(i for i, f in enumerate(poly.facets) if f.kind == "inner")
        with pytest.raises(KindError):
            facet_functional(poly, idx)

    def test_negative_coefficient_inequality(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            poly = convex_hull(norm)
            kappa = facet_height_ratio(norm)
            for f in poly.outer_facets:
                for p in norm.points:
                    assert f.beta_value(p) >= 1 - kappa, name


class TestTriangulation:
    def test_square(self):
        tri = triangulate_from_origin(SQUARE)
        assert tri.simplices == (((0, 1), (1, 1)), ((1, 0), (1, 1)))

    def test_triangle_single_simplex(self):
        tri = triangulate_from_origin(TRIANGLE)
        assert tri.simplices == (((0, 3), (3, 0)),)

    def test_interval(self):
        tri = triangulate_from_origin(PointConfig.from_points([(0,), (5,)]))
        assert tri.simplices == (((5,),),)

    def test_bounds_then_triangulate_triangulates_once(self, monkeypatch, tmp_path, capsys):
        # volumes (for the bounds) and triangulate_from_origin read one
        # triangulation: on normalized input both start from the origin,
        # also under a pivot that leaves the origin above the least point
        path = tmp_path / "pentagon.txt"
        path.write_text("0 0\n1 0\n0 1\n1 1\n2 1\n")
        tops = []
        triangulate = polytope._triangulate

        def counted(poly, face, apex):
            tops.append(len(face) == len(poly.points))
            return triangulate(poly, face, apex)

        monkeypatch.setattr(polytope, "_triangulate", counted)
        for pivot in ([], ["--pivot=2,1"]):
            tops.clear()
            polytope._triangulation_cache.clear()
            polytope._volume_cache.clear()
            assert main(["bounds", "--input", str(path), *pivot]) == 0
            assert main(["triangulate", "--input", str(path), *pivot]) == 0
            capsys.readouterr()
            assert tops.count(True) == 1, pivot

    def test_origin_must_be_extremal(self):
        cfg = PointConfig.from_points([(-1,), (0,), (1,)])
        with pytest.raises(PreconditionError):
            triangulate_from_origin(cfg)

    def test_apex_must_be_a_vertex(self):
        for apex in ((1, 1), (2, 0), (1, 2)):  # interior, on an edge, not a point
            with pytest.raises(PreconditionError):
                polytope._simplices(PointConfig.from_points([(0, 0), (2, 0), (3, 0),
                                                             (0, 3), (1, 1)]), apex)

    @staticmethod
    def _parity_cases(corpus):
        """(config, apex) for every vertex of every corpus set (normalized up
        to each vertex as pivot) and of 300 random sets in d = 1..5."""
        configs = [normalize_config(raw, pivot=v) for _, raw, _ in corpus
                   for v in raw.extremal() if raw.size > 1]
        configs += [normalize_config(PointConfig.from_points(pts)) for pts in
                    random_configs(300, seed=27, max_dim=5, max_coord=2)]
        return [(cfg, v) for cfg in configs if cfg.dim for v in cfg.extremal()]

    def test_matches_facet_hulls(self, corpus):
        cases = self._parity_cases(corpus)
        assert len(cases) > 1000 and {cfg.dim for cfg, _ in cases} == {1, 2, 3, 4, 5}
        for cfg, apex in cases:
            expected = tuple(triangulate_by_facet_hulls(cfg.points, cfg.dim, apex))
            assert polytope._simplices(cfg, apex) == expected, (cfg.points, apex)

    def test_uses_the_one_hull(self, monkeypatch):
        # the faces come from the configuration's own hull: no other hull,
        # point set or lattice map is built on the way
        prism = normalize_config(PointConfig.from_points(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]))
        polytope._hull_cache.clear()
        convex_hull(prism)
        polytope._triangulation_cache.clear()

        def forbidden(*args):
            raise AssertionError("the triangulation left the one hull")

        for name in ("hermite_basis", "solve_in_lattice", "lattice_rank"):
            monkeypatch.setattr(lattice, name, forbidden)
        monkeypatch.setattr(PointConfig, "extremal", forbidden)
        monkeypatch.setattr(PointConfig, "__post_init__", forbidden)
        assert len(polytope._simplices(prism, (0, 0, 0))) == 3
        assert list(polytope._hull_cache) == [(prism.points, 3)]

    def test_flat_simplex_is_an_invariant_error(self, monkeypatch):
        polytope._volume_cache.clear()
        monkeypatch.setattr(polytope, "_simplices",
                            lambda config, apex: (((1, 0), (2, 0)),))
        with pytest.raises(InternalInvariantError):
            volumes(PointConfig.from_points([(0, 0), (2, 0), (0, 1)]))

    def test_face_without_vertex_is_an_invariant_error(self):
        # a forged hull that lists (0, 0) as its only vertex: the edge
        # through (2, 0), (1, 1), (0, 2) then holds none
        square = PointConfig.from_points([(0, 0), (2, 0), (0, 2), (1, 1)])
        poly = convex_hull(square)
        forged = dataclasses.replace(poly, extremal=((0, 0),))
        with pytest.raises(InternalInvariantError):
            polytope._triangulate(forged, frozenset(range(4)), 0)

    def test_volumes_add_up(self, corpus):
        for name, _, norm in corpus:
            d = norm.dim
            if d == 0:
                continue
            tri = triangulate_from_origin(norm)
            total = Fraction(0)
            for simplex in tri.simplices:
                total += Fraction(abs(determinant([list(p) for p in simplex])),
                                  math.factorial(d))
            assert total == volumes(norm).volume, name

    def test_vertices_extremal_and_independent(self, corpus):
        for name, _, norm in corpus:
            d = norm.dim
            if d == 0:
                continue
            ext = set(norm.extremal())
            for simplex in triangulate_from_origin(norm).simplices:
                assert set(simplex) <= ext, name
                assert determinant([list(p) for p in simplex]) != 0, name

    def test_dilate_points_covered(self, corpus):
        # every lattice point of 2H lies in at least one doubled simplex
        for name, _, norm in corpus:
            d = norm.dim
            if d == 0 or volumes(norm).width * 2 > 20:
                continue
            simplices = triangulate_from_origin(norm).simplices
            for x in array_to_points(dilate_points(norm, 2)):
                hit = False
                for simplex in simplices:
                    rows = [[p[k] for p in simplex] for k in range(d)]
                    solved = solve_rational(rows, list(x))
                    if solved is None:
                        continue
                    coeffs, rank = solved
                    if rank < len(simplex):
                        continue
                    if all(c >= 0 for c in coeffs) and sum(coeffs) <= 2:
                        hit = True
                        break
                assert hit, (name, x)


def _dilate_by_box_scan(config, n):
    """The lattice points of n*H by the plain-int box scan of its facets."""
    if config.dim == 0:
        return [()]
    facets = convex_hull(config).facets
    lo, hi = _dilate_box(config, n)
    return _box_scan_exact(lo, hi, [list(f.normal) for f in facets],
                           [n * f.offset for f in facets], True)


class TestDilateCounting:
    def test_interval_count_matches_cited_value(self):
        # R(N) = 5N + 1 for the interval [0, 5]; at N=4 this is 21
        assert count_dilate_points(A135, 4) == 21

    def test_square(self):
        assert count_dilate_points(SQUARE, 3) == 16

    def test_simplex(self):
        assert count_dilate_points(SIMPLEX, 4) == 15

    def test_enumerate_matches_count(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0:
                continue
            pts = array_to_points(dilate_points(norm, 3))
            assert len(pts) == count_dilate_points(norm, 3), name
            assert pts == sorted(pts), name

    @pytest.mark.parametrize("keys", ["int64", "object"])
    def test_matches_exact_box_scan(self, request, corpus, keys):
        # dilate_points and count_dilate_points share the homogenized scan
        # of {n} x (box of n*H), which needs no case of its own for d = 0
        if keys == "object":
            request.getfixturevalue("object_keys")
        point = normalize_config(PointConfig.from_points([(4, 7)]))
        assert point.dim == 0
        for name, norm in [(key, cfg) for key, _, cfg in corpus] + [("point", point)]:
            for n in (1, 2, 5):
                got = dilate_points(norm, n)
                want = _dilate_by_box_scan(norm, n)
                assert got.dtype == np.dtype(keys), (name, n)
                assert array_to_points(got) == want, (name, n)
                assert count_dilate_points(norm, n) == len(want), (name, n)

    def test_against_facet_oracle(self, corpus):
        for name, _, norm in corpus:
            if norm.dim == 0 or volumes(norm).width * 3 > 40:
                continue
            got = array_to_points(dilate_points(norm, 3))
            expected = sorted(dilate_points_by_facets(norm.points, norm.dim, 3))
            assert got == expected, name

    def test_ehrhart_interpolation(self, corpus):
        for name, _, norm in corpus:
            d = norm.dim
            if d == 0:
                continue
            counts = [count_dilate_points(norm, k) for k in range(1, d + 4)]
            poly = interpolate_consecutive(1, counts[:d + 2])
            assert poly.degree <= d, name
            assert poly(d + 3) == counts[d + 2], name

    def test_forms_beyond_int64_take_python_ints(self):
        # the box fits int64, a row's dot products (a linear form's values)
        # do not: the scan runs on Python ints, with the same points
        big = [[1 << 62, 1], [0, -1]]
        got = scan_box([0, 0], [3, 2], big, [(2 << 62) + 1, 0], True)
        assert got.dtype == np.dtype(object)
        points = [(x, y) for x in range(4) for y in range(3) if (x << 62) + y <= (2 << 62) + 1]
        assert array_to_points(got) == points
        assert scan_box([0, 0], [3, 2], big, [(2 << 62) + 1, 0], False) == len(points)
        small = scan_box([0, 0], [3, 2], big[1:], [0], True)
        assert small.dtype == np.dtype(np.int64) and len(small) == 12

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            count_dilate_points(A135, 1000, cap_points=100)

    def test_n_must_be_positive(self):
        with pytest.raises(PreconditionError):
            count_dilate_points(A135, 0)
