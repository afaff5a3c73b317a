"""Input-driven invariant suite behind the CLI ``verify`` command.

Each check asserts an exact identity or inequality that must hold for every
valid configuration; failures indicate a bug (or an impossible input) and
map to exit code 4. Checks that would blow the configured budgets are
reported as skipped rather than silently weakened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .circuits import (
    circuits,
    conformal_decompose,
    find_reduction,
    kernel_lattice,
    negative_part,
    positive_part,
    regular_decompose,
    support,
)
from .errors import BudgetExceededError
from .khovanskii import (
    enumerate_representations,
    khovanskii_bounds,
    khovanskii_threshold,
    minimal_obstructions,
    sumset_size_formula,
)
from .lattice import PointConfig, lattice_rank, normalize_config
from .polynomials import interpolate_consecutive
from .polytope import (
    convex_hull,
    count_dilate_points,
    facet_height_ratio,
    triangulate_from_origin,
    volumes,
)
from .structure import (
    structure_bounds,
    structure_levels,
    verify_extremal_decomposition,
)
from .sumsets import RegionSpec, iter_sumsets, sumset_arrays, sumset_iterate


@dataclass
class CheckResult:
    name: str
    status: str  # "ok" | "fail" | "skipped"
    detail: str = ""


def _check(name, fn, results):
    try:
        fn()
    except AssertionError as exc:
        results.append(CheckResult(name=name, status="fail", detail=str(exc)))
    except BudgetExceededError as exc:
        results.append(CheckResult(name=name, status="skipped", detail=str(exc)))
    except Exception as exc:  # noqa: BLE001 - verification must not crash
        results.append(CheckResult(name=name, status="fail",
                                   detail=f"{type(exc).__name__}: {exc}"))
    else:
        results.append(CheckResult(name=name, status="ok"))


def run_checks(config: PointConfig, cap_points: int = 10 ** 7,
               cap_weight: int | None = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    norm = normalize_config(config)
    d = norm.dim
    n = norm.size

    def normalize_idempotent():
        again = normalize_config(norm)
        assert again.points == norm.points, "normalization is not idempotent"
        assert again.normalization.basis is None and \
            not any(again.normalization.translation), "second pass transformed"

    _check("normalize_idempotent", normalize_idempotent, results)

    if d == 0:
        return results

    vol = volumes(norm)
    poly = convex_hull(norm)
    kappa = facet_height_ratio(norm)

    def hull_identities():
        assert vol.det_max <= math.factorial(d) * vol.volume, "det_max above d!*vol"
        assert vol.det_max ** 2 <= d ** d * vol.width ** (2 * d), \
            "det_max above Hadamard width bound"
        assert kappa <= Fraction(vol.det_max, vol.det_min), \
            "height ratio above det_max/det_min"

    _check("hull_identities", hull_identities, results)

    def kappa_cross_oracle():
        worst = Fraction(1)
        for facet in poly.facets:
            values = [abs(facet.dot(a) - facet.offset)
                      for i, a in enumerate(norm.points) if i not in facet.incident]
            if values:
                worst = max(worst, Fraction(max(values), min(values)))
        assert worst == kappa, f"distance-ratio {worst} != determinant-ratio {kappa}"

    _check("kappa_cross_oracle", kappa_cross_oracle, results)

    def negative_coefficients():
        for facet in poly.outer_facets:
            for a in norm.points:
                assert facet.beta_value(a) >= 1 - kappa, \
                    f"beta({a}) below 1 - kappa on facet {facet.normal}"

    _check("negative_coefficients", negative_coefficients, results)

    def triangulation_volume():
        tri = triangulate_from_origin(norm)
        total = Fraction(0)
        from .lattice import determinant
        for simplex in tri.simplices:
            rows = [list(p) for p in simplex]
            total += Fraction(abs(determinant(rows)), math.factorial(d))
        assert total == vol.volume, f"simplex volumes {total} != hull volume {vol.volume}"

    _check("triangulation_volume", triangulation_volume, results)

    def ehrhart_interpolation():
        counts = [count_dilate_points(norm, k, cap_points=cap_points)
                  for k in range(1, d + 4)]
        fitted = interpolate_consecutive(1, counts[:d + 2])
        assert fitted.degree <= d, "dilate counts need degree above d"
        assert fitted(d + 3) == counts[d + 2], "dilate count interpolation mismatch"

    _check("ehrhart_interpolation", ehrhart_interpolation, results)

    circ = circuits(norm)

    def circuit_heights():
        for u in circ:
            assert max(abs(v) for v in u) <= vol.det_max, \
                f"circuit {u} above the determinant height bound"

    _check("circuit_heights", circuit_heights, results)

    def circuit_order_independence():
        shuffled = PointConfig.from_points(list(reversed(norm.points)), d)
        perm = [shuffled.points.index(p) for p in norm.points]
        remapped = set()
        for u in circuits(shuffled):
            vec = [0] * n
            for j, idx in enumerate(perm):
                vec[j] = u[idx]
            first = next((v for v in vec if v), 1)
            if first < 0:
                vec = [-v for v in vec]
            remapped.add(tuple(vec))
        assert remapped == set(circ), "circuits depend on the point order"

    _check("circuit_order_independence", circuit_order_independence, results)

    obs = minimal_obstructions(norm, max_weight=cap_weight)

    def obstruction_bounds():
        for m in obs.elements:
            assert max(m) <= n * vol.det_max, \
                f"minimal element {m} above the size bound"
            h = sum(m)
            x = norm.combine(m)
            lexmin = enumerate_representations(norm, x, h)[0]
            assert not (set(support(m)) & set(support(lexmin))), \
                f"minimal element {m} shares support with its class minimum"

    _check("obstruction_bounds", obstruction_bounds, results)

    kernel = kernel_lattice(norm)

    def conformal_decomposition():
        samples = []
        for b in kernel:
            samples.append(b)
            samples.append(tuple(-v for v in b))
            samples.append(tuple(3 * v for v in b))
        for b1, b2 in combinations(kernel, 2):
            samples.append(tuple(x + y for x, y in zip(b1, b2)))
            samples.append(tuple(2 * x - y for x, y in zip(b1, b2)))
        for v in samples:
            if not any(v):
                continue
            terms = conformal_decompose(norm, v)
            assert len(terms) <= len(support(v)), "too many conformal terms"
            pos = [Fraction(0)] * n
            for lam, u in terms:
                assert lam > 0
                up = positive_part(u)
                un = negative_part(u)
                assert set(support(up)) <= set(support(positive_part(v)))
                assert set(support(un)) <= set(support(negative_part(v)))
                for i, val in enumerate(up):
                    pos[i] += lam * val
            assert pos == [Fraction(max(x, 0)) for x in v], \
                "positive parts do not add up"

    _check("conformal_decomposition", conformal_decomposition, results)

    def growth_and_formula():
        top = min(10, khovanskii_bounds(norm).sharp)
        table = sumset_iterate(norm, top, cap_points=cap_points)
        sizes = table.sizes()
        assert sizes[0] == n, "|1A| must equal the point count"
        assert all(a <= b for a, b in zip(sizes, sizes[1:])), \
            "growth must be nondecreasing once 0 is a point"
        for k in range(1, top + 1):
            assert sizes[k - 1] <= count_dilate_points(norm, k, cap_points=cap_points), \
                "sumset exceeds its dilated hull count"
        if obs.exact:
            for h in range(1, top + 1):
                assert sumset_size_formula(norm, obs, h) == sizes[h - 1], \
                    f"size formula mismatch at N={h}"

    _check("growth_and_formula", growth_and_formula, results)

    def threshold_under_bound():
        result = khovanskii_threshold(norm, max_weight=cap_weight,
                                      cap_points=cap_points)
        assert result.value <= khovanskii_bounds(norm).sharp, \
            "onset threshold above its proven bound"
        assert result.polynomial.degree <= d

    _check("threshold_under_bound", threshold_under_bound, results)

    def structure_inclusion():
        bounds = structure_bounds(norm)
        top = min(8, min(bounds.bound_a, bounds.bound_b) + 2)
        # structure_levels builds the vertex sieves once for the window
        levels = zip(structure_levels(norm, top, cap_points=cap_points),
                     sumset_arrays(norm, top))
        for k, (report, pts) in enumerate(levels, start=1):
            assert not report.extra, f"extra points at N={k}: {report.extra[:3]}"
            rhs_size = len(pts) + len(report.missing)
            assert rhs_size <= count_dilate_points(norm, k, cap_points=cap_points)

    _check("structure_inclusion", structure_inclusion, results)

    def reduction_exchange():
        det_max = vol.det_max
        outer_sets = [set(norm.points[i] for i in f.incident)
                      for f in poly.outer_facets]
        tried = 0
        nonzero = [p for p in norm.points if any(p)]
        for size in range(1, d + 1):
            for sub in combinations(nonzero, size):
                if lattice_rank(sub) != len(sub):
                    continue
                if any(set(sub) <= s for s in outer_sets):
                    continue
                lam, rho = find_reduction(norm, sub)
                left = norm.combine([lam.get(p, 0) for p in norm.points])
                right = norm.combine([rho.get(p, 0) for p in norm.points])
                assert left == right, "reduction sides differ"
                assert sum(lam.values()) > sum(rho.values()), "no weight drop"
                assert all(v <= det_max for v in list(lam.values()) + list(rho.values()))
                tried += 1
                if tried >= 12:
                    return

    _check("reduction_exchange", reduction_exchange, results)

    def regular_representation():
        det_max = vol.det_max
        sample = None
        for sample in iter_sumsets(norm, min(4, khovanskii_bounds(norm).sharp)):
            pass
        for v in sample[: min(len(sample), 20)]:
            u_rep, w_rep, facet_id = regular_decompose(norm, v)
            total = [0] * d
            for a, c in list(u_rep.items()) + list(w_rep.items()):
                for k in range(d):
                    total[k] += c * a[k]
            assert tuple(total) == v, "decomposition does not resum"
            assert all(c <= det_max - 1 for c in u_rep.values()), \
                "loose coefficients above det_max - 1"
            if facet_id is not None and w_rep:
                incident = {norm.points[i] for i in poly.facets[facet_id].incident}
                assert set(w_rep) <= incident, "facet part leaves its facet"

    _check("regular_representation", regular_representation, results)

    def extremal_decomposition():
        side = 8
        region = RegionSpec.box([(0, side)] * d) if all(
            c >= 0 for p in norm.points for c in p) else RegionSpec.box(
            [(-side, side)] * d)
        ok, witnesses = verify_extremal_decomposition(norm, region,
                                                      cap_points=cap_points)
        assert ok, f"decomposition mismatch at {witnesses[:3]}"

    _check("extremal_decomposition", extremal_decomposition, results)

    return results
