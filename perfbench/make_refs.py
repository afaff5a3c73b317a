"""Regenerate the committed reference answers in perfbench/refs/.

    python3 perfbench/make_refs.py

Answers come from direct library calls (thresholds, bounds, sumsets,
circuits, triangulations), not from the CLI, so inputs whose CLI path
crashes still get a reference.  They are rendered as ``answers.py`` reduces
CLI reports, for the base inputs of the default draw seed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from answers import big, points_digest, rational, ref_key  # noqa: E402
from sumsetlab import (  # noqa: E402
    PointConfig,
    circuits,
    convex_hull,
    facet_height_ratio,
    khovanskii_bounds,
    khovanskii_polynomial,
    khovanskii_threshold,
    normalize_config,
    structure_bounds,
    structure_threshold,
    sumset_iterate,
    triangulate_from_origin,
    volumes,
)

CAP_POINTS = 10 ** 7  # the CLI's default --cap-points


def khovanskii_expected(config, route="auto"):
    bounds = khovanskii_bounds(config)
    result = khovanskii_threshold(config, cap_points=CAP_POINTS)
    poly = (khovanskii_polynomial(config, route="interpolation", cap_points=CAP_POINTS)
            if route == "interpolation" else result.polynomial)
    obs = result.obstructions
    answer = {
        "polynomial_coefficients": [rational(c) for c in poly.coefficients],
        "threshold": result.value,
        "threshold_status": result.status,
        "threshold_window_top": big(result.bound),
        "bound_sharp": big(bounds.sharp),
        "bound_coarse": big(bounds.coarse),
        "obstructions": None if obs is None else {
            "count": len(obs.elements), "status": obs.status,
            "weight_scanned": obs.weight_scanned,
            "weight_required": big(obs.weight_required),
        },
    }
    partial = (obs is not None and not obs.exact) or result.status != "exact"
    return answer, partial


def structure_expected(config):
    bounds = structure_bounds(config)
    result = structure_threshold(config, cap_points=CAP_POINTS)
    answer = {
        "bound_a": big(bounds.bound_a), "bound_b": big(bounds.bound_b),
        "bound_clean": big(bounds.clean), "bound_coarse": big(bounds.coarse),
        "threshold": result.value, "threshold_status": result.status,
        "threshold_window_top": result.window_top,
        "failing_levels": list(result.failing_levels),
    }
    return answer, result.status != "exact"


def expected(argv, points):
    config = PointConfig.from_points([tuple(p) for p in points])
    normalized = normalize_config(config)
    command = argv[0]
    if command == "analyze":
        v = volumes(normalized)
        kh, kh_partial = khovanskii_expected(normalized)
        st, st_partial = structure_expected(normalized)
        return {
            "normalized_points": [list(p) for p in normalized.points],
            "geometry": {
                "volume": rational(v.volume), "det_max": big(v.det_max),
                "det_min": big(v.det_min), "width": v.width,
                "extremal_count": len(convex_hull(normalized).extremal),
                "facet_height_ratio": rational(facet_height_ratio(normalized)),
            },
            "khovanskii": kh, "structure": st, "partial": kh_partial or st_partial,
        }
    if command == "khovanskii":
        route = argv[argv.index("--route") + 1] if "--route" in argv else "auto"
        kh, partial = khovanskii_expected(normalized, route)
        return {"khovanskii": kh, "partial": partial}
    if command == "growth":
        n_max = int(argv[argv.index("--max-n") + 1])
        emit = "--emit-points" in argv
        table = sumset_iterate(config, n_max, keep_points=emit, cap_points=CAP_POINTS)
        answer = {"sizes": table.sizes(), "partial": False}
        if emit:
            answer["points_sha256"] = [points_digest([list(p) for p in rec.points])
                                       for rec in table.records]
        return answer
    if command == "circuits":
        return {"points": [list(p) for p in normalized.points],
                "circuits": [list(c) for c in circuits(normalized)]}
    if command == "triangulate":
        tri = triangulate_from_origin(normalized)
        return {"simplices": [[list(p) for p in s] for s in tri.simplices]}
    if command == "bounds":
        kb, sb = khovanskii_bounds(normalized), structure_bounds(normalized)
        return {"khovanskii": {"sharp": big(kb.sharp), "coarse": big(kb.coarse)},
                "structure": {"bound_a": big(sb.bound_a), "bound_b": big(sb.bound_b),
                              "clean": big(sb.clean), "coarse": big(sb.coarse)}}
    raise ValueError(f"no reference for {command!r}")


def main():
    sys.set_int_max_str_digits(0)
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    for name in workloads.WORKLOADS:
        refs = {}
        for group in workloads.WORKLOADS[name](workloads.DRAW_SEED):
            for req in group:
                refs[ref_key(req["argv"], req["points"])] = expected(
                    req["argv"], req["points"])
        with open(os.path.join(HERE, "refs", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(refs)} references", flush=True)


if __name__ == "__main__":
    main()
