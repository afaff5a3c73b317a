"""Answers: what a report says, what the references say, and invariants.

A report is reduced to its answer: values, not bytes.  Rationals compare as
fractions; integers past 2^53 reduce to digit count, leading digits and a
hash of the full decimal when the report carries it, so a later compact
rendering of huge integers still compares.  ``make_refs.py`` builds the same
answers from direct library calls.  Requests without a committed reference
are checked against invariants instead.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# Callers lift the interpreter's int/str digit limit (sys.set_int_max_str_digits)
# before reducing huge integers; the program under test keeps its default.
_FLOAT_SAFE = 1 << 53
LEAD = 24


def ref_key(argv, points) -> str:
    return json.dumps([list(argv), sorted(list(p) for p in points)])


def big(value):
    """Canonical form of an integer as a report renders it (int or dict)."""
    if isinstance(value, dict):
        if "decimal" in value:
            return big(int(value["decimal"]))
        lead = next((str(v) for k, v in value.items() if k.startswith("lead")), "")
        return {"digits": value["digits"], "lead": lead.lstrip("-")[:LEAD]}
    value = int(value)
    if abs(value) < _FLOAT_SAFE:
        return value
    text = str(abs(value))
    return {"digits": len(text), "lead": text[:LEAD],
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def rational(value) -> str:
    if isinstance(value, dict):
        value = int(value["decimal"])
    return str(Fraction(value))


def points_digest(points) -> str:
    return hashlib.sha256(json.dumps(points, separators=(",", ":")).encode()).hexdigest()


def same(expected, got) -> bool:
    if isinstance(expected, dict) and isinstance(got, dict):
        if "digits" in expected and "digits" in got:
            if expected["digits"] != got["digits"]:
                return False
            a, b = expected["lead"], got["lead"]
            if not (a.startswith(b) or b.startswith(a)):
                return False
            a, b = expected.get("sha256"), got.get("sha256")
            return a is None or b is None or a == b
        return (expected.keys() == got.keys()
                and all(same(expected[k], got[k]) for k in expected))
    if isinstance(expected, list) and isinstance(got, list):
        return len(expected) == len(got) and all(map(same, expected, got))
    return expected == got


def mismatches(expected, got, path="") -> list[str]:
    """Field paths where ``got`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(got, dict) and "digits" not in expected:
        out = []
        for k in expected.keys() | got.keys():
            if k not in expected or k not in got:
                out.append(f"{path}.{k}")
            else:
                out += mismatches(expected[k], got[k], f"{path}.{k}")
        return out
    return [] if same(expected, got) else [path or "."]


# --- answers from a report -------------------------------------------------

def khovanskii_answer(sec) -> dict:
    obs = sec.get("obstructions")
    return {
        "polynomial_coefficients": [rational(c) for c in sec["polynomial_coefficients"]],
        "threshold": sec["threshold"],
        "threshold_status": sec["threshold_status"],
        "threshold_window_top": big(sec["threshold_window_top"]),
        "bound_sharp": big(sec["bound_sharp"]),
        "bound_coarse": big(sec["bound_coarse"]),
        "obstructions": None if obs is None else {
            "count": obs["count"], "status": obs["status"],
            "weight_scanned": obs["weight_scanned"],
            "weight_required": big(obs["weight_required"]),
        },
    }


def structure_answer(sec) -> dict:
    return {
        "bound_a": big(sec["bound_a"]), "bound_b": big(sec["bound_b"]),
        "bound_clean": big(sec["bound_clean"]), "bound_coarse": big(sec["bound_coarse"]),
        "threshold": sec["threshold"], "threshold_status": sec["threshold_status"],
        "threshold_window_top": sec["threshold_window_top"],
        "failing_levels": sec["failing_levels"],
    }


def geometry_answer(sec) -> dict:
    return {
        "volume": rational(sec["volume"]), "det_max": big(sec["det_max"]),
        "det_min": big(sec["det_min"]), "width": sec["width"],
        "extremal_count": sec["extremal_count"],
        "facet_height_ratio": rational(sec["facet_height_ratio"]),
    }


def report_answer(argv, report) -> dict:
    command = argv[0]
    if command == "analyze":
        return {
            "normalized_points": report["normalization"]["points"],
            "geometry": geometry_answer(report["geometry"]),
            "khovanskii": khovanskii_answer(report["khovanskii"]),
            "structure": structure_answer(report["structure"]),
            "partial": report["partial"],
        }
    if command == "khovanskii":
        return {"khovanskii": khovanskii_answer(report["khovanskii"]),
                "partial": report["partial"]}
    if command == "growth":
        answer = {"sizes": [row["size"] for row in report["growth"]],
                  "partial": report["partial"]}
        if "--emit-points" in argv:
            answer["points_sha256"] = [points_digest(row["points"])
                                       for row in report["growth"]]
        return answer
    if command == "circuits":
        return {"points": report["points"], "circuits": report["circuits"]}
    if command == "triangulate":
        return {"simplices": report["simplices"]}
    if command == "bounds":
        return {part: {k: big(v) for k, v in report[part].items()}
                for part in ("khovanskii", "structure")}
    raise ValueError(f"no answer extractor for {command!r}")


# --- invariants, for requests without a reference --------------------------

def _int(value) -> int:
    return int(value["decimal"]) if isinstance(value, dict) else int(value)


def _poly(coefficients):
    cs = [Fraction(c) for c in coefficients]
    return lambda x: sum(c * x ** i for i, c in enumerate(cs))


def invariant_problems(argv, report, points) -> list[str]:
    """Invariants every correct report satisfies, for unreferenced inputs."""
    from sumsetlab import (PointConfig, iter_sumsets, khovanskii_threshold,
                           normalize_config, volumes)
    from sumsetlab.lattice import determinant

    config = normalize_config(PointConfig.from_points([tuple(p) for p in points]))
    problems = []
    command = argv[0]
    kh = report.get("khovanskii") if command in ("analyze", "khovanskii") else None
    if kh is not None:
        t, top, sharp = kh["threshold"], _int(kh["threshold_window_top"]), _int(kh["bound_sharp"])
        if not t <= top <= sharp:
            problems.append(f"threshold {t} <= window top {top} <= sharp {sharp} fails")
        if kh["threshold_status"] == "exact":
            poly = _poly(kh["polynomial_coefficients"])
            for n, pts in enumerate(iter_sumsets(config, t + 2), start=1):
                if n >= t and len(pts) != poly(n):
                    problems.append(f"|{n}A| = {len(pts)} but the polynomial gives {poly(n)}")
                if n == t - 1 and len(pts) == poly(n):
                    problems.append(f"the polynomial already holds at N={n}, below the threshold")
    if command == "analyze":
        st = report["structure"]
        cap = min(_int(st["bound_a"]), _int(st["bound_b"]))
        if st["threshold_status"] == "exact" and st["threshold"] > cap:
            problems.append(f"structure threshold {st['threshold']} above min bound {cap}")
    elif command == "growth":
        result = khovanskii_threshold(config)
        for n, size in enumerate((row["size"] for row in report["growth"]), start=1):
            if n >= result.value and size != result.polynomial(n):
                problems.append(f"|{n}A| = {size} off the growth polynomial")
    elif command == "circuits":
        pts = report["points"]
        for c in report["circuits"]:
            if sum(c) or any(sum(v * p[k] for v, p in zip(c, pts))
                             for k in range(len(pts[0]))):
                problems.append(f"circuit {c} is not a kernel vector")
    elif command == "triangulate":
        d = config.dim
        total = sum(Fraction(abs(determinant([list(v) for v in simplex])), 1)
                    for simplex in report["simplices"])
        for k in range(2, d + 1):
            total /= k
        if total != volumes(config).volume:
            problems.append(f"simplex volumes add to {total}, not the hull volume")
    elif command == "bounds":
        for part in ("khovanskii", "structure"):
            problems += [f"{part}.{k} < 1" for k, v in report[part].items() if _int(v) < 1]
    return problems
