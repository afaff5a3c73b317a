"""Machine-readable reports: canonical JSON/CSV/text rendering.

Rationals render as "p/q" strings (plain integers when the denominator is
1); integers too large for exact float-safe JSON render as a decimal string
plus digit count, and integers of more than MAX_DECIMAL_DIGITS digits as
their exact digit count plus their leading LEADING_DIGITS digits.  JSON
output uses sorted keys and LF endings so identical inputs produce
byte-identical reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .khovanskii import (
    khovanskii_bounds,
    khovanskii_polynomial,
    khovanskii_threshold,
)
from .lattice import PointConfig, normalize_config
from .polytope import (
    convex_hull,
    facet_height_ratio,
    triangulate_from_origin,
    volumes,
)
from .circuits import circuits
from .structure import structure_bounds, structure_threshold
from .sumsets import sumset_levels

_FLOAT_SAFE = 1 << 53
# integers with more digits render as a digit count plus leading digits
MAX_DECIMAL_DIGITS = 4300
LEADING_DIGITS = 24


def render_rational(value):
    f = Fraction(value)
    if f.denominator == 1:
        return render_int(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _decimal_digits(v: int) -> tuple[int, int]:
    """(digits, 10**digits) for v > 0: the count by comparison with powers of ten."""
    # 30102/100000 < log10(2), so the first estimate never exceeds the count
    digits = (v.bit_length() - 1) * 30102 // 100000 + 1
    power = 10 ** digits
    while power <= v:
        power *= 10
        digits += 1
    return digits, power


def render_int(value: int):
    v = int(value)
    if abs(v) < _FLOAT_SAFE:
        return v
    digits, power = _decimal_digits(abs(v))
    if digits <= MAX_DECIMAL_DIGITS:
        return {"decimal": str(v), "digits": digits}
    leading = abs(v) // (power // 10 ** LEADING_DIGITS)
    return {"digits": digits, "leading": ("-" if v < 0 else "") + str(leading)}


def render_point(p):
    return list(p)


@dataclass
class Caps:
    cap_points: int = 10 ** 7
    cap_weight: int | None = None
    max_n: int | None = None


def geometry_section(config: PointConfig) -> dict:
    poly = convex_hull(config)
    v = volumes(config)
    return {
        "volume": render_rational(v.volume),
        "det_max": render_int(v.det_max),
        "det_min": render_int(v.det_min),
        "width": v.width,
        "facet_height_ratio": render_rational(facet_height_ratio(config)),
        "extremal_count": len(poly.extremal),
        "extremal": [render_point(p) for p in poly.extremal],
        "outer_facets": [
            {"coefficients": [render_rational(c) for c in f.coefficients],
             "incident": [render_point(config.points[i]) for i in f.incident]}
            for f in poly.outer_facets
        ],
        "inner_facets": [
            {"coefficients": [render_rational(c) for c in f.coefficients],
             "incident": [render_point(config.points[i]) for i in f.incident]}
            for f in poly.inner_facets
        ],
    }


def khovanskii_section(config: PointConfig, caps: Caps, route: str) -> tuple[dict, bool]:
    partial = False
    bounds = khovanskii_bounds(config)
    section: dict = {
        "bound_sharp": render_int(bounds.sharp),
        "bound_coarse": render_int(bounds.coarse),
    }
    threshold = khovanskii_threshold(
        config, max_weight=caps.cap_weight, cap_points=caps.cap_points,
        max_n=caps.max_n)
    obs = threshold.obstructions
    if obs is not None:
        section["obstructions"] = {
            "count": len(obs.elements),
            "status": obs.status,
            "weight_scanned": obs.weight_scanned,
            "weight_required": render_int(obs.weight_required),
        }
        partial |= not obs.exact
    # the threshold's polynomial serves auto, and formula when it came from there
    if route == "auto" or route == threshold.route == "formula":
        poly = threshold.polynomial
    else:
        poly = khovanskii_polynomial(config, route=route, obstructions=obs,
                                     cap_points=caps.cap_points)
    section["polynomial"] = str(poly)
    section["polynomial_coefficients"] = [
        render_rational(c) for c in poly.coefficients]
    section["threshold"] = threshold.value
    section["threshold_status"] = threshold.status
    section["threshold_window_top"] = render_int(threshold.bound)
    partial |= threshold.status != "exact"
    return section, partial


def structure_section(config: PointConfig, caps: Caps) -> tuple[dict, bool]:
    partial = False
    bounds = structure_bounds(config)
    section: dict = {
        "bound_a": render_int(bounds.bound_a),
        "bound_b": render_int(bounds.bound_b),
        "bound_clean": render_int(bounds.clean),
        "bound_coarse": render_int(bounds.coarse),
    }
    result = structure_threshold(config, cap_points=caps.cap_points,
                                 max_n=caps.max_n)
    section["threshold"] = result.value
    section["threshold_status"] = result.status
    section["threshold_window_top"] = result.window_top
    section["failing_levels"] = list(result.failing_levels)
    partial |= result.status != "exact"
    return section, partial


def normalization_section(config: PointConfig, normalized: PointConfig) -> dict:
    norm = normalized.normalization
    return {
        "source_dim": config.dim,
        "reduced_dim": normalized.dim,
        "translation": render_point(norm.translation),
        "basis": None if norm.basis is None else [render_point(r) for r in norm.basis],
        "points": [render_point(p) for p in normalized.points],
    }


def build_analysis(config: PointConfig, caps: Caps, route: str = "auto",
                   pivot=None, with_timing: bool = False) -> tuple[dict, bool]:
    """The full analysis report for one configuration; returns (report, partial)."""
    timings = {}
    start = time.perf_counter()
    normalized = normalize_config(config, pivot=pivot)
    timings["normalize_s"] = time.perf_counter() - start
    report = {
        "input": {
            "dim": config.dim,
            "points": [render_point(p) for p in config.points],
        },
        "normalization": normalization_section(config, normalized),
    }
    t0 = time.perf_counter()
    report["geometry"] = geometry_section(normalized)
    timings["geometry_s"] = time.perf_counter() - t0
    partial = False
    t0 = time.perf_counter()
    section, p = khovanskii_section(normalized, caps, route)
    report["khovanskii"] = section
    partial |= p
    timings["khovanskii_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    section, p = structure_section(normalized, caps)
    report["structure"] = section
    partial |= p
    timings["structure_s"] = time.perf_counter() - t0
    report["partial"] = partial
    if with_timing:
        report["timing"] = {k: round(v, 6) for k, v in timings.items()}
    return report, partial


def growth_report(config: PointConfig, caps: Caps, emit_points: bool) -> tuple[dict, bool]:
    """|NA| per level; with ``emit_points`` each row's "points" is the
    level's point array, which the writers render as its ``tolist()``."""
    n_max = caps.max_n if caps.max_n is not None else 10
    rows = []
    partial = False
    try:
        for n, (size, pts) in enumerate(
                sumset_levels(config, n_max, caps.cap_points, emit_points), start=1):
            row = {"n": n, "size": size}
            if emit_points:
                row["points"] = pts
            rows.append(row)
    except BudgetExceededError:
        partial = True
    return {"growth": rows, "partial": partial}, partial


def circuits_report(config: PointConfig) -> dict:
    return {
        "points": [render_point(p) for p in config.points],
        "circuits": [list(c) for c in circuits(config)],
    }


def triangulate_report(config: PointConfig) -> dict:
    tri = triangulate_from_origin(config)
    return {
        "simplices": [[render_point(p) for p in simplex]
                      for simplex in tri.simplices],
    }


def bounds_report(config: PointConfig) -> dict:
    kb = khovanskii_bounds(config)
    sb = structure_bounds(config)
    return {
        "khovanskii": {
            "sharp": render_int(kb.sharp),
            "coarse": render_int(kb.coarse),
        },
        "structure": {
            "bound_a": render_int(sb.bound_a),
            "bound_b": render_int(sb.bound_b),
            "clean": render_int(sb.clean),
            "coarse": render_int(sb.coarse),
        },
    }


def to_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) plus a newline, faster.

    With an indent, json.dumps runs the pure-Python encoder.  This writer
    lays out the same indentation itself and leaves every scalar to
    json.dumps.  An ndarray is written as its ``tolist()`` would be (see
    _array_json).
    """
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append the JSON text of value; ``newline`` carries the current indent."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
        elif not all(type(k) is str for k in value):
            # json.dumps coerces and orders other keys its own way
            out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))
        else:
            sep = "{" + inner
            for key in sorted(value):
                out += (sep, json.dumps(key), ": ")
                _write_json(value[key], inner, out)
                sep = "," + inner
            out.append(newline + "}")
    elif isinstance(value, np.ndarray):
        out.append(_array_json(value, newline))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _array_json(arr: np.ndarray, newline: str | None) -> str:
    """json.dumps(arr.tolist()), laid out as json.dumps(indent=2) lays it out
    at the depth that ``newline`` carries, or on one line when it is None.

    A 2-D array of integer dtype (a level of growth points) is filled into
    one %-template from its flat entries, so no row becomes a list.
    """
    if arr.ndim != 2 or arr.dtype.kind not in "iu":
        if newline is None:
            return json.dumps(arr.tolist())
        return json.dumps(arr.tolist(), indent=2).replace("\n", newline)
    rows, width = arr.shape
    if not rows:
        return "[]"
    if newline is None:
        head, sep, tail = "[", ", ", "]"
        row = "[" + ", ".join(["%d"] * width) + "]"
    else:
        inner = newline + "  "
        head, sep, tail = "[" + inner, "," + inner, newline + "]"
        row = "[" + inner + "  " + ("," + inner + "  ").join(["%d"] * width) + inner + "]"
    if not width:
        row = "[]"
    return (head + sep.join([row] * rows) + tail) % tuple(arr.ravel().tolist())


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        rows.append((prefix, json.dumps(value, sort_keys=True)))
    else:
        rows.append((prefix, value))


def to_csv(report: dict) -> str:
    growth = report.get("growth")
    if growth is not None and all(set(r) <= {"n", "size", "points"} for r in growth):
        lines = ["n,size"]
        lines += [f"{r['n']},{r['size']}" for r in growth]
        return "\n".join(lines) + "\n"
    rows: list = []
    _flatten("", report, rows)
    lines = ["key,value"]
    for key, value in rows:
        text = json.dumps(value) if isinstance(value, str) else str(value)
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def to_text(report: dict, indent: int = 0) -> str:
    lines: list[str] = []

    def emit(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in sorted(value):
                emit(k, value[k], depth + 1)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  -")
                for k in sorted(item):
                    emit(k, item[k], depth + 2)
        else:
            # an ndarray anywhere in the value is written as its tolist()
            text = (_array_json(value, None) if isinstance(value, np.ndarray)
                    else json.dumps(value, sort_keys=True, default=np.ndarray.tolist))
            lines.append(f"{pad}{key}: {text}")

    for k in sorted(report):
        emit(k, report[k], indent)
    return "\n".join(lines) + "\n"


def serialize(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown format {fmt!r}")
