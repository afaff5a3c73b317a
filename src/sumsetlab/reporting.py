"""Machine-readable reports: canonical JSON/CSV/text rendering.

Rationals render as "p/q" strings (plain integers when the denominator is
1); integers too large for exact float-safe JSON render as a decimal string
plus digit count, and integers of more than MAX_DECIMAL_DIGITS digits as
their exact digit count plus their leading LEADING_DIGITS digits.
render_int also takes a value as a power (base, exponent), which the
coarse bounds use: their digits are bounded from the pair, and the power
itself is built only when it prints in full.  JSON output uses sorted
keys and LF endings so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import kernels
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


# values of at most this many bits print in full: 2**14000 < 10**4215
_EXACT_BITS = 14000


def _power_chain(base: int, exponent: int, bits: int, up: bool) -> tuple[int, int]:
    """(m, s) with m * 2**s <= base**exponent, or >= when ``up``, and m of at
    most ``bits`` bits: square-and-multiply that rounds every product down
    (or up) to ``bits`` bits.  base >= 1, exponent >= 0."""

    def trim(m: int, s: int) -> tuple[int, int]:
        cut = m.bit_length() - bits
        if cut <= 0:
            return m, s
        return (-(-m >> cut) if up else m >> cut), s + cut

    b, b_shift = trim(base, 0)
    m, s = 1, 0
    for bit in bin(exponent)[2:]:
        m, s = trim(m * m, 2 * s)
        if bit == "1":
            m, s = trim(m * b, s + b_shift)
    return m, s


def _floor_ratio(num: tuple[int, int], den: tuple[int, int]) -> int:
    """floor((m1 * 2**s1) / (m2 * 2**s2)) for num = (m1, s1), den = (m2, s2)."""
    (m1, s1), (m2, s2) = num, den
    if s1 >= s2:
        return (m1 << (s1 - s2)) // m2
    return m1 // (m2 << (s2 - s1))


def _digits_and_leading(base: int, exponent: int) -> tuple[int, str]:
    """The decimal digit count of base**exponent and its first LEADING_DIGITS
    digits, for base**exponent > 2**_EXACT_BITS.

    The floor and ceiling chains of _power_chain bracket base**exponent and
    10**k, for k about 40 digits below the count, which bounds
    q = floor(base**exponent / 10**k) between two integers of some 40
    digits.  When both have the same length and the same first
    LEADING_DIGITS digits, so has q, and the count is k plus its length.
    Otherwise, as at exact powers of ten, q comes from exact division.
    Each chain rounds about 2*log2(exponent) times by a relative 2**(1 - bits),
    and the squarings after a rounding scale it by at most the exponent, so
    with bits = 256 + 2*log2(exponent) the bracket is far below one unit of q.
    """
    bits = 256 + 2 * exponent.bit_length()
    lo = _power_chain(base, exponent, bits, False)
    hi = _power_chain(base, exponent, bits, True)
    # 30102/100000 < log10(2): base**exponent has more than k + 40 digits
    k = max(0, (lo[0].bit_length() + lo[1] - 1) * 30102 // 100000 - 40)
    q_lo = str(_floor_ratio(lo, _power_chain(10, k, bits, True)))
    q_hi = str(_floor_ratio(hi, _power_chain(10, k, bits, False)))
    if len(q_lo) != len(q_hi) or q_lo[:LEADING_DIGITS] != q_hi[:LEADING_DIGITS]:
        q_lo = _exact_quotient(base, exponent, k)
    return k + len(q_lo), q_lo[:LEADING_DIGITS]


def _exact_quotient(base: int, exponent: int, k: int) -> str:
    """The decimal digits of floor(base**exponent / 10**k), exactly."""
    return str(base ** exponent // 10 ** k)


def render_int(value: int, exponent: int = 1):
    """The report form of value**exponent, without building it when it is
    too large to print in full.

    Float-safe values stay plain ints, values of at most MAX_DECIMAL_DIGITS
    digits become {"decimal", "digits"}, and larger ones {"digits",
    "leading"}, whose digit count and leading digits come from
    _digits_and_leading on the base and exponent.  A plain int is value**1.
    """
    v, e = int(value), int(exponent)
    base = abs(v)
    if base < 2 or e * base.bit_length() <= _EXACT_BITS:
        power = v ** e
        if abs(power) < _FLOAT_SAFE:
            return power
        text = str(power)
        return {"decimal": text, "digits": len(text) - (power < 0)}
    digits, leading = _digits_and_leading(base, e)
    if digits <= MAX_DECIMAL_DIGITS:
        return {"decimal": str(v ** e), "digits": digits}
    sign = "-" if v < 0 and e % 2 else ""
    return {"digits": digits, "leading": sign + leading}


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
        "bound_coarse": render_int(*bounds.coarse_power),
    }
    threshold = khovanskii_threshold(
        config, max_weight=caps.cap_weight, cap_points=caps.cap_points,
        max_n=caps.max_n)
    obs = threshold.obstructions
    section["obstructions"] = {
        "count": len(obs.elements),
        "status": obs.status,
        "weight_scanned": obs.weight_scanned,
        "weight_required": render_int(obs.weight_required),
    }
    partial |= not obs.exact
    # the threshold's polynomial serves auto, and its own route when exact
    if route == "auto" or (route == threshold.route and threshold.status == "exact"):
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
        "bound_coarse": render_int(*bounds.coarse_power),
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
        "basis": [render_point(r) for r in norm.basis] if norm.basis else None,
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
    level as its keys in the key box of the walk (kernels.PackedPoints),
    which the writers render as the rows of its points, lexicographically
    sorted.  Under ``max_n`` 0 the table is empty."""
    n_max = caps.max_n if caps.max_n is not None else 10
    rows = []
    partial = False
    try:
        for n, (size, level) in enumerate(
                sumset_levels(config, n_max, caps.cap_points) if n_max else (), start=1):
            row = {"n": n, "size": size}
            if emit_points:
                row["points"] = level()
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
            "coarse": render_int(*kb.coarse_power),
        },
        "structure": {
            "bound_a": render_int(sb.bound_a),
            "bound_b": render_int(sb.bound_b),
            "clean": render_int(sb.clean),
            "coarse": render_int(*sb.coarse_power),
        },
    }


def to_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) plus a newline, faster.

    With an indent, json.dumps runs the pure-Python encoder.  This writer
    lays out the same indentation itself, writes plain ints and strs as
    json.dumps would, and leaves every other scalar to json.dumps.  Packed
    points (kernels.PackedPoints), the one form a report gives a point
    set, are written as the row lists of their points (see _RowTables).
    """
    out: list[str] = []
    _write_json(report, "\n", out, _RowTables(report))
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list, tables: "_RowTables") -> None:
    """Append the JSON text of value; ``newline`` carries the current indent."""
    kind = type(value)
    if kind is int:
        # int.__repr__, as json.dumps: past 4300 digits both raise ValueError
        out.append(str(value))
        return
    if kind is str:
        out.append(encode_basestring_ascii(value))
        return
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
                out += (sep, encode_basestring_ascii(key), ": ")
                _write_json(value[key], inner, out, tables)
                sep = "," + inner
            out.append(newline + "}")
    elif isinstance(value, kernels.PackedPoints):
        tables.write(value, newline, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out, tables)
            sep = "," + inner
        out.append(newline + "]")
    else:
        # bool, None, float, and int or str subclasses such as IntEnum
        out.append(json.dumps(value))


def _rows_list(value) -> list:
    """The json.dumps default for packed points: the row list of their points."""
    if isinstance(value, kernels.PackedPoints):
        return value.rows().tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _RowTables:
    """The row texts of the point sets of one report.

    When the first packed point set is written, every kernels.PackedPoints
    in the report is found, and those that share a key box (the levels of
    one sumset walk) share one table per layout (``newline``, or None for
    one line): the text of each of their distinct points, decoded once and
    rendered a column at a time (see _row_texts), with the separator before
    it.  A point set is then one gather from the table into the output
    list, plus a fix to the opening of its first row.  A key's row in the
    table is its key offset when the box has no more cells than those point
    sets have rows, else its position among their sorted distinct keys,
    found by ``searchsorted``.
    """

    def __init__(self, report):
        self.report = report
        self.levels: dict[tuple, list] | None = None
        self.tables: dict[tuple, _RowTable] = {}

    def _collect(self, value) -> None:
        if isinstance(value, kernels.PackedPoints):
            self.levels.setdefault(value.box, []).append(value)
        elif isinstance(value, dict):
            for item in value.values():
                self._collect(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect(item)

    def write(self, points, newline: str | None, out: list) -> None:
        """Append the JSON text of packed points at the depth that
        ``newline`` carries, or on one line when it is None."""
        if not len(points):
            out.append("[]")
            return
        table = self.tables.get((points.box, newline))
        if table is None:
            if self.levels is None:
                self.levels = {}
                self._collect(self.report)
            table = self.tables[points.box, newline] = _RowTable(
                self.levels[points.box], newline)
        table.write(points.keys, out)


def _list_layout(newline: str | None) -> tuple[str, str, str]:
    """The opening, separator and closing of a list whose items sit one
    indent below ``newline``, or of a one-line list when it is None."""
    if newline is None:
        return "[", ", ", "]"
    inner = newline + "  "
    return "[" + inner, "," + inner, newline + "]"


def _row_texts(points: np.ndarray, newline: str | None) -> np.ndarray:
    """The text of each row of ``points`` (int64 or Python ints) as an item
    of a point list in the layout of ``newline`` (see _RowTables): the
    separator before it, then the row, as an indented block or, when
    ``newline`` is None, on one line.

    The texts are built a column at a time.  Each distinct value of a
    column is rendered once, as a token that also carries that column's
    layout: the separator and the row's opening before column 0, the comma
    and indent before the others, and the row's closing after the last.
    A row's text is then the sum of its tokens, one elementwise addition of
    object arrays per column.  A column's tokens cover range(min, max + 1),
    indexed by value minus min, when that range holds no more values than
    there are rows; otherwise they cover its sorted distinct values, found
    by ``searchsorted``.  Either way Python-int columns stay exact, however
    far apart their values lie.
    """
    _, sep, _ = _list_layout(newline)
    first, comma, last = _list_layout(None if newline is None else newline + "  ")
    count, width = points.shape
    if not width:
        return np.full(count, sep + "[]", dtype=object)
    texts = None
    for j in range(width):
        column = points[:, j]
        before = sep + first if j == 0 else comma
        after = last if j == width - 1 else ""
        low, high = column.min(), column.max()
        if int(high) - int(low) < count:
            values = range(int(low), int(high) + 1)
            index = (column - low).astype(np.int64, copy=False)
        else:
            distinct = kernels.sorted_unique(column)
            values = distinct.tolist()
            index = np.searchsorted(distinct, column)
        tokens = np.empty(len(values), dtype=object)
        tokens[:] = [f"{before}{value}{after}" for value in values]
        texts = tokens[index] if texts is None else texts + tokens[index]
    return texts


class _RowTable:
    """The row texts of the distinct points of packed point sets that
    share one key box, in one layout (see _RowTables): ``table`` holds
    them by key offset, None in the cells no point set holds, or, when
    ``sorted_keys`` is set, in the order of those keys."""

    def __init__(self, levels: list, newline: str | None):
        lo, strides, span = levels[0].box
        dtype = np.result_type(*(level.keys.dtype for level in levels))
        if span <= sum(map(len, levels)):
            seen = np.zeros(span, dtype=bool)
            for level in levels:
                seen[level.keys.astype(np.int64, copy=False)] = True
            distinct = np.flatnonzero(seen)
            self.sorted_keys = None
        else:
            distinct = kernels.sorted_unique(np.concatenate([level.keys for level in levels]))
            self.sorted_keys = distinct
        points = kernels.decode_keys(distinct.astype(dtype, copy=False), lo, strides)
        self.head, sep, self.tail = _list_layout(newline)
        self.cut = len(sep)
        texts = _row_texts(points, newline)
        if self.sorted_keys is None:
            self.table = np.empty(span, dtype=object)
            self.table[distinct] = texts
        else:
            self.table = texts

    def write(self, keys: np.ndarray, out: list) -> None:
        """Append the text of the points of ``keys``, in their order."""
        if self.sorted_keys is None:
            rows = keys.astype(np.int64, copy=False)
        else:
            rows = np.searchsorted(self.sorted_keys, keys)
        # the first row opens the list instead of following a row
        out.append(self.head + self.table[rows[0]][self.cut:])
        out.extend(self.table[rows[1:]])
        out.append(self.tail)


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


def to_text(report: dict) -> str:
    lines: list[str] = []
    tables = _RowTables(report)

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
        elif isinstance(value, kernels.PackedPoints):
            pieces = [f"{pad}{key}: "]
            tables.write(value, None, pieces)
            lines.append("".join(pieces))
        else:
            # points anywhere deeper in the value are written as row lists
            text = json.dumps(value, sort_keys=True, default=_rows_list)
            lines.append(f"{pad}{key}: {text}")

    for k in sorted(report):
        emit(k, report[k], 0)
    return "\n".join(lines) + "\n"


def serialize(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown format {fmt!r}")
