import enum
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import PointConfig, khovanskii_bounds, kernels, reporting, structure_bounds
from sumsetlab.cli import main
from sumsetlab.errors import BudgetExceededError
from sumsetlab.reporting import (
    LEADING_DIGITS,
    MAX_DECIMAL_DIGITS,
    _RowTable,
    _row_texts,
    render_int,
    to_json,
    to_text,
)
from sumsetlab.sumsets import sumset_arrays, sumset_levels

from oracles import digits_and_leading, row_texts_by_format

GOLDEN = Path(__file__).parent / "golden"
EMIT_GOLDENS = [
    ("0\n3\n5\n", "growth_a135_emit6.json"),
    ('{"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}', "growth_square_emit6.json"),
]
OUTPUT_GOLDENS = [
    ("0\n3\n5\n", ["--max-n", "6", "--format", "text"], "growth_a135_emit6.txt"),
    ("0\n3\n5\n", ["--max-n", "6", "--format", "csv"], "growth_a135_emit6.csv"),
    ('{"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}',
     ["--max-n", "6", "--format", "text"], "growth_square_emit6.txt"),
    ('{"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}',
     ["--max-n", "6", "--format", "csv"], "growth_square_emit6.csv"),
    # too wide for the int64 box: object arrays on every path
    (f"0\n{1 << 61}\n", ["--max-n", "3"], "growth_two_pow61_emit3.json"),
    ('{"points": [[]]}', ["--max-n", "3"], "growth_zero_width_emit3.json"),
]


@pytest.fixture
def unlimited_str():
    """Lift the interpreter's int/str digit cap so tests can build references."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


class TestRenderInt:
    def test_float_safe_values_stay_plain(self):
        assert render_int(0) == 0
        assert render_int((1 << 53) - 1) == (1 << 53) - 1
        assert render_int(-(1 << 53) + 1) == -(1 << 53) + 1

    def test_large_values_render_in_full(self):
        assert render_int(1 << 53) == {"decimal": str(1 << 53), "digits": 16}
        assert render_int(-(30 ** 15)) == {"decimal": str(-(30 ** 15)), "digits": 23}
        at_cutoff = 10 ** MAX_DECIMAL_DIGITS - 1
        assert render_int(at_cutoff) == {"decimal": "9" * MAX_DECIMAL_DIGITS,
                                         "digits": MAX_DECIMAL_DIGITS}

    @pytest.mark.parametrize("value", [
        10 ** MAX_DECIMAL_DIGITS,
        10 ** MAX_DECIMAL_DIGITS + 1,
        10 ** 9999 - 1,
        12 ** 9477,
        24 ** 53248,
    ], ids=["10^4300", "10^4300+1", "10^9999-1", "12^9477", "24^53248"])
    def test_huge_values_render_compactly(self, unlimited_str, value):
        text = str(value)
        assert render_int(value) == {"digits": len(text),
                                     "leading": text[:LEADING_DIGITS]}
        assert render_int(-value) == {"digits": len(text),
                                      "leading": "-" + text[:LEADING_DIGITS]}

    def test_digit_counts_at_powers_of_ten(self, unlimited_str):
        for k in range(MAX_DECIMAL_DIGITS + 1, MAX_DECIMAL_DIGITS + 40):
            for value in (10 ** k - 1, 10 ** k, 10 ** k + 1):
                assert render_int(value)["digits"] == len(str(value))


def _reference(value):
    """render_int's answer for value, read off str(value).

    str() takes quadratic time, so values of over 70,000 bits (the 4-D
    structure coarse bounds, about 0.2 s each) are read off the exact
    powers-of-ten comparison of the test oracles instead.
    """
    if abs(value) < 1 << 53:
        return value
    sign = "-" if value < 0 else ""
    if abs(value).bit_length() > 70000:
        digits, leading = digits_and_leading(abs(value), LEADING_DIGITS)
        return {"digits": digits, "leading": sign + leading}
    text = str(abs(value))
    if len(text) <= MAX_DECIMAL_DIGITS:
        return {"decimal": str(value), "digits": len(text)}
    return {"digits": len(text), "leading": sign + text[:LEADING_DIGITS]}


class TestRenderPower:
    """render_int(base, exponent) prints base**exponent as str() would."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """Counts the exact divisions _digits_and_leading falls back to."""
        calls = []
        exact = reporting._exact_quotient

        def counted(base, exponent, k):
            calls.append((base, exponent))
            return exact(base, exponent, k)

        monkeypatch.setattr(reporting, "_exact_quotient", counted)
        return calls

    @staticmethod
    def _check(pairs):
        for base, exponent in pairs:
            assert render_int(base, exponent) == _reference(base ** exponent), (base, exponent)

    def test_bases_across_the_cutoff(self, unlimited_str):
        pairs = []
        for base in range(2, 65):
            # both sides of the 4300-digit edge and of the 14000-bit exact path
            edge = int(MAX_DECIMAL_DIGITS / math.log10(base))
            exact = 14000 // base.bit_length()
            pairs += [(b, e) for b in (base, -base) for e in
                      {1, 2, 3, exact, exact + 1, *range(edge - 2, edge + 3)}]
        self._check(pairs)
        shapes = [render_int(b, e) for b, e in pairs]
        assert {"decimal", "leading"} <= {key for r in shapes if isinstance(r, dict)
                                          for key in r}

    def test_powers_of_ten_fall_back_to_exact_division(self, unlimited_str, fallbacks):
        for k in (4299, 4300, 4301, 4320, 9998, 9999, 10000):
            for value in (10 ** k, 10 ** k - 1, 10 ** k + 1, 100 ** k, 1000 ** k):
                self._check([(value, 1), (-value, 1)])
            self._check([(10, k), (-10, k), (100, k), (-1000, k)])
        assert (10, 9999) in fallbacks and (10 ** 9999, 1) in fallbacks

    def test_coarse_bounds(self, unlimited_str, corpus):
        pairs = []
        for _, _, norm in corpus:
            pairs += [khovanskii_bounds(norm).coarse_power,
                      structure_bounds(norm).coarse_power]
        # every shape of the geometry-batch benchmark's sets
        for d in range(1, 5):
            for size in (d + 1, d + 2):
                for width in range(1, 11):
                    pairs += [(2 * size * width, (d + 4) * size),
                              (d * size * width, 13 * d ** 6)]
        self._check(sorted(set(pairs)))


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


_ints = st.integers() | st.integers(min_value=-(1 << 200), max_value=1 << 200)
_text = st.text(st.characters(codec="utf-8") | st.sampled_from(
    '"\\\n\t\x00\x1f\u00e9\u2028\U0001f600'), max_size=6)
_scalars = st.none() | st.booleans() | _ints | st.floats() | _text
_rows = st.integers(min_value=1, max_value=3).flatmap(
    lambda width: st.lists(st.lists(_ints, min_size=width, max_size=width),
                           max_size=4))
_rows_with_bool = st.lists(st.lists(_ints | st.booleans(), min_size=2, max_size=2),
                           min_size=1, max_size=3)
_trees = st.recursive(
    _scalars | _rows | _rows_with_bool,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=12)


def _walk(points, n_max):
    """The levels 1A..n_max A of the set ``points`` as packed keys, the
    form growth --emit-points gives them."""
    return [level() for _, level in sumset_levels(PointConfig.from_points(points), n_max)]


# emitted growth levels: the packed keys of one sumset walk, whose levels
# share a key box, from sets with negative coordinates included
_walks = st.tuples(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=4,
             unique=True)
    | st.lists(st.tuples(st.integers(-(1 << 62), 1 << 62)), min_size=1, max_size=3,
               unique=True),
    st.integers(min_value=1, max_value=4)).map(lambda walk: _walk(*walk))
_levels = _walks.flatmap(st.sampled_from)
_trees_with_arrays = st.recursive(
    _scalars | _rows | _levels,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=12)


def _tolist(value):
    if isinstance(value, kernels.PackedPoints):
        return value.rows().tolist()
    if isinstance(value, dict):
        return {k: _tolist(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_tolist(v) for v in value]
    return value


class TestToJson:
    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(_text, _trees, max_size=4))
    def test_matches_json_dumps(self, report):
        assert to_json(report) == _dumps(report)

    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(_text, _trees_with_arrays, max_size=4))
    def test_arrays_match_json_dumps_of_tolist(self, report):
        assert to_json(report) == _dumps(_tolist(report))

    # to_text takes values and lists of records (growth rows), not any tree;
    # a list that mixes records with other values is a value
    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(_text, _levels | st.lists(
        st.dictionaries(_text, _levels | _ints, max_size=3), min_size=1,
        max_size=3)
        | st.lists(_levels | _ints | st.none()
                   | st.dictionaries(_text, _levels | _ints, max_size=2),
                   max_size=3)
        | _walks.map(lambda levels: [{"n": n, "points": level, "size": len(level)}
                                     for n, level in enumerate(levels, start=1)]),
        max_size=3))
    def test_text_arrays_match_tolist(self, report):
        assert to_text(report) == to_text(_tolist(report))

    @pytest.mark.parametrize("report, text", [
        ({"a": [{}, None]}, "a: [{}, null]\n"),
        ({"a": [None, {"k": 1}]}, 'a: [null, {"k": 1}]\n'),
        ({"a": [_walk([(1, 2)], 1)[0], 3]}, "a: [[[1, 2]], 3]\n"),
        ({"a": [{"p": _walk([(1 << 70,)], 1)[0]}]}, f"a:\n  -\n    p: [[{1 << 70}]]\n"),
    ], ids=["record-then-none", "none-then-record", "array-in-list", "array-in-record"])
    def test_text_mixed_lists(self, report, text):
        assert to_text(report) == text

    @pytest.mark.parametrize("report", [
        {},
        {"a": []},
        {"a": [[]]},
        {"a": [[1], [2, 3]]},                  # ragged
        {"a": [[1, True], [2, 3]]},            # bool is not a plain int
        {"a": [[1 << 70, -(1 << 64)], [0, 5]]},
        {"a": [(1, 2), (3, 4)]},               # tuples are lists to json
        {"a": {1: "x", 2: [[1, 2]]}, "b": {"k": {None: 1}}},  # non-str keys
        {"b": 1.5, "a": [None, "\u00e9\n", [[7]]]},
    ])
    def test_edge_cases(self, report):
        assert to_json(report) == _dumps(report)

    @pytest.mark.parametrize("points, golden", EMIT_GOLDENS)
    def test_growth_emit_points_frozen(self, tmp_path, capsys, points, golden):
        path = tmp_path / "input"
        path.write_text(points)
        code = main(["growth", "--input", str(path), "--max-n", "6", "--emit-points"])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("points, argv, golden", OUTPUT_GOLDENS,
                             ids=["a135-text", "a135-csv", "square-text", "square-csv",
                                  "two_pow61", "zero_width"])
    def test_growth_output_frozen(self, tmp_path, capsys, points, argv, golden):
        path = tmp_path / "input"
        path.write_text(points)
        code = main(["growth", "--input", str(path), "--emit-points", *argv])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_growth_goldens_on_the_exact_path(self, tmp_path, capsys, object_keys):
        # every golden above, written from levels of Python ints (dtype object)
        path = tmp_path / "input"
        cases = [(points, ["--max-n", "6"], golden) for points, golden in EMIT_GOLDENS]
        for points, argv, golden in cases + OUTPUT_GOLDENS:
            path.write_text(points)
            code = main(["growth", "--input", str(path), "--emit-points", *argv])
            assert code == 0
            assert capsys.readouterr().out == (GOLDEN / golden).read_text(), golden


def _tolist_report(config, n_max, cap_points=10 ** 7):
    """The growth --emit-points report of config, each level a row list from
    tolist() of its decoded array, and whether the budget cut it short."""
    rows = []
    try:
        for n, (size, level) in enumerate(sumset_levels(config, n_max, cap_points), start=1):
            rows.append({"n": n, "points": level().rows().tolist(), "size": size})
    except BudgetExceededError:
        return {"growth": rows, "partial": True}
    return {"growth": rows, "partial": False}


class TestEmitWriter:
    """growth --emit-points in json and text, byte for byte against the
    report rebuilt from row lists (json.dumps(indent=2) and to_text)."""

    @staticmethod
    def _check(tmp_path, capsys, config, n_max, cap_points=10 ** 7):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"points": [list(p) for p in config.points]}))
        report = _tolist_report(config, n_max, cap_points)
        code = 3 if report["partial"] else 0
        for fmt, render in (("json", _dumps), ("text", to_text)):
            got = main(["growth", "--input", str(path), "--emit-points", "--max-n",
                        str(n_max), "--cap-points", str(cap_points), "--format", fmt])
            assert (got, *capsys.readouterr()) == (code, render(report), ""), fmt
        return report

    def test_corpus_raw_sets(self, tmp_path, capsys, corpus):
        for name, raw, _ in corpus:
            self._check(tmp_path, capsys, raw, 12)

    @pytest.mark.parametrize("route", ["int64", "object"])
    @pytest.mark.parametrize("points", [
        [(5, -3), (6, -3), (5, -1)], [(-9,), (-4,)], [(2,), (5,), (7,)]],
        ids=["negative-2d", "negative-1d", "a257"])
    def test_levels_whose_boxes_are_not_nested(self, tmp_path, capsys, request,
                                               route, points):
        if route == "object":
            request.getfixturevalue("object_keys")
        self._check(tmp_path, capsys, PointConfig.from_points(points), 20)

    @pytest.fixture
    def branches(self, monkeypatch):
        """The branch of every row table built: "offset" when a key's row
        is its offset in the box, "searchsorted" otherwise."""
        log = []
        init = _RowTable.__init__

        def recorded(table, *args):
            init(table, *args)
            log.append("offset" if table.sorted_keys is None else "searchsorted")

        monkeypatch.setattr(_RowTable, "__init__", recorded)
        return log

    def test_sparse_box_takes_searchsorted(self, tmp_path, capsys, branches):
        # {0, 1000} to N = 30: 495 rows in a box of 30001 cells
        self._check(tmp_path, capsys, PointConfig.from_points([(0,), (1000,)]), 30)
        assert branches == ["searchsorted", "searchsorted"]
        branches.clear()
        self._check(tmp_path, capsys, PointConfig.from_points([(0,), (1,), (3,)]), 30)
        assert branches == ["offset", "offset"]

    @pytest.mark.parametrize("route", ["int64", "object"])
    def test_keys_route(self, tmp_path, capsys, request, sumset_routes, route):
        # boxes of 30001 and 81^2 keys over a budget that every level fits
        if route == "object":
            request.getfixturevalue("object_keys")
        self._check(tmp_path, capsys, PointConfig.from_points([(0,), (1000,)]), 30,
                    cap_points=1000)
        hexagon = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)])
        self._check(tmp_path, capsys, hexagon, 40, cap_points=5000)
        assert set(sumset_routes) == {"keys"}

    @pytest.mark.parametrize("route", ["int64", "object"])
    def test_report_cut_by_the_budget(self, tmp_path, capsys, request, route):
        if route == "object":
            request.getfixturevalue("object_keys")
        square = PointConfig.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
        report = self._check(tmp_path, capsys, square, 10, cap_points=20)
        assert report["partial"] and len(report["growth"]) == 3

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("points, n_max", [
        ([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)], 12), ([(0,), (1000,)], 30)],
        ids=["hexagon6", "sparse"])
    def test_each_distinct_point_decoded_once(self, tmp_path, capsys, monkeypatch,
                                              points, n_max, fmt):
        config = PointConfig.from_points(points)
        distinct = {tuple(p) for a in sumset_arrays(config, n_max) for p in a.tolist()}
        decoded = []
        decode = kernels.decode_keys

        def recorded(keys, lo, strides):
            decoded.append(len(keys))
            return decode(keys, lo, strides)

        monkeypatch.setattr(kernels, "decode_keys", recorded)
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"points": points}))
        assert main(["growth", "--input", str(path), "--emit-points", "--max-n",
                     str(n_max), "--format", fmt]) == 0
        assert decoded == [len(distinct)]
        rows = sum(len(row["points"]) for row in _tolist_report(config, n_max)["growth"])
        assert rows > len(distinct)


_I64 = np.iinfo(np.int64)


class TestArrayWriter:
    """The writers on the packed levels of real sumset walks, against
    json.dumps (and to_text) of their row lists."""

    @staticmethod
    def _check(levels):
        rows = [level.rows().tolist() for level in levels]
        assert to_json({"a": levels}) == _dumps({"a": rows})
        records = [{"points": level} for level in levels]
        listed = [{"points": r} for r in rows]
        assert to_json({"a": records}) == _dumps({"a": listed})
        assert to_text({"a": records}) == to_text({"a": listed})
        assert to_text({"a": levels[-1]}) == f"a: {json.dumps(rows[-1])}\n"

    def test_range_table_branch(self):
        # {0,1,3} to N=2: 9 rows in a box of 7 cells, so a key's row is its
        # offset, and the cell of (5,), which no level holds, has no text
        levels = _walk([(0,), (1,), (3,)], 2)
        table = _RowTable(levels, None)
        assert table.sorted_keys is None and len(table.table) == 7
        assert table.table[5] is None
        assert table.table[6] == ", [6]"
        self._check(levels)

    def test_sorted_distinct_branch(self):
        # {0,1000} to N=30: 495 rows, 31 of them distinct, in 30001 cells
        levels = _walk([(0,), (1000,)], 30)
        table = _RowTable(levels, None)
        assert len(table.sorted_keys) == len(table.table) == 31
        assert table.table[:3].tolist() == [", [0]", ", [1000]", ", [2000]"]
        self._check(levels)

    def test_python_int_keys(self):
        # a box of more than 2^62 keys: Python ints (dtype object)
        levels = _walk([(0,), (1,), (3,), (1 << 62,)], 4)
        assert levels[0].keys.dtype == object
        self._check(levels)

    def test_negative_coordinates(self):
        self._check(_walk([(-9, -9, -1), (-1, -5, -3), (-4, -2, -7), (-6, -1, -1)], 5))
        self._check(_walk([(-1000, 1000), (999, -1000), (-3, -7)], 8))

    def test_int64_extremes(self):
        # both ends of the range, and sums past them
        self._check(_walk([(_I64.min, _I64.max), (0, -1)], 3))
        self._check(_walk([(_I64.max,), (_I64.max - 1,), (_I64.max - 3,)], 3))
        self._check(_walk([(_I64.min,), (_I64.min + 1,), (_I64.min + 3,)], 3))

    def test_width_one(self):
        self._check(_walk([(4,), (-2,), (9,)], 4))

    def test_zero_width_rows(self):
        self._check(_walk([()], 3))
        empty = kernels.PackedPoints(np.zeros(0, dtype=np.int64), (), (), 1)
        assert to_json({"a": empty}) == _dumps({"a": []})
        assert to_text({"a": empty}) == "a: []\n"

    def test_single_row(self):
        self._check(_walk([(-3, 0, 8)], 1))
        self._check(_walk([(1 << 40,)], 2))

    def test_many_rows(self):
        self._check(_walk([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)], 14))
        self._check(_walk([(0, 0), (1 << 40, 1), (1, 1 << 40), (-5, 3)], 20))



# the layouts of a point list: one line (to_text), and the indented block of
# to_json at the depth of a growth row's points and at the top level
_LAYOUTS = [None, "\n      ", "\n"]


@st.composite
def _point_arrays(draw):
    """2-D int64 or Python-int (dtype object) arrays of 1..25 rows and
    d = 0..4 columns, negative values included; each column is a base plus
    multiples of a step, so that its range may hold no more values than
    there are rows, or far more (steps up to 2^62)."""
    exact = draw(st.booleans())
    count, width = draw(st.integers(1, 25)), draw(st.integers(0, 4))
    points = np.empty((count, width), dtype=object if exact else np.int64)
    for j in range(width):
        base = draw(st.integers(-(1 << 70), 1 << 70) if exact
                    else st.integers(-1000, 1000))
        step = draw(st.sampled_from([1, 3, 1000, 1 << 40, 1 << 62]))
        reach = draw(st.integers(0, 1 if step == 1 << 62 and not exact else 40))
        points[:, j] = [base + step * draw(st.integers(-reach, reach))
                        for _ in range(count)]
    return points


def _distinct_points(points, n_max, dtype):
    """The distinct points of the levels 1A..n_max A, sorted, as an array."""
    distinct = sorted({tuple(p) for level in _walk(points, n_max)
                       for p in level.rows().tolist()})
    return np.array(distinct, dtype=dtype).reshape(len(distinct), len(points[0]))


class TestRowTexts:
    """The column renderer of the row tables (reporting._row_texts) against
    one % format per row (row_texts_by_format of tests/oracles.py)."""

    @settings(max_examples=200, deadline=None)
    @given(_point_arrays(), st.sampled_from(_LAYOUTS))
    def test_matches_per_row_format(self, points, newline):
        assert _row_texts(points, newline).tolist() == row_texts_by_format(points, newline)

    @pytest.mark.parametrize("newline", _LAYOUTS)
    @pytest.mark.parametrize("points, dtype, searched", [
        ([(0,), (1 << 62,)], object, 1),
        ([(0,), (1000,)], np.int64, 1),
        ([(0,), (1000,)], object, 1),
        ([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)], np.int64, 0),
        ([(-3, 0), (-2, 1000), (-3, -1000)], object, 1),
        ([()], np.int64, 0),
    ], ids=["two_pow62", "sparse", "sparse-object", "hexagon6", "mixed-negative",
            "zero_width"])
    def test_walks_to_thirty(self, monkeypatch, points, dtype, searched, newline):
        # ``searched``: the columns whose range holds more values than the
        # table has rows, which take their sorted distinct values
        rows = _distinct_points(points, 30, dtype)
        calls = []
        sorted_unique = kernels.sorted_unique

        def recorded(values):
            calls.append(len(values))
            return sorted_unique(values)

        monkeypatch.setattr(kernels, "sorted_unique", recorded)
        assert _row_texts(rows, newline).tolist() == row_texts_by_format(rows, newline)
        assert len(calls) == searched

class _Colour(enum.IntEnum):
    RED = 1


class _Loud(int):
    def __str__(self):
        return "loud"


class TestScalarWriter:
    """Plain ints and strs are written without json.dumps, as it would."""

    def test_bools(self):
        report = {"t": True, "f": False, "rows": [True, 1, False, 0]}
        assert to_json(report) == _dumps(report)
        assert to_json(report).count("true") == 2

    def test_int_subclasses_go_through_json_dumps(self):
        report = {"enum": _Colour.RED, "loud": _Loud(5), "rows": [_Colour.RED, _Loud(7)]}
        assert to_json(report) == _dumps(report)
        assert '"loud": 5' in to_json(report)

    @pytest.mark.parametrize("text", [
        "\u00e9t\u00e9 \u65e5\u672c \U0001f600",
        "\x00\x01\x1f\x7f\t\n\r\"\\/",
        "\ud800 \udfff \udc00\ud800",
        "\u2028\u2029",
    ], ids=["non-ascii", "control", "lone-surrogates", "line-separators"])
    def test_strings_in_keys_and_values(self, text):
        report = {text: text, "k": [text, {text: [text]}]}
        assert to_json(report) == _dumps(report)

    def test_int_past_the_digit_limit_raises_as_json_dumps(self):
        value = 10 ** 4300
        with pytest.raises(ValueError) as ours:
            to_json({"a": [value]})
        with pytest.raises(ValueError) as theirs:
            json.dumps(value)
        assert str(ours.value) == str(theirs.value)
        assert to_json({"a": [10 ** 4299]}) == _dumps({"a": [10 ** 4299]})
