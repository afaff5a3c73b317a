import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sumsetlab.cli import main
from sumsetlab.reporting import (
    LEADING_DIGITS,
    MAX_DECIMAL_DIGITS,
    render_int,
    to_json,
    to_text,
)

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


# growth levels: int64 from the frontier iteration, Python ints (dtype
# object) from the exact one, beyond the int64 range included
_arrays = st.tuples(st.integers(min_value=0, max_value=4),
                    st.integers(min_value=0, max_value=3)).flatmap(
    lambda shape: hnp.arrays(np.int64, shape)
    | hnp.arrays(object, shape, elements=_ints))
_trees_with_arrays = st.recursive(
    _scalars | _rows | _arrays,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=12)


def _tolist(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
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

    @pytest.mark.parametrize("array", [
        np.array([[True, False]]),
        np.array([[1, True], [1.5, None]], dtype=object),
        np.array([[0.5, -2.0]]),
        np.array([3, -4]),
        np.zeros((1, 2, 2), dtype=np.int64),
    ], ids=["bool", "object-mixed", "float", "1-d", "3-d"])
    def test_other_arrays_as_tolist(self, array):
        report = {"a": [array], "b": array}
        assert to_json(report) == _dumps(_tolist(report))
        assert to_text({"b": array}) == to_text({"b": array.tolist()})

    # to_text takes values and lists of records (growth rows), not any tree;
    # a list that mixes records with other values is a value
    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(_text, _arrays | st.lists(
        st.dictionaries(_text, _arrays | _ints, max_size=3), min_size=1, max_size=3)
        | st.lists(_arrays | _ints | st.none()
                   | st.dictionaries(_text, _arrays | _ints, max_size=2), max_size=3),
        max_size=3))
    def test_text_arrays_match_tolist(self, report):
        assert to_text(report) == to_text(_tolist(report))

    @pytest.mark.parametrize("report, text", [
        ({"a": [{}, None]}, "a: [{}, null]\n"),
        ({"a": [None, {"k": 1}]}, 'a: [null, {"k": 1}]\n'),
        ({"a": [np.array([[1, 2]]), 3]}, "a: [[[1, 2]], 3]\n"),
        ({"a": [{"p": np.array([[1 << 70]], dtype=object)}]}, f"a:\n  -\n    p: [[{1 << 70}]]\n"),
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
