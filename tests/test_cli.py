import json
import os
import subprocess
import sys

import pytest

import sumsetlab
from sumsetlab import kernels, khovanskii
from sumsetlab.cli import main

from corpus import CORPUS


@pytest.fixture
def a135_txt(tmp_path):
    path = tmp_path / "a135.txt"
    path.write_text("0\n3\n5\n")
    return str(path)


@pytest.fixture
def a135_json(tmp_path):
    path = tmp_path / "a135.json"
    path.write_text(json.dumps({"dim": 1, "points": [[0], [3], [5]]}))
    return str(path)


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKhovanskiiCommand:
    def test_golden_values(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "khovanskii", "--input", a135_txt)
        assert code == 0
        report = json.loads(out)
        section = report["khovanskii"]
        assert section["polynomial"] == "5*X - 5"
        assert section["threshold"] == 3
        assert section["threshold_status"] == "exact"
        assert section["bound_sharp"] == 43
        assert section["bound_coarse"]["decimal"] == str(30 ** 15)

    def test_routes_agree(self, capsys, a135_txt):
        _, out_formula, _ = run_cli(capsys, "khovanskii", "--input", a135_txt,
                                    "--route", "formula")
        _, out_interp, _ = run_cli(capsys, "khovanskii", "--input", a135_txt,
                                   "--route", "interpolation")
        f = json.loads(out_formula)["khovanskii"]["polynomial"]
        i = json.loads(out_interp)["khovanskii"]["polynomial"]
        assert f == i == "5*X - 5"

    def test_formula_route_refuses_a_truncated_scan(self, capsys, tmp_path):
        # the scan truncates on this set: "auto" interpolates the sizes and
        # exits 3 with a report, "formula" has no exact set to expand
        path = tmp_path / "truncating.txt"
        path.write_text("2\n5\n6\n7\n13\n15\n")
        code, out, _ = run_cli(capsys, "khovanskii", "--input", str(path))
        assert code == 3
        assert json.loads(out)["khovanskii"]["polynomial"] == "13*X - 5"
        code, out, err = run_cli(capsys, "khovanskii", "--input", str(path),
                                 "--route", "formula")
        assert (code, out) == (3, "")
        assert err == ("error: budget exhausted: obstruction set truncated; "
                       "the formula route needs an exact set\n")

    def test_formula_route_expands_once(self, capsys, a135_txt, monkeypatch):
        # the threshold already expanded the formula; the report reuses it.
        # A fresh obstruction set, scanned (with the numerators its
        # certificate expands) before the count starts:
        khovanskii._obstruction_cache.clear()
        khovanskii.minimal_obstructions(
            sumsetlab.normalize_config(sumsetlab.PointConfig.from_points([(0,), (3,), (5,)])))
        calls = []
        expand = khovanskii._hilbert_numerator
        monkeypatch.setattr(khovanskii, "_hilbert_numerator",
                            lambda elements: calls.append(elements) or expand(elements))
        code, out, _ = run_cli(capsys, "khovanskii", "--input", a135_txt,
                               "--route", "formula")
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["khovanskii"]["polynomial"] == "5*X - 5"


class TestGrowthCommand:
    def test_csv_rows(self, capsys, square_json):
        code, out, _ = run_cli(capsys, "growth", "--input", square_json,
                               "--max-n", "4", "--format", "csv")
        assert code == 0
        assert out == "n,size\n1,4\n2,9\n3,16\n4,25\n"

    def test_emit_points(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "growth", "--input", a135_txt,
                               "--max-n", "2", "--emit-points")
        assert code == 0
        rows = json.loads(out)["growth"]
        assert rows[1]["points"] == [[0], [3], [5], [6], [8], [10]]

    def test_budget_marks_partial(self, capsys, square_json):
        code, out, _ = run_cli(capsys, "growth", "--input", square_json,
                               "--max-n", "40", "--cap-points", "30")
        assert code == 3
        report = json.loads(out)
        assert report["partial"] is True
        assert len(report["growth"]) < 40

    def test_weight_cap_marks_partial(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "khovanskii", "--input", a135_txt,
                               "--cap-weight", "3")
        assert code == 3
        section = json.loads(out)["khovanskii"]
        assert section["obstructions"]["status"] == "truncated"
        # the sumset-interpolation fallback still certifies the threshold
        # (the proven window is cheap to iterate here)
        assert section["threshold"] == 3
        assert section["threshold_status"] == "exact"


class TestBoundsCommand:
    def test_six_values(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "bounds", "--input", a135_txt)
        assert code == 0
        report = json.loads(out)
        assert report["khovanskii"]["sharp"] == 43
        assert report["khovanskii"]["coarse"]["digits"] == len(str(30 ** 15))
        assert report["structure"]["bound_a"] == 25
        assert report["structure"]["bound_b"] == 25
        assert report["structure"]["clean"] == 50
        assert report["structure"]["coarse"] == 15 ** 13


class TestDeterminism:
    def test_text_and_json_inputs_identical(self, capsys, a135_txt, a135_json):
        _, out_txt, _ = run_cli(capsys, "analyze", "--input", a135_txt)
        _, out_json, _ = run_cli(capsys, "analyze", "--input", a135_json)
        assert out_txt == out_json

    def test_repeat_runs_identical(self, capsys, square_json):
        _, first, _ = run_cli(capsys, "analyze", "--input", square_json)
        _, second, _ = run_cli(capsys, "analyze", "--input", square_json)
        assert first == second

    def test_json_round_trip(self, capsys, a135_txt):
        _, out, _ = run_cli(capsys, "analyze", "--input", a135_txt)
        report = json.loads(out)
        assert json.dumps(report, sort_keys=True, indent=2) + "\n" == out


class TestStructureCommand:
    def test_threshold_report(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "structure", "--input", a135_txt)
        assert code == 0
        section = json.loads(out)["structure"]
        assert section["threshold"] == 1
        assert section["threshold_status"] == "exact"
        assert section["bound_a"] == 25

    def test_per_level_reports(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "structure", "--input", a135_txt,
                               "--max-n", "3")
        assert code == 0
        levels = json.loads(out)["structure_levels"]
        assert [lvl["holds"] for lvl in levels] == [True, True, True]
        assert all(lvl["extra"] == [] for lvl in levels)

    @pytest.mark.parametrize("fixture", ["a135_txt", "square_json"])
    def test_per_level_output_frozen(self, capsys, request, fixture):
        path = request.getfixturevalue(fixture)
        code, out, _ = run_cli(capsys, "structure", "--input", path,
                               "--max-n", "8")
        assert code == 0
        levels = [{"extra": [], "holds": True, "missing": [], "n": n}
                  for n in range(1, 9)]
        expected = {"partial": False, "structure_levels": levels}
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_per_level_missing_points(self, capsys, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("0\n2\n5\n11\n12\n")
        code, out, _ = run_cli(capsys, "structure", "--input", str(path),
                               "--max-n", "8")
        assert code == 0
        levels = json.loads(out)["structure_levels"]
        assert [[p[0] for p in lvl["missing"]] for lvl in levels] == [
            [4, 6, 7, 8, 9, 10], [6, 8, 9, 15, 18, 19, 20, 21],
            [8, 20, 30, 31, 32], [42, 43], [54], [], [], []]
        assert [lvl["holds"] for lvl in levels] == [False] * 5 + [True] * 3
        assert all(lvl["extra"] == [] for lvl in levels)


class TestHighDimensionRendering:
    """The structure coarse bound has over 4300 digits once d >= 3."""

    @staticmethod
    def _write(tmp_path, dim):
        rows = [[0] * dim] + [[int(i == j) for j in range(dim)] for i in range(dim)]
        path = tmp_path / f"simplex{dim}.txt"
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        return str(path)

    def test_bounds_unit_3_simplex(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bounds", "--input", self._write(tmp_path, 3))
        assert code == 0
        coarse = json.loads(out)["structure"]["coarse"]
        # (d * |A| * width) ** (13 d^6) = 12 ** 9477
        assert coarse["digits"] == len(str(12 ** 9477 // 10 ** 9000)) + 9000
        assert coarse["leading"] == str(12 ** 9477 // 10 ** (coarse["digits"] - 24))

    def test_analyze_unit_3_simplex(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "analyze", "--input", self._write(tmp_path, 3))
        assert code == 0
        section = json.loads(out)["structure"]
        assert section["threshold"] == 1
        assert section["threshold_status"] == "exact"
        assert set(section["bound_coarse"]) == {"digits", "leading"}

    def test_bounds_4d(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bounds", "--input", self._write(tmp_path, 4))
        assert code == 0
        assert json.loads(out)["structure"]["coarse"]["digits"] > 4300


class TestOtherCommands:
    def test_circuits(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "circuits", "--input", a135_txt)
        assert code == 0
        assert json.loads(out)["circuits"] == [[2, -5, 3]]

    def test_triangulate(self, capsys, square_json):
        code, out, _ = run_cli(capsys, "triangulate", "--input", square_json)
        assert code == 0
        assert json.loads(out)["simplices"] == [[[0, 1], [1, 1]], [[1, 0], [1, 1]]]

    def test_pivot_flag(self, capsys, tmp_path):
        path = tmp_path / "shifted.txt"
        path.write_text("2\n5\n7\n")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path),
                               "--pivot", "2")
        assert code == 0
        report = json.loads(out)
        assert report["normalization"]["translation"] == [2]
        assert report["normalization"]["points"] == [[0], [3], [5]]

    def test_verify_clean(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "verify", "--input", a135_txt)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert all(c["status"] == "ok" for c in report["checks"])


class TestErrorPaths:
    def test_unreadable_tokens(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x y\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1 and "integers" in err

    def test_ragged_rows(self, capsys, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0 0\n1\n")
        code, _, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--input", "/nonexistent")
        assert code == 1

    def test_bad_pivot_is_precondition_error(self, capsys, a135_txt):
        code, _, err = run_cli(capsys, "analyze", "--input", a135_txt,
                               "--pivot", "3")
        assert code == 2 and "extremal" in err

    def test_pivot_on_lower_rank_input(self, capsys, tmp_path):
        path = tmp_path / "diagonal.txt"
        path.write_text("0 0\n1 1\n2 2\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path),
                               "--pivot", "1,1")
        assert code == 2 and "extremal" in err
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path),
                               "--pivot", "2,2")
        assert code == 0
        assert json.loads(out)["normalization"]["translation"] == [2, 2]

    @pytest.mark.parametrize("argv", [
        ["structure", "--cap-points", "-5"],
        ["analyze", "--cap-weight", "-1"],
        ["analyze", "--cap-points", "many"],
        ["bogus"],
        ["analyze", "--format", "xml"],
    ])
    def test_malformed_arguments_are_input_errors(self, capsys, a135_txt, argv):
        code, out, err = run_cli(capsys, *argv, "--input", a135_txt)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["growth", "analyze", "structure",
                                         "khovanskii"])
    def test_negative_max_n_is_input_error(self, capsys, a135_txt, command):
        code, out, err = run_cli(capsys, command, "--input", a135_txt,
                                 "--max-n", "-3")
        assert code == 1 and out == ""
        assert err == ("error: argument --max-n: expected a nonnegative "
                       "integer, got '-3'\n")

    def test_missing_input_option_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze")
        assert code == 1 and out == ""
        assert err == "error: the following arguments are required: --input\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sumsetlab")

    def test_bad_arguments_leave_no_state_behind(self, capsys, a135_txt):
        # main reuses one parser: a rejected command line must not change
        # how the next one parses
        code, out, err = run_cli(capsys, "growth", "--input", a135_txt,
                                 "--emit-points", "--format", "text", "--max-n", "-3")
        assert code == 1 and out == "" and err.startswith("error: ")
        code, out, err = run_cli(capsys, "growth", "--input", a135_txt, "--max-n", "2")
        assert code == 0 and err == ""
        assert json.loads(out) == {"growth": [{"n": 1, "size": 3}, {"n": 2, "size": 6}],
                                   "partial": False}
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_duplicate_points_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1\n1\n")
        code, _, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1

    @pytest.mark.parametrize("body", [
        '{"points": 5}',
        '{"points": null}',
        '{"points": [[0], [3]], "dim": 1.0}',
        '{"points": [[true], [3]]}',
    ])
    def test_malformed_json_fields(self, capsys, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch,
                                                    a135_txt):
        # a ValueError from inside the library is no input error (exit 1)
        def broken(*args, **kwargs):
            raise ValueError("broken kernel")

        monkeypatch.setattr(kernels, "sumset_step", broken)
        code, out, err = run_cli(capsys, "growth", "--max-n", "3",
                                 "--input", a135_txt)
        assert code == 4 and out == ""
        assert err == "internal error: ValueError: broken kernel\n"


@pytest.fixture
def corpus_paths(tmp_path):
    """The corpus sets as JSON input files, in corpus order."""
    paths = []
    for name, pts in CORPUS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"points": [list(p) for p in pts]}))
        paths.append(str(path))
    return paths


def test_analyze_identical_on_the_exact_path(capsys, corpus_paths, request):
    """With every kernel but the obstruction scan on Python ints (dtype
    object), ``analyze`` writes the same bytes and exit code for every
    corpus set.  The obstruction memo store is emptied first, so the scans
    run again, without the counting certificate (int64 keys only)."""
    def analyses():
        return [run_cli(capsys, "analyze", "--input", path) for path in corpus_paths]

    fast = analyses()
    request.getfixturevalue("object_keys")
    khovanskii._obstruction_cache.clear()
    assert analyses() == fast


def test_analyze_never_imports_numpy_ma(corpus_paths):
    """Set operations on the analyze path are searches over sorted keys.

    np.isin and np.unique import numpy.ma on their first call in numpy 2.x
    (about 15 ms in a fresh process), so its absence after
    ``analyze`` over the corpus shows that neither ran.
    """
    script = (
        "import io, sys, contextlib\n"
        "from sumsetlab.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['analyze', '--input', path]) == 0, path\n"
        "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sumsetlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, *corpus_paths], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
