import errno
import json
import os
import subprocess
import sys

import pytest

import sumsetlab
from sumsetlab import KhovanskiiBounds, StructureBounds, kernels, khovanskii, lattice
from sumsetlab.cli import main

from corpus import CORPUS
from oracles import digits_and_leading


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

    def test_interpolation_route_walks_once(self, capsys, tmp_path, monkeypatch):
        # the scan truncates on this set, so the threshold fits |NA| past the
        # sharp bound, exactly: --route interpolation reuses that fit
        path = tmp_path / "truncating.txt"
        path.write_text("2\n5\n6\n7\n13\n15\n")
        walks = []
        sizes = khovanskii._growth_sizes_capped
        monkeypatch.setattr(khovanskii, "_growth_sizes_capped",
                            lambda *args: walks.append(args[1:]) or sizes(*args))
        auto = run_cli(capsys, "khovanskii", "--input", str(path))
        assert auto[0] == 3 and walks == [(465, 10 ** 7)]
        walks.clear()
        assert run_cli(capsys, "khovanskii", "--input", str(path),
                       "--route", "interpolation") == auto
        assert walks == [(465, 10 ** 7)]

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

    @pytest.mark.parametrize("emit", [[], ["--emit-points"]])
    @pytest.mark.parametrize("fmt, text", [
        ("json", '{\n  "growth": [],\n  "partial": false\n}\n'),
        ("csv", "n,size\n"),
        ("text", "growth: []\npartial: false\n"),
    ])
    def test_max_n_zero_prints_the_empty_table(self, capsys, a135_txt, emit, fmt, text):
        assert run_cli(capsys, "growth", "--input", a135_txt, "--max-n", "0",
                       "--format", fmt, *emit) == (0, text, "")

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

    def test_csv_never_decodes_levels(self, capsys, a135_txt, monkeypatch):
        # csv prints n,size only, so --emit-points asks for no point arrays
        def no_decode(*args):
            raise AssertionError("a level was decoded")

        plain = run_cli(capsys, "growth", "--input", a135_txt, "--max-n", "6",
                        "--format", "csv")
        monkeypatch.setattr(kernels, "decode_keys", no_decode)
        emitted = run_cli(capsys, "growth", "--input", a135_txt, "--max-n", "6",
                          "--format", "csv", "--emit-points")
        assert emitted == plain and plain[0] == 0

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

    @pytest.mark.parametrize("fixture", ["a135_txt", "square_json"])
    def test_timing_adds_only_the_layer_times(self, capsys, request, fixture):
        path = request.getfixturevalue(fixture)
        code, out, _ = run_cli(capsys, "analyze", "--input", path)
        timed_code, timed_out, _ = run_cli(capsys, "analyze", "--input", path,
                                           "--timing")
        assert code == timed_code == 0
        plain, timed = json.loads(out), json.loads(timed_out)
        assert "timing" not in plain
        timing = timed.pop("timing")
        assert set(timing) == {"normalize_s", "geometry_s", "khovanskii_s",
                               "structure_s"}
        assert all(isinstance(v, float) and v >= 0 for v in timing.values())
        assert timed == plain


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


class TestStructureWindowEnds:
    """A vertex sieve too large for --cap-points ends the window in exit 3."""

    def test_huge_gap_needs_no_level_walk(self, capsys, tmp_path):
        # reach 2^62 per vertex: no level fits a sieve of 10^7 cells, and
        # the error names that cap
        path = tmp_path / "gap62.txt"
        path.write_text(f"0\n1\n3\n{2 ** 62}\n")
        code, out, err = run_cli(capsys, "structure", "--input", str(path))
        assert code == 3 and out == ""
        assert err == ("error: budget exhausted: the vertex sieves for level 1 "
                       "exceed the 10000000 point cap\n")

    @pytest.mark.parametrize("command", ["structure", "analyze"])
    def test_zero_cap_names_the_sieve_cap(self, capsys, a135_txt, command):
        code, out, err = run_cli(capsys, command, "--input", a135_txt,
                                 "--cap-points", "0")
        assert code == 3 and out == ""
        assert err == ("error: budget exhausted: the vertex sieves for level 1 "
                       "exceed the 0 point cap\n")

    @pytest.mark.parametrize("command", ["structure", "analyze"])
    @pytest.mark.parametrize("point", ["4 7", "5"])
    def test_zero_cap_on_one_point(self, capsys, tmp_path, command, point):
        # a single point normalizes to dimension 0: its one sieve cell does
        # not fit a cap of 0, and fits a cap of 1
        path = tmp_path / "one.txt"
        path.write_text(point + "\n")
        code, out, err = run_cli(capsys, command, "--input", str(path),
                                 "--cap-points", "0")
        assert code == 3 and out == ""
        assert err == ("error: budget exhausted: the vertex sieves for level 1 "
                       "exceed the 0 point cap\n")
        code, out, err = run_cli(capsys, command, "--input", str(path),
                                 "--cap-points", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["structure"]["threshold"] == 1

    def test_slow_window_stops_empirical(self, capsys, tmp_path):
        # bound 285715; the sieves of 10^7 cells reach level 9999 and the
        # test budget ends the window well before that
        path = tmp_path / "a_0_7_1000.txt"
        path.write_text("0\n7\n1000\n")
        code, out, _ = run_cli(capsys, "structure", "--input", str(path))
        assert code == 3
        report = json.loads(out)
        section = report["structure"]
        assert report["partial"] is True
        assert section["threshold_status"] == "empirical"
        assert section["bound_a"] == 285715
        assert 1 < section["threshold_window_top"] < 9999


class TestHighDimensionRendering:
    """The structure coarse bound has over 4300 digits once d >= 3."""

    @staticmethod
    def _write(tmp_path, dim, ones=False):
        """The unit d-simplex {0, e_1..e_d}, with (1, ..., 1) when ``ones``."""
        rows = [[0] * dim] + [[int(i == j) for j in range(dim)] for i in range(dim)]
        rows += [[1] * dim] if ones else []
        path = tmp_path / f"simplex{dim}{'_ones' * ones}.txt"
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

    def test_bounds_7d_pinned(self, capsys, tmp_path):
        # (7 * 9 * 1) ** (13 * 7^6): 2.75M digits, never built
        code, out, _ = run_cli(capsys, "bounds", "--input",
                               self._write(tmp_path, 7, ones=True))
        assert code == 0
        assert json.loads(out)["structure"]["coarse"] == {
            "digits": 2751979, "leading": "102786159085908823861466"}

    @pytest.mark.parametrize("dim", [5, 6])
    def test_bounds_5d_6d_exact(self, capsys, tmp_path, dim):
        code, out, _ = run_cli(capsys, "bounds", "--input",
                               self._write(tmp_path, dim, ones=True))
        assert code == 0
        digits, leading = digits_and_leading((dim * (dim + 2)) ** (13 * dim ** 6))
        assert json.loads(out)["structure"]["coarse"] == {
            "digits": digits, "leading": leading}

    def test_4d_commands_never_build_coarse(self, capsys, tmp_path, monkeypatch):
        """Only the (base, exponent) pairs are read: building either coarse
        bound would end the run in exit 4."""
        def unbuilt(self):
            raise AssertionError("coarse bound built")

        monkeypatch.setattr(KhovanskiiBounds, "coarse", property(unbuilt))
        monkeypatch.setattr(StructureBounds, "coarse", property(unbuilt))
        path = self._write(tmp_path, 4)
        for command in ("bounds", "analyze", "khovanskii", "structure", "verify"):
            code, _, err = run_cli(capsys, command, "--input", path)
            assert code == 0, (command, err)


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

    def test_pivot_value_that_starts_with_a_minus(self, capsys, tmp_path):
        # a separate value such as -1,0 is the pivot, as --pivot=-1,0 is
        path = tmp_path / "corner.txt"
        path.write_text("-1 0\n0 0\n0 1\n")
        joined = run_cli(capsys, "bounds", "--input", str(path), "--pivot=-1,0")
        assert joined[0] == 0
        assert run_cli(capsys, "bounds", "--input", str(path), "--pivot", "-1,0") == joined

    def test_verify_clean(self, capsys, a135_txt):
        code, out, _ = run_cli(capsys, "verify", "--input", a135_txt)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert all(c["status"] == "ok" for c in report["checks"])


    def test_verify_skips_the_formula_on_a_truncated_scan(self, capsys, tmp_path):
        path = tmp_path / "pinned.txt"
        path.write_text("2\n5\n6\n7\n13\n15\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        not_ok = [c for c in report["checks"] if c["status"] != "ok"]
        assert [(c["name"], c["status"]) for c in not_ok] == [
            ("growth_and_formula", "skipped")]
        assert "truncated at weight" in not_ok[0]["detail"]

    def test_verify_clean_on_the_corpus(self, capsys, tmp_path):
        # every corpus set has an exact obstruction scan
        for name, pts in CORPUS:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"dim": len(pts[0]),
                                        "points": [list(p) for p in pts]}))
            code, out, err = run_cli(capsys, "verify", "--input", str(path))
            assert code == 0, (name, err)
            assert json.loads(out)["ok"] is True, name


class TestOneNormalizationPerInput:
    """normalize_config is memoized on (points, dim, pivot): the requests
    on one input in one process normalize it once per pivot."""

    @pytest.fixture
    def normalizations(self, monkeypatch):
        calls = []
        fresh = lattice.normalize_fresh

        def counted(config, pivot=None):
            calls.append(pivot)
            return fresh(config, pivot)

        monkeypatch.setattr(lattice, "normalize_fresh", counted)
        lattice._normalize_cache.clear()
        yield calls
        lattice._normalize_cache.clear()

    @pytest.fixture
    def triangle_json(self, tmp_path):
        # a triangle with vertices (2, 1), (5, 1), (2, 4) around the point (3, 2)
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps(
            {"dim": 2, "points": [[2, 1], [5, 1], [2, 4], [3, 2]]}))
        return str(path)

    def test_three_commands_normalize_once(self, capsys, triangle_json, normalizations):
        for command in ("bounds", "circuits", "triangulate"):
            assert run_cli(capsys, command, "--input", triangle_json)[0] == 0
        assert normalizations == [None]

    def test_each_pivot_is_one_entry(self, capsys, triangle_json, normalizations):
        for pivot in ("5,1", "2,4", "5,1"):
            for command in ("bounds", "circuits"):
                assert run_cli(capsys, command, "--input", triangle_json,
                               f"--pivot={pivot}")[0] == 0
        assert normalizations == [(5, 1), (2, 4)]
        assert sorted(key[2] for key in lattice._normalize_cache) == [(2, 4), (5, 1)]

    def test_non_vertex_pivot_fails_every_time(self, capsys, triangle_json, normalizations):
        # an error is not cached, so each call checks the pivot again
        for _ in range(3):
            code, _, err = run_cli(capsys, "circuits", "--input", triangle_json,
                                   "--pivot=3,2")
            assert code == 2 and "extremal" in err
        assert normalizations == [(3, 2)] * 3
        assert not lattice._normalize_cache


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

    def test_pivot_of_the_wrong_length_is_bad_input(self, capsys, square_json, a135_txt):
        code, _, err = run_cli(capsys, "analyze", "--input", square_json, "--pivot", "1")
        assert code == 1
        assert "--pivot has length 1, the input points have length 2" in err
        code, _, err = run_cli(capsys, "structure", "--input", a135_txt, "--pivot", "0,0")
        assert code == 1 and "length 2" in err and "length 1" in err
        # a pivot of the right length that is no vertex is still exit 2
        code, _, err = run_cli(capsys, "analyze", "--input", square_json, "--pivot", "1,2")
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

        # both sumset routes pack the generators' keys
        monkeypatch.setattr(kernels, "pack_rows", broken)
        code, out, err = run_cli(capsys, "growth", "--max-n", "3",
                                 "--input", a135_txt)
        assert code == 4 and out == ""
        assert err == "internal error: ValueError: broken kernel\n"


class _FullStdout:
    """A stdout on a full disk: ``write`` or only ``flush`` fails."""

    def __init__(self, on_write):
        self.on_write = on_write

    def _fail(self, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.on_write:
            self._fail()
        return len(text)

    flush = _fail


class TestWriteErrors:
    @pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
    def test_full_stdout_is_internal_error(self, capsys, monkeypatch, a135_txt,
                                           on_write):
        monkeypatch.setattr(sys, "stdout", _FullStdout(on_write))
        code = main(["growth", "--max-n", "5", "--input", a135_txt])
        assert code == 4
        assert capsys.readouterr().err == (
            f"internal error: OSError: [Errno {errno.ENOSPC}] "
            f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["--max-n", "5"],
                                      ["--max-n", "40", "--emit-points"]],
                             ids=["small", "large"])
    def test_dev_full_exits_4(self, a135_txt, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sumsetlab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "sumsetlab.cli", "growth", "--input", a135_txt,
                 *argv], stdout=full, stderr=subprocess.PIPE, env=env, text=True,
                timeout=120)
        assert done.returncode == 4
        assert done.stderr == (f"internal error: OSError: [Errno {errno.ENOSPC}] "
                               f"{os.strerror(errno.ENOSPC)}\n")


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


def test_exact_path_never_takes_bitsets(capsys, corpus_paths, request, sumset_routes):
    """On int64 every level walk of ``growth`` and ``analyze`` over the
    corpus, the structure window's too, fits the bitset engine.  That
    engine needs int64 keys, so with every kernel on Python ints they walk
    their levels by the frontier iteration on sorted keys: the exact path
    that ``test_analyze_identical_on_the_exact_path`` and
    ``test_growth_goldens_on_the_exact_path`` hold to the int64 output."""
    def walk():
        for path in corpus_paths:
            run_cli(capsys, "growth", "--max-n", "12", "--input", path)
            run_cli(capsys, "analyze", "--input", path)

    walk()
    assert sumset_routes and set(sumset_routes) == {"bits"}
    sumset_routes.clear()
    request.getfixturevalue("object_keys")
    khovanskii._obstruction_cache.clear()
    walk()
    assert sumset_routes and set(sumset_routes) == {"keys"}


def _imports_numpy_ma(requests) -> bool:
    """Whether numpy.ma is in sys.modules after ``main`` has answered each
    argv of ``requests`` in turn, each with exit 0, in a fresh interpreter."""
    script = (
        "import io, json, sys, contextlib\n"
        "from sumsetlab.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sumsetlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(requests)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {"True\n": True, "False\n": False}[done.stdout]


def test_analyze_never_imports_numpy_ma(corpus_paths):
    """Set operations on the analyze path are searches over sorted keys.

    np.isin and np.unique import numpy.ma on their first call in numpy 2.x
    (about 15 ms in a fresh process), so its absence after
    ``analyze`` over the corpus shows that neither ran.
    """
    assert not _imports_numpy_ma([["analyze", "--input", path] for path in corpus_paths])


def test_other_commands_never_import_numpy_ma(tmp_path):
    """As above for the emitted points, in json and text, of hexagon6 (whose
    row table is indexed by key offset and whose columns by value offset)
    and of {0, 1000} (sorted distinct keys and values, searchsorted), and
    for every other command on hexagon6."""
    requests = []
    for name, points, n_max in (
            ("hexagon6", [[0, 0], [1, 0], [0, 1], [1, 2], [2, 1], [2, 2]], "12"),
            ("sparse", [[0], [1000]], "30")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"points": points}))
        for fmt in ("json", "text"):
            requests.append(["growth", "--emit-points", "--max-n", n_max,
                             "--format", fmt, "--input", str(path)])
    for command in (["khovanskii"], ["structure", "--max-n", "5"], ["verify"],
                    ["bounds"], ["circuits"], ["triangulate"]):
        requests.append([*command, "--input", str(tmp_path / "hexagon6.json")])
    assert not _imports_numpy_ma(requests)
