"""CLI surface: exit-status contract, JSON determinism, file round trips."""

import contextlib
import http.client
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fake_urlopen, src_env
from tripos.cli import CHECK_NAMES, main
from tripos.properties import TRIANGLE_CHECKS
from tripos.triangles import PRESET_NAMES, Triangle, bisnomial_row, build_preset, row_polys


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestGenerate:
    def test_preset_to_file(self, capsys, tmp_path):
        out = tmp_path / "motzkin.txt"
        code, report, _ = run(capsys, "generate", "--preset", "motzkin",
                              "--n", "10", "--out", str(out))
        assert code == 0
        t = Triangle.parse(out.read_text())
        assert [t.rows[n][0] for n in range(11)] == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]

    def test_s_pascal(self, capsys, tmp_path):
        out = tmp_path / "tri.txt"
        code, _, _ = run(capsys, "generate", "--preset", "s_pascal", "--s", "2",
                         "--n", "5", "--out", str(out))
        assert code == 0
        t = Triangle.parse(out.read_text())
        for n in range(6):
            assert list(t.rows[n]) == bisnomial_row(n, 2)

    def test_n_zero(self, capsys):
        code, report, _ = run(capsys, "generate", "--preset", "pascal", "--n", "0")
        assert code == 0
        assert report["reports"][0]["triangle"][1] == "1"

    def test_const_params(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        code, _, _ = run(capsys, "generate", "--params", "1,1,0,1,1,1,0",
                         "--n", "6", "--out", str(out))
        assert code == 0
        t = Triangle.parse(out.read_text())
        assert t.arity == 2
        assert [t.rows[n][0] for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]

    def test_scheme_file(self, capsys, tmp_path):
        scheme = {
            "kind": "three-term",
            "f": {"constant": "1"},
            "g": {"constant": "1"},
        }
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme))
        out = tmp_path / "t.txt"
        code, _, _ = run(capsys, "generate", "--scheme-file", str(path),
                         "--n", "5", "--out", str(out))
        assert code == 0
        assert Triangle.parse(out.read_text()).rows == build_preset("motzkin", 5).rows

    def test_bad_params_exit2(self, capsys):
        code, _, err = run(capsys, "generate", "--params", "1,2", "--n", "3")
        assert code == 2
        assert "error" in err

    def test_negative_n_exit2(self, capsys):
        code, report, err = run(capsys, "generate", "--preset", "pascal", "--n", "-3")
        assert code == 2
        assert report is None
        assert "non-negative" in err

    @pytest.mark.parametrize("content", [b"[1, 2]", b'{"kind": "three-term", "f": "\xff"}'])
    def test_unreadable_scheme_file_exit2(self, capsys, tmp_path, content):
        path = tmp_path / "scheme.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "generate", "--scheme-file", str(path), "--n", "3")
        assert code == 2
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("target", ["dir", "missing/t.txt"])
    def test_unwritable_out_exit2(self, capsys, tmp_path, target):
        (tmp_path / "dir").mkdir()
        out = tmp_path / target
        code, report, err = run(capsys, "generate", "--preset", "pascal", "--n", "3",
                                "--out", str(out))
        assert code == 2
        assert report is None
        assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err

    def test_short_affine_scheme_exit2(self, capsys, tmp_path):
        scheme = {"kind": "three-term", "f": {"affine": ["1"]}, "g": {"constant": "0"}}
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme))
        code, _, err = run(capsys, "generate", "--scheme-file", str(path), "--n", "3")
        assert code == 2
        assert "affine" in err and "Traceback" not in err


class TestCheck:
    def test_preset_holds(self, capsys):
        code, report, _ = run(capsys, "check", "--preset", "aigner_catalan",
                              "--n", "15", "rowgen-strong-qlcx")
        assert code == 0
        assert report["reports"][0]["verdict"] == "holds"

    def test_preset_all_checks(self, capsys):
        code, report, _ = run(capsys, "check", "--preset", "motzkin", "--n", "10",
                              "rows-log-concave", "rowgen-strong-qlcx", "tp")
        assert code == 0
        assert [r["verdict"] for r in report["reports"]] == ["holds"] * 3

    def test_failing_file_exit1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# arity=1 n_max=2\n1\n1 1\n1 1 2\n")
        code, report, _ = run(capsys, "check", "--file", str(path), "rows-log-concave")
        assert code == 1
        witness = report["reports"][0]["witness"]
        assert witness["row"] == 2 and witness["index"] == 1

    def test_negative_entries_exit3(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("# arity=1 n_max=1\n1\n-1 1\n")
        code, report, _ = run(capsys, "check", "--file", str(path), "rows-log-concave")
        assert code == 3
        assert report["reports"][0]["verdict"] == "inapplicable"

    def test_oeis_from_warm_cache(self, capsys, tmp_path):
        values = [v for n in range(8) for v in bisnomial_row(n, 2)]
        (tmp_path / "A027907.txt").write_text(
            "".join(f"{i} {v}\n" for i, v in enumerate(values))
        )
        code, report, _ = run(capsys, "check", "--oeis", "A027907", "--arity", "2",
                              "--cache-dir", str(tmp_path), "--offline",
                              "rows-log-concave")
        assert code == 0
        assert report["inputs"]["entries_used"] == len(values)

    def test_oeis_offline_cold_exit2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--oeis", "A027907", "--arity", "2",
                           "--cache-dir", str(tmp_path), "--offline",
                           "rows-log-concave")
        assert code == 2
        assert "cache miss" in err

    def test_non_utf8_cached_bfile_exit2(self, capsys, tmp_path):
        (tmp_path / "A000001.txt").write_bytes(b"0 1\n1 \xff\n")
        code, report, err = run(capsys, "check", "--oeis", "A000001", "--arity", "1",
                                "--offline", "--cache-dir", str(tmp_path), "tp")
        assert code == 2
        assert report is None
        assert err.startswith("error: cannot read cached b-file") and "Traceback" not in err

    def test_unwritable_cache_dir_exit2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("urllib.request.urlopen",
                            fake_urlopen(b"0 1\n1 1\n"))
        cache = tmp_path / "not-a-dir"
        cache.write_text("")
        code, report, err = run(capsys, "check", "--oeis", "A000001", "--arity", "1",
                                "--cache-dir", str(cache), "tp")
        assert code == 2
        assert report is None
        assert err.startswith("error: cannot write b-file cache") and "Traceback" not in err

    def test_truncated_download_exit2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("urllib.request.urlopen",
                            fake_urlopen(http.client.IncompleteRead(b"0 1\n1")))
        code, report, err = run(capsys, "check", "--oeis", "A000001", "--arity", "1",
                                "--cache-dir", str(tmp_path), "tp")
        assert code == 2
        assert report is None
        assert err.startswith("error: could not retrieve") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_negative_n_exit2(self, capsys):
        code, _, err = run(capsys, "check", "--preset", "pascal", "--n", "-1",
                           "rows-log-concave")
        assert code == 2
        assert "non-negative" in err

    def test_non_utf8_triangle_exit2(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# arity=1 n_max=1\n1\n1 \xe9\n")
        code, _, err = run(capsys, "check", "--file", str(path), "rows-log-concave")
        assert code == 2
        assert "error" in err and "Traceback" not in err

    def test_negative_arity_exit2(self, capsys, tmp_path):
        path = tmp_path / "arity.txt"
        path.write_text("# arity=-1 n_max=0\n1\n")
        code, _, err = run(capsys, "check", "--file", str(path), "rows-log-concave")
        assert code == 2
        assert "arity" in err

    def test_malformed_triangle_exit2(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("not a triangle\n")
        code, _, _ = run(capsys, "check", "--file", str(path), "rows-log-concave")
        assert code == 2


class TestConditions:
    def test_thm34_motzkin(self, capsys):
        code, report, _ = run(capsys, "conditions", "thm34",
                              "--params", "1,1,0,1,1,1,0")
        assert code == 0
        assert report["reports"][0]["established"] is True

    def test_cor22_two_pascal(self, capsys):
        code, report, _ = run(capsys, "conditions", "cor22",
                              "--params", "1,1,1,1,1,0,0")
        assert code == 0

    def test_thm34_failing_params_exit1(self, capsys):
        code, report, _ = run(capsys, "conditions", "thm34",
                              "--params", "1,1,0,1,1,0,1")
        assert code == 1
        c4 = report["reports"][0]["conditions"][3]
        failing = [c["clause"] for c in c4["clauses"] if not c["holds"]]
        assert "g^2 >= f*h" in failing

    def test_thm21_scheme_file(self, capsys, tmp_path):
        scheme = {
            "kind": "five-term",
            "gamma": {"constant": "1"}, "e": {"constant": "1"},
            "f": {"constant": "1"}, "g": {"constant": "0"},
            "h": {"constant": "0"},
        }
        path = tmp_path / "penta.json"
        path.write_text(json.dumps(scheme))
        code, report, _ = run(capsys, "conditions", "thm21",
                              "--schemes", str(path), "--k-max", "20")
        assert code == 0
        assert report["reports"][0]["established"] is True

    def test_tail_recurrence_flag(self, capsys):
        code, report, _ = run(capsys, "conditions", "thm34",
                              "--params", "2,1,0,1,3,2,0",
                              "--tail-recurrence", "8")
        assert code == 0
        assert report["reports"][1]["property"] == "tail-recurrence-identity"
        assert report["reports"][1]["verdict"] == "holds"

    def test_negative_params_exit2(self, capsys):
        code, _, _ = run(capsys, "conditions", "thm34", "--params", "1,1,0,1,-1,0,0")
        assert code == 2


class TestTransform:
    @pytest.fixture()
    def motzkin_polys(self, tmp_path):
        t = build_preset("motzkin", 21)
        path = tmp_path / "polys.txt"
        path.write_text("".join(str(p) + "\n" for p in row_polys(t)))
        return path

    def test_convex_holds(self, capsys, motzkin_polys):
        code, report, _ = run(capsys, "transform", str(motzkin_polys),
                              "--s", "2", "--n-max", "10", "--direction", "convex")
        assert code == 0
        body = report["reports"][0]
        assert body["verdict"] == "holds"
        assert len(body["transformed"]) == 11

    def test_constant_file_any_s(self, capsys, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("1\n" * 13)
        for s in ("1", "3"):
            code, _, _ = run(capsys, "transform", str(path), "--s", s,
                             "--direction", "convex")
            assert code == 0

    def test_inapplicable_exit3(self, capsys, tmp_path):
        path = tmp_path / "gate.txt"
        path.write_text("1\n0 1\n1\n1\n")
        code, report, _ = run(capsys, "transform", str(path), "--s", "1",
                              "--direction", "convex")
        assert code == 3
        assert report["reports"][0]["verdict"] == "inapplicable"

    def test_non_utf8_file_exit2(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1\n1 \xe9\n")
        code, _, err = run(capsys, "transform", str(path), "--s", "1",
                           "--direction", "convex")
        assert code == 2
        assert "error" in err and "Traceback" not in err

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nnot-a-number\n")
        code, _, err = run(capsys, "transform", str(path), "--s", "1",
                           "--direction", "convex")
        assert code == 2
        assert "line 2" in err


class TestReportEnvelope:
    def test_deterministic_modulo_timing(self, capsys):
        argv = ["conditions", "thm34", "--params", "1,1,0,1,1,1,0"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_json_file_output(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, report, _ = run(capsys, "--json", str(out), "check", "--preset",
                              "pascal", "--n", "5", "rows-log-concave")
        assert code == 0
        assert json.loads(out.read_text()) == report

    def test_version_echoed(self, capsys):
        _, report, _ = run(capsys, "check", "--preset", "pascal", "--n", "3",
                           "rows-log-concave")
        assert report["artifact"]["name"] == "tripos"
        assert report["command"] == "check"

    def test_json_to_directory_exit2(self, capsys, tmp_path):
        code, report, err = run(capsys, "--json", str(tmp_path), "check", "--preset",
                                "pascal", "--n", "3", "tp")
        assert code == 2
        assert report is None
        assert err.startswith(f"error: cannot write {tmp_path}") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "--preset", "pascal", "--n", "2", "tp"],
        ["generate", "--preset", "pascal", "--n", "300"],
    ], ids=["check", "generate"])
    def test_closed_stdout_exit2(self, argv):
        # A reader that goes away (`tripos generate ... | head -c 10`) is an
        # output fault, not a failing property: exit 2, one line, no traceback.
        proc = subprocess.Popen([sys.executable, "-m", "tripos.cli", *argv], env=src_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == "error: stdout was closed before the report was written\n"

    def test_usage_error_exit2(self, capsys):
        assert main(["check", "--preset", "pascal"]) == 2  # missing checks

    def test_summary_on_stderr(self, capsys):
        _, _, err = run(capsys, "check", "--preset", "pascal", "--n", "4",
                        "rows-log-concave")
        assert "rows-log-concave: holds" in err


# -- input faults and the exit-code contract ---------------------------------------

ZERO_DENOMINATOR_COMMANDS = {
    "triangle-file": (["check", "--file", "{path}", "rows-log-concave"],
                      "# arity=1 n_max=1\n1\n1/0 1\n"),
    "poly-file": (["transform", "{path}", "--s", "2", "--direction", "convex"], "1\n1 1/0\n"),
    "cor22-params": (["conditions", "cor22", "--params", "1/0,1,1,1,1,1,1"], None),
    "generate-params": (["generate", "--params", "1/0,1,1,1,1,1,1", "--n", "3"], None),
}


@pytest.mark.parametrize("argv, content", ZERO_DENOMINATOR_COMMANDS.values(),
                         ids=list(ZERO_DENOMINATOR_COMMANDS))
def test_zero_denominator_exit2(capsys, tmp_path, argv, content):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_text(content)
    code, report, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert report is None
    assert "zero denominator" in err and "Traceback" not in err


SCHEME_NAMES = {
    "three-term": ("f", "g"),
    "five-term": ("gamma", "e", "f", "g", "h"),
}


@pytest.mark.parametrize("scheme", [
    3,
    {"affine": ["1", "x"]},
    {"constant": "1/0"},
    {"table": 5},
    {"table": [1, 2], "start": "x"},
])
@pytest.mark.parametrize("argv", [
    ["generate", "--scheme-file", "{path}", "--n", "3"],
    ["conditions", "thm21", "--schemes", "{path}"],
], ids=["generate", "thm21"])
def test_malformed_scheme_exit2(capsys, tmp_path, scheme, argv):
    kind = "three-term" if argv[0] == "generate" else "five-term"
    body = {"kind": kind, **{name: {"constant": "1"} for name in SCHEME_NAMES[kind]}}
    body["f"] = scheme
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(body))
    code, report, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert report is None
    assert "error" in err and "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit")
class TestDigitLimit:
    """Numbers that parse but whose results are too long to print exit 2."""

    def _assert_exit2(self, capsys, *argv):
        limit = sys.get_int_max_str_digits()
        code, report, err = run(capsys, *argv)
        assert code == 2
        assert report is None
        assert err == f"error: cannot print a number of more than {limit} digits " \
                      "(Python's int-to-str limit)\n"
        assert sys.get_int_max_str_digits() == limit

    def test_witness_past_limit_exit2(self, capsys, tmp_path):
        # 1^2 >= 10^d * 10^d fails at row 2; the witness rhs has 2d + 1 digits
        big = 10 ** (sys.get_int_max_str_digits() // 2 + 1)
        path = tmp_path / "big.txt"
        path.write_text(f"# arity=1 n_max=2\n1\n1 1\n{big} 1 {big}\n")
        self._assert_exit2(capsys, "check", "--file", str(path), "rows-log-concave")

    def test_generated_entry_past_limit_exit2(self, capsys):
        f = 10 ** (sys.get_int_max_str_digits() // 2 + 1)
        self._assert_exit2(capsys, "generate", "--params", f"1,1,0,1,{f},0,0", "--n", "3")


EXPONENT_COMMANDS = {
    "triangle-file": (["check", "--file", "{path}", "rows-log-concave"],
                      "# arity=1 n_max=1\n1\n1e30000000 1\n"),
    "poly-file": (["transform", "{path}", "--s", "2", "--direction", "convex"], "1\n1 1e30000000\n"),
    "cor22-params": (["conditions", "cor22", "--params", "1e30000000,1,1,1,1,1,1"], None),
    "generate-params": (["generate", "--params", "1,1,0,1,1e-30000000,1,0", "--n", "3"], None),
    "scheme-value": (["generate", "--scheme-file", "{path}", "--n", "3"],
                     json.dumps({"kind": "three-term", "f": {"constant": "1"},
                                 "g": {"table": ["1", "2.5E30000000"]}})),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit")
@pytest.mark.parametrize("argv, content", EXPONENT_COMMANDS.values(), ids=list(EXPONENT_COMMANDS))
def test_exponent_past_digit_limit_exit2(capsys, tmp_path, argv, content):
    # Fraction would expand 10**30000000 first: about a minute and 70 MB
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_text(content)
    code, report, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert report is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"past the {sys.get_int_max_str_digits()}-digit limit" in err


class TestArgumentBounds:
    def test_k_max_below_two_exit2(self, capsys, tmp_path):
        # The thm21 conditions range over 2 <= k <= k_max: f = 3 breaks them
        # at k = 2, and k_max = 1 would certify them over an empty range.
        body = {"kind": "five-term", **{name: {"constant": "1"}
                                        for name in SCHEME_NAMES["five-term"]}}
        body["f"] = {"constant": "3"}
        path = tmp_path / "penta.json"
        path.write_text(json.dumps(body))
        argv = ["conditions", "thm21", "--schemes", str(path), "--k-max"]
        code, report, _ = run(capsys, *argv, "2")
        assert code == 1
        assert report["reports"][0]["established"] is False
        code, report, err = run(capsys, *argv, "1")
        assert code == 2
        assert report is None
        assert "--k-max" in err

    def test_negative_tail_recurrence_exit2(self, capsys):
        code, report, err = run(capsys, "conditions", "thm34", "--params", "1,1,1,1,1,1,1",
                                "--tail-recurrence", "-2")
        assert code == 2
        assert report is None
        assert "--tail-recurrence" in err

    def test_zero_tail_recurrence_exit2(self, capsys):
        # Rows 1..0 are an empty range, so there is nothing to certify.
        code, report, err = run(capsys, "conditions", "thm34", "--params", "1,1,1,1,1,1,1",
                                "--tail-recurrence", "0")
        assert code == 2
        assert report is None
        assert "--tail-recurrence" in err

    def test_arity_flag_below_one_exit2(self, capsys):
        code, report, err = run(capsys, "check", "--preset", "pascal", "--n", "3",
                                "--arity", "-1", "rows-log-concave")
        assert code == 2
        assert report is None
        assert "--arity" in err

    @pytest.mark.parametrize("command", [
        ["generate", "--preset", "pascal", "--n", "2"],
        ["check", "--preset", "pascal", "--n", "2", "rows-log-concave"],
    ], ids=["generate", "check"])
    def test_s_on_preset_without_s_exit2(self, capsys, command):
        code, report, err = run(capsys, *command, "--s", "3")
        assert code == 2
        assert report is None
        assert err == "error: preset pascal takes no s\n"

    def test_negative_transform_n_max_exit2(self, capsys, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("1\n" * 5)
        code, report, err = run(capsys, "transform", str(path), "--s", "1",
                                "--n-max", "-1", "--direction", "convex")
        assert code == 2
        assert report is None
        assert "--n-max" in err


NUMBERS = ("0", "1", "-1", "3", "2/3", "-1/2", "1/0", "0/0", "x", "1.5", "", "1e3", "nan")
numbers = st.one_of(st.sampled_from(NUMBERS), st.text(max_size=3))
small_ints = st.sampled_from(("-2", "-1", "0", "1", "2", "3", "x", ""))
scheme_values = st.one_of(
    st.sampled_from(NUMBERS), st.integers(-3, 3), st.none(), st.booleans(),
    st.floats(-3, 3), st.lists(st.sampled_from(NUMBERS), max_size=3),
)
schemes = st.one_of(scheme_values, st.fixed_dictionaries({}, optional={
    key: scheme_values for key in ("constant", "affine", "table", "start")}))
scheme_files = st.fixed_dictionaries(
    {"kind": st.sampled_from(("three-term", "five-term", "x"))},
    optional={name: schemes for name in SCHEME_NAMES["five-term"]},
).map(json.dumps)
number_lines = st.lists(st.lists(numbers, max_size=4).map(" ".join), max_size=5)
triangle_files = st.builds(
    lambda header, lines: "\n".join([header, *lines]) + "\n",
    st.one_of(st.builds("# arity={} n_max={}".format, small_ints, small_ints), numbers),
    number_lines,
)
poly_files = number_lines.map("\n".join)
params = st.lists(st.sampled_from(NUMBERS), min_size=6, max_size=8).map(",".join)

# Every file argument names a file the test writes, and every "--out" a path
# that cannot be written; "--oeis" always comes with "--offline", so no run
# touches the network.
fragments = st.one_of(
    st.tuples(st.sampled_from(("--n", "--s", "--arity", "--tp-order", "--k-max",
                               "--tail-recurrence", "--n-max")), small_ints),
    st.tuples(st.just("--params"), params),
    st.tuples(st.sampled_from(("--file", "--scheme-file", "--schemes")),
              st.sampled_from(("{triangle}", "{scheme}", "{polys}", "{missing}"))),
    st.tuples(st.just("--preset"), st.sampled_from(PRESET_NAMES + ("nope",))),
    st.tuples(st.just("--direction"), st.sampled_from(("convex", "concave", "up"))),
    st.tuples(st.just("--out"), st.sampled_from(("{dir}", "{missing}/t.txt"))),
    st.just(("--oeis", "A027907", "--offline", "--cache-dir", "{cache}")),
    st.tuples(st.sampled_from(("rows-log-concave", "rowgen-strong-qlcx", "rowgen-strong-qlcv",
                               "tp", "thm21", "cor22", "thm34", "{polys}", "{triangle}"))),
)
argvs = st.one_of(
    st.builds(lambda command, parts: [command, *(arg for part in parts for arg in part)],
              st.sampled_from(("generate", "check", "conditions", "transform", "nope")),
              st.lists(fragments, max_size=6)),
    st.sampled_from((
        ["generate", "--scheme-file", "{scheme}", "--n", "3"],
        ["generate", "--params", "{params}", "--n", "3"],
        ["check", "--file", "{triangle}", "rows-log-concave", "rowgen-strong-qlcx", "tp"],
        ["conditions", "thm21", "--schemes", "{scheme}", "--k-max", "3"],
        ["conditions", "cor22", "--params", "{params}"],
        ["conditions", "thm34", "--params", "{params}", "--tail-recurrence", "3"],
        ["transform", "{polys}", "--s", "1", "--direction", "convex"],
        ["transform", "{polys}", "--s", "2", "--direction", "concave"],
    )),
)


def _failing_report(report: dict) -> bool:
    if report.get("established") is False:
        return True
    output = report.get("output") or {}
    return report.get("verdict") == "fails" and bool(report.get("witness") or output.get("witness"))


@given(argvs, st.data())
@settings(max_examples=150, deadline=None)
def test_cli_exit_contract_fuzz(tmp_path_factory, argv, data):
    # Exit 1 is reserved for a failing property with its witness; every
    # input fault, however malformed, must exit 2 without a traceback.
    tmp = tmp_path_factory.mktemp("fuzz")
    values = {"missing": tmp / "missing", "cache": tmp / "cache", "dir": tmp}
    for name, strategy in (("triangle", triangle_files), ("polys", poly_files),
                           ("scheme", scheme_files), ("params", params)):
        if any(f"{{{name}}}" in arg for arg in argv):
            values[name] = data.draw(strategy, label=name)
            if name != "params":
                path = tmp / name
                path.write_text(values[name])
                values[name] = path
    argv = [arg.format(**values) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert any(_failing_report(r) for r in json.loads(out.getvalue())["reports"]), argv


# -- the check registry and the survey script ----------------------------------------


@pytest.mark.parametrize("name", ["motzkin", "bell", "s_pascal"])
def test_check_reports_come_from_the_registry(capsys, name):
    s = 2 if name == "s_pascal" else None
    argv = ["check", "--preset", name, "--n", "9", "--tp-order", "3", *CHECK_NAMES]
    if s is not None:
        argv += ["--s", str(s)]
    code, report, _ = run(capsys, *argv)
    assert CHECK_NAMES == tuple(TRIANGLE_CHECKS)
    t = build_preset(name, 9, s=s)
    expected = [TRIANGLE_CHECKS[check](t, 3).to_dict() for check in CHECK_NAMES]
    assert report["reports"] == json.loads(json.dumps(expected))
    assert code == (0 if all(r["verdict"] == "holds" for r in expected) else 1)


def test_survey_script_smoke(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "survey_properties.py"
    spec = importlib.util.spec_from_file_location("survey_properties", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    out = tmp_path / "survey.json"
    assert survey.main(["--n", "8", "--json", str(out)]) == 0
    results = json.loads(out.read_text())
    base = {"rows-log-concave", "rowgen-strong-qlcx", "matrix-tp2"}
    const = base | {"conditions-established", "recurrence-matrix-tp2", "tail-recurrence",
                    "deleted-row-identity", "transform-preserves"}
    assert {name: set(flags) for name, flags in results.items()} == {
        name: base if name in ("bell", "s_pascal", "stirling2") else const
        for name in PRESET_NAMES
    }
    assert all(all(flags.values()) for flags in results.values())
    with pytest.raises(SystemExit) as exc:
        survey.main(["--n", "-1"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err
    # a --json path that cannot be written: the table is printed first, then
    # one line on stderr
    assert survey.main(["--n", "2", "--json", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "presets surveyed" in out
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1
