"""CLI surface: exit-status contract, JSON determinism, file round trips."""

import argparse
import contextlib
import http.client
import importlib.util
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fake_urlopen, src_env
from tripos.cli import CHECK_NAMES, build_parser, main
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

    @pytest.mark.parametrize("checks, order", [
        (["rows-log-concave"], 2), (["tp"], 2), (["tp", "--tp-order", "3"], 3)])
    def test_tp_order_echoed(self, capsys, checks, order):
        # The report echoes the tp order: 2 when --tp-order is not given,
        # whether or not tp is among the checks.
        code, report, _ = run(capsys, "check", "--preset", "pascal", "--n", "4", *checks)
        assert code == 0
        assert report["inputs"]["tp_order"] == order
        if "tp" in checks:
            assert report["reports"][0]["checked"] == {"from": 1, "to": order}

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

    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_triangle_without_rows_exit2(self, capsys, tmp_path, check):
        path = tmp_path / "empty.txt"
        path.write_text("# arity=1 n_max=-1\n")
        code, report, err = run(capsys, "check", "--file", str(path), check)
        assert code == 2 and report is None
        assert err.splitlines() == ["error: a triangle needs row 0, so n_max must be >= 0"]


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

    @pytest.mark.parametrize("text", ["1\n0 1\n1\n", "1\n1\n1\n"], ids=["gate-fails", "gate-holds"])
    def test_short_input_exit2_whatever_the_gate(self, capsys, tmp_path, text):
        path = tmp_path / "three.txt"
        path.write_text(text)
        code, report, err = run(capsys, "transform", str(path), "--s", "2",
                                "--n-max", "100", "--direction", "convex")
        assert code == 2
        assert report is None
        assert "needs 201 input polynomials, got 3" in err

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

    @pytest.mark.parametrize("argv, expected", [
        (["transform", "{path}", "--direction", "convex"], {"transformed": ["1 1"]}),
        (["generate", "--preset", "s_pascal", "--n", "0"],
         {"triangle": [f"# arity={10**12} n_max=0", "1"]}),
        (["check", "--preset", "s_pascal", "--n", "0", "rows-log-concave"],
         {"verdict": "holds"}),
    ], ids=["transform", "generate", "check"])
    def test_row_zero_ignores_s(self, tmp_path, argv, expected):
        # B_0 = f_0 and row 0 of the s-Pascal triangle is (1,) for every s, so
        # n_max = 0 must not build the s + 1 band weights.  The child runs
        # under a 1 GiB address-space limit, so a regression fails with exit 2
        # instead of growing until the machine runs out of memory.
        path = tmp_path / "polys.txt"
        path.write_text("1 1\n1 2 1\n1 3 3 1\n")
        argv = [arg.format(path=path) for arg in argv] + ["--s", str(10**12)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tripos.cli", *argv], env=src_env(),
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 0, proc.stderr
        body = json.loads(proc.stdout)["reports"][0]
        assert {k: body[k] for k in expected} == expected

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM")
    @pytest.mark.parametrize("s, code, peak_mb", [(3000, 0, 40), (10**11, 2, 64)],
                             ids=["wide", "past-memory"])
    def test_s_pascal_memory_is_linear_in_the_row_width(self, s, code, peak_mb):
        # Every s-Pascal weight is the int 1, so no list of s*n_max + 1 weights
        # is built for each of the s + 1 offsets (85 MB at s = 3000), and a row
        # width that cannot be allocated fails before the s + 1 offsets grow.
        # The child reports its own peak RSS and runs under a 1 GiB
        # address-space limit, so a regression cannot exhaust the machine.
        script = ("import sys, tripos.cli\n"
                  "code = tripos.cli.main(sys.argv[1:])\n"
                  "status = open('/proc/self/status').read()\n"
                  "print(code, int(status.split('VmHWM:')[1].split()[0]) // 1024)\n")
        argv = ["generate", "--preset", "s_pascal", "--s", str(s), "--n", "1",
                "--out", os.devnull]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=src_env(),
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
        exit_code, peak = map(int, proc.stdout.split()[-2:])
        assert (exit_code, proc.returncode) == (code, 0)
        assert peak < peak_mb
        if code:
            assert proc.stderr == "error: out of memory; the input is too large\n"


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


# -- help width ------------------------------------------------------------------------


@pytest.mark.parametrize("argv, code", [
    (["check", "--preset", "motzkin", "--n", "4", "tp"], 0),
    (["check", "--preset", "motzkin"], 2),
], ids=["run", "usage-error"])
def test_one_terminal_size_read_per_call(monkeypatch, capsys, argv, code):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(1) or size(*a))
    assert main(argv) == code
    assert len(calls) == 1


def test_help_is_that_of_argparse_own_width(monkeypatch):
    # every parser's help reads as argparse's default formatter writes it at
    # the terminal width of that call
    texts = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsers = [parser, *subparsers.choices.values()]
        assert len(parsers) == 5
        texts[columns] = [p.format_help() for p in parsers]
        for p in parsers:
            p.formatter_class = argparse.HelpFormatter
        assert [p.format_help() for p in parsers] == texts[columns]
    assert texts["40"] != texts["200"]


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


SCHEME_FILE_ARGV = {"generate": ["generate", "--scheme-file", "{path}", "--n", "2"],
                   "thm21": ["conditions", "thm21", "--schemes", "{path}"]}
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# json.loads raises a plain ValueError for an integer literal past the digit
# limit, and RecursionError long before 200,000 nested arrays.
LONG_INTEGER_SCHEME = '{"kind": "five-term", "f": {"constant": %s}}' % ("9" * (DIGIT_LIMIT + 1))
NESTED_SCHEME = '{"kind": "five-term", "f": ' + "[" * 200_000 + "]" * 200_000 + "}"

# (argv, scheme file text or None, a fragment of the one error line)
VALIDATION_ERRORS = {
    "oeis-without-arity": (["check", "--oeis", "A000001", "--offline", "--cache-dir", "{dir}",
                            "rows-log-concave"], None, "--oeis needs --arity"),
    "preset-without-n": (["check", "--preset", "pascal", "rows-log-concave"], None,
                         "--preset needs --n"),
    "thm21-without-schemes": (["conditions", "thm21"], None, "thm21 needs --schemes"),
    "thm21-three-term": (SCHEME_FILE_ARGV["thm21"],
                         json.dumps({"kind": "three-term", "f": {"constant": "1"},
                                     "g": {"constant": "1"}}),
                         "thm21 takes a five-term scheme file"),
    "cor22-without-params": (["conditions", "cor22"], None, "cor22 needs --params"),
    "thm34-without-params": (["conditions", "thm34"], None, "thm34 needs --params"),
    "triangle-non-integer-header": (["check", "--file", "{path}", "rows-log-concave"],
                                    "# arity=x n_max=1\n1\n1 1\n", "bad triangle header"),
    # header tokens that used to be read past or dropped
    **{f"triangle-header-{name}": (["check", "--file", "{path}", "rows-log-concave"],
                                   f"# {header}\n1\n1 1\n",
                                   f"takes arity= and n_max= once each, not {token!r}")
       for name, header, token in (("repeated-key", "arity=1 n_max=1 arity=2", "arity=2"),
                                   ("other-key", "arity=1 n_max=1 rows=9", "rows=9"),
                                   ("bare-token", "arity=1 junk n_max=1", "junk"))},
    "scheme-not-json": (SCHEME_FILE_ARGV["generate"], "kind: three-term",
                        "cannot parse the scheme file as JSON"),
    "scheme-unknown-key": (SCHEME_FILE_ARGV["generate"],
                           json.dumps({"kind": "three-term", "f": {"slope": "1"},
                                       "g": {"constant": "1"}}),
                           "unrecognized coefficient scheme"),
    # keys that used to be dropped without a word
    "scheme-table-typo": (SCHEME_FILE_ARGV["generate"],
                          json.dumps({"kind": "three-term",
                                      "f": {"table": [1, 2, 3, 4], "strat": 1},
                                      "g": {"constant": "1"}}),
                          "unknown key 'strat' in a table coefficient scheme"),
    "scheme-two-kinds": (SCHEME_FILE_ARGV["generate"],
                         json.dumps({"kind": "three-term",
                                     "f": {"constant": 1, "affine": [5, 5]},
                                     "g": {"constant": "1"}}),
                         "unknown key 'affine' in a constant coefficient scheme"),
    "scheme-three-term-extra-weight": (SCHEME_FILE_ARGV["generate"],
                                       json.dumps({"kind": "three-term", "f": {"constant": "1"},
                                                   "g": {"constant": "1"},
                                                   "h": {"constant": "1"}}),
                                       "unknown key 'h' in a three-term scheme file"),
    **{f"scheme-nested-{cmd}": (argv, NESTED_SCHEME, "recursion")
       for cmd, argv in SCHEME_FILE_ARGV.items()},
}
VALIDATION_CASES = [pytest.param(*case, id=name) for name, case in VALIDATION_ERRORS.items()] + [
    pytest.param(argv, LONG_INTEGER_SCHEME, "digits", id=f"scheme-long-integer-{cmd}",
                 marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-to-str digit limit"))
    for cmd, argv in SCHEME_FILE_ARGV.items()]


@pytest.mark.parametrize("argv, text, fragment", VALIDATION_CASES)
def test_validation_error_exit2(capsys, tmp_path, argv, text, fragment):
    path = tmp_path / "scheme.json"
    if text is not None:
        path.write_text(text)
    code = main([arg.format(path=path, dir=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err


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


@pytest.mark.parametrize("argv", [
    ["generate", "--preset", "pascal", "--n", "99999999999999", "--out", "/dev/null"],
    ["check", "--preset", "motzkin", "--n", "99999999999", "rows-log-concave"],
], ids=["generate", "check"])
def test_out_of_memory_exit2(capsys, argv):
    # Both sizes fail at the first row allocation (hundreds of GB), before any
    # memory is touched; a size that allocates slowly has no place here.
    code, report, err = run(capsys, *argv)
    assert code == 2
    assert report is None
    assert err == "error: out of memory; the input is too large\n"


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


THM21 = ["conditions", "thm21", "--schemes", "{penta}"]
COR22 = ["conditions", "cor22", "--params", "1,1,1,1,1,0,0"]
THM34 = ["conditions", "thm34", "--params", "1,1,0,1,1,1,0"]
FILE = ["check", "--file", "{triangle}", "rows-log-concave"]
OEIS = ["check", "--oeis", "A027907", "--arity", "2", "--offline", "--cache-dir", "{dir}",
        "rows-log-concave"]
PRESET = ["check", "--preset", "pascal", "--n", "3", "rows-log-concave"]
PARAMS = ["generate", "--params", "1,1,0,1,2,1,0", "--n", "3"]
SCHEME_FILE = ["generate", "--scheme-file", "{three}", "--n", "3"]

# (argv that runs, a flag its theorem, source or checks do not read, the error line)
UNREAD_FLAGS = {
    "thm21-params": (THM21, ["--params", "1,1,1,1,1,1,1"], "error: thm21 takes no --params"),
    "thm21-tail-recurrence": (THM21, ["--tail-recurrence", "5"],
                              "error: thm21 takes no --tail-recurrence"),
    "cor22-schemes": (COR22, ["--schemes", "{penta}"], "error: cor22 takes no --schemes"),
    "cor22-k-max": (COR22, ["--k-max", "4"], "error: cor22 takes no --k-max"),
    "thm34-schemes": (THM34, ["--schemes", "{penta}"], "error: thm34 takes no --schemes"),
    "thm34-k-max": (THM34, ["--k-max", "30"], "error: thm34 takes no --k-max"),
    "file-s": (FILE, ["--s", "2"], "error: --file takes no --s"),
    "file-n": (FILE, ["--n", "9"], "error: --file takes no --n"),
    "file-arity": (FILE, ["--arity", "3"], "error: --file takes no --arity"),
    "file-cache-dir": (FILE, ["--cache-dir", "{dir}"], "error: --file takes no --cache-dir"),
    "file-offline": (FILE, ["--offline"], "error: --file takes no --offline"),
    "file-tp-order": (FILE, ["--tp-order", "4"], "error: a check without tp takes no --tp-order"),
    "oeis-s": (OEIS, ["--s", "2"], "error: --oeis takes no --s"),
    "oeis-n": (OEIS, ["--n", "3"], "error: --oeis takes no --n"),
    "preset-arity": (PRESET, ["--arity", "1"], "error: --preset takes no --arity"),
    "preset-cache-dir": (PRESET, ["--cache-dir", "{dir}"], "error: --preset takes no --cache-dir"),
    "preset-offline": (PRESET, ["--offline"], "error: --preset takes no --offline"),
    "oeis-tp-order": (OEIS, ["--tp-order", "2"], "error: a check without tp takes no --tp-order"),
    "params-s": (PARAMS, ["--s", "3"], "error: --params takes no --s"),
    "scheme-file-s": (SCHEME_FILE, ["--s", "3"], "error: --scheme-file takes no --s"),
}


@pytest.mark.parametrize("argv, flag, line", UNREAD_FLAGS.values(), ids=list(UNREAD_FLAGS))
def test_unread_flag_exit2(capsys, tmp_path, argv, flag, line):
    # A flag that the chosen theorem or source would ignore is refused, so
    # nothing the user asked for goes unchecked.
    values = {name: tmp_path / f"{name}.json" for name in ("penta", "three")}
    values["triangle"], values["dir"] = tmp_path / "t.txt", tmp_path
    for kind, name in (("five-term", "penta"), ("three-term", "three")):
        values[name].write_text(json.dumps(
            {"kind": kind, **{w: {"constant": "1"} for w in SCHEME_NAMES[kind]}}))
    values["triangle"].write_text("# arity=1 n_max=1\n1\n1 1\n")
    (tmp_path / "A027907.txt").write_text(
        "".join(f"{i} {v}\n" for i, v in enumerate(bisnomial_row(0, 2) + bisnomial_row(1, 2))))
    code, _, _ = run(capsys, *(arg.format(**values) for arg in argv))
    assert code in (0, 1)
    code, report, err = run(capsys, *(arg.format(**values) for arg in argv + flag))
    assert code == 2
    assert report is None
    assert err == line + "\n"


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


def test_survey_script_smoke(tmp_path, capsys, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "survey_properties.py"
    spec = importlib.util.spec_from_file_location("survey_properties", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    out = tmp_path / "survey.json"
    tp_rows = []
    tp = TRIANGLE_CHECKS["tp"]
    monkeypatch.setitem(TRIANGLE_CHECKS, "tp", lambda t, r: tp_rows.append(len(t.rows)) or tp(t, r))
    assert survey.main(["--n", "8", "--json", str(out)]) == 0
    # matrix-tp2 checks every generated row of each preset, past row 11 too
    assert tp_rows == [9] * len(PRESET_NAMES)
    assert survey.survey_preset("bell", 14)["matrix-tp2"]
    assert tp_rows[-1] == 15
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


# -- the conditions exit path ------------------------------------------------------

FIVE_TERM = {"kind": "five-term", "gamma": {"constant": "1"}, "e": {"constant": "1"},
             "f": {"constant": "1"}}
# argv, five-term scheme file or None, exit status, stderr summary
CONDITIONS_EXITS = {
    "cor22-established": (["conditions", "cor22", "--params", "1,1,0,1,1,0,0"], None, 0,
                          ["conditions cor22: established"]),
    "cor22-not-established": (["conditions", "cor22", "--params", "1,1,0,1,1,1,0"], None, 1,
                              ["conditions cor22: not established"]),
    "thm34-established": (["conditions", "thm34", "--params", "1,1,0,1,2,1,0",
                           "--tail-recurrence", "10"], None, 0,
                          ["conditions thm34: established", "tail-recurrence-identity: holds"]),
    "thm34-not-established": (["conditions", "thm34", "--params", "1,1,0,1,1,0,1",
                               "--tail-recurrence", "10"], None, 1,
                              ["conditions thm34: not established",
                               "tail-recurrence-identity: holds"]),
    "thm21-established": (["conditions", "thm21", "--schemes", "{path}"],
                          {**FIVE_TERM, "g": {"constant": "1"}, "h": {"constant": "1"}}, 0,
                          ["conditions thm21: established"]),
    # condition (10) needs g_{k+1} g_{k-1} >= f_{k+1} h_{k-1}: 0 >= 1
    "thm21-not-established": (["conditions", "thm21", "--schemes", "{path}"],
                              {**FIVE_TERM, "g": {"constant": "0"}, "h": {"constant": "1"}}, 1,
                              ["conditions thm21: not established"]),
}


@pytest.mark.parametrize("argv, scheme, code, summary", CONDITIONS_EXITS.values(),
                         ids=list(CONDITIONS_EXITS))
def test_conditions_exit_status_and_summary(capsys, tmp_path, argv, scheme, code, summary):
    path = tmp_path / "scheme.json"
    if scheme is not None:
        path.write_text(json.dumps(scheme))
    got, report, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (got, report["exit_status"], err.splitlines()) == (code, code, summary)


# -- triangle headers and text encodings -------------------------------------------


def test_triangle_header_without_space_is_read(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("#arity=1 n_max=1\n1\n1 1\n")
    assert run(capsys, "check", "--file", str(path), "rows-log-concave")[0] == 0


# input kind -> (file name, text, argv reading it)
BOM_INPUTS = {
    "triangle": ("t.txt", "# arity=1 n_max=2\n1\n1 1\n1 2 1\n",
                 ["check", "--file", "{path}", "rows-log-concave"]),
    "polynomials": ("p.txt", "1\n1 1\n1 2 1\n",
                    ["transform", "{path}", "--s", "1", "--direction", "convex"]),
    "scheme": ("s.json", json.dumps({"kind": "three-term", "f": {"constant": "1"},
                                     "g": {"constant": "1"}}),
               ["generate", "--scheme-file", "{path}", "--n", "3"]),
    "cached-bfile": ("A007318.txt", "0 1\n1 1\n2 1\n3 1\n4 2\n5 1\n",
                     ["check", "--oeis", "A007318", "--arity", "1", "--offline",
                      "--cache-dir", "{dir}", "rows-log-concave"]),
}


@pytest.mark.parametrize("name, text, argv", BOM_INPUTS.values(), ids=list(BOM_INPUTS))
def test_input_with_byte_order_mark_reads_as_without(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    argv = [arg.format(path=path, dir=tmp_path) for arg in argv]
    results = []
    for bom in (b"\xef\xbb\xbf", b""):
        path.write_bytes(bom + text.encode())
        code, report, err = run(capsys, *argv)
        report.pop("timing_ms")
        results.append((code, report, err))
    assert results[0] == results[1]
    assert results[0][0] == 0


ENCODING_RUNS = {
    "generate": ["--json", "{dir}/r.json", "generate", "--scheme-file", "{dir}/three.json",
                 "--n", "3", "--out", "{dir}/t.txt"],
    "check": ["check", "--oeis", "A007318", "--arity", "1", "--offline", "--cache-dir", "{dir}",
              "rows-log-concave"],
    "conditions": ["conditions", "thm21", "--schemes", "{dir}/five.json", "--k-max", "3"],
    "transform": ["transform", "{dir}/p.txt", "--s", "1", "--direction", "convex"],
}


@pytest.mark.parametrize("argv", ENCODING_RUNS.values(), ids=list(ENCODING_RUNS))
def test_verbs_run_under_encoding_warnings_as_errors(tmp_path, argv):
    # EncodingWarning, raised as an error, marks a read or write that falls
    # back on the locale's encoding.
    (tmp_path / "three.json").write_text(BOM_INPUTS["scheme"][1], encoding="utf-8")
    (tmp_path / "five.json").write_text(json.dumps({**FIVE_TERM, "g": {"constant": "1"},
                                                    "h": {"constant": "1"}}), encoding="utf-8")
    (tmp_path / "p.txt").write_text(BOM_INPUTS["polynomials"][1], encoding="utf-8")
    (tmp_path / "A007318.txt").write_text(BOM_INPUTS["cached-bfile"][1], encoding="utf-8")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    runs = [subprocess.run([sys.executable, *flags, "-m", "tripos.cli", *argv],
                           capture_output=True, text=True, env=src_env(), timeout=60)
            for flags in (["-X", "warn_default_encoding", "-W", "error::EncodingWarning"], [])]
    assert "Traceback" not in runs[0].stderr
    assert [r.returncode for r in runs] == [0, 0]
