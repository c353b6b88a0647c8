"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import os
import re
import select
import subprocess
import sys
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodenums import cli, geode, hypercat, identities, mpoly, verify
from geodenums.geode import geode_series
from geodenums.hypercat import solve_S, solve_work
from geodenums.report import Case, VerifyReport, run_case, run_units


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _constant_layers(max_degree):
    """The packing shift and packed layers of the series 1 through `max_degree`."""
    return mpoly._packing_shift(max_degree), [[(0, 1)]]


def stub_suite(name, units):
    """A registry entry for suite `name` with its flags and ranges that
    `verify` prices as the real suite: at any bounds it yields the units
    that `units(**bounds)` returns, then, as lazily as the real suite
    yields its units, a unit that runs no case carrying the S solves of
    each real unit that solves S."""
    suite, ranges = verify.SUITES[name]

    def stub(**bounds):
        yield from units(**bounds)
        for unit in suite(**bounds):
            if getattr(unit, "solves", ()):
                yield verify._solving(lambda report: None, *unit.solves)

    return stub, ranges


def plan(argv):
    """The plan `verify *argv` makes: (name, units, work) of each suite it
    runs."""
    parser = cli._build_parser()
    args = parser.parse_args(["verify", *argv])
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    return verify._plan(names, args, parser)


def test_table_csv_contains_expected_row(capsys):
    code, out = run_cli(capsys, "table", "--vars", "2", "--max-degree", "2",
                        "--kind", "G", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "m_1,m_2,coeff"
    assert "1,1,16" in lines
    assert "0,0,1" in lines


def test_table_json_catalan_column(capsys):
    code, out = run_cli(capsys, "table", "--vars", "1", "--max-degree", "5",
                        "--kind", "S")
    assert code == 0
    data = json.loads(out)
    assert data["nvars"] == 1 and data["trunc"] == 5
    assert [t["coeff"] for t in data["terms"]] == ["1", "1", "2", "5", "14", "42"]


# sha256 of `geodenums table` output, pinned so that no change to the solver,
# the division or the writers alters a byte of the exported tables.
TABLE_SHA256 = {
    ("S", "json", 3, 6): "da2ec22b4cb6b927008fa742c690793e174dc81eb9bbf40a42bdc1e2cba0d8e0",
    ("S", "json", 6, 4): "84aa2fb2222b3aa427a6983a187d35b11c914212d6ace76f8d68f4d6fea8067e",
    ("S", "csv", 3, 6): "c31287d0cd3d0fdc1bca37c07e7d988785e5982119567b76af2217e58ee62fe8",
    ("S", "csv", 6, 4): "50e7dbb689b0d88d45d686aa52b6840221698b37250fbba0432630735ce9da28",
    ("G", "json", 3, 6): "4980fff66d7a2d346753f85e089dbface8fd0fa5db4ad72a2687a7bd6b4704b6",
    ("G", "json", 6, 4): "b075bf0f4495a628acb3e896d25509cb8096b8b982958b86935ef0e3ba9d02be",
    ("G", "csv", 3, 6): "833f42ee1b9351f199e3516cb1a06e2872ed92c925af2e159669b2888e8b7bd3",
    ("G", "csv", 6, 4): "ff1e8d54035ae34f8dec2d09018631c7598081c1f7972705dbcd7a47489bee50",
    # shapes the benchmark never requests: one variable deep, seven
    # variables, a deep G, and many variables at a shallow degree
    ("S", "csv", 1, 300): "f0007ff34f1dc5e93f27e3fb94716574cad7452160db0de7d8246b35f8f4a0a7",
    ("S", "csv", 7, 8): "9d52f5f5692b8b9bbccaad0622cc9d6634f87b451727710f3f8a55dbfc657931",
    ("G", "json", 2, 30): "c919b7be19e26dea3a93c77cbc5568d98fe9ca9f80ecfd133a7aca10ef115be3",
    ("S", "json", 40, 2): "f86a246d7434662fe597a99eb57b560ebf0bd3e33f912f9ce30013233b4568bc",
}


@pytest.mark.parametrize("kind, fmt, r, degree", TABLE_SHA256)
def test_table_output_bytes_are_pinned(kind, fmt, r, degree, capsys):
    code, out = run_cli(capsys, "table", "--kind", kind, "--format", fmt,
                        "--vars", str(r), "--max-degree", str(degree))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[kind, fmt, r, degree]


def _reference_table(kind, fmt, r, degree):
    """`table` output as the series writers rendered it: the unpacked series
    through series_to_dict and json.dumps, or the CSV loop over its terms."""
    series = solve_S(r, degree) if kind == "S" else geode_series(r, degree).series
    if fmt == "json":
        return json.dumps(mpoly.series_to_dict(series), indent=2) + "\n"
    lines = [",".join(f"m_{i + 1}" for i in range(r)) + ",coeff\n"]
    for m, c in sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        lines.append(",".join(str(e) for e in m) + f",{c}\n")
    return "".join(lines)


def _table_output(kind, fmt, r, degree):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["table", "--kind", kind, "--format", fmt,
                         "--vars", str(r), "--max-degree", str(degree)])
    assert code == 0
    return out.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from("SG"), st.sampled_from(("json", "csv")), st.integers(1, 4),
       st.integers(0, 6))
# wide layers (r = 30 or 100 at degree 2, r = 6 at degree 8) and long
# coefficients (one variable through degree 300)
@example("S", "json", 30, 2)
@example("G", "csv", 30, 2)
@example("S", "csv", 6, 8)
@example("G", "json", 6, 8)
@example("S", "json", 100, 2)
@example("S", "csv", 1, 300)
def test_table_output_equals_the_reference_rendering(kind, fmt, r, degree):
    assert _table_output(kind, fmt, r, degree) == _reference_table(kind, fmt, r, degree)


def test_table_raises_on_a_term_outside_its_layer(monkeypatch):
    # t_1 t_2 filed under layer 1, as a packing field that overflowed would
    shift = mpoly._packing_shift(2)
    layers = [[(0, 1)], [(1 + (1 << shift), 3)], []]
    monkeypatch.setattr(cli, "_solve_layers", lambda r, degree: (shift, layers))
    with pytest.raises(ValueError, match="total degree 2, not its layer's 1"):
        cli.main(["table", "--kind", "S", "--vars", "2", "--max-degree", "2", "--out", os.devnull])


def test_table_rejects_zero_vars(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--vars", "0", "--max-degree", "3", "--kind", "S"])
    assert exc.value.code == 2


def test_table_writes_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _ = run_cli(capsys, "table", "--vars", "2", "--max-degree", "2",
                      "--kind", "G", "--format", "csv", "--out", str(out_path))
    assert code == 0
    assert "1,1,16" in out_path.read_text().splitlines()


@pytest.mark.parametrize("argv", [
    ["verify", "wz1", "--max-n", "400"],
    ["verify", "all"],
    ["table", "--vars", "3", "--max-degree", "6", "--kind", "S"],
    ["table", "--vars", "3", "--max-degree", "6", "--kind", "G", "--format", "csv"],
], ids=" ".join)
def test_unwritable_output_is_refused_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **bounds):
        raise AssertionError("work started before the output was opened")

    for name in verify.SUITES:
        monkeypatch.setitem(
            verify.SUITES, name, stub_suite(name, lambda **bounds: [must_not_run])
        )
    monkeypatch.setattr(cli, "_solve_layers", must_not_run)
    monkeypatch.setattr(cli.geode, "_geode_layers", must_not_run)
    monkeypatch.setattr(os, "fork", must_not_run)
    path = tmp_path / "missing" / "out.json"
    flag = "--report" if argv[0] == "verify" else "--out"
    assert cli.main([*argv, flag, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify", "thm1", "--max-degree", "3", "--report"],
    ["table", "--vars", "2", "--max-degree", "3", "--kind", "G", "--out"],
], ids=" ".join)
def test_failed_write_after_the_work_exits_two(argv, capsys):
    assert cli.main([*argv, "/dev/full"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write /dev/full: ")


def _geodenums(*argv, unbuffered=False, **streams):
    """`python -m geodenums *argv` in a new interpreter that imports this
    package, its stderr a text pipe.  Its stdout is block-buffered, as it
    is by default, so a failure can wait for the last flush; with
    `unbuffered` (PYTHONUNBUFFERED=1) a failure shows at the write."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "geodenums", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **streams)


def _only_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write <stdout>: "), err


def _buffered_and_unbuffered(*argvs):
    """Each argv, block-buffered under its plain id and unbuffered under
    the id prefixed by `unbuffered `."""
    return [
        pytest.param(argv, unbuffered, id=("unbuffered " if unbuffered else "") + " ".join(argv))
        for unbuffered in (False, True)
        for argv in argvs
    ]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", _buffered_and_unbuffered(
    ["table", "--kind", "S", "--vars", "2", "--max-degree", "5"],
    ["verify", "eq31"],
    ["coeff", "--kind", "C", "--exps", "2,1"],
))
def test_stdout_on_a_full_device_exits_two(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _geodenums(*argv, unbuffered=unbuffered, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    _only_error_line(err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", _buffered_and_unbuffered(["--help"], ["verify", "-h"]))
def test_help_on_a_full_device_exits_two(argv, unbuffered):
    # argparse prints the help and exits inside parse_args, before any
    # command writes; a failed write, or with a buffered stdout the flush,
    # must still be guarded
    with open("/dev/full", "w") as full:
        proc = _geodenums(*argv, unbuffered=unbuffered, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    _only_error_line(err)


def test_stdout_closed_after_one_line_exits_two():
    # the table is about 190 kB, more than a pipe holds, so the writes go
    # on after the reader has gone
    proc = _geodenums("table", "--kind", "G", "--vars", "6", "--max-degree", "10",
                      "--format", "csv", stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == "m_1,m_2,m_3,m_4,m_5,m_6,coeff\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
    _only_error_line(err)


def test_coeff_outputs(capsys):
    assert run_cli(capsys, "coeff", "--kind", "G", "--exps", "1,1") == (0, "16\n")
    assert run_cli(capsys, "coeff", "--kind", "C", "--exps", "0,2") == (0, "3\n")
    assert run_cli(capsys, "coeff", "--kind", "G", "--exps", "0,0") == (0, "1\n")


def test_coeff_malformed_exponents(capsys):
    for bad in ("1,x", "", "1,-2"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeff", "--kind", "G", "--exps", bad])
        assert exc.value.code == 2


def test_coeff_closed_routes_match_oracle(capsys):
    table = geode_series(4, 5)
    # single slot, two slots, three slots: closed form, closed form, oracle
    for exps in ("0,0,3,0", "0,2,0,1", "1,1,1,0"):
        _, out = run_cli(capsys, "coeff", "--kind", "G", "--exps", exps)
        expected = table.coefficient(tuple(int(p) for p in exps.split(",")))
        assert out.strip() == str(expected)


@pytest.mark.parametrize("argv", [
    ["table", "--vars", "12", "--max-degree", "12", "--kind", "S"],
    ["table", "--vars", "12", "--max-degree", "12", "--kind", "G"],
    ["coeff", "--kind", "G", "--exps", "1,1,1,1,1,1,1,1,1,1"],
    ["table", "--vars", "3", "--max-degree", "90", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "19999", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "5000", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "3000", "--kind", "S"],
    ["table", "--vars", "2", "--max-degree", "300", "--kind", "S"],
    ["table", "--vars", "1000000", "--max-degree", "0", "--kind", "S"],
    ["table", "--vars", "100000", "--max-degree", "0", "--kind", "S"],
], ids=" ".join)
def test_oversize_oracle_request_is_refused(argv, tmp_path, monkeypatch, capsys):
    def must_not_solve(*args):
        raise AssertionError("the oracle ran before the size was checked")

    # table S reads _solve_layers; table G and coeff's oracle branch,
    # through geode_series, read _geode_layers
    monkeypatch.setattr(cli, "_solve_layers", must_not_solve)
    monkeypatch.setattr(cli.geode, "_geode_layers", must_not_solve)
    out_path = tmp_path / "table.json"
    if argv[0] == "table":
        argv = argv + ["--out", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not out_path.exists()
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1].startswith("geodenums: error: an S table in ")


@pytest.mark.parametrize("argv", [
    ["table", "--vars", "100", "--max-degree", "2", "--kind", "S"],
    ["table", "--vars", "85", "--max-degree", "2", "--kind", "S"],
    ["table", "--vars", "7", "--max-degree", "10", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "1000", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "1387", "--kind", "S"],
    ["table", "--vars", "3", "--max-degree", "45", "--kind", "S"],
    ["table", "--vars", "2", "--max-degree", "150", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "1621", "--kind", "S"],
], ids=" ".join)
def test_admitted_oracle_request_reaches_the_solver(argv, tmp_path, monkeypatch):
    # Each of these finishes within about 2 s; the stub keeps the test fast.
    calls = []

    def stub_solve(r, max_degree):
        calls.append((r, max_degree))
        return _constant_layers(max_degree)

    monkeypatch.setattr(cli, "_solve_layers", stub_solve)
    assert cli.main(argv + ["--out", str(tmp_path / "table.json")]) == 0
    assert calls == [(int(argv[2]), int(argv[4]))]


def test_oracle_guard_admits_the_largest_suite_table():
    # S at r = 6, degree 9 is the largest table the suites build
    cli._check_oracle_size(6, 9, cli._build_parser())


@pytest.mark.parametrize("argv", [
    ["coeff", "--kind", "C", "--exps", "7200"],
    ["coeff", "--kind", "C", "--exps", "1000000"],
    ["coeff", "--kind", "C", "--exps", "0,0,0,1000"],
    ["coeff", "--kind", "G", "--exps", "20000,1"],
    ["coeff", "--kind", "G", "--exps", "0,2001"],
    ["coeff", "--kind", "G", "--exps", "1,1333"],
], ids=" ".join)
def test_oversize_closed_form_request_is_refused(argv, monkeypatch, capsys):
    def must_not_evaluate(*args):
        raise AssertionError("the closed form ran before the size was checked")

    monkeypatch.setattr(cli, "hyper_catalan", must_not_evaluate)
    monkeypatch.setattr(cli.geode, "geode_closed_two_nonzero", must_not_evaluate)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1].startswith("geodenums: error: --exps has weight ")


def test_closed_form_at_the_weight_limit_prints_in_full(capsys):
    # C[n] in one variable has weight 2n: the Catalan number at the limit
    n = cli.MAX_CLOSED_FORM_WEIGHT // 2
    code, out = run_cli(capsys, "coeff", "--kind", "C", "--exps", str(n))
    assert code == 0
    assert int(out) == comb(2 * n, n) // (n + 1)


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_small_suite_stdout_report(capsys):
    code, out = run_cli(capsys, "verify", "thm1", "--max-degree", "3")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "thm1"
    assert data["summary"] == {"total": 10, "passed": 10, "failed": 0}
    ids = [c["id"] for c in data["cases"]]
    assert ids == sorted(ids)


def test_verify_report_file_and_determinism(tmp_path, capsys):
    def strip_elapsed(payload):
        data = json.loads(payload)
        for case in data["cases"]:
            case.pop("elapsed_ms")
        return data

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out = run_cli(capsys, "verify", "eq31", "--max-n", "4",
                            "--report", str(path))
        assert code == 0
        assert "eq31: " in out
    first = strip_elapsed(paths[0].read_text())
    second = strip_elapsed(paths[1].read_text())
    assert first == second
    summary = json.loads(paths[0].read_text())["summary"]
    assert summary["failed"] == 0
    assert summary["total"] == summary["passed"]


def test_verify_failure_maps_to_exit_one(monkeypatch, capsys):
    def failing(report):
        run_case(report, "forced", {}, "1", lambda: (False, "2"))

    monkeypatch.setitem(verify.SUITES, "thm1", stub_suite("thm1", lambda **bounds: [failing]))
    code, out = run_cli(capsys, "verify", "thm1")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 1


def test_verify_error_status_counts_as_failure(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    def erroring(report):
        run_case(report, "explodes", {}, "1", boom)
        assert report.cases[0].status == "error"

    monkeypatch.setitem(verify.SUITES, "thm1", stub_suite("thm1", lambda **bounds: [erroring]))
    code, _ = run_cli(capsys, "verify", "thm1")
    assert code == 1


def test_empty_report_never_passes():
    assert not VerifyReport("thm1").all_passed()


CASE_PARAMS = st.dictionaries(
    st.text(max_size=6), st.integers() | st.lists(st.integers(), max_size=3), max_size=3
)


@settings(max_examples=200, deadline=None)
@given(
    st.text(max_size=8),
    st.lists(
        st.builds(
            Case,
            st.text(),
            CASE_PARAMS,
            st.text(),
            st.text(),
            st.sampled_from(("pass", "fail", "error")),
            st.floats(),
        ),
        max_size=4,
    ),
)
# a report with no case, a case with empty params and non-ASCII text, and
# one with list params and a float json writes by name
@example("thm1", [])
@example("claims", [Case("ct,n=1,a=1,x=+0", {}, "1", "é ≠ 1", "fail", 0.25)])
@example("general-eval", [Case("a=2,c=(2,3)", {"a": 2, "c": [2, 3]}, "7^n", "", "pass", float("nan"))])
def test_report_json_is_laid_out_as_json_dumps_lays_it_out(suite, cases):
    report = VerifyReport(suite, cases)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("suite", ["thm1", "all"])
def test_verify_empty_suite_exits_one_and_is_named(suite, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "thm1", stub_suite("thm1", lambda **bounds: []))
    if suite == "all":
        # keep the other suites small; every one of them runs cases
        argv = ["--max-n", "2", "--max-a", "1", "--max-degree", "2", "--max-order", "1",
                "--max-sum", "1", "--max-vars", "1"]
    else:
        argv = []
    code = cli.main(["verify", suite, *argv, "--report", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["empty suite: thm1 ran no cases"]


def test_negative_control_does_not_count_an_empty_run_as_detected():
    report = VerifyReport("wz1")
    verify._negative_control(report, "negative", "R", lambda: VerifyReport("wz1"))
    assert [case.status for case in report.cases] == ["fail"]


def test_verify_all_small_bounds(tmp_path, capsys):
    report_path = tmp_path / "all.json"
    code, _ = run_cli(
        capsys, "verify", "all",
        "--max-n", "4", "--max-a", "2", "--max-degree", "4",
        "--max-order", "3", "--max-sum", "3", "--max-vars", "2",
        "--report", str(report_path),
    )
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["suite"] == "all"
    assert data["summary"]["failed"] == 0
    prefixes = {case["id"].split("/")[0] for case in data["cases"]}
    assert prefixes == set(verify.SUITE_NAMES)


# ---------------------------------------------------------------------------
# verify on forked helpers, draining one queue of suite units

SMALL_BOUNDS = ["--max-n", "4", "--max-a", "2", "--max-degree", "4", "--max-order", "3",
                "--max-sum", "3", "--max-vars", "2"]

# The failure-path tests make each request twice: one suite alone, and
# verify all with the stubbed suite among the others.
REQUESTS = [["wz1", *SMALL_BOUNDS], ["all", *SMALL_BOUNDS]]


def recording_forks(monkeypatch):
    """Patch os.fork to record the pid of every helper the parent forks."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def stripped(path):
    data = json.loads(Path(path).read_text())
    for case in data["cases"]:
        del case["elapsed_ms"]
    return data


class Where:
    """Steers a unit to one kind of process without sleeping.  Made before
    the command forks, it tells a helper's copy of a unit from the
    parent's, and wait_for_helpers() blocks the parent's copy until every
    helper has exited."""

    def __init__(self):
        self.parent = os.getpid()
        self.read, self.write = os.pipe()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.read)
        if self.write is not None:
            os.close(self.write)

    def in_helper(self):
        return os.getpid() != self.parent

    def wait_for_helpers(self):
        if self.write is not None:
            os.close(self.write)
            self.write = None
        os.read(self.read, 1)  # end of file once no helper holds the write end

    def wait_to_be_killed(self):
        os.read(self.read, 1)  # the parent holds the write end throughout


def test_verify_all_reports_are_equal_at_any_helper_count(tmp_path, monkeypatch, capsys):
    pids = recording_forks(monkeypatch)
    reports = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(verify, "_cpus", lambda cpus=cpus: tuple(range(cpus)))
        path = tmp_path / f"{cpus}.json"
        assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", str(path)]) == 0
        assert capsys.readouterr().err == ""
        reports[cpus] = stripped(path)
    assert len(pids) == 0 + 1 + 2
    assert_reaped(pids)
    assert reports[1]["summary"]["failed"] == 0
    assert reports[1] == reports[2] == reports[3]


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_verify_suite_reports_are_equal_at_any_helper_count(name, tmp_path, monkeypatch, capsys):
    [(_, units, _)] = plan([name, *SMALL_BOUNDS])
    pids = recording_forks(monkeypatch)
    reports = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(verify, "_cpus", lambda cpus=cpus: tuple(range(cpus)))
        path = tmp_path / f"{cpus}.json"
        assert cli.main(["verify", name, *SMALL_BOUNDS, "--report", str(path)]) == 0
        assert capsys.readouterr().err == ""
        reports[cpus] = stripped(path)
    assert len(pids) == sum(min(cpus, len(units)) - 1 for cpus in (1, 2, 3))
    assert_reaped(pids)
    assert reports[1]["summary"]["total"] > 0
    assert reports[1] == reports[2] == reports[3]


def test_unit_queue_refuses_a_short_read():
    read, write = os.pipe()
    os.write(write, (7).to_bytes(verify._RECORD, "little") + b"\x01\x00")
    os.close(write)
    indices = verify._queue_indices(read)
    try:
        assert next(indices) == 7
        with pytest.raises(RuntimeError, match="short read of 2 bytes"):
            next(indices)
    finally:
        os.close(read)


def test_helper_reads_a_suites_last_unit_first(monkeypatch):
    # the parent holds back until the one helper has read its first index,
    # which must be the last unit of the first suite in the queue
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    parent, read_queue = os.getpid(), verify._queue_indices
    first_read, first_write = os.pipe()
    firsts = []

    def queue_indices(queue):
        indices = read_queue(queue)
        if os.getpid() == parent:
            assert select.select([first_read], [], [], 60)[0], "the helper read no index"
            firsts.append(int.from_bytes(os.read(first_read, verify._RECORD), "little"))
        else:
            first = next(indices)
            os.write(first_write, first.to_bytes(verify._RECORD, "little"))
            yield first
        yield from indices

    monkeypatch.setattr(verify, "_queue_indices", queue_indices)
    units = [("wz2", lambda report: None)] * 3 + [("wz1", lambda report: None)] * 2
    try:
        assert verify._run_units(units) == [[]] * 5
    finally:
        os.close(first_read)
        os.close(first_write)
    assert firsts == [2]


def test_suite_raising_in_a_helper_is_an_error_naming_it(monkeypatch):
    # a unit raises outside run_case, in a helper while the parent's copy
    # waits for it, or in the parent while a helper's copy waits to be
    # killed; either way verify raises RuntimeError naming the suite
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    pids = recording_forks(monkeypatch)
    for argv in REQUESTS:
        for raising_in in ("helper", "parent"):
            with Where() as where:
                def unit(report, where=where, raising_in=raising_in):
                    if where.in_helper() == (raising_in == "helper"):
                        raise ValueError("boom outside run_case")
                    if raising_in == "helper":
                        where.wait_for_helpers()
                    else:
                        where.wait_to_be_killed()

                monkeypatch.setitem(
                    verify.SUITES, "wz1", stub_suite("wz1", lambda **bounds: [unit, unit])
                )
                with pytest.raises(RuntimeError, match="suite wz1 raised outside its cases") as exc:
                    cli.main(["verify", *argv, "--report", os.devnull])
            assert "ValueError: boom outside run_case" in str(exc.value), (argv, raising_in)
    assert len(pids) == 2 * len(REQUESTS)
    assert_reaped(pids)


def test_helper_that_dies_is_an_error_and_is_reaped(monkeypatch):
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    pids = recording_forks(monkeypatch)
    for argv in REQUESTS:
        with Where() as where:
            def dying(report, where=where):
                if where.in_helper():
                    os._exit(3)
                where.wait_for_helpers()

            monkeypatch.setitem(
                verify.SUITES, "wz1", stub_suite("wz1", lambda **bounds: [dying, dying])
            )
            dies = "exited with code 3 before sending its cases"
            with pytest.raises(RuntimeError, match=dies) as exc:
                cli.main(["verify", *argv, "--report", os.devnull])
        unreported = str(exc.value).split("; units of ")[1].removesuffix(" ran nowhere")
        assert "wz1" in unreported.split(", "), argv
    assert len(pids) == len(REQUESTS)
    assert_reaped(pids)


def test_empty_suites_in_every_process_are_named_in_registry_order(monkeypatch, capsys):
    # units that run no cases, spread over three processes, and a suite
    # with no units at all
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1, 2))
    for argv, empty in zip(REQUESTS, (["wz1"], ["thm1", "wz1", "oracle"])):
        for name in empty:
            no_cases = [lambda report: None] * 6
            if name == "thm1":
                entry = (lambda **bounds: [], verify.SUITES[name][1])
            else:
                entry = stub_suite(name, lambda **bounds: no_cases)
            monkeypatch.setitem(verify.SUITES, name, entry)
        assert cli.main(["verify", *argv, "--report", os.devnull]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"empty suite: {name} ran no cases" for name in verify.SUITE_NAMES if name in empty
        ]


def test_table_coeff_and_one_unit_requests_never_fork(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1, 2))
    monkeypatch.setattr(os, "fork", no_fork)
    for argv in (["thm1"], ["thm3", "--a", "2"]):
        code, out = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0
    assert run_cli(capsys, "table", "--vars", "2", "--max-degree", "3", "--kind", "G")[0] == 0
    assert run_cli(capsys, "coeff", "--kind", "G", "--exps", "1,1,1") == (0, "319\n")


def test_verify_all_runs_every_share_itself_when_fork_fails(tmp_path, monkeypatch, capsys):
    attempts = []

    def failing_fork():
        attempts.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    for argv in REQUESTS:
        serial, parallel = tmp_path / f"{argv[0]}-1.json", tmp_path / f"{argv[0]}-2.json"
        monkeypatch.setattr(verify, "_cpus", lambda: (0,))
        assert cli.main(["verify", *argv, "--report", str(serial)]) == 0
        # under a process limit, fork fails with EAGAIN
        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", failing_fork)
            patch.setattr(verify, "_cpus", lambda: (0, 1))
            assert cli.main(["verify", *argv, "--report", str(parallel)]) == 0
        assert capsys.readouterr().err == ""
        assert stripped(parallel) == stripped(serial)
    assert len(attempts) == len(REQUESTS)


# the CPUs this test process may use, for the placement tests
CPU_IDS = tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else ()
needs_two_cpus = pytest.mark.skipif(len(CPU_IDS) < 2, reason="needs two usable CPUs")


@needs_two_cpus
def test_the_command_and_each_helper_run_on_a_cpu_of_their_own():
    # one unit per process: the parent's copy waits until every helper's
    # copy has started, and each helper's copy waits for the parent's go,
    # so no process can take a second unit
    procs = min(len(CPU_IDS), 3)
    parent = os.getpid()
    started_read, started_write = os.pipe()
    go_read, go_write = os.pipe()

    def unit(report):
        if os.getpid() == parent:
            for _ in range(procs - 1):
                assert select.select([started_read], [], [], 60)[0], "a helper took no unit"
                os.read(started_read, 1)
            os.write(go_write, b"." * (procs - 1))
        else:
            os.write(started_write, b".")
            os.read(go_read, 1)
        where = [os.getpid(), sorted(os.sched_getaffinity(0))]
        run_case(report, "where", {}, "", lambda: (True, json.dumps(where)))

    before = os.sched_getaffinity(0)
    try:
        ran = verify._run_units([("wz1", unit)] * procs)
    finally:
        for fd in (started_read, started_write, go_read, go_write):
            os.close(fd)
    where = dict(json.loads(cases[0].actual) for cases in ran)
    assert len(where) == procs
    assert where[parent] == [CPU_IDS[0]]
    assert sorted(where.values()) == [[cpu] for cpu in CPU_IDS[:procs]]
    assert os.sched_getaffinity(0) == before


@needs_two_cpus
@pytest.mark.parametrize(
    "path", ["success", "raise in helper", "raise in parent", "helper dies", "fork fails"]
)
def test_the_commands_mask_is_restored_on_every_path(path, monkeypatch):
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(verify, "_cpus", lambda: CPU_IDS[:2])
    if path == "fork fails":
        monkeypatch.setattr(os, "fork", failing_fork)
    pinned = []
    with Where() as where:
        # as in the failure tests above: the parent's copy of a unit waits
        # for the helper to exit where the helper's copy must fail
        def unit(report):
            if where.in_helper():
                if path == "raise in helper":
                    raise ValueError("boom outside run_case")
                if path == "helper dies":
                    os._exit(3)
                return
            pinned.append(os.sched_getaffinity(0))
            if path == "raise in parent":
                raise ValueError("boom outside run_case")
            if path in ("raise in helper", "helper dies"):
                where.wait_for_helpers()

        before = os.sched_getaffinity(0)
        if path in ("success", "fork fails"):
            assert verify._run_units([("wz1", unit)] * 2) == [[], []]
        else:
            with pytest.raises(RuntimeError, match="raised outside its cases|exited with code 3"):
                verify._run_units([("wz1", unit)] * 2)
    # a process left to run alone is not pinned
    expected = before if path == "fork fails" else {CPU_IDS[0]}
    assert pinned and all(mask == expected for mask in pinned), pinned
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("affinity", ["raises OSError", "is missing"])
def test_a_pin_that_cannot_be_made_leaves_the_one_cpu_report(
    affinity, tmp_path, monkeypatch, capsys
):
    def refused(pid, cpus):
        raise OSError(22, "Invalid argument")

    serial, parallel = tmp_path / "1.json", tmp_path / "2.json"
    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", str(serial)]) == 0
    before = os.sched_getaffinity(0)
    if affinity == "raises OSError":
        monkeypatch.setattr(os, "sched_setaffinity", refused)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    pids = recording_forks(monkeypatch)
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", str(parallel)]) == 0
    assert capsys.readouterr().err == ""
    assert len(pids) == 1
    assert_reaped(pids)
    assert stripped(parallel) == stripped(serial)
    assert os.sched_getaffinity(0) == before


def test_verify_thm3_report_shows_powers(capsys):
    code, out = run_cli(capsys, "verify", "thm3", "--a", "2", "--max-order", "4")
    assert code == 0
    data = json.loads(out)
    actuals = [c["actual"] for c in data["cases"]]
    assert actuals == [str(2**n) for n in range(5)]


@pytest.mark.parametrize("argv", [
    ["thm3", "--a", "0"],
    ["wz2", "--a", "1"],
    ["thm1", "--max-degree", "-1"],
    ["thm2", "--max-sum", "-1"],
    ["two-nonzero", "--max-n", "0"],
    ["recurrence", "--max-degree", "0"],
    ["all", "--a", "1"],
    ["oracle", "--max-degree", "-1"],
    ["general-eval", "--max-order", "-1"],
    ["eq31", "--max-n", "0"],
    ["claims", "--max-a", "0"],
    ["recurrence", "--max-vars", "0"],
    ["wz2", "--max-n", "0"],
    ["wz1", "--max-n", "0"],
    ["certificate", "--max-n", "0"],
    ["wz1", "--max-n", "100000"],
    ["wz1", "--max-n", "601"],
    ["wz2", "--max-n", "351"],
    ["wz2", "--a", "1001"],
    ["certificate", "--max-n", "601"],
    ["eq31", "--max-n", "61"],
    ["eq31", "--max-a", "11"],
    ["claims", "--max-n", "31"],
    ["claims", "--max-n", "40"],
    ["claims", "--max-a", "6"],
    ["all", "--max-n", "31"],
], ids=" ".join)
def test_verify_rejects_out_of_range_bounds(argv, tmp_path, monkeypatch, capsys):
    # a suite builds its units when it is called, as many as its bounds ask
    # for, so no suite may even be called before every bound is checked
    def must_not_run(**bounds):
        raise AssertionError("a suite was called before the bounds were checked")

    for name, (_, ranges) in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, (must_not_run, ranges))
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv, "--report", str(report_path)])
    assert exc.value.code == 2
    assert not report_path.exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith("geodenums: error: verify ")


@pytest.mark.parametrize("argv", [
    ["thm1", "--max-degree", "300"],
    ["all", "--max-degree", "300"],
    ["thm3", "--a", "5"],
    ["recurrence", "--max-vars", "1000", "--max-degree", "1"],
    ["oracle", "--max-vars", "1000", "--max-degree", "0"],
    ["recurrence", "--max-vars", str(10**30), "--max-degree", "1"],
], ids=" ".join)
def test_verify_refuses_oversize_oracle_work(argv, tmp_path, monkeypatch, capsys):
    # thm1 at degree 300 solves S(2, 301), 3.4e7 units; thm3 at a = 5
    # solves S(10, 9), 1.6e7 units; MAX_ORACLE_WORK is 1e7.  recurrence
    # at 1000 variables, degree 1, solves S(r, 1) for r = 1..1000 and
    # oracle at degree 0 S(r, 0) and twice S(r, 1): each solve is admitted
    # alone, but together they take 1.7e9 and 3.7e9 units.  Pricing reads
    # the units' solves as the suite yields them, so 10**30 variables
    # stop at the first solve past the limit.
    def must_not_run(report):
        raise AssertionError("a unit ran before its suite's oracle work was priced")

    for name in verify.SUITES:
        monkeypatch.setitem(
            verify.SUITES, name, stub_suite(name, lambda **bounds: [must_not_run])
        )
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv, "--report", str(report_path)])
    assert exc.value.code == 2
    assert not report_path.exists()
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    first = "thm1" if argv[0] == "all" else argv[0]
    assert err[-1].startswith(f"geodenums: error: verify {first}: ")
    assert "is too much work" in err[-1]


def test_verify_refuses_a_suite_once_its_summed_work_passes_the_limit():
    # recurrence at degree 1 admits 178 variables and oracle at degree 0
    # 136: the solves of one more variable take the sum past the limit
    limit = cli.MAX_ORACLE_WORK
    for name, degree, largest in (("recurrence", "1", 178), ("oracle", "0", 136)):
        [(_, _, work)] = plan([name, "--max-vars", str(largest), "--max-degree", degree])
        assert work <= limit
        with pytest.raises(SystemExit) as exc:
            plan([name, "--max-vars", str(largest + 1), "--max-degree", degree])
        assert exc.value.code == 2


def _bound_values(flag):
    """The integers the fuzz test passes to `flag`: each minimum - 1,
    minimum, maximum and maximum + 1 it has in SUITES, and +-10**30."""
    values = {10**30, -(10**30)}
    for _, ranges in verify.SUITES.values():
        if flag in ranges:
            minimum, maximum = ranges[flag]
            values |= {minimum - 1, minimum}
            if maximum is not None:
                values |= {maximum, maximum + 1}
    return [str(v) for v in sorted(values)]


BOUND_VALUES = {
    flag: _bound_values(flag) for _, ranges in verify.SUITES.values() for flag in ranges
}


@st.composite
def verify_argv(draw):
    """`verify` with a suite or all and any subset of the bound flags; in
    one example of four, the last flag's value is not an integer."""
    argv = ["verify", draw(st.sampled_from(verify.SUITE_NAMES + ("all",)))]
    for flag in draw(st.lists(st.sampled_from(sorted(BOUND_VALUES)), unique=True)):
        argv += ["--" + flag.replace("_", "-"), draw(st.sampled_from(BOUND_VALUES[flag]))]
    if len(argv) > 2 and draw(st.integers(0, 3)) == 0:
        argv[-1] = draw(st.sampled_from(("1.5", "x")))
    return argv


def _admitted_stub(name):
    """A units function for suite `name` returning one unit with one
    passing case, which asserts first, when it runs, that `verify` let the
    suite start only with bounds inside its ranges and with S solves (those
    the real suite's units carry at the same bounds) that take at most
    MAX_ORACLE_WORK together."""
    suite, ranges = verify.SUITES[name]
    limit = cli.MAX_ORACLE_WORK

    def admitted(report, bounds):
        for flag, value in bounds.items():
            if flag == "a_values":
                flag, (value,) = "a", value
            minimum, maximum = ranges[flag]
            assert minimum <= value and (maximum is None or value <= maximum), (name, flag)
        work = 0
        for unit in suite(**bounds):
            for r, degree in getattr(unit, "solves", ()):
                # solve_work is at least max(r^2, degree) and 2^min(r,
                # degree), so only small (r, degree) reach the full estimate
                assert max(r * r, degree) <= limit, (name, r, degree)
                assert min(r, degree) < limit.bit_length(), (name, r, degree)
                work += solve_work(r, degree)
                assert work <= limit, (name, r, degree)
        run_case(report, "stub", {}, "ok", lambda: (True, "ok"))

    return lambda **bounds: [partial(admitted, bounds=bounds)]


def assert_exit_contract(argv, stub):
    """Run `argv` with the stubs stub(patch) sets: it must exit 0 or 2,
    print no traceback and, on 2, end stderr with its one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        stub(patch)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert [line for line in lines if "error:" in line] == [lines[-1]], argv


def _stub_suites(patch):
    patch.setattr(verify, "_cpus", lambda: (0,))
    for name in verify.SUITES:
        patch.setitem(verify.SUITES, name, stub_suite(name, _admitted_stub(name)))


@settings(max_examples=50, deadline=None)
@given(verify_argv())
# one request refused by each part of the oracle guard: by the cheap
# bound max(r^2, degree), and by the full solve_work estimate
@example(["verify", "thm1", "--max-degree", str(10**30)])
@example(["verify", "thm3", "--a", "1000"])
def test_verify_keeps_the_exit_code_contract_for_any_bounds(argv):
    assert_exit_contract(argv, _stub_suites)


def _guard_limit(work):
    """The largest n whose work(n), increasing in n, is within MAX_ORACLE_WORK."""
    return bisect_right(range(10**5), cli.MAX_ORACLE_WORK, key=work) - 1


ODD_VALUES = [str(10**30), str(-(10**30)), "", "x", "1.5"]
# The largest --vars at degree 0 and the largest --max-degree at one
# variable that the oracle guard admits; 10**7 is the cheap bound's limit.
VARS_LIMIT = _guard_limit(lambda r: solve_work(r, 0))
DEGREE_LIMIT = _guard_limit(lambda d: solve_work(1, d))
# Each table flag's (admitted, refused) values.
TABLE_VALUES = {
    "--vars": (["1", "2", str(VARS_LIMIT)], ["0", str(VARS_LIMIT + 1), *ODD_VALUES]),
    "--max-degree": (
        ["0", "3", str(DEGREE_LIMIT)],
        ["-1", str(DEGREE_LIMIT + 1), str(10**7), str(10**7 + 1), *ODD_VALUES],
    ),
    "--kind": (["S", "G"], ["", "x"]),
    "--format": (["json", "csv"], ["", "x"]),
    "--out": (["-", os.devnull], ["/nonexistent/table.json"]),
}
# coeff's (admitted, refused) kinds and --exps entries: the weight
# sum_k (k+1) m_k reaches MAX_CLOSED_FORM_WEIGHT at 2000 in slot 1 and
# passes it at 2001; in slot 2 at 1333 and 1334.
COEFF_VALUES = {
    "--kind": (["C", "G"], ["", "x"]),
    "--exps": (["0", "1", "2", "1333", "2000"], ["-1", "1334", "2001", *ODD_VALUES]),
}


@st.composite
def table_or_coeff_argv(draw):
    """`table` with each flag of TABLE_VALUES left out once in eight and
    given a refused value once in eight, or `coeff` with a refused kind
    once in eight and up to four --exps entries, each refused once in
    eight (none makes the list empty)."""

    def value(admitted, refused):
        return draw(st.sampled_from(refused if draw(st.integers(0, 7)) == 7 else admitted))

    if draw(st.booleans()):
        argv = ["table"]
        for flag, values in TABLE_VALUES.items():
            if draw(st.integers(0, 7)) < 7:
                argv += [flag, value(*values)]
        return argv
    exps = [value(*COEFF_VALUES["--exps"]) for _ in range(draw(st.integers(0, 4)))]
    return ["coeff", "--kind", value(*COEFF_VALUES["--kind"]), "--exps", ",".join(exps)]


def _admitted_layers(r, degree):
    """A stand-in for the packed layers of an S solve through `degree` that
    asserts the oracle guard admitted it."""
    limit = cli.MAX_ORACLE_WORK
    assert max(r * r, degree) <= limit and min(r, degree) < limit.bit_length(), (r, degree)
    assert solve_work(r, degree) <= limit, (r, degree)
    return _constant_layers(degree)


def _admitted_closed_form(weight):
    """A stand-in for a closed form that asserts its weight is admitted."""

    def closed_form(*args):
        assert weight(*args) <= cli.MAX_CLOSED_FORM_WEIGHT, args
        return 1

    return closed_form


def _stub_oracle_and_closed_forms(patch):
    # table S reads _solve_layers; table G and coeff's oracle branch,
    # through geode_series, read _geode_layers, which solves S one degree up
    patch.setattr(cli, "_solve_layers", _admitted_layers)
    patch.setattr(cli.geode, "_geode_layers", lambda r, degree: _admitted_layers(r, degree + 1))
    patch.setattr(cli, "hyper_catalan", _admitted_closed_form(
        lambda exps: sum((k + 1) * e for k, e in enumerate(exps, start=1))
    ))
    # G with slots s, t: m_s = n - 1 - i and m_t = i
    patch.setattr(cli.geode, "geode_closed_two_nonzero", _admitted_closed_form(
        lambda s, t, n, i: (s + 1) * (n - 1 - i) + (t + 1) * i
    ))


@settings(max_examples=50, deadline=None)
@given(table_or_coeff_argv())
# one request refused by each guard: the oracle guard's cheap bound and its
# full estimate for table, the closed-form weight and the oracle for coeff
@example(["table", "--vars", "1", "--max-degree", str(10**7 + 1), "--kind", "S"])
@example(["table", "--vars", "2", "--max-degree", str(DEGREE_LIMIT), "--kind", "G"])
@example(["coeff", "--kind", "C", "--exps", "0,1334"])
@example(["coeff", "--kind", "G", "--exps", "1,1,2000"])
def test_table_and_coeff_keep_the_exit_code_contract_for_any_arguments(argv):
    assert_exit_contract(argv, _stub_oracle_and_closed_forms)


@pytest.mark.parametrize("argv", [
    ["eq31", "--max-n", "8", "--max-a", "4"],
    ["claims", "--max-n", "8", "--max-a", "3"],
    ["wz1", "--max-n", "250"],
    ["wz2", "--max-n", "120"],
    ["certificate", "--max-n", "120"],
    ["eq31", "--max-n", "12", "--max-a", "4"],
    ["claims", "--max-n", "12", "--max-a", "3"],
    ["wz1", "--max-n", "400"],
    ["wz2", "--max-n", "250", "--a", "1000"],
    ["certificate", "--max-n", "300"],
    ["claims", "--max-n", "15", "--max-a", "3"],
    ["wz1", "--max-n", "600"],
    ["wz2", "--max-n", "350", "--a", "1000"],
    ["certificate", "--max-n", "600"],
    ["eq31", "--max-n", "14", "--max-a", "5"],
    ["claims", "--max-a", "4"],
    ["claims", "--max-n", "15", "--max-a", "4"],
    ["eq31", "--max-n", "60", "--max-a", "10"],
    ["claims", "--max-a", "5"],
    ["claims", "--max-n", "30", "--max-a", "5"],
], ids=" ".join)
def test_grid_bounds_up_to_their_maxima_are_admitted(argv):
    # the raised bounds of the benchmark's identities workload, bounds that
    # were the maxima before the stepped rows and before the part powers,
    # and each grid suite at its largest admitted bounds
    plan(argv)


FLAG_TABLE = "| suite | flags (default, minimum, maximum) |"


def _readme_flag_rows():
    """The rows of the README's verify flag table: suite name -> {flag:
    (default, minimum, maximum)}, each as the string the table prints."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index(FLAG_TABLE) + 2  # skip the header and |---|---|
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        suite = re.match(r"\| `([\w-]+)` \|", line).group(1)
        rows[suite] = {
            flag.replace("-", "_"): (default, minimum, maximum)
            for flag, default, minimum, maximum in re.findall(
                r"`--([\w-]+)` \(([^,]+), ([^,]+), ([^)]+)\)", line
            )
        }
    return rows


def test_readme_flag_table_matches_suites():
    # README lists a flag's suite default (a_values as lo..hi), its minimum
    # and its maximum, with "priced" for the None of an oracle flag.
    rows = _readme_flag_rows()
    assert list(rows) == list(verify.SUITES)
    for name, (suite, ranges) in verify.SUITES.items():
        defaults = {
            p.name: p.default for p in inspect.signature(suite).parameters.values()
        }
        expected = {}
        for flag, (minimum, maximum) in ranges.items():
            if flag == "a":
                values = defaults["a_values"]
                assert tuple(values) == tuple(range(values[0], values[-1] + 1))
                default = f"{values[0]}..{values[-1]}"
            else:
                default = str(defaults[flag])
            expected[flag] = (
                default, str(minimum), "priced" if maximum is None else str(maximum)
            )
        assert rows[name] == expected, name


def test_verify_all_at_default_bounds_is_admitted():
    works = {name: work for name, _, work in plan(["all"])}
    assert max(works.values()) == works["thm3"] == 694_669 < cli.MAX_ORACLE_WORK
    assert works["thm3"] == sum(solve_work(2 * a, 9) for a in verify.DEFAULT_THM3_A)


def test_verify_all_prices_each_solve_once(monkeypatch, capsys):
    # 29 S solves at the default bounds: thm1 1, thm2 4, thm3 3,
    # recurrence 4, two-nonzero 1, general-eval 4 and oracle 12
    priced = []

    def recording(r, degree):
        priced.append((r, degree))
        return solve_work(r, degree)

    monkeypatch.setattr(cli, "solve_work", recording)
    monkeypatch.setattr(verify, "_run_units", lambda units: [[] for _ in units])
    cli.main(["verify", "all", "--report", os.devnull])
    capsys.readouterr()
    assert len(priced) == 29


def test_verify_all_calls_each_suite_once_and_a_refused_request_runs_no_unit(
    monkeypatch, capsys
):
    # the plan builds each suite's units once, and the queue runs those
    # same units; a request the guard refuses runs none of the units its
    # plan built before the refusal
    calls, ran = [], []

    def counted(name, suite):
        def units(**bounds):
            calls.append(name)
            for unit in suite(**bounds):
                def run(report, unit=unit):
                    ran.append(name)
                    unit(report)

                yield verify._solving(run, *getattr(unit, "solves", ()))

        return units

    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    for name, (suite, ranges) in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, (counted(name, suite), ranges))
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert calls == list(verify.SUITE_NAMES)
    assert set(ran) == set(verify.SUITE_NAMES)

    calls.clear()
    ran.clear()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--max-vars", str(10**30), "--report", os.devnull])
    assert exc.value.code == 2
    assert "error: verify recurrence: " in capsys.readouterr().err
    assert calls == list(verify.SUITE_NAMES[: verify.SUITE_NAMES.index("recurrence") + 1])
    assert ran == []


SOLVE_CASES = [
    ["thm1"],
    ["thm2", "--max-sum", "2"],
    ["thm3", "--max-order", "3"],
    ["thm3", "--a", "2", "--max-order", "2"],
    ["eq31", "--max-n", "2"],
    ["claims", "--max-n", "2"],
    ["wz1", "--max-n", "2"],
    ["wz2", "--max-n", "2"],
    ["certificate", "--max-n", "2"],
    ["recurrence", "--max-vars", "3", "--max-degree", "3"],
    ["two-nonzero"],
    ["general-eval"],
    ["oracle", "--max-vars", "2", "--max-degree", "3"],
]


def test_solve_cases_cover_every_suite():
    assert {argv[0] for argv in SOLVE_CASES} == set(verify.SUITE_NAMES)


@pytest.mark.parametrize("argv", SOLVE_CASES, ids=" ".join)
def test_solves_list_every_solve_the_suite_makes(argv, monkeypatch, capsys):
    # verify prices, then runs in this process, the same S solves in the
    # same order
    priced, solved = [], []

    def recording(function, calls):
        def recorded(r, max_degree):
            calls.append((r, max_degree))
            return function(r, max_degree)

        return recorded

    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    monkeypatch.setattr(cli, "solve_work", recording(solve_work, priced))
    monkeypatch.setattr(verify, "solve_S", recording(solve_S, solved))
    monkeypatch.setattr(geode, "_solve_layers", recording(hypercat._solve_layers, solved))
    assert cli.main(["verify", *argv, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert solved == priced


def test_every_table_is_built_inside_a_case(monkeypatch, capsys):
    # each S solve, at the patch points above, happens while a case runs,
    # so its time is in that case's elapsed_ms
    running, solved = [], []
    run_case = verify.run_case

    def in_case(*args):
        running.append(True)
        try:
            return run_case(*args)
        finally:
            running.pop()

    def recording(function):
        def recorded(r, max_degree):
            solved.append((r, max_degree, bool(running)))
            return function(r, max_degree)

        return recorded

    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    monkeypatch.setattr(verify, "run_case", in_case)
    monkeypatch.setattr(verify, "solve_S", recording(solve_S))
    monkeypatch.setattr(geode, "_solve_layers", recording(hypercat._solve_layers))
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert solved
    assert [solve for solve in solved if not solve[2]] == []


def doubling_layer_product(a, b, d, out):
    """``mpoly._layer_product`` with every pair whose two keys are equal
    counted twice: a broken kernel that every oracle table goes through."""
    get = out.get
    for i in range(max(0, d + 1 - len(b)), min(d + 1, len(a))):
        for pa, ca in a[i]:
            for pb, cb in b[d - i]:
                out[pa + pb] = get(pa + pb, 0) + ca * cb * (2 if pa == pb else 1)
    return out


def test_a_broken_kernel_costs_cases_not_the_report(tmp_path, monkeypatch, capsys):
    clean = tmp_path / "clean.json"
    assert cli.main(["verify", "all", "--report", str(clean)]) == 0
    ids = [case["id"] for case in json.loads(clean.read_text())["cases"]]
    assert len(ids) == 1535
    # hypercat imports the kernel by name, so both names are patched
    monkeypatch.setattr(mpoly, "_layer_product", doubling_layer_product)
    monkeypatch.setattr(hypercat, "_layer_product", doubling_layer_product)
    # the builds of every shared table, evaluation and mass, counted in
    # this process, where one CPU runs every unit
    builds = []
    once = verify._once

    def counted(build):
        runs = []
        builds.append(runs)
        return once(lambda: runs.append(1) or build())

    monkeypatch.setattr(verify, "_once", counted)
    oracle_free = {"eq31", "claims", "wz1", "wz2", "certificate"}
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_cpus", lambda cpus=cpus: tuple(range(cpus)))
        path = tmp_path / f"broken-{cpus}.json"
        assert cli.main(["verify", "all", "--report", str(path)]) == 1
        capsys.readouterr()
        if cpus == 1:
            # a build that raises runs once, not once per case that reads it
            assert builds and [len(runs) for runs in builds] == [1] * len(builds)
        cases = json.loads(path.read_text())["cases"]
        assert [case["id"] for case in cases] == ids
        statuses = {}
        for case in cases:
            statuses.setdefault(case["id"].split("/")[0], set()).add(case["status"])
        for name in verify.SUITE_NAMES:
            if name in oracle_free:
                assert statuses[name] == {"pass"}, (cpus, name)
            else:
                assert statuses[name] & {"error", "fail"}, (cpus, name)


@pytest.mark.parametrize("name, module, function, bounds", [
    ("thm1", geode, "geode_closed_2var", {"max_degree": 3}),
    ("thm2", geode, "geode_closed_shifted", {"max_sum": 2}),
    ("two-nonzero", geode, "geode_closed_two_nonzero", {"max_n": 3}),
    ("eq31", identities, "partition_sum_main", {"max_n": 3, "max_a": 2}),
    ("claims", identities, "ct_coefficient", {"max_n": 2, "max_a": 1}),
    ("claims", identities, "shifted_binomial_sum", {"max_n": 2, "max_a": 1}),
    ("recurrence", geode, "hyper_catalan", {"max_vars": 2, "max_degree": 3}),
])
def test_suite_fails_when_one_side_is_perturbed(name, module, function, bounds, monkeypatch):
    suite = verify.SUITES[name][0]
    assert run_units(name, suite(**bounds)).all_passed()
    original = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args: original(*args) + 1)
    report = run_units(name, suite(**bounds))
    assert any(case.status == "fail" for case in report.cases)


def _first_sign_flipped(weights):
    def flipped(*args):
        first, *rest = weights(*args)
        return (-first, *rest)
    return flipped


def _with_constant_term(residual):
    def perturbed(s):
        series = residual(s)
        terms = dict(series.terms)
        zero = (0,) * series.nvars
        terms[zero] = terms.get(zero, 0) + 1
        return mpoly.TruncatedSeries(series.nvars, series.trunc, terms)
    return perturbed


@pytest.mark.parametrize("name, module, function, perturb, bounds", [
    ("thm3", geode, "alternating_weights", _first_sign_flipped, {"max_order": 3}),
    ("general-eval", geode, "general_weights", _first_sign_flipped, {"max_order": 3}),
    ("oracle", verify, "functional_residual", _with_constant_term,
     {"max_vars": 2, "max_degree": 3}),
], ids=["thm3", "general-eval", "oracle"])
def test_suite_fails_when_a_weight_or_the_residual_is_perturbed(
    name, module, function, perturb, bounds, monkeypatch
):
    suite = verify.SUITES[name][0]
    assert run_units(name, suite(**bounds)).all_passed()
    monkeypatch.setattr(module, function, perturb(getattr(module, function)))
    statuses = {case.status for case in run_units(name, suite(**bounds)).cases}
    assert "fail" in statuses and "error" not in statuses, statuses


# ---------------------------------------------------------------------------
# the claims suite's shared tallies and bracket powers


def test_claims_shared_values_equal_the_per_call_sums():
    # every claim1/claim2 case reads the signed size mass of one tally per
    # length and every ct case one bracket power per (n, a); their values
    # are those of the functions that build everything per call
    report = run_units("claims", verify.suite_claims(8, 4))
    assert report.all_passed()
    sums = {"claim1": identities.claim1_sum, "claim2": identities.claim2_sum,
            "ct": identities.claim2_ct}
    checked = set()
    for case in report.cases:
        kind = case.id.split(",")[0]
        if kind in sums:
            p = case.params
            assert case.actual == str(sums[kind](p["n"], p["a"], p["x"])), case.id
            checked.add(kind)
    assert checked == set(sums)


def test_claims_raises_one_part_power_per_length_and_brackets_once_per_pair(monkeypatch):
    calls = {"part powers": 0, "products": 0}

    def counting(function, key):
        def counted(*args):
            calls[key] += 1
            return function(*args)

        return counted

    monkeypatch.setattr(
        identities, "part_power", counting(identities.part_power, "part powers")
    )
    monkeypatch.setattr(
        identities, "_truncated_product", counting(identities._truncated_product, "products")
    )
    assert run_units("claims", verify.suite_claims(8, 3)).all_passed()
    # two part powers per (n, a), of lengths n and n-1 (408 when each shift
    # x raised both lengths again), and n-1 products per (n, a) for the
    # list products of the bracket power (588 when each ct case raised the
    # bracket again)
    assert calls == {"part powers": 48, "products": 84}
