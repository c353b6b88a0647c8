"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodenums import cli, geode, hypercat, identities, mpoly
from geodenums.geode import geode_series
from geodenums.hypercat import solve_S, solve_work
from geodenums.mpoly import constant_series
from geodenums.report import VerifyReport, run_case


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
}


@pytest.mark.parametrize("kind, fmt, r, degree", TABLE_SHA256)
def test_table_output_bytes_are_pinned(kind, fmt, r, degree, capsys):
    code, out = run_cli(capsys, "table", "--kind", kind, "--format", fmt,
                        "--vars", str(r), "--max-degree", str(degree))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[kind, fmt, r, degree]


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
    ["table", "--vars", "3", "--max-degree", "45", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "19999", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "1621", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "3000", "--kind", "S"],
    ["table", "--vars", "2", "--max-degree", "150", "--kind", "S"],
    ["table", "--vars", "1000000", "--max-degree", "0", "--kind", "S"],
    ["table", "--vars", "100000", "--max-degree", "0", "--kind", "S"],
], ids=" ".join)
def test_oversize_oracle_request_is_refused(argv, tmp_path, monkeypatch, capsys):
    def must_not_solve(*args):
        raise AssertionError("the oracle ran before the size was checked")

    monkeypatch.setattr(cli, "solve_S", must_not_solve)
    monkeypatch.setattr(cli.geode, "geode_series", must_not_solve)
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
], ids=" ".join)
def test_admitted_oracle_request_reaches_the_solver(argv, tmp_path, monkeypatch):
    # Each of these finishes within about 2 s; the stub keeps the test fast.
    calls = []

    def stub_solve(r, max_degree):
        calls.append((r, max_degree))
        return constant_series(r, max_degree, 1)

    monkeypatch.setattr(cli, "solve_S", stub_solve)
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
    failing = VerifyReport("thm1")
    run_case(failing, "forced", {}, "1", lambda: (False, "2"))

    monkeypatch.setitem(cli.SUITES, "thm1", (lambda **bounds: failing, cli.SUITES["thm1"][1]))
    code, out = run_cli(capsys, "verify", "thm1")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 1


def test_verify_error_status_counts_as_failure(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    erroring = VerifyReport("thm1")
    run_case(erroring, "explodes", {}, "1", boom)
    assert erroring.cases[0].status == "error"

    monkeypatch.setitem(cli.SUITES, "thm1", (lambda **bounds: erroring, cli.SUITES["thm1"][1]))
    code, _ = run_cli(capsys, "verify", "thm1")
    assert code == 1


def test_empty_report_never_passes():
    assert not VerifyReport("thm1").all_passed()


@pytest.mark.parametrize("suite", ["thm1", "all"])
def test_verify_empty_suite_exits_one_and_is_named(suite, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        cli.SUITES, "thm1", (lambda **bounds: VerifyReport("thm1"), cli.SUITES["thm1"][1])
    )
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
    cli._negative_control(report, "negative", "R", lambda: VerifyReport("wz1"))
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
    assert prefixes == set(cli.SUITE_NAMES)


# ---------------------------------------------------------------------------
# verify all on forked helpers

SMALL_BOUNDS = ["--max-n", "4", "--max-a", "2", "--max-degree", "4", "--max-order", "3",
                "--max-sum", "3", "--max-vars", "2"]


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


def deal(procs):
    """How ``verify all`` at SMALL_BOUNDS deals its suites: the parent runs
    the first share, a helper each other one."""
    args = cli._build_parser().parse_args(["verify", "all", *SMALL_BOUNDS])
    return cli._deal(cli.SUITE_NAMES, args, procs)


def test_verify_all_reports_are_equal_at_any_helper_count(tmp_path, monkeypatch, capsys):
    pids = recording_forks(monkeypatch)
    reports = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
        path = tmp_path / f"{cpus}.json"
        assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", str(path)]) == 0
        assert capsys.readouterr().err == ""
        reports[cpus] = json.loads(path.read_text())
        for case in reports[cpus]["cases"]:
            del case["elapsed_ms"]
    assert len(pids) == 0 + 1 + 2
    assert_reaped(pids)
    assert reports[1]["summary"]["failed"] == 0
    assert reports[1] == reports[2] == reports[3]


def test_suite_raising_in_a_helper_is_an_error_naming_it(monkeypatch):
    name = deal(2)[1][0]
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    pids = recording_forks(monkeypatch)

    def raising(**bounds):
        raise ValueError("boom outside run_case")

    monkeypatch.setitem(cli.SUITES, name, (raising, cli.SUITES[name][1]))
    with pytest.raises(RuntimeError, match=f"suite {name} raised in a helper") as exc:
        cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull])
    assert "ValueError: boom outside run_case" in str(exc.value)
    assert len(pids) == 1
    assert_reaped(pids)


def test_helper_that_dies_is_an_error_and_is_reaped(monkeypatch):
    name = deal(3)[1][0]
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    pids = recording_forks(monkeypatch)
    parent = os.getpid()

    def dying(**bounds):
        assert os.getpid() != parent, "the dying suite must run in a helper"
        os._exit(3)

    monkeypatch.setitem(cli.SUITES, name, (dying, cli.SUITES[name][1]))
    with pytest.raises(RuntimeError, match=f"running {name}, .* exited with code 3"):
        cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull])
    assert len(pids) == 2
    assert_reaped(pids)


def test_empty_suites_in_every_process_are_named_in_registry_order(monkeypatch, capsys):
    empty = [share[0] for share in deal(3)]
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    for name in empty:
        monkeypatch.setitem(
            cli.SUITES, name, (lambda name=name, **bounds: VerifyReport(name), cli.SUITES[name][1])
        )
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"empty suite: {name} ran no cases" for name in cli.SUITE_NAMES if name in empty
    ]


def test_single_suite_requests_never_fork(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    code, out = run_cli(capsys, "verify", "wz1")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0
    assert run_cli(capsys, "table", "--vars", "2", "--max-degree", "3", "--kind", "G")[0] == 0
    assert run_cli(capsys, "coeff", "--kind", "G", "--exps", "1,1,1") == (0, "319\n")


def test_verify_all_runs_every_share_itself_when_fork_fails(tmp_path, monkeypatch, capsys):
    def report(name):
        data = json.loads((tmp_path / name).read_text())
        for case in data["cases"]:
            del case["elapsed_ms"]
        return data

    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", str(tmp_path / "1.json")]) == 0
    attempts = []

    def failing_fork():
        attempts.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    # under a process limit, fork fails with EAGAIN
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", str(tmp_path / "2.json")]) == 0
    assert capsys.readouterr().err == ""
    assert len(attempts) == 1
    assert report("2.json") == report("1.json")


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
    ["eq31", "--max-n", "15"],
    ["eq31", "--max-a", "6"],
    ["claims", "--max-n", "16"],
    ["claims", "--max-n", "40"],
    ["claims", "--max-a", "5"],
    ["all", "--max-n", "15"],
], ids=" ".join)
def test_verify_rejects_out_of_range_bounds(argv, tmp_path, monkeypatch, capsys):
    def must_not_run(**bounds):
        raise AssertionError("a suite ran before the bounds were checked")

    for name, (_, ranges) in cli.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, (must_not_run, ranges))
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv, "--report", str(report_path)])
    assert exc.value.code == 2
    assert not report_path.exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith("geodenums: error: verify ")


@pytest.mark.parametrize("argv", [
    ["thm1", "--max-degree", "200"],
    ["all", "--max-degree", "200"],
    ["thm3", "--a", "5"],
], ids=" ".join)
def test_verify_refuses_oversize_oracle_work(argv, tmp_path, monkeypatch, capsys):
    # thm1 at degree 200 solves S(2, 201), 3.4e8 units; thm3 at a = 5
    # solves S(10, 9), 2.4e7 units; MAX_ORACLE_WORK is 1e7.
    def must_not_run(**bounds):
        raise AssertionError("a suite ran before its oracle work was priced")

    for name, (_, ranges) in cli.SUITES.items():
        monkeypatch.setitem(cli.SUITES, name, (must_not_run, ranges))
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv, "--report", str(report_path)])
    assert exc.value.code == 2
    assert not report_path.exists()
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1].startswith("geodenums: error: verify thm")
    assert "is too much work" in err[-1]


def _bound_values(flag):
    """The integers the fuzz test passes to `flag`: each minimum - 1,
    minimum, maximum and maximum + 1 it has in SUITES, and +-10**30."""
    values = {10**30, -(10**30)}
    for _, ranges in cli.SUITES.values():
        if flag in ranges:
            minimum, maximum = ranges[flag]
            values |= {minimum - 1, minimum}
            if maximum is not None:
                values |= {maximum, maximum + 1}
    return [str(v) for v in sorted(values)]


BOUND_VALUES = {
    flag: _bound_values(flag) for _, ranges in cli.SUITES.values() for flag in ranges
}


@st.composite
def verify_argv(draw):
    """`verify` with a suite or all and any subset of the bound flags; in
    one example of four, the last flag's value is not an integer."""
    argv = ["verify", draw(st.sampled_from(cli.SUITE_NAMES + ("all",)))]
    for flag in draw(st.lists(st.sampled_from(sorted(BOUND_VALUES)), unique=True)):
        argv += ["--" + flag.replace("_", "-"), draw(st.sampled_from(BOUND_VALUES[flag]))]
    if len(argv) > 2 and draw(st.integers(0, 3)) == 0:
        argv[-1] = draw(st.sampled_from(("1.5", "x")))
    return argv


def _admitted_stub(name):
    """A suite that runs one passing case, once it has asserted that
    `verify` let it start only with bounds inside its ranges and with no S
    solve above MAX_ORACLE_WORK."""
    ranges = cli.SUITES[name][1]
    limit = cli.MAX_ORACLE_WORK

    def suite(**bounds):
        for flag, value in bounds.items():
            if flag == "a_values":
                flag, (value,) = "a", value
            minimum, maximum = ranges[flag]
            assert minimum <= value and (maximum is None or value <= maximum), (name, flag)
        for r, degree in cli._oracle_solves(name, bounds):
            # solve_work is at least max(r^2, degree) and 2^min(r, degree),
            # so only small (r, degree) reach the full estimate
            assert max(r * r, degree) <= limit, (name, r, degree)
            assert min(r, degree) < limit.bit_length(), (name, r, degree)
            assert solve_work(r, degree) <= limit, (name, r, degree)
        report = VerifyReport(name)
        run_case(report, "stub", {}, "ok", lambda: (True, "ok"))
        return report

    return suite


@settings(max_examples=50, deadline=None)
@given(verify_argv())
# one request refused by each part of the oracle guard: by the cheap
# bound max(r^2, degree), and by the full solve_work estimate
@example(["verify", "thm1", "--max-degree", str(10**30)])
@example(["verify", "thm3", "--a", "1000"])
def test_verify_keeps_the_exit_code_contract_for_any_bounds(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_cpus", lambda: 1)
        for name, (_, ranges) in cli.SUITES.items():
            patch.setitem(cli.SUITES, name, (_admitted_stub(name), ranges))
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
], ids=" ".join)
def test_grid_bounds_up_to_their_maxima_are_admitted(argv):
    # the raised bounds of the benchmark's identities workload, bounds that
    # were the maxima before the stepped rows, and each grid suite at its
    # largest admitted bounds
    parser = cli._build_parser()
    cli._check_bounds((argv[0],), parser.parse_args(["verify", *argv]), parser)


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
    assert list(rows) == list(cli.SUITES)
    for name, (suite, ranges) in cli.SUITES.items():
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
    parser = cli._build_parser()
    args = parser.parse_args(["verify", "all"])
    cli._check_suite_work(cli.SUITE_NAMES, args, parser)
    works = [
        solve_work(r, degree)
        for name in cli.SUITE_NAMES
        for r, degree in cli._oracle_solves(name, cli._suite_kwargs(name, args))
    ]
    assert max(works) == solve_work(6, 9) < cli.MAX_ORACLE_WORK


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
    assert {argv[0] for argv in SOLVE_CASES} == set(cli.SUITE_NAMES)


@pytest.mark.parametrize("argv", SOLVE_CASES, ids=" ".join)
def test_solves_list_every_solve_the_suite_makes(argv, monkeypatch):
    calls = []

    def recording(solve):
        def recording_solve(r, max_degree):
            calls.append((r, max_degree))
            return solve(r, max_degree)

        return recording_solve

    monkeypatch.setattr(cli, "solve_S", recording(solve_S))
    monkeypatch.setattr(geode, "_solve_layers", recording(hypercat._solve_layers))
    args = cli._build_parser().parse_args(["verify", *argv])
    kwargs = cli._suite_kwargs(argv[0], args)
    assert cli.SUITES[argv[0]][0](**kwargs).all_passed()
    assert calls == list(cli._oracle_solves(argv[0], kwargs))


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
    suite, _ = cli.SUITES[name]
    assert suite(**bounds).all_passed()
    original = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args: original(*args) + 1)
    report = suite(**bounds)
    assert any(case.status == "fail" for case in report.cases)


# ---------------------------------------------------------------------------
# the claims suite's shared tallies and bracket powers


def test_claims_shared_values_equal_the_per_call_sums():
    # every claim1/claim2 case reads the signed size mass of one tally per
    # length and every ct case one bracket power per (n, a); their values
    # are those of the functions that build everything per call
    report = cli.suite_claims(8, 4)
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


def test_claims_walks_once_per_length_and_powers_once_per_pair(monkeypatch):
    calls = {"walks": 0, "products": 0}

    def counting(function, key):
        def counted(*args):
            calls[key] += 1
            return function(*args)

        return counted

    monkeypatch.setattr(
        identities, "partition_tally", counting(identities.partition_tally, "walks")
    )
    monkeypatch.setattr(mpoly, "_mul_terms", counting(mpoly._mul_terms, "products"))
    assert cli.suite_claims(8, 3).all_passed()
    # two walks per (n, a), of lengths n and n-1 (408 when each shift x
    # walked both lengths again), and n-1 products per (n, a) for the
    # bracket power (588 when each ct case raised the bracket again)
    assert calls == {"walks": 48, "products": 84}
