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
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodenums import cli, geode, hypercat, identities, mpoly
from geodenums.geode import geode_series
from geodenums.hypercat import solve_S, solve_work
from geodenums.report import VerifyReport, run_case


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _constant_layers(max_degree):
    """The packing shift and packed layers of the series 1 through `max_degree`."""
    return mpoly._packing_shift(max_degree), [[(0, 1)]]


def stub_suite(name, units):
    """A registry entry for suite `name` whose units, at any bounds, are
    those `units(**bounds)` returns; its flags and ranges are the real
    suite's."""
    return cli._suite(name)(units), cli.SUITES[name][1]


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

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, stub_suite(name, must_not_run))
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


def _geodenums(*argv, **streams):
    """`python -m geodenums *argv` in a new interpreter that imports this
    package, its stderr a text pipe.  Its stdout is block-buffered, as it
    is by default, so a failure can wait for the last flush."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "geodenums", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **streams)


def _only_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write <stdout>: "), err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["table", "--kind", "S", "--vars", "2", "--max-degree", "5"],
    ["verify", "eq31"],
    ["coeff", "--kind", "C", "--exps", "2,1"],
], ids=" ".join)
def test_stdout_on_a_full_device_exits_two(argv):
    with open("/dev/full", "w") as full:
        proc = _geodenums(*argv, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    _only_error_line(err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["verify", "-h"]], ids=" ".join)
def test_help_on_a_full_device_exits_two(argv):
    # argparse prints the help and exits inside parse_args, before any
    # command writes; the flush must still be guarded
    with open("/dev/full", "w") as full:
        proc = _geodenums(*argv, stdout=full)
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

    monkeypatch.setitem(cli.SUITES, "thm1", stub_suite("thm1", lambda **bounds: [failing]))
    code, out = run_cli(capsys, "verify", "thm1")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 1


def test_verify_error_status_counts_as_failure(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    def erroring(report):
        run_case(report, "explodes", {}, "1", boom)
        assert report.cases[0].status == "error"

    monkeypatch.setitem(cli.SUITES, "thm1", stub_suite("thm1", lambda **bounds: [erroring]))
    code, _ = run_cli(capsys, "verify", "thm1")
    assert code == 1


def test_empty_report_never_passes():
    assert not VerifyReport("thm1").all_passed()


@pytest.mark.parametrize("suite", ["thm1", "all"])
def test_verify_empty_suite_exits_one_and_is_named(suite, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "thm1", stub_suite("thm1", lambda **bounds: []))
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
        monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
        path = tmp_path / f"{cpus}.json"
        assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", str(path)]) == 0
        assert capsys.readouterr().err == ""
        reports[cpus] = stripped(path)
    assert len(pids) == 0 + 1 + 2
    assert_reaped(pids)
    assert reports[1]["summary"]["failed"] == 0
    assert reports[1] == reports[2] == reports[3]


@pytest.mark.parametrize("name", cli.SUITE_NAMES)
def test_verify_suite_reports_are_equal_at_any_helper_count(name, tmp_path, monkeypatch, capsys):
    args = cli._build_parser().parse_args(["verify", name, *SMALL_BOUNDS])
    units = len(cli.SUITES[name][0].units(**cli._suite_kwargs(name, args)))
    pids = recording_forks(monkeypatch)
    reports = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
        path = tmp_path / f"{cpus}.json"
        assert cli.main(["verify", name, *SMALL_BOUNDS, "--report", str(path)]) == 0
        assert capsys.readouterr().err == ""
        reports[cpus] = stripped(path)
    assert len(pids) == sum(min(cpus, units) - 1 for cpus in (1, 2, 3))
    assert_reaped(pids)
    assert reports[1]["summary"]["total"] > 0
    assert reports[1] == reports[2] == reports[3]


def test_unit_queue_refuses_a_short_read():
    read, write = os.pipe()
    os.write(write, (7).to_bytes(cli._RECORD, "little") + b"\x01\x00")
    os.close(write)
    indices = cli._queue_indices(read)
    try:
        assert next(indices) == 7
        with pytest.raises(RuntimeError, match="short read of 2 bytes"):
            next(indices)
    finally:
        os.close(read)


def test_helper_reads_a_suites_last_unit_first(monkeypatch):
    # the parent holds back until the one helper has read its first index,
    # which must be the last unit of the first suite in the queue
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    parent, read_queue = os.getpid(), cli._queue_indices
    first_read, first_write = os.pipe()
    firsts = []

    def queue_indices(queue):
        indices = read_queue(queue)
        if os.getpid() == parent:
            assert select.select([first_read], [], [], 60)[0], "the helper read no index"
            firsts.append(int.from_bytes(os.read(first_read, cli._RECORD), "little"))
        else:
            first = next(indices)
            os.write(first_write, first.to_bytes(cli._RECORD, "little"))
            yield first
        yield from indices

    monkeypatch.setattr(cli, "_queue_indices", queue_indices)
    units = [("wz2", lambda report: None)] * 3 + [("wz1", lambda report: None)] * 2
    try:
        assert cli._run_units(units) == [[]] * 5
    finally:
        os.close(first_read)
        os.close(first_write)
    assert firsts == [2]


def test_suite_raising_in_a_helper_is_an_error_naming_it(monkeypatch):
    # a unit raises outside run_case, in a helper while the parent's copy
    # waits for it, or in the parent while a helper's copy waits to be
    # killed; either way verify raises RuntimeError naming the suite
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
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
                    cli.SUITES, "wz1", stub_suite("wz1", lambda **bounds: [unit, unit])
                )
                with pytest.raises(RuntimeError, match="suite wz1 raised outside its cases") as exc:
                    cli.main(["verify", *argv, "--report", os.devnull])
            assert "ValueError: boom outside run_case" in str(exc.value), (argv, raising_in)
    assert len(pids) == 2 * len(REQUESTS)
    assert_reaped(pids)


def test_helper_that_dies_is_an_error_and_is_reaped(monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    pids = recording_forks(monkeypatch)
    for argv in REQUESTS:
        with Where() as where:
            def dying(report, where=where):
                if where.in_helper():
                    os._exit(3)
                where.wait_for_helpers()

            monkeypatch.setitem(
                cli.SUITES, "wz1", stub_suite("wz1", lambda **bounds: [dying, dying])
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
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    for argv, empty in zip(REQUESTS, (["wz1"], ["thm1", "wz1", "oracle"])):
        for name in empty:
            no_cases = [lambda report: None] * 6
            units = (lambda **bounds: []) if name == "thm1" else (lambda **bounds: no_cases)
            monkeypatch.setitem(cli.SUITES, name, stub_suite(name, units))
        assert cli.main(["verify", *argv, "--report", os.devnull]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"empty suite: {name} ran no cases" for name in cli.SUITE_NAMES if name in empty
        ]


def test_table_coeff_and_one_unit_requests_never_fork(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(cli, "_cpus", lambda: 3)
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
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        assert cli.main(["verify", *argv, "--report", str(serial)]) == 0
        # under a process limit, fork fails with EAGAIN
        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", failing_fork)
            patch.setattr(cli, "_cpus", lambda: 2)
            assert cli.main(["verify", *argv, "--report", str(parallel)]) == 0
        assert capsys.readouterr().err == ""
        assert stripped(parallel) == stripped(serial)
    assert len(attempts) == len(REQUESTS)


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

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, stub_suite(name, must_not_run))
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

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, stub_suite(name, must_not_run))
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
    """The units of a suite with one passing case, once it has asserted
    that `verify` let it start only with bounds inside its ranges and with
    no S solve above MAX_ORACLE_WORK."""
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
        return [lambda report: run_case(report, "stub", {}, "ok", lambda: (True, "ok"))]

    return suite


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
    patch.setattr(cli, "_cpus", lambda: 1)
    for name in cli.SUITES:
        patch.setitem(cli.SUITES, name, stub_suite(name, _admitted_stub(name)))


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
    monkeypatch.setattr(
        identities, "_truncated_product", counting(identities._truncated_product, "products")
    )
    assert cli.suite_claims(8, 3).all_passed()
    # two walks per (n, a), of lengths n and n-1 (408 when each shift x
    # walked both lengths again), and n-1 products per (n, a) for the
    # list products of the bracket power (588 when each ct case raised the
    # bracket again)
    assert calls == {"walks": 48, "products": 84}
