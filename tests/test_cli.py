"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import gc
import inspect
import io
import json
import os
import pickle
import re
import subprocess
import sys
import time
import traceback
import weakref
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from functools import partial, wraps
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodenums import cli, geode, hypercat, identities, mpoly, verify, wz
from geodenums.geode import geode_series
from geodenums.hypercat import _lane_sums, residual_work, solve_S, solve_work
from geodenums.report import Case, Handle, VerifyReport, run_units


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _constant_layers(max_degree):
    """The packing shift and packed layers of the series 1 through `max_degree`."""
    return mpoly._packing_shift(max_degree), [[(0, 1)]]


def priced_only(unit):
    """`unit` with every case it records dropped: its calls are priced as
    it asks for them, and no case reads their handles."""

    def priced(report):
        start = len(report.cases)
        unit(report)
        del report.cases[start:]

    return priced


def stub_suite(name, units):
    """A registry entry for suite `name` with its flags and minimums that
    `verify` prices as the real suite: at any bounds it yields the units
    that `units(**bounds)` returns, which ask for no priced call, then, as
    lazily as the real suite yields its units, each real unit, priced and
    recording no case."""
    suite, minimums = verify.SUITES[name]

    def stub(**bounds):
        yield from units(**bounds)
        for unit in suite(**bounds):
            yield priced_only(unit)

    return stub, minimums


def fork_at_any_work(monkeypatch):
    """Let every request fork its helpers, however little its work."""
    monkeypatch.setattr(verify, "_FORK_WORK", -1)


def plan(argv):
    """The plan `verify *argv` makes: (name, reports, work) of each suite
    it runs, in the order it runs them, a report per unit."""
    parser = cli._build_parser()
    args = parser.parse_args(["verify", *argv])
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    steps = verify._plan(names, args, parser)
    return [
        (name, [report for step, report, _ in steps if step == name],
         sum(work for step, _, work in steps if step == name))
        for name in dict.fromkeys(step for step, _, _ in steps)
    ]


def recorded(check, works):
    """Units of suite wz1 as ``verify._run_units`` takes them, one per
    entry of `works`, each a report holding one recorded case, `check`,
    and declaring that work."""
    units = []
    for work in works:
        report = VerifyReport("wz1")
        report.run_case("where", {}, "", check)
        units.append(("wz1", report, work))
    return units


def ran_by(cases):
    """The pid a case of ``pid_check`` reports, from its unit's cases."""
    [case] = cases
    return int(case.actual)


def pid_check():
    # a lambda, which pickle refuses, as it refuses a case's real check
    return (lambda: (True, str(os.getpid())))


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


def _encode(series, fmt):
    """`series` as `table` renders it, encoded here and not by the package:
    its terms by total degree, then lexicographically, under json.dumps as
    {"nvars", "trunc", "terms": [{"exps", "coeff"}]}, or as CSV rows."""
    terms = sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    if fmt == "json":
        rows = [{"exps": list(m), "coeff": str(c)} for m, c in terms]
        data = {"nvars": series.nvars, "trunc": series.trunc, "terms": rows}
        return json.dumps(data, indent=2) + "\n"
    header = ",".join(f"m_{i + 1}" for i in range(series.nvars)) + ",coeff\n"
    return header + "".join(",".join(map(str, m)) + f",{c}\n" for m, c in terms)


def _reference_table(kind, fmt, r, degree):
    """`table` output as ``_encode`` renders the unpacked series."""
    series = solve_S(r, degree) if kind == "S" else geode_series(r, degree).series
    return _encode(series, fmt)


@pytest.mark.parametrize("kind, r, degree", [("S", 3, 6), ("G", 2, 8), ("G", 6, 4), ("S", 40, 2)])
def test_series_to_dict_renders_as_the_reference_encoder(kind, r, degree):
    # the benchmark still renders series through series_to_dict
    series = solve_S(r, degree) if kind == "S" else geode_series(r, degree).series
    assert json.dumps(mpoly.series_to_dict(series), indent=2) + "\n" == _encode(series, "json")


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
# coefficients (one variable through degree 300, two through 100)
@example("S", "json", 30, 2)
@example("G", "csv", 30, 2)
@example("S", "csv", 6, 8)
@example("G", "json", 6, 8)
@example("S", "json", 100, 2)
@example("S", "csv", 1, 300)
@example("S", "csv", 2, 100)
@example("G", "json", 100, 2)
def test_table_output_equals_the_reference_rendering(kind, fmt, r, degree):
    assert _table_output(kind, fmt, r, degree) == _reference_table(kind, fmt, r, degree)


def test_table_raises_on_a_term_outside_its_layer(monkeypatch):
    # t_1 t_2 filed under layer 1, as a packing field that overflowed would
    shift = mpoly._packing_shift(2)
    layers = [[(0, 1)], [(1 + (1 << shift), 3)], []]
    monkeypatch.setattr(cli, "_solve_layers", lambda r, degree, geode: (shift, layers))
    with pytest.raises(ValueError, match="total degree 2, not its layer's 1"):
        cli.main(["table", "--kind", "S", "--vars", "2", "--max-degree", "2", "--out", os.devnull])


# layer 1 in two variables, as the solver lists it: (1, 0), then (0, 1)
_T1, _T2 = 1, 1 << mpoly._packing_shift(1)


def test_table_drops_a_zero_coefficient_row(monkeypatch, capsys):
    layers = [[(0, 1)], [(_T1, 0), (_T2, 3)]]
    monkeypatch.setattr(
        cli, "_solve_layers", lambda r, degree, geode: (mpoly._packing_shift(1), layers)
    )
    code, out = run_cli(capsys, "table", "--kind", "S", "--vars", "2", "--max-degree", "1",
                        "--format", "csv")
    assert code == 0
    assert out == "m_1,m_2,coeff\n0,0,1\n0,1,3\n"


@pytest.mark.parametrize("layer, line", [
    ([(_T2, 3), (_T1, 2)], "layer 1 holds (1, 0) where lexicographic order puts (0, 1)"),
    ([(_T1, 2)], "layer 1 holds (1, 0) where lexicographic order puts (0, 1)"),
    ([(_T2, 3)], "layer 1 holds nothing where lexicographic order puts (1, 0)"),
    ([(_T1, 2), (_T1, 2), (_T2, 3)], "layer 1 holds (1, 0) where lexicographic order puts nothing"),
], ids=["swapped", "first missing", "last missing", "repeated"])
def test_table_raises_on_a_layer_out_of_lexicographic_order(layer, line, monkeypatch):
    layers = [[(0, 1)], layer]
    monkeypatch.setattr(
        cli, "_solve_layers", lambda r, degree, geode: (mpoly._packing_shift(1), layers)
    )
    with pytest.raises(ValueError, match=re.escape(line)):
        cli.main(["table", "--kind", "S", "--vars", "2", "--max-degree", "1", "--out", os.devnull])


@pytest.mark.parametrize("flags, line", [
    (["--vars", "0", "--max-degree", "3"], "--vars must be >= 1, got 0"),
    (["--vars", "2", "--max-degree", "-1"], "--max-degree must be >= 0, got -1"),
], ids=["vars 0", "max-degree -1"])
def test_table_rejects_a_bound_below_its_minimum(flags, line, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", *flags, "--kind", "S"])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert [text for text in lines if "error:" in text] == lines[-1:]
    assert lines[-1] == f"geodenums: error: {line}"


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

    # a verify request records its cases while it is planned, and runs none
    monkeypatch.setattr(VerifyReport, "run", must_not_run)
    monkeypatch.setattr(cli, "_solve_layers", must_not_run)
    monkeypatch.setattr(hypercat, "_solve_layers", must_not_run)
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
    # on the support of m, with and without a gap
    for exps in ("0,0,3,0", "0,2,0,1", "1,1,1,0", "2,0,1,1"):
        _, out = run_cli(capsys, "coeff", "--kind", "G", "--exps", exps)
        expected = table.coefficient(tuple(int(p) for p in exps.split(",")))
        assert out.strip() == str(expected)


def test_coeff_g_solves_on_the_support_of_m(capsys):
    # m = e53 + e75 + e79: the whole G table in 79 variables through degree
    # 3 is refused (MAX_WORK), the solve on the support (53, 75, 79) is not
    exps = ["0"] * 79
    for k in (53, 75, 79):
        exps[k - 1] = "1"
    assert run_cli(capsys, "coeff", "--kind", "G", "--exps", ",".join(exps)) == (0, "5372256\n")
    assert geode.geode_work(79, 3) > cli.MAX_WORK >= geode.geode_work(79, 3, (53, 75, 79))


@pytest.mark.parametrize("argv", [
    ["table", "--vars", "12", "--max-degree", "12", "--kind", "S"],
    ["table", "--vars", "12", "--max-degree", "12", "--kind", "G"],
    ["coeff", "--kind", "G", "--exps", "1,1,1,1,1,1,1,1,1,1"],
    ["table", "--vars", "3", "--max-degree", "90", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "19999", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "5000", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "4000", "--kind", "S"],
    ["table", "--vars", "2", "--max-degree", "300", "--kind", "S"],
    ["table", "--vars", "1000000", "--max-degree", "0", "--kind", "S"],
    ["table", "--vars", "100000", "--max-degree", "0", "--kind", "S"],
], ids=" ".join)
def test_oversize_oracle_request_is_refused(argv, tmp_path, monkeypatch, capsys):
    def must_not_solve(*args, **seed):
        raise AssertionError("the oracle ran before the size was checked")

    # table reads cli's _solve_layers; coeff's oracle branch, through
    # geode_support, reads hypercat's
    monkeypatch.setattr(cli, "_solve_layers", must_not_solve)
    monkeypatch.setattr(hypercat, "_solve_layers", must_not_solve)
    kinds = {"S": "solve_S", "G": "geode_series"}
    kernel = "geode_support" if argv[0] == "coeff" else kinds[argv[argv.index("--kind") + 1]]
    out_path = tmp_path / "table.json"
    if argv[0] == "table":
        argv = argv + ["--out", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not out_path.exists()
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1].startswith(f"geodenums: error: {kernel}(")
    assert err[-1].endswith(f" is too much work: more than {cli.MAX_WORK} units (MAX_WORK)")


@pytest.mark.parametrize("argv", [
    ["table", "--vars", "100", "--max-degree", "2", "--kind", "S"],
    ["table", "--vars", "85", "--max-degree", "2", "--kind", "S"],
    ["table", "--vars", "7", "--max-degree", "10", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "1000", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "1387", "--kind", "S"],
    ["table", "--vars", "3", "--max-degree", "45", "--kind", "S"],
    ["table", "--vars", "2", "--max-degree", "150", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "1621", "--kind", "S"],
    ["table", "--vars", "1", "--max-degree", "3000", "--kind", "S"],
], ids=" ".join)
def test_admitted_oracle_request_reaches_the_solver(argv, tmp_path, monkeypatch):
    # Each of these finishes within about 2 s; the stub keeps the test fast.
    calls = []

    def stub_solve(r, max_degree, geode):
        calls.append((r, max_degree, geode))
        return _constant_layers(max_degree)

    monkeypatch.setattr(cli, "_solve_layers", stub_solve)
    assert cli.main(argv + ["--out", str(tmp_path / "table.json")]) == 0
    assert calls == [(int(argv[2]), int(argv[4]), False)]


def test_oracle_guard_admits_the_largest_suite_table():
    # G at r = 6 through degree 8 (thm3 at a = 3) is the largest table the
    # suites build
    cli._check_work("geode_series", (6, 8), geode.geode_work, cli._build_parser())


@pytest.mark.parametrize("r", [1, 2, 6])
def test_table_g_is_priced_as_its_seeded_solve(r, tmp_path, monkeypatch, capsys):
    # G through D is the power recurrence through D seeded for G, so it is
    # priced as that solve and the work on its entries; the largest G table
    # admitted is run, and one more is refused, named as the call it prices
    largest = _guard_limit(lambda d: geode.geode_work(r, d))
    assert geode.geode_work(r, largest) > solve_work(r, largest, geode=True)
    calls = []

    def stub_solve(r, max_degree, geode):
        calls.append((r, max_degree, geode))
        return _constant_layers(max_degree)

    monkeypatch.setattr(cli, "_solve_layers", stub_solve)
    argv = ["table", "--vars", str(r), "--kind", "G", "--out", str(tmp_path / "table.json")]
    assert cli.main(argv + ["--max-degree", str(largest)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--max-degree", str(largest + 1)])
    assert exc.value.code == 2
    assert calls == [(r, largest, True)]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"geodenums: error: geode_series({r}, {largest + 1}) is too much work: "
        f"more than {cli.MAX_WORK} units (MAX_WORK)"
    )


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
        report.run_case("forced", {}, "1", lambda: (False, "2"))

    monkeypatch.setitem(verify.SUITES, "thm1", stub_suite("thm1", lambda **bounds: [failing]))
    code, out = run_cli(capsys, "verify", "thm1")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 1


def test_verify_error_status_counts_as_failure(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    def erroring(report):
        report.run_case("explodes", {}, "1", boom)

    monkeypatch.setitem(verify.SUITES, "thm1", stub_suite("thm1", lambda **bounds: [erroring]))
    code, out = run_cli(capsys, "verify", "thm1")
    assert code == 1
    [case] = json.loads(out)["cases"]
    assert (case["status"], case["actual"]) == ("error", "RuntimeError: boom")


def test_empty_report_never_passes():
    assert not VerifyReport("thm1").all_passed()


CASE_PARAMS = st.dictionaries(
    st.text(max_size=6), st.integers() | st.lists(st.integers(), max_size=3), max_size=3
)


def finished(id, params, expected, actual, status, elapsed_ms):
    """A case as ``VerifyReport.run`` leaves it."""
    case = Case(id, params, expected, None)
    case.actual, case.status, case.elapsed_ms = actual, status, elapsed_ms
    return case


@settings(max_examples=200, deadline=None)
@given(
    st.text(max_size=8),
    st.lists(
        st.builds(
            finished,
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
@example("claims", [finished("ct,n=1,a=1,x=+0", {}, "1", "é ≠ 1", "fail", 0.25)])
@example(
    "general-eval",
    [finished("a=2,c=(2,3)", {"a": 2, "c": [2, 3]}, "7^n", "", "pass", float("nan"))],
)
def test_report_json_is_laid_out_as_json_dumps_lays_it_out(suite, cases):
    report = VerifyReport(suite)
    report.cases = cases
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


def test_a_units_handles_are_released_once_its_cases_ran(monkeypatch):
    # the support table a thm1 unit built is freed by reference counting
    # alone once the unit's cases have run, and every case then holds only
    # text, which a helper pickles
    tables = []
    support = geode.geode_support

    class Table:  # a support table that can be weakly referenced
        def __init__(self, series):
            self.nvars, self.trunc, self.terms = series.nvars, series.trunc, series.terms

    @wraps(support)  # verify prices a kernel by its name
    def weakly_held(*args):
        table = Table(support(*args))
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(geode, "geode_support", weakly_held)
    report = VerifyReport("thm1")
    [unit] = verify.suite_thm1(4)
    collecting = gc.isenabled()
    gc.disable()
    try:
        unit(report)
        assert report.run().all_passed()
        assert len(tables) == 1 and tables[0]() is None
    finally:
        if collecting:
            gc.enable()
    for case in report.cases:
        assert (type(case.expected), type(case.actual)) == (str, str)
    assert [case.actual for case in pickle.loads(pickle.dumps(report.cases))] == [
        case.actual for case in report.cases
    ]


@pytest.mark.parametrize(
    "argv", [["thm1", "--max-degree", "3"], ["eq31", "--max-n", "2"], ["claims", "--max-n", "2"]],
    ids=" ".join,
)
def test_a_recorded_equality_case_pickles_before_it_runs(argv):
    # its two sides are data: literals and handles of module-level kernels,
    # and no function defined inside a unit; a copy runs as the case does
    [(name, reports, _)] = plan(argv)
    cases = [case for report in reports for case in report.cases]
    assert cases and all(isinstance(case.actual, Handle) for case in cases)
    copies = VerifyReport(name)
    copies.cases = pickle.loads(pickle.dumps(cases))
    original = VerifyReport(name)
    original.cases = cases
    ran = [(c.id, c.expected, c.actual, c.status) for c in original.run().cases]
    assert original.all_passed()
    assert [(c.id, c.expected, c.actual, c.status) for c in copies.run().cases] == ran


def test_an_equality_case_whose_actual_side_raises_keeps_its_expected_text():
    def missing(n):
        raise KeyError(n)

    report = VerifyReport("eq31")
    report.run_case("literal", {}, 8, Handle(missing, (3,)))
    report.run_case("handle", {}, Handle(pow, (2, 3)), Handle(missing, (3,)))
    report.run_case("expected raises", {}, Handle(missing, (1,)), Handle(pow, (2, 3)))
    assert [(c.expected, c.actual, c.status) for c in report.run().cases] == [
        ("8", "KeyError: 3", "error"),
        ("8", "KeyError: 3", "error"),
        ("", "KeyError: 1", "error"),
    ]


def test_a_failed_handles_traceback_does_not_grow_with_its_reads():
    # a build that raises is read by every case that holds it, here each
    # through a handle of its own, as a two-slot case reads its table; each
    # read raises the stored exception with the traceback of that read alone
    def build():
        raise OverflowError("prefix sum")

    table = Handle(build, ())

    def read(reads):
        report = VerifyReport("thm1")
        for n in range(reads):
            report.run_case(f"n={n}", {}, n, Handle(abs, (table,)))
        texts = {(c.expected, c.actual, c.status) for c in report.run().cases}
        return texts, len(traceback.extract_tb(table.outcome[1].__traceback__))

    once = read(1)
    assert once[0] == {("0", "OverflowError: prefix sum", "error")}
    texts, length = read(1000)
    assert {actual for _, actual, _ in texts} == {"OverflowError: prefix sum"}
    assert length == once[1]


@pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
def test_planning_leaves_the_collector_as_it_found_it_when_a_body_raises(collecting, monkeypatch):
    inside = []

    def unit(report):
        inside.append(gc.isenabled())
        raise ValueError("boom outside run_case")

    monkeypatch.setitem(verify.SUITES, "wz1", stub_suite("wz1", lambda **bounds: [unit]))
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(RuntimeError, match="suite wz1 raised outside its cases"):
            plan(["wz1"])
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False]


def test_negative_control_does_not_count_an_empty_run_as_detected():
    report = VerifyReport("wz1")
    verify._control("negative", "R", [])(report)
    assert [case.status for case in report.run().cases] == ["fail"]


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
# verify on forked helpers, each running the share of units dealt to it

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


@given(st.lists(st.integers(0, 10**6), max_size=40), st.integers(1, 6))
@example([5, 3, 3, 2, 0, 0], 2)
@example([0, 0, 0, 0, 0], 3)
def test_the_deal_gives_each_unit_one_process_and_evens_out_their_work(works, procs):
    shares = verify._deal(works, procs)
    assert len(shares) == procs
    assert sorted(index for share in shares for index in share) == list(range(len(works)))
    assert all(share == sorted(share) for share in shares)
    dealt = [sum(works[index] for index in share) for share in shares]
    assert max(dealt) - min(dealt) <= max(works, default=0)


@given(st.integers(0, 10**6), st.integers(0, 40), st.integers(1, 6))
@example(0, 7, 3)
def test_the_deal_spreads_units_of_equal_work_evenly(work, count, procs):
    # units of no work too: the deal breaks ties by the units dealt
    sizes = [len(share) for share in verify._deal([work] * count, procs)]
    assert max(sizes) - min(sizes) <= 1


def test_verify_all_reports_are_equal_at_any_helper_count(tmp_path, monkeypatch, capsys):
    fork_at_any_work(monkeypatch)
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
    fork_at_any_work(monkeypatch)
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


def test_a_helper_runs_exactly_its_dealt_share_and_sends_its_cases_back(monkeypatch):
    # works 5, 3, 3, 2, 0, 0 on two CPUs: the command's process is dealt
    # units 0 and 3 (5 + 2), the helper 1, 2, 4 and 5 (3 + 3 + 0 + 0);
    # each case reports the pid that ran it, and the helper must send
    # its four cases back holding their texts in place of their checks,
    # which pickle refuses
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    fork_at_any_work(monkeypatch)
    pids = recording_forks(monkeypatch)
    works = [5, 3, 3, 2, 0, 0]
    assert verify._deal(works, 2) == [[0, 3], [1, 2, 4, 5]]
    ran = verify._run_units(recorded(pid_check(), works))
    [helper] = pids
    assert_reaped(pids)
    me = os.getpid()
    assert [ran_by(cases) for cases in ran] == [me, helper, helper, me, helper, helper]
    assert all(c.status == "pass" and type(c.actual) is str for cases in ran for c in cases)


def test_the_command_runs_the_shares_of_the_helpers_it_could_not_fork(monkeypatch):
    # three CPUs, and the second fork fails: the command's process runs
    # its own share, then the share of the helper it could not fork
    fork, attempts = os.fork, []

    def second_fails():
        attempts.append(1)
        if len(attempts) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1, 2))
    fork_at_any_work(monkeypatch)
    monkeypatch.setattr(os, "fork", second_fails)
    pids = recording_forks(monkeypatch)
    assert verify._deal([0] * 6, 3) == [[0, 3], [1, 4], [2, 5]]
    ran = verify._run_units(recorded(pid_check(), [0] * 6))
    [helper] = pids
    assert_reaped(pids)
    me = os.getpid()
    assert [ran_by(cases) for cases in ran] == [me, helper, me, me, helper, me]
    assert len(attempts) == 2


def test_the_commands_process_runs_the_unit_of_most_declared_work_first(monkeypatch, capsys):
    # _cmd_verify sorts every unit by its declared work, largest first,
    # and the deal gives the first unit to process 0, the command's own,
    # which runs its share in order: eq31's last unit, (4, 3), declares
    # the most work.  Only this process's log of the reports it ran is read.
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    fork_at_any_work(monkeypatch)
    pids = recording_forks(monkeypatch)
    run, run_units = VerifyReport.run, verify._run_units
    ran_here, requests = [], []

    def running(report):
        ran_here.append([case.id for case in report.cases])
        return run(report)

    monkeypatch.setattr(VerifyReport, "run", running)
    monkeypatch.setattr(verify, "_run_units", lambda units: requests.append(units) or run_units(units))
    assert cli.main(["verify", "eq31", "--max-n", "4", "--max-a", "3",
                     "--report", os.devnull]) == 0
    capsys.readouterr()
    assert len(pids) == 1
    [units] = requests
    works = [work for *_, work in units]
    assert works == sorted(works, reverse=True)
    assert units[0][2] == identities.partition_sum_work(4, 3) > works[1]
    mine, _ = verify._deal(works, 2)
    assert ran_here[0] == ["n=4,a=3"]
    assert ran_here == [[case.id for case in units[index][1].cases] for index in mine]


def test_verify_deals_every_suites_units_largest_declared_work_first(monkeypatch, capsys):
    # across the suites of verify all, largest declared work first; units
    # of equal work keep plan order, suite by suite
    requests = []
    monkeypatch.setattr(
        verify, "_run_units", lambda units: requests.append(units) or [[]] * len(units)
    )
    cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull])
    capsys.readouterr()
    [units] = requests
    works = [work for *_, work in units]
    assert works == sorted(works, reverse=True)
    names = [name for name, *_ in units]
    assert set(names) == set(verify.SUITE_NAMES)
    for work in set(works):
        tied = [verify.SUITE_NAMES.index(n) for n, w in zip(names, works) if w == work]
        assert tied == sorted(tied)


def test_a_body_raising_outside_its_cases_fails_the_plan_before_any_fork(
    tmp_path, monkeypatch
):
    # a unit's body runs once, while the request is planned, so it raises
    # in the command's process, before any fork and before the report is
    # opened, and no case runs
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    fork_at_any_work(monkeypatch)
    pids = recording_forks(monkeypatch)
    ran = []
    monkeypatch.setattr(VerifyReport, "run", lambda report: ran.append(report))

    def unit(report):
        report.run_case("recorded", {}, "", lambda: (True, ""))
        raise ValueError("boom outside run_case")

    monkeypatch.setitem(verify.SUITES, "wz1", stub_suite("wz1", lambda **bounds: [unit]))
    report_path = tmp_path / "report.json"
    for argv in REQUESTS:
        with pytest.raises(RuntimeError, match="suite wz1 raised outside its cases") as exc:
            cli.main(["verify", *argv, "--report", str(report_path)])
        assert "ValueError: boom outside run_case" in str(exc.value), argv
    assert pids == ran == []
    assert not report_path.exists()


def test_helper_that_dies_is_an_error_and_is_reaped(monkeypatch):
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    fork_at_any_work(monkeypatch)
    pids = recording_forks(monkeypatch)
    parent = os.getpid()

    def check():
        if os.getpid() != parent:
            os._exit(3)
        return True, ""

    def dying(report):
        # a G table that no case reads is priced and never built: its
        # work is above any other unit's, so the two dying units are
        # dealt first, one to each process
        report.call(geode.geode_series, 4, 10)
        report.run_case("dies in a helper", {}, "", check)

    run_units, requests = verify._run_units, []
    monkeypatch.setattr(verify, "_run_units", lambda units: requests.append(units) or run_units(units))
    monkeypatch.setitem(verify.SUITES, "wz1", stub_suite("wz1", lambda **bounds: [dying, dying]))
    for argv in REQUESTS:
        dies = "exited with code 3 before sending its cases"
        with pytest.raises(RuntimeError, match=dies) as exc:
            cli.main(["verify", *argv, "--report", os.devnull])
        unreported = str(exc.value).split("; units of ")[1].removesuffix(" ran nowhere")
        assert "wz1" in unreported.split(", "), argv
    assert len(pids) == len(requests) == len(REQUESTS)
    assert_reaped(pids)
    for units in requests:
        works = [work for *_, work in units]
        assert works[0] == works[1] == geode.geode_work(4, 10) > works[2]


def test_empty_suites_in_every_process_are_named_in_registry_order(monkeypatch, capsys):
    # units that run no cases, spread over three processes, and a suite
    # with no units at all
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1, 2))
    fork_at_any_work(monkeypatch)
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

    fork_at_any_work(monkeypatch)
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
def test_the_command_and_each_helper_run_on_a_cpu_of_their_own(monkeypatch):
    fork_at_any_work(monkeypatch)
    # units of no work, which the deal spreads one to each process; each
    # case reports the pid and the CPUs of the process that ran it
    procs = min(len(CPU_IDS), 3)

    def where():
        return True, json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))])

    before = os.sched_getaffinity(0)
    ran = verify._run_units(recorded(where, [0] * procs))
    where = dict(json.loads(cases[0].actual) for cases in ran)
    assert len(where) == procs
    assert where[os.getpid()] == [CPU_IDS[0]]
    assert sorted(where.values()) == [[cpu] for cpu in CPU_IDS[:procs]]
    assert os.sched_getaffinity(0) == before


@needs_two_cpus
@pytest.mark.parametrize(
    "path", ["success", "interrupted in parent", "helper dies", "fork fails"]
)
def test_the_commands_mask_is_restored_on_every_path(path, monkeypatch):
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(verify, "_cpus", lambda: CPU_IDS[:2])
    fork_at_any_work(monkeypatch)
    if path == "fork fails":
        monkeypatch.setattr(os, "fork", failing_fork)
    pinned, parent = [], os.getpid()

    # two units of no work, dealt one to each process: the helper's case
    # dies on that path, and the case the command's process runs may be
    # interrupted, which no case catches
    def check():
        if os.getpid() != parent:
            if path == "helper dies":
                os._exit(3)
            return True, ""
        pinned.append(os.sched_getaffinity(0))
        if path == "interrupted in parent":
            raise KeyboardInterrupt
        return True, ""

    before = os.sched_getaffinity(0)
    if path in ("success", "fork fails"):
        ran = verify._run_units(recorded(check, [0, 0]))
        assert [[case.status for case in cases] for cases in ran] == [["pass"]] * 2
    elif path == "helper dies":
        with pytest.raises(RuntimeError, match="exited with code 3"):
            verify._run_units(recorded(check, [0, 0]))
    else:
        with pytest.raises(KeyboardInterrupt):
            verify._run_units(recorded(check, [0, 0]))
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
    fork_at_any_work(monkeypatch)
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
    ["eq31", "--max-a", "0"],
    ["claims", "--max-n", "-1"],
    ["all", "--max-n", "0"],
], ids=" ".join)
def test_verify_rejects_out_of_range_bounds(argv, tmp_path, monkeypatch, capsys):
    # a suite builds its units when it is called, as many as its bounds ask
    # for, so no suite may even be called before every bound is checked
    def must_not_run(**bounds):
        raise AssertionError("a suite was called before the bounds were checked")

    for name, (_, minimums) in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, (must_not_run, minimums))
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv, "--report", str(report_path)])
    assert exc.value.code == 2
    assert not report_path.exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith("geodenums: error: verify ")


def assert_refused_before_any_case(argv, tmp_path, monkeypatch, capsys, first=None):
    """`verify *argv` exits 2 with one error line naming the suite `first`
    (by default the one named, thm1 for all), having called no kernel and
    run no case, and writes no report."""
    made, ran = [], []
    watch_kernels(monkeypatch, made.append)
    monkeypatch.setattr(VerifyReport, "run", lambda report: ran.append(report))
    report_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv, "--report", str(report_path)])
    assert exc.value.code == 2
    assert made == ran == []
    assert not report_path.exists()
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    first = first or ("thm1" if argv[0] == "all" else argv[0])
    assert err[-1].startswith(f"geodenums: error: verify {first}: ")
    assert err[-1].endswith(f" is too much work: more than {cli.MAX_WORK} units (MAX_WORK)")
    return err[-1]


@pytest.mark.parametrize("argv", [
    ["thm1", "--max-degree", "300"],
    ["all", "--max-degree", "300"],
    ["thm3", "--a", "210"],
    ["recurrence", "--max-vars", "1000", "--max-degree", "1"],
    ["oracle", "--max-vars", "1000", "--max-degree", "0"],
    ["recurrence", "--max-vars", str(10**30), "--max-degree", "1"],
    ["oracle", "--max-degree", "22"],
], ids=" ".join)
def test_verify_refuses_oversize_oracle_work(argv, tmp_path, monkeypatch, capsys):
    # thm1 at degree 300 solves S(2, 301), 3.4e7 units; thm3 at a = 210
    # solves G on a line of 420 weights through order 8, 3.03e7 units (at
    # a = 209, 2.996e7); MAX_WORK is 3e7.  recurrence at 1000
    # variables, degree 1, solves S(r, 1) for r = 1..1000 and oracle at
    # degree 0 S(r, 0) and twice S(r, 1): each solve is admitted alone,
    # but together they take 1.7e9 and 3.7e9 units.  The plan prices the
    # units' calls as the suite yields them, so 10**30 variables
    # stop at the first call past the limit.  oracle at degree 22 solves
    # S(4, 22) for 2.3e6 units, but its residual multiplies 17 168 580
    # coefficient pairs (hypercat.residual_work).
    assert_refused_before_any_case(argv, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("argv", [
    ["eq31", "--max-n", str(10**30)],
    ["claims", "--max-n", str(10**30)],
    ["wz1", "--max-n", str(10**30)],
    ["wz2", "--max-n", str(10**30)],
    ["certificate", "--max-n", str(10**30)],
    ["eq31", "--max-a", str(10**30)],
    ["claims", "--max-a", str(10**30)],
    ["wz2", "--a", str(10**30), "--max-n", str(10**30)],
    ["all", "--max-n", str(10**30)],
    ["wz1", "--max-n", "100000"],
], ids=" ".join)
def test_verify_refuses_oversize_grid_work_at_once(argv, tmp_path, monkeypatch, capsys):
    # the grid suites yield their units lazily, and every cost function
    # answers at once for any int, so a huge bound is refused after a
    # bounded prefix of its units, well within a second
    start = time.perf_counter()
    first = "eq31" if argv[0] == "all" else argv[0]
    line = assert_refused_before_any_case(argv, tmp_path, monkeypatch, capsys, first)
    assert time.perf_counter() - start < 1, line
    assert " after " in line and " units of earlier work of this suite is " in line


def test_a_refused_wz1_request_names_the_generalized_row_at_a_2(tmp_path, monkeypatch, capsys):
    # the refusal the README shows: wz1 reads the generalized pair's rows
    line = assert_refused_before_any_case(["wz1", "--max-n", "839"], tmp_path, monkeypatch, capsys)
    assert line == (
        "geodenums: error: verify wz1: _f2(2, 839) after 29932243 units of earlier work of "
        f"this suite is too much work: more than {cli.MAX_WORK} units (MAX_WORK)"
    )


def test_verify_refuses_a_suite_once_its_summed_work_passes_the_limit():
    # recurrence at degree 1 admits 169 variables and oracle at degree 0
    # 230: the calls of one more variable take the sum past the limit
    limit = cli.MAX_WORK
    for name, degree, largest in (("recurrence", "1", 169), ("oracle", "0", 230)):
        [(_, _, work)] = plan([name, "--max-vars", str(largest), "--max-degree", degree])
        assert work <= limit
        with pytest.raises(SystemExit) as exc:
            plan([name, "--max-vars", str(largest + 1), "--max-degree", degree])
        assert exc.value.code == 2


def _bound_values(flag):
    """The integers the fuzz test passes to `flag`: each minimum - 1 and
    minimum it has in SUITES, a few larger values and +-10**30."""
    values = {10**30, -(10**30), 7, 30, 350}
    for _, minimums in verify.SUITES.values():
        if flag in minimums:
            values |= {minimums[flag] - 1, minimums[flag]}
    return [str(v) for v in sorted(values)]


BOUND_VALUES = {
    flag: _bound_values(flag) for _, minimums in verify.SUITES.values() for flag in minimums
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


# The work of each declared kernel call, the oracle's restated from the
# kernels: a G table through D is the solve through D seeded for G, a
# support table that solve on its support, and factorization_holds, given
# a table, solves its S through D + 1; an evaluation is the line solve on
# its 2a weights; the residual of an S table is priced at the table's
# (r, D).
CALL_WORK = {
    **verify.WORK,
    "solve_S": solve_work,
    "geode_series": partial(solve_work, geode=True),
    "geode_support": lambda r, degree, support: solve_work(
        r, degree, geode=True, support=support
    ),
    "factorization_holds": lambda table: solve_work(table.args[0], table.args[1] + 1),
    "functional_residual": lambda table: residual_work(*table.args),
    "eval_alternating": lambda a, degree: geode.line_work(2 * a, degree, 1),
    "eval_general": lambda a, c, degree: geode.line_work(
        2 * a, degree, max(map(abs, c)).bit_length()
    ),
}


def _admitted_stub(name):
    """A units function for suite `name` returning one unit with one case,
    which passes when it runs only if `verify` let the suite start with
    bounds at or above their minimums and with calls (those the real
    suite's units ask for at the same bounds) that take at most MAX_WORK
    together."""
    suite, minimums = verify.SUITES[name]
    limit = cli.MAX_WORK

    def admitted(bounds):
        for flag, value in bounds.items():
            if flag == "a_values":
                flag, (value,) = "a", value
            assert minimums[flag] <= value, (name, flag)
        work = 0

        def price(kernel, args):
            nonlocal work
            work += CALL_WORK[kernel](*args)
            assert work <= limit, (name, kernel, args)

        pricing = VerifyReport(name, price=price)
        for unit in suite(**bounds):
            unit(pricing)
        return True, "ok"

    def unit(report, bounds):
        report.run_case("stub", {}, "ok", partial(admitted, bounds))

    return lambda **bounds: [partial(unit, bounds=bounds)]


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
# bound on the degree, and by the full solve_work estimate
@example(["verify", "thm1", "--max-degree", str(10**30)])
@example(["verify", "thm3", "--a", "1000"])
def test_verify_keeps_the_exit_code_contract_for_any_bounds(argv):
    assert_exit_contract(argv, _stub_suites)


def _guard_limit(work):
    """The largest n whose work(n), increasing in n, is within MAX_WORK."""
    return bisect_right(range(10**5), cli.MAX_WORK, key=work) - 1


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


def _admitted_layers(r, degree, geode=False, support=None):
    """A stand-in for the packed layers of an S solve through `degree`, or
    of the solve seeded for G if `geode`, on `support` if one is given,
    that asserts the oracle guard admitted it."""
    limit = cli.MAX_WORK
    n = r if support is None else len(support)
    assert max(n * n, degree) <= limit and min(n, degree) < limit.bit_length(), (r, degree)
    assert solve_work(r, degree, geode=geode, support=support) <= limit, (r, degree)
    return _constant_layers(degree)


def _admitted_closed_form(weight):
    """A stand-in for a closed form that asserts its weight is admitted."""

    def closed_form(*args):
        assert weight(*args) <= cli.MAX_CLOSED_FORM_WEIGHT, args
        return 1

    return closed_form


def _stub_oracle_and_closed_forms(patch):
    # table reads cli's _solve_layers, seeded for G when it writes G;
    # coeff's oracle branch, through geode_support, reads hypercat's
    patch.setattr(cli, "_solve_layers", _admitted_layers)
    patch.setattr(hypercat, "_solve_layers", _admitted_layers)
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


def _admitted(argv):
    """Whether `verify *argv` is admitted: its plan is made without exit 2."""
    try:
        with redirect_stderr(io.StringIO()):
            plan(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return False
    return True


# The largest value the price admits for each grid flag, with the suite's
# other flags at their defaults.
GRID_LIMITS = {
    ("eq31", "--max-n"): 136,
    ("eq31", "--max-a"): 153,
    ("claims", "--max-n"): 49,
    ("claims", "--max-a"): 85,
    ("wz1", "--max-n"): 838,
    ("wz2", "--max-n"): 463,
    ("wz2", "--a"): 2**295 - 1,
    ("certificate", "--max-n"): 633,
}


@pytest.mark.parametrize(
    "name, option", sorted(GRID_LIMITS), ids=[" ".join(flag) for flag in sorted(GRID_LIMITS)]
)
def test_grid_flag_is_admitted_up_to_where_its_price_passes_the_limit(name, option):
    # doubling, then bisection: admission is monotone along a flag, since
    # a larger bound only adds units and every row's price grows with n and a
    low = 1
    while _admitted([name, option, str(2 * low)]):
        low *= 2
    high = 2 * low - 1
    while low < high:
        middle = (low + high + 1) // 2
        if _admitted([name, option, str(middle)]):
            low = middle
        else:
            high = middle - 1
    assert low == GRID_LIMITS[name, option]
    assert _admitted([name, option, str(low)]) and not _admitted([name, option, str(low + 1)])


FLAG_TABLE = "| suite | flags (default, minimum) |"


def _readme_flag_rows():
    """The rows of the README's verify flag table: suite name -> {flag:
    (default, minimum)}, each as the string the table prints."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index(FLAG_TABLE) + 2  # skip the header and |---|---|
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        suite = re.match(r"\| `([\w-]+)` \|", line).group(1)
        rows[suite] = {
            flag.replace("-", "_"): (default, minimum)
            for flag, default, minimum in re.findall(r"`--([\w-]+)` \(([^,]+), ([^)]+)\)", line)
        }
    return rows


def test_readme_flag_table_matches_suites():
    # README lists a flag's suite default (a_values as lo..hi) and its
    # minimum; every maximum is the price's.
    rows = _readme_flag_rows()
    assert list(rows) == list(verify.SUITES)
    for name, (suite, minimums) in verify.SUITES.items():
        defaults = {
            p.name: p.default for p in inspect.signature(suite).parameters.values()
        }
        expected = {}
        for flag, minimum in minimums.items():
            if flag == "a":
                values = defaults["a_values"]
                assert tuple(values) == tuple(range(values[0], values[-1] + 1))
                default = f"{values[0]}..{values[-1]}"
            else:
                default = str(defaults[flag])
            expected[flag] = (default, str(minimum))
        assert rows[name] == expected, name


def test_verify_all_at_default_bounds_is_admitted():
    # the residual products make oracle the heaviest suite, ahead of the
    # grids of wz1 and wz2
    works = {name: work for name, _, work in plan(["all"])}
    assert max(works.values()) == works["oracle"] == 1_495_225 < cli.MAX_WORK
    assert works["oracle"] == sum(
        solve_work(r, 10) + residual_work(r, 10) + geode.geode_work(r, 10)
        + geode.factorization_work(r, 10)
        for r in range(1, 5)
    )
    assert works["thm3"] == 9_800 == sum(geode.alternating_work(a, 8) for a in verify.DEFAULT_THM3_A)


def test_verify_all_prices_each_solve_once(monkeypatch, capsys):
    # 26 solves at the default bounds: thm1 1, thm2 4 (one support each),
    # recurrence 4, two-nonzero 4 (one support per pair), general-eval 1
    # and oracle 12, and none for the line solves of thm3 and
    # general-eval; every priced G table, support table and factorization
    # prices its solve, seeded for G or of S one degree up, by solve_work,
    # through geode.geode_work or geode.factorization_work
    priced = []

    def recording(work):
        def recorded(r, degree, **seed):
            priced.append((r, degree))
            return work(r, degree, **seed)

        return recorded

    monkeypatch.setitem(verify.WORK, "solve_S", recording(solve_work))
    monkeypatch.setattr(geode, "solve_work", recording(solve_work))
    monkeypatch.setattr(verify, "_run_units", lambda units: [[] for _ in units])
    cli.main(["verify", "all", "--report", os.devnull])
    capsys.readouterr()
    assert len(priced) == 26


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_all_calls_each_suite_once_and_each_unit_body_once(
    cpus, tmp_path, monkeypatch, capsys
):
    # the plan calls each suite once and runs each unit's body once, in
    # the command's process, whichever process then runs its cases; each
    # body run is appended to a file, so a run in a helper would count
    # too.  A request the guard refuses runs no case.
    units = sum(len(reports) for _, reports, _ in plan(["all", *SMALL_BOUNDS]))
    calls, bodies, ran = [], tmp_path / "bodies", []
    run = VerifyReport.run

    def counted(name, suite):
        def units(**bounds):
            calls.append(name)
            for index, unit in enumerate(suite(**bounds)):
                def body(report, unit=unit, index=index):
                    with open(bodies, "a") as log:
                        log.write(f"{name} {index} {os.getpid()}\n")
                    unit(report)

                yield body

        return units

    def running(report):
        ran.append(report.suite)
        return run(report)

    monkeypatch.setattr(verify, "_cpus", lambda: tuple(range(cpus)))
    fork_at_any_work(monkeypatch)
    pids = recording_forks(monkeypatch)
    monkeypatch.setattr(VerifyReport, "run", running)
    for name, (suite, minimums) in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, (counted(name, suite), minimums))
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert len(pids) == cpus - 1
    assert calls == list(verify.SUITE_NAMES)
    logged = [line.rsplit(" ", 1) for line in bodies.read_text().splitlines()]
    assert {pid for _, pid in logged} == {str(os.getpid())}
    assert len(logged) == len({unit for unit, _ in logged}) == units

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
    # verify prices, then runs in this process, the same S solves, in
    # order of declared work, not of pricing
    priced, solved = [], []

    def recording(function, calls):
        @wraps(function)  # verify prices a kernel by its name
        def recorded(r, max_degree, **seed):
            # a support of None is the full table, as if none were given
            calls.append((r, max_degree, sorted((k, v) for k, v in seed.items() if v is not None)))
            return function(r, max_degree, **seed)

        return recorded

    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    monkeypatch.setitem(verify.WORK, "solve_S", recording(solve_work, priced))
    monkeypatch.setattr(geode, "solve_work", recording(solve_work, priced))
    monkeypatch.setattr(verify, "solve_S", recording(solve_S, solved))
    # geode's tables through the one read-out of a solve, and the S solve
    # of the factorization check
    monkeypatch.setattr(geode, "_solve_series", recording(hypercat._solve_series, solved))
    monkeypatch.setattr(geode, "_solve_layers", recording(hypercat._solve_layers, solved))
    assert cli.main(["verify", *argv, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert sorted(solved) == sorted(priced)


# The kernels verify prices, by the module each is read through; the
# summand rows (_f2, _cert_summand) are watched through wz._row,
# which each of them calls, since the grid units bind them as defaults.
KERNELS = {
    "solve_S": verify,
    "functional_residual": verify,
    "geode_series": geode,
    "geode_support": geode,
    "eval_alternating": geode,
    "eval_general": geode,
    "geode_closed_shifted": geode,
    "geode_closed_two_nonzero": geode,
    "recurrence_break": geode,
    "partition_sum_main": identities,
    "size_mass": identities,
    "bracket_power": identities,
    "shifted_binomial_sum": identities,
    "ct_coefficient": identities,
}


def watch_kernels(monkeypatch, seen):
    """Patch every kernel verify prices to call seen(name) before it runs;
    each keeps its name, by which verify prices it."""

    def watched(name, function):
        @wraps(function)
        def kernel(*args):
            seen(name)
            return function(*args)

        return kernel

    for name, module in KERNELS.items():
        monkeypatch.setattr(module, name, watched(name, getattr(module, name)))
    holds = watched("factorization_holds", geode.GeodeTable.factorization_holds)
    monkeypatch.setattr(geode.GeodeTable, "factorization_holds", holds)
    monkeypatch.setattr(wz, "_row", watched("_row", wz._row))
    rows = {"_f2", "_cert_summand"}
    assert set(KERNELS) | {"factorization_holds"} | rows == set(verify.WORK)


@pytest.mark.parametrize("argv", SOLVE_CASES, ids=" ".join)
def test_every_priced_call_is_made_in_a_handles_build_inside_a_case(argv, monkeypatch, capsys):
    # a kernel call nested in another handle's build counts as inside it
    depth = {"build": 0, "case": 0}
    made, outside = [], []

    def counting(key, function):
        def counted(*args):
            depth[key] += 1
            try:
                return function(*args)
            finally:
                depth[key] -= 1

        return counted

    def seen(name):
        made.append(name)
        if not (depth["build"] and depth["case"]):
            outside.append((name, dict(depth)))

    watch_kernels(monkeypatch, seen)
    monkeypatch.setattr(Handle, "__call__", counting("build", Handle.__call__))
    monkeypatch.setattr(VerifyReport, "run", counting("case", VerifyReport.run))
    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    assert cli.main(["verify", *argv, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert made and outside == []


@pytest.mark.parametrize("argv", SOLVE_CASES, ids=" ".join)
def test_planning_calls_no_kernel_and_runs_no_case(argv, monkeypatch):
    made = []
    watch_kernels(monkeypatch, made.append)
    steps = plan(argv)
    assert sum(work for _, _, work in steps) > 0
    assert made == []
    cases = [case for _, reports, _ in steps for report in reports for case in report.cases]
    assert cases and all(case.status is None and callable(case.actual) for case in cases)
    # no handle a case holds as one of its sides has been read
    sides = [side for case in cases for side in (case.expected, case.actual)]
    assert all(side.outcome is None for side in sides if isinstance(side, Handle))


@pytest.mark.parametrize("argv", SOLVE_CASES, ids=" ".join)
def test_no_report_call_is_made_while_cases_run(argv, monkeypatch, capsys):
    # every handle is made, and so priced, while the request is planned:
    # a call made while cases run would be priced after the plan's sums
    calls, running = [], []
    call, run = VerifyReport.call, VerifyReport.run

    def recorded_call(report, kernel, *args):
        calls.append(bool(running))
        return call(report, kernel, *args)

    def recorded_run(report):
        running.append(report)
        try:
            return run(report)
        finally:
            running.pop()

    monkeypatch.setattr(VerifyReport, "call", recorded_call)
    monkeypatch.setattr(VerifyReport, "run", recorded_run)
    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    assert cli.main(["verify", *argv, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert calls and not any(calls)


@pytest.mark.parametrize("argv, work", [
    (["all"], 4_716_940),
    (["eq31", "--max-n", "8", "--max-a", "4"], 35_339),
    (["claims", "--max-n", "8", "--max-a", "3"], 97_788),
    (["wz1", "--max-n", "250"], 1_828_985),
    (["wz2", "--max-n", "120"], 1_608_404),
    (["certificate", "--max-n", "120"], 810_457),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_each_request_declares_its_pinned_work(argv, work):
    # verify all at its defaults and the requests of the identities workload
    assert sum(step_work for _, _, step_work in plan(argv)) == work


@pytest.mark.parametrize("argv, forks", [
    (["eq31", "--max-n", "8", "--max-a", "4"], False),
    (["claims", "--max-n", "8", "--max-a", "3"], False),
    (["wz1", "--max-n", "250"], True),
    (["wz2", "--max-n", "120"], True),
    (["certificate", "--max-n", "120"], True),
    (["all"], True),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_a_request_forks_only_for_work_above_the_fork_work(argv, forks, monkeypatch, capsys):
    assert (sum(work for _, _, work in plan(argv)) > verify._FORK_WORK) == forks
    monkeypatch.setattr(verify, "_cpus", lambda: (0, 1))
    pids = recording_forks(monkeypatch)
    assert cli.main(["verify", *argv, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert len(pids) == forks
    assert_reaped(pids)


def test_thm1_is_the_thm2_unit_at_a_2():
    # theorem 1 runs theorem 2's unit at a = 2: the same closed forms
    # against the same support solve on (1, 2), under thm1's own ids and
    # params
    thm1 = run_units("thm1", verify.suite_thm1(8)).cases
    thm2 = run_units("thm2", verify.suite_thm2(8, a_values=(2,))).cases
    points = [(p, q) for p in range(9) for q in range(9 - p)]
    assert [(c.id, c.params) for c in thm1] == [
        (f"m1={p:02d},m2={q:02d}", {"m1": p, "m2": q}) for p, q in points
    ]
    assert [c.params for c in thm2] == [{"a": 2, "m_a": p, "m_a1": q} for p, q in points]
    assert [(c.expected, c.actual, c.status) for c in thm1] == [
        (c.expected, c.actual, c.status) for c in thm2
    ]
    assert {c.status for c in thm1} == {"pass"}


def test_a_raising_closed_form_costs_its_case_not_the_request(tmp_path, monkeypatch, capsys):
    closed = geode.geode_closed_shifted

    @wraps(closed)
    def raising(a, m1, m2):
        if (a, m1, m2) == (2, 3, 4):
            raise RuntimeError("no closed form at (3, 4)")
        return closed(a, m1, m2)

    monkeypatch.setattr(geode, "geode_closed_shifted", raising)
    path = tmp_path / "thm1.json"
    assert cli.main(["verify", "thm1", "--report", str(path)]) == 1
    capsys.readouterr()
    cases = json.loads(path.read_text())["cases"]
    assert len(cases) == 91
    assert [
        (case["id"], case["status"], case["expected"], case["actual"])
        for case in cases
        if case["status"] != "pass"
    ] == [("m1=03,m2=04", "error", "", "RuntimeError: no closed form at (3, 4)")]


def test_every_table_is_built_inside_a_case(monkeypatch, capsys):
    # each S solve, at the patch points above, happens while a case runs,
    # so its time is in that case's elapsed_ms
    running, solved = [], []
    run = VerifyReport.run

    def in_case(*args):
        running.append(True)
        try:
            return run(*args)
        finally:
            running.pop()

    def recording(function):
        @wraps(function)  # verify prices a kernel by its name
        def recorded(r, max_degree, **seed):
            solved.append((r, max_degree, bool(running)))
            return function(r, max_degree, **seed)

        return recorded

    monkeypatch.setattr(verify, "_cpus", lambda: (0,))
    monkeypatch.setattr(VerifyReport, "run", in_case)
    monkeypatch.setattr(verify, "solve_S", recording(solve_S))
    monkeypatch.setattr(geode, "_solve_series", recording(hypercat._solve_series))
    monkeypatch.setattr(geode, "_solve_layers", recording(hypercat._solve_layers))
    assert cli.main(["verify", "all", *SMALL_BOUNDS, "--report", os.devnull]) == 0
    capsys.readouterr()
    assert solved
    assert [solve for solve in solved if not solve[2]] == []


def overflowing_accumulate(values):
    """The prefix sums of the list loop of ``hypercat._solve_layers`` and
    of ``geode.eval_line`` in fixed-width arithmetic that raises
    OverflowError past 2^12: with ``overflowing_lane_sums`` for the lane
    loop, a broken kernel that every oracle table through degree 2 or
    more, S or G, goes through, and the line solves of thm3 at a = 3 and
    of general-eval at c = (3) and (2, 3)."""
    total = 0
    for value in values:
        total += value
        if total >= 1 << 12:
            raise OverflowError(f"prefix sum {total} does not fit in 12 bits")
        yield total


def overflowing_lane_sums(sums, width, count):
    """``hypercat._lane_sums`` under the same 12-bit limit, which the lane
    loop of ``hypercat._solve_layers`` breaks at the monomial where the
    list loop's ``overflowing_accumulate`` would: each lane's prefix sums
    increase, so the last lane holds the largest."""
    prefixed = _lane_sums(sums, width, count)
    for _, w in prefixed:
        if w >> (count - 1) * width >= 1 << 12:
            raise OverflowError(f"prefix sum {w >> (count - 1) * width} does not fit in 12 bits")
    return prefixed


def test_a_broken_kernel_costs_cases_not_the_report(tmp_path, monkeypatch, capsys):
    clean = tmp_path / "clean.json"
    assert cli.main(["verify", "all", "--report", str(clean)]) == 0
    ids = [case["id"] for case in json.loads(clean.read_text())["cases"]]
    assert len(ids) == 1535
    monkeypatch.setattr(hypercat, "accumulate", overflowing_accumulate)
    monkeypatch.setattr(hypercat, "_lane_sums", overflowing_lane_sums)
    monkeypatch.setattr(geode, "accumulate", overflowing_accumulate)
    # the builds of every handle, by kernel, counted in this process, where
    # one CPU runs every unit
    builds = []
    call = VerifyReport.call

    def counted(report, kernel, *args):
        runs = []
        builds.append((report.suite, kernel.__name__, runs))

        @wraps(kernel)
        def build(*values):
            runs.append(1)
            return kernel(*values)

        return call(report, build, *args)

    monkeypatch.setattr(VerifyReport, "call", counted)
    oracle_free = {"eq31", "claims", "wz1", "wz2", "certificate"}
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_cpus", lambda cpus=cpus: tuple(range(cpus)))
        path = tmp_path / f"broken-{cpus}.json"
        assert cli.main(["verify", "all", "--report", str(path)]) == 1
        capsys.readouterr()
        if cpus == 1:
            # a build that raises runs once, not once per case that reads
            # it.  Every
            # table, support table, evaluation, mass and bracket power is
            # built, since its unit's first case reads it; general-eval's
            # G table in 4 variables is built too, since the line solve
            # its case reads first stays below 2^12 at a = 2
            assert builds and max(len(runs) for *_, runs in builds) == 1
            shared = {"geode_series", "geode_support", "eval_alternating", "eval_general",
                      "size_mass", "bracket_power"}
            assert {kernel for _, kernel, _ in builds} >= shared
            assert [
                (suite, kernel) for suite, kernel, runs in builds if kernel in shared and not runs
            ] == []
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
    ("thm1", geode, "geode_closed_shifted", {"max_degree": 3}),
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


def _first_sign_flipped(weights, at=None):
    """`weights` with the sign of its first weight flipped, only at the
    arguments `at` if they are given."""
    def flipped(*args):
        if at is not None and args != at:
            return weights(*args)
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
    ("thm3", geode, "general_weights", _first_sign_flipped, {"max_order": 3}),
    # the power cases fail; the alternating case reads the same weights on
    # both of its routes, so it passes
    ("general-eval", geode, "general_weights", _first_sign_flipped, {"max_order": 3}),
    # only the case a=1,c=(3) reads these weights, so no other case can
    # stand in for its comparison with 3^n
    ("general-eval", geode, "general_weights", partial(_first_sign_flipped, at=((3,),)),
     {"max_order": 3}),
    ("oracle", verify, "functional_residual", _with_constant_term,
     {"max_vars": 2, "max_degree": 3}),
], ids=["thm3", "general-eval", "general-eval-c=(3)", "oracle"])
def test_suite_fails_when_a_weight_or_the_residual_is_perturbed(
    name, module, function, perturb, bounds, monkeypatch
):
    suite = verify.SUITES[name][0]
    assert run_units(name, suite(**bounds)).all_passed()
    monkeypatch.setattr(module, function, perturb(getattr(module, function)))
    statuses = {case.status for case in run_units(name, suite(**bounds)).cases}
    assert "fail" in statuses and "error" not in statuses, statuses


def _raised_at(function, point):
    """`function` with 1 added to its value at the arguments `point`."""
    return lambda *args: function(*args) + (args == point)


# A case compares a closed form with the oracle; each row perturbs one
# route at one point, so only the case that reads that point fails.
@pytest.mark.parametrize("name, module, function, perturb, bounds, failures", [
    ("thm2", geode, "geode_closed_shifted", partial(_raised_at, point=(2, 1, 2)),
     {"max_sum": 3, "a_values": (2, 3)}, {"a=2,p=01,q=02": "110"}),
    ("two-nonzero", geode, "geode_closed_two_nonzero", partial(_raised_at, point=(1, 3, 3, 1)),
     {"max_n": 4}, {"s=1,t=3,n=3": "mismatch at i=1: 24"}),
], ids=["thm2", "two-nonzero-oracle"])
def test_a_case_fails_only_where_one_of_its_routes_is_perturbed(
    name, module, function, perturb, bounds, failures, monkeypatch
):
    suite = verify.SUITES[name][0]
    monkeypatch.setattr(module, function, perturb(getattr(module, function)))
    report = run_units(name, suite(**bounds))
    expected = {case_id: ("fail", actual) for case_id, actual in failures.items()}
    assert {c.id: (c.status, c.actual) for c in report.cases if c.status != "pass"} == expected


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
