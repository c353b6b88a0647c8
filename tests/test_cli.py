"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
from math import comb

import pytest

from geodenums import cli, geode, identities
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
    ["wz1", "--max-n", "401"],
    ["wz2", "--max-n", "251"],
    ["wz2", "--a", "1001"],
    ["certificate", "--max-n", "301"],
    ["eq31", "--max-n", "13"],
    ["eq31", "--max-a", "5"],
    ["claims", "--max-n", "40"],
    ["claims", "--max-a", "4"],
    ["all", "--max-n", "13"],
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
    # thm1 at degree 200 solves S(2, 201), 2.9e8 units; thm3 at a = 5
    # solves S(10, 9), 2.3e7 units; MAX_ORACLE_WORK is 1e7.
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
], ids=" ".join)
def test_grid_bounds_up_to_their_maxima_are_admitted(argv):
    # the raised bounds of the benchmark's identities workload, and each
    # grid suite at its largest admitted bounds
    parser = cli._build_parser()
    cli._check_bounds((argv[0],), parser.parse_args(["verify", *argv]), parser)


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

    def recording_solve(r, max_degree):
        calls.append((r, max_degree))
        return solve_S(r, max_degree)

    monkeypatch.setattr(cli, "solve_S", recording_solve)
    monkeypatch.setattr(geode, "solve_S", recording_solve)
    args = cli._build_parser().parse_args(["verify", *argv])
    kwargs = cli._suite_kwargs(argv[0], args)
    assert cli.SUITES[argv[0]][0](**kwargs).all_passed()
    assert calls == list(cli._oracle_solves(argv[0], kwargs))


@pytest.mark.parametrize("name, module, function, bounds", [
    ("thm1", geode, "geode_closed_2var", {"max_degree": 3}),
    ("thm2", geode, "geode_closed_shifted", {"max_sum": 2}),
    ("two-nonzero", geode, "geode_closed_two_nonzero", {"max_n": 3}),
    ("eq31", identities, "partition_sum_main", {"max_n": 3, "max_a": 2}),
    ("claims", identities, "claim2_ct", {"max_n": 2, "max_a": 1}),
    ("recurrence", geode, "hyper_catalan", {"max_vars": 2, "max_degree": 3}),
])
def test_suite_fails_when_one_side_is_perturbed(name, module, function, bounds, monkeypatch):
    suite, _ = cli.SUITES[name]
    assert suite(**bounds).all_passed()
    original = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args: original(*args) + 1)
    report = suite(**bounds)
    assert any(case.status == "fail" for case in report.cases)
