"""Acceptance suite: every verification target at its full stated bounds.

Each test runs the same suite definitions as `geodenums verify`, at their
default bounds (the acceptance bounds), asserts that every case passed and
pins the case count.  Each prints one line naming the check, its scale, the
wall time and PASS/FAIL (run pytest with -s to see the lines as they
happen).  All comparisons are exact integer or rational equality; the time
limits are the stated per-check budgets.
"""

from __future__ import annotations

import json
import time

from geodenums import cli, verify
from geodenums.geode import geode_series
from geodenums.report import run_units
from geodenums.wz import ORIENT_F_DIFFERENCE

# Cases per suite at the default bounds.
CASES = {
    "thm1": 91,
    "thm2": 180,
    "thm3": 27,
    "eq31": 21,
    "claims": 441,
    "wz1": 201,
    "wz2": 401,
    "certificate": 102,
    "recurrence": 32,
    "two-nonzero": 28,
    "general-eval": 3,
    "oracle": 8,
}


def _passing(name: str):
    report = run_units(name, verify.SUITES[name][0]())
    assert report.all_passed(), report.first_failure()
    assert report.total == CASES[name], (name, report.total)
    return report


def _report(label: str, start: float, budget_s: float, cases: int) -> None:
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {label}: PASS ({cases} cases, {elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{label} took {elapsed:.2f}s, budget {budget_s}s"


def test_01_two_variable_closed_form_vs_oracle():
    start = time.perf_counter()
    cases = _passing("thm1").total
    table = geode_series(2, 12)
    layer2 = {m: c for m, c in table.series.terms.items() if sum(m) == 2}
    layer3 = {m: c for m, c in table.series.terms.items() if sum(m) == 3}
    assert layer2 == {(2, 0): 5, (1, 1): 16, (0, 2): 12}
    assert layer3 == {(3, 0): 14, (2, 1): 70, (1, 2): 110, (0, 3): 55}
    _report("two-variable closed form vs oracle, degree <= 12", start, 5, cases)


def test_02_shifted_closed_form_vs_oracle():
    start = time.perf_counter()
    cases = _passing("thm2").total
    _report("shifted two-slot closed form vs oracle, a in 2..5, sum <= 8", start, 60, cases)


def test_03_alternating_evaluation_gives_powers():
    start = time.perf_counter()
    cases = _passing("thm3").total
    _report("alternating evaluation equals a^n, a in 1..3, order 8", start, 120, cases)


def test_04_main_partition_sum():
    start = time.perf_counter()
    cases = _passing("eq31").total
    _report("main partition sum equals a^(n-1), n <= 7, a <= 3", start, 10, cases)


def test_05_claim_sums_and_constant_term_route():
    start = time.perf_counter()
    cases = _passing("claims").total
    _report("claim sums, specializations and constant-term route", start, 30, cases)


def test_06_telescoping_suites_with_negative_controls():
    start = time.perf_counter()
    reports = [_passing(name) for name in ("wz1", "wz2", "certificate")]
    ids = [{c.id for c in report.cases} for report in reports]
    assert "negative-control-H" in ids[0] and "negative-control-H" in ids[1]
    assert "negative-control-R" in ids[2]
    orientation = [c for c in reports[2].cases if c.id == "orientation"]
    assert orientation and orientation[0].actual == ORIENT_F_DIFFERENCE
    cases = sum(report.total for report in reports)
    _report("telescoping pairs, certificate and negative controls", start, 30, cases)


def test_07_recurrence_layers():
    start = time.perf_counter()
    cases = _passing("recurrence").total
    _report("coefficient recurrence sum_k G[m-e_k] = C[m], r <= 4, deg <= 8", start, 30, cases)


def test_08_two_nonzero_closed_form_vs_oracle():
    start = time.perf_counter()
    cases = _passing("two-nonzero").total
    _report("two-nonzero-slot closed form vs oracle, n <= 7", start, 60, cases)


def test_09_general_evaluation():
    start = time.perf_counter()
    cases = _passing("general-eval").total
    _report("general weighted evaluation gives (2a c_a - sum c)^n", start, 60, cases)


def test_10_oracle_self_consistency():
    start = time.perf_counter()
    cases = _passing("oracle").total
    _report("oracle residual and exact factorization, r <= 4, order 10", start, 30, cases)


def test_11_verify_all_runs_every_pinned_case(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "all.json"
    assert cli.main(["verify", "all", "--report", str(path)]) == 0
    summary = json.loads(path.read_text())["summary"]
    assert summary["total"] == summary["passed"] == sum(CASES.values()) == 1535
    _report("verify all at the default bounds", start, 60, summary["total"])
