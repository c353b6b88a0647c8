"""Verification reports shared by the checker modules and the CLI.

A report is a named suite of cases; each case records its parameters, the
expected and observed values (as strings, since coefficients outgrow 64-bit
integers), a pass/fail/error status and its wall time.  Reports with any
non-passing case, and reports with no cases at all, map to a nonzero
process exit code.

A suite is described as an ordered list of units: each unit builds what
its cases share and runs those cases into a report.  No unit reads a value
another unit built, so units may run in any process and in any order; a
suite's report is its units' cases in list order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

PASS = "pass"
FAIL = "fail"
ERROR = "error"


@dataclass
class Case:
    id: str
    params: dict
    expected: str
    actual: str
    status: str
    elapsed_ms: float


@dataclass
class VerifyReport:
    suite: str
    cases: list[Case] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.status == PASS)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    def all_passed(self) -> bool:
        """True when at least one case ran and every case passed: a suite
        that ran no cases has shown nothing."""
        return self.total > 0 and self.failed == 0

    def first_failure(self) -> Case | None:
        for c in self.cases:
            if c.status != PASS:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [
                {
                    "id": c.id,
                    "params": c.params,
                    "expected": c.expected,
                    "actual": c.actual,
                    "status": c.status,
                    "elapsed_ms": c.elapsed_ms,
                }
                for c in self.cases
            ],
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.failed,
            },
        }


def run_case(
    report: VerifyReport,
    case_id: str,
    params: Mapping,
    expected: str,
    check: Callable[[], tuple[bool, str]],
) -> None:
    """Run one check, catching exceptions as status "error"."""
    start = time.perf_counter()
    try:
        ok, actual = check()
        status = PASS if ok else FAIL
    except Exception as exc:  # report and continue; suites never abort
        actual = f"{type(exc).__name__}: {exc}"
        status = ERROR
    elapsed = (time.perf_counter() - start) * 1000.0
    report.cases.append(Case(case_id, dict(params), expected, actual, status, elapsed))


# One unit of a suite: it runs its cases into the report it is given.
Unit = Callable[[VerifyReport], None]


def run_units(suite: str, units: Iterable[Unit]) -> VerifyReport:
    """The report of suite `suite`: every unit, in order, run in this process."""
    report = VerifyReport(suite)
    for unit in units:
        unit(report)
    return report
