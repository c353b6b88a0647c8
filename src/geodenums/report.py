"""Verification reports shared by the checker modules and the CLI.

A report is a named suite of cases; each case records its parameters, the
expected and observed values (as strings, since coefficients outgrow 64-bit
integers), a pass/fail/error status and its wall time.  Reports with any
non-passing case, and reports with no cases at all, map to a nonzero
process exit code.

A suite is described as an ordered list of units: each unit runs its
cases into a report, and the first case that reads what they share builds
it, so its time is in that case.  No unit reads a value another unit
built, so units may run in any process and in any order.  The report of
``run_units`` is its units' cases in list order; ``geodenums verify``
sorts every report it writes by case id, so it is the same whichever
process ran which unit.  A unit declares its work (``with_work``,
``with_calls``): every call it makes of a priced kernel, in order, which
``geodenums verify`` prices before any unit runs.

``Case`` and ``VerifyReport`` are plain classes with ``__slots__``, not
dataclasses, so a ``verify`` process does not import ``dataclasses`` and,
with it, ``inspect``; both pickle, which is how ``verify``'s helper
processes send their cases back.
"""

from __future__ import annotations

import json
import time
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Callable, Iterable, Mapping

PASS = "pass"
FAIL = "fail"
ERROR = "error"


class Case:
    __slots__ = ("id", "params", "expected", "actual", "status", "elapsed_ms")

    def __init__(
        self, id: str, params: dict, expected: str, actual: str, status: str, elapsed_ms: float
    ) -> None:
        self.id = id
        self.params = params
        self.expected = expected
        self.actual = actual
        self.status = status
        self.elapsed_ms = elapsed_ms


class VerifyReport:
    __slots__ = ("suite", "cases")

    def __init__(self, suite: str, cases: list[Case] | None = None) -> None:
        self.suite = suite
        self.cases = [] if cases is None else cases

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
        """The report as ``to_json`` writes it, before encoding."""
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

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2) + "\\n"``, byte for byte,
        written from the cases with one template per case instead of through
        json's pure-Python indenting encoder; the tests compare the two."""
        text = encode_basestring_ascii  # a case's id, expected, actual and status are str
        cases = ",\n".join([
            _CASE % (
                text(c.id),
                _json(c.params, "      "),
                text(c.expected),
                text(c.actual),
                text(c.status),
                _json(c.elapsed_ms, "      "),
            )
            for c in self.cases
        ])
        return _REPORT % (
            text(self.suite),
            "[\n" + cases + "\n  ]" if cases else "[]",
            self.total,
            self.passed,
            self.failed,
        )


_REPORT = (
    '{\n  "suite": %s,\n  "cases": %s,\n  "summary": {\n    "total": %d,\n'
    '    "passed": %d,\n    "failed": %d\n  }\n}\n'
)
_CASE = (
    '    {\n      "id": %s,\n      "params": %s,\n      "expected": %s,\n      "actual": %s,\n'
    '      "status": %s,\n      "elapsed_ms": %s\n    }'
)


def _json(value: object, indent: str) -> str:
    """`value` as ``json.dumps(..., indent=2)`` writes it on a line indented
    by `indent`: strings, ints, finite floats and dicts of string keys
    directly, anything else through json."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


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

# A priced kernel call as a unit declares it: the kernel's name and the
# arguments of the call.  A list or table argument is declared as the call
# that built it, so ``("shifted_binomial_sum", (("size_mass", (n, a)), n,
# x))`` is ``shifted_binomial_sum(size_mass(n, a), n, x)``.
Work = tuple[str, tuple]


def with_work(unit: Unit, *work: Work) -> Unit:
    """`unit`, declaring `work`, the priced kernel calls it makes, in
    order (``with_calls``)."""
    return with_calls(unit, lambda: work)


def with_calls(unit: Unit, calls: Callable[[], Iterable[Work]]) -> Unit:
    """`unit`, declaring the priced kernel calls it makes, in order, as
    ``calls()`` yields them, anew each time: its ``work`` attribute.  A
    unit whose calls grow with a bound yields them lazily, so pricing a
    huge bound reads only the calls up to the refusal."""
    unit.work = calls
    return unit


def run_units(suite: str, units: Iterable[Unit]) -> VerifyReport:
    """The report of suite `suite`: every unit, in order, run in this process."""
    report = VerifyReport(suite)
    for unit in units:
        unit(report)
    return report
