"""Verification reports, which ``verify`` alone builds and runs; no
kernel module imports this one.

A report is a named suite of cases; each case records its parameters, the
expected and observed values (as strings, since coefficients outgrow 64-bit
integers), a pass/fail/error status and its wall time.  Reports with any
non-passing case, and reports with no cases at all, map to a nonzero
process exit code.

A suite is described as an ordered list of units: each unit records its
cases in a report, and no unit reads a value another unit built, so
units may run in any process and in any order.  The report of
``run_units`` is its units' cases in list order; ``geodenums verify``
sorts every report it writes by case id, so it is the same whichever
process ran which unit.

A unit reads every priced kernel through its report: ``report.call(kernel,
*args)`` is a ``Handle``, the shared value of that call, built by the
first case that reads it, so its time is in that case, and kept with the
exception of a build that raises.  A unit records its cases in its report
(``VerifyReport.run_case``) and runs none: ``VerifyReport.run`` runs the
recorded cases, in order, and leaves each holding only text, so the
unit's handles, and the tables they built, are released once its cases
have run.  ``geodenums verify`` runs each unit's body once, against a
report that passes each call to the request's price as the unit asks for
it (``VerifyReport.price``), so the calls a unit makes and the calls it
is priced for are the same calls.  Apart from making handles and
recording cases, a unit does nothing whose cost grows with a bound, so
pricing a huge bound stops at the first call past the limit.  A report
holds no other report: a negative control makes the report it reads
itself and runs it inside its case (``verify._control``).

``Case`` and ``VerifyReport`` are plain classes with ``__slots__``, not
dataclasses, so a ``verify`` process does not import ``dataclasses`` and,
with it, ``inspect``; a case that has run holds only text and numbers and
pickles, which is how ``verify``'s helper processes send their cases back.
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
    """One case of a report, made unrun (``VerifyReport.run_case``): its
    `check`, no status, and its `expected` value a string or the handle
    whose value it prints.  ``VerifyReport.run`` runs it and leaves the
    texts, the status and the time, and no check."""

    __slots__ = ("id", "params", "expected", "actual", "status", "elapsed_ms", "check")

    def __init__(self, id: str, params: dict, expected: str | Handle, check: Callable) -> None:
        self.id = id
        self.params = params
        self.expected = expected
        self.actual = ""
        self.status: str | None = None
        self.elapsed_ms = 0.0
        self.check: Callable | None = check


class VerifyReport:
    """The cases of suite `suite`.  A report made with a `price` passes it
    the kernel's name and the arguments of each call a unit asks it for,
    as the unit asks (``call``)."""

    __slots__ = ("suite", "cases", "price")

    def __init__(self, suite: str, price: Callable[[str, tuple], object] | None = None) -> None:
        self.suite = suite
        self.cases: list[Case] = []
        self.price = price

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

    def call(self, kernel: Callable, *args) -> Handle:
        """The shared value of ``kernel(*args)``, built by the first read;
        the call is priced first if this report prices.  A call that takes
        a handle as an argument is priced with that handle in it, which
        names the call that builds it (``repr``)."""
        if self.price is not None:
            self.price(kernel.__name__, args)
        return Handle(kernel, args)

    def run_case(
        self,
        case_id: str,
        params: Mapping,
        expected: str | Handle,
        check: Callable[[], tuple[bool, str]],
    ) -> None:
        """Record the case `case_id`, which ``run`` runs."""
        self.cases.append(Case(case_id, dict(params), expected, check))

    def run(self) -> VerifyReport:
        """This report, once every recorded case has run, in order, each
        inside its own timer, an exception caught as status "error".  An
        `expected` handle is read inside the case, and its value printed;
        if it raises, the case is an error with an empty expected value.
        Each case then holds only its texts, so the handles and checks it
        held are released once it has run."""
        for case in self.cases:
            expected, check = case.expected, case.check
            case.expected = "" if isinstance(expected, Handle) else expected
            start = time.perf_counter()
            try:
                if isinstance(expected, Handle):
                    case.expected = str(expected())
                ok, case.actual = check()
                case.status = PASS if ok else FAIL
            except Exception as exc:  # report and continue; suites never abort
                case.actual, case.status = f"{type(exc).__name__}: {exc}", ERROR
            case.elapsed_ms = (time.perf_counter() - start) * 1000.0
            case.check = None
        return self

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


class Handle:
    """The value of ``kernel(*args)``, built by the first read (a call of
    the handle): every read returns the value that build returned or raises
    again the exception it raised.  An argument that is itself a handle is
    read first, and the kernel receives its value.  Its repr is the call,
    ``functional_residual(solve_S(4, 22))``."""

    __slots__ = ("kernel", "args", "outcome")

    def __init__(self, kernel: Callable, args: tuple) -> None:
        self.kernel = kernel
        self.args = args
        self.outcome: tuple | None = None

    def __call__(self):
        if self.outcome is None:
            try:
                args = [a() if isinstance(a, Handle) else a for a in self.args]
                self.outcome = (self.kernel(*args), None)
            except Exception as exc:
                self.outcome = (None, exc)
        value, exc = self.outcome
        if exc is not None:
            raise exc
        return value

    def __repr__(self) -> str:
        return f"{self.kernel.__name__}({', '.join(map(str, self.args))})"


# One unit of a suite: it records its cases in the report it is given.
Unit = Callable[[VerifyReport], None]


def run_units(suite: str, units: Iterable[Unit]) -> VerifyReport:
    """The report of suite `suite`: every unit, in order, recorded and run
    in this process."""
    report = VerifyReport(suite)
    for unit in units:
        unit(report)
    return report.run()
