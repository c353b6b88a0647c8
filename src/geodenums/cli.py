"""Command-line surface: coefficient tables, single coefficients, and the
verification suites with machine-readable JSON reports.

The suites are the ``suite_<name>`` functions, each described once by its
ordered units (``report.Unit``) and run through ``_suite``; their keyword
defaults are the acceptance bounds, and ``tests/test_acceptance.py`` calls
them as they are.  ``SUITES`` maps each name to its function and to the
flags it takes with their ranges: ``verify`` checks every set flag against
the ranges of the suites it will run, then passes each suite only its own
flags.  ``SOLVES`` lists the S solves each oracle suite makes at given
bounds, so ``verify`` can price them all before any suite starts.
``verify <suite>`` and ``verify all`` put the units of their suites into
one queue that the command's process and forked helpers drain on every
usable CPU (``_run_units``), and assemble one report whatever the CPU
count; ``table`` and ``coeff`` never fork.  ``table`` writes straight from
the solver's packed layers, one write per layer (``_write_table``).
Output paths are opened after the guards and before any work, and every
write, to stdout or to a file, goes through ``_write_output``.

Exit codes: 0 all checks passed, 1 any verification failure, a suite that
ran no cases (named on stderr) or a unit or helper that crashed, 2 usage or
I/O error, including a bound outside its range, a ``table``, ``coeff`` or
``verify`` request one of whose S solves would exceed ``MAX_ORACLE_WORK``,
a ``coeff`` closed form whose weight exceeds ``MAX_CLOSED_FORM_WEIGHT`` and
an output, stdout included, that cannot be written: one ``error:`` line
on stderr, no traceback.
Reports are byte-identical across identical invocations except for the
elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from functools import cache, partial, wraps
from itertools import chain, groupby
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import geode, identities, wz
from .hypercat import _solve_layers, functional_residual, hyper_catalan, solve_S, solve_work
from .mpoly import _unpack_layer, coeff, iter_exponents
from .report import Case, Unit, VerifyReport, run_case, run_units

DEFAULT_WZ2_A = (2, 3, 4, 5)
DEFAULT_THM3_A = (1, 2, 3)

# Most work any one S solve behind `table`, `coeff` or `verify` may take, in
# units of hypercat.solve_work, each 0.04-0.12 us on a 2-core VM with Python
# 3.11.  The largest admitted request for each r = 1..7 takes 0.5-0.9 s (r = 1
# is degree 1387, r = 7 degree 11); r = 3, degree 45 is 4.5e7 (3.7-3.8 s).
MAX_ORACLE_WORK = 10_000_000

# Largest weight w = sum_k (k + 1) m_k, a bound on every factorial and
# binomial argument, that `coeff` evaluates by closed form.  At w = 4000 the
# slowest, G with two nonzero slots, takes 0.6 s on the same VM.  Admitted
# values are below 3^(w + 2), so they print under Python's 4300-digit limit.
MAX_CLOSED_FORM_WEIGHT = 4000


# ---------------------------------------------------------------------------
# table / coeff


def _check_oracle_size(
    r: int, degree: int, parser: argparse.ArgumentParser, context: str = ""
) -> None:
    """Refuse, before any solving, an S table in r variables through `degree`
    whose ``solve_work`` exceeds MAX_ORACLE_WORK.  That estimate is at least
    max(r^2, degree) and at least 2^min(r, degree), so these are checked
    first and no binomial runs on huge arguments."""
    limit = MAX_ORACLE_WORK
    if (
        max(r * r, degree) > limit
        or min(r, degree) >= limit.bit_length()
        or solve_work(r, degree) > limit
    ):
        parser.error(
            f"{context}an S table in {r} variables through degree {degree} is too much work: "
            f"more than {limit} units (MAX_ORACLE_WORK)"
        )


def _write_table(kind: str, fmt: str, r: int, trunc: int, out: IO[str]) -> None:
    """Solve the `kind` table in `r` variables through degree `trunc` and
    write it to `out` in `fmt` straight from its packed layers: S from
    ``hypercat._solve_layers``, G from ``geode._geode_layers``.  Each
    layer is decoded and sorted once by ``mpoly._unpack_layer`` and
    written with one write, so the terms come out by degree, then
    lexicographically, and only one layer's text is held at a time.  The
    JSON is laid out as ``json.dumps(series_to_dict(series), indent=2)``
    lays it out, byte for byte; the tests compare the two."""
    shift, layers = (_solve_layers if kind == "S" else geode._geode_layers)(r, trunc)
    if fmt == "json":
        term = (
            '    {\n      "exps": [\n        '
            + ",\n        ".join(["%d"] * r)
            + '\n      ],\n      "coeff": "%d"\n    }'
        )
        out.write('{\n  "nvars": %d,\n  "trunc": %d,\n  "terms": [' % (r, trunc))
        separator = "\n"  # before the first term; ",\n" between terms
        for d, layer in enumerate(layers):
            rows = _unpack_layer(layer, r, shift, d)
            if rows:
                out.write(separator + ",\n".join([term % (*m, c) for m, c in rows]))
                separator = ",\n"
        out.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")
        return
    line = ",".join(["%d"] * r) + ",%d\n"
    out.write(",".join(f"m_{i + 1}" for i in range(r)) + ",coeff\n")
    for d, layer in enumerate(layers):
        out.write("".join([line % (*m, c) for m, c in _unpack_layer(layer, r, shift, d)]))


def geode_coefficient(exps: Sequence[int]) -> int:
    """Geode coefficient by closed form when at most two slots are nonzero,
    by the series oracle otherwise."""
    exps = tuple(exps)
    nonzero = [(i + 1, e) for i, e in enumerate(exps) if e]
    if not nonzero:
        return 1
    if len(nonzero) == 1:
        s, p = nonzero[0]
        return geode.geode_closed_two_nonzero(s, s + 1, p + 1, 0)
    if len(nonzero) == 2:
        (s, m_s), (t, m_t) = nonzero
        return geode.geode_closed_two_nonzero(s, t, m_s + m_t + 1, m_t)
    return coeff(geode.geode_series(len(exps), sum(exps)).series, exps)


# ---------------------------------------------------------------------------
# verify suites


def _is(expected, value) -> tuple[bool, str]:
    return value == expected, str(value)


def _suite(name: str) -> Callable[[Callable[..., list[Unit]]], Callable[..., VerifyReport]]:
    """Decorator: suite `name` from its units function, which returns the
    suite's ordered units for its bounds.  The suite function runs every
    unit, in order, into one report; its ``units`` attribute is the units
    function, from which ``_run_suites`` spreads units over processes."""

    def describe(units: Callable[..., list[Unit]]) -> Callable[..., VerifyReport]:
        @wraps(units)
        def suite(*args, **kwargs) -> VerifyReport:
            return run_units(name, units(*args, **kwargs))

        suite.units = units
        return suite

    return describe


def _negative_control(
    report: VerifyReport, case_id: str, what: str, corrupted: Callable[[], VerifyReport]
) -> None:
    """A case that passes when a check fed a sign-flipped `what` fails."""
    run_case(
        report,
        case_id,
        {},
        f"sign-flipped {what} must fail",
        lambda: (corrupted().failed > 0, f"corrupted {what} detected"),
    )


def _flipped(row: Callable[..., list[wz.Ratio]]) -> Callable[..., list[wz.Ratio]]:
    """A row description of (numerator, denominator) pairs with its sign flipped."""

    def flipped(*args: int) -> list[wz.Ratio]:
        return [(-num, den) for num, den in row(*args)]

    return flipped


def _prefixed(prefix: str, unit: Unit) -> Unit:
    """`unit` with `prefix` put before the id of every case it runs."""

    def prefixed(report: VerifyReport) -> None:
        start = len(report.cases)
        unit(report)
        for case in report.cases[start:]:
            case.id = prefix + case.id

    return prefixed


def _case_units(cases: Iterable[tuple]) -> list[Unit]:
    """One unit per (case_id, params, expected, check), running that case."""
    return [lambda report, case=case: run_case(report, *case) for case in cases]


@_suite("thm1")
def suite_thm1(max_degree: int = 12) -> list[Unit]:
    def unit(report: VerifyReport) -> None:
        table = geode.geode_series(2, max_degree)
        for m1 in range(max_degree + 1):
            for m2 in range(max_degree + 1 - m1):
                closed = geode.geode_closed_2var(m1, m2)
                run_case(
                    report,
                    f"m1={m1:02d},m2={m2:02d}",
                    {"m1": m1, "m2": m2},
                    str(closed),
                    lambda m=(m1, m2), closed=closed: _is(closed, table.coefficient(m)),
                )

    return [unit]


@_suite("thm2")
def suite_thm2(max_sum: int = 8, a_values: Sequence[int] = (2, 3, 4, 5)) -> list[Unit]:
    def unit(report: VerifyReport, a: int) -> None:
        table = geode.geode_series(a, max_sum)
        for p in range(max_sum + 1):
            for q in range(max_sum + 1 - p):
                exps = [0] * a
                exps[a - 2] = p
                exps[a - 1] = q
                closed = geode.geode_closed_shifted(a, p, q)

                def check(p=p, q=q, closed=closed, exps=tuple(exps)):
                    oracle = table.coefficient(exps)
                    if closed != oracle:
                        return False, str(oracle)
                    if a == 2 and closed != geode.geode_closed_2var(p, q):
                        return False, f"{closed} != two-variable closed form"
                    return True, str(oracle)

                run_case(
                    report,
                    f"a={a},p={p:02d},q={q:02d}",
                    {"a": a, "m_a": p, "m_a1": q},
                    str(closed),
                    check,
                )

    return [partial(unit, a=a) for a in a_values]


@_suite("thm3")
def suite_thm3(max_order: int = 8, a_values: Sequence[int] = DEFAULT_THM3_A) -> list[Unit]:
    def unit(report: VerifyReport, a: int) -> None:
        values = geode.eval_alternating(a, max_order)
        for n in range(max_order + 1):
            run_case(
                report,
                f"a={a},n={n:02d}",
                {"a": a, "n": n},
                str(a**n),
                lambda n=n: _is(a**n, values.coefficient(n)),
            )

    return [partial(unit, a=a) for a in a_values]


@_suite("eq31")
def suite_eq31(max_n: int = 7, max_a: int = 3) -> list[Unit]:
    return _case_units(
        (
            f"n={n},a={a}",
            {"n": n, "a": a},
            str(a ** (n - 1)),
            lambda n=n, a=a: _is(a ** (n - 1), identities.partition_sum_main(n, a)),
        )
        for n in range(1, max_n + 1)
        for a in range(1, max_a + 1)
    )


@_suite("claims")
def suite_claims(max_n: int = 7, max_a: int = 3) -> list[Unit]:
    def unit(report: VerifyReport, n: int, a: int) -> None:
        power = a ** (n - 1)
        # What the cases of this (n, a) share and no other case reads: the
        # signed size mass of the length-n and length-(n-1) tallies and the
        # bracket power of the ct route.  Each is built by the first case
        # that reads it, so its time is in that case's elapsed_ms.
        mass1 = cache(lambda: identities.size_mass(identities.partition_tally(n, a)))
        mass2 = cache(lambda: identities.size_mass(identities.partition_tally(n - 1, a)))
        bracket = cache(lambda: identities.bracket_power(n, a))
        for x in range(-2, n + 1):
            params = {"n": n, "a": a, "x": x}
            run_case(
                report,
                f"claim1,n={n},a={a},x={x:+d}",
                params,
                "0",
                lambda x=x: _is(0, identities.shifted_binomial_sum(mass1(), n, x)),
            )
            run_case(
                report,
                f"claim2,n={n},a={a},x={x:+d}",
                params,
                str(power),
                lambda x=x: _is(power, identities.shifted_binomial_sum(mass2(), n, x)),
            )
        for x in range(0, n + 1):
            run_case(
                report,
                f"ct,n={n},a={a},x={x:+d}",
                {"n": n, "a": a, "x": x},
                str(power),
                lambda x=x: _is(power, identities.ct_coefficient(bracket(), n, x)),
            )

        # The two specialized binomial forms: lower-index C(|l|+n, |l|+1)
        # is claim1 at x = 0, which a claim1 case checks; C(|l|+2a+n,
        # |l|+2a+1) is claim2 at x = 2a, which the claim2 cases certify
        # (n + 3 points of a polynomial in x of degree <= n - 1).
        def eq32():
            value = sum(
                m * identities.binom_general(size + n, size + 1)
                for size, m in enumerate(mass1())
            )
            return _is(0, value)

        def eq33():
            value = sum(
                m * identities.binom_general(size + 2 * a + n, size + 2 * a + 1)
                for size, m in enumerate(mass2())
            )
            return _is(power, value)

        run_case(report, f"eq32,n={n},a={a}", {"n": n, "a": a}, "0", eq32)
        run_case(report, f"eq33,n={n},a={a}", {"n": n, "a": a}, str(power), eq33)

    return [partial(unit, n=n, a=a) for n in range(1, max_n + 1) for a in range(1, max_a + 1)]


@_suite("wz1")
def suite_wz1(max_n: int = 200) -> list[Unit]:
    return wz.wz1_units(max_n) + [
        lambda report: _negative_control(
            report, "negative-control-H", "companion", lambda: wz.check_wz1(2, r=_flipped(wz._r1))
        )
    ]


@_suite("wz2")
def suite_wz2(max_n: int = 100, a_values: Sequence[int] = DEFAULT_WZ2_A) -> list[Unit]:
    return [_prefixed(f"a={a},", unit) for a in a_values for unit in wz.wz2_units(a, max_n)] + [
        lambda report: _negative_control(
            report,
            "negative-control-H",
            "companion",
            lambda: wz.check_wz2(3, 3, r=_flipped(wz._r2)),
        )
    ]


@_suite("certificate")
def suite_certificate(max_n: int = 100) -> list[Unit]:
    return wz.certificate_units(max_n) + [
        lambda report: _negative_control(
            report,
            "negative-control-R",
            "certificate",
            lambda: wz.check_certificate_R(3, companion=_flipped(wz._cert_companion)),
        )
    ]


@_suite("recurrence")
def suite_recurrence(max_vars: int = 4, max_degree: int = 8) -> list[Unit]:
    def unit(report: VerifyReport, r: int) -> None:
        table = geode.geode_series(r, max_degree - 1)
        for d in range(1, max_degree + 1):
            def check(d=d):
                count = 0
                for m in iter_exponents(r, d):
                    if not geode.geode_recurrence_check(table, m):
                        return False, f"recurrence broken at m={m}"
                    count += 1
                return True, f"all {count} monomials verified"

            run_case(
                report,
                f"r={r},deg={d:02d}",
                {"r": r, "degree": d},
                "sum_k G[m - e_k] = C[m] on the whole layer",
                check,
            )

    return [partial(unit, r=r) for r in range(1, max_vars + 1)]


@_suite("two-nonzero")
def suite_two_nonzero(
    max_n: int = 7, pairs: Sequence[tuple[int, int]] = ((1, 2), (1, 3), (2, 3), (2, 5))
) -> list[Unit]:
    def unit(report: VerifyReport) -> None:
        nvars = max(t for _, t in pairs)
        table = geode.geode_series(nvars, max_n - 1)
        for s, t in pairs:
            for n in range(1, max_n + 1):
                def check(s=s, t=t, n=n):
                    for i in range(n):
                        closed = geode.geode_closed_two_nonzero(s, t, n, i)
                        exps = [0] * nvars
                        exps[s - 1] = n - 1 - i
                        exps[t - 1] = i
                        if closed != table.coefficient(exps):
                            return False, f"mismatch at i={i}: {closed}"
                        if (s, t) == (1, 2) and closed != geode.geode_closed_2var(n - 1 - i, i):
                            return False, f"two-variable closed form differs at i={i}"
                    return True, f"all {n} coefficients match the oracle"

                run_case(
                    report,
                    f"s={s},t={t},n={n}",
                    {"s": s, "t": t, "n": n},
                    "closed form equals oracle for every i",
                    check,
                )

    return [unit]


@_suite("general-eval")
def suite_general_eval(max_order: int = 8) -> list[Unit]:
    def powers_case(a, c, base, order):
        values = geode.eval_general(a, c, order)
        actual = [values.coefficient(n) for n in range(order + 1)]
        return actual == [base**n for n in range(order + 1)], str(actual)

    return _case_units([
        (
            "a=1,c=(3)",
            {"a": 1, "c": [3], "max_order": max_order},
            "coefficients 3^n",
            lambda: powers_case(1, (3,), 3, max_order),
        ),
        (
            "a=2,c=(2,3)",
            {"a": 2, "c": [2, 3], "max_order": 6},
            "coefficients 7^n",
            lambda: powers_case(2, (2, 3), 7, 6),
        ),
        (
            "a=2,c=(1,1)",
            {"a": 2, "c": [1, 1], "max_order": max_order},
            "matches the alternating evaluation",
            lambda: (
                geode.eval_general(2, (1, 1), max_order)
                == geode.eval_alternating(2, max_order),
                "series coincide",
            ),
        ),
    ])


@_suite("oracle")
def suite_oracle(max_vars: int = 4, max_degree: int = 10) -> list[Unit]:
    """Self-consistency of the oracle itself: the defining equation residual
    vanishes and S - 1 = (t_1+...+t_r) G holds through the truncation."""
    cases = []
    for r in range(1, max_vars + 1):
        params = {"r": r, "max_degree": max_degree}
        cases.append((
            f"residual,r={r}",
            params,
            "zero series",
            lambda r=r: (
                functional_residual(solve_S(r, max_degree)).is_zero(),
                "residual is the zero series",
            ),
        ))
        cases.append((
            f"factorization,r={r}",
            params,
            "S - 1 = (t_1+...+t_r) G",
            lambda r=r: (
                geode.geode_series(r, max_degree).factorization_holds(),
                "factorization holds",
            ),
        ))
    return _case_units(cases)


# Every suite, in `verify all` order, with the flags it takes and the range
# (minimum, maximum) each flag accepts.  Unset flags keep the suite's
# defaults; --a runs a single a_values entry.  A flag whose cost lies in the
# oracle has no maximum, because `verify` prices its S solves (SOLVES); the
# grid suites' maxima keep each one, at its largest admitted bounds, under
# 3 s on one CPU of a 2-core VM with Python 3.11 (`verify` wall time, at
# least two runs each; two CPUs take 0.55-0.75 of it): wz1 at 600 1.5-1.8
# s, wz2 at 350 1.4-1.7 s (--a 1000 1.3 s), certificate at 600 1.5-2.0 s,
# eq31 at 14/5 1.7-2.1 s, claims at 15/4 0.58-0.77 s.  In process, eq31 at
# 16/5 took 3.5 s and claims at 15/5 2.1-2.3 s, so eq31 stops at 14/5 and
# claims at 15/4.
SUITES: dict[str, tuple[Callable[..., VerifyReport], dict[str, tuple[int, int | None]]]] = {
    "thm1": (suite_thm1, {"max_degree": (0, None)}),
    "thm2": (suite_thm2, {"max_sum": (0, None)}),
    "thm3": (suite_thm3, {"max_order": (0, None), "a": (1, None)}),
    "eq31": (suite_eq31, {"max_n": (1, 14), "max_a": (1, 5)}),
    "claims": (suite_claims, {"max_n": (1, 15), "max_a": (1, 4)}),
    "wz1": (suite_wz1, {"max_n": (1, 600)}),
    "wz2": (suite_wz2, {"max_n": (1, 350), "a": (2, 1000)}),
    "certificate": (suite_certificate, {"max_n": (1, 600)}),
    "recurrence": (suite_recurrence, {"max_vars": (1, None), "max_degree": (1, None)}),
    "two-nonzero": (suite_two_nonzero, {"max_n": (1, None)}),
    "general-eval": (suite_general_eval, {"max_order": (0, None)}),
    "oracle": (suite_oracle, {"max_vars": (1, None), "max_degree": (0, None)}),
}
SUITE_NAMES = tuple(SUITES)

# The S solves each oracle suite makes, as (r, max_degree) pairs in the order
# it makes them, from the suite's keyword arguments; a suite not listed makes
# none.  `verify` prices every one with solve_work before any suite runs.
SOLVES: dict[str, Callable[..., Iterable[tuple[int, int]]]] = {
    "thm1": lambda max_degree: [(2, max_degree + 1)],
    "thm2": lambda max_sum, a_values: ((a, max_sum + 1) for a in a_values),
    "thm3": lambda max_order, a_values: ((2 * a, max_order + 1) for a in a_values),
    "recurrence": lambda max_vars, max_degree: (
        (r, max_degree) for r in range(1, max_vars + 1)
    ),
    "two-nonzero": lambda max_n, pairs: [(max(t for _, t in pairs), max_n)],
    "general-eval": lambda max_order: [
        (2, max_order + 1),
        (4, 7),
        (4, max_order + 1),
        (4, max_order + 1),
    ],
    "oracle": lambda max_vars, max_degree: (
        solve
        for r in range(1, max_vars + 1)
        for solve in ((r, max_degree), (r, max_degree + 1), (r, max_degree + 1))
    ),
}

# Each oracle suite's keyword defaults, read from its signature so that the
# acceptance bounds are written once.
_DEFAULTS = {
    name: {p.name: p.default for p in inspect.signature(SUITES[name][0]).parameters.values()}
    for name in SOLVES
}


def _oracle_solves(name: str, kwargs: dict) -> Iterable[tuple[int, int]]:
    """The (r, max_degree) of every S solve suite `name` makes when called
    with `kwargs`, lazily, so a huge bound costs nothing before it is refused."""
    solves = SOLVES.get(name)
    return () if solves is None else solves(**{**_DEFAULTS[name], **kwargs})


def _check_bounds(
    names: Sequence[str], args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    for name in names:
        for flag, (minimum, maximum) in SUITES[name][1].items():
            value = getattr(args, flag)
            if value is None:
                continue
            option = "--" + flag.replace("_", "-")
            if value < minimum:
                parser.error(f"verify {name}: {option} must be >= {minimum}, got {value}")
            if maximum is not None and value > maximum:
                parser.error(f"verify {name}: {option} must be <= {maximum}, got {value}")


def _check_suite_work(
    names: Sequence[str], args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    for name in names:
        for r, degree in _oracle_solves(name, _suite_kwargs(name, args)):
            _check_oracle_size(r, degree, parser, f"verify {name}: ")


def _suite_kwargs(name: str, args: argparse.Namespace) -> dict:
    kwargs = {f: getattr(args, f) for f in SUITES[name][1] if getattr(args, f) is not None}
    if "a" in kwargs:
        kwargs["a_values"] = (kwargs.pop("a"),)
    return kwargs


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_suites(names: Sequence[str], args: argparse.Namespace) -> dict[str, VerifyReport]:
    """Every suite in `names`, keyed in `names` order, its cases in unit
    order.  The units of all of them go into one queue, those of the suite
    with the most solve_work summed over its S solves first; the sort is
    stable, so suites of equal work, such as the oracle-free ones, keep
    `names` order.  ``_run_units`` runs the queue."""

    def work(name: str) -> int:
        return sum(solve_work(r, d) for r, d in _oracle_solves(name, _suite_kwargs(name, args)))

    units = [
        (name, unit)
        for name in sorted(names, key=work, reverse=True)
        for unit in SUITES[name][0].units(**_suite_kwargs(name, args))
    ]
    reports = {name: VerifyReport(name) for name in names}
    for (name, _), cases in zip(units, _run_units(units)):
        reports[name].cases += cases
    return reports


# Bytes per unit index in the queue, and per write to it: 512 is the
# smallest PIPE_BUF POSIX allows, so each write reaches the pipe whole and
# no reader can find part of an index.
_RECORD = 4
_CHUNK = 512


def _run_units(units: Sequence[tuple[str, Unit]]) -> list[list[Case]]:
    """The cases of every (suite name, unit) in `units`, in unit order, run
    on up to one process per usable CPU.

    Units are independent, so ``min(CPUs, units) - 1`` helpers are forked
    first; then this process writes every unit's index into one pipe, the
    queue, suite by suite, each suite's units in reverse order, and it and
    every helper read the next index and run that unit until the queue is
    empty.  A suite's units grow along its list, as its grids do, so its
    largest are taken first.  Forking first lets the helpers
    drain the queue while it is written, so a queue longer than the pipe
    holds does not stall.  Each helper sends its cases back pickled through a
    pipe of its own.  Fork, not spawn: a helper starts from this process's
    imports and units, and the CLI starts no threads.  With no helper (one
    CPU or unit, no os.fork, or every fork failing with OSError, as under a
    process limit) this process runs every unit in order.  A unit that
    raises outside its cases, in any process, raises RuntimeError naming
    its suite; so does a helper that dies before its cases arrive, naming
    the suites whose units ran nowhere.  No helper outlives the call.
    """
    procs = min(_cpus(), len(units)) if hasattr(os, "fork") else 1
    queue, feed = os.pipe()
    helpers: list[tuple[int, int]] = []
    try:
        for _ in range(procs - 1):
            try:
                helpers.append(_fork_helper(units, queue, feed))
            except OSError:
                break
        if helpers:
            suites = groupby(range(len(units)), key=lambda i: units[i][0])
            order = chain.from_iterable(reversed(list(indices)) for _, indices in suites)
            records = b"".join(i.to_bytes(_RECORD, "little") for i in order)
            for start in range(0, len(records), _CHUNK):
                os.write(feed, records[start : start + _CHUNK])
        os.close(feed)
        feed = -1
        indices = _queue_indices(queue) if helpers else range(len(units))
        cases = {index: _run_unit(*units[index]) for index in indices}
        failure = death = None
        while helpers:
            import pickle

            code, data = _collect(*helpers.pop(0))
            if code:  # a helper exits 0 only once its cases are written
                how = f"exited with code {code}" if code >= 0 else f"was killed by signal {-code}"
                death = death or f"a helper process {how} before sending its cases"
                continue
            helper_cases, helper_failure = pickle.loads(data)
            cases.update(helper_cases)
            failure = failure or helper_failure
        if failure is not None:
            raise RuntimeError(failure)
        missing = ", ".join(
            dict.fromkeys(name for i, (name, _) in enumerate(units) if i not in cases)
        )
        if death is not None or missing:
            raise RuntimeError(
                f"verify: {death or 'the queue lost a unit'}; "
                f"units of {missing or 'no suite'} ran nowhere"
            )
    finally:
        os.close(queue)
        if feed >= 0:
            os.close(feed)
        if helpers:  # left only when something above raised
            import signal

            for pid, read in helpers:
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [cases[index] for index in range(len(units))]


def _queue_indices(queue: int) -> Iterator[int]:
    """The unit indices this process reads from the queue until it is empty."""
    while record := os.read(queue, _RECORD):
        if len(record) != _RECORD:
            raise RuntimeError(f"verify: short read of {len(record)} bytes from the unit queue")
        yield int.from_bytes(record, "little")


def _run_unit(name: str, unit: Unit) -> list[Case]:
    """The cases `unit` of suite `name` runs; a unit that raises outside its
    cases raises RuntimeError naming the suite, with the unit's traceback."""
    report = VerifyReport(name)
    try:
        unit(report)
    except Exception as exc:
        import traceback

        raise RuntimeError(
            f"verify: suite {name} raised outside its cases:\n{traceback.format_exc()}"
        ) from exc
    return report.cases


def _fork_helper(units: Sequence[tuple[str, Unit]], queue: int, feed: int) -> tuple[int, int]:
    """Fork a helper that runs the units whose indices it reads from `queue`
    until the queue is empty, then writes the pickled pair (cases by unit
    index, None) to a pipe of its own, or (cases, message) with the message
    of the first unit that raised; return its pid and the pipe's read end.
    The helper leaves by os._exit, so it runs no exit handler and flushes
    no buffer it inherited."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        import pickle

        os.close(read)
        os.close(feed)  # the queue ends when the command's process closes its end
        cases, failure = {}, None
        for index in _queue_indices(queue):
            try:
                cases[index] = _run_unit(*units[index])
            except RuntimeError as exc:  # keep reading, so the queue never stalls
                failure = failure or str(exc)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump((cases, failure), pipe)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, read: int) -> tuple[int, bytes]:
    """The exit code of the helper `pid` and what it wrote to `read`, read
    to its end; the helper is reaped whatever happens."""
    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return code, data


# ---------------------------------------------------------------------------
# argument parsing and entry points


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodenums",
        description="Exact hyper-Catalan / Geode number kernel and verifier.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser("table", help="export a coefficient table")
    table.add_argument("--vars", type=int, required=True, help="number of variables r")
    table.add_argument("--max-degree", type=int, required=True, help="truncation order")
    table.add_argument("--kind", choices=("S", "G"), required=True)
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument("--out", default="-", help="output path, - for stdout")

    coeff_cmd = commands.add_parser("coeff", help="print a single coefficient")
    coeff_cmd.add_argument("--kind", choices=("C", "G"), required=True)
    coeff_cmd.add_argument(
        "--exps", required=True, help="comma-separated exponent list, e.g. 1,1"
    )

    verify = commands.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify.add_argument("--report", help="write the JSON report to this path")
    verify.add_argument("--max-n", type=int, default=None)
    verify.add_argument("--max-a", type=int, default=None)
    verify.add_argument("--max-degree", type=int, default=None)
    verify.add_argument("--max-order", type=int, default=None)
    verify.add_argument("--max-sum", type=int, default=None)
    verify.add_argument("--max-vars", type=int, default=None)
    verify.add_argument("--a", type=int, default=None)
    return parser


def _open_output(path: str) -> IO[str] | None:
    """`path` opened for writing, or None once its error line is printed.
    Commands open their output after the guards but before any work, so
    an unwritable path costs no solve and no suite."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _cannot_write(path, exc)
        return None


def _cannot_write(path: str, exc: OSError) -> None:
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)


def _write_output(
    write: Callable[[IO[str]], None], out: IO[str] | None = None, path: str = "<stdout>"
) -> int:
    """0 once ``write(out)`` has run and `out` is closed, or, with no `out`,
    once ``write(sys.stdout)`` has run and stdout is flushed; 2, after one
    error line naming `path`, if a write or the flush fails.  A failed
    stdout is then pointed at the null device (``_discard_stdout``), so
    the interpreter's own flush at exit has nothing left to fail on."""
    try:
        if out is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with out:
                write(out)
    except OSError as exc:
        _cannot_write(path, exc)
        if out is None:
            _discard_stdout()
        return 2
    return 0


def _discard_stdout() -> None:
    """Send whatever stdout still buffers to the null device.  A stdout
    with no file descriptor, such as a test's capture, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.vars < 1:
        parser.error(f"--vars must be >= 1, got {args.vars}")
    if args.max_degree < 0:
        parser.error(f"--max-degree must be >= 0, got {args.max_degree}")
    _check_oracle_size(args.vars, args.max_degree + (args.kind == "G"), parser)
    write = partial(_write_table, args.kind, args.format, args.vars, args.max_degree)
    if args.out == "-":
        return _write_output(write)
    out = _open_output(args.out)
    if out is None:
        return 2
    return _write_output(write, out, args.out)


def _cmd_coeff(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        exps = tuple(int(part) for part in args.exps.split(","))
    except ValueError:
        parser.error(f"--exps must be a comma-separated integer list, got {args.exps!r}")
    if not exps or any(e < 0 for e in exps):
        parser.error(f"--exps entries must be nonnegative, got {args.exps!r}")
    if args.kind == "G" and sum(map(bool, exps)) >= 3:
        _check_oracle_size(len(exps), sum(exps) + 1, parser)
    elif sum((k + 1) * e for k, e in enumerate(exps, start=1)) > MAX_CLOSED_FORM_WEIGHT:
        parser.error(
            f"--exps has weight sum_k (k+1) m_k above {MAX_CLOSED_FORM_WEIGHT}: "
            "its closed form is too much work"
        )
    value = hyper_catalan(exps) if args.kind == "C" else geode_coefficient(exps)
    return _write_output(lambda stdout: print(value, file=stdout))


def _print_summary(report: VerifyReport, stdout: IO[str]) -> None:
    print(f"{report.suite}: {report.passed}/{report.total} passed", file=stdout)
    failure = report.first_failure()
    if failure is not None:
        print(f"first failure: {failure.id}: {failure.actual}", file=stdout)


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    _check_bounds(names, args, parser)
    _check_suite_work(names, args, parser)
    out = None
    if args.report:
        out = _open_output(args.report)
        if out is None:
            return 2
    try:
        reports = _run_suites(names, args)
    except BaseException:
        if out is not None:
            out.close()
        raise
    if args.suite == "all":
        report = VerifyReport("all")
        for name, sub_report in reports.items():
            for case in sub_report.cases:
                case.id = f"{name}/{case.id}"
                report.cases.append(case)
    else:
        report = reports[args.suite]
    report.cases.sort(key=lambda c: c.id)
    empty = [name for name, sub_report in reports.items() if not sub_report.cases]

    import json  # here, not at the top: only verify reports are JSON-encoded

    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    if out is None:
        code = _write_output(lambda stdout: stdout.write(payload))
    else:
        code = _write_output(lambda file: file.write(payload), out, args.report)
        code = code or _write_output(partial(_print_summary, report))
    if code:
        return code
    for name in empty:
        print(f"empty suite: {name} ran no cases", file=sys.stderr)
    return 0 if report.all_passed() and not empty else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        # -h prints its help to stdout here: flush it under the same guard
        # as a command's output, so a failed flush is one error line and 2
        if _write_output(lambda stdout: None):
            return 2
        raise
    if args.command == "table":
        return _cmd_table(args, parser)
    if args.command == "coeff":
        return _cmd_coeff(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
