"""The ``geodenums verify`` command: the verification suites, the plan of a
request and the queue that runs it.  This is the one module that imports
``report``: the kernel modules hold kernels and their prices over plain
integers, and every unit, negative control and ``check_*`` runner is
built here.

The suites are the ``suite_<name>`` functions, each returning or
yielding its ordered units (``report.Unit``); their keyword defaults are
the acceptance bounds, and ``tests/test_acceptance.py`` runs them as they
are through ``report.run_units``.  A unit reads every priced kernel
through its report, ``report.call(geode.geode_series, 2, D)`` where it
would call ``geode_series(2, D)``: a handle (``report.Handle``), the
shared value of that call, built by the first case that reads it, so the
build's time is in that case's elapsed_ms, and a build that raises makes
each case that reads it an ``error`` case, not the request a crash,
without running again.  ``WORK`` gives each kernel its cost function,
which lives beside the kernel in its own module, takes plain integers and
counts in the units of ``hypercat.solve_work``.  A call that takes a
handle is priced at the arguments of the call that builds it, then its
own (``_spread``), as the residual of ``solve_S(r, D)`` is priced at
(r, D); a kernel call inside a handle's build is part of that handle's
price.

The grid suites ``wz1``, ``wz2`` and ``certificate`` build their units
from the rows of ``wz`` (``_pair_units``, ``_certificate_units``), one
per n, and ``check_wz1``, ``check_wz2`` and ``check_certificate_R`` run
the same units at any bound with injectable rows.  A negative control
(``_control``) records the units of a check fed a sign-flipped row in a
report of its own, priced as its unit's report prices, and its one case
runs them.
``SUITES`` describes each suite once: its units function and the flags
it takes with their minimums; ``cli`` adds the bound flags of the
``verify`` subparser from it.  A request is planned in one pass
(``_plan``): every set flag is checked against the minimums of the
suites it will run, then each suite is called once with only its own
flags, and each unit's body runs once, as it is yielded, against a report
of its own that prices each call as the unit asks for it
(``VerifyReport.price``) and records the unit's cases unrun, refusing a
suite once its summed work exceeds ``cli.MAX_WORK`` (``cli._check_work``).
The suites yield their units lazily, and a unit does nothing whose cost
grows with a bound apart from making handles and recording cases, so a
huge bound is refused at the first call past the limit, before any case
runs.  A body that raises outside its cases fails the request there, in
the command's process, before any fork and before ``--report`` is opened.

A unit does all its work inside its cases (``VerifyReport.run``).
``verify <suite>`` and ``verify all`` put the planned reports into one
queue, largest declared work first.  A request whose declared work is
above ``_FORK_WORK`` is drained by the command's process and forked
helpers on every usable CPU, each process pinned to a CPU of its own for
the request; a smaller one runs in the command's process alone
(``_run_units``).  ``_cmd_verify`` assembles the one report from the
queue's cases, whatever the CPU count, and
``report.VerifyReport.to_json`` writes it.

``cli`` imports this module only for ``verify``, so ``table`` and ``coeff``
load none of the suites' modules.  Exit codes are ``cli``'s.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial
from math import comb
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import geode, identities, wz
from .cli import MAX_WORK, _check_work, _open_output, _write_output
from .hypercat import functional_residual, residual_work, solve_S, solve_work
from .mpoly import coeff, substitute_signed
from .report import Case, Unit, VerifyReport, run_units

DEFAULT_WZ2_A = (2, 3, 4, 5)
DEFAULT_THM3_A = (1, 2, 3)


def _is(expected, value) -> tuple[bool, str]:
    return value == expected, str(value)


def _control(case_id: str, what: str, units: Iterable[Unit]) -> Unit:
    """A unit running the negative control `case_id`, a case that passes
    when `units`, a check fed a sign-flipped `what`, fail.  The unit
    records them in a report of their own, priced as its own report
    prices, and its case runs that report."""
    units = list(units)

    def control(report: VerifyReport) -> None:
        corrupted = VerifyReport(case_id, report.price)
        for unit in units:
            unit(corrupted)
        report.run_case(
            case_id,
            {},
            f"sign-flipped {what} must fail",
            lambda: (corrupted.run().failed > 0, f"corrupted {what} detected"),
        )

    return control


def _flipped(row: Callable[..., wz.Row | wz.PoleRow]) -> Callable[..., wz.Row | wz.PoleRow]:
    """A row description with its sign flipped: its numerators negated, its
    denominator, or denominators, kept."""

    def flipped(*args: int) -> wz.Row | wz.PoleRow:
        nums, den = row(*args)
        return [-num for num in nums], den

    return flipped


def suite_thm1(max_degree: int = 12) -> list[Unit]:
    def unit(report: VerifyReport) -> None:
        table = None  # asked for after the first closed form, as the first case reads it
        for m1 in range(max_degree + 1):
            for m2 in range(max_degree + 1 - m1):
                closed = report.call(geode.geode_closed_shifted, 2, m1, m2)
                table = table or report.call(geode.geode_series, 2, max_degree)
                report.run_case(
                    f"m1={m1:02d},m2={m2:02d}",
                    {"m1": m1, "m2": m2},
                    closed,
                    lambda m=(m1, m2), closed=closed: _is(closed(), table().coefficient(m)),
                )

    return [unit]


def suite_thm2(max_sum: int = 8, a_values: Sequence[int] = (2, 3, 4, 5)) -> list[Unit]:
    def unit(report: VerifyReport, a: int) -> None:
        table = None
        for p in range(max_sum + 1):
            for q in range(max_sum + 1 - p):
                closed = report.call(geode.geode_closed_shifted, a, p, q)
                table = table or report.call(geode.geode_support, a, max_sum, (a - 1, a))
                report.run_case(
                    f"a={a},p={p:02d},q={q:02d}",
                    {"a": a, "m_a": p, "m_a1": q},
                    closed,
                    lambda closed=closed, exps=(p, q): _is(closed(), coeff(table(), exps)),
                )

    return [partial(unit, a=a) for a in a_values]


def suite_thm3(max_order: int = 8, a_values: Sequence[int] = DEFAULT_THM3_A) -> list[Unit]:
    def unit(report: VerifyReport, a: int) -> None:
        values = report.call(geode.eval_alternating, a, max_order)
        for n in range(max_order + 1):
            report.run_case(
                f"a={a},n={n:02d}",
                {"a": a, "n": n},
                str(a**n),
                lambda n=n: _is(a**n, values().coefficient(n)),
            )

    return [partial(unit, a=a) for a in a_values]


def suite_eq31(max_n: int = 7, max_a: int = 3) -> Iterator[Unit]:
    def unit(report: VerifyReport, n: int, a: int) -> None:
        total = report.call(identities.partition_sum_main, n, a)
        power = a ** (n - 1)
        report.run_case(f"n={n},a={a}", {"n": n, "a": a}, str(power), lambda: _is(power, total()))

    for n in range(1, max_n + 1):
        for a in range(1, max_a + 1):
            yield partial(unit, n=n, a=a)


def suite_claims(max_n: int = 7, max_a: int = 3) -> Iterator[Unit]:
    def unit(report: VerifyReport, n: int, a: int) -> None:
        power = a ** (n - 1)
        # The signed size masses of lengths n and n-1, one part power each,
        # and the bracket power of the ct route, each read by every case
        # of its route.
        masses = []
        for claim, length, value in (("claim1", n, 0), ("claim2", n - 1, power)):
            mass = report.call(identities.size_mass, length, a)
            masses.append(mass)
            for x in range(-2, n + 1):
                total = report.call(identities.shifted_binomial_sum, mass, n, x)
                report.run_case(
                    f"{claim},n={n},a={a},x={x:+d}",
                    {"n": n, "a": a, "x": x},
                    str(value),
                    lambda total=total, value=value: _is(value, total()),
                )
        bracket = report.call(identities.bracket_power, n, a)
        for x in range(0, n + 1):
            total = report.call(identities.ct_coefficient, bracket, n, x)
            report.run_case(
                f"ct,n={n},a={a},x={x:+d}",
                {"n": n, "a": a, "x": x},
                str(power),
                lambda total=total: _is(power, total()),
            )
        # The paper's two specialized binomial forms are claim sums: eq32's
        # C(|l|+n, |l|+1) = C(|l|+n, n-1) is claim1 at x = 0, and eq33's
        # C(|l|+2a+n, |l|+2a+1) is claim2 at x = 2a, each read off its
        # mass by the one kernel; the claim2 cases certify the second
        # (n + 3 points of a polynomial in x of degree <= n - 1).
        forms = (("eq32", masses[0], 0, 0), ("eq33", masses[1], 2 * a, power))
        for eq, mass, shift, value in forms:
            total = report.call(identities.shifted_binomial_sum, mass, n, shift)
            report.run_case(
                f"{eq},n={n},a={a}",
                {"n": n, "a": a},
                str(value),
                lambda total=total, value=value: _is(value, total()),
            )

    for n in range(1, max_n + 1):
        for a in range(1, max_a + 1):
            yield partial(unit, n=n, a=a)


def _pair_units(
    n_max: int,
    f: Callable[[int, int], wz.Row],
    r: Callable[[int, int], wz.Row],
    a: int,
    prefix: str = "",
) -> Iterator[Unit]:
    """One unit per n <= n_max, each running the case `prefix`n=<n> on the
    rows f(a, n) and r(a, n) of the generalized pair, which is the
    two-variable pair at a = 2.  The relation and the zero sum hold for
    every multiple of the summand, so the case pins its scale last: F(n, 0)
    against the paper's form C(an+1, (a-1)n+1) / (an+1), whose denominator
    is not the row's."""

    def unit(report: VerifyReport, n: int) -> None:
        f_row = report.call(f, a, n)

        def check() -> tuple[bool, str]:
            frow = wz._require(f_row(), n + 1)
            broken = wz._telescopes(frow, wz._require(r(a, n), n + 1))
            if broken:
                return False, broken
            nums, den = frow
            if sum(nums):
                from fractions import Fraction

                return False, f"telescoped sum is {Fraction(sum(nums), den)}, not 0"
            top = a * n + 1
            closed = comb(top, top - n)
            if nums[0] * top != closed * den:
                from fractions import Fraction

                value, paper = Fraction(nums[0], den), Fraction(closed, top)
                return False, f"F(n,0) = {value}, not C({top},{top - n})/{top} = {paper}"
            return True, "pair relation and telescoped sum hold"

        report.run_case(f"{prefix}n={n:03d}", {"n": n}, "telescoping holds, sum = 0", check)

    for n in range(1, n_max + 1):
        yield partial(unit, n=n)


def check_wz1(
    n_max: int,
    f: Callable[[int, int], wz.Row] = wz._f2,
    r: Callable[[int, int], wz.Row] = wz._r2,
) -> VerifyReport:
    """Verify F_1(n,k) = H_1(n,k+1) - H_1(n,k), the vanishing sum and
    F_1(n,0) for every n <= n_max, 0 <= k <= n, on the generalized pair at
    a = 2.  The summand f and certificate r, each giving the row over
    k = 0..n at (a, n) as its numerators and one denominator, are
    injectable for negative controls."""
    return run_units("wz1", _pair_units(n_max, f, r, 2))


def check_wz2(
    a: int,
    n_max: int,
    f: Callable[[int, int], wz.Row] = wz._f2,
    r: Callable[[int, int], wz.Row] = wz._r2,
) -> VerifyReport:
    """Same checks for the generalized pair at `a`; at a = 2 they are
    ``check_wz1``'s."""
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    return run_units(f"wz2[a={a}]", _pair_units(n_max, f, r, a))


def _certificate_units(
    n_max: int,
    summand: Callable[[int], wz.Row] = wz._cert_summand,
    r: Callable[[int], wz.PoleRow] = wz._cert_R,
    boundary: Callable[[int], wz.Ratio] = wz._cert_boundary,
) -> Iterator[Unit]:
    """The units of ``check_certificate_R``: the ``orientation`` case, then
    one unit per n."""

    def relation(report: VerifyReport, n: int) -> Callable[[], tuple[wz.Row, str | None]]:
        """A thunk of F^(n, .) and the first break of ORIENT_F_DIFFERENCE at
        n, if any, on the summand rows it asks `report` for."""
        f_this, f_next = report.call(summand, n), report.call(summand, n + 1)

        def telescope() -> tuple[wz.Row, str | None]:
            f_n = wz._require(f_this(), n)
            f_n1 = wz._require(f_next(), n + 1)
            r_n = wz._require(r(n), n, per_entry=True)
            return f_n, wz._cert_telescopes(f_n, f_n1, r_n, boundary(n))

        return telescope

    def orientation(report: VerifyReport) -> None:
        relations = [relation(report, n) for n in range(1, min(n_max, 6) + 1)]

        def check() -> tuple[bool, str]:
            # every relation runs and the first break is reported
            first = next(filter(None, [telescope()[1] for telescope in relations]), None)
            return (False, first) if first else (True, wz.ORIENT_F_DIFFERENCE)

        report.run_case("orientation", {}, "one standard orientation telescopes", check)

    def unit(report: VerifyReport, n: int) -> None:
        telescope = relation(report, n)

        def check() -> tuple[bool, str]:
            (nums, den), broken = telescope()
            if sum(nums) != den:
                from fractions import Fraction

                return False, f"target sum is {Fraction(sum(nums), den)}, not 1"
            if broken:
                return False, broken
            return True, "sum = 1 and the relation telescopes"

        report.run_case(f"n={n:03d}", {"n": n}, "sum = 1, relation holds", check)

    yield orientation
    for n in range(1, n_max + 1):
        yield partial(unit, n=n)


def check_certificate_R(
    n_max: int,
    summand: Callable[[int], wz.Row] = wz._cert_summand,
    r: Callable[[int], wz.PoleRow] = wz._cert_R,
    boundary: Callable[[int], wz.Ratio] = wz._cert_boundary,
) -> VerifyReport:
    """Verify the certificate on 1 <= n <= n_max.

    Per n: (i) the sum of F^(n,m) over 0 <= m <= n-1 equals 1; (ii) the
    telescoping relation ``wz.ORIENT_F_DIFFERENCE`` holds on 0 <= m <= n-1,
    with the companion G^ = R * F^ closed by the boundary value G^(n, n).
    The ``orientation`` case checks the relation on a small grid first and
    records it in the report.  The summand (a row over m = 0..n-1, its
    numerators over one denominator), the certificate (m = 0..n-1, its
    numerators over one denominator each) and the boundary, one
    (numerator, denominator) pair per n, are injectable for negative
    controls.
    """
    return run_units("certificate", _certificate_units(n_max, summand, r, boundary))


def suite_wz1(max_n: int = 200) -> Iterator[Unit]:
    yield from _pair_units(max_n, wz._f2, wz._r2, 2)
    yield _control("negative-control-H", "companion", _pair_units(2, wz._f2, _flipped(wz._r2), 2))


def suite_wz2(max_n: int = 100, a_values: Sequence[int] = DEFAULT_WZ2_A) -> Iterator[Unit]:
    for a in a_values:
        yield from _pair_units(max_n, wz._f2, wz._r2, a, f"a={a},")
    yield _control("negative-control-H", "companion", _pair_units(3, wz._f2, _flipped(wz._r2), 3))


def suite_certificate(max_n: int = 100) -> Iterator[Unit]:
    yield from _certificate_units(max_n)
    yield _control(
        "negative-control-R",
        "certificate",
        _certificate_units(3, r=_flipped(wz._cert_R)),
    )


def suite_recurrence(max_vars: int = 4, max_degree: int = 8) -> Iterator[Unit]:
    def unit(report: VerifyReport, r: int) -> None:
        table = report.call(geode.geode_series, r, max_degree - 1)
        for d in range(1, max_degree + 1):
            broken = report.call(geode.recurrence_break, table, d)

            def check(d=d, broken=broken):
                if broken() is not None:
                    return False, f"recurrence broken at m={broken()}"
                return True, f"all {comb(r + d - 1, d)} monomials verified"

            report.run_case(
                f"r={r},deg={d:02d}",
                {"r": r, "degree": d},
                "sum_k G[m - e_k] = C[m] on the whole layer",
                check,
            )

    for r in range(1, max_vars + 1):
        yield partial(unit, r=r)


def suite_two_nonzero(
    max_n: int = 7, pairs: Sequence[tuple[int, int]] = ((1, 2), (1, 3), (2, 3), (2, 5))
) -> list[Unit]:
    nvars = max(t for _, t in pairs)

    def unit(report: VerifyReport) -> None:
        for s, t in pairs:
            table = None
            for n in range(1, max_n + 1):
                values = []  # ((m_s, m_t), closed form, two-variable form) for each i
                for i in range(n):
                    closed = report.call(geode.geode_closed_two_nonzero, s, t, n, i)
                    table = table or report.call(geode.geode_support, nvars, max_n - 1, (s, t))
                    two_var = None
                    if (s, t) == (1, 2):
                        two_var = report.call(geode.geode_closed_shifted, 2, n - 1 - i, i)
                    values.append(((n - 1 - i, i), closed, two_var))

                def check(n=n, values=values, table=table):
                    for i, (exps, closed, two_var) in enumerate(values):
                        if closed() != coeff(table(), exps):
                            return False, f"mismatch at i={i}: {closed()}"
                        if two_var is not None and closed() != two_var():
                            return False, f"two-variable closed form differs at i={i}"
                    return True, f"all {n} coefficients match the oracle"

                report.run_case(
                    f"s={s},t={t},n={n}",
                    {"s": s, "t": t, "n": n},
                    "closed form equals oracle for every i",
                    check,
                )

    return [unit]


def suite_general_eval(max_order: int = 8) -> list[Unit]:
    def powers(report: VerifyReport, a: int, c: tuple[int, ...], base: int, order: int) -> None:
        values = report.call(geode.eval_general, a, c, order)

        def check():
            actual = [values().coefficient(n) for n in range(order + 1)]
            return actual == [base**n for n in range(order + 1)], str(actual)

        report.run_case(
            f"a={a},c=({','.join(map(str, c))})",
            {"a": a, "c": list(c), "max_order": order},
            f"coefficients {base}^n",
            check,
        )

    def alternating(report: VerifyReport) -> None:
        # the line solve on the weights of c = (1, 1), against the whole G
        # table in 4 variables with the same weights, (-1, 1, -1, 1), substituted
        general = report.call(geode.eval_general, 2, (1, 1), max_order)
        table = report.call(geode.geode_series, 4, max_order)
        report.run_case(
            "a=2,c=(1,1)",
            {"a": 2, "c": [1, 1], "max_order": max_order},
            "matches the alternating evaluation",
            lambda: (
                general() == substitute_signed(table().series, geode.general_weights((1, 1))),
                "series coincide",
            ),
        )

    return [
        partial(powers, a=1, c=(3,), base=3, order=max_order),
        partial(powers, a=2, c=(2, 3), base=7, order=6),
        alternating,
    ]


def suite_oracle(max_vars: int = 4, max_degree: int = 10) -> Iterator[Unit]:
    """Self-consistency of the oracle itself: the defining equation residual
    vanishes and S - 1 = (t_1+...+t_r) G holds through the truncation."""

    def residual(report: VerifyReport, r: int) -> None:
        zero = report.call(functional_residual, report.call(solve_S, r, max_degree))
        report.run_case(
            f"residual,r={r}",
            {"r": r, "max_degree": max_degree},
            "zero series",
            lambda: (zero().is_zero(), "residual is the zero series"),
        )

    def factorization(report: VerifyReport, r: int) -> None:
        # factorization_holds solves the table's S again, independently
        holds = report.call(
            geode.GeodeTable.factorization_holds, report.call(geode.geode_series, r, max_degree)
        )
        report.run_case(
            f"factorization,r={r}",
            {"r": r, "max_degree": max_degree},
            "S - 1 = (t_1+...+t_r) G",
            lambda: (holds(), "factorization holds"),
        )

    for r in range(1, max_vars + 1):
        yield partial(residual, r=r)
        yield partial(factorization, r=r)


# Every suite, in `verify all` order, as (units function, flag minimums).
# The flag minimums give the flags the suite takes and the least value each
# accepts; how large a bound may be is the price's to say (``_plan``).
# Unset flags keep the suite's defaults; --a runs a single a_values entry.
SUITES: dict[str, tuple[Callable[..., Iterable[Unit]], dict[str, int]]] = {
    "thm1": (suite_thm1, {"max_degree": 0}),
    "thm2": (suite_thm2, {"max_sum": 0}),
    "thm3": (suite_thm3, {"max_order": 0, "a": 1}),
    "eq31": (suite_eq31, {"max_n": 1, "max_a": 1}),
    "claims": (suite_claims, {"max_n": 1, "max_a": 1}),
    "wz1": (suite_wz1, {"max_n": 1}),
    "wz2": (suite_wz2, {"max_n": 1, "a": 2}),
    "certificate": (suite_certificate, {"max_n": 1}),
    "recurrence": (suite_recurrence, {"max_vars": 1, "max_degree": 1}),
    "two-nonzero": (suite_two_nonzero, {"max_n": 1}),
    "general-eval": (suite_general_eval, {"max_order": 0}),
    "oracle": (suite_oracle, {"max_vars": 1, "max_degree": 0}),
}
SUITE_NAMES = tuple(SUITES)


def _spread(work: Callable[..., int]) -> Callable[..., int]:
    """`work`, priced at the arguments of the call whose handle is a call's
    first argument, followed by the call's other arguments."""
    return lambda handle, *args: work(*(handle.args + args))


# The cost function of every kernel a unit may ask its report for, each
# beside its kernel in the kernel's module and taking plain integers; a
# kernel that takes a handle is priced through ``_spread``.
WORK: dict[str, Callable[..., int]] = {
    "solve_S": solve_work,
    "geode_series": geode.geode_work,
    "geode_support": geode.geode_work,
    "factorization_holds": _spread(geode.factorization_work),
    "functional_residual": _spread(residual_work),
    "eval_alternating": geode.eval_work,
    "eval_general": geode.eval_work,
    "geode_closed_shifted": geode.closed_shifted_work,
    "geode_closed_two_nonzero": geode.closed_two_nonzero_work,
    "recurrence_break": _spread(geode.recurrence_work),
    "partition_sum_main": identities.partition_sum_work,
    "size_mass": identities.size_mass_work,
    "bracket_power": identities.bracket_power_work,
    "shifted_binomial_sum": _spread(identities.binomial_sum_work),
    "ct_coefficient": _spread(identities.ct_coefficient_work),
    "_f2": wz.row_work,
    "_cert_summand": partial(wz.row_work, 2),
}


def _plan(
    names: Sequence[str], args: argparse.Namespace, parser: argparse.ArgumentParser
) -> list[tuple[str, VerifyReport, int]]:
    """(suite name, report, declared work) of every unit of every suite in
    `names`, in `names` order and each suite's unit order, each report
    holding its unit's cases, recorded and not run.  Every set flag of
    every suite is checked against its minimum first; then each suite is
    called once, at its defaults overridden by its own flags, and each
    unit's body runs once, as it is yielded, against a report of its own
    whose price adds the price of each call to the suite's running sum as
    the unit asks for it.  A suite is refused once that sum passes
    MAX_WORK, so a huge bound stops at the first call past it.  A body
    that raises outside its cases raises RuntimeError naming the suite,
    with the body's traceback."""
    for name in names:
        for flag, minimum in SUITES[name][1].items():
            value = getattr(args, flag)
            if value is not None and value < minimum:
                option = "--" + flag.replace("_", "-")
                parser.error(f"verify {name}: {option} must be >= {minimum}, got {value}")
    plan = []
    # The records make no reference cycles, and a collection would walk
    # every record made so far, as in hypercat._solve_layers.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for name in names:
            suite, minimums = SUITES[name]
            kwargs = {f: getattr(args, f) for f in minimums if getattr(args, f) is not None}
            if "a" in kwargs:
                kwargs["a_values"] = (kwargs.pop("a"),)
            context, spent = f"verify {name}: ", 0

            def price(kernel: str, call: tuple) -> None:
                nonlocal spent
                work = WORK[kernel](*call)
                spent += work
                if spent > MAX_WORK:  # refused with one line naming the call
                    _check_work(kernel, call, WORK[kernel], parser, context, spent - work)

            for unit in suite(**kwargs):
                start, report = spent, VerifyReport(name, price=price)
                try:
                    unit(report)
                except Exception as exc:
                    import traceback

                    raise RuntimeError(
                        f"verify: suite {name} raised outside its cases:\n{traceback.format_exc()}"
                    ) from exc
                plan.append((name, report, spent - start))
    finally:
        if collecting:
            gc.enable()
    return plan


def _cpus() -> tuple[int, ...]:
    """The ids of the CPUs this process may run on, in increasing order."""
    try:
        return tuple(sorted(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity call on this platform
        return tuple(range(os.cpu_count() or 1))


def _pin(cpus: Iterable[int]) -> None:
    """Run this process on `cpus` only.  Where that raises OSError (a CPU
    that went offline, or an id a test made up) the process stays where it
    was, and where there is no affinity call nothing is pinned."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


# The declared work above which a request forks helpers; at or below it
# the fork, the pickled cases and the reaping cost more than a second CPU
# saves.  Calibration, in process on a 2-core VM with Python 3.11, medians
# of 15 alternating runs on one CPU and forking on two: a helper lost
# below 220 000 units (claims at 8/3, 97 788 units, 15.4 against 20.2 ms;
# certificate at 60, 215 788 units, 9.7 against 12.3 ms), broke even at
# claims 12/3 (272 696 units, 31.4 against 31.5 ms) and won from 330 000
# on (wz1 at 110, 334 607 units, 19.2 against 18.2 ms; certificate at 120,
# 810 457 units, 30.3 against 23.0 ms).
_FORK_WORK = 300_000

# Bytes per unit index in the queue, and per write to it: 512 is the
# smallest PIPE_BUF POSIX allows, so each write reaches the pipe whole and
# no reader can find part of an index.
_RECORD = 4
_CHUNK = 512


def _run_units(units: Sequence[tuple[str, VerifyReport, int]]) -> list[list[Case]]:
    """The cases of every (suite name, report, declared work) in `units`,
    in list order, each report run (``VerifyReport.run``) on one of up to
    one process per usable CPU.

    Units are independent, so, when their declared work together is above
    _FORK_WORK, ``min(CPUs, units) - 1`` helpers are forked first.  Each
    process is placed on a CPU of its own, since the scheduler often leaves
    a fresh helper on its parent's CPU while another idles: each helper pins
    itself to the next usable id as the first thing it does, this process
    pins itself to the first id once a helper is forked, and the ``finally``
    gives this process back its own mask on every path, so the next request
    sees every CPU again (``_pin`` says what a failed pin does).  Then this
    process writes every unit's index into one pipe, the queue, in list
    order, and it and every helper read the next index and run that report
    until the queue is empty.  Forking first lets the helpers drain the
    queue while it is written, so a queue longer than the pipe holds does
    not stall.  Each helper sends its cases back pickled through a pipe of
    its own.  Fork, not spawn: a helper starts from this process's imports
    and recorded cases, and the CLI starts no threads.  With no helper (one
    CPU or unit, work at most _FORK_WORK, no os.fork, or every fork failing
    with OSError, as under a process limit) this process runs every report
    in order, unpinned.  A helper that dies before its cases arrive raises
    RuntimeError naming the suites whose units ran nowhere.  No helper
    outlives the call.
    """
    cpus = _cpus()
    pays = hasattr(os, "fork") and sum(work for *_, work in units) > _FORK_WORK
    procs = min(len(cpus), len(units)) if pays else 1
    queue, feed = os.pipe()
    helpers: list[tuple[int, int]] = []
    mask = None  # this process's own CPUs, while it is pinned
    try:
        for cpu in cpus[1:procs]:
            try:
                helpers.append(_fork_helper(units, queue, feed, cpu))
            except OSError:
                break
        if helpers:
            if hasattr(os, "sched_getaffinity"):
                mask = os.sched_getaffinity(0)
                _pin(cpus[:1])
            records = b"".join(i.to_bytes(_RECORD, "little") for i in range(len(units)))
            for start in range(0, len(records), _CHUNK):
                os.write(feed, records[start : start + _CHUNK])
        os.close(feed)
        feed = -1
        indices = _queue_indices(queue) if helpers else range(len(units))
        cases = {index: units[index][1].run().cases for index in indices}
        death = None
        while helpers:
            import pickle

            code, data = _collect(*helpers.pop(0))
            if code:  # a helper exits 0 only once its cases are written
                how = f"exited with code {code}" if code >= 0 else f"was killed by signal {-code}"
                death = death or f"a helper process {how} before sending its cases"
                continue
            cases.update(pickle.loads(data))
        missing = ", ".join(
            dict.fromkeys(name for i, (name, *_) in enumerate(units) if i not in cases)
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
        if mask is not None:
            _pin(mask)
    return [cases[index] for index in range(len(units))]


def _queue_indices(queue: int) -> Iterator[int]:
    """The unit indices this process reads from the queue until it is empty."""
    while record := os.read(queue, _RECORD):
        if len(record) != _RECORD:
            raise RuntimeError(f"verify: short read of {len(record)} bytes from the unit queue")
        yield int.from_bytes(record, "little")


def _fork_helper(
    units: Sequence[tuple[str, VerifyReport, int]], queue: int, feed: int, cpu: int
) -> tuple[int, int]:
    """Fork a helper that pins itself to `cpu`, runs the reports whose
    indices it reads from `queue` until the queue is empty, then writes
    their cases, pickled by index, to a pipe of its own; return its pid
    and the pipe's read end.  The helper leaves by os._exit, so it
    runs no exit handler and flushes no buffer it inherited."""
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
        _pin((cpu,))
        import pickle

        os.close(read)
        os.close(feed)  # the queue ends when the command's process closes its end
        cases = {index: units[index][1].run().cases for index in _queue_indices(queue)}
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(cases, pipe)
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


def _print_summary(report: VerifyReport, stdout: IO[str]) -> None:
    print(f"{report.suite}: {report.passed}/{report.total} passed", file=stdout)
    failure = report.first_failure()
    if failure is not None:
        print(f"first failure: {failure.id}: {failure.actual}", file=stdout)


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    plan = _plan(names, args, parser)
    out = None
    if args.report:
        out = _open_output(args.report)
        if out is None:
            return 2
    # The queue: the units of most declared work first, so the largest
    # starts first; the sort is stable, so units of equal work keep plan
    # order.
    queue = sorted(plan, key=lambda step: step[2], reverse=True)
    try:
        ran = _run_units(queue)
    except BaseException:
        if out is not None:
            out.close()
        raise
    report = VerifyReport(args.suite)
    for (name, *_), cases in zip(queue, ran):
        if args.suite == "all":
            for case in cases:
                case.id = f"{name}/{case.id}"
        report.cases += cases
    report.cases.sort(key=lambda c: c.id)
    reported = {name for (name, *_), cases in zip(queue, ran) if cases}
    empty = [name for name in names if name not in reported]

    payload = report.to_json()
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
