"""The ``geodenums verify`` command: the verification suites, the plan of a
request and the queue that runs it.

The suites are the ``suite_<name>`` functions, each returning or
yielding its ordered units (``report.Unit``); their keyword defaults are
the acceptance bounds, and ``tests/test_acceptance.py`` runs them as they
are through ``report.run_units``.  A unit that solves S carries the
(r, max_degree) of each S table it solves, in order, in its ``solves``
attribute (``_solving``), set where its suite builds it: that is the only
place a suite's solves are written.  ``SUITES`` describes each suite once:
its units function and the flags it takes with their ranges; ``cli`` adds
the bound flags of the ``verify`` subparser from it.  A request is planned
in one pass (``_plan``): every set flag is checked against the ranges of
the suites it will run, then each suite is called once with only its own
flags, and each unit's solves are priced as the unit is yielded, refusing
a suite whose summed work exceeds ``cli.MAX_ORACLE_WORK``.

A unit does all its work inside its cases (``report.run_case``).  What its
cases share, such as a G table, is a build run at most once (``_once``)
that every case reads through a call, so the first case that reads it
builds it: the build's time is in that case's elapsed_ms, and a build that
raises makes each case that reads it an ``error`` case, not the request a
crash, without running again.  ``verify <suite>`` and ``verify all`` put
the planned units into one queue, the suite with the most planned work
first, that the command's process and forked helpers drain on every
usable CPU, each process pinned to a CPU of its own for the request
(``_run_units``); ``_cmd_verify`` assembles the one report from
the queue's cases, whatever the CPU count, and
``report.VerifyReport.to_json`` writes it.

``cli`` imports this module only for ``verify``, so ``table`` and ``coeff``
load none of the suites' modules.  Exit codes are ``cli``'s.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import chain, groupby
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from . import geode, identities, wz
from .cli import _check_oracle_size, _open_output, _write_output
from .hypercat import functional_residual, solve_S
from .mpoly import iter_exponents
from .report import Case, Unit, VerifyReport, run_case

DEFAULT_WZ2_A = (2, 3, 4, 5)
DEFAULT_THM3_A = (1, 2, 3)

T = TypeVar("T")


def _once(build: Callable[[], T]) -> Callable[[], T]:
    """`build`, run by the first call only: every call returns the value
    it returned or raises again the exception it raised."""
    outcome: list = []

    def once() -> T:
        if not outcome:
            try:
                outcome.append((build(), None))
            except Exception as exc:
                outcome.append((None, exc))
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value

    return once


def _is(expected, value) -> tuple[bool, str]:
    return value == expected, str(value)


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


def _solving(unit: Unit, *solves: tuple[int, int]) -> Unit:
    """`unit`, carrying the (r, max_degree) of every S table it solves, in
    the order it solves them, which `_plan` prices before any unit runs."""
    unit.solves = solves
    return unit


def _case_unit(
    case_id: str, params: dict, expected: str, check: Callable, *solves: tuple[int, int]
) -> Unit:
    """A unit running one case, whose check solves the S tables `solves`."""
    return _solving(lambda report: run_case(report, case_id, params, expected, check), *solves)


def suite_thm1(max_degree: int = 12) -> list[Unit]:
    def unit(report: VerifyReport) -> None:
        table = _once(partial(geode.geode_series, 2, max_degree))
        for m1 in range(max_degree + 1):
            for m2 in range(max_degree + 1 - m1):
                closed = geode.geode_closed_2var(m1, m2)
                run_case(
                    report,
                    f"m1={m1:02d},m2={m2:02d}",
                    {"m1": m1, "m2": m2},
                    str(closed),
                    lambda m=(m1, m2), closed=closed: _is(closed, table().coefficient(m)),
                )

    return [_solving(unit, (2, max_degree + 1))]


def suite_thm2(max_sum: int = 8, a_values: Sequence[int] = (2, 3, 4, 5)) -> list[Unit]:
    def unit(report: VerifyReport, a: int) -> None:
        table = _once(partial(geode.geode_series, a, max_sum))
        for p in range(max_sum + 1):
            for q in range(max_sum + 1 - p):
                exps = [0] * a
                exps[a - 2] = p
                exps[a - 1] = q
                closed = geode.geode_closed_shifted(a, p, q)

                def check(p=p, q=q, closed=closed, exps=tuple(exps)):
                    oracle = table().coefficient(exps)
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

    return [_solving(partial(unit, a=a), (a, max_sum + 1)) for a in a_values]


def suite_thm3(max_order: int = 8, a_values: Sequence[int] = DEFAULT_THM3_A) -> list[Unit]:
    def unit(report: VerifyReport, a: int) -> None:
        values = _once(partial(geode.eval_alternating, a, max_order))
        for n in range(max_order + 1):
            run_case(
                report,
                f"a={a},n={n:02d}",
                {"a": a, "n": n},
                str(a**n),
                lambda n=n: _is(a**n, values().coefficient(n)),
            )

    return [_solving(partial(unit, a=a), (2 * a, max_order + 1)) for a in a_values]


def suite_eq31(max_n: int = 7, max_a: int = 3) -> list[Unit]:
    return [
        _case_unit(
            f"n={n},a={a}",
            {"n": n, "a": a},
            str(a ** (n - 1)),
            lambda n=n, a=a: _is(a ** (n - 1), identities.partition_sum_main(n, a)),
        )
        for n in range(1, max_n + 1)
        for a in range(1, max_a + 1)
    ]


def suite_claims(max_n: int = 7, max_a: int = 3) -> list[Unit]:
    def unit(report: VerifyReport, n: int, a: int) -> None:
        power = a ** (n - 1)
        # The signed size masses of lengths n and n-1, one part power each,
        # and the bracket power of the ct route, shared as every suite
        # shares what its cases read (module docstring).
        mass1 = _once(partial(identities.size_mass, n, a))
        mass2 = _once(partial(identities.size_mass, n - 1, a))
        bracket = _once(partial(identities.bracket_power, n, a))
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


def suite_wz1(max_n: int = 200) -> list[Unit]:
    return wz.wz1_units(max_n) + [
        lambda report: _negative_control(
            report, "negative-control-H", "companion", lambda: wz.check_wz1(2, r=_flipped(wz._r1))
        )
    ]


def suite_wz2(max_n: int = 100, a_values: Sequence[int] = DEFAULT_WZ2_A) -> list[Unit]:
    return [_prefixed(f"a={a},", unit) for a in a_values for unit in wz.wz2_units(a, max_n)] + [
        lambda report: _negative_control(
            report,
            "negative-control-H",
            "companion",
            lambda: wz.check_wz2(3, 3, r=_flipped(wz._r2)),
        )
    ]


def suite_certificate(max_n: int = 100) -> list[Unit]:
    return wz.certificate_units(max_n) + [
        lambda report: _negative_control(
            report,
            "negative-control-R",
            "certificate",
            lambda: wz.check_certificate_R(3, r=_flipped(wz._cert_R)),
        )
    ]


def suite_recurrence(max_vars: int = 4, max_degree: int = 8) -> Iterator[Unit]:
    def unit(report: VerifyReport, r: int) -> None:
        table = _once(partial(geode.geode_series, r, max_degree - 1))
        for d in range(1, max_degree + 1):
            def check(d=d):
                count = 0
                for m in iter_exponents(r, d):
                    if not geode.geode_recurrence_check(table(), m):
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

    for r in range(1, max_vars + 1):
        yield _solving(partial(unit, r=r), (r, max_degree))


def suite_two_nonzero(
    max_n: int = 7, pairs: Sequence[tuple[int, int]] = ((1, 2), (1, 3), (2, 3), (2, 5))
) -> list[Unit]:
    nvars = max(t for _, t in pairs)

    def unit(report: VerifyReport) -> None:
        table = _once(partial(geode.geode_series, nvars, max_n - 1))
        for s, t in pairs:
            for n in range(1, max_n + 1):
                def check(s=s, t=t, n=n):
                    for i in range(n):
                        closed = geode.geode_closed_two_nonzero(s, t, n, i)
                        exps = [0] * nvars
                        exps[s - 1] = n - 1 - i
                        exps[t - 1] = i
                        if closed != table().coefficient(exps):
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

    return [_solving(unit, (nvars, max_n))]


def suite_general_eval(max_order: int = 8) -> list[Unit]:
    def powers_case(a, c, base, order):
        values = geode.eval_general(a, c, order)
        actual = [values.coefficient(n) for n in range(order + 1)]
        return actual == [base**n for n in range(order + 1)], str(actual)

    return [
        _case_unit(
            "a=1,c=(3)",
            {"a": 1, "c": [3], "max_order": max_order},
            "coefficients 3^n",
            lambda: powers_case(1, (3,), 3, max_order),
            (2, max_order + 1),
        ),
        _case_unit(
            "a=2,c=(2,3)",
            {"a": 2, "c": [2, 3], "max_order": 6},
            "coefficients 7^n",
            lambda: powers_case(2, (2, 3), 7, 6),
            (4, 7),
        ),
        _case_unit(
            "a=2,c=(1,1)",
            {"a": 2, "c": [1, 1], "max_order": max_order},
            "matches the alternating evaluation",
            lambda: (
                geode.eval_general(2, (1, 1), max_order)
                == geode.eval_alternating(2, max_order),
                "series coincide",
            ),
            (4, max_order + 1),
            (4, max_order + 1),
        ),
    ]


def suite_oracle(max_vars: int = 4, max_degree: int = 10) -> Iterator[Unit]:
    """Self-consistency of the oracle itself: the defining equation residual
    vanishes and S - 1 = (t_1+...+t_r) G holds through the truncation."""
    for r in range(1, max_vars + 1):
        params = {"r": r, "max_degree": max_degree}
        yield _case_unit(
            f"residual,r={r}",
            params,
            "zero series",
            lambda r=r: (
                functional_residual(solve_S(r, max_degree)).is_zero(),
                "residual is the zero series",
            ),
            (r, max_degree),
        )
        # geode_series solves S one degree up, and factorization_holds
        # solves it again, independently of the table
        yield _case_unit(
            f"factorization,r={r}",
            params,
            "S - 1 = (t_1+...+t_r) G",
            lambda r=r: (
                geode.geode_series(r, max_degree).factorization_holds(),
                "factorization holds",
            ),
            (r, max_degree + 1),
            (r, max_degree + 1),
        )


# Every suite, in `verify all` order, as (units function, flag ranges).
# The flag ranges give the flags the suite takes and the range (minimum,
# maximum) each accepts.  Unset flags keep the suite's defaults; --a runs a
# single a_values entry.  A flag whose cost lies in the oracle has no
# maximum, because `verify` prices the S solves its units carry; the grid
# suites' maxima keep each one, at its largest admitted bounds, under 3 s on
# one CPU of a 2-core VM with Python 3.11 (`verify` wall time, three runs
# each; two CPUs, each process pinned to its own, take 0.5-0.8 of it for
# the WZ grids): wz1 at 600 0.7-0.9 s, wz2 at 350 1.0-1.1 s (--a 1000
# 0.5-0.6 s), certificate at 600 1.1-1.3 s, eq31 at 60/10 1.9-2.0 s,
# claims at 30/5 0.9-1.0 s.  eq31 at 80/10 took 3.4-3.8 s and at 60/12
# 2.4-2.6 s, claims at 30/6 2.6-2.7 s, so eq31 stops at 60/10 and claims at
# 30/5.
SUITES: dict[str, tuple[Callable[..., Iterable[Unit]], dict[str, tuple[int, int | None]]]] = {
    "thm1": (suite_thm1, {"max_degree": (0, None)}),
    "thm2": (suite_thm2, {"max_sum": (0, None)}),
    "thm3": (suite_thm3, {"max_order": (0, None), "a": (1, None)}),
    "eq31": (suite_eq31, {"max_n": (1, 60), "max_a": (1, 10)}),
    "claims": (suite_claims, {"max_n": (1, 30), "max_a": (1, 5)}),
    "wz1": (suite_wz1, {"max_n": (1, 600)}),
    "wz2": (suite_wz2, {"max_n": (1, 350), "a": (2, 1000)}),
    "certificate": (suite_certificate, {"max_n": (1, 600)}),
    "recurrence": (suite_recurrence, {"max_vars": (1, None), "max_degree": (1, None)}),
    "two-nonzero": (suite_two_nonzero, {"max_n": (1, None)}),
    "general-eval": (suite_general_eval, {"max_order": (0, None)}),
    "oracle": (suite_oracle, {"max_vars": (1, None), "max_degree": (0, None)}),
}
SUITE_NAMES = tuple(SUITES)


def _plan(
    names: Sequence[str], args: argparse.Namespace, parser: argparse.ArgumentParser
) -> list[tuple[str, list[Unit], int]]:
    """(name, units, summed solve_work) of every suite in `names`, in
    `names` order, before any unit runs.  Every set flag of every suite is
    checked against its range first; then each suite is called once, at its
    defaults overridden by its own flags, and the S solves of each unit are
    priced as the unit is yielded.  A suite is refused once their running
    sum passes MAX_ORACLE_WORK, so a huge bound stops at the first solve
    past it."""
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
    plan = []
    for name in names:
        suite, ranges = SUITES[name]
        kwargs = {f: getattr(args, f) for f in ranges if getattr(args, f) is not None}
        if "a" in kwargs:
            kwargs["a_values"] = (kwargs.pop("a"),)
        units, work = [], 0
        for unit in suite(**kwargs):
            for r, degree in getattr(unit, "solves", ()):
                work += _check_oracle_size(r, degree, parser, f"verify {name}: ", work)
            units.append(unit)
        plan.append((name, units, work))
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


# Bytes per unit index in the queue, and per write to it: 512 is the
# smallest PIPE_BUF POSIX allows, so each write reaches the pipe whole and
# no reader can find part of an index.
_RECORD = 4
_CHUNK = 512


def _run_units(units: Sequence[tuple[str, Unit]]) -> list[list[Case]]:
    """The cases of every (suite name, unit) in `units`, in unit order, run
    on up to one process per usable CPU.

    Units are independent, so ``min(CPUs, units) - 1`` helpers are forked
    first.  Each process is placed on a CPU of its own, since the scheduler
    often leaves a fresh helper on its parent's CPU while another idles:
    each helper pins itself to the next usable id as the first thing it
    does, this process pins itself to the first id once a helper is forked,
    and the ``finally`` gives this process back its own mask on every path,
    so the next request sees every CPU again (``_pin`` says what a failed
    pin does).  Then this process writes every unit's index into one
    pipe, the queue, suite by suite, each suite's units in reverse order,
    and it and every helper read the next index and run that unit until the
    queue is empty.  A suite's units grow along its list, as its grids do,
    so its largest are taken first.  Forking first lets the helpers drain
    the queue while it is written, so a queue longer than the pipe holds
    does not stall.  Each helper sends its cases back pickled through a
    pipe of its own.  Fork, not spawn: a helper starts from this process's
    imports and units, and the CLI starts no threads.  With no helper (one
    CPU or unit, no os.fork, or every fork failing with OSError, as under a
    process limit) this process runs every unit in order, unpinned.  A unit
    that raises outside its cases, in any process, raises RuntimeError
    naming its suite; so does a helper that dies before its cases arrive,
    naming the suites whose units ran nowhere.  No helper outlives the
    call.
    """
    cpus = _cpus()
    procs = min(len(cpus), len(units)) if hasattr(os, "fork") else 1
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
        if mask is not None:
            _pin(mask)
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


def _fork_helper(
    units: Sequence[tuple[str, Unit]], queue: int, feed: int, cpu: int
) -> tuple[int, int]:
    """Fork a helper that pins itself to `cpu`, runs the units whose
    indices it reads from `queue` until the queue is empty, then writes the
    pickled pair (cases by unit index, None) to a pipe of its own, or
    (cases, message) with the message of the first unit that raised; return
    its pid and the pipe's read end.  The helper leaves by os._exit, so it
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
    # The queue: the units of the suite with the most planned work first;
    # the sort is stable, so suites of equal work, such as the oracle-free
    # ones, keep plan order.
    queue = [
        (name, unit)
        for name, units, _ in sorted(plan, key=lambda step: step[2], reverse=True)
        for unit in units
    ]
    try:
        ran = _run_units(queue)
    except BaseException:
        if out is not None:
            out.close()
        raise
    report = VerifyReport(args.suite)
    for (name, _), cases in zip(queue, ran):
        if args.suite == "all":
            for case in cases:
                case.id = f"{name}/{case.id}"
        report.cases += cases
    report.cases.sort(key=lambda c: c.id)
    reported = {name for (name, _), cases in zip(queue, ran) if cases}
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
