"""Command-line surface: coefficient tables, single coefficients, and the
verification suites with machine-readable JSON reports.

The suites are the ``suite_<name>`` functions; their keyword defaults are
the acceptance bounds, and ``tests/test_acceptance.py`` calls them as they
are.  ``SUITES`` maps each name to its function and to the flags it takes
with their ranges: ``verify`` checks every set flag against the ranges of
the suites it will run, then passes each suite only its own flags.
``SOLVES`` lists the S solves each oracle suite makes at given bounds, so
``verify`` can price them all before any suite starts.  ``verify all``
runs its suites on every usable CPU, in forked helpers beside its own
process (``_run_suites``), and merges one report whatever the CPU count.

Exit codes: 0 all checks passed, 1 any verification failure, a suite that
ran no cases (named on stderr) or a suite or helper that crashed, 2 usage or I/O error, including a bound
outside its range, a ``table``, ``coeff`` or ``verify`` request one of whose
S solves would exceed ``MAX_ORACLE_WORK`` and a ``coeff`` closed form whose
weight exceeds ``MAX_CLOSED_FORM_WEIGHT``.
Reports are byte-identical across identical invocations except for the
elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from functools import cache
from typing import Callable, Iterable, Sequence

from . import geode, identities, wz
from .hypercat import functional_residual, hyper_catalan, solve_S, solve_work
from .mpoly import TruncatedSeries, coeff, iter_exponents, series_to_dict
from .report import VerifyReport, run_case

DEFAULT_WZ2_A = (2, 3, 4, 5)
DEFAULT_THM3_A = (1, 2, 3)

# Most work any one S solve behind `table`, `coeff` or `verify` may take, in
# units of hypercat.solve_work, each 0.10-0.26 us on a 2-core VM with Python 3.11.
# The largest admitted request for each r = 1..7 takes 0.8-1.7 s (r = 1 is
# degree 1387, r = 7 degree 11); r = 3, degree 45 is 4.5e7 (4.4-7.3 s).
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


def _series_for_table(kind: str, nvars: int, max_degree: int) -> TruncatedSeries:
    if kind == "S":
        return solve_S(nvars, max_degree)
    return geode.geode_series(nvars, max_degree).series


def _write_table(series: TruncatedSeries, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(series_to_dict(series), indent=2) + "\n")
        return
    header = ",".join(f"m_{i + 1}" for i in range(series.nvars)) + ",coeff"
    out.write(header + "\n")
    for m, c in sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        out.write(",".join(str(e) for e in m) + f",{c}\n")


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


def suite_thm1(max_degree: int = 12) -> VerifyReport:
    report = VerifyReport("thm1")
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
    return report


def suite_thm2(max_sum: int = 8, a_values: Sequence[int] = (2, 3, 4, 5)) -> VerifyReport:
    report = VerifyReport("thm2")
    for a in a_values:
        table = geode.geode_series(a, max_sum)
        for p in range(max_sum + 1):
            for q in range(max_sum + 1 - p):
                exps = [0] * a
                exps[a - 2] = p
                exps[a - 1] = q
                closed = geode.geode_closed_shifted(a, p, q)

                def check(a=a, p=p, q=q, closed=closed, exps=tuple(exps), table=table):
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
    return report


def suite_thm3(max_order: int = 8, a_values: Sequence[int] = DEFAULT_THM3_A) -> VerifyReport:
    report = VerifyReport("thm3")
    for a in a_values:
        values = geode.eval_alternating(a, max_order)
        for n in range(max_order + 1):
            run_case(
                report,
                f"a={a},n={n:02d}",
                {"a": a, "n": n},
                str(a**n),
                lambda a=a, n=n, values=values: _is(a**n, values.coefficient(n)),
            )
    return report


def suite_eq31(max_n: int = 7, max_a: int = 3) -> VerifyReport:
    report = VerifyReport("eq31")
    for n in range(1, max_n + 1):
        for a in range(1, max_a + 1):
            run_case(
                report,
                f"n={n},a={a}",
                {"n": n, "a": a},
                str(a ** (n - 1)),
                lambda n=n, a=a: _is(a ** (n - 1), identities.partition_sum_main(n, a)),
            )
    return report


def suite_claims(max_n: int = 7, max_a: int = 3) -> VerifyReport:
    report = VerifyReport("claims")
    for n in range(1, max_n + 1):
        for a in range(1, max_a + 1):
            power = a ** (n - 1)
            # What the cases of this (n, a) share and no other case reads: the
            # signed size mass of the length-n and length-(n-1) tallies and the
            # bracket power of the ct route.  Each is built by the first case
            # that reads it, so its time is in that case's elapsed_ms.
            mass1 = cache(lambda n=n, a=a: identities.size_mass(identities.partition_tally(n, a)))
            mass2 = cache(
                lambda n=n, a=a: identities.size_mass(identities.partition_tally(n - 1, a))
            )
            bracket = cache(lambda n=n, a=a: identities.bracket_power(n, a))
            for x in range(-2, n + 1):
                params = {"n": n, "a": a, "x": x}
                run_case(
                    report,
                    f"claim1,n={n},a={a},x={x:+d}",
                    params,
                    "0",
                    lambda n=n, x=x, mass1=mass1: _is(
                        0, identities.shifted_binomial_sum(mass1(), n, x)
                    ),
                )
                run_case(
                    report,
                    f"claim2,n={n},a={a},x={x:+d}",
                    params,
                    str(power),
                    lambda n=n, x=x, power=power, mass2=mass2: _is(
                        power, identities.shifted_binomial_sum(mass2(), n, x)
                    ),
                )
            for x in range(0, n + 1):
                run_case(
                    report,
                    f"ct,n={n},a={a},x={x:+d}",
                    {"n": n, "a": a, "x": x},
                    str(power),
                    lambda n=n, x=x, power=power, bracket=bracket: _is(
                        power, identities.ct_coefficient(bracket(), n, x)
                    ),
                )

            # The two specialized binomial forms: lower-index C(|l|+n, |l|+1)
            # is claim1 at x = 0, which a claim1 case checks; C(|l|+2a+n,
            # |l|+2a+1) is claim2 at x = 2a, which the claim2 cases certify
            # (n + 3 points of a polynomial in x of degree <= n - 1).
            def eq32(n=n, mass1=mass1):
                value = sum(
                    m * identities.binom_general(size + n, size + 1)
                    for size, m in enumerate(mass1())
                )
                return _is(0, value)

            def eq33(n=n, a=a, power=power, mass2=mass2):
                value = sum(
                    m * identities.binom_general(size + 2 * a + n, size + 2 * a + 1)
                    for size, m in enumerate(mass2())
                )
                return _is(power, value)

            run_case(report, f"eq32,n={n},a={a}", {"n": n, "a": a}, "0", eq32)
            run_case(report, f"eq33,n={n},a={a}", {"n": n, "a": a}, str(power), eq33)
    return report


def suite_wz1(max_n: int = 200) -> VerifyReport:
    report = wz.check_wz1(max_n)
    _negative_control(
        report,
        "negative-control-H",
        "companion",
        lambda: wz.check_wz1(2, r=_flipped(wz._r1)),
    )
    return report


def suite_wz2(max_n: int = 100, a_values: Sequence[int] = DEFAULT_WZ2_A) -> VerifyReport:
    report = VerifyReport("wz2")
    for a in a_values:
        sub_report = wz.check_wz2(a, max_n)
        for case in sub_report.cases:
            case.id = f"a={a},{case.id}"
            report.cases.append(case)
    _negative_control(
        report,
        "negative-control-H",
        "companion",
        lambda: wz.check_wz2(3, 3, r=_flipped(wz._r2)),
    )
    return report


def suite_certificate(max_n: int = 100) -> VerifyReport:
    report = wz.check_certificate_R(max_n)
    _negative_control(
        report,
        "negative-control-R",
        "certificate",
        lambda: wz.check_certificate_R(3, companion=_flipped(wz._cert_companion)),
    )
    return report


def suite_recurrence(max_vars: int = 4, max_degree: int = 8) -> VerifyReport:
    report = VerifyReport("recurrence")
    for r in range(1, max_vars + 1):
        table = geode.geode_series(r, max_degree - 1)
        for d in range(1, max_degree + 1):
            def check(r=r, d=d, table=table):
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
    return report


def suite_two_nonzero(
    max_n: int = 7, pairs: Sequence[tuple[int, int]] = ((1, 2), (1, 3), (2, 3), (2, 5))
) -> VerifyReport:
    report = VerifyReport("two-nonzero")
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
    return report


def suite_general_eval(max_order: int = 8) -> VerifyReport:
    report = VerifyReport("general-eval")

    def powers_case(a, c, base, order):
        values = geode.eval_general(a, c, order)
        actual = [values.coefficient(n) for n in range(order + 1)]
        return actual == [base**n for n in range(order + 1)], str(actual)

    run_case(
        report,
        "a=1,c=(3)",
        {"a": 1, "c": [3], "max_order": max_order},
        "coefficients 3^n",
        lambda: powers_case(1, (3,), 3, max_order),
    )
    run_case(
        report,
        "a=2,c=(2,3)",
        {"a": 2, "c": [2, 3], "max_order": 6},
        "coefficients 7^n",
        lambda: powers_case(2, (2, 3), 7, 6),
    )
    run_case(
        report,
        "a=2,c=(1,1)",
        {"a": 2, "c": [1, 1], "max_order": max_order},
        "matches the alternating evaluation",
        lambda: (
            geode.eval_general(2, (1, 1), max_order)
            == geode.eval_alternating(2, max_order),
            "series coincide",
        ),
    )
    return report


def suite_oracle(max_vars: int = 4, max_degree: int = 10) -> VerifyReport:
    """Self-consistency of the oracle itself: the defining equation residual
    vanishes and S - 1 = (t_1+...+t_r) G holds through the truncation."""
    report = VerifyReport("oracle")
    for r in range(1, max_vars + 1):
        run_case(
            report,
            f"residual,r={r}",
            {"r": r, "max_degree": max_degree},
            "zero series",
            lambda r=r: (
                functional_residual(solve_S(r, max_degree)).is_zero(),
                "residual is the zero series",
            ),
        )
        run_case(
            report,
            f"factorization,r={r}",
            {"r": r, "max_degree": max_degree},
            "S - 1 = (t_1+...+t_r) G",
            lambda r=r: (
                geode.geode_series(r, max_degree).factorization_holds(),
                "factorization holds",
            ),
        )
    return report


# Every suite, in `verify all` order, with the flags it takes and the range
# (minimum, maximum) each flag accepts.  Unset flags keep the suite's
# defaults; --a runs a single a_values entry.  A flag whose cost lies in the
# oracle has no maximum, because `verify` prices its S solves (SOLVES); the
# grid suites' maxima keep each one, at its largest admitted bounds, under
# 3 s on a 2-core VM with Python 3.11 (`verify` wall time, at least two
# runs each): wz1 at 600 1.5-1.8 s, wz2 at 350 1.4-1.7 s (--a 1000
# 1.3 s), certificate at 600 1.5-2.0 s, eq31 at 14/5 1.7-2.1 s, claims at
# 15/4 0.58-0.77 s.  In process, eq31 at 16/5 took 3.5 s and claims at 15/5
# 2.1-2.3 s, so eq31 stops at 14/5 and claims at 15/4.
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


def _run_suite(name: str, args: argparse.Namespace) -> VerifyReport:
    return SUITES[name][0](**_suite_kwargs(name, args))


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _deal(names: Sequence[str], args: argparse.Namespace, procs: int) -> list[list[str]]:
    """`names` dealt round-robin to `procs` processes, in decreasing order of
    the solve_work summed over each suite's S solves; the sort is stable, so
    suites of equal work, such as the oracle-free ones, keep `names` order."""

    def work(name: str) -> int:
        return sum(solve_work(r, d) for r, d in _oracle_solves(name, _suite_kwargs(name, args)))

    order = sorted(names, key=work, reverse=True)
    return [order[i::procs] for i in range(procs)]


def _run_suites(names: Sequence[str], args: argparse.Namespace) -> dict[str, VerifyReport]:
    """Every suite in `names`, keyed in `names` order, on up to one process
    per usable CPU.

    The suites are pure and independent, so the first share of ``_deal``
    runs here while each other share, if there is more than one suite and
    CPU, runs in a forked helper, which sends its reports back pickled
    through a pipe.  The parent never sits idle, so it competes for a CPU
    like every helper.  Fork, not spawn: a helper starts from this
    process's imports and parsed arguments, and the CLI starts no threads.
    A suite that raises in a helper, or a helper that dies before its
    reports arrive, raises RuntimeError naming the suites; no helper
    outlives the call.
    """
    procs = min(_cpus(), len(names)) if hasattr(os, "fork") else 1
    own, *shares = _deal(names, args, procs)
    helpers: list[tuple[list[str], int, int]] = []
    try:
        for share in shares:
            helpers.append((share, *_fork_helper(share, args)))
        reports = {name: _run_suite(name, args) for name in own}
        while helpers:
            reports.update(_collect(*helpers.pop(0)))
    finally:
        if helpers:  # left only when something above raised
            import signal

            for _, pid, read in helpers:
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return {name: reports[name] for name in names}


def _fork_helper(share: list[str], args: argparse.Namespace) -> tuple[int, int]:
    """Fork a helper that runs `share` and writes the pickled pair (reports
    by name, None) to a pipe, or (None, (suite, traceback)) for the first
    suite that raised; return its pid and the pipe's read end.  The helper
    leaves by os._exit, so it runs no exit handler and flushes no buffer
    it inherited."""
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
        import traceback

        os.close(read)
        reports, failure = {}, None
        for name in share:
            try:
                reports[name] = _run_suite(name, args)
            except Exception:
                reports, failure = None, (name, traceback.format_exc())
                break
        with os.fdopen(write, "wb") as pipe:
            pickle.dump((reports, failure), pipe)
        code = 0
    finally:
        os._exit(code)


def _collect(share: list[str], pid: int, read: int) -> dict[str, VerifyReport]:
    """The reports of the helper `pid`, read from `read` to its end; the
    helper is reaped whatever happens."""
    import pickle

    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    suites = ", ".join(share)
    if code:  # a helper exits 0 only once its reports are written
        how = f"exited with code {code}" if code >= 0 else f"was killed by signal {-code}"
        raise RuntimeError(
            f"verify all: the helper process running {suites} {how} before sending its reports"
        )
    reports, failure = pickle.loads(data)
    if failure is not None:
        name, trace = failure
        raise RuntimeError(f"verify all: suite {name} raised in a helper process:\n{trace}")
    return reports


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


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.vars < 1:
        parser.error(f"--vars must be >= 1, got {args.vars}")
    if args.max_degree < 0:
        parser.error(f"--max-degree must be >= 0, got {args.max_degree}")
    _check_oracle_size(args.vars, args.max_degree + (args.kind == "G"), parser)
    series = _series_for_table(args.kind, args.vars, args.max_degree)
    if args.out == "-":
        _write_table(series, args.format, sys.stdout)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            _write_table(series, args.format, handle)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


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
    if args.kind == "C":
        print(hyper_catalan(exps))
    else:
        print(geode_coefficient(exps))
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    _check_bounds(names, args, parser)
    _check_suite_work(names, args, parser)
    reports = _run_suites(names, args)
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

    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.report}: {exc}", file=sys.stderr)
            return 2
        print(f"{report.suite}: {report.passed}/{report.total} passed")
        failure = report.first_failure()
        if failure is not None:
            print(f"first failure: {failure.id}: {failure.actual}")
    else:
        sys.stdout.write(payload)
    for name in empty:
        print(f"empty suite: {name} ran no cases", file=sys.stderr)
    return 0 if report.all_passed() and not empty else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "table":
        return _cmd_table(args, parser)
    if args.command == "coeff":
        return _cmd_coeff(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
