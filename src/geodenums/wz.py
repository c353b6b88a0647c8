"""Telescoping (WZ-style) verification of the alternating binomial sums.

The divisibility of the hyper-Catalan layers by t_1 + ... + t_r reduces to
alternating binomial identities; each comes with a companion function whose
difference telescopes the sum away.  This module checks the telescoping
relations pointwise on large grids, in exact integers.  No tolerance appears
anywhere: every equality is exact or the check fails.

Each pair is described once, as a summand F and a rational certificate R,
each a row function: given n (and a), it returns the integer (numerator,
denominator) pairs of the whole row over k.  Binomials enter a row through
one stepper, ``_binomials``, which starts from math.comb, steps by the exact
ratio of neighbouring binomials (a small-int multiply and divide per
entry) and checks the row's last entry against math.comb, so no row can
drift from the closed form and no ratio is typed by hand.  A grid check
reads each row once and forms the companion H = R * F from it; it checks
every relation by cross-multiplying and every sum over a common
denominator, and builds a Fraction only to print a failure.  A zero
denominator would make both sides of a cross-multiplied relation 0, so a
grid that reads one is an error, never a pass; so is a row of the wrong
length.  Each grid check is a list of units, one per n (``*_units``), so
the CLI can spread a grid over processes; ``check_*`` runs them in order.

The pair in two variables:

    F_1(n,k) = (-1)^k C(n,k) C(2n+1+k, n+1+k) / (2n+1+k)
    R_1(n,k) = -k(n+1+k) / (n(2n+1)),   H_1 = R_1 * F_1,   H_1(n,n+1) = 0
    relation F_1(n,k) = H_1(n,k+1) - H_1(n,k), hence sum_k F_1(n,k) = 0.

The generalized pair (parameter a >= 2; a = 2 reproduces the above):

    F_2(a,n,k) = (-1)^k C(n,k) C(an+1+k, (a-1)n+1+k) / (an+1+k)
    R_2(a,n,k) = -k((a-1)n+1+k) / (n(an+1)),   H_2 = R_2 * F_2

The certificate check: the sum of

    F^(n,m) = (-1)^(n-1-m) C(n-1,m) C(2n+1+m, n+1+m) / (2n+1)

over 0 <= m <= n-1 equals 1 for every n, certified by

    R(n,m) = m(8mn + 10n^2 + 6m + 15n + 6) / (2(2n+3)(n+1)(n-m)).

The companion G^ = R * F^ has a removable singularity at m = n: the (n-m)
pole cancels against the zero of C(n-1,m) since C(n-1,m)/(n-m) = C(n,m)/n.
``_cert_companion`` is that cancelled form, defined for all m in
[0, n], which is what makes the telescoping relation hold on the full range.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, lcm
from typing import Callable

from .report import Unit, VerifyReport, run_case, run_units

ORIENT_F_DIFFERENCE = "F(n+1,m)-F(n,m) = G(n,m+1)-G(n,m)"

# An exact rational as an integer (numerator, denominator) pair, not reduced.
Ratio = tuple[int, int]


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


# ---------------------------------------------------------------------------
# the binomial rows


def _step(top: int, bottom: int, top_step: int) -> tuple[int, int]:
    """The numerator of the first step of ``_binomials`` and its change per
    step; the denominator is bottom + 1, then bottom + 2, and so on.  From
    C(t, b), C(t, b+1) = C(t, b) (t-b) / (b+1) and C(t+1, b+1) = C(t, b)
    (t+1) / (b+1), so the numerator starts at top - bottom and falls by one
    (top_step 0) or starts at top + 1 and rises by one (top_step 1)."""
    if top_step == 0:
        return top - bottom, -1
    if top_step == 1:
        return top + 1, 1
    raise ValueError(f"need top_step 0 or 1, got {top_step}")


def _binomials(top: int, bottom: int, top_step: int, count: int) -> list[int]:
    """C(top + top_step*j, bottom + j) for j = 0..count-1, top_step 0 or 1.

    The row starts from math.comb and steps by the exact ratio of
    neighbouring entries (``_step``), one small-int multiply and divide per
    entry; every division is exact.  The last entry is checked against
    math.comb, so a row cannot drift from the closed form."""
    if count < 1:
        return []
    numerator, drift = _step(top, bottom, top_step)
    denominator = bottom + 1
    value = comb(top, bottom)
    row = [value]
    for _ in range(count - 1):
        value = value * numerator // denominator
        row.append(value)
        numerator += drift
        denominator += 1
    last = top + top_step * (count - 1), bottom + count - 1
    if value != comb(*last):
        raise ArithmeticError(f"stepped row reached {value} at C{last}, not {comb(*last)}")
    return row


# ---------------------------------------------------------------------------
# the descriptions: each formula is typed here once, as a row over k or m


def _f1(n: int) -> list[Ratio]:
    """F_1(n, k) for k = 0..n."""
    binomials = zip(_binomials(n, 0, 0, n + 1), _binomials(2 * n + 1, n + 1, 1, n + 1))
    return [(_sign(k) * c * d, 2 * n + 1 + k) for k, (c, d) in enumerate(binomials)]


def _r1(n: int) -> list[Ratio]:
    """R_1(n, k) for k = 0..n."""
    return [(-k * (n + 1 + k), n * (2 * n + 1)) for k in range(n + 1)]


def _f2(a: int, n: int) -> list[Ratio]:
    """F_2(a, n, k) for k = 0..n."""
    binomials = zip(
        _binomials(n, 0, 0, n + 1), _binomials(a * n + 1, (a - 1) * n + 1, 1, n + 1)
    )
    return [(_sign(k) * c * d, a * n + 1 + k) for k, (c, d) in enumerate(binomials)]


def _r2(a: int, n: int) -> list[Ratio]:
    """R_2(a, n, k) for k = 0..n."""
    return [(-k * ((a - 1) * n + 1 + k), n * (a * n + 1)) for k in range(n + 1)]


def _cert_summand(n: int) -> list[Ratio]:
    """F^(n, m) for m = 0..n-1, its support."""
    binomials = zip(_binomials(n - 1, 0, 0, n), _binomials(2 * n + 1, n + 1, 1, n))
    return [(_sign(n - 1 - m) * c * d, 2 * n + 1) for m, (c, d) in enumerate(binomials)]


def _cert_R(n: int) -> list[Ratio]:
    """R(n, m) for m = 0..n-1; m = n is its pole."""
    return [
        (
            m * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6),
            2 * (2 * n + 3) * (n + 1) * (n - m),
        )
        for m in range(n)
    ]


def _cert_companion(n: int) -> list[Ratio]:
    """G^(n, m) = R(n, m) F^(n, m), pole cancelled, for m = 0..n."""
    den = 2 * n * (2 * n + 3) * (n + 1) * (2 * n + 1)
    binomials = zip(_binomials(n, 0, 0, n + 1), _binomials(2 * n + 1, n + 1, 1, n + 1))
    return [
        (
            _sign(n - 1 - m) * m * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6) * c * d,
            den,
        )
        for m, (c, d) in enumerate(binomials)
    ]


# ---------------------------------------------------------------------------
# the grid checks


def _require(row: list[Ratio], length: int) -> list[Ratio]:
    """Refuse a row of the wrong length, which would leave points unchecked,
    and a zero denominator, which would make both sides of every
    cross-multiplied relation that reads it 0, a pass that checks nothing."""
    if len(row) != length:
        raise ValueError(f"grid row has {len(row)} entries, not {length}")
    for index, (_, den) in enumerate(row):
        if not den:
            raise ZeroDivisionError(f"zero denominator at index {index} of a grid row")
    return row


def _require_a(a: int) -> None:
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")


def _row_sum(row: list[Ratio]) -> Ratio:
    """The sum of a row of ratios over their least common denominator."""
    den = lcm(*(d for _, d in row))
    return sum(num * (den // d) for num, d in row), den


def _pair_units(
    n_max: int,
    f: Callable[[int], list[Ratio]],
    r: Callable[[int], list[Ratio]],
    extra: Callable[[int, list[Ratio]], tuple[bool, str]] | None = None,
) -> list[Unit]:
    """One unit per n <= n_max, each running the case for that n."""

    def unit(report: VerifyReport, n: int) -> None:
        def check() -> tuple[bool, str]:
            frow = _require(f(n), n + 1)
            rrow = _require(r(n), n + 1)
            hrow = [(rn * fn, rd * fd) for (fn, fd), (rn, rd) in zip(frow, rrow)]
            hrow.append((0, 1))  # H(n, n+1) = 0
            for k, (fn, fd) in enumerate(frow):
                (an, ad), (bn, bd) = hrow[k], hrow[k + 1]
                if fn * ad * bd != (bn * ad - an * bd) * fd:
                    return False, (
                        f"pair relation broken at k={k}: F={Fraction(fn, fd)}, "
                        f"H(k+1)-H(k)={Fraction(bn, bd) - Fraction(an, ad)}"
                    )
            total, den = _row_sum(frow)
            if total:
                return False, f"telescoped sum is {Fraction(total, den)}, not 0"
            if extra is not None:
                ok, msg = extra(n, frow)
                if not ok:
                    return False, msg
            return True, "pair relation and telescoped sum hold"

        run_case(report, f"n={n:03d}", {"n": n}, "telescoping holds, sum = 0", check)

    return [partial(unit, n=n) for n in range(1, n_max + 1)]


def wz1_units(
    n_max: int,
    f: Callable[[int], list[Ratio]] = _f1,
    r: Callable[[int], list[Ratio]] = _r1,
) -> list[Unit]:
    """The units of ``check_wz1``, one per n."""
    return _pair_units(n_max, f, r)


def check_wz1(
    n_max: int,
    f: Callable[[int], list[Ratio]] = _f1,
    r: Callable[[int], list[Ratio]] = _r1,
) -> VerifyReport:
    """Verify F_1(n,k) = H_1(n,k+1) - H_1(n,k) and the vanishing sum for every
    n <= n_max, 0 <= k <= n.  The summand f and certificate r, each giving
    the row of (numerator, denominator) pairs over k = 0..n, are injectable
    for negative controls."""
    return run_units("wz1", wz1_units(n_max, f, r))


def wz2_units(
    a: int,
    n_max: int,
    f: Callable[[int, int], list[Ratio]] = _f2,
    r: Callable[[int, int], list[Ratio]] = _r2,
) -> list[Unit]:
    """The units of ``check_wz2``, one per n."""
    _require_a(a)
    extra = None
    if a == 2:
        def extra(n: int, frow: list[Ratio]) -> tuple[bool, str]:
            for k, ((fn, fd), (gn, gd)) in enumerate(zip(frow, _f1(n))):
                if fn * gd != gn * fd:
                    return False, f"a=2 summand differs from two-variable pair at k={k}"
            return True, ""
    return _pair_units(n_max, partial(f, a), partial(r, a), extra)


def check_wz2(
    a: int,
    n_max: int,
    f: Callable[[int, int], list[Ratio]] = _f2,
    r: Callable[[int, int], list[Ratio]] = _r2,
) -> VerifyReport:
    """Same checks for the generalized pair; at a = 2 additionally asserts
    coincidence with the two-variable pair."""
    return run_units(f"wz2[a={a}]", wz2_units(a, n_max, f, r))


def _relation_holds(
    n: int, f_n: list[Ratio], f_next: list[Ratio], g_n: list[Ratio]
) -> tuple[bool, str]:
    """The telescoping relation ORIENT_F_DIFFERENCE at n, for 0 <= m < n,
    from F(n, m) and F(n+1, m) for m < n and G(n, m) for m <= n."""
    for m in range(n):
        (an, ad), (bn, bd) = f_next[m], f_n[m]
        (cn, cd), (en, ed) = g_n[m + 1], g_n[m]
        if (an * bd - bn * ad) * cd * ed != (cn * ed - en * cd) * ad * bd:
            lhs = Fraction(an, ad) - Fraction(bn, bd)
            rhs = Fraction(cn, cd) - Fraction(en, ed)
            return False, f"relation broken at m={m}: lhs={lhs}, rhs={rhs}"
    return True, ""


def certificate_units(
    n_max: int,
    summand: Callable[[int], list[Ratio]] = _cert_summand,
    r: Callable[[int], list[Ratio]] = _cert_R,
    companion: Callable[[int], list[Ratio]] = _cert_companion,
) -> list[Unit]:
    """The units of ``check_certificate_R``: the ``orientation`` case, then
    one unit per n."""

    def rows(n: int) -> tuple[list[Ratio], list[Ratio], list[Ratio]]:
        f_n = _require(summand(n), n)
        f_next = _require(summand(n + 1), n + 1)
        g_n = _require(companion(n), n + 1)
        return f_n, f_next, g_n

    def orientation_case() -> tuple[bool, str]:
        for n in range(1, min(n_max, 6) + 1):
            ok, msg = _relation_holds(n, *rows(n))
            if not ok:
                return False, msg
        return True, ORIENT_F_DIFFERENCE

    def orientation(report: VerifyReport) -> None:
        run_case(
            report,
            "orientation",
            {},
            "one standard orientation telescopes",
            orientation_case,
        )

    def unit(report: VerifyReport, n: int) -> None:
        def check() -> tuple[bool, str]:
            f_n, f_next, g_n = rows(n)
            r_n = _require(r(n), n)
            total, den = _row_sum(f_n)
            if total != den:
                return False, f"target sum is {Fraction(total, den)}, not 1"
            ok, msg = _relation_holds(n, f_n, f_next, g_n)
            if not ok:
                return False, msg
            for m, ((fn, fd), (rn, rd), (gn, gd)) in enumerate(zip(f_n, r_n, g_n)):
                if gn * rd * fd != rn * fn * gd:
                    return False, f"companion differs from R*F at m={m}"
            return True, "sum = 1 and the relation telescopes"

        run_case(report, f"n={n:03d}", {"n": n}, "sum = 1, relation holds", check)

    return [orientation] + [partial(unit, n=n) for n in range(1, n_max + 1)]


def check_certificate_R(
    n_max: int,
    summand: Callable[[int], list[Ratio]] = _cert_summand,
    r: Callable[[int], list[Ratio]] = _cert_R,
    companion: Callable[[int], list[Ratio]] = _cert_companion,
) -> VerifyReport:
    """Verify the certificate on 1 <= n <= n_max.

    Per n: (i) the sum of F^(n,m) over 0 <= m <= n-1 equals 1; (ii) the
    telescoping relation ORIENT_F_DIFFERENCE holds; (iii) the companion
    equals R * F^ on 0 <= m <= n-1, where R is defined.  The
    ``orientation`` case checks the relation on a small grid first and
    records it in the report.  The summand (a row over m = 0..n-1), the
    certificate (m = 0..n-1) and the companion (m = 0..n), each of
    (numerator, denominator) pairs, are injectable for negative controls.
    """
    return run_units("certificate", certificate_units(n_max, summand, r, companion))
