"""Telescoping (WZ-style) verification of the alternating binomial sums.

The divisibility of the hyper-Catalan layers by t_1 + ... + t_r reduces to
alternating binomial identities; each comes with a companion function whose
difference telescopes the sum away.  This module checks the telescoping
relations pointwise on large grids, in exact integers.  No tolerance appears
anywhere: every equality is exact or the check fails.

Each pair is described once, as a summand F and a rational certificate R,
each a function returning an integer (numerator, denominator) pair.  A grid
check computes F once per point and forms the companion H = R * F from it;
it checks every relation by cross-multiplying and every sum over a common
denominator, and builds a Fraction only to print a failure.  A zero
denominator would make both sides of a cross-multiplied relation 0, so a
grid that reads one is an error, never a pass.  The public F1, H1, F2, H2,
certificate_R, certificate_summand and certificate_companion return the
same descriptions as Fractions.

The pair in two variables:

    F1(n,k) = (-1)^k C(n,k) C(2n+1+k, n+1+k) / (2n+1+k)
    R1(n,k) = -k(n+1+k) / (n(2n+1)),   H1 = R1 * F1,   H1(n,n+1) = 0
    relation F1(n,k) = H1(n,k+1) - H1(n,k), hence sum_k F1(n,k) = 0.

The generalized pair (parameter a >= 2; a = 2 reproduces the above):

    F2(a,n,k) = (-1)^k C(n,k) C(an+1+k, (a-1)n+1+k) / (an+1+k)
    R2(a,n,k) = -k((a-1)n+1+k) / (n(an+1)),   H2 = R2 * F2

The certificate check: the sum of

    F^(n,m) = (-1)^(n-1-m) C(n-1,m) C(2n+1+m, n+1+m) / (2n+1)

over 0 <= m <= n-1 equals 1 for every n, certified by

    R(n,m) = m(8mn + 10n^2 + 6m + 15n + 6) / (2(2n+3)(n+1)(n-m)).

The companion G^ = R * F^ has a removable singularity at m = n: the (n-m)
pole cancels against the zero of C(n-1,m) since C(n-1,m)/(n-m) = C(n,m)/n.
``certificate_companion`` is that cancelled form, defined for all m in
[0, n], which is what makes the telescoping relation hold on the full range.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Callable

from .report import VerifyReport, run_case

ORIENT_F_DIFFERENCE = "F(n+1,m)-F(n,m) = G(n,m+1)-G(n,m)"

# An exact rational as an integer (numerator, denominator) pair, not reduced.
Ratio = tuple[int, int]


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


# ---------------------------------------------------------------------------
# the descriptions: each formula is typed here once


def _f1(n: int, k: int) -> Ratio:
    return _sign(k) * comb(n, k) * comb(2 * n + 1 + k, n + 1 + k), 2 * n + 1 + k


def _r1(n: int, k: int) -> Ratio:
    return -k * (n + 1 + k), n * (2 * n + 1)


def _f2(a: int, n: int, k: int) -> Ratio:
    return (
        _sign(k) * comb(n, k) * comb(a * n + 1 + k, (a - 1) * n + 1 + k),
        a * n + 1 + k,
    )


def _r2(a: int, n: int, k: int) -> Ratio:
    return -k * ((a - 1) * n + 1 + k), n * (a * n + 1)


def _cert_summand(n: int, m: int) -> Ratio:
    return _sign(n - 1 - m) * comb(n - 1, m) * comb(2 * n + 1 + m, n + 1 + m), 2 * n + 1


def _cert_R(n: int, m: int) -> Ratio:
    return (
        m * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6),
        2 * (2 * n + 3) * (n + 1) * (n - m),
    )


def _cert_companion(n: int, m: int) -> Ratio:
    num = (
        _sign(n - 1 - m)
        * m
        * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6)
        * comb(n, m)
        * comb(2 * n + 1 + m, n + 1 + m)
    )
    return num, 2 * n * (2 * n + 3) * (n + 1) * (2 * n + 1)


# ---------------------------------------------------------------------------
# the public values, as Fractions


def F1(n: int, k: int) -> Fraction:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    return Fraction(*_f1(n, k))


def H1(n: int, k: int) -> Fraction:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k > n:
        # C(n,k) vanishes in F1's formula; H1(n, n+1) = 0 closes the telescope.
        return Fraction(0)
    return Fraction(*_r1(n, k)) * F1(n, k)


def F2(a: int, n: int, k: int) -> Fraction:
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    return Fraction(*_f2(a, n, k))


def H2(a: int, n: int, k: int) -> Fraction:
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k > n:
        return Fraction(0)
    return Fraction(*_r2(a, n, k)) * F2(a, n, k)


def certificate_R(n: int, m: int) -> Fraction:
    """The telescoping certificate; undefined at m = n (zero denominator)."""
    if m == n:
        raise ZeroDivisionError("certificate has a pole at m = n")
    return Fraction(*_cert_R(n, m))


def certificate_summand(n: int, m: int) -> Fraction:
    """F^(n,m); vanishes for m >= n through C(n-1,m)."""
    return Fraction(*_cert_summand(n, m))


def certificate_companion(n: int, m: int) -> Fraction:
    """R(n,m) * F^(n,m) with the removable pole at m = n cancelled.

    Equals R * F^ exactly for 0 <= m <= n-1 and extends it to m = n, where
    the plain product is 0 * infinity; the extension is what telescopes.
    """
    return Fraction(*_cert_companion(n, m))


# ---------------------------------------------------------------------------
# the grid checks


def _require_denominators(*rows: list[Ratio]) -> None:
    """Refuse a zero denominator: it would make both sides of every
    cross-multiplied relation that reads it 0, a pass that checks nothing."""
    for row in rows:
        for index, (_, den) in enumerate(row):
            if not den:
                raise ZeroDivisionError(f"zero denominator at index {index} of a grid row")


def _row_sum(row: list[Ratio]) -> Ratio:
    """The sum of a row of ratios over their least common denominator."""
    den = lcm(*(d for _, d in row))
    return sum(num * (den // d) for num, d in row), den


def _check_pair(
    report: VerifyReport,
    n_max: int,
    f: Callable[[int, int], Ratio],
    r: Callable[[int, int], Ratio],
    extra: Callable[[int, list[Ratio]], tuple[bool, str]] | None = None,
) -> VerifyReport:
    for n in range(1, n_max + 1):
        def check(n=n) -> tuple[bool, str]:
            frow = [f(n, k) for k in range(n + 1)]
            rrow = [r(n, k) for k in range(n + 1)]
            _require_denominators(frow, rrow)
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
    return report


def check_wz1(
    n_max: int,
    f: Callable[[int, int], Ratio] = _f1,
    r: Callable[[int, int], Ratio] = _r1,
) -> VerifyReport:
    """Verify F1(n,k) = H1(n,k+1) - H1(n,k) and the vanishing sum for every
    n <= n_max, 0 <= k <= n.  The summand f and certificate r, each giving
    (numerator, denominator), are injectable for negative controls."""
    return _check_pair(VerifyReport("wz1"), n_max, f, r)


def check_wz2(
    a: int,
    n_max: int,
    f: Callable[[int, int, int], Ratio] = _f2,
    r: Callable[[int, int, int], Ratio] = _r2,
) -> VerifyReport:
    """Same checks for the generalized pair; at a = 2 additionally asserts
    coincidence with the two-variable pair."""
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    extra = None
    if a == 2:
        def extra(n: int, frow: list[Ratio]) -> tuple[bool, str]:
            for k, (fn, fd) in enumerate(frow):
                gn, gd = _f1(n, k)
                if fn * gd != gn * fd:
                    return False, f"a=2 summand differs from two-variable pair at k={k}"
            return True, ""
    fa = lambda n, k: f(a, n, k)
    ra = lambda n, k: r(a, n, k)
    return _check_pair(VerifyReport(f"wz2[a={a}]"), n_max, fa, ra, extra)


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


def check_certificate_R(
    n_max: int,
    summand: Callable[[int, int], Ratio] = _cert_summand,
    r: Callable[[int, int], Ratio] = _cert_R,
    companion: Callable[[int, int], Ratio] = _cert_companion,
) -> VerifyReport:
    """Verify the certificate on 1 <= n <= n_max.

    Per n: (i) the sum of F^(n,m) over 0 <= m <= n-1 equals 1; (ii) the
    telescoping relation ORIENT_F_DIFFERENCE holds; (iii) the companion
    equals R * F^ on 0 <= m <= n-1, where R is defined.  The
    ``orientation`` case checks the relation on a small grid first and
    records it in the report.  The summand, certificate and companion,
    each giving (numerator, denominator), are injectable for negative
    controls.
    """
    report = VerifyReport("certificate")

    def rows(n: int) -> tuple[list[Ratio], list[Ratio], list[Ratio]]:
        f_n = [summand(n, m) for m in range(n)]
        f_next = [summand(n + 1, m) for m in range(n)]
        g_n = [companion(n, m) for m in range(n + 1)]
        _require_denominators(f_n, f_next, g_n)
        return f_n, f_next, g_n

    def orientation_case() -> tuple[bool, str]:
        for n in range(1, min(n_max, 6) + 1):
            ok, msg = _relation_holds(n, *rows(n))
            if not ok:
                return False, msg
        return True, ORIENT_F_DIFFERENCE

    run_case(
        report,
        "orientation",
        {},
        "one standard orientation telescopes",
        orientation_case,
    )

    for n in range(1, n_max + 1):
        def check(n=n) -> tuple[bool, str]:
            f_n, f_next, g_n = rows(n)
            r_n = [r(n, m) for m in range(n)]
            _require_denominators(r_n)
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
    return report
