"""Telescoping (WZ-style) verification of the alternating binomial sums.

The divisibility of the hyper-Catalan layers by t_1 + ... + t_r reduces to
alternating binomial identities; each comes with a companion function whose
difference telescopes the sum away.  This module evaluates summands and
companions over exact rationals and checks the telescoping relations
pointwise on large grids.  No tolerance appears anywhere: every equality is
exact or the check fails.

The pair in two variables:

    F1(n,k) = (-1)^k C(n,k) C(2n+1+k, n+1+k) / (2n+1+k)
    H1(n,k) = -F1(n,k) * k(n+1+k) / (n(2n+1))
    relation F1(n,k) = H1(n,k+1) - H1(n,k), hence sum_k F1(n,k) = 0.

The generalized pair (parameter a >= 2; a = 2 reproduces the above):

    F2(a,n,k) = (-1)^k C(n,k) C(an+1+k, (a-1)n+1+k) / (an+1+k)
    H2(a,n,k) = -F2(a,n,k) * k((a-1)n+1+k) / (n(an+1))

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
from math import comb
from typing import Callable

from .report import VerifyReport, run_case

ORIENT_F_DIFFERENCE = "F(n+1,m)-F(n,m) = G(n,m+1)-G(n,m)"


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def F1(n: int, k: int) -> Fraction:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    return Fraction(_sign(k) * comb(n, k) * comb(2 * n + 1 + k, n + 1 + k), 2 * n + 1 + k)


def H1(n: int, k: int) -> Fraction:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k == 0 or k > n:
        # k = 0 kills the k factor; k > n kills C(n,k) inside F1's formula.
        return Fraction(0)
    return -F1(n, k) * Fraction(k * (n + 1 + k), n * (2 * n + 1))


def F2(a: int, n: int, k: int) -> Fraction:
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got k={k}")
    return Fraction(
        _sign(k) * comb(n, k) * comb(a * n + 1 + k, (a - 1) * n + 1 + k), a * n + 1 + k
    )


def H2(a: int, n: int, k: int) -> Fraction:
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k == 0 or k > n:
        return Fraction(0)
    return -F2(a, n, k) * Fraction(k * ((a - 1) * n + 1 + k), n * (a * n + 1))


def _check_pair(
    report: VerifyReport,
    n_max: int,
    f: Callable[[int, int], Fraction],
    h: Callable[[int, int], Fraction],
    extra: Callable[[int], tuple[bool, str]] | None = None,
) -> VerifyReport:
    for n in range(1, n_max + 1):
        def check(n=n) -> tuple[bool, str]:
            frow = [f(n, k) for k in range(n + 1)]
            hrow = [h(n, k) for k in range(n + 2)]
            for k in range(n + 1):
                if frow[k] != hrow[k + 1] - hrow[k]:
                    return False, (
                        f"pair relation broken at k={k}: F={frow[k]}, "
                        f"H(k+1)-H(k)={hrow[k + 1] - hrow[k]}"
                    )
            total = sum(frow)
            if total != 0:
                return False, f"telescoped sum is {total}, not 0"
            if extra is not None:
                ok, msg = extra(n)
                if not ok:
                    return False, msg
            return True, "pair relation and telescoped sum hold"
        run_case(report, f"n={n:03d}", {"n": n}, "telescoping holds, sum = 0", check)
    return report


def check_wz1(n_max: int, f: Callable = F1, h: Callable = H1) -> VerifyReport:
    """Verify F1(n,k) = H1(n,k+1) - H1(n,k) and the vanishing sum for every
    n <= n_max, 0 <= k <= n.  f and h are injectable for negative controls."""
    return _check_pair(VerifyReport("wz1"), n_max, f, h)


def check_wz2(a: int, n_max: int, f: Callable = F2, h: Callable = H2) -> VerifyReport:
    """Same checks for the generalized pair; at a = 2 additionally asserts
    coincidence with the two-variable pair."""
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    extra = None
    if a == 2:
        def extra(n: int) -> tuple[bool, str]:
            for k in range(n + 1):
                if f(2, n, k) != F1(n, k):
                    return False, f"a=2 summand differs from two-variable pair at k={k}"
            return True, ""
    fa = lambda n, k: f(a, n, k)
    ha = lambda n, k: h(a, n, k)
    return _check_pair(VerifyReport(f"wz2[a={a}]"), n_max, fa, ha, extra)


def certificate_R(n: int, m: int) -> Fraction:
    """The telescoping certificate; undefined at m = n (zero denominator)."""
    if m == n:
        raise ZeroDivisionError("certificate has a pole at m = n")
    return Fraction(
        m * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6),
        2 * (2 * n + 3) * (n + 1) * (n - m),
    )


def certificate_summand(n: int, m: int) -> Fraction:
    """F^(n,m); vanishes for m >= n through C(n-1,m)."""
    return Fraction(_sign(n - 1 - m) * comb(n - 1, m) * comb(2 * n + 1 + m, n + 1 + m), 2 * n + 1)


def certificate_companion(n: int, m: int) -> Fraction:
    """R(n,m) * F^(n,m) with the removable pole at m = n cancelled.

    Equals R * F^ exactly for 0 <= m <= n-1 and extends it to m = n, where
    the plain product is 0 * infinity; the extension is what telescopes.
    """
    num = (
        _sign(n - 1 - m)
        * m
        * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6)
        * comb(n, m)
        * comb(2 * n + 1 + m, n + 1 + m)
    )
    return Fraction(num, 2 * n * (2 * n + 3) * (n + 1) * (2 * n + 1))


def _relation_holds(
    n: int,
    summand: Callable[[int, int], Fraction],
    companion: Callable[[int, int], Fraction],
) -> tuple[bool, str]:
    """The telescoping relation ORIENT_F_DIFFERENCE at n, for 0 <= m < n."""
    for m in range(n):
        lhs = summand(n + 1, m) - summand(n, m)
        rhs = companion(n, m + 1) - companion(n, m)
        if lhs != rhs:
            return False, f"relation broken at m={m}: lhs={lhs}, rhs={rhs}"
    return True, ""


def check_certificate_R(
    n_max: int,
    companion: Callable[[int, int], Fraction] | None = None,
) -> VerifyReport:
    """Verify the certificate on 1 <= n <= n_max.

    Per n: (i) the sum of F^(n,m) over 0 <= m <= n-1 equals 1; (ii) the
    telescoping relation ORIENT_F_DIFFERENCE holds.  The ``orientation``
    case checks that relation on a small grid first and records it in the
    report.  With the default companion, also asserts companion = R * F^
    pointwise on the range where R is defined.
    """
    report = VerifyReport("certificate")
    default_companion = companion is None
    comp = certificate_companion if default_companion else companion

    def orientation_case() -> tuple[bool, str]:
        for n in range(1, min(n_max, 6) + 1):
            ok, msg = _relation_holds(n, certificate_summand, comp)
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
            total = sum(certificate_summand(n, m) for m in range(n))
            if total != 1:
                return False, f"target sum is {total}, not 1"
            ok, msg = _relation_holds(n, certificate_summand, comp)
            if not ok:
                return False, msg
            if default_companion:
                for m in range(n):
                    if comp(n, m) != certificate_R(n, m) * certificate_summand(n, m):
                        return False, f"companion differs from R*F at m={m}"
            return True, "sum = 1 and the relation telescopes"
        run_case(report, f"n={n:03d}", {"n": n}, "sum = 1, relation holds", check)
    return report

