"""Telescoping (WZ-style) kernels for the alternating binomial sums.

The divisibility of the hyper-Catalan layers by t_1 + ... + t_r reduces to
alternating binomial identities; each comes with a companion function whose
difference telescopes the sum away.  This module builds the rows and checks
the telescoping relations pointwise, in exact integers, and ``verify`` runs
them on large grids.  No tolerance appears anywhere: every equality is exact
or the check fails.

Every grid has one shape: a summand row F, a certificate row R over F's
support, and one boundary value.  Each row function, given n (and a),
returns the integer (numerator, denominator) pairs of the whole row over k
(or m).  Every summand is one call of one row builder, ``_row``:

    (-1)^(j+parity) C(p, j) C(q+j, b+j) / den,   j = 0..count-1,

with p, q, b and den fixed by (a, n): the entries of one summand row
share one denominator.  It starts the signed product of the two
binomials from math.comb and steps it by their exact ratio

    (p-j)(q+j+1) / ((j+1)(b+j+1)),

one small-int multiply and one exact divide per entry, flipping the sign
as it goes; it checks the signed last entry against math.comb, so no row
can drift from the closed form.  The R rows are typed as they are
printed below.

One loop, ``_telescopes``, checks every grid.  It forms the companion
C = R * F entry by entry, appends the boundary value, and checks
lhs(j) = C(j+1) - C(j) by cross-multiplying.  A summand row is summed by
adding its numerators over its one denominator (``_row_sum``), and a
Fraction is built only to print a failure.  A zero denominator would make
both sides of a cross-multiplied relation 0, so a grid that reads one is
an error, never a pass; so is a row of the wrong length, and a summand
row whose entries do not share one denominator.  This module holds only
these kernels and ``row_work``, which prices a summand row with the
passes a grid unit makes over it; the grid units, one per n, and
``check_wz1``, ``check_wz2`` and ``check_certificate_R``, which run them,
are ``verify``'s.

The paper's summands of the two pairs below carry a denominator that
moves with k, N = an+1+k.  The lower index of their second binomial is
N - n, so C(N, N-n) / N = C(N, n) / N = C(N-1, n-1) / n, and

    C(an+1+k, (a-1)n+1+k) / (an+1+k) = C(an+k, (a-1)n+1+k) / n:

``_f1`` and ``_f2`` build the right-hand form, whose rows share the one
denominator n.  The certificate's summand has the one denominator 2n+1
as the paper writes it.

The pair in two variables (lhs = F_1, boundary H_1(n, n+1) = 0):

    F_1(n,k) = (-1)^k C(n,k) C(2n+1+k, n+1+k) / (2n+1+k)
             = (-1)^k C(n,k) C(2n+k, n+1+k) / n
    R_1(n,k) = -k(n+1+k) / (n(2n+1)),   H_1 = R_1 * F_1,   H_1(n,n+1) = 0
    relation F_1(n,k) = H_1(n,k+1) - H_1(n,k), hence sum_k F_1(n,k) = 0.

The generalized pair (parameter a >= 2; a = 2 reproduces the above):

    F_2(a,n,k) = (-1)^k C(n,k) C(an+1+k, (a-1)n+1+k) / (an+1+k)
               = (-1)^k C(n,k) C(an+k, (a-1)n+1+k) / n
    R_2(a,n,k) = -k((a-1)n+1+k) / (n(an+1)),   H_2 = R_2 * F_2

The certificate check: the sum of

    F^(n,m) = (-1)^(n-1-m) C(n-1,m) C(2n+1+m, n+1+m) / (2n+1)

over 0 <= m <= n-1 equals 1 for every n, certified by

    R(n,m) = m(8mn + 10n^2 + 6m + 15n + 6) / (2(2n+3)(n+1)(n-m)),

with lhs(m) = F^(n+1,m) - F^(n,m) for m < n and companion G^ = R * F^.
G^ has a removable singularity at m = n, where R has its pole: the (n-m)
pole cancels against the zero of C(n-1,m), since C(n-1,m)/(n-m) =
C(n,m)/n.  At m = n the cancelled product's numerator factor is
n(18n^2 + 21n + 6) = 3n(3n+2)(2n+1) and C(n,n) = 1, so the boundary is

    G^(n,n) = -3(3n+2) C(3n+1, 2n+1) / (2(2n+3)(n+1)),

generally nonzero (G^(2,2) = -12); only this extension lets the relation
telescope at m = n-1.
"""

from __future__ import annotations

from math import comb

ORIENT_F_DIFFERENCE = "F(n+1,m)-F(n,m) = G(n,m+1)-G(n,m)"

# An exact rational as an integer (numerator, denominator) pair, not reduced.
Ratio = tuple[int, int]


# ---------------------------------------------------------------------------
# the descriptions: each formula is typed here once, as a row over k or m


def _row(parity: int, p: int, q: int, b: int, den: int, count: int) -> list[Ratio]:
    """(-1)^(j+parity) C(p, j) C(q+j, b+j) / den for j = 0..count-1: the
    one shape of every summand, over one denominator.

    The signed numerator starts at (-1)^parity C(q, b) and steps by the
    exact ratio -(p-j)(q+j+1) / ((j+1)(b+j+1)) of neighbouring entries;
    every division is exact.  The last entry is checked against math.comb,
    so a row cannot drift from the closed form."""
    if count < 1:
        return []
    value = (-1) ** parity * comb(q, b)
    row = [(value, den)]
    for j in range(count - 1):
        value = -value * ((p - j) * (q + j + 1)) // ((j + 1) * (b + j + 1))
        row.append((value, den))
    last = count - 1
    closed = (-1) ** (last + parity) * comb(p, last) * comb(q + last, b + last)
    if value != closed:
        raise ArithmeticError(f"stepped row reached {value} at j={last}, not {closed}")
    return row


def _f1(n: int) -> list[Ratio]:
    """F_1(n, k) for k = 0..n, over the one denominator n."""
    return _row(0, n, 2 * n, n + 1, n, n + 1)


def _r1(n: int) -> list[Ratio]:
    """R_1(n, k) for k = 0..n."""
    return [(-k * (n + 1 + k), n * (2 * n + 1)) for k in range(n + 1)]


def _f2(a: int, n: int) -> list[Ratio]:
    """F_2(a, n, k) for k = 0..n, over the one denominator n."""
    return _row(0, n, a * n, (a - 1) * n + 1, n, n + 1)


def _r2(a: int, n: int) -> list[Ratio]:
    """R_2(a, n, k) for k = 0..n."""
    return [(-k * ((a - 1) * n + 1 + k), n * (a * n + 1)) for k in range(n + 1)]


def _cert_summand(n: int) -> list[Ratio]:
    """F^(n, m) for m = 0..n-1, its support."""
    return _row(n - 1, n - 1, 2 * n + 1, n + 1, 2 * n + 1, n)


def _cert_R(n: int) -> list[Ratio]:
    """R(n, m) for m = 0..n-1; m = n is its pole."""
    return [
        (
            m * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6),
            2 * (2 * n + 3) * (n + 1) * (n - m),
        )
        for m in range(n)
    ]


def _cert_boundary(n: int) -> Ratio:
    """G^(n, n), the cancelled limit of R * F^ at m = n."""
    return -3 * (3 * n + 2) * comb(3 * n + 1, 2 * n + 1), 2 * (2 * n + 3) * (n + 1)


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


def _row_sum(row: list[Ratio]) -> Ratio:
    """The sum of a summand row as one unreduced (numerator, denominator)
    pair: its numerators added over its one denominator, (0, 1) for an
    empty row.  A row whose entries do not share one denominator is
    refused; no summand row has two."""
    dens = {den for _, den in row} or {1}
    if len(dens) > 1:
        raise ValueError("summand row has more than one denominator")
    (den,) = dens
    return sum([num for num, _ in row]), den


def _telescopes(
    lhs: list[Ratio], f: list[Ratio], r: list[Ratio], boundary: Ratio, template: str
) -> str | None:
    """None if lhs(j) = C(j+1) - C(j) for every j, where the companion C is
    R * F entry by entry and then the boundary value; otherwise the first
    break, as ``template`` fills it in."""
    if not boundary[1]:
        raise ZeroDivisionError("zero denominator in the boundary value")
    companion = [(rn * fn, rd * fd) for (fn, fd), (rn, rd) in zip(f, r)]
    companion.append(boundary)
    for j, (ln, ld) in enumerate(lhs):
        (an, ad), (bn, bd) = companion[j], companion[j + 1]
        if ln * ad * bd != (bn * ad - an * bd) * ld:
            from fractions import Fraction

            rhs = Fraction(bn, bd) - Fraction(an, ad)
            return template.format(j=j, lhs=Fraction(ln, ld), rhs=rhs)
    return None


def row_work(a: int, n: int) -> int:
    """Estimated work of a grid unit's summand row F_2(a, n, k), k = 0..n,
    with the passes the unit makes over it, in the units of
    ``hypercat.solve_work``: its stepping by ``_row``, its certificate row
    and companion, the cross-multiplied relation and the sum of its
    numerators.

    Each of the n + 1 entries takes a few small-int products and exact
    divisions of its numerator, C(n, k) C(an+k, n-1) < 2^n (an + n)^n, and
    a few products of it by short ints; each counts 48.  A numerator has at
    most T = n (bit_length(an + n) + bit_length(a) + 3) bits, and the
    estimate adds T^2 / 4096, about the digit products of one product of
    two T-bit ints.  The unit multiplies no two numerators, as its sum
    adds them over one denominator, so every pass over them is linear in
    T and this term is headroom.  Each unit counts 192.
    F_1(n) is F_2(2, n), and the certificate's F^(n, m), n entries below
    those of F_1(n), is priced as F_1(n); a certificate unit builds two of
    them.  Calibration: in process on one CPU of a 2-core VM with Python
    3.11, best of five, whole ``wz1`` and ``wz2`` units took at most 0.57
    of the estimate's time for n = 1-800 and a = 2-10^9, and a
    ``certificate`` unit at most 0.33 of its two rows'."""
    t = n * ((a * n + n).bit_length() + a.bit_length() + 3)
    return 192 + 48 * n + t * t // 4096
