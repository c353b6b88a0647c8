"""Telescoping (WZ-style) kernels for the alternating binomial sums.

The divisibility of the hyper-Catalan layers by t_1 + ... + t_r reduces to
alternating binomial identities; each comes with a companion function whose
difference telescopes the sum away.  This module builds the rows and checks
the telescoping relations pointwise, in exact integers, and ``verify`` runs
them on large grids.  No tolerance appears anywhere: every equality is exact
or the check fails.

Every grid has one shape: a summand row F, a certificate row R over F's
support, and one boundary value, which is H(n, n+1) = 0 for the pair.
Each row function, given n (and a), returns the whole row over k (or m)
as its integer numerators and one integer denominator, a ``Row``; only
the certificate's R, whose (n - m) pole gives each entry a denominator of
its own, returns a list of denominators beside its numerators, a
``PoleRow``, and its boundary value is one (numerator, denominator)
``Ratio``.  Every summand is one call of one row builder, ``_row``:

    (-1)^(j+parity) C(p, j) C(q+j, b+j),   j = 0..count-1,

with p, q and b fixed by (a, n); the row's function puts them over its
one denominator.  It starts the signed product of the two binomials from
math.comb and steps it to entry j by their exact ratio

    (p-j+1)(q+j) / (j(b+j)),

one small-int multiply and one exact divide per entry, the sign flipped
by the small factor; it checks the signed last entry against math.comb,
so no row can drift from the closed form.  The R rows are typed as they
are printed below, the certificate's numerator grouped by powers of m.

Two loops check the relations, each on numerators only.  ``_telescopes``
checks a pair: with F = f_k / d and R = r_k / d_R over one denominator
each, the companion H = R * F has the numerators h_k = r_k f_k over d_R d,
and F(k) = H(k+1) - H(k) reads f_k d_R = h_(k+1) - h_k, checked as
f_k (d_R + r_k) = h_(k+1); the last entry reads the boundary value 0.
``_cert_telescopes`` checks the certificate, whose R keeps a denominator
per m: it groups the small factors of each entry first, so each entry
costs three products of a numerator by a small int (the formula is in
its docstring).  A summand row is summed by adding its numerators, and a
failure prints its ratios in lowest terms through ``_ratio``, with no
Fraction.  A zero denominator would make both sides of a cross-multiplied
relation 0, so a grid that reads one is an error, never a pass; so is a
row of the wrong length, and a row description that does not return the
shape of its row (``_require``).  This module holds only these kernels
and ``row_work``, which prices a summand row with the passes a grid unit
makes over it; the grid units, one per n, and ``check_wz1``,
``check_wz2`` and ``check_certificate_R``, which run them, are
``verify``'s.

The paper's summands of its two pairs carry a denominator that moves
with k, N = an+1+k.  The lower index of their second binomial is
N - n, so C(N, N-n) / N = C(N, n) / N = C(N-1, n-1) / n, and

    C(an+1+k, (a-1)n+1+k) / (an+1+k) = C(an+k, (a-1)n+1+k) / n:

``_f2`` builds the right-hand form, whose rows share the one
denominator n.  The relation and the zero sum of a pair hold for c * F,
any nonzero c, so ``verify`` pins F(n, 0) against the left-hand form.
The certificate's summand has the one denominator 2n+1 as the paper
writes it.

The generalized pair (parameter a >= 2, lhs = F_2):

    F_2(a,n,k) = (-1)^k C(n,k) C(an+1+k, (a-1)n+1+k) / (an+1+k)
               = (-1)^k C(n,k) C(an+k, (a-1)n+1+k) / n
    R_2(a,n,k) = -k((a-1)n+1+k) / (n(an+1)),   H_2 = R_2 * F_2,   H_2(a,n,n+1) = 0
    relation F_2(a,n,k) = H_2(a,n,k+1) - H_2(a,n,k), hence sum_k F_2(a,n,k) = 0.

The paper's pair in two variables is this pair at a = 2, F_1(n,k) =
F_2(2,n,k) and R_1(n,k) = -k(n+1+k) / (n(2n+1)) = R_2(2,n,k), so it is
built and checked as ``_f2(2, n)`` and ``_r2(2, n)``.

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

from math import comb, gcd

ORIENT_F_DIFFERENCE = "F(n+1,m)-F(n,m) = G(n,m+1)-G(n,m)"

# An exact rational as an integer (numerator, denominator) pair, not reduced.
Ratio = tuple[int, int]
# A row of exact rationals as its integer numerators over one denominator.
Row = tuple[list[int], int]
# A row of exact rationals as its integer numerators over one denominator each.
PoleRow = tuple[list[int], list[int]]


# ---------------------------------------------------------------------------
# the descriptions: each formula is typed here once, as a row over k or m


def _row(parity: int, p: int, q: int, b: int, count: int) -> list[int]:
    """(-1)^(j+parity) C(p, j) C(q+j, b+j) for j = 0..count-1: the
    numerators of every summand, each row over one denominator.

    The signed numerator starts at (-1)^parity C(q, b) and steps to entry
    j by the exact ratio -(p-j+1)(q+j) / (j(b+j)) of neighbouring entries,
    its sign taken by the small factor; every division is exact.  The
    last entry is checked against math.comb, so a row cannot drift from
    the closed form."""
    if count < 1:
        return []
    value = (-1) ** parity * comb(q, b)
    row = [value]
    for j in range(1, count):
        value = value * ((j - 1 - p) * (q + j)) // (j * (b + j))
        row.append(value)
    last = count - 1
    closed = (-1) ** (last + parity) * comb(p, last) * comb(q + last, b + last)
    if value != closed:
        raise ArithmeticError(f"stepped row reached {value} at j={last}, not {closed}")
    return row


def _f2(a: int, n: int) -> Row:
    """F_2(a, n, k) for k = 0..n, over the one denominator n."""
    return _row(0, n, a * n, (a - 1) * n + 1, n + 1), n


def _r2(a: int, n: int) -> Row:
    """R_2(a, n, k) for k = 0..n, over the one denominator n(an+1)."""
    shift = (a - 1) * n + 1
    return [-k * (shift + k) for k in range(n + 1)], n * (a * n + 1)


def _cert_summand(n: int) -> Row:
    """F^(n, m) for m = 0..n-1, its support, over the one denominator 2n+1."""
    return _row(n - 1, n - 1, 2 * n + 1, n + 1, n), 2 * n + 1


def _cert_R(n: int) -> PoleRow:
    """R(n, m) for m = 0..n-1, each over its own denominator; m = n is its
    pole."""
    # 8mn + 10n^2 + 6m + 15n + 6 = slope m + rest
    slope, rest = 8 * n + 6, 10 * n * n + 15 * n + 6
    common = 2 * (2 * n + 3) * (n + 1)
    return [m * (slope * m + rest) for m in range(n)], [common * (n - m) for m in range(n)]


def _cert_boundary(n: int) -> Ratio:
    """G^(n, n), the cancelled limit of R * F^ at m = n."""
    return -3 * (3 * n + 2) * comb(3 * n + 1, 2 * n + 1), 2 * (2 * n + 3) * (n + 1)


# ---------------------------------------------------------------------------
# the grid checks


def _require(row: Row | PoleRow, length: int, per_entry: bool = False) -> Row | PoleRow:
    """Refuse a row description that is not a pair of numerators and one
    int denominator (a list of them, one per entry, if `per_entry`), a row
    of the wrong length, which would leave points unchecked, and a zero
    denominator, which would make both sides of every cross-multiplied
    relation that reads it 0, a pass that checks nothing."""
    shape = list if per_entry else int
    if not (isinstance(row, tuple) and len(row) == 2 and isinstance(row[1], shape)):
        what = "denominators" if per_entry else "denominator"
        raise TypeError(f"grid row is not a (numerators, {what}) pair")
    nums, den = row
    dens = den if per_entry else (den,)
    if len(nums) != length or per_entry and len(dens) != length:
        raise ValueError(f"grid row has {len(nums)} entries, not {length}")
    if 0 in dens:
        raise ZeroDivisionError("zero denominator in a grid row")
    return row


def _boundary(boundary: Ratio) -> Ratio:
    """Refuse a boundary value over 0, as ``_require`` refuses a row."""
    if not boundary[1]:
        raise ZeroDivisionError("zero denominator in the boundary value")
    return boundary


def _telescopes(f: Row, r: Row) -> str | None:
    """None if F(k) = H(k+1) - H(k) for every k, where the companion H is
    R * F entry by entry and H(n, n+1) = 0 past the last; otherwise the
    first break.

    With F = f_k / d and R = r_k / d_R, H has the numerators h_k = r_k f_k
    over d_R d, and the relation reads f_k d_R = h_(k+1) - h_k, checked as
    f_k (d_R + r_k) = h_(k+1); the last, h_(n+1) = 0, reads
    f_n (d_R + r_n) = 0."""
    nums, den = f
    rnums, rden = r
    left = [fn * (rden + rn) for fn, rn in zip(nums, rnums)]
    h = [rn * fn for fn, rn in zip(nums, rnums)]
    h.append(0)
    if left == h[1:]:
        return None
    k = next(k for k in range(len(left)) if left[k] != h[k + 1])
    lhs, rhs = _ratio(nums[k], den), _ratio(h[k + 1] - h[k], rden * den)
    return f"pair relation broken at k={k}: F={lhs}, H(k+1)-H(k)={rhs}"


def _cert_telescopes(f: Row, f_next: Row, r: PoleRow, boundary: Ratio) -> str | None:
    """None if F^(n+1, m) - F^(n, m) = G(m+1) - G(m) for every m < n, where
    the companion G is R * F^ entry by entry and then the boundary value;
    otherwise the first break.

    With F^(n, m) = f_m / d, F^(n+1, m) = g_m / e and R(n, m) = u_m / v_m,
    G(m) = x_m u_m / (d v_m) for x_m = f_m and, at m = n, for x_n = b,
    u_n = d and v_n = c, the boundary b / c.  Multiplied by e d v_m
    v_(m+1), the relation reads

        g_m (d v_m v_(m+1)) - f_m (e v_(m+1) (v_m - u_m))
            = x_(m+1) (e u_(m+1) v_m),

    the small factors grouped first."""
    nums, d = f
    next_nums, e = f_next
    top, bottom = _boundary(boundary)
    us, vs = r[0] + [d], r[1] + [bottom]
    xs = nums[1:] + [top]
    left = [
        g * (d * v * v1) - fm * (e * v1 * (v - u))
        for g, fm, u, v, v1 in zip(next_nums, nums, us, vs, vs[1:])
    ]
    right = [x * (e * u1 * v) for x, u1, v in zip(xs, us[1:], vs)]
    if left == right:
        return None
    m = next(m for m, (one, other) in enumerate(zip(left, right)) if one != other)
    lhs = _ratio(next_nums[m] * d - nums[m] * e, e * d)
    rhs = _ratio(xs[m] * us[m + 1] * vs[m] - nums[m] * us[m] * vs[m + 1], d * vs[m + 1] * vs[m])
    return f"relation broken at m={m}: lhs={lhs}, rhs={rhs}"


def _ratio(p: int, q: int) -> str:
    """p / q in lowest terms as ``str(Fraction(p, q))`` prints it: "p/q"
    with q > 0, or "p" when q divides p.  Failure messages print their
    ratios through it, so a negative control, which fails on every pass,
    does not import ``fractions``."""
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    p, q = p // g, q // g
    return f"{p}/{q}" if q != 1 else str(p)


def row_work(a: int, n: int) -> int:
    """Estimated work of a grid unit's summand row F_2(a, n, k), k = 0..n,
    with the passes the unit makes over it, in the units of
    ``hypercat.solve_work``: its stepping by ``_row``, its certificate row,
    the relation on its numerators and their sum.

    Each of the n + 1 entries takes a few small-int products and exact
    divisions of its numerator, C(n, k) C(an+k, n-1) < 2^n (an + n)^n, and
    a few products of it by short ints; each counts 48.  A numerator has at
    most T = n (bit_length(an + n) + bit_length(a) + 3) bits, and the
    estimate adds T^2 / 4096, about the digit products of one product of
    two T-bit ints.  The unit multiplies no two numerators, as its
    relation and its sum read them over one denominator, so every pass
    over them is linear in T and this term is headroom.  Each unit counts
    192, with the pin of F(n, 0), one math.comb as large as the row's
    first.  The certificate's F^(n, m), n entries below those of
    F_2(2, n), is priced as F_2(2, n); a certificate unit builds two of
    them.  Calibration, at 90 ns a unit: in process on one CPU of a
    2-core VM with Python 3.11, best of fifteen in each of two runs, a whole
    ``wz1`` or ``wz2`` unit run through ``report.run_units`` took at most
    0.62 of the estimate's time for n = 1-800 and a = 2-10^9 (0.68 when
    the relation cross-multiplied every entry), and a ``certificate`` unit
    at most 0.38 of its two rows'."""
    t = n * ((a * n + n).bit_length() + a.bit_length() + 3)
    return 192 + 48 * n + t * t // 4096
