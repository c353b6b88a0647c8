"""Alternating partition sums over bounded-part partitions.

A partition with parts bounded by 2a is encoded by its multiplicity vector
(m_1, ..., m_2a): size |lambda| = sum k*m_k, length l(lambda) = sum m_k.
Every sum below weighs a vector by multinomial(L; m) and depends on it only
through |lambda| and m_2a, so none of them enumerates a partition.  By the
multinomial theorem, with P = z + z^2 + ... + z^(2a),

    sum over the vectors m of length L of multinomial(L; m) z^|lambda|  =  P^L,

so the weight of all vectors of one size is a coefficient of P^L
(``part_power``), and the weight with the factor m_2a is a coefficient of
L z^(2a) P^(L-1), since j C(L, j) = L C(L-1, j-1).  ``size_mass`` signs the
coefficients of P^L by (-1)^|lambda|, and ``shifted_binomial_sum`` dots a
mass with one binomial per size, the kernel of every sum here: the claim
sums read one size mass, and ``partition_sum_main`` (eq31) the combined
mass M_n - z^(2a) M_(n-1) of the lengths n and n-1 at shift 0.

A power depends on (L, a) only, so a caller that checks many sums of one
(n, a) raises P once per length: the ``claims`` suite of the CLI builds the
size masses of lengths n and n-1 once per (n, a); every claim1 and eq32
case reads the first, every claim2 and eq33 case the second, and its ct
cases share one ``bracket_power``.  Each sum evaluates to a strikingly
simple value:

  * partition_sum_main(n, a)  -> a^(n-1)
  * claim1_sum(n, a, x)       -> 0           (any integer x)
  * claim2_sum(n, a, x)       -> a^(n-1)     (any integer x)
  * claim2_ct(n, a, x)        -> the same value via constant-term extraction,
                                 an independent route that never forms P:
                                 the z^(n-1) coefficient of (1+z)^(n+x) times
                                 ``bracket_power(n, a)``, a power that does
                                 not depend on x, kept as a plain list of
                                 integer coefficients

Both claim sums are polynomials of degree <= n-1 in x, so checking n or more
distinct integer points certifies the polynomial identity itself; the x
arguments are plain integers, never symbols.

Each kernel a ``verify`` unit calls has a cost function at the end of this
module (``partition_sum_work`` and the others), in the units of
``hypercat.solve_work``.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb


def binom_general(y: int, k: int) -> int:
    """Binomial C(y, k) = y(y-1)...(y-k+1) / k! for any integer y: comb(y,
    k) for y >= 0, and by upper negation (-1)^k comb(k - y - 1, k) for
    y < 0."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if y >= 0:
        return comb(y, k)
    return _sign(k) * comb(k - y - 1, k)


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def part_power(length: int, a: int) -> list[int]:
    """The coefficients of P^length, P = z + z^2 + ... + z^(2a): entry s is
    the sum of multinomial(length; m) over the multiplicity vectors m with
    `length` parts, each at most 2a, and size s.  Each factor P is one
    sliding-window sum, a prefix sum and one subtraction per coefficient.
    A negative length has no partitions: its list is empty."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if length < 0:
        return []
    top = 2 * a
    power = [1]
    for _ in range(length):
        # entry s of power * P is prefix[min(s, len)] - prefix[max(s - top, 0)]
        prefix = list(accumulate(power, initial=0))
        highs, lows = prefix + prefix[-1:] * (top - 1), [0] * top + prefix[:-1]
        power = [high - low for high, low in zip(highs, lows)]
    return power


def size_mass(length: int, a: int) -> list[int]:
    """The signed mass per size: entry |l| is (-1)^|l| times the multinomial
    weight of all vectors of that size, the coefficients of ``part_power``."""
    return [_sign(size) * c for size, c in enumerate(part_power(length, a))]


def shifted_binomial_sum(mass: list[int], n: int, x: int) -> int:
    """Sum over sizes |l| of mass[|l|] C(|l|+n+x, n-1): the claim sum at shift
    x read off a ``size_mass``, one binomial per nonzero mass."""
    return sum(m * binom_general(size + n + x, n - 1) for size, m in enumerate(mass) if m)


def partition_sum_main(n: int, a: int) -> int:
    """Alternating sum over partitions of length n with parts <= 2a of

        (-1)^(1+|l|) (n - m_2a) multinomial(n; m) C(|l|+n+1, |l|+1) / (|l|+n+1)

    in integers.  The weights (n - m_2a) multinomial(n; m) of one size add
    up to the z^|l| coefficient of n P^n - n z^(2a) P^(n-1).  The lower
    index |l|+1 is n below the upper, so C(|l|+n+1, |l|+1) / (|l|+n+1) =
    C(|l|+n, |l|+1) / n, and the factor n of the weights cancels it: with
    M_L the signed size masses of length L (``size_mass``), the sum is

        -sum over sizes s of (M_n[s] - M_(n-1)[s-2a]) C(s+n, s+1),

    a sum of integers with no division, which always comes to a^(n-1).
    Since C(s+n, s+1) = C(s+n, n-1), it is ``shifted_binomial_sum`` of the
    combined mass at x = 0.
    """
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    # z^(2a) keeps the sign of each size, since 2a is even.
    shifted = [0] * (2 * a) + size_mass(n - 1, a)
    return -shifted_binomial_sum([m - s for m, s in zip(size_mass(n, a), shifted)], n, 0)


def claim1_sum(n: int, a: int, x: int) -> int:
    """Sum over partitions of length n, parts <= 2a, of
    (-1)^|l| multinomial(n; m) C(|l|+n+x, n-1); identically zero."""
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    return shifted_binomial_sum(size_mass(n, a), n, x)


def claim2_sum(n: int, a: int, x: int) -> int:
    """Sum over partitions of length n-1, parts <= 2a, of
    (-1)^|l| multinomial(n-1; m) C(|l|+n+x, n-1); identically a^(n-1)."""
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    return shifted_binomial_sum(size_mass(n - 1, a), n, x)


def bracket_power(n: int, a: int) -> list[int]:
    """The coefficients of (-(1+z) + (1+z)^2 - ... + (1+z)^(2a))^(n-1)
    through z^(n-1): entry j is the z^j coefficient, by n-1 products of
    integer lists (``_truncated_product``) from the constant 1."""
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    top = n - 1
    bracket = [sum(_sign(k) * comb(k, j) for k in range(1, 2 * a + 1)) for j in range(top + 1)]
    power = [1] + [0] * top
    for _ in range(top):
        power = _truncated_product(power, bracket)
    return power


def _truncated_product(p: list[int], q: list[int]) -> list[int]:
    """The product of two coefficient lists of one length, truncated to
    that length: entry j is sum over i <= j of p[i] q[j-i]."""
    return [sum(p[i] * q[j - i] for i in range(j + 1)) for j in range(len(p))]


def ct_coefficient(power: list[int], n: int, x: int) -> int:
    """The z^(n-1) coefficient of (1+z)^(n+x) times `power`, the
    ``bracket_power`` of some a: sum over j of C(n+x, j) power[n-1-j].
    Needs x >= 0 so that every factor stays polynomial."""
    if x < 0:
        raise ValueError(f"constant-term route needs x >= 0, got {x}")
    top = n - 1
    return sum(comb(n + x, j) * power[top - j] for j in range(top + 1))


def claim2_ct(n: int, a: int, x: int) -> int:
    """claim2_sum via constant-term extraction: the constant term of

        (1+z)^(n+x) * (-(1+z) + (1+z)^2 - ... + (1+z)^(2a))^(n-1) / z^(n-1)

    i.e. the z^(n-1) coefficient of the numerator polynomial, from the
    coefficient list of the bracket's power through z^(n-1).  Needs x >= 0
    so that every factor stays polynomial.
    """
    return ct_coefficient(bracket_power(n, a), n, x)


# ---------------------------------------------------------------------------
# the work of the kernels above, for the guard of ``geodenums verify``
#
# Each estimate is in the units of ``hypercat.solve_work``, the slowest of
# which takes about 90 ns on one CPU of a 2-core VM with Python 3.11, and is
# calibrated there (each kernel timed in process, best of five, over the
# grids the suites reach) so that none of its units takes longer.  Each is
# a polynomial in its arguments and their bit lengths, so it answers at
# once for any int.


def size_mass_work(length: int, a: int) -> int:
    """Estimated work of ``size_mass(length, a)``.

    ``part_power`` raises P = z + ... + z^(2a) one factor at a time, and
    factor i writes a prefix sum, two shifted copies and their difference
    over about 2a i entries, so the `length` factors and the sign pass
    touch about E = a length (length + 3) + 1 entries.  Each entry counts
    2, each factor 16 and each call 96.  Every entry is below
    (2a)^length, a few machine words at the lengths a suite reaches, so
    its length adds nothing measurable.  Calibration: at most 0.78 of the
    estimate's time at lengths 0-80 and a = 1-100."""
    length = max(length, 0)
    return 96 + 16 * length + 2 * (a * length * (length + 3) + 1)


def partition_sum_work(n: int, a: int) -> int:
    """Estimated work of ``partition_sum_main(n, a)``.

    Its two size masses (``size_mass_work``) and, for each of the S = 2an
    + 1 sizes, a binomial C(|l|+n, n-1) of n - 1 factors and a product
    with a mass.  A size counts 16 plus N (10 + n) / 1024, N = S + n, the
    length of an N-bit operand times the binomial's factors, and a call
    64 more; the binomials and masses are shorter than N bits, so the
    second term is headroom.  Calibration: in process on one CPU, best of
    five, at most 0.54 of the estimate's time from (1, 1) to (136, 3),
    (3, 153) and (10, 1000); at (60, 10), 10 ms, 0.41 of it."""
    sizes = 2 * a * n + 1
    top = sizes + n
    rest = 64 + sizes * (16 + top * (10 + n) // 1024)
    return size_mass_work(n, a) + size_mass_work(n - 1, a) + rest


def bracket_power_work(n: int, a: int) -> int:
    """Estimated work of ``bracket_power(n, a)``.

    The bracket's n coefficients sum 2a binomials C(k, j), j < n, each of
    at most j factors, about a n (n + 1) multiplications; its n - 1
    truncated products take n (n + 1) / 2 products of coefficients each.
    A binomial factor counts 3/4 and a coefficient product 4, on top of 8
    per bracket term and 96 per call.  Calibration: at most 0.67 of the
    estimate's time for n = 1-60, a = 1-10000."""
    return 96 + a * n * (8 + 3 * n // 4) + 2 * n**3


def ct_coefficient_work(m: int, a: int, n: int, x: int) -> int:
    """Estimated work of ``ct_coefficient(power, n, x)``, with `power`
    the value of ``bracket_power(m, a)``.

    n binomials C(n+x, j) and n products with coefficients of the bracket
    power, of at most m bit_length(2a) + n + |x| bits; each counts 4 plus
    1/64 per bit, and a call 48.  Calibration: at most 0.67 of the
    estimate's time for n = 1-60, x = 0..n, a = 1-10000."""
    bits = m * (2 * a).bit_length() + n + abs(x)
    return 48 + n * (4 + bits // 64)


def binomial_sum_work(length: int, a: int, n: int, x: int) -> int:
    """Estimated work of ``shifted_binomial_sum(mass, n, x)``, with `mass`
    the value of ``size_mass(length, a)``.

    Each of the S = 2a length + 1 masses is multiplied by one binomial
    with n - 1 as its smaller index (C(y, k) = C(y, y - k)), of at most R
    = n bit_length(top / n + 1) bits, top = S + n + |x| its largest upper
    index; a mass has at most M = length bit_length(2a) bits.  An entry
    counts 6, plus M / 24 and R M / 2048 for the product, and a call 32.
    Calibration: at most 0.76 of the estimate's time for n = 1-60, length
    n - 1 and n, a = 1-1000."""
    length = max(length, 0)
    sizes = 2 * a * length + 1
    top = sizes + n + abs(x)
    binomial = n * (top // n + 1).bit_length()
    weight = length * (2 * a).bit_length()
    return 32 + sizes * (6 + weight // 24 + binomial * weight // 2048)
