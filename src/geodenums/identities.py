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
coefficients of P^L by (-1)^|lambda|, and ``shifted_binomial_sum`` dots that
mass with one binomial per size.

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
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, lcm


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
    up to the z^|l| coefficient of n P^n - n z^(2a) P^(n-1); each size
    contributes a numerator over the least common denominator of the
    |l|+n+1, |l| <= 2an.  The sum always clears to the integer a^(n-1), and
    the denominator is asserted to divide it.
    """
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    sizes = range(2 * a * n + 1)
    den = lcm(*(size + n + 1 for size in sizes))
    # The term depends on |l| through one integer per size, scaled to den.
    scaled = [comb(size + n + 1, size + 1) * (den // (size + n + 1)) for size in sizes]
    # z^(2a) keeps the sign of each size, since 2a is even.
    shifted = [0] * (2 * a) + size_mass(n - 1, a)
    total = -n * sum((m - s) * c for m, s, c in zip(size_mass(n, a), shifted, scaled))
    value, rem = divmod(total, den)
    if rem:
        from fractions import Fraction

        raise ArithmeticError(
            f"sum for n={n}, a={a} is not an integer: {Fraction(total, den)}"
        )
    return value


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
