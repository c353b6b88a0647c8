"""Alternating partition sums over bounded-part partitions.

A partition with parts bounded by 2a is encoded by its multiplicity vector
(m_1, ..., m_2a): size |lambda| = sum k*m_k, length l(lambda) = sum m_k.
Every sum below depends on the vector only through |lambda| and m_2a, and
is computed in two steps:

  * the tally: ``partition_tally(length, a)`` is the one walk over all
    partitions of fixed length and bounded part; it adds up the multinomial
    weights per (|lambda|, m_2a), in integers;
  * the combine: ``alternating_partition_sum`` evaluates a term once per
    nonzero group of a tally; where the term depends on the size alone,
    ``size_mass`` folds the tally into one signed mass per size and
    ``shifted_binomial_sum`` dots that mass with one binomial per size.

A tally depends on (length, a) only, so a caller that checks many sums of
one (n, a) walks once per length: the ``claims`` suite of the CLI builds
the size masses of the length-n and length-(n-1) tallies once per (n, a);
every claim1 and eq32 case reads the first, every claim2 and eq33 case the
second, and its ct cases share one ``bracket_power``.  Each sum evaluates
to a strikingly simple value:

  * partition_sum_main(n, a)  -> a^(n-1)
  * claim1_sum(n, a, x)       -> 0           (any integer x)
  * claim2_sum(n, a, x)       -> a^(n-1)     (any integer x)
  * claim2_ct(n, a, x)        -> the same value via constant-term extraction,
                                 an independent route that never enumerates
                                 partitions: the z^(n-1) coefficient of
                                 (1+z)^(n+x) times ``bracket_power(n, a)``,
                                 a power that does not depend on x, kept as
                                 a plain list of integer coefficients

Both claim sums are polynomials of degree <= n-1 in x, so checking n or more
distinct integer points certifies the polynomial identity itself; the x
arguments are plain integers, never symbols.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable

# tally[size][m_2a]: the multinomial mass of the vectors in that group.
Tally = list[list[int]]


def binom_general(y: int, k: int) -> int:
    """Binomial C(y, k) for any integer y (possibly negative), via the
    falling factorial y(y-1)...(y-k+1) / k!."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    num = 1
    for j in range(k):
        num *= y - j
    value, rem = divmod(num, factorial(k))
    if rem:
        raise ArithmeticError(f"falling factorial of {y} over {k}! did not divide")
    return value


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def partition_tally(length: int, a: int) -> Tally:
    """The multinomial weights of the partitions with `length` parts, each at
    most 2a, added up per group (|l|, m_2a): entry [size][m_2a] is the sum of
    multinomial(length; m) over the vectors m of that size and last entry.

    One recursive walk over the slots visits the vectors in ascending
    lexicographic order, as ``iter_exponents(2a, length)`` yields them.  It
    carries the running size and the multinomial as the product of
    binomials C(length, m_1) C(length - m_1, m_2) ...; within a slot the
    binomial C(left, h) is stepped exactly, C(left, h+1) = C(left, h) (left-h)
    / (h+1), and checked to reach C(left, left) = 1.  Slot 2a-1 closes each
    vector, since m_2a = left - h, so a vector costs one stepped binomial and
    one integer add.  A negative length has no partitions: its tally is empty."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if length < 0:
        return []
    top = 2 * a
    close = top - 2  # the slot of part 2a-1, which also fixes m_2a
    tally = [[0] * (length + 1) for _ in range(top * length + 1)]

    def walk(slot: int, left: int, size: int, weight: int) -> None:
        binom = weight
        if slot == close:
            # m_{2a-1} = h and m_2a = left - h add 2a left - h to the size.
            size += top * left
            for h in range(left):
                tally[size - h][left - h] += binom
                binom = binom * (left - h) // (h + 1)
        else:
            for h in range(left):
                walk(slot + 1, left - h, size + (slot + 1) * h, binom)
                binom = binom * (left - h) // (h + 1)
        if binom != weight:
            raise ArithmeticError(f"stepped C({left}, {left}) did not come back to 1")
        if slot == close:
            tally[size - left][0] += binom
        else:
            walk(slot + 1, 0, size + (slot + 1) * left, binom)

    walk(0, length, 0, 1)
    return tally


def alternating_partition_sum(
    length: int, a: int, term: Callable[[int, int], int | Fraction]
) -> int | Fraction:
    """Sum over the partitions with `length` parts, each at most 2a, of

        (-1)^|l| multinomial(length; m) term(|l|, m_2a)

    where m = (m_1, ..., m_2a) is the multiplicity vector and |l| = sum k*m_k:
    the tally of ``partition_tally``, combined by calling `term` once per
    nonzero group (|l|, m_2a)."""
    total: int | Fraction = 0
    for size, row in enumerate(partition_tally(length, a)):
        for m_last, mass in enumerate(row):
            if mass:
                value = mass * term(size, m_last)
                total += -value if size % 2 else value
    return total


def size_mass(tally: Tally) -> list[int]:
    """The signed mass per size: entry |l| is (-1)^|l| times the multinomial
    weight of all vectors of that size, whatever their m_2a."""
    return [_sign(size) * sum(row) for size, row in enumerate(tally)]


def shifted_binomial_sum(mass: list[int], n: int, x: int) -> int:
    """Sum over sizes |l| of mass[|l|] C(|l|+n+x, n-1): the claim sum at shift
    x read off a ``size_mass``, one binomial per nonzero mass."""
    return sum(m * binom_general(size + n + x, n - 1) for size, m in enumerate(mass) if m)


def partition_sum_main(n: int, a: int) -> int:
    """Alternating sum over partitions of length n with parts <= 2a of

        (-1)^(1+|l|) (n - m_2a) multinomial(n; m) C(|l|+n+1, |l|+1) / (|l|+n+1)

    in integers: each term is a numerator over the least common denominator
    of the |l|+n+1, |l| <= 2an, evaluated once per (|l|, m_2a) group of the
    walk.  The sum always clears to the integer a^(n-1), and the denominator
    is asserted to divide it.
    """
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    sizes = range(2 * a * n + 1)
    den = lcm(*(size + n + 1 for size in sizes))
    # The term depends on |l| through one integer per size, scaled to den.
    scaled = [comb(size + n + 1, size + 1) * (den // (size + n + 1)) for size in sizes]
    total = alternating_partition_sum(n, a, lambda size, m_last: -(n - m_last) * scaled[size])
    value, rem = divmod(total, den)
    if rem:
        raise ArithmeticError(
            f"sum for n={n}, a={a} is not an integer: {Fraction(total, den)}"
        )
    return value


def claim1_sum(n: int, a: int, x: int) -> int:
    """Sum over partitions of length n, parts <= 2a, of
    (-1)^|l| multinomial(n; m) C(|l|+n+x, n-1); identically zero."""
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    return shifted_binomial_sum(size_mass(partition_tally(n, a)), n, x)


def claim2_sum(n: int, a: int, x: int) -> int:
    """Sum over partitions of length n-1, parts <= 2a, of
    (-1)^|l| multinomial(n-1; m) C(|l|+n+x, n-1); identically a^(n-1)."""
    if n < 1 or a < 1:
        raise ValueError("n and a must be positive")
    return shifted_binomial_sum(size_mass(partition_tally(n - 1, a)), n, x)


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
