"""Tests for the bounded-part partition sums and the constant-term route."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodenums.identities import (
    alternating_partition_sum,
    binom_general,
    claim1_sum,
    claim2_ct,
    claim2_sum,
    partition_sum_main,
)
from geodenums.mpoly import iter_exponents


# ---------------------------------------------------------------------------
# binomial helpers


def test_binom_general_matches_comb_for_nonnegative():
    for y in range(10):
        for k in range(6):
            assert binom_general(y, k) == comb(y, k)


def test_binom_general_negative_upper():
    assert binom_general(-1, 2) == 1
    assert binom_general(-2, 3) == -4
    assert binom_general(-1, 0) == 1
    # C(-y, k) = (-1)^k C(y+k-1, k)
    for y in range(1, 6):
        for k in range(5):
            assert binom_general(-y, k) == (-1) ** k * comb(y + k - 1, k)


# ---------------------------------------------------------------------------
# the partition sums


def _word_sum(length, a, term):
    """The partition sum by brute force.  Each multiplicity vector m stands
    for the multinomial(L; m) words of length L over the parts 1..2a that
    use part k exactly m_k times, so the sum is a plain sum over all (2a)^L
    words, each keyed by its size and its count of the part 2a."""
    total = 0
    for word in product(range(1, 2 * a + 1), repeat=length):
        size = sum(word)
        total += (-1) ** size * term(size, word.count(2 * a))
    return total


def test_alternating_partition_sum_matches_words():
    def term(size, m_last):
        return (size + 1) ** 2 * (1 + m_last) - 3 * m_last**2

    for length in range(4):
        for a in (1, 2):
            assert alternating_partition_sum(length, a, term) == _word_sum(length, a, term)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.integers(1, 3), st.data())
def test_alternating_partition_sum_matches_words_for_any_term(length, a, data):
    # The term is an arbitrary function of (|l|, m_2a): each value is drawn
    # the first time it is asked for, an integer or a Fraction.
    values = {}
    draws = st.integers(-10**12, 10**12) | st.fractions(max_denominator=10**6)

    def term(size, m_last):
        if (size, m_last) not in values:
            values[size, m_last] = data.draw(draws)
        return values[size, m_last]

    assert alternating_partition_sum(length, a, term) == _word_sum(length, a, term)


def _multinomial(m):
    value, left = 1, sum(m)
    for part in m:
        value *= comb(left, part)
        left -= part
    return value


def _vector_sum(length, a, term):
    """The partition sum evaluated vector by vector in Fractions: the sum
    over every multiplicity vector m of (-1)^|l| multinomial(length; m)
    term(m, |l|)."""
    total = Fraction(0)
    for m in iter_exponents(2 * a, length):
        size = sum((k + 1) * mk for k, mk in enumerate(m))
        total += (-1) ** size * _multinomial(m) * Fraction(term(m, size))
    return total


def test_sums_match_a_per_vector_fraction_evaluation():
    for n in range(1, 7):
        for a in (1, 2, 3):
            main = -_vector_sum(
                n, a, lambda m, s: (n - m[-1]) * Fraction(comb(s + n + 1, s + 1), s + n + 1)
            )
            assert partition_sum_main(n, a) == main
            for x in range(-2, n + 1):
                def shifted(m, s, x=x):
                    return binom_general(s + n + x, n - 1)

                assert claim1_sum(n, a, x) == _vector_sum(n, a, shifted)
                assert claim2_sum(n, a, x) == _vector_sum(n - 1, a, shifted)


def test_main_sum_small_values():
    assert partition_sum_main(1, 1) == 1
    assert partition_sum_main(3, 2) == 4
    assert partition_sum_main(4, 3) == 27


def test_main_sum_grid():
    for n in range(1, 6):
        for a in (1, 2):
            assert partition_sum_main(n, a) == a ** (n - 1)


def test_claim1_vanishes():
    assert claim1_sum(2, 1, 5) == 0
    assert claim1_sum(3, 2, -1) == 0
    for n in range(1, 6):
        for a in (1, 2):
            for x in range(-2, n + 1):
                assert claim1_sum(n, a, x) == 0


def test_claim2_constant_value():
    assert claim2_sum(1, 3, 9) == 1
    assert claim2_sum(3, 2, 0) == 4
    for n in range(1, 6):
        for a in (1, 2):
            for x in range(-2, n + 1):
                assert claim2_sum(n, a, x) == a ** (n - 1)


def test_claim_chain_alternating_sum_vanishes():
    # splitting the length-n sum by which part is removed telescopes into an
    # alternating sum of 2a equal values
    for n in range(2, 5):
        for a in (1, 2):
            for x in (-1, 0, 2):
                total = sum(
                    (-1) ** i * claim2_sum(n, a, x + i) for i in range(1, 2 * a + 1)
                )
                assert total == 0


# ---------------------------------------------------------------------------
# constant-term route


def test_ct_examples():
    assert claim2_ct(2, 1, 0) == 1
    assert claim2_ct(3, 2, 1) == 4
    for a in (1, 2, 3):
        for x in (0, 1, 5):
            assert claim2_ct(1, a, x) == 1


def test_ct_matches_enumeration():
    for n in range(1, 6):
        for a in (1, 2):
            for x in range(0, n + 1):
                assert claim2_ct(n, a, x) == claim2_sum(n, a, x)


def test_ct_rejects_negative_x():
    with pytest.raises(ValueError):
        claim2_ct(2, 1, -1)
