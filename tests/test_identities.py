"""Tests for the bounded-part partition sums and the constant-term route."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodenums.identities import (
    binom_general,
    bracket_power,
    claim1_sum,
    claim2_ct,
    claim2_sum,
    part_power,
    partition_sum_main,
    shifted_binomial_sum,
    size_mass,
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


def falling_factorial_binomial(y, k):
    """C(y, k) as the falling factorial y(y-1)...(y-k+1) over k!."""
    num = 1
    for j in range(k):
        num *= y - j
    value, rem = divmod(num, factorial(k))
    assert rem == 0
    return value


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(0, 40))
def test_binom_general_is_the_falling_factorial_over_k_factorial(y, k):
    assert binom_general(y, k) == falling_factorial_binomial(y, k)


def test_binom_general_refuses_a_negative_lower_index():
    with pytest.raises(ValueError, match="k must be >= 0"):
        binom_general(3, -1)


# ---------------------------------------------------------------------------
# the partition sums


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(1, 3))
def test_part_power_counts_words(length, a):
    # Each multiplicity vector m stands for the multinomial(L; m) words of
    # length L over the parts 1..2a that use part k exactly m_k times, so
    # entry s of P^L counts the (2a)^L words of sum s, by brute force.
    counts = [0] * (2 * a * length + 1)
    for word in product(range(1, 2 * a + 1), repeat=length):
        counts[sum(word)] += 1
    assert part_power(length, a) == counts


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
    # the paper's summand in Fractions, over its denominator |l|+n+1, per
    # size: the weights (n - m_2a) multinomial(n; m) of size s add up to
    # n [z^s] P^n - n [z^(s-2a)] P^(n-1)
    for n in range(1, 31):
        for a in range(1, 7):
            shifted = [0] * (2 * a) + part_power(n - 1, a)
            weights = [n * (c - d) for c, d in zip(part_power(n, a), shifted)]
            reference = -sum(
                (-1) ** s * w * Fraction(comb(s + n + 1, s + 1), s + n + 1)
                for s, w in enumerate(weights)
            )
            assert partition_sum_main(n, a) == reference == a ** (n - 1)


# ---------------------------------------------------------------------------
# references for the one binomial kernel: the paper's specialized forms,
# whose lower index moves with the size, and partition_sum_main as one loop


def lower_index_sum(mass, n, shift):
    """Sum over sizes s of mass[s] C(s+shift+n, s+shift+1): the paper's
    eq32 at shift 0 on the size mass of length n, and its eq33 at shift 2a
    on the size mass of length n-1."""
    return sum(m * binom_general(s + shift + n, s + shift + 1) for s, m in enumerate(mass))


def single_loop_main(n, a):
    """partition_sum_main as one loop over the sizes s of the combined mass,
    with the lower index s+1 of the paper's form."""
    shifted = [0] * (2 * a) + size_mass(n - 1, a)
    masses = zip(size_mass(n, a), shifted)
    return -sum((m - d) * comb(s + n, s + 1) for s, (m, d) in enumerate(masses))


def test_the_lower_index_forms_are_the_shifted_kernel():
    for n in range(1, 25):
        for a in range(1, 7):
            claim1, claim2 = size_mass(n, a), size_mass(n - 1, a)
            assert lower_index_sum(claim1, n, 0) == shifted_binomial_sum(claim1, n, 0) == 0
            eq33 = lower_index_sum(claim2, n, 2 * a)
            assert eq33 == shifted_binomial_sum(claim2, n, 2 * a) == a ** (n - 1)
            for shift in range(3 * a + 3):
                for mass in (claim1, claim2):
                    assert lower_index_sum(mass, n, shift) == shifted_binomial_sum(mass, n, shift)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 40), st.booleans())
def test_a_lower_index_form_is_the_shifted_kernel_at_any_shift(n, a, shift, claim2):
    mass = size_mass(n - claim2, a)
    assert lower_index_sum(mass, n, shift) == shifted_binomial_sum(mass, n, shift)


def test_main_sum_is_the_single_loop():
    for n in range(1, 40):
        for a in range(1, 6):
            assert partition_sum_main(n, a) == single_loop_main(n, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80), st.integers(1, 20))
def test_main_sum_is_the_single_loop_at_any_point(n, a):
    assert partition_sum_main(n, a) == single_loop_main(n, a) == a ** (n - 1)


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


def test_bracket_power_is_the_truncated_power_of_the_bracket():
    # the bracket expanded in full, (1+z)^k by Pascal's rule, and raised to
    # the (n-1)-th power without truncating; bracket_power keeps z^0..z^(n-1)
    assert bracket_power(3, 1) == [0, 0, 1]  # (z + z^2)^2
    for n in range(1, 7):
        for a in (1, 2, 3):
            bracket, binomial = [0] * (2 * a + 1), [1]
            for k in range(1, 2 * a + 1):
                binomial = [x + y for x, y in zip(binomial + [0], [0] + binomial)]
                for j, c in enumerate(binomial):
                    bracket[j] += (-1) ** k * c
            power = [1]
            for _ in range(n - 1):
                full = [0] * (len(power) + len(bracket) - 1)
                for i, p in enumerate(power):
                    for j, b in enumerate(bracket):
                        full[i + j] += p * b
                power = full
            assert bracket_power(n, a) == power[:n], (n, a)


def test_ct_matches_enumeration():
    for n in range(1, 6):
        for a in (1, 2):
            for x in range(0, n + 1):
                assert claim2_ct(n, a, x) == claim2_sum(n, a, x)


def test_ct_rejects_negative_x():
    with pytest.raises(ValueError):
        claim2_ct(2, 1, -1)
