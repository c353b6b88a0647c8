"""Tests for the telescoping-pair and certificate checkers."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodenums import wz
from geodenums.geode import geode_closed_2var
from geodenums.verify import _flipped, check_certificate_R, check_wz1, check_wz2
from geodenums.wz import ORIENT_F_DIFFERENCE


def _values(row):
    """A row of (numerator, denominator) pairs as Fractions."""
    return [Fraction(*entry) for entry in row]


def _h1(n):
    """H(n, k) = R(n, k) F(n, k) of the two-variable pair, for k = 0..n."""
    return [r * f for r, f in zip(_values(wz._r1(n)), _values(wz._f1(n)))]


def _raised(row, at):
    """The row description raised by 1 at the one point `at`, whose last
    entry is the index into the row named by the others."""
    *where, index = at

    def raised(*args):
        values = row(*args)
        if list(args) == where:
            num, den = values[index]
            values[index] = (num + den, den)
        return values
    return raised


def _zeroed_on_diagonal(row):
    """The row description set to 0 at index n (k = n or m = n)."""
    def zeroed(*args):
        values = row(*args)
        values[args[-1]] = (0, 1)
        return values
    return zeroed


def _zero_over_zero(row, at):
    """The row description with 0/0 at the one point `at`.  Cross-multiplying
    turns both sides of every relation that reads it into 0."""
    *where, index = at

    def broken(*args):
        values = row(*args)
        if list(args) == where:
            values[index] = (0, 0)
        return values
    return broken


def _row_reference(parity, p, q, b, den, count):
    """The row shape of ``wz._row``, each entry from math.comb."""
    return [
        ((-1) ** (j + parity) * comb(p, j) * comb(q + j, b + j), den) for j in range(count)
    ]


def test_binomial_rows_match_comb():
    for p in range(9):
        for top in range(9):
            for bottom in range(11):
                for count in range(7):
                    for parity in (0, 1):
                        args = (parity, p, top, bottom, 3, count)
                        assert wz._row(*args) == _row_reference(*args)
    # the second binomial of F_2 at the largest --a of `verify wz2`
    for a in (2, 3, 999, 1000):
        for n in (1, 7, 60):
            args = (0, n, a * n, (a - 1) * n + 1, n, n + 1)
            assert wz._row(*args) == _row_reference(*args)


@pytest.mark.parametrize("top, bottom, top_step", [(10, 0, 0), (21, 11, 1), (5001, 4001, 1)])
def test_binomial_row_that_drifts_is_refused(monkeypatch, top, bottom, top_step):
    # a row of 11 entries whose stepped binomial is C(top + top_step j,
    # bottom + j): C(p, j) when top_step is 0 (bottom 0), C(q+j, b+j) when
    # it is 1; math.comb moved by one at that binomial's last entry is a
    # closed form the stepped row no longer reaches
    p, q, b = (top, 0, 0) if top_step == 0 else (10, top, bottom)
    assert wz._row(0, p, q, b, 1, 11) == _row_reference(0, p, q, b, 1, 11)
    last = (top + 10 * top_step, bottom + 10)
    monkeypatch.setattr(wz, "comb", lambda t, k: comb(t, k) + ((t, k) == last))
    with pytest.raises(ArithmeticError, match="stepped row"):
        wz._row(0, p, q, b, 1, 11)


def test_summand_rows_match_their_closed_forms():
    # the paper's forms, whose denominators move with k
    def f(a, n, k):
        return Fraction(
            (-1) ** k * comb(n, k) * comb(a * n + 1 + k, (a - 1) * n + 1 + k), a * n + 1 + k
        )

    for n in range(1, 61):
        assert _values(wz._f1(n)) == [f(2, n, k) for k in range(n + 1)]
        for a in (2, 3, 999, 1000):
            assert _values(wz._f2(a, n)) == [f(a, n, k) for k in range(n + 1)]
        assert _values(wz._cert_summand(n)) == [
            Fraction(
                (-1) ** (n - 1 - m) * comb(n - 1, m) * comb(2 * n + 1 + m, n + 1 + m), 2 * n + 1
            )
            for m in range(n)
        ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=40),
    st.integers(-(10**12), 10**12).filter(bool),
)
@example([], 7)
def test_row_sum_of_one_denominator_equals_the_fraction_sum(numerators, den):
    row = [(num, den) for num in numerators]
    total, row_den = wz._row_sum(row)
    assert row_den
    assert Fraction(total, row_den) == sum((Fraction(*entry) for entry in row), Fraction(0))


def _split_denominator(row):
    """The row description with its first entry over twice its denominator:
    every value is unchanged, but the row has two denominators."""

    def split(*args):
        (num, den), *rest = row(*args)
        return [(2 * num, 2 * den), *rest]

    return split


def test_a_summand_row_of_two_denominators_is_an_error_not_a_pass():
    # the values are the summand's, so every relation holds; the sum is
    # what refuses the row, on every n of more than one entry
    refused = ("error", "ValueError: summand row has more than one denominator")
    report = check_wz1(3, f=_split_denominator(wz._f1))
    assert [(case.status, case.actual) for case in report.cases] == [refused] * 3
    report = check_certificate_R(3, summand=_split_denominator(wz._cert_summand))
    assert [(case.status, case.actual) for case in report.cases] == [
        ("pass", ORIENT_F_DIFFERENCE),
        ("pass", "sum = 1 and the relation telescopes"),
        refused,
        refused,
    ]


def test_f1_values():
    assert _values(wz._f1(2)) == [2, -5, 3]
    assert sum(_values(wz._f1(2))) == 0
    assert sum(_values(wz._f1(5))) == 0


def test_f1_leading_term_positive():
    for n in range(1, 12):
        assert _values(wz._f1(n))[0] == Fraction(comb(2 * n + 1, n + 1), 2 * n + 1) > 0


def test_h1_values():
    h = _h1(2)
    assert h[1] == 2
    assert h[2] == -3
    assert _values(wz._f1(2))[1] == h[2] - h[1] == -5
    for n in range(1, 10):
        assert _h1(n)[0] == 0
    assert _h1(3)[1] == -_values(wz._f1(3))[1] * Fraction(1 * 5, 3 * 7)


def test_check_wz1_passes():
    assert check_wz1(2).all_passed()
    report = check_wz1(30)
    assert report.all_passed()
    assert report.total == 30


def test_check_wz1_negative_control():
    corrupted = check_wz1(3, r=_flipped(wz._r1))
    assert not corrupted.all_passed()
    first = corrupted.first_failure()
    assert first.params == {"n": 1}
    # the failure message, whose Fractions are built only on this path
    assert first.actual == "pair relation broken at k=0: F=1, H(k+1)-H(k)=-1"


def test_wz2_reduces_to_two_variable_pair():
    for n in range(1, 12):
        assert wz._f2(2, n) == wz._f1(n)
        assert wz._r2(2, n) == wz._r1(n)


def test_check_wz2_passes():
    assert check_wz2(2, 15).all_passed()
    assert check_wz2(3, 20).all_passed()
    assert check_wz2(5, 10).all_passed()


def test_check_wz2_negative_control():
    corrupted = check_wz2(3, 3, r=_flipped(wz._r2))
    assert not corrupted.all_passed()


def test_certificate_value():
    assert Fraction(*wz._cert_R(2)[1]) == Fraction(98, 42) == Fraction(7, 3)


def test_certificate_sum_base_case():
    assert _values(wz._cert_summand(1)) == [1]
    assert sum(_values(wz._cert_summand(4))) == 1


def _cancelled_companion(n, m):
    """G^(n, m) = R(n, m) F^(n, m) with the (n - m) pole cancelled through
    C(n-1, m) / (n - m) = C(n, m) / n, defined for 0 <= m <= n."""
    r_times_pole = Fraction(m * (8 * m * n + 10 * n * n + 6 * m + 15 * n + 6),
                            2 * (2 * n + 3) * (n + 1))
    rest = Fraction((-1) ** ((n - 1 - m) % 2) * comb(n, m) * comb(2 * n + 1 + m, n + 1 + m),
                    n * (2 * n + 1))
    return r_times_pole * rest


def test_companion_extends_r_times_summand():
    # the boundary G^(n, n) is the cancelled limit of R * F^ at m = n
    for n in range(1, 15):
        products = [r * f for r, f in zip(_values(wz._cert_R(n)), _values(wz._cert_summand(n)))]
        assert products == [_cancelled_companion(n, m) for m in range(n)]
        # F^(n, n) = 0 lies past the summand's support and R has its pole
        # there, but the cancelled product extends to m = n, generally
        # nonzero; forcing it to zero would break the relation at m = n - 1
        assert Fraction(*wz._cert_boundary(n)) == _cancelled_companion(n, n)
    assert Fraction(*wz._cert_boundary(2)) == -12


def test_check_certificate_passes_and_names_orientation():
    report = check_certificate_R(25)
    assert report.all_passed()
    orientation_cases = [c for c in report.cases if c.id == "orientation"]
    assert len(orientation_cases) == 1
    assert orientation_cases[0].actual == ORIENT_F_DIFFERENCE


def test_check_certificate_negative_control():
    corrupted = check_certificate_R(4, r=_flipped(wz._cert_R))
    assert not corrupted.all_passed()


def test_h1_quotient_layer_identity_and_geode_bridge():
    # the two-variable division expresses the degree n-1 Geode coefficients
    # through H: (-1)^i H(n, i+1) = C(n-1,i) C(2n+1+i, n+1+i) / (2n+1)
    for n in range(1, 51):
        h = _h1(n)
        for i in range(n):
            rhs = Fraction(comb(n - 1, i) * comb(2 * n + 1 + i, n + 1 + i), 2 * n + 1)
            assert (-1) ** i * h[i + 1] == rhs
    # the same quantity is the closed form for the degree n-1 layer
    for n in range(1, 13):
        for i in range(n):
            value = Fraction(comb(n - 1, i) * comb(2 * n + 1 + i, n + 1 + i), 2 * n + 1)
            assert value == geode_closed_2var(n - 1 - i, i)


# Each mutant changes one description at one point (or, for the zeroed
# companion, along k = n or m = n; the certificate's companion at m = n is
# its boundary value) and must leave a non-passing case.
MUTANTS = [
    ("wz1 summand +1", lambda: check_wz1(8, f=_raised(wz._f1, (5, 2))), "fail"),
    ("wz1 R +1", lambda: check_wz1(8, r=_raised(wz._r1, (5, 2))), "fail"),
    ("wz1 companion 0 at k=n", lambda: check_wz1(8, r=_zeroed_on_diagonal(wz._r1)), "fail"),
    ("wz1 R 0/0", lambda: check_wz1(8, r=_zero_over_zero(wz._r1, (5, 2))), "error"),
    ("wz1 summand 0/0", lambda: check_wz1(8, f=_zero_over_zero(wz._f1, (5, 2))), "error"),
    ("wz2 summand +1", lambda: check_wz2(3, 8, f=_raised(wz._f2, (3, 5, 2))), "fail"),
    ("wz2 R +1", lambda: check_wz2(3, 8, r=_raised(wz._r2, (3, 5, 2))), "fail"),
    ("wz2 companion 0 at k=n", lambda: check_wz2(3, 8, r=_zeroed_on_diagonal(wz._r2)), "fail"),
    ("wz2 R 0/0", lambda: check_wz2(3, 8, r=_zero_over_zero(wz._r2, (3, 5, 2))), "error"),
    ("wz2[a=2] summand +1", lambda: check_wz2(2, 8, f=_raised(wz._f2, (2, 5, 2))), "fail"),
    (
        "certificate summand +1",
        lambda: check_certificate_R(8, summand=_raised(wz._cert_summand, (5, 2))),
        "fail",
    ),
    ("certificate R +1", lambda: check_certificate_R(8, r=_raised(wz._cert_R, (5, 2))), "fail"),
    (
        "certificate companion 0 at m=n",
        lambda: check_certificate_R(8, boundary=lambda n: (0, 1)),
        "fail",
    ),
    (
        "certificate companion 0/0",
        lambda: check_certificate_R(
            8, boundary=lambda n: (0, 0) if n == 5 else wz._cert_boundary(n)
        ),
        "error",
    ),
    ("certificate R 0/0", lambda: check_certificate_R(8, r=_zero_over_zero(wz._cert_R, (5, 2))), "error"),
]


@pytest.mark.parametrize("name, run, status", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutated_description_leaves_a_non_passing_case(name, run, status):
    report = run()
    statuses = {case.status for case in report.cases}
    assert status in statuses, statuses
    if status == "error":
        errors = [case for case in report.cases if case.status == "error"]
        assert all("zero denominator" in case.actual for case in errors)
    else:
        assert "error" not in statuses


def test_mutants_leave_the_rest_of_the_grid_passing():
    # The one-point mutants touch n = 5 (and the certificate's relation at
    # n = 4, which reads F(5, m), and its orientation case, which reads
    # n <= 6); every other n still passes.
    report = check_wz1(8, f=_raised(wz._f1, (5, 2)))
    failures = [case for case in report.cases if case.status != "pass"]
    assert [case.params["n"] for case in failures] == [5]
    assert failures[0].actual == "pair relation broken at k=1: F=-330, H(k+1)-H(k)=-18166/55"
    report = check_certificate_R(8, r=_raised(wz._cert_R, (5, 2)))
    failures = [case for case in report.cases if case.status != "pass"]
    assert [case.id for case in failures] == ["orientation", "n=005"]
    # R(5, 2) enters the companion at m = 2, so the relation breaks at m = 1
    assert [case.actual for case in failures] == ["relation broken at m=1: lhs=1443, rhs=2145"] * 2


def test_sum_checks_catch_what_the_relations_do_not():
    # F = (1, 0, ..., 0) with H(n,0) = -1 satisfies every pair relation, but
    # its sum is 1; the sum check is what fails.
    report = check_wz1(
        3,
        f=lambda n: [(int(k == 0), 1) for k in range(n + 1)],
        r=lambda n: [(-1, 1)] * (n + 1),
    )
    assert [case.actual for case in report.cases] == ["telescoped sum is 1, not 0"] * 3
    doubled = lambda n: [(2 * num, den) for num, den in wz._cert_summand(n)]
    report = check_certificate_R(3, summand=doubled)
    assert report.cases[1].actual == "target sum is 2, not 1"


def test_a_row_of_the_wrong_length_is_an_error_not_a_pass():
    report = check_wz1(3, f=lambda n: wz._f1(n)[:-1])
    assert [(case.status, case.actual) for case in report.cases] == [
        ("error", f"ValueError: grid row has {n} entries, not {n + 1}") for n in (1, 2, 3)
    ]


def test_check_wz2_refuses_a_below_2():
    with pytest.raises(ValueError, match="need a >= 2, got 1"):
        check_wz2(1, 5)
