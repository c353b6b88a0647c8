"""Tests for the telescoping-pair and certificate checkers."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geodenums import wz
from geodenums.verify import _flipped, check_certificate_R, check_wz1, check_wz2
from geodenums.wz import ORIENT_F_DIFFERENCE
from test_geode import paper_two_variable

# The failure texts of the pair's and the certificate's relation.
PAIR_BROKEN = "pair relation broken at k={j}: F={lhs}, H(k+1)-H(k)={rhs}"
CERT_BROKEN = "relation broken at m={j}: lhs={lhs}, rhs={rhs}"


def _denominators(row):
    """The denominator of each entry of a row (numerators, denominator),
    or of the certificate's R, (numerators, denominators)."""
    nums, den = row
    return den if isinstance(den, list) else [den] * len(nums)


def _values(row):
    """A row as Fractions."""
    return [Fraction(num, den) for num, den in zip(row[0], _denominators(row))]


def _pairs(row):
    """A row as the (numerator, denominator) pairs of its entries."""
    return list(zip(row[0], _denominators(row)))


def _h1(n):
    """H(n, k) = R(n, k) F(n, k) of the two-variable pair, the generalized
    pair at a = 2, for k = 0..n."""
    return [r * f for r, f in zip(_values(wz._r2(2, n)), _values(wz._f2(2, n)))]


def _raised(row, at):
    """The row description raised by 1 at the one point `at`, whose last
    entry is the index into the row named by the others."""
    *where, index = at

    def raised(*args):
        nums, den = row(*args)
        if list(args) == where:
            nums[index] += _denominators((nums, den))[index]
        return nums, den
    return raised


def _zeroed_on_diagonal(row):
    """The row description set to 0 at index n (k = n or m = n)."""
    def zeroed(*args):
        nums, den = row(*args)
        nums[args[-1]] = 0
        return nums, den
    return zeroed


def _zero_over_zero(row, at):
    """The row description with 0/0 at the one point `at`; a row of one
    denominator puts every entry over 0 there.  Cross-multiplying turns
    both sides of every relation that reads it into 0."""
    *where, index = at

    def broken(*args):
        nums, den = row(*args)
        if list(args) != where:
            return nums, den
        nums[index] = 0
        if isinstance(den, list):
            den[index] = 0
            return nums, den
        return nums, 0
    return broken


def _row_reference(parity, p, q, b, count):
    """The numerators of ``wz._row``, each from math.comb."""
    return [(-1) ** (j + parity) * comb(p, j) * comb(q + j, b + j) for j in range(count)]


def _telescopes_reference(lhs, f, r, boundary, template):
    """The reference of ``wz._telescopes`` and ``wz._cert_telescopes``, on
    rows of (numerator, denominator) pairs: None if lhs(j) = C(j+1) - C(j)
    for every j, where the companion C is R * F entry by entry and then
    the boundary value, otherwise the first break, as ``template`` fills
    it in.  Each entry of C is cross-multiplied with its neighbour, with
    no denominator shared."""
    companion = [(rn * fn, rd * fd) for (fn, fd), (rn, rd) in zip(f, r)]
    companion.append(boundary)
    for j, (ln, ld) in enumerate(lhs):
        (an, ad), (bn, bd) = companion[j], companion[j + 1]
        if ln * ad * bd != (bn * ad - an * bd) * ld:
            rhs = Fraction(bn, bd) - Fraction(an, ad)
            return template.format(j=j, lhs=Fraction(ln, ld), rhs=rhs)
    return None


def test_binomial_rows_match_comb():
    for p in range(9):
        for top in range(9):
            for bottom in range(11):
                for count in range(7):
                    for parity in (0, 1):
                        args = (parity, p, top, bottom, count)
                        assert wz._row(*args) == _row_reference(*args)
    # the second binomial of F_2 at the largest --a of `verify wz2`
    for a in (2, 3, 999, 1000):
        for n in (1, 7, 60):
            args = (0, n, a * n, (a - 1) * n + 1, n + 1)
            assert wz._row(*args) == _row_reference(*args)


@pytest.mark.parametrize("top, bottom, top_step", [(10, 0, 0), (21, 11, 1), (5001, 4001, 1)])
def test_binomial_row_that_drifts_is_refused(monkeypatch, top, bottom, top_step):
    # a row of 11 entries whose stepped binomial is C(top + top_step j,
    # bottom + j): C(p, j) when top_step is 0 (bottom 0), C(q+j, b+j) when
    # it is 1; math.comb moved by one at that binomial's last entry is a
    # closed form the stepped row no longer reaches
    p, q, b = (top, 0, 0) if top_step == 0 else (10, top, bottom)
    assert wz._row(0, p, q, b, 11) == _row_reference(0, p, q, b, 11)
    last = (top + 10 * top_step, bottom + 10)
    monkeypatch.setattr(wz, "comb", lambda t, k: comb(t, k) + ((t, k) == last))
    with pytest.raises(ArithmeticError, match="stepped row"):
        wz._row(0, p, q, b, 11)


def test_summand_rows_match_their_closed_forms():
    # the paper's forms, whose denominators move with k
    def f(a, n, k):
        return Fraction(
            (-1) ** k * comb(n, k) * comb(a * n + 1 + k, (a - 1) * n + 1 + k), a * n + 1 + k
        )

    for n in range(1, 61):
        for a in (2, 3, 999, 1000):
            assert _values(wz._f2(a, n)) == [f(a, n, k) for k in range(n + 1)]
        assert _values(wz._cert_summand(n)) == [
            Fraction(
                (-1) ** (n - 1 - m) * comb(n - 1, m) * comb(2 * n + 1 + m, n + 1 + m), 2 * n + 1
            )
            for m in range(n)
        ]


def _as_pairs(row):
    """The row description returning the (numerator, denominator) pair of
    each entry, with every value unchanged."""
    return lambda *args: _pairs(row(*args))


def _as_pole_row(row):
    """The row description returning a denominator per entry."""
    return lambda *args: (row(*args)[0], _denominators(row(*args)))


def test_a_row_description_not_of_the_numerators_denominator_shape_is_an_error_not_a_pass():
    # the values are the rows', so every relation holds; the shape is what
    # refuses the row, on every n
    refused = ("error", "TypeError: grid row is not a (numerators, denominator) pair")
    for f in (_as_pairs(wz._f2), _as_pole_row(wz._f2)):
        report = check_wz1(3, f=f)
        assert [(case.status, case.actual) for case in report.cases] == [refused] * 3
    report = check_certificate_R(3, summand=_as_pairs(wz._cert_summand))
    assert [(case.status, case.actual) for case in report.cases] == [refused] * 4
    for r in (_as_pairs(wz._cert_R), lambda n: (wz._cert_R(n)[0], 1)):
        report = check_certificate_R(3, r=r)
        assert [(case.status, case.actual) for case in report.cases] == [
            ("error", "TypeError: grid row is not a (numerators, denominators) pair")
        ] * 4


def test_check_wz1_with_every_denominator_doubled_fails():
    # the relation and the zero sum hold for every multiple of F_1; the pin
    # of F_1(n, 0) against C(2n+1, n+1)/(2n+1) is what fails, on every n
    report = check_wz1(50, f=lambda a, n: (wz._f2(a, n)[0], 2 * n))
    assert {case.status for case in report.cases} == {"fail"}
    assert report.cases[0].actual == "F(n,0) = 1/2, not C(3,2)/3 = 1"
    assert report.cases[1].actual == "F(n,0) = 1, not C(5,3)/5 = 2"


def test_check_wz2_with_its_numerators_tripled_fails():
    tripled = lambda a, n: ([3 * num for num in wz._f2(a, n)[0]], n)
    report = check_wz2(3, 50, f=tripled)
    assert {case.status for case in report.cases} == {"fail"}
    # F_2(3, 1, 0) = C(4, 3)/4 = 1
    assert report.cases[0].actual == "F(n,0) = 3, not C(4,3)/4 = 1"


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(2, 10**9),
    st.sampled_from(["F", "R"]),
    st.integers(0, 40),
    st.integers(-(10**40), 10**40).filter(bool),
)
@example(5, 2, "F", 2, 5)
@example(5, 3, "R", 5, -1)
def test_the_pair_relation_reports_the_first_break_of_the_reference(n, a, which, at, offset):
    f, r = wz._f2(a, n), wz._r2(a, n)
    nums = (f if which == "F" else r)[0]
    nums[at % (n + 1)] += offset
    expected = _telescopes_reference(_pairs(f), _pairs(f), _pairs(r), (0, 1), PAIR_BROKEN)
    assert wz._telescopes(f, r) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from(["F^(n)", "F^(n+1)", "R numerator", "R denominator", "boundary"]),
    st.integers(0, 40),
    st.integers(-(10**40), 10**40).filter(bool),
)
@example(5, "R numerator", 2, 1)
@example(5, "boundary", 0, 1)
def test_the_certificate_relation_reports_the_first_break_of_the_reference(n, which, at, offset):
    f, f_next, r = wz._cert_summand(n), wz._cert_summand(n + 1), wz._cert_R(n)
    top, bottom = wz._cert_boundary(n)
    if which == "boundary":
        top += offset
    else:
        row = {"F^(n)": f[0], "F^(n+1)": f_next[0], "R numerator": r[0], "R denominator": r[1]}
        row[which][at % len(row[which])] += offset
    assume(0 not in r[1])
    lhs = [(an * bd - bn * ad, ad * bd) for (an, ad), (bn, bd) in zip(_pairs(f_next), _pairs(f))]
    expected = _telescopes_reference(lhs, _pairs(f), _pairs(r), (top, bottom), CERT_BROKEN)
    assert wz._cert_telescopes(f, f_next, r, (top, bottom)) == expected


def test_the_pair_relation_reads_its_boundary():
    # R's last numerator negated, and F's with it, keeps h_n = r_n f_n, so
    # every relation of the grid holds but the last, which reads
    # H(n, n+1) = 0: f_n (d_R + r_n) is 0 only for the unbroken r_n = -d_R
    for a, n in ((2, 1), (2, 4), (2, 9), (3, 9)):
        f, r = wz._f2(a, n), wz._r2(a, n)
        assert wz._telescopes(f, r) is None
        f[0][n], r[0][n] = -f[0][n], -r[0][n]
        broken = wz._telescopes(f, r)
        assert broken.startswith(f"pair relation broken at k={n}: ")
        reference = _telescopes_reference(_pairs(f), _pairs(f), _pairs(r), (0, 1), PAIR_BROKEN)
        assert broken == reference


def test_f1_values():
    assert _values(wz._f2(2, 2)) == [2, -5, 3]
    assert sum(_values(wz._f2(2, 2))) == 0
    assert sum(_values(wz._f2(2, 5))) == 0


def test_f1_leading_term_positive():
    for n in range(1, 12):
        assert _values(wz._f2(2, n))[0] == Fraction(comb(2 * n + 1, n + 1), 2 * n + 1) > 0


def test_h1_values():
    h = _h1(2)
    assert h[1] == 2
    assert h[2] == -3
    assert _values(wz._f2(2, 2))[1] == h[2] - h[1] == -5
    for n in range(1, 10):
        assert _h1(n)[0] == 0
    assert _h1(3)[1] == -_values(wz._f2(2, 3))[1] * Fraction(1 * 5, 3 * 7)


def test_check_wz1_passes():
    assert check_wz1(2).all_passed()
    report = check_wz1(30)
    assert report.all_passed()
    assert report.total == 30


def test_check_wz1_negative_control():
    corrupted = check_wz1(3, r=_flipped(wz._r2))
    assert not corrupted.all_passed()
    first = corrupted.first_failure()
    assert first.params == {"n": 1}
    # the failure message, whose Fractions are built only on this path
    assert first.actual == "pair relation broken at k=0: F=1, H(k+1)-H(k)=-1"


def test_wz2_reduces_to_two_variable_pair():
    # the paper's R_1(n, k) = -k(n+1+k) / (n(2n+1)) is R_2 at a = 2, as
    # test_summand_rows_match_their_closed_forms finds F_1 at a = 2
    for n in range(1, 61):
        r1 = [Fraction(-k * (n + 1 + k), n * (2 * n + 1)) for k in range(n + 1)]
        assert _values(wz._r2(2, n)) == r1


def _outcomes(report):
    """(status, expected, actual) of each case of `report`, ids aside."""
    return [(case.status, case.expected, case.actual) for case in report.cases]


def test_check_wz1_is_check_wz2_at_a_2():
    assert _outcomes(check_wz1(60)) == _outcomes(check_wz2(2, 60))
    flipped = _flipped(wz._r2)
    corrupted = check_wz1(60, r=flipped)
    assert _outcomes(corrupted) == _outcomes(check_wz2(2, 60, r=flipped))
    assert {case.status for case in corrupted.cases} == {"fail"}


def test_check_wz2_passes():
    assert check_wz2(2, 15).all_passed()
    assert check_wz2(3, 20).all_passed()
    assert check_wz2(5, 10).all_passed()


def test_check_wz2_negative_control():
    corrupted = check_wz2(3, 3, r=_flipped(wz._r2))
    assert not corrupted.all_passed()


def test_certificate_value():
    assert _values(wz._cert_R(2))[1] == Fraction(98, 42) == Fraction(7, 3)


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
            assert value == paper_two_variable(n - 1 - i, i)


# Each mutant changes one description at one point (or, for the zeroed
# companion, along k = n or m = n; the certificate's companion at m = n is
# its boundary value) and must leave a non-passing case.
MUTANTS = [
    ("wz1 summand +1", lambda: check_wz1(8, f=_raised(wz._f2, (2, 5, 2))), "fail"),
    ("wz1 R +1", lambda: check_wz1(8, r=_raised(wz._r2, (2, 5, 2))), "fail"),
    ("wz1 companion 0 at k=n", lambda: check_wz1(8, r=_zeroed_on_diagonal(wz._r2)), "fail"),
    ("wz1 R 0/0", lambda: check_wz1(8, r=_zero_over_zero(wz._r2, (2, 5, 2))), "error"),
    ("wz1 summand 0/0", lambda: check_wz1(8, f=_zero_over_zero(wz._f2, (2, 5, 2))), "error"),
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
    report = check_wz1(8, f=_raised(wz._f2, (2, 5, 2)))
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
        f=lambda a, n: ([int(k == 0) for k in range(n + 1)], 1),
        r=lambda a, n: ([-1] * (n + 1), 1),
    )
    assert [case.actual for case in report.cases] == ["telescoped sum is 1, not 0"] * 3
    doubled = lambda n: ([2 * num for num in wz._cert_summand(n)[0]], 2 * n + 1)
    report = check_certificate_R(3, summand=doubled)
    assert report.cases[1].actual == "target sum is 2, not 1"


def test_a_row_of_the_wrong_length_is_an_error_not_a_pass():
    report = check_wz1(3, f=lambda a, n: (wz._f2(a, n)[0][:-1], n))
    assert [(case.status, case.actual) for case in report.cases] == [
        ("error", f"ValueError: grid row has {n} entries, not {n + 1}") for n in (1, 2, 3)
    ]


def test_check_wz2_refuses_a_below_2():
    with pytest.raises(ValueError, match="need a >= 2, got 1"):
        check_wz2(1, 5)
