"""The exact truncated series engine and the classical self-tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtheta.cyclo import CycloNumber
from qtheta.errors import DivergenceError, DomainError, FieldMismatchError
from qtheta.series import (INFINITY, Monomial, QSeries, _triple_product_lhs,
                           _triple_product_rhs, pochhammer, pochhammer_inverse,
                           q_binomial, selftest_eta_cubed, selftest_euler,
                           selftest_q_binomial_theorem, selftest_triple_product,
                           series_inverse, substitute_power, substitute_sign)


def brute_product(factors, trunc):
    """Independent oracle: multiply factor dicts with plain loops."""
    out = {0: Fraction(1)}
    for fac in factors:
        new = {}
        for e1, c1 in out.items():
            for e2, c2 in fac.items():
                if e1 + e2 < trunc:
                    new[e1 + e2] = new.get(e1 + e2, Fraction(0)) + c1 * c2
        out = {e: c for e, c in new.items() if c}
    return out


def test_add_cancellation():
    a = QSeries.make(1, 10, {0: 1, 1: 1})
    b = QSeries.make(1, 10, {0: 1, 1: -1})
    assert (a + b).coeffs == {0: 2}


def test_add_rescaling():
    h = QSeries.make(2, 20, {0: 1, 1: 1})  # 1 + q^(1/2)
    c = QSeries.make(1, 10, {1: 1})
    out = h + c
    assert out.denom == 2 and out.coeffs == {0: 1, 1: 1, 2: 1}


def test_add_zero_identity():
    a = QSeries.make(1, 10, {0: 1, 3: -2})
    assert (a + QSeries.zero(1, 10)).coeffs == a.coeffs


def test_mul_difference_of_squares():
    a = QSeries.make(1, 10, {0: 1, 1: 1})
    b = QSeries.make(1, 10, {0: 1, 1: -1})
    assert (a * b).coeffs == {0: 1, 2: -1}


def test_mul_geometric_inverse():
    geo = QSeries.make(1, 12, {n: 1 for n in range(12)})
    one_minus_q = QSeries.make(1, 12, {0: 1, 1: -1})
    assert (geo * one_minus_q).agrees_with(QSeries.one(1, 12))


def test_mul_half_exponents():
    m = QSeries.from_monomial(Monomial.q(Fraction(1, 2)), 10, 2)
    assert (m * m).coeffs == {2: 1}  # q^(1/2) * q^(1/2) = q


def test_field_mismatch_rejected():
    a = QSeries.make(1, 5, {0: CycloNumber.root_of_unity(3)}, 3)
    b = QSeries.make(1, 5, {0: CycloNumber.root_of_unity(4)}, 4)
    with pytest.raises(FieldMismatchError):
        _ = a + b


def test_negative_exponents_rejected():
    with pytest.raises(DomainError):
        QSeries.make(1, 5, {-1: 1})
    with pytest.raises(DomainError):
        QSeries.from_monomial(Monomial.q(-1), 5)
    a = QSeries.make(1, 5, {0: 1, 2: 1})
    with pytest.raises(DomainError):
        a.shift(Monomial.q(-1))
    for k in (0, -1, Fraction(-1, 2)):
        with pytest.raises(DomainError):
            substitute_power(a, k)
    # a shift that keeps every exponent nonnegative stays exact
    got = QSeries.make(1, 5, {2: 3}).shift(Monomial.q(-1))
    assert got.coeffs == {1: 3} and got.trunc == 4


def test_pochhammer_direct():
    p = pochhammer(Monomial.q(1), 1, 2, 10)
    assert p.coeffs == {0: 1, 1: -1, 2: -1, 3: 1}  # (1-q)(1-q^2)


def test_pochhammer_empty():
    assert pochhammer(Monomial.q(5), 1, 0, 10).coeffs == {0: 1}


def test_pochhammer_pentagonal():
    # oracle: brute-force product of (1 - q^k)
    t = 30
    oracle = brute_product([{0: Fraction(1), k: Fraction(-1)} for k in range(1, t + 1)], t)
    got = pochhammer(Monomial.q(1), 1, INFINITY, t)
    assert {n: Fraction(c) for n, c in got.coeffs.items()} == oracle
    # frozen pentagonal pattern
    assert got.coeffs == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}


def test_pochhammer_divergence_guard():
    with pytest.raises(DivergenceError):
        pochhammer(Monomial.q(0), 0, INFINITY, 10)


def test_pochhammer_recurrence():
    # (z; q)_n (1 - z q^n) = (z; q)_(n+1)
    t = 60
    for n in (0, 1, 5, 17, 50):
        left = pochhammer(Monomial.q(1), 1, n, t) * (
            QSeries.one(1, t) - QSeries.from_monomial(Monomial.q(n + 1), t, 1))
        right = pochhammer(Monomial.q(1), 1, n + 1, t)
        assert left.agrees_with(right)


def test_pochhammer_inverse_partitions():
    got = pochhammer_inverse(Monomial.q(1), 1, INFINITY, 12)
    assert got.coeffs == {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15,
                          8: 22, 9: 30, 10: 42, 11: 56}


def test_series_inverse_round_trip():
    s = QSeries.make(1, 15, {0: 1, 1: -1, 2: 1})
    assert (series_inverse(s) * s).agrees_with(QSeries.one(1, 14))


def test_q_binomial_values():
    assert q_binomial(2, 1).coeffs == {0: 1, 1: 1}
    assert q_binomial(7, 0).coeffs == {0: 1}
    # oracle: ratio of Pochhammers
    t = 10
    num = pochhammer(Monomial.q(1), 1, 4, t)
    den = pochhammer(Monomial.q(1), 1, 2, t)
    ratio = num * series_inverse(den * den.truncate(t))
    # [4 2]_q, frozen from the Pochhammer-ratio oracle
    assert q_binomial(4, 2).coeffs == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert ratio.truncate(5).agrees_with(q_binomial(4, 2).rescale(1))


def test_q_binomial_symmetry():
    for n in range(0, 31, 5):
        for m in range(0, n + 1):
            assert q_binomial(n, m).coeffs == q_binomial(n, n - m).coeffs


def test_q_binomial_domain():
    with pytest.raises(DomainError):
        q_binomial(3, 5)


def test_substitute_power():
    a = QSeries.make(1, 10, {0: 1, 1: 1})
    assert substitute_power(a, 2).coeffs == {0: 1, 2: 1}
    h = QSeries.make(2, 20, {0: 1, 1: 1})
    out = substitute_power(h, 2)
    assert out.denom == 1 and out.coeffs == {0: 1, 1: 1}


def test_substitute_sign():
    a = QSeries.make(1, 10, {0: 1, 1: 1})
    assert substitute_sign(a).coeffs == {0: 1, 1: -1}
    even = QSeries.make(1, 10, {0: 1, 2: 1})
    assert substitute_sign(even).coeffs == even.coeffs
    # fractional grid: q^(1/2) -> zeta_4 q^(1/2)
    h = QSeries.make(2, 8, {1: 1})
    out = substitute_sign(h)
    assert out.field_order == 4
    assert out.coeffs[1] == CycloNumber.root_of_unity(4)


def test_euler_identity_fractional_and_signed_z():
    for z in (Monomial.q(Fraction(1, 2)), Monomial(-1, 3, 2), Monomial.q(2),
              Monomial(CycloNumber.root_of_unity(3), 1, 1)):
        for t in (1, 7, 50):
            assert selftest_euler(t, z).passed, (z, t)
    with pytest.raises(DomainError):
        selftest_euler(10, Monomial.q(-1))


def test_selftests_pass():
    assert selftest_euler(50, Monomial.q(1)).passed
    assert selftest_euler(50, Monomial(-1, 1, 1)).passed
    assert selftest_euler(1).passed  # both sides are 1
    assert selftest_triple_product(Monomial.q(Fraction(1, 2)), 100).passed
    assert selftest_triple_product(Monomial(-1, 1, 2), 100).passed
    assert selftest_q_binomial_theorem(0, Monomial.q(1)).passed
    assert selftest_q_binomial_theorem(2, Monomial.q(1)).passed
    assert selftest_q_binomial_theorem(5, Monomial.q(3)).passed
    assert selftest_eta_cubed(200).passed


@pytest.mark.parametrize("z", [Monomial.q(2), Monomial.q(Fraction(3, 2)), Monomial(-1, 3, 1),
                               Monomial(2, 1, 1)], ids=["q^2", "q^(3/2)", "-q^3", "2q"])
def test_triple_product_factors_of_negative_exponent(z):
    # each of these z puts factors 1 - c q^e with e < 0 on the product side
    assert selftest_triple_product(z, 100).passed


def test_triple_product_wrong_coefficient_fails():
    d, t = 2, 60
    for right, wrong in ((Monomial(2, 1, 1), Monomial(3, 1, 1)),
                         (Monomial(3, 1, 1), Monomial(2, 1, 1))):
        clear, rhs = _triple_product_rhs(right, d, t)
        assert _triple_product_lhs(right, d, t, clear).agrees_with(rhs)
        assert not _triple_product_lhs(wrong, d, t, clear).agrees_with(rhs)
        wrong_clear, wrong_rhs = _triple_product_rhs(wrong, d, t)
        assert not _triple_product_lhs(right, d, t, wrong_clear).agrees_with(wrong_rhs)


def test_euler_n2_example():
    # (-z)_2 at z = q equals 1 + q + q^2 + q^3
    got = pochhammer(Monomial(-1, 1, 1), 1, 2, 10)
    assert got.coeffs == {0: 1, 1: 1, 2: 1, 3: 1}


def test_first_mismatch_reporting():
    a = QSeries.make(1, 10, {0: 1, 3: 1})
    b = QSeries.make(1, 10, {0: 1, 3: 2, 5: 1})
    assert a.first_mismatch(b) == 3


def test_serialization():
    a = QSeries.make(2, 9, {0: 1, 3: Fraction(-1, 2)})
    assert a.text() == "D=2; T=9; K=1; 0:1 3:-1/2"


# -- property tests -----------------------------------------------------------

@st.composite
def sparse_series(draw):
    entries = draw(st.dictionaries(st.integers(0, 25),
                                   st.integers(-9, 9).filter(bool), max_size=6))
    trunc = draw(st.integers(26, 40))
    return QSeries.make(1, trunc, entries)


@settings(max_examples=60, deadline=None)
@given(sparse_series(), sparse_series())
def test_commutativity(a, b):
    assert (a + b).agrees_with(b + a)
    assert (a * b).agrees_with(b * a)


@settings(max_examples=40, deadline=None)
@given(sparse_series(), sparse_series(), sparse_series())
def test_associativity_and_distributivity(a, b, c):
    assert ((a + b) + c).agrees_with(a + (b + c))
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)
