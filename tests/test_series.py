"""The exact truncated series engine and the classical self-tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtheta.cyclo import CycloNumber
from qtheta.errors import DivergenceError, DomainError, FieldMismatchError
from qtheta.series import (INFINITY, DoubleSum, Monomial, ProductSum, QSeries,
                           _triple_product_lhs, _triple_product_rhs, pochhammer,
                           pochhammer_inverse,
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


def test_triple_product_rejects_zero_z():
    with pytest.raises(DomainError, match="nonzero z"):
        selftest_triple_product(Monomial(0, 1, 1), 10)


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


# -- the running-product and binomial kernels against the algorithms they replaced

def _ref_mul_linear(a, e, c):
    """a <- a (1 - c q^e) on a dense list of rationals or CycloNumbers."""
    if e == 0:
        a[:] = [x * (1 - c) for x in a]
        return
    for i in range(len(a) - 1, e - 1, -1):
        if a[i - e]:
            a[i] = a[i] - c * a[i - e]


def _ref_div_linear(a, e, c):
    """a <- a / (1 - c q^e), coefficient by coefficient."""
    if e == 0:
        unit = 1 - c
        inv = unit.inv() if isinstance(unit, CycloNumber) else Fraction(1) / Fraction(unit)
        a[:] = [x * inv for x in a]
        return
    for i in range(e, len(a)):
        if a[i - e]:
            a[i] = a[i] + c * a[i - e]


def _order(c):
    return c.order if isinstance(c, CycloNumber) else 1


def _ref_product_sum(spec, trunc):
    """The dense-list product sum, CycloNumber by CycloNumber; its field is
    the lcm of the constants' orders."""
    total = [0] * trunc
    field = _order(spec.constant)
    total[0] = spec.constant
    run = [1] + [0] * (trunc - 1)
    n = spec.start
    while (lead := spec.lead(n)) < trunc:
        del run[trunc - lead:]
        for e, c, s in spec.factors(n):
            field = math.lcm(field, _order(c))
            (_ref_mul_linear if s > 0 else _ref_div_linear)(run, e, c)
        c = spec.coeff(n)
        field = math.lcm(field, _order(c))
        for i, x in enumerate(run):
            total[lead + i] += c * x
        n += 1
    return QSeries.make(1, trunc, dict(enumerate(total)), field)


def _ref_pochhammer_inverse(z, step, count, trunc):
    """1/(z; step)_count for a monomial step of positive exponent, factor by
    factor on a dense list of CycloNumbers."""
    d = math.lcm(z.den, step.den)
    out = [1] + [0] * (trunc - 1)
    field, coeff, expo = 1, z.coeff, z.exponent
    for _ in range(count):
        if expo * d >= trunc:
            break
        field = math.lcm(field, _order(coeff))
        _ref_div_linear(out, int(expo * d), coeff)
        coeff, expo = coeff * step.coeff, expo + step.exponent
    return QSeries.make(d, trunc, dict(enumerate(out)), field)


def _ref_binomial_rows(trunc, step=1):
    """Rows of Gaussian binomials in the base q^step as dicts: row k maps m to
    the coefficients of [k m] below q^trunc."""
    row = [{0: 1}]
    while True:
        yield row
        new = [dict(row[0])]
        for j in range(1, len(row)):
            merged = dict(row[j - 1])
            for e, c in row[j].items():
                if e + step * j < trunc:
                    merged[e + step * j] = merged.get(e + step * j, 0) + c
            new.append({e: c for e, c in merged.items() if c})
        row = new + [{0: 1}]


def _ref_double_sum(spec, trunc):
    total = {0: spec.constant}
    rows = _ref_binomial_rows(trunc, spec.step)
    k, row = 0, next(rows)
    while spec.kmin(k) < trunc:
        for n, e0, sgn in spec.terms(k):
            for e, c in row[n].items():
                if e0 + e < trunc:
                    total[e0 + e] = total.get(e0 + e, 0) + sgn * c
        k, row = k + 1, next(rows)
    return QSeries.make(1, trunc, total)


def zeta(m, k=1):
    return CycloNumber.root_of_unity(m, k)


HALF_ONE_PLUS_Z12 = (1 + zeta(12)) * Fraction(1, 2)


@pytest.mark.parametrize("spec", [
    # a non-unit constant with a denominator, in a denominator and a numerator factor
    ProductSum(lambda n: n, lambda n: [(n + 1, HALF_ONE_PLUS_Z12, -1), (2 * n + 1, zeta(12, 5), 1)],
               lambda n: zeta(12, n), constant=zeta(12, 2)),
    # a Fraction coefficient beside cyclotomic factors
    ProductSum(lambda n: n * (n + 1) // 2, lambda n: [(n + 1, -zeta(12, 4), -1)],
               lambda n: Fraction(2, 3) if n % 2 else Fraction(-5, 4), constant=Fraction(1, 7)),
    # constants of orders 3 and 4 together
    ProductSum(lambda n: n, lambda n: [(n, zeta(3), -1), (n + 2, zeta(4), 1)] if n else [],
               lambda n: n + 1),
    # factors with e = 0: a constant (1 - zeta_6) and its inverse
    ProductSum(lambda n: 2 * n,
               lambda n: [(0, zeta(12, 2), 1 if n % 3 else -1), (n + 1, zeta(12), -1)]),
], ids=["non-unit", "fraction", "orders-3-4", "e-zero"])
def test_cyclotomic_product_sum_matches_reference(spec):
    for t in (1, 7, 80):
        got, want = spec.series(t), _ref_product_sum(spec, t)
        assert got.field_order == want.field_order and got.text() == want.text(), t


def test_cyclotomic_pochhammer_matches_reference():
    z, step = Monomial(HALF_ONE_PLUS_Z12, 1, 2), Monomial(-zeta(12, 5), 1, 1)
    for t in (1, 9, 70):
        got = pochhammer_inverse(z, step, 12, t)
        assert got.text() == _ref_pochhammer_inverse(z, step, 12, t).text()
        assert (got * pochhammer(z, step, 12, t)).agrees_with(QSeries.one(2, t))


@pytest.mark.parametrize("spec, truncations", [
    # weights +-3, step 2 and a Fraction constant: every [k n] with k <= 42
    (DoubleSum(lambda k: k * (k - 1) // 6,
               lambda k: [(n, k * (k - 1) // 6 + n, 3 if (k + n) % 2 else -3)
                          for n in range(k + 1)],
               step=2, constant=Fraction(-5, 7)), (1, 40, 300)),
    # only [k 0] = [k k] = 1, 60 groups to a power of q: a slot of the
    # accumulator sums to 360, beyond the 8 bits that the rows need
    (DoubleSum(lambda k: k // 60, lambda k: [(0, k // 60, 3), (k, k // 60, 3)],
               step=2, constant=Fraction(1, 3)), (1, 5)),
], ids=["weights", "accumulator"])
def test_double_sum_matches_reference_rows(spec, truncations):
    for t in truncations:
        assert spec.series(t).text() == _ref_double_sum(spec, t).text(), t


def test_double_sum_rejects_terms_out_of_range():
    for n, s in ((3, 1), (-1, 1), (1, Fraction(1, 2))):
        spec = DoubleSum(lambda k: k, lambda k: [(n, k, s)] if k == 2 else [(0, k, 1)])
        with pytest.raises(DomainError, match="group 2"):
            spec.series(5)


def test_q_binomial_matches_reference_rows():
    rows = _ref_binomial_rows(15 * 15 + 1)
    for n in range(31):
        row = next(rows)
        for m in range(n + 1):
            for t in (m * (n - m) + 1, 1, 5, 40):
                want = {e: c for e, c in row[m].items() if e < t}
                assert q_binomial(n, m, t).coeffs == want, (n, m, t)
            assert q_binomial(n, m).trunc == m * (n - m) + 1


def test_q_binomial_large_top_at_low_order():
    # only the factors 1/(1 - q^i), i < 10, are not 1 below q^10
    got = q_binomial(10 ** 5, 5 * 10 ** 4, 10)
    assert [got.coefficient(i) for i in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_product_sum_rejects_a_negative_lead():
    with pytest.raises(DomainError):
        ProductSum(lambda n: 3 - n, lambda n: []).series(5)
    with pytest.raises(DomainError, match="negative"):
        ProductSum(lambda n: n - 1, lambda n: []).series(5)


def test_product_sum_rejects_a_decreasing_lead():
    # leads 0, 3, 1 with a factor 1/(1 - q) at each step: the sum is
    # 1 2 4 8 13 below q^5, which a stop at lead 3 would miss
    spec = ProductSum(lambda n: (0, 3, 1)[n] if n < 3 else 5, lambda n: [(1, 1, -1)])
    with pytest.raises(DomainError, match="below"):
        spec.series(5)
    assert spec.series(3).coeffs == {0: 1, 1: 1, 2: 1}
