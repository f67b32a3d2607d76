"""Exact cyclotomic arithmetic."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from qtheta.cyclo import (CycloNumber, _lazy_module, cyclotomic_polynomial, euler_phi,
                          root_weighted_sum)


def test_i_squared():
    z4 = CycloNumber.root_of_unity(4)
    assert z4 * z4 == -1


def test_third_roots_sum_to_zero():
    z3 = CycloNumber.root_of_unity(3)
    assert not (1 + z3 + z3 * z3)


def test_order_promotion_compatibility():
    z12 = CycloNumber.root_of_unity(12)
    z3 = CycloNumber.root_of_unity(3)
    assert (z12 * z12 * z12 * z12).promote(12) == z3.promote(12)
    assert z12 * z12 * z12 * z12 == z3  # promotion is implicit in equality


def test_cyclotomic_polynomial_basics():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


def test_cyclotomic_degree_is_totient():
    for m in range(1, 201):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def _cyclotomic_by_division(m, known):
    """Phi_m as x^m - 1 divided by every Phi_d with d | m, d < m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = known[d]
            quot = [0] * (len(poly) - len(den) + 1)
            for k in range(len(poly) - 1, len(den) - 2, -1):
                c = poly[k]
                quot[k - len(den) + 1] = c
                for i, dc in enumerate(den):
                    poly[k - len(den) + 1 + i] -= c * dc
            assert not any(poly)
            poly = quot
    return poly


def test_cyclotomic_radical_shortcut():
    known = {}
    for m in range(1, 301):
        known[m] = _cyclotomic_by_division(m, known)
        assert cyclotomic_polynomial(m) == tuple(known[m]), m


def test_root_annihilated_by_its_polynomial():
    for m in range(1, 101):
        z = CycloNumber.root_of_unity(m)
        acc = CycloNumber.zero(m)
        power = CycloNumber.one(m)
        for c in cyclotomic_polynomial(m):
            acc = acc + power * c
            power = power * z
        assert not acc, f"Phi_{m}(zeta_{m}) != 0"


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.choice([3, 5, 8, 12, 20])
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                  for _ in range(euler_phi(m))]
        x = CycloNumber.from_coords(m, coords)
        if not x:
            continue
        assert x * x.inv() == 1


def test_promotion_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        a = CycloNumber.from_coords(6, [rng.randint(-3, 3), rng.randint(-3, 3)])
        b = CycloNumber.from_coords(6, [rng.randint(-3, 3), rng.randint(-3, 3)])
        assert (a * b).promote(24) == a.promote(24) * b.promote(24)


def test_to_complex_precision():
    z4 = CycloNumber.root_of_unity(4)
    v = z4.to_complex(128)
    assert abs(complex(v) - 1j) < 1e-30
    assert complex(CycloNumber.zero().to_complex(64)) == 0


def test_weighted_sum_sqrt2():
    half_sqrt2 = root_weighted_sum(8, [(1, 1), (7, 1)], 2)
    assert abs(complex(half_sqrt2.to_complex(64)) - math.sqrt(2) / 2) < 1e-15


def test_terminating_matches_float_summation():
    # random terminating sums: exact evaluation vs 128-bit direct float sum
    rng = random.Random(3)
    for _ in range(10):
        m = rng.choice([5, 8, 12])
        z = CycloNumber.root_of_unity(m)
        coeffs = [rng.randint(-3, 3) for _ in range(12)]
        exact = CycloNumber.zero(m)
        power = CycloNumber.one(m)
        for c in coeffs:
            exact = exact + power * c
            power = power * z
        with mpmath.workdps(45):
            approx = mpmath.mpc(0)
            for k, c in enumerate(coeffs):
                approx += c * mpmath.expjpi(mpmath.mpf(2 * k) / m)
        assert abs(complex(exact.to_complex(128)) - complex(approx)) < 1e-25


def test_serialization_form():
    x = CycloNumber.from_coords(4, [Fraction(1, 2), Fraction(-3)])
    assert x.text() == "M=4; [1/2, -3]"


def test_euler_phi_counts_units():
    for m in range(1, 61):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1), m


@st.composite
def field_pairs(draw):
    """Two random elements of one field Q(zeta_M), rational coordinates."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 12, 15, 20, 24, 30, 60, 84]))
    coords = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                      min_size=euler_phi(m), max_size=euler_phi(m))
    return (CycloNumber.from_coords(m, draw(coords)),
            CycloNumber.from_coords(m, draw(coords)))


@settings(max_examples=40, deadline=None)
@given(field_pairs())
def test_inverse_properties(pair):
    x, y = pair
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero(x.order).inv()
    assume(x and y)
    assert x * x.inv() == 1
    assert x.inv().inv() == x
    assert (x * y).inv() == x.inv() * y.inv()


def test_inverse_serialization_form():
    assert (CycloNumber.root_of_unity(3) - 1).inv().text() == "M=3; [-2/3, -1/3]"


@pytest.mark.parametrize("dps", [20, 60])
def test_mpmath_conversion_hook(dps):
    """In arithmetic with an mpc, a CycloNumber embeds at the caller's working
    precision, from either side of the operator."""
    x = CycloNumber.from_coords(12, [Fraction(1, 3), -2, Fraction(5, 7), 1])
    with mpmath.workdps(dps):
        z = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.sqrt(2))
        embedded = x.to_complex(mpmath.mp.prec)
        assert z * x == z * embedded
        assert x * z == embedded * z
        assert x - z == embedded - z
        assert z - x == z - embedded
        assert abs(x - x.to_complex(400)) < mpmath.mpf(10) ** (5 - dps)


def test_lazy_module_of_a_missing_module():
    with pytest.raises(ModuleNotFoundError):
        _lazy_module("qtheta_no_such_module")
