"""Characters, theta sums, closed forms, and transformation checks."""

from fractions import Fraction

import mpmath
import pytest

from qtheta.catalog import get_function
from qtheta.chars import (PeriodicFunction, _radial_classes, _radial_level_sum,
                          char_combination, character_ids,
                          eichler_tilde_at_integer, eichler_tilde_at_inverse_N,
                          eichler_tilde_series, false_theta_radial_limit,
                          false_theta_radial_numeric, get_character, m_matrix,
                          psi_basis, theorem_s_matrix, theta_numeric,
                          verify_S_transform, verify_T_transform)
from qtheta.cyclo import CycloNumber
from qtheta.errors import DomainError, PrecisionError


def test_psi_basis_values():
    p21 = psi_basis(2, 1)
    assert p21.values == (0, 1, 0, -1)
    p30 = psi_basis(30, 29)
    assert p30(29) == 1 and p30(31) == -1 and p30(0) == 0


def test_psi_basis_domain():
    with pytest.raises(DomainError):
        psi_basis(5, 5)
    with pytest.raises(DomainError):
        psi_basis(5, 0)


def test_oddness_enforced():
    with pytest.raises(DomainError):
        PeriodicFunction(4, (0, 1, 1, -1))
    for name in character_ids():
        chi = get_character(name)
        for n in range(chi.modulus):
            assert chi(-n) == -chi(n)


def test_char_combination():
    chi = char_combination([(1, 30, 1), (1, 30, 11), (1, 30, 19), (1, 30, 29)])
    assert chi.values == get_character("chi60_111").values
    zero = char_combination([])
    assert zero(1) == 0
    with pytest.raises(DomainError):
        char_combination([(1, 30, 1), (1, 12, 1)])


def test_registry_contents():
    expected = {"chi60_111", "chi60_112", "chi84_111", "chi84_112", "chi84_113",
                "chi24_1", "chi24_2", "psi6_1", "psi6_2", "psi10_1", "psi10_2",
                "psi10_3", "psi10_4", "psi12_1", "psi12_3", "psi12_5", "psi16_1",
                "psi16_3", "psi16_5", "psi16_7", "psi24_6", "psi4_1", "psi8_1",
                "psi8_3"}
    assert expected <= set(character_ids())


def test_eichler_series_examples():
    # oracle: direct summation with plain loops
    chi = get_character("chi60_111")
    got = eichler_tilde_series(chi, 120, -1, 40 * 120)
    oracle = {}
    for n in range(0, 120):
        c = chi(n)
        if c and n * n - 1 < 40 * 120:
            oracle[n * n - 1] = c
    assert got.coeffs == oracle
    as_q_powers = sorted((n // 120, c) for n, c in got.coeffs.items())
    assert as_q_powers[:8] == [(0, 1), (1, 1), (3, 1), (7, 1), (8, -1), (14, -1),
                               (20, -1), (29, -1)]
    psi41 = eichler_tilde_series(get_character("psi4_1"), 4, -1, 60)
    assert psi41.coeffs == {0: 1, 8: -1, 24: 1, 48: -1}  # 1 - q^2 + q^6 - q^12
    zero = eichler_tilde_series(char_combination([]), 4, 0, 40)
    assert zero.is_zero()


def test_eichler_series_negative_exponent_rejected():
    with pytest.raises(DomainError):
        eichler_tilde_series(get_character("psi4_1"), 4, -2, 40)


def test_closed_form_at_integer():
    v = eichler_tilde_at_integer(30, 1, 2)
    assert v == CycloNumber.root_of_unity(120, 2) * Fraction(29, 30)
    assert eichler_tilde_at_integer(2, 1, 0) == Fraction(1, 2)
    v = eichler_tilde_at_integer(5, 4, 1)
    # (1/5) e^(8 pi i/5) = (1/5) zeta_10^8
    assert v == CycloNumber.root_of_unity(10, 8) * Fraction(1, 5)
    with pytest.raises(DomainError):
        eichler_tilde_at_integer(5, 5, 1)


def test_closed_form_at_inverse_one():
    # two-term sum evaluates to (1/2) e^(i pi/4)
    v = eichler_tilde_at_inverse_N(psi_basis(2, 1), 1)
    assert v == CycloNumber.root_of_unity(8, 1) * Fraction(1, 2)


def test_inverse_N_lies_in_4PN_field():
    for (p, a, n) in ((2, 1, 3), (3, 2, 4), (6, 5, 2)):
        v = eichler_tilde_at_inverse_N(psi_basis(p, a), n)
        assert (4 * p * n) % v.order == 0


def test_inverse_N_matches_radial_limit():
    # the closed form at 1/N equals the general radial limit of the series,
    # exactly, for P <= 6 and N <= 8
    for p in (2, 3, 4, 5, 6):
        for n in range(1, 9):
            for a in range(1, p):
                chi = psi_basis(p, a)
                assert eichler_tilde_at_inverse_N(chi, n) == \
                    false_theta_radial_limit(chi, 4 * p, 0, n, 1)


def test_radial_numeric_agrees_with_exact():
    chi = get_character("psi16_1p7")
    exact = false_theta_radial_limit(chi, 16, -1, 8, 1)
    approx = false_theta_radial_numeric(chi, 16, -1, 8, 1, 1e-10)
    assert abs(complex(approx) - complex(exact.to_complex(128))) < 1e-10


def test_radial_level_sum_matches_direct_sum():
    # the residue-class fixed-point kernel against the term-by-term sum
    chi, d, shift, m, j = get_character("psi12_1p5"), 24, -1, 4, 1
    with mpmath.workdps(70):
        t = mpmath.mpf("0.001")
        period, classes = _radial_classes(chi, d, shift, m, j)
        fast = _radial_level_sum(classes, period, d, shift, t)
        direct = mpmath.mpc(0)
        n = 1
        while t * (n * n + shift) / d <= 140:
            if chi(n):
                direct += chi(n) * mpmath.exp(-t * (n * n + shift) / d) * \
                    mpmath.expjpi(mpmath.mpf(2 * j * (n * n + shift)) / (m * d))
            n += 1
        assert abs(fast - direct) < mpmath.mpf(10) ** -50


@pytest.mark.parametrize("fn_id,m", [("phi6_star", 2), ("phi6_star", 4),
                                     ("psi6_star", 4), ("I12_star", 4)])
def test_radial_numeric_at_radial_only_points(fn_id, m):
    char_id, d, shift = get_function(fn_id).character
    chi = get_character(char_id)
    exact = false_theta_radial_limit(chi, d, shift, m, 1)
    approx = false_theta_radial_numeric(chi, d, shift, m, 1)
    assert abs(complex(approx) - complex(exact.to_complex(128))) < 1e-10


def test_radial_numeric_unreachable_tolerance_raises():
    with pytest.raises(PrecisionError):
        false_theta_radial_numeric(get_character("psi16_1p7"), 16, -1, 8, 1, 1e-80)


def test_radial_numeric_is_memoised():
    assert callable(false_theta_radial_numeric.cache_info)
    assert callable(false_theta_radial_numeric.cache_clear)


def test_m_matrix():
    m2 = m_matrix(2)
    assert len(m2.s_matrix) == 1 and abs(float(m2.s_matrix[0][0]) - 1) < 1e-15
    assert m2.t_phases == [Fraction(1, 4)]
    m3 = m_matrix(3)
    import math
    for row in m3.s_matrix:
        for entry, want in zip(row, (1 / math.sqrt(2),) * 2):
            assert abs(abs(float(entry)) - want) < 1e-12
    assert m3.s_matrix[1][1] < 0
    for p in range(2, 13):
        assert m_matrix(p).s_squared_defect() < 1e-12


def test_theta_numeric_oddness_strategies():
    # summing n >= 1 and doubling equals the two-sided definition at tau = i
    chi = psi_basis(3, 1)
    tau = mpmath.mpc(0, 1)
    direct = theta_numeric(chi, tau, 1e-15)
    with mpmath.workdps(30):
        twosided = mpmath.mpc(0)
        for n in range(-60, 61):
            c = chi(n)
            if c:
                twosided += Fraction(1, 2) * n * c * mpmath.exp(
                    2j * mpmath.pi * tau * n * n / 12)
    assert abs(direct - twosided) < 1e-13


def test_theta_numeric_domain():
    with pytest.raises(DomainError):
        theta_numeric(psi_basis(2, 1), mpmath.mpc(0, -1))


def test_theta_small_imaginary_part_converges():
    v = theta_numeric(psi_basis(30, 7), mpmath.mpc(0, 0.01), 1e-12)
    assert mpmath.isfinite(v)


def test_S_transform():
    assert verify_S_transform(30, mpmath.mpc(0, 1), 1e-12).passed
    assert verify_S_transform(5, mpmath.mpc(1, 4) / 5, 1e-10).passed
    assert verify_S_transform(2, mpmath.mpc(0, 2), 1e-12).passed


def test_T_transform():
    for p, a in ((2, 1), (3, 2), (5, 3)):
        assert verify_T_transform(p, a, mpmath.mpc(0.2, 0.9), 1e-12).passed


def test_theorem_s_matrices():
    vec, s = theorem_s_matrix("2_3_5")
    assert len(vec) == 2 and len(s) == 2
    # involution within numeric tolerance
    for i in range(2):
        for j in range(2):
            acc = sum(s[i][k] * s[k][j] for k in range(2))
            assert abs(acc - (1 if i == j else 0)) < 1e-12
    vec7, s7 = theorem_s_matrix("2_3_7")
    for i in range(3):
        for j in range(3):
            acc = sum(s7[i][k] * s7[k][j] for k in range(3))
            assert abs(acc - (1 if i == j else 0)) < 1e-12
