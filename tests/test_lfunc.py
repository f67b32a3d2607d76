"""L-values, generating identities, asymptotics, and the integral checks."""

import math
from fractions import Fraction

import pytest

from qtheta import chars, lfunc
from qtheta.errors import DomainError, UnknownIdError
from qtheta.lfunc import (TaylorSeries, asymptotic_check, asymptotic_check_basis,
                          bernoulli_number, bernoulli_polynomial,
                          cos_ratio_taylor, hat_eichler, l_value,
                          measured_decay_exponent, verify_l_value_routes,
                          verify_nearly_modular_hat, verify_t_series)


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_polynomials():
    assert bernoulli_polynomial(1) == (Fraction(-1, 2), Fraction(1))  # x - 1/2
    for k in range(1, 9):
        # derivative consistency B_k'(x) = k B_(k-1)(x)
        bk = bernoulli_polynomial(k)
        bk1 = bernoulli_polynomial(k - 1)
        deriv = tuple(bk[i] * i for i in range(1, len(bk)))
        assert deriv == tuple(k * c for c in bk1)
        # value at 0 is the Bernoulli number
        assert bk[0] == bernoulli_number(k)


def independent_taylor_ratio(nums, den, order):
    """Oracle: cosine-product ratio through plain-list division."""
    def cos_list(a):
        out = [Fraction(0)] * order
        for j in range(0, order, 2):
            out[j] = Fraction((-1) ** (j // 2) * a ** j, math.factorial(j))
        return out

    num = [Fraction(0)] * order
    num[0] = Fraction(1)
    for a in nums:
        cl = cos_list(a)
        num = [sum(num[i] * cl[k - i] for i in range(k + 1)) for k in range(order)]
    dl = cos_list(den)
    out = [Fraction(0)] * order
    for k in range(order):
        acc = num[k]
        for i in range(1, k + 1):
            acc -= dl[i] * out[k - i]
        out[k] = acc
    return out


def test_cos_ratio_examples():
    # 2 cos(5x) cos(9x)/cos(15x) = 2 + 119 x^2 + ...
    s = cos_ratio_taylor("chi60_111", 6)
    oracle = independent_taylor_ratio((5, 9), 15, 6)
    assert list(s.coeffs) == [2 * c for c in oracle]
    assert s.coefficient(0) == 2 and s.coefficient(2) == 119
    # cos(x)/cos(3x) = 1 + 4 x^2 + ...
    s2 = cos_ratio_taylor("chi24_2", 6)
    assert s2.coefficient(0) == 1 and s2.coefficient(2) == 4
    with pytest.raises(UnknownIdError):
        cos_ratio_taylor("psi6_1", 4)


def test_l_value_spot_checks():
    # frozen spot values, confirmed through the in-test Taylor-division oracle
    oracle = independent_taylor_ratio((5, 9), 15, 4)
    assert -math.factorial(2) * 2 * oracle[2] == -238
    assert l_value("chi60_111", 0, "bernoulli") == 2
    assert l_value("chi60_111", 0, "cos_generating") == 2
    assert l_value("chi60_111", 1, "bernoulli") == -238
    assert l_value("chi60_111", 1, "cos_generating") == -238
    assert l_value("chi24_2", 0, "cos_generating") == 1
    assert l_value("chi24_2", 1, "bernoulli") == -32
    assert l_value("chi60_112", 0, "bernoulli") == 2


def test_l_value_routes_agree():
    assert verify_l_value_routes(10).passed


def test_l_value_oddness():
    chi = chars.get_character("chi60_111")
    neg = -chi
    for k in range(4):
        assert l_value(neg, k) == -l_value(chi, k)


def test_l_value_domain():
    with pytest.raises(DomainError):
        l_value("chi60_111", -1)
    with pytest.raises(UnknownIdError):
        l_value("psi6_1", 0, "cos_generating")


def test_taylor_division_guard():
    with pytest.raises(DomainError):
        TaylorSeries((Fraction(0), Fraction(1))).divide(
            TaylorSeries((Fraction(0), Fraction(1))))


def test_t_series_identities():
    for spec in lfunc.t_series_ids():
        assert verify_t_series(spec, 10).passed, spec


def test_t_series_order_zero_is_l0():
    # the constant coefficient comparison reduces to L(0) consistency
    assert verify_t_series("t_chi60_111", 0).passed


T_SERIES_FUNCTIONS = ("chi0_star", "chi1_star", "phi_star", "nu_star")


def test_t_expansion_constant_term_is_the_value_at_one():
    """Two independent engines at q = 1: the t^0 coefficient of the spec at
    q = e^(-t) and the exact root-of-unity evaluation at zeta_1^0."""
    from qtheta import catalog
    for fn_id in T_SERIES_FUNCTIONS:
        variant, _ = catalog.get_function(fn_id).qseries
        spec = catalog.get_function(fn_id).variants[variant]
        got = lfunc._t_expansion(spec, 3).coeffs[0]
        assert catalog.variant_at_root(fn_id, variant, 1, 0) == got, fn_id


def test_t_expansion_rejects_a_falling_valuation():
    # omega_star's defining sum starts with 1/(1 - q): a pole at q = 1
    from qtheta import catalog
    spec = catalog.get_function("omega_star").variants["defining"]
    with pytest.raises(DomainError, match="pole"):
        lfunc._t_expansion(spec, 5)


def test_t_series_reads_the_catalog_spec(monkeypatch):
    """The t-series record checks the spec the other engines read: dropping
    the n = 0 term of nu_star's registered finite form fails at t^0."""
    from qtheta import catalog
    from qtheta.series import ProductSum
    fn = catalog.get_function("nu_star")
    spec = fn.variants["finite"]
    broken = ProductSum(spec.lead, spec.factors, start=1)
    monkeypatch.setitem(catalog._functions, "nu_star", catalog.NamedFunction(
        fn.id, fn.order_label, {**fn.variants, "finite": broken}, fn.character,
        fn.weight, fn.qseries))
    report = verify_t_series("t_chi24_2", 5)
    assert not report.passed and report.first_mismatch == 0


def test_asymptotic_p2():
    reports = [asymptotic_check_basis(2, 1, n, 4) for n in (50, 100, 200)]
    for rep in reports:
        assert rep.remainder <= 2 * rep.next_term
    expo = measured_decay_exponent(reports)
    assert abs(expo - 5) / 5 < 0.15


def test_asymptotic_k0_leading_order():
    r1 = asymptotic_check_basis(2, 1, 50, 0)
    r2 = asymptotic_check_basis(2, 1, 200, 0)
    assert r2.remainder < r1.remainder / 3  # shrinks roughly like 1/N


def test_asymptotic_check_domain():
    for p, a, n, k in ((5, 7, 3, 2), (5, 0, 3, 2), (5, 5, 3, 2), (5, 1, 0, 2),
                       (5, 1, -3, 2), (5, 1, 3, -1)):
        with pytest.raises(DomainError):
            asymptotic_check_basis(p, a, n, k)
    vec, s = chars.theorem_s_matrix("2_3_5")
    for component in (-1, len(vec)):
        with pytest.raises(DomainError, match="component"):
            asymptotic_check(vec, s, component, 50, 2)


def test_asymptotic_theorem_matrix():
    vec, s = chars.theorem_s_matrix("2_3_5")
    reps = [asymptotic_check(vec, s, 1, n, 2) for n in (50, 100, 200)]
    expo = measured_decay_exponent(reps)
    assert abs(expo - 3) / 3 < 0.15


def test_hat_eichler_converges():
    v1 = hat_eichler(2, 1, complex(0, -1), 1e-8)
    v2 = hat_eichler(2, 1, complex(0, -1), 1e-12)
    assert abs(v1 - v2) < 1e-8


def test_hat_eichler_domain():
    with pytest.raises(DomainError):
        hat_eichler(2, 1, complex(0, 0.5))


def test_hat_linearity_against_sum():
    # the integral is linear in the character: hat of psi_3^(1) + psi_3^(2)
    # equals the sum of the two basis integrals
    z = complex(0.2, -0.8)
    v1 = hat_eichler(3, 1, z, 1e-9)
    v2 = hat_eichler(3, 2, z, 1e-9)
    chi = chars.get_character("psi6_1p2")

    def combined():
        import mpmath as mp
        zz = mp.mpc(z)
        zbar = mp.conj(zz)

        def integrand(u):
            tau = zbar + 1j * u * u
            return chars.theta_numeric(chi, tau, 1e-12) / mp.sqrt(tau - zz) * 2j * u

        with mp.workdps(35):
            val = mp.quad(integrand, [0, mp.inf])
            return val / mp.sqrt(6 * 1j)

    assert abs(combined() - (v1 + v2)) < 1e-8


def test_hat_approaches_radial_limit():
    # z -> 1/N from below reproduces the exact limit value at 1/N
    exact = chars.eichler_tilde_at_inverse_N(chars.psi_basis(2, 1), 3)
    target = complex(exact.to_complex(128))
    vals = [complex(hat_eichler(2, 1, complex(1 / 3, -eps), 1e-10))
            for eps in (0.02, 0.01, 0.005)]
    errors = [abs(v - target) for v in vals]
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < 0.05


def test_nearly_modular_hat():
    assert verify_nearly_modular_hat(2, 1, complex(0.3, -0.7), 1e-6).passed
    assert verify_nearly_modular_hat(3, 1, complex(0, -0.5), 1e-6).passed


def test_hat_integral_split_independence():
    # integral additivity: splitting the ray at different points cannot matter
    import mpmath as mp
    z = mp.mpc(0.1, -0.6)

    def integral(points):
        def integrand(s):
            tau = 1j * s
            return lfunc._theta_basis(2, 1, tau, 1e-12) / mp.sqrt(tau - z) * 1j
        with mp.workdps(35):
            return mp.quad(integrand, points)

    a = integral([0, 1, mp.inf])
    b = integral([0, mp.mpf("0.3"), 2, mp.inf])
    assert abs(a - b) < 1e-8
