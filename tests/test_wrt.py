"""Quantum-invariant records: assembly, degenerate cases, method agreement."""

from fractions import Fraction

import mpmath
import pytest

from qtheta import chars, cli
from qtheta.cyclo import CycloNumber
from qtheta.errors import DegenerateCaseError, DomainError, UnsupportedMethodError
from qtheta.wrt import (SQRT2, SQRT3, Prefactor, cross_verify, degenerate_probe,
                        normalization_values, theorem_ids, wrt_invariant)


def test_theorem_registry():
    assert len(theorem_ids()) == 11


def test_sqrt_constants():
    assert SQRT2 * SQRT2 == 2
    assert SQRT3 * SQRT3 == 3


def test_prefactor_inverse():
    pre = Prefactor(scalar=Fraction(3, 2), roots=((8, 3),), minus_one=((5, 1),))
    assert pre.value() * pre.inverse() == 1


def test_prefactor_inverse_closed_form():
    # 1/(zeta^e - 1) from the closed form, in the field of zeta^e itself
    for m, e in [(168, 1), (120, 7), (240, 1), (360, 11), (60, 10), (84, 9)]:
        got = Prefactor(minus_one=((m, e),)).inverse()
        want = (CycloNumber.root_of_unity(m, e) - 1).inv()
        assert (got.order, got.text()) == (want.order, want.text())
    with pytest.raises(DegenerateCaseError):
        Prefactor(minus_one=((6, 12),)).inverse()


def test_s3_normalization():
    for n in (2, 5, 9):
        res = wrt_invariant("s3", n)
        assert res.value == 1


def test_normalizations_check_n_and_method():
    for manifold in ("s3", "s2xs1"):
        for n in (1, 0, -3):
            with pytest.raises(DomainError, match="at least 2"):
                wrt_invariant(manifold, n)
        with pytest.raises(UnsupportedMethodError):
            wrt_invariant(manifold, 5, "no_such_method")


def test_s2xs1_normalization():
    one, v2 = normalization_values(2)
    assert one == 1 and abs(v2 - 1) < 1e-25
    _, v4 = normalization_values(4)
    assert abs(v4 - 2) < 1e-25  # sqrt(2)/sin(pi/4) = 2
    _, v3 = normalization_values(3)
    with mpmath.workdps(30):
        want = mpmath.sqrt(mpmath.mpf(3) / 2) / mpmath.sinpi(mpmath.mpf(1) / 3)
        assert abs(v3 - want) < 1e-25


def test_degenerate_cases():
    with pytest.raises(DegenerateCaseError):
        wrt_invariant("sigma_2_3_5", 1)
    with pytest.raises(DegenerateCaseError):
        wrt_invariant("m_2_3_4", 3)  # odd N: vanishing parity factor
    with pytest.raises(DomainError):
        cross_verify("sigma_2_3_5", [1])


def test_root_order_below_one_rejected():
    for n in (0, -4):
        with pytest.raises(DomainError, match="at least 2"):
            wrt_invariant("sigma_2_3_5", n)
    with pytest.raises(DegenerateCaseError, match="N = 1"):
        wrt_invariant("sigma_2_3_5", 1)


def test_degenerate_probe_documents_the_constant_gap():
    probe = degenerate_probe()
    assert probe["radial_limit"] == 2
    assert probe["le_sum_raw"] == 1
    assert probe["le_product_raw"] == 2
    assert probe["matches_radial"]["le_product_raw"]
    assert not probe["matches_radial"]["le_sum_raw"]
    assert probe["matches_radial"]["2*le_sum_raw"]


def test_sigma235_value_known_points():
    # tau_3 = 1 and tau_5 = 1 + 2 z5 + 2 z5^2 + z5^3, frozen from the exact route
    assert wrt_invariant("sigma_2_3_5", 3).value == 1
    v5 = wrt_invariant("sigma_2_3_5", 5).value
    z5 = CycloNumber.root_of_unity(5)
    assert v5 == 1 + 2 * z5 + 2 * z5 * z5 + z5 * z5 * z5


def test_methods_agree_exactly():
    for manifold, n in (("sigma_2_3_5", 4), ("sigma_2_3_7", 5), ("m_2_3_4", 4),
                        ("m_2_2_3", 3), ("m_2_2_5", 5), ("m_2_2_2_rho", 6)):
        a = wrt_invariant(manifold, n, "eichler_limit").value
        b = wrt_invariant(manifold, n, "terminating_qseries").value
        assert a == b, (manifold, n)


def test_surgery_method():
    for manifold, n in (("sigma_2_3_5", 3), ("sigma_2_3_7", 4), ("m_2_3_4", 2)):
        a = wrt_invariant(manifold, n, "eichler_limit").value
        c = wrt_invariant(manifold, n, "surgery_series").value
        assert a == c, (manifold, n)


def test_two_m222_theorems_agree():
    for n in (2, 3, 5, 8):
        a = wrt_invariant("m_2_2_2_rho", n).value
        b = wrt_invariant("m_2_2_2_d5", n).value
        assert a == b, n


def test_omega_nu_route_invariance():
    # replacing the modulus-6 route by the modulus-24 route at the square root
    # of the evaluation point leaves the M(2,2,3) ingredient values unchanged
    omega = chars.get_character("psi6_1p2")
    nu = chars.get_character("chi24_2")
    for n in (2, 3, 4):
        for j in (1, 2 * n + 1):
            a = chars.false_theta_radial_limit(omega, 3, -1, 4 * n, j)
            b = chars.false_theta_radial_limit(nu, 24, -16, 8 * n, j)
            assert a == b, (n, j)


def test_cross_verify_odd_vanishing():
    for manifold in ("m_2_3_4", "m_2_2_4", "m_2_2_8"):
        reports = cross_verify(manifold, range(3, 20, 2))
        assert all(r.passed for r in reports)
        assert all("vanishes exactly" in r.detail for r in reports)


def test_cross_verify_small_range():
    for manifold in ("sigma_2_3_5", "m_2_2_5", "m_2_2_6"):
        reports = cross_verify(manifold, [2, 3])
        assert all(r.passed for r in reports)


def test_unavailable_route_reports_unsupported():
    from qtheta.errors import UnsupportedMethodError
    with pytest.raises(UnsupportedMethodError):
        wrt_invariant("m_2_2_8", 6, "terminating_qseries")
    with pytest.raises(UnsupportedMethodError):
        wrt_invariant("m_2_2_6", 4, "surgery_series")


def test_radial_method_close_to_exact():
    a = wrt_invariant("sigma_2_3_5", 4, "eichler_limit").value
    c = wrt_invariant("sigma_2_3_5", 4, "radial_numeric").value
    assert abs(complex(c) - complex(a.to_complex(128))) < 1e-10


@pytest.mark.parametrize("manifold,n_val", [("m_2_2_8", 2), ("m_2_2_6", 2), ("m_2_3_3", 4)])
def test_radial_numeric_keeps_its_digits(manifold, n_val):
    """The numeric route assembles and divides at 40 digits, so it lands far
    below the 53-bit rounding it used to carry (7e-17 at m_2_3_3, N=4)."""
    exact = wrt_invariant(manifold, n_val, "eichler_limit").value.to_complex(256)
    numeric = wrt_invariant(manifold, n_val, "radial_numeric").value
    assert abs(numeric - exact) < mpmath.mpf("1e-25")


def test_cross_verify_numeric_gate_works_below_double_precision(monkeypatch):
    """The radial defect is taken at 40 digits: a radial value moved by 1e-20,
    far below the 53-bit rounding of a Python complex, fails a 1e-25 gate."""
    from qtheta import catalog
    args = ("m_2_2_5", [4], 1e-25, True)
    assert cross_verify(*args)[0].passed  # the radial route lands within 1e-38
    value_at_root = catalog.value_at_root

    def nudged(fn_id, order, power, method="eichler"):
        value = value_at_root(fn_id, order, power, method)
        return value + mpmath.mpf("1e-20") if method == "radial" else value

    monkeypatch.setattr(catalog, "value_at_root", nudged)
    report = cross_verify(*args)[0]
    assert report.status == "fail" and "radial defect" in report.detail


def test_result_formatting():
    res = wrt_invariant("sigma_2_3_5", 3)
    shown = cli._format_value(res.value, 128)
    assert shown == {"cyclotomic": "M=3; [1, 0]", "complex": "(1.0 + 0.0j)"}
