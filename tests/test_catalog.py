"""Catalog surface: expansions, variants, Bailey machinery, Jones values,
root-of-unity routes."""

import cmath
import copy
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qtheta import catalog, wrt
from qtheta.catalog import (bailey_reduced_identity, beta_from_alpha,
                            jones_trefoil, value_at_root, verify_bailey_pair)
from qtheta.cyclo import CycloNumber
from qtheta.errors import (DivergenceError, DomainError, QThetaError, UnknownIdError,
                           UnsupportedMethodError)
from qtheta.identities import get_identity, verify_fine_andrews_specializations
from qtheta.series import (DoubleSum, Monomial, ProductSum, ThetaSum, pochhammer_inverse,
                           q_binomial)


def brute_chi0(trunc):
    """Independent oracle for the order-5 base function: plain nested loops."""
    coeffs = {0: Fraction(0)}
    for n in range(trunc + 1):
        # q^n / ((1-q^(n+1)) ... (1-q^(2n))) expanded bluntly
        term = {n: Fraction(1)}
        for j in range(n + 1, 2 * n + 1):
            new = {}
            for e, c in term.items():
                k = 0
                while e + k * j < trunc:
                    new[e + k * j] = new.get(e + k * j, Fraction(0)) + c
                    k += 1
            term = new
        for e, c in term.items():
            if e < trunc:
                coeffs[e] = coeffs.get(e, Fraction(0)) + c
    return {e: c for e, c in coeffs.items() if c}


def test_expand_chi0_against_oracle():
    got = catalog.expand("chi0", 12)
    assert {n: Fraction(c) for n, c in got.coeffs.items()} == brute_chi0(12)
    # frozen head: 1 + q + q^2 + 2 q^3 + ...
    assert [got.coeffs.get(n, 0) for n in range(5)] == [1, 1, 1, 2, 1]


def test_expand_unknown():
    with pytest.raises(UnknownIdError):
        catalog.expand("nope", 10)
    with pytest.raises(UnknownIdError):
        catalog.expand("chi0_star", 10, "bogus_variant")


def test_expand_star_variants_heads():
    st = catalog.expand("chi0_star", 9, "false_theta")
    assert sorted((n // 120, c) for n, c in st.coeffs.items()) == [
        (0, 1), (1, 1), (3, 1), (7, 1), (8, -1)]
    nu = catalog.expand("nu_star", 11, "false_theta")
    assert sorted((n // 24, c) for n, c in nu.coeffs.items()) == [(0, 1), (2, 1), (10, -1)]


def test_function_ids_cover_catalog():
    ids = catalog.function_ids()
    for fid in ("chi0_star", "chi1_star", "phi_star", "nu_star", "f_star",
                "omega_star", "chi3_star", "rho3_star", "F0_star", "F1_star",
                "F2_star", "phi6_star", "psi6_star", "rho6_star", "Phi10_star",
                "Psi10_star", "X10_star", "chi10_star", "D5_star", "D6_star",
                "I12_star", "I13_star"):
        assert fid in ids


def test_all_variants_agree_small():
    # every registered variant of every function agrees at a shared truncation
    t = 40
    for fid in catalog.function_ids():
        fn = catalog.get_function(fid)
        names = sorted(fn.variants)
        base = catalog.expand(fid, t, names[0])
        for other in names[1:]:
            assert base.agrees_with(catalog.expand(fid, t, other)), (fid, other)


def test_variants_are_specs():
    for fid in catalog.function_ids():
        for name, spec in catalog.get_function(fid).variants.items():
            assert isinstance(spec, (ProductSum, DoubleSum, ThetaSum)), (fid, name)


def test_x10_star_double_sum_is_its_series():
    assert catalog.expand("X10_star", 150, "double_sum").agrees_with(
        catalog.expand("X10_star", 150, "defining"))


def test_phase_carrying_field_order():
    for fid in ("chi3_star", "rho3_star"):
        for variant in ("defining", "false_theta"):
            assert catalog.expand(fid, 20, variant).field_order == 12
    # the defining series of chi3 and rho3 are rational
    assert catalog.expand("chi3", 20).field_order == 1
    assert catalog.expand("rho3", 20).field_order == 1


# -- Bailey machinery ---------------------------------------------------------

def test_beta_from_delta_alpha_x_one():
    t = 40
    pair = beta_from_alpha(Monomial.q(0), [1, 0, 0, 0, 0], t)
    for n in range(5):
        inv = pochhammer_inverse(Monomial.q(1), 1, n, t)
        assert pair.beta[n].agrees_with(inv * inv)  # 1/((q)_n)^2


def test_beta_from_delta_alpha_x_q():
    t = 40
    pair = beta_from_alpha(Monomial.q(1), [1, 0, 0, 0], t)
    for n in range(4):
        want = pochhammer_inverse(Monomial.q(1), 1, n, t) * pochhammer_inverse(
            Monomial.q(2), 1, n, t)
        assert pair.beta[n].agrees_with(want)


def test_bailey_round_trip():
    t = 100
    alpha = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    pair = beta_from_alpha(Monomial.q(1), alpha, t)
    assert verify_bailey_pair(pair).passed


def test_bailey_reduced_identity():
    for e in (1, 2):
        pair = beta_from_alpha(Monomial.q(e), [1] + [0] * 15, 80)
        assert bailey_reduced_identity(pair, 80).passed
    zero_pair = beta_from_alpha(Monomial.q(1), [0] * 16, 80)
    assert bailey_reduced_identity(zero_pair, 80).passed  # 0 == 0


# -- trefoil Jones values ------------------------------------------------------

def test_jones_unknot_normalization():
    assert jones_trefoil("cyclotomic", 1) == 1
    assert jones_trefoil("geometric", 1) == 1


def test_jones_forms_agree():
    for n in range(1, 13):
        assert jones_trefoil("cyclotomic", n) == jones_trefoil("geometric", n), n


def test_jones_value_at_two():
    assert jones_trefoil("cyclotomic", 2) == -3


def test_jones_forms_match_complex_sums():
    # both sums written out in floating point at q = e^(2 pi i/N)
    for n in (3, 7, 16, 29):
        q = cmath.exp(2j * cmath.pi / n)
        cyclotomic, geometric, prod_c, prod_g = 0, 0, 1, 1
        for k in range(n):
            if k:
                prod_c *= (1 - q ** (k - n)) * (1 - q ** (k + n))
                prod_g *= 1 - q ** (k - n)
            cyclotomic += q ** (-k * (k + 2)) * prod_c
            geometric += q ** (-k * n) * prod_g
        geometric *= q ** (1 - n)
        for form, want in (("cyclotomic", cyclotomic), ("geometric", geometric)):
            got = complex(jones_trefoil(form, n).to_complex(64))
            assert abs(got - want) < 1e-9 * max(1, abs(want)), (form, n)


# -- root-of-unity routes --------------------------------------------------------

def test_le_sum_carries_factor_two():
    # radial limit = 2 * plain-sum value, at several roots
    for n in (2, 3, 5, 8):
        radial = value_at_root("chi0_star", n, 1, "eichler")
        raw = catalog.variant_at_root("chi0_star", "le_sum", n, 1)
        assert radial == 2 * raw
        assert value_at_root("chi0_star", n, 1, "qseries") == radial


def test_qseries_route_falls_back_to_the_double_sum(monkeypatch):
    # X10_star's defining sum does not collapse at q = -1 or at zeta_8^3
    for m, j in ((2, 1), (8, 3)):
        with pytest.raises(DivergenceError):
            catalog.variant_at_root("X10_star", "defining", m, j)
        assert value_at_root("X10_star", m, j, "qseries") == \
            catalog.variant_at_root("X10_star", "double_sum", m, j) == \
            value_at_root("X10_star", m, j, "eichler")
    calls = []

    def diverging(fn_id, variant, m, j):
        calls.append((fn_id, variant))
        raise DivergenceError("no value")

    monkeypatch.setattr(catalog, "variant_at_root", diverging)
    for fid in ("X10_star", "F0_star", "phi6_star"):
        with pytest.raises(DivergenceError):
            value_at_root(fid, 7, 1, "qseries")
    # no retry where the qseries variant is the double sum, or there is none
    assert calls == [("X10_star", "defining"), ("X10_star", "double_sum"),
                     ("F0_star", "double_sum"), ("phi6_star", "defining")]


def test_collapse_decides_a_unit_ratio_exactly(monkeypatch):
    # at M = 5 the window product of chi3's fine form is 1 - zeta_6, of
    # modulus exactly 1: no embedding may decide that the ratio fails to contract
    def embedded(*args):
        raise AssertionError("embedded a window product")

    monkeypatch.setattr(CycloNumber, "to_complex", embedded)
    with pytest.raises(DivergenceError):
        catalog.variant_at_root("chi3", "fine_form", 5, 1)


def test_surgery_routes_match_radial():
    for n in (2, 3, 5):
        assert value_at_root("chi0_star", n, 1, "surgery") == \
            value_at_root("chi0_star", n, 1, "eichler")
    for n in (3, 5, 7):
        assert value_at_root("F0_star", n, 1, "surgery") == \
            value_at_root("F0_star", n, 1, "eichler")
    for n in (4, 8):  # the order-3 surgery form lives at even-order roots
        assert value_at_root("phi_star", n, 1, "surgery") == \
            value_at_root("phi_star", n, 1, "eichler")


def test_terminating_routes_match_radial():
    cases = [("rho6_star", 12, 1), ("rho6_star", 18, 1), ("D5_star", 6, 1),
             ("D5_star", 10, 1), ("D6_star", 8, 1), ("omega_star", 8, 1),
             ("omega_star", 12, 5), ("Psi10_star", 8, 1), ("Psi10_star", 12, 1),
             ("X10_star", 3, 2), ("X10_star", 2, 1), ("phi6_star", 3, 1),
             ("phi6_star", 5, 1), ("psi6_star", 5, 1), ("F0_star", 4, 1),
             ("nu_star", 3, 1), ("phi_star", 4, 1), ("chi1_star", 5, 1)]
    for fid, m, j in cases:
        assert value_at_root(fid, m, j, "qseries") == \
            value_at_root(fid, m, j, "eichler"), (fid, m, j)


def test_unsupported_routes_error():
    with pytest.raises(UnsupportedMethodError):
        value_at_root("I12_star", 4, 1, "surgery")
    with pytest.raises((UnsupportedMethodError, DivergenceError)):
        value_at_root("I12_star", 4, 1, "qseries")
    with pytest.raises((UnsupportedMethodError, DivergenceError)):
        value_at_root("phi6_star", 4, 1, "qseries")  # even-order point


def test_terminating_root_engine():
    # 1 + zeta + 0 forever at zeta = i: the factor 1 - q^4 enters at n = 2
    z = CycloNumber.root_of_unity(4)
    stops = ProductSum(lambda n: n, lambda n: [(4, 1, 1)] if n == 2 else [])
    assert catalog._terminating_product_sum(4, 1, stops) == 1 + z
    # 1 + q^0 never vanishes: past the cap the sum is reported as nonterminating
    never = ProductSum(lambda n: 0, lambda n: [(0, -1, 1)])
    with pytest.raises(DivergenceError):
        catalog._terminating_product_sum(4, 1, never, cap=20)


def _routes():
    out = []
    for fid in catalog.function_ids():
        fn = catalog.get_function(fid)
        if fn.qseries is not None:
            out.append((fid, "qseries"))
        if "surgery" in fn.variants:
            out.append((fid, "surgery"))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_routes()), st.integers(1, 16), st.data())
def test_exact_routes_agree_with_eichler(route, m, data):
    fid, method = route
    j = data.draw(st.sampled_from([j for j in range(m) if math.gcd(j, m) == 1]))
    try:
        got = value_at_root(fid, m, j, method)
    except (DivergenceError, UnsupportedMethodError):
        return
    assert got == value_at_root(fid, m, j, "eichler")


def test_value_order_below_point_order():
    # the roots that enter X10_star at q = -1 cancel to 0, reported at order 1
    assert value_at_root("X10_star", 2, 1, "qseries").text() == "M=1; [0]"


def _digest(call):
    try:
        return hashlib.sha256(call().text().encode()).hexdigest()[:16]
    except QThetaError as exc:  # the recorded outcome of such a point is its class
        return type(exc).__name__


def test_root_values_match_golden():
    """Every exact route value at M <= 12 and every exact WRT invariant at
    N <= 10 prints as recorded: the first 16 hex digits of the SHA-256 of
    ``text()`` (field order included), or the exception class."""
    golden = json.loads((Path(__file__).parent / "data" / "root_values.json").read_text())
    got = {}
    for fid, method in _routes():
        for m in range(1, 13):
            for j in range(m):
                if math.gcd(j, m) == 1:
                    got[f"value_at_root|{fid}|{m}|{j}|{method}"] = _digest(
                        lambda: value_at_root(fid, m, j, method))
    for manifold in wrt.theorem_ids():
        for n in range(2, 11):
            for method in ("eichler_limit", "terminating_qseries", "surgery_series"):
                got[f"wrt_invariant|{manifold}|{n}|{method}"] = _digest(
                    lambda: wrt.wrt_invariant(manifold, n, method).value)
    assert sorted(got) == sorted(golden)
    assert [k for k in golden if got[k] != golden[k]] == []


def _expansion_digests() -> dict:
    got = {}
    for fid in catalog.function_ids():
        for variant in sorted(catalog.get_function(fid).variants):
            for t in (0, 1, 7, 60, 200):
                got[f"expand|{fid}|{variant}|{t}"] = _digest(
                    lambda: catalog.expand(fid, t, variant))
    for n in range(25):
        for m in range(n + 1):
            got[f"q_binomial|{n}|{m}"] = _digest(lambda: q_binomial(n, m))
    return got


def test_expansions_match_golden():
    """Every catalog variant at T = 0, 1, 7, 60 and 200, and every Gaussian
    binomial [n m] with n <= 24, prints as recorded (the digest of
    ``test_root_values_match_golden``)."""
    golden = json.loads((Path(__file__).parent / "data" / "expansions.json").read_text())
    got = _expansion_digests()
    assert sorted(got) == sorted(golden)
    assert [k for k in golden if got[k] != golden[k]] == []


def test_identity_registry_is_immutable():
    rec = get_identity("prop_5th_chi0")
    fresh = copy.copy(rec)  # a new record built from the fields
    assert fresh is not rec
    assert catalog.verify_identity("prop_5th_chi0").passed
    assert get_identity("prop_5th_chi0") == fresh
    with pytest.raises(AttributeError):
        rec.description = "changed"
    assert rec.description == fresh.description


def test_surgery_series_op():
    got = catalog.surgery_series("chi0_star_surgery", 60)
    assert got.agrees_with(catalog.expand("chi0_star", 60, "defining"))
    assert catalog.surgery_series("F0_star_surgery", 40).agrees_with(
        catalog.expand("F0_star", 40))
    with pytest.raises(UnknownIdError):
        catalog.surgery_series("nu_star_surgery", 40)


def test_fine_andrews_specializations():
    reports = verify_fine_andrews_specializations(80)
    assert len(reports) == 8
    assert all(r.passed for r in reports)


def test_negative_control_fails_with_mismatch():
    rep = catalog.verify_identity("negative_control")
    assert not rep.passed
    assert rep.first_mismatch == 7


def test_verify_all_rejects_jobs_below_one():
    for jobs in (-1, 0, None, 1.5, "2"):
        with pytest.raises(DomainError, match="jobs must be an integer >= 1"):
            catalog.verify_all(40, tags={"structural"}, jobs=jobs)
    assert all(r.passed for r in catalog.verify_all(40, tags={"structural"}, jobs=1))
