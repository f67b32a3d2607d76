"""Quantum invariants of the small Seifert manifolds through the catalogued
function identities.

Each theorem record states  prefactor(N) * tau_N(M) = RHS(N)  where the right
side combines starred-function values at explicit roots of unity.  The
invariant is computed THROUGH these identities, so correctness here means
cross-method consistency: the same right side is assembled from the exact
radial-limit route, from exact terminating/collapsing q-series routes, from
the surgery double sums where they exist, and from an independent numeric
radial extrapolation.  Each right side is written once, with its square roots
of 2 and 3 and its roots of unity kept exact as cyclotomic numbers, and every
route returns  RHS * (exact inverse of the prefactor).  On the numeric route
the function values are mpmath numbers, and the exact constants embed at
``NUMERIC_DPS`` digits where they meet them (``CycloNumber._mpmath_``).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction
from typing import Sequence, Union

from . import catalog
from .cyclo import CycloNumber, mpmath, root_weighted_sum
from .errors import (DegenerateCaseError, DivergenceError, DomainError,
                     UnknownIdError, UnsupportedMethodError)
from .report import FrozenRecord, Record, VerificationReport, set_field

Value = Union[CycloNumber, "mpmath.mpc"]

#: exact square roots as cyclotomic combinations
SQRT2 = CycloNumber.root_of_unity(8, 1) + CycloNumber.root_of_unity(8, 7)
SQRT3 = CycloNumber.root_of_unity(12, 1) + CycloNumber.root_of_unity(12, 11)


class Prefactor(FrozenRecord):
    """Structured product  scalar * prod zeta^(e) * prod (zeta^(e) - 1) so the
    inverse never needs a large-field polynomial gcd.  ``roots`` holds the
    (order, power) factors zeta_order^power, ``minus_one`` the (order, power)
    factors (zeta_order^power - 1)."""

    __slots__ = ("scalar", "roots", "minus_one")

    def __init__(self, scalar: Fraction = Fraction(1), roots: tuple = (),
                 minus_one: tuple = ()):
        set_field(self, "scalar", scalar)
        set_field(self, "roots", roots)
        set_field(self, "minus_one", minus_one)

    def value(self) -> CycloNumber:
        out = CycloNumber.from_rational(self.scalar)
        for m, e in self.roots:
            out = out * CycloNumber.root_of_unity(m, e)
        for m, e in self.minus_one:
            out = out * (CycloNumber.root_of_unity(m, e) - 1)
        return out

    def inverse(self) -> CycloNumber:
        """1/value, summed once in the field of the lcm L of the orders of the
        roots: zeta^(-e) is a shift, and 1/(w - 1) = (1/d) sum_(k<d) k w^k
        for w of order d > 1."""
        def reduced(m, e):  # (e', d) with zeta_m^e = zeta_d^e' at its own order d
            g = math.gcd(m, e)
            return e // g, m // g

        roots = [reduced(m, e) for m, e in self.roots]
        minus_one = [reduced(m, e) for m, e in self.minus_one]
        size = math.lcm(1, *(d for _, d in roots + minus_one))
        terms = {0: self.scalar.denominator}  # exponent mod L -> weight
        den = self.scalar.numerator
        for e, d in roots:
            terms = {(a - e * (size // d)) % size: c for a, c in terms.items()}
        for e, d in minus_one:
            if d == 1:
                raise DegenerateCaseError("prefactor vanishes; the identity does not "
                                          "determine the invariant here")
            spread: dict = {}
            for a, c in terms.items():
                for k in range(1, d):
                    b = (a + e * k * (size // d)) % size
                    spread[b] = spread.get(b, 0) + c * k
            terms = spread
            den *= d
        return root_weighted_sum(size, terms.items(), den)


#: working precision (digits) of the numeric route's right side and product
NUMERIC_DPS = 40


class SeifertTheorem(Record):
    """One theorem record: ``prefactor(N)`` is a Prefactor, ``points`` holds
    (function id, root order factory, root power factory) per needed value,
    ``rhs(N, values: dict)`` gives the right side with exact constants, and
    ``parity_vanishing`` says that it carries (1 + (-1)^N)."""

    __slots__ = ("id", "display_name", "pqr", "prefactor", "points", "rhs",
                 "parity_vanishing")
    _defaults = {"parity_vanishing": False}

    def vanishes(self, n_val: int) -> bool:
        return self.parity_vanishing and n_val % 2 == 1


_theorems: dict[str, SeifertTheorem] = {}


def _register(t: SeifertTheorem) -> SeifertTheorem:
    _theorems[t.id] = t
    return t


def theorem_ids() -> list[str]:
    return sorted(_theorems)


def get_theorem(manifold: str) -> SeifertTheorem:
    try:
        return _theorems[manifold]
    except KeyError:
        raise UnknownIdError(f"unknown manifold id: {manifold!r} "
                             f"(known: {', '.join(sorted(_theorems))}, s3, s2xs1)") from None


def _build_theorems():
    _register(SeifertTheorem(
        "sigma_2_3_5", "Sigma(2,3,5)", (2, 3, 5),
        lambda n: Prefactor(roots=((n, 1),), minus_one=((n, 1),)),
        (("chi0_star", lambda n: n, lambda n: 1),),
        lambda n, v: 1 - v["chi0_star"] * Fraction(1, 2)))
    _register(SeifertTheorem(
        "m_2_3_4", "M(2,3,4)", (2, 3, 4),
        lambda n: Prefactor(roots=((4 * n, 3),), minus_one=((n, 1),)),
        (("phi_star", lambda n: 2 * n, lambda n: 1),),
        lambda n, v: SQRT2 * Fraction(1, 4) * (2 - v["phi_star"]),
        parity_vanishing=True))
    _register(SeifertTheorem(
        "m_2_2_3", "M(2,2,3)", (2, 2, 3),
        lambda n: Prefactor(roots=((4 * n, 1),), minus_one=((n, 1),)),
        (("omega_star", lambda n: 4 * n, lambda n: 1),
         ("omega_star@minus", lambda n: 4 * n, lambda n: 2 * n + 1)),
        lambda n, v: (1 - v["omega_star"])
        + CycloNumber.root_of_unity(4, n) * (1 - v["omega_star@minus"])))
    _register(SeifertTheorem(
        "sigma_2_3_7", "Sigma(2,3,7)", (2, 3, 7),
        lambda n: Prefactor(roots=((84 * n, -1),), minus_one=((n, 1),)),
        (("F0_star", lambda n: n, lambda n: 1),),
        lambda n, v: v["F0_star"] * Fraction(1, 2)))
    _register(SeifertTheorem(
        "m_2_3_3", "M(2,3,3)", (2, 3, 3),
        lambda n: Prefactor(roots=((2 * n, 1),), minus_one=((n, 1),)),
        (("phi6_star", lambda n: n, lambda n: 1),
         ("psi6_star", lambda n: n, lambda n: 1)),
        lambda n, v: (
            (1 + 2 * CycloNumber.root_of_unity(3, n)) * SQRT3 * Fraction(1, 3)
            * (1 - v["phi6_star"] * Fraction(1, 2))
            - (1 - CycloNumber.root_of_unity(3, n)) * SQRT3 * Fraction(1, 3)
            * CycloNumber.root_of_unity(3 * n, 1) * v["psi6_star"])))
    _register(SeifertTheorem(
        "m_2_2_6", "M(2,2,6)", (2, 2, 6),
        lambda n: Prefactor(roots=((n, 1),), minus_one=((n, 1),)),
        (("phi6_star", lambda n: n, lambda n: 1),),
        lambda n, v: 2 * (1 - v["phi6_star"])))
    _register(SeifertTheorem(
        "m_2_2_2_rho", "M(2,2,2)", (2, 2, 2),
        lambda n: Prefactor(minus_one=((n, 1),)),
        (("rho6_star", lambda n: 6 * n, lambda n: 1),),
        lambda n, v: 2 * (1 - 2 * v["rho6_star"])))
    _register(SeifertTheorem(
        "m_2_2_5", "M(2,2,5)", (2, 2, 5),
        lambda n: Prefactor(roots=((4 * n, 3),), minus_one=((n, 1),)),
        (("Psi10_star", lambda n: 4 * n, lambda n: 1),
         ("X10_star", lambda n: n, lambda n: 2)),
        lambda n, v: (
            1 + CycloNumber.root_of_unity(4, -n)
            - (1 - CycloNumber.root_of_unity(4, -n)) * v["Psi10_star"]
            - 2 * CycloNumber.root_of_unity(4, -n) * v["X10_star"])))
    _register(SeifertTheorem(
        "m_2_2_2_d5", "M(2,2,2)", (2, 2, 2),
        lambda n: Prefactor(minus_one=((n, 1),)),
        (("D5_star", lambda n: 2 * n, lambda n: 1),),
        lambda n, v: 2 * (1 - 2 * v["D5_star"])))
    _register(SeifertTheorem(
        "m_2_2_4", "M(2,2,4)", (2, 2, 4),
        lambda n: Prefactor(minus_one=((n, 1),)),
        (("D6_star", lambda n: 4 * n, lambda n: 1),),
        lambda n, v: 1 - v["D6_star"],
        parity_vanishing=True))
    _register(SeifertTheorem(
        "m_2_2_8", "M(2,2,8)", (2, 2, 8),
        lambda n: Prefactor(roots=((4 * n, 3),), minus_one=((n, 1),)),
        (("I12_star", lambda n: 2 * n, lambda n: 1),),
        lambda n, v: 1 - v["I12_star"],
        parity_vanishing=True))


_build_theorems()

#: method names accepted by wrt_invariant
METHODS = ("eichler_limit", "terminating_qseries", "surgery_series", "radial_numeric")

_METHOD_TO_ROUTE = {
    "eichler_limit": "eichler",
    "terminating_qseries": "qseries",
    "surgery_series": "surgery",
    "radial_numeric": "radial",
}


class WRTResult(Record):
    __slots__ = ("manifold", "n_val", "method", "value", "note")

    def __init__(self, manifold: str, n_val: int, method: str, value: Value, note: str = ""):
        self.manifold = manifold
        self.n_val = n_val
        self.method = method
        self.value = value
        self.note = note


def _assemble_rhs(thm: SeifertTheorem, n_val: int, method: str) -> Value:
    """Right side of the theorem with function values from the given route
    (the numeric one at ``NUMERIC_DPS`` working digits)."""
    if thm.vanishes(n_val):
        # the parity factor (1 + (-1)^N) is exactly zero: the right side
        # vanishes identically, whatever the function values would be
        return CycloNumber.zero()
    route = _METHOD_TO_ROUTE[method]
    values = {label: catalog.value_at_root(label.split("@")[0], order_of(n_val),
                                           power_of(n_val), method=route)
              for label, order_of, power_of in thm.points}
    rhs = thm.rhs(n_val, values)
    return rhs * 2 if thm.parity_vanishing else rhs  # (1 + (-1)^N) at even N


def wrt_invariant(manifold: str, n_val: int, method: str = "eichler_limit") -> WRTResult:
    """tau_N of a catalogued manifold, solved out of the theorem identity as
    RHS / prefactor.  N = 1 and the odd-N parity-vanishing cases are reported
    as degenerate (the identity does not determine the invariant there)."""
    if method not in METHODS:
        raise UnsupportedMethodError(f"unknown method {method!r}; choose from {METHODS}")
    if n_val < 1 or (n_val == 1 and manifold in ("s3", "s2xs1")):
        raise DomainError(f"N must be at least 2, got {n_val}")
    if manifold == "s3":
        return WRTResult("s3", n_val, method, CycloNumber.one(), "normalization")
    if manifold == "s2xs1":
        val = normalization_values(n_val)[1]
        return WRTResult("s2xs1", n_val, method, val, "normalization")
    thm = get_theorem(manifold)
    if n_val == 1:
        raise DegenerateCaseError("N = 1 makes the prefactor vanish; see degenerate_probe()")
    if thm.vanishes(n_val):
        raise DegenerateCaseError(
            f"{thm.display_name} at odd N: the right side carries the factor "
            "(1 + (-1)^N) = 0, so tau_N is undetermined by this identity")
    # the numeric route's values, right side and product run at NUMERIC_DPS
    # digits; an exact route enters no mpmath context, so never loads mpmath
    with mpmath.workdps(NUMERIC_DPS) if method == "radial_numeric" else nullcontext():
        try:
            rhs = _assemble_rhs(thm, n_val, method)
        except DivergenceError as exc:
            raise UnsupportedMethodError(
                f"{method} is not available for {manifold} at N={n_val}: {exc}") from exc
        value = rhs * thm.prefactor(n_val).inverse()
    return WRTResult(manifold, n_val, method, value)


def cross_verify(manifold: str, n_values: Sequence[int], tolerance: float = 1e-10,
                 always_numeric: bool = False) -> list[VerificationReport]:
    """Pairwise equality of the available computation routes, per N.

    Exact routes must agree exactly; where no exact second route exists (and
    when ``always_numeric`` is set) the independent numeric radial route must
    agree within the tolerance, the difference taken at ``NUMERIC_DPS``
    digits.  For the parity-vanishing theorems at odd N the report asserts
    that the assembled right side is exactly zero.
    """
    if manifold in ("s3", "s2xs1"):
        raise DomainError(f"{manifold} is a normalisation record with a single route: "
                          "there is nothing to cross-verify")
    thm = get_theorem(manifold)
    reports = []
    for n_val in n_values:
        if n_val < 2:
            raise DomainError("cross_verify needs N >= 2; N = 1 is degenerate")
        if thm.vanishes(n_val):
            rhs = _assemble_rhs(thm, n_val, "eichler_limit")
            ok = isinstance(rhs, CycloNumber) and not rhs
            reports.append(VerificationReport(
                id=f"{manifold}[N={n_val}]", status="pass" if ok else "fail",
                detail="right side vanishes exactly (parity factor)"))
            continue
        base = _assemble_rhs(thm, n_val, "eichler_limit")
        compared = []
        status = "pass"
        detail_parts = []
        for method in ("terminating_qseries", "surgery_series"):
            try:
                other = _assemble_rhs(thm, n_val, method)
            except (UnsupportedMethodError, DivergenceError):
                continue
            compared.append(method)
            if other != base:
                status = "fail"
                detail_parts.append(f"{method} disagrees exactly")
        if always_numeric or not compared:
            with mpmath.workdps(NUMERIC_DPS):
                diff = abs(_assemble_rhs(thm, n_val, "radial_numeric") - base)
            compared.append("radial_numeric")
            if diff > tolerance:
                status = "fail"
                detail_parts.append(f"radial defect {float(diff):.2e}")
        reports.append(VerificationReport(
            id=f"{manifold}[N={n_val}]", status=status,
            detail=(f"eichler_limit vs {', '.join(compared)}"
                    + ("; " + "; ".join(detail_parts) if detail_parts else ""))))
    return reports


def normalization_values(n_val: int) -> tuple[Fraction, mpmath.mpf]:
    """(tau(S^3), tau(S^2 x S^1)) = (1, sqrt(N/2)/sin(pi/N))."""
    if n_val < 2:
        raise DomainError("N must be >= 2")
    with mpmath.workdps(30):
        val = mpmath.sqrt(mpmath.mpf(n_val) / 2) / mpmath.sinpi(mpmath.mpf(1) / n_val)
    return Fraction(1), val


def degenerate_probe() -> dict:
    """The N = 1 story for the order-5 terminating forms, recorded as data.

    At q = 1 the two terminating rewritings evaluate to different constants
    (the product form gives 2, the plain sum gives 1), while the radial limit
    of the character expansion is 2; the identity for Sigma(2,3,5) needs the
    value 2 there.  In general the plain sums carry an exact factor 1/2
    against the radial limit; wrt routes apply the published factor.
    """
    le_sum = catalog.value_at_root("chi0_star", 1, 0, "qseries")  # includes the factor
    radial = catalog.value_at_root("chi0_star", 1, 0, "eichler")
    raw_sum = catalog.variant_at_root("chi0_star", "le_sum", 1, 0)
    raw_product = catalog.variant_at_root("chi0_star", "le_product", 1, 0)
    return {
        "radial_limit": radial,
        "le_sum_raw": raw_sum,
        "le_product_raw": raw_product,
        "le_sum_scaled": le_sum,
        "matches_radial": {
            "le_product_raw": raw_product == radial,
            "le_sum_raw": raw_sum == radial,
            "2*le_sum_raw": 2 * raw_sum == radial,
        },
    }
