"""L-values at negative even integers, their generating identities, and the
numeric side of the nearly-modular story.

Two independent routes compute L(-2k, chi): a Hurwitz-type finite Bernoulli
sum (the oracle; works for every odd periodic chi) and Taylor division of the
four published cosine-ratio generating functions.  On top of those sit the
exponential-variable expansions of the terminating series (the catalog's own
registered q-series specs of chi0*, chi1*, phi* and nu*, expanded at
q = e^(-t) by one engine), the asymptotic expansion of the half-integrated
theta sums at 1/N, and quadrature checks for the lower-half-plane integral
representation.

A Taylor series in t (or x) is a ``series.QSeries`` with denominator 1, the
formal variable standing for t, and division goes through
``series.series_inverse``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import chars
from .chars import PeriodicFunction, m_matrix, psi_basis, theta_numeric
from .cyclo import mpmath
from .errors import DomainError, PrecisionError, UnknownIdError
from .report import Record, VerificationReport
from .series import Monomial, QSeries, series_inverse


# ---------------------------------------------------------------------------
# Bernoulli data
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    total = Fraction(0)
    for i in range(m):
        total += Fraction(math.comb(m + 1, i)) * bernoulli_number(i)
    return -total / (m + 1)


@lru_cache(maxsize=None)
def bernoulli_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients of B_k(x), ascending: B_k(x) = sum_i C(k,i) B_(k-i) x^i."""
    return tuple(Fraction(math.comb(k, i)) * bernoulli_number(k - i)
                 for i in range(k + 1))


def bernoulli_at(k: int, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(bernoulli_polynomial(k)):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Taylor series in t
# ---------------------------------------------------------------------------

def cos_series(a: int, order: int) -> QSeries:
    """cos(a t) to t^(order-1)."""
    return QSeries.make(1, order, {2 * j: Fraction((-1) ** j * a ** (2 * j),
                                                   math.factorial(2 * j))
                                   for j in range((order + 1) // 2)})


def exp_series(rate: Fraction, order: int) -> QSeries:
    """e^(rate * t) to t^(order-1)."""
    rate = Fraction(rate)
    out, acc = {}, Fraction(1)
    for i in range(order):
        out[i] = acc
        acc = acc * rate / (i + 1)
    return QSeries.make(1, order, out)


# ---------------------------------------------------------------------------
# L-values by two routes
# ---------------------------------------------------------------------------

#: cosine-ratio generating functions: id -> (scale, numerator cosines, denominator
#: cosine, argument scale s in L(-2k) = (-1)^k (2k)! s^k coeff_(2k))
_COS_SPECS = {
    "chi60_111": (2, (5, 9), 15, 1),
    "chi60_112": (2, (5, 3), 15, 1),
    "chi24_1": (2, (3, 2), 6, 1),
    "chi24_2": (1, (1,), 3, 4),
}


def cos_ratio_taylor(spec_id: str, order: int) -> QSeries:
    """Exact Taylor expansion of the registered cosine ratio, to x^(order-1)."""
    try:
        scale, nums, den, _ = _COS_SPECS[spec_id]
    except KeyError:
        raise UnknownIdError(f"no cosine-ratio generating function for {spec_id!r}; "
                             f"known: {', '.join(sorted(_COS_SPECS))}") from None
    acc = series_inverse(cos_series(den, order)) * scale
    for a in nums:
        acc = acc * cos_series(a, order)
    return acc


def l_value(chi, k: int, method: str = "bernoulli") -> Fraction:
    """L(-2k, chi) as an exact rational.

    ``chi`` is a PeriodicFunction or a registered character id.  The Bernoulli
    route L(-n, chi) = -(2P)^n/(n+1) sum_m chi(m) B_(n+1)(m/(2P)) works for
    every character and is the independent oracle; the cosine route exists for
    the four characters with published generating functions.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    chi_id = chi if isinstance(chi, str) else None
    fn = chars.get_character(chi) if isinstance(chi, str) else chi
    if method == "bernoulli":
        n = 2 * k
        two_p = fn.modulus
        total = Fraction(0)
        for m in range(1, two_p + 1):
            c = fn(m)
            if c:
                total += c * bernoulli_at(n + 1, Fraction(m, two_p))
        return -Fraction(two_p ** n, n + 1) * total
    if method == "cos_generating":
        if chi_id is None or chi_id not in _COS_SPECS:
            raise UnknownIdError("the cosine route needs one of: "
                                 + ", ".join(sorted(_COS_SPECS)))
        scale_s = _COS_SPECS[chi_id][3]
        series = cos_ratio_taylor(chi_id, 2 * k + 1)
        return ((-1) ** k) * Fraction(math.factorial(2 * k)) * scale_s ** k \
            * series.coefficient(2 * k)
    raise DomainError(f"unknown L-value method {method!r}")


def verify_l_value_routes(k_max: int = 10) -> VerificationReport:
    """Exact rational agreement of both routes for all cosine-route characters."""
    for chi_id in sorted(_COS_SPECS):
        for k in range(k_max + 1):
            a = l_value(chi_id, k, "bernoulli")
            b = l_value(chi_id, k, "cos_generating")
            if a != b:
                return VerificationReport(
                    id="l_value_routes", status="fail", truncation=k_max,
                    detail=f"{chi_id}, k={k}: bernoulli={a}, cos={b}")
    return VerificationReport(id="l_value_routes", status="pass", truncation=k_max)


# ---------------------------------------------------------------------------
# Exponential-variable expansions of the terminating forms
# ---------------------------------------------------------------------------

#: t-series id -> the catalog function whose ``qseries`` spec it expands
_T_SERIES = {"t_chi60_111": "chi0_star", "t_chi60_112": "chi1_star",
             "t_chi24_1": "phi_star", "t_chi24_2": "nu_star"}


def _t_expansion(spec, order: int) -> QSeries:
    """A ``ProductSum`` at q = e^(-t), exactly, to t^(order-1).

    The running product is kept as t^v * U with U a unit: a factor 1 - q^e,
    e != 0, is t * (1 - e^(-et))/t, and any other factor is a unit.  A term
    of valuation v >= order adds nothing, so the sum ends when v reaches the
    order, which it must do within 2 * order + 2 steps.  v may not fall from
    one step to the next: the sum would have a pole at q = 1."""
    total = QSeries.make(1, order, {0: Fraction(spec.constant)})
    unit, v = QSeries.one(1, order), 0
    for n in range(spec.start, spec.start + 2 * order + 2):
        last = v
        unit = unit.truncate(order - v)  # all that later terms read
        for e, c, s in spec.factors(n):
            if c == 1 and e:
                factor = (1 - exp_series(-e, order + 1)).shift(Monomial.q(-1))
                v += s
            else:
                factor = 1 - exp_series(-e, order) * c
            unit = unit * (factor if s > 0 else series_inverse(factor))
        if v < last:
            raise DomainError(f"the t-valuation falls at step {n}: the sum has a pole "
                              "at q = 1")
        if v >= order:
            return total
        term = exp_series(-spec.lead(n), order) * unit * spec.coeff(n)
        total = total + term.shift(Monomial.q(v))
    raise DomainError("the t-valuation rises too slowly: no t-expansion at q = 1")


def verify_t_series(spec_id: str, order: int = 10) -> VerificationReport:
    """The registered q-series spec S of a starred function, at q = e^(-t):
    with the function's character (chi, D, shift) and its scale,
    e^((shift/D) t) S(e^(-t)) = (1/scale) sum_k L(-2k, chi)/k! (-t/D)^k,
    compared exactly through t^order."""
    from . import catalog

    try:
        fn = catalog.get_function(_T_SERIES[spec_id])
    except KeyError:
        raise UnknownIdError(f"unknown t-series id {spec_id!r}; known: "
                             + ", ".join(sorted(_T_SERIES))) from None
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    (chi_id, denom, shift), (variant, scale) = fn.character, fn.qseries
    k = order + 1
    lhs = exp_series(Fraction(shift, denom), k) * _t_expansion(fn.variants[variant], k)
    for i in range(k):
        rhs = l_value(chi_id, i, "bernoulli") * Fraction(-1, denom) ** i \
            / (scale * math.factorial(i))
        if lhs.coefficient(i) != rhs:
            return VerificationReport(id=spec_id, status="fail", truncation=order,
                                      first_mismatch=Fraction(i),
                                      detail=f"t^{i}: {lhs.coefficient(i)} != {rhs}")
    return VerificationReport(id=spec_id, status="pass", truncation=order)


def t_series_ids() -> list[str]:
    return sorted(_T_SERIES)


# ---------------------------------------------------------------------------
# Asymptotic expansion at 1/N
# ---------------------------------------------------------------------------

class AsymptoticReport(Record):
    __slots__ = ("p", "n_val", "k_terms", "lhs", "partial", "remainder", "next_term")

    @property
    def ratio(self) -> float:
        return self.remainder / self.next_term if self.next_term else float("inf")


def asymptotic_check(char_vector: Sequence[PeriodicFunction], s_matrix,
                     component: int, n_val: int, k_terms: int) -> AsymptoticReport:
    """Compare  F(1/N) + sqrt(N/i) sum_b S_ab F_b(-N)  with the truncated
    L-value series sum_(k<=K) L(-2k, chi_a)/k! (pi i/(2 P N))^k.

    ``char_vector`` lists the components (odd periodic functions sharing a
    modulus 2P), ``s_matrix`` is the transformation matrix to test (the
    generic sine matrix or a registered theorem matrix), ``component`` picks a.
    """
    if not 0 <= component < len(char_vector):
        raise DomainError(f"component must satisfy 0 <= component < "
                          f"{len(char_vector)}, got {component}")
    if n_val < 1:
        raise DomainError(f"N must be at least 1, got {n_val}")
    if k_terms < 0:
        raise DomainError(f"K must be nonnegative, got {k_terms}")
    chi = char_vector[component]
    two_p = chi.modulus
    with mpmath.workdps(70):  # the exact values embed at this precision
        lhs = mpmath.convert(chars.eichler_tilde_at_inverse_N(chi, n_val))
        root = mpmath.sqrt(mpmath.mpf(n_val) / 1j)
        for b, chi_b in enumerate(char_vector):
            s_ab = s_matrix[component][b]
            for a, c in chi_b.basis_coefficients() if s_ab else ():
                value = chars.eichler_tilde_at_integer(chi_b.half_modulus, a, -n_val)
                lhs += root * s_ab * c * value
        x = mpmath.pi * 1j / (two_p * n_val)
        partial = mpmath.mpc(0)
        for k in range(k_terms + 1):
            lk = l_value(chi, k, "bernoulli")
            partial += mpmath.mpf(lk.numerator) / lk.denominator \
                * x ** k / math.factorial(k)
        l_next = l_value(chi, k_terms + 1, "bernoulli")
        nxt = abs(mpmath.mpf(l_next.numerator) / l_next.denominator
                  * x ** (k_terms + 1) / math.factorial(k_terms + 1))
        rem = abs(lhs - partial)
        return AsymptoticReport(two_p // 2, n_val, k_terms, complex(lhs),
                                complex(partial), float(rem), float(nxt))


def asymptotic_check_basis(p: int, a: int, n_val: int, k_terms: int) -> AsymptoticReport:
    """Asymptotic check for one basis character with the generic sine matrix."""
    if not 1 <= a <= p - 1:
        raise DomainError(f"basis index must satisfy 1 <= a <= P-1, got a={a}, P={p}")
    vec = [psi_basis(p, b) for b in range(1, p)]
    triple = m_matrix(p)
    return asymptotic_check(vec, triple.s_matrix, a - 1, n_val, k_terms)


def measured_decay_exponent(reports: Sequence[AsymptoticReport]) -> float:
    """Average slope of log2(remainder) across successive N-doublings."""
    slopes = []
    for r1, r2 in zip(reports, reports[1:]):
        if r1.remainder == 0 or r2.remainder == 0:
            continue
        ratio_n = r2.n_val / r1.n_val
        slopes.append(math.log(r1.remainder / r2.remainder) / math.log(ratio_n))
    if not slopes:
        raise PrecisionError("remainders vanished; cannot measure a decay exponent")
    return sum(slopes) / len(slopes)


# ---------------------------------------------------------------------------
# Lower-half-plane integral representation
# ---------------------------------------------------------------------------

def _theta_basis(p: int, a: int, tau: mpmath.mpc, tolerance: float) -> mpmath.mpc:
    """Theta sum of a basis character; below Im(tau) = 1/2 the S-transform
    moves the evaluation to -1/tau where the Gaussian decay is fast."""
    if mpmath.im(tau) >= 0.5:
        return theta_numeric(psi_basis(p, a), tau, tolerance)
    triple = m_matrix(p)
    pref = (1j / tau) ** mpmath.mpf("1.5")
    acc = mpmath.mpc(0)
    for b in range(1, p):
        s_ab = triple.s_matrix[a - 1][b - 1]
        if s_ab:
            acc += s_ab * theta_numeric(psi_basis(p, b), -1 / tau, tolerance)
    return pref * acc


def hat_eichler(p: int, a: int, z: complex, tolerance: float = 1e-8) -> mpmath.mpc:
    """(1/sqrt(2 P i)) Integral_(conj(z))^(i inf) Theta(tau)/sqrt(tau - z) dtau
    for z in the lower half plane, by quadrature along the vertical ray with
    the substitution tau = conj(z) + i u^2."""
    z = mpmath.mpc(z)
    if mpmath.im(z) >= 0:
        raise DomainError("the integral representation needs Im(z) < 0")
    dps = max(30, int(-mpmath.log10(tolerance)) + 20)
    with mpmath.workdps(dps):
        zbar = mpmath.conj(z)

        def integrand(u):
            tau = zbar + 1j * u * u
            return _theta_basis(p, a, tau, tolerance * 1e-3) \
                / mpmath.sqrt(tau - z) * 2j * u

        val, err = mpmath.quad(integrand, [0, mpmath.inf], error=True)
        if err > tolerance:
            raise PrecisionError(f"quadrature error estimate {err} above tolerance")
        return val / mpmath.sqrt(2 * p * 1j)


def _hat_integral_from_zero(p: int, a: int, z: mpmath.mpc, tolerance: float) -> mpmath.mpc:
    def integrand(s):
        tau = 1j * s
        return _theta_basis(p, a, tau, tolerance * 1e-3) / mpmath.sqrt(tau - z) * 1j

    val, err = mpmath.quad(integrand, [0, 1, mpmath.inf], error=True)
    if err > tolerance:
        raise PrecisionError(f"quadrature error estimate {err} above tolerance")
    return val / mpmath.sqrt(2 * p * 1j)


def verify_nearly_modular_hat(p: int, a: int, z: complex,
                              tolerance: float = 1e-6) -> VerificationReport:
    """hat(z) + (1/sqrt(i z)) sum_b M(P)_(b a) hat_b(-1/z)  ==  the integral of
    Theta_a(tau)/sqrt(tau - z) down to 0, within the tolerance."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DomainError(f"tolerance must be finite and positive, got {tolerance}")
    z = mpmath.mpc(z)
    if mpmath.im(z) >= 0:
        raise DomainError("need Im(z) < 0")
    dps = max(30, int(-mpmath.log10(tolerance)) + 20)
    with mpmath.workdps(dps):
        triple = m_matrix(p)
        lhs = hat_eichler(p, a, z, tolerance / 10)
        pref = 1 / mpmath.sqrt(1j * z)
        for b in range(1, p):
            s_ba = triple.s_matrix[b - 1][a - 1]
            lhs += pref * s_ba * hat_eichler(p, b, -1 / z, tolerance / 10)
        rhs = _hat_integral_from_zero(p, a, z, tolerance / 10)
        defect = abs(lhs - rhs)
    return VerificationReport(
        id=f"nearly_modular_hat(P={p}, a={a}, z={complex(z)})",
        status="pass" if defect < tolerance else "fail",
        detail=f"defect={mpmath.nstr(defect, 3)}")
