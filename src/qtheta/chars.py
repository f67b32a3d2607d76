"""Odd periodic functions, theta sums, and their radial limits.

A PeriodicFunction is an integer-valued odd function of modulus 2P stored as
an explicit value table.  The module builds the classical weight-3/2 theta
sums over these characters, the exact closed forms of their half-integrated
q-series (``series.ThetaSum``) at arguments 1/N and N, and the general radial
(Abel) limit of a shifted character sum at any root of unity, which is the
workhorse for quantum-invariant evaluation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

from .cyclo import CycloNumber, _prime_factors, mpmath, root_weighted_sum
from .errors import DomainError, PrecisionError, UnknownIdError
from .report import FrozenRecord, Record, VerificationReport, set_field

_registry: dict[str, "PeriodicFunction"] = {}


class PeriodicFunction(FrozenRecord):
    """Odd integer-valued function with modulus 2P, given by its value table."""

    __slots__ = ("modulus", "values")

    def __init__(self, modulus: int, values: tuple[int, ...]):
        if modulus < 2 or modulus % 2:
            raise DomainError("modulus must be a positive even integer")
        if len(values) != modulus:
            raise DomainError("value table length must equal the modulus")
        for n in range(modulus):
            if values[(-n) % modulus] != -values[n]:
                raise DomainError("value table is not odd")
        set_field(self, "modulus", modulus)
        set_field(self, "values", values)

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    @property
    def half_modulus(self) -> int:
        return self.modulus // 2

    def max_abs(self) -> int:
        return max(abs(v) for v in self.values) if self.values else 0

    def __add__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        if self.modulus != other.modulus:
            raise DomainError("modulus mismatch in character sum")
        return PeriodicFunction(self.modulus,
                                tuple(a + b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "PeriodicFunction":
        return PeriodicFunction(self.modulus, tuple(-a for a in self.values))

    def __sub__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        return self + (-other)

    def scale(self, k: int) -> "PeriodicFunction":
        return PeriodicFunction(self.modulus, tuple(k * a for a in self.values))

    def basis_coefficients(self) -> list[tuple[int, int]]:
        """Decompose into basis functions: the value at a in 1..P-1 is the
        coefficient of psi^(a) (valid for every odd table)."""
        return [(a, self.values[a]) for a in range(1, self.half_modulus) if self.values[a]]


def psi_basis(p: int, a: int) -> PeriodicFunction:
    """+1 on residues +a, -1 on residues -a modulo 2p."""
    if not 1 <= a <= p - 1:
        raise DomainError(f"basis index must satisfy 1 <= a <= P-1, got a={a}, P={p}")
    values = [0] * (2 * p)
    values[a % (2 * p)] += 1
    values[(-a) % (2 * p)] -= 1
    return PeriodicFunction(2 * p, tuple(values))


def char_combination(terms: Sequence[tuple[int, int, int]]) -> PeriodicFunction:
    """Signed sum of basis functions given as (sign, P, a) triples."""
    if not terms:
        return PeriodicFunction(2, (0, 0))
    p0 = terms[0][1]
    out = None
    for sign, p, a in terms:
        if p != p0:
            raise DomainError("all terms of a combination must share the modulus")
        part = psi_basis(p, a).scale(sign)
        out = part if out is None else out + part
    return out


def register_character(name: str, chi: PeriodicFunction) -> PeriodicFunction:
    _registry[name] = chi
    return chi


def get_character(name: str) -> PeriodicFunction:
    try:
        return _registry[name]
    except KeyError:
        raise UnknownIdError(f"unknown character id: {name!r} "
                             f"(known: {', '.join(sorted(_registry))})") from None


def character_ids() -> list[str]:
    return sorted(_registry)


def _build_registry():
    for p, alist in ((2, [1]), (3, [1, 2]), (4, [1, 3]), (5, [1, 2, 3, 4]),
                     (6, [1, 3, 5]), (8, [1, 3, 5, 7]), (12, [6])):
        for a in alist:
            register_character(f"psi{2 * p}_{a}", psi_basis(p, a))
    register_character("chi60_111", char_combination(
        [(1, 30, 1), (1, 30, 11), (1, 30, 19), (1, 30, 29)]))
    register_character("chi60_112", char_combination(
        [(1, 30, 7), (1, 30, 13), (1, 30, 17), (1, 30, 23)]))
    register_character("chi84_111", char_combination(
        [(1, 42, 1), (-1, 42, 13), (-1, 42, 29), (1, 42, 41)]))
    register_character("chi84_112", char_combination(
        [(-1, 42, 5), (-1, 42, 19), (-1, 42, 23), (-1, 42, 37)]))
    register_character("chi84_113", char_combination(
        [(-1, 42, 11), (-1, 42, 17), (-1, 42, 25), (-1, 42, 31)]))
    register_character("chi24_1", char_combination(
        [(1, 12, 1), (1, 12, 5), (1, 12, 7), (1, 12, 11)]))
    register_character("chi24_2", char_combination([(1, 12, 4), (1, 12, 8)]))
    register_character("psi6_1p2", char_combination([(1, 3, 1), (1, 3, 2)]))
    register_character("psi12_1p5", char_combination([(1, 6, 1), (1, 6, 5)]))
    register_character("psi10_1p4", char_combination([(1, 5, 1), (1, 5, 4)]))
    register_character("psi10_2p3", char_combination([(1, 5, 2), (1, 5, 3)]))
    register_character("psi8_1p3", char_combination([(1, 4, 1), (1, 4, 3)]))
    register_character("psi16_1p7", char_combination([(1, 8, 1), (1, 8, 7)]))
    register_character("psi16_3p5", char_combination([(1, 8, 3), (1, 8, 5)]))


_build_registry()


# ---------------------------------------------------------------------------
# Exact closed forms and radial limits
# ---------------------------------------------------------------------------

def eichler_tilde_at_integer(p: int, a: int, n: int) -> CycloNumber:
    """Exact value (1 - a/P) e^(a^2 pi i N / (2P)) of the half-integrated theta
    series at an integer argument."""
    if not 1 <= a <= p - 1:
        raise DomainError("need 1 <= a <= P-1")
    return CycloNumber.root_of_unity(4 * p, (a * a * n) % (4 * p)) * Fraction(p - a, p)


def eichler_tilde_at_inverse_N(chi: PeriodicFunction, n_val: int) -> CycloNumber:
    """Exact limiting value at argument 1/N of sum_(n>=0) chi(n) q^(n^2/(4P)),
    the radial limit at q -> zeta_N."""
    if n_val < 1:
        raise DomainError("N must be a positive integer")
    return false_theta_radial_limit(chi, 2 * chi.modulus, 0, n_val)


def _minimal_period(two_l: int, md: int, j: int, q0: int) -> int:
    """Smallest multiple of two_l dividing q0 such that the twisted character
    k -> chi(k) zeta^(j(k^2+shift)) is periodic (md | 2jQ and md | jQ^2)."""
    q = q0

    def valid(qc: int) -> bool:
        return qc % two_l == 0 and (2 * j * qc) % md == 0 and (j * qc * qc) % md == 0

    changed = True
    while changed:
        changed = False
        for p in _prime_factors(q):
            if q % p == 0 and valid(q // p):
                q //= p
                changed = True
                break
    return q


@lru_cache(maxsize=4096)
def false_theta_radial_limit(chi: PeriodicFunction, denominator: int, shift: int,
                             root_order: int, root_power: int = 1) -> CycloNumber:
    """Radial limit of sum_(n>=0) chi(n) q^((n^2+shift)/denominator) at
    q -> zeta_M^j, exact in a cyclotomic field.

    The twisted coefficient function g(k) = chi(k) zeta^(j(k^2+shift)/D) is
    odd and mean zero over its period Q, so the Abel limit collapses to
    -sum_(k<Q) g(k) B_1(k/Q).  Fractional exponents live in the field of
    order M*D, which is reduced by the gcd of all exponent numerators; the
    power j is therefore meaningful modulo M*D (it fixes the branch of
    q^(1/D) along the ray), not merely modulo M.
    """
    m = root_order
    j = root_power % (root_order * denominator)
    d = denominator
    md = m * d
    q0 = (2 * chi.modulus * md) // math.gcd(2 * chi.modulus, md)
    q_period = _minimal_period(chi.modulus, md, j, q0)
    support = [(k, chi(k)) for k in range(q_period) if chi(k)]
    exps = [j * (k * k + shift) for k, _ in support]
    g = md
    for e in exps:
        g = math.gcd(g, e)
        if g == 1:
            break
    order = md // g
    terms = []
    for (k, c), e in zip(support, exps):
        terms.append(((e // g) % order, -c * (2 * k - q_period)))
    return root_weighted_sum(order, terms, 2 * q_period)


_RADIAL_CUTOFF = 140      # a term is dropped once t(n^2+shift)/D exceeds this
_RADIAL_GUARD_BITS = 64   # fixed-point bits beyond the working precision


def _radial_classes(chi: PeriodicFunction, denominator: int, shift: int,
                    root_order: int, root_power: int) -> tuple[int, list]:
    """(L, [(r, phase_r)]): L = lcm(2P, M*D) is a period of
    n -> chi(n) zeta^(j(n^2+shift)/D), and phase_r is its value on the residue
    class r mod L, for every r in [0, L) with chi(r) != 0."""
    md = root_order * denominator
    period = math.lcm(chi.modulus, md)
    j = root_power % md
    return period, [(r, chi(r) * mpmath.expjpi(mpmath.mpf(2 * j * (r * r + shift)) / md))
                    for r in range(period) if chi(r)]


def _radial_max_exponent(t: mpmath.mpf, denominator: int, shift: int) -> int:
    """Largest integer e = n^2+shift whose term is kept at level t, with the
    test t*e/D > 140 rounded at working precision."""
    def dropped(e: int) -> bool:
        q = Fraction(e, denominator)
        return t * mpmath.mpf(q.numerator) / q.denominator > _RADIAL_CUTOFF

    e = int(mpmath.floor(_RADIAL_CUTOFF * denominator / t))
    while dropped(e):
        e -= 1
    while not dropped(e + 1):
        e += 1
    return e


def _radial_level_sum(classes: list, period: int, denominator: int, shift: int,
                      t: mpmath.mpf) -> mpmath.mpc:
    """sum_(n>=0) chi(n) e^(-t(n^2+shift)/D) zeta^(j(n^2+shift)/D) as
    sum_r phase_r S_r(t), where S_r(t) = sum_k e^(-t((r+kL)^2+shift)/D) runs
    on integers scaled by 2^bits: with a_k the k-th term, a_(k+1) = a_k b_k
    and b_(k+1) = b_k g, where g = e^(-2tL^2/D)."""
    e_max = _radial_max_exponent(t, denominator, shift)
    bits = mpmath.mp.prec + _RADIAL_GUARD_BITS
    total = mpmath.mpc(0)
    with mpmath.workprec(bits):
        def fixed(x: int) -> int:  # e^(-t x / D) scaled by 2^bits
            return mpmath.libmp.to_fixed(mpmath.exp(-t * x / denominator)._mpf_, bits)
        g = fixed(2 * period * period)
        for r, phase in classes:
            e = r * r + shift
            if e > e_max:
                continue
            a, b, n, s = fixed(e), fixed(2 * r * period + period * period), r, 0
            while e <= e_max:
                s += a
                a = (a * b) >> bits
                b = (b * g) >> bits
                n += period
                e = n * n + shift
            total += phase * mpmath.mpf((s, -bits))
    return total


@lru_cache(maxsize=512)
def false_theta_radial_numeric(chi: PeriodicFunction, denominator: int, shift: int,
                               root_order: int, root_power: int = 1,
                               tolerance: float = 1e-10) -> mpmath.mpc:
    """Numeric radial limit by Richardson extrapolation along q = e^(-t) zeta.

    Independent of the exact Bernoulli formula; used as a cross-check where no
    terminating q-series evaluation exists.  The extrapolation ladder halves t
    and is repeated with a smaller starting t until two answers agree within
    tolerance/4; failure raises PrecisionError.  Works at 70 digits; each level
    t = 0.001/2^k is summed once per call by residue classes (see
    ``_radial_level_sum``) and shared by the ladders that use it.
    """
    levels = 11
    with mpmath.workdps(70):
        period, classes = _radial_classes(chi, denominator, shift, root_order, root_power)
        t_start = mpmath.mpf("0.001")
        level_sums: list[mpmath.mpc] = []  # at t = t_start / 2^k

        def ladder(first: int) -> mpmath.mpc:
            while len(level_sums) < first + levels:
                level_sums.append(_radial_level_sum(classes, period, denominator, shift,
                                                    t_start / 2 ** len(level_sums)))
            arr = level_sums[first:first + levels]
            for k in range(1, levels):
                arr = [(2 ** k * arr[i + 1] - arr[i]) / (2 ** k - 1) for i in range(len(arr) - 1)]
            return arr[0]

        prev = ladder(0)
        for first in range(1, 4):
            cur = ladder(first)
            if abs(cur - prev) < tolerance / 4:
                return cur
            prev = cur
    raise PrecisionError("radial extrapolation did not stabilize at the requested tolerance")


# ---------------------------------------------------------------------------
# Numeric theta sums and modular transformation checks
# ---------------------------------------------------------------------------

class ModularTriple(Record):
    """S/T data of the weight-3/2 vector of theta sums for one P; the
    T-phases are exponents in units of pi."""

    __slots__ = ("p", "component_labels", "s_matrix", "s_description", "t_phases")

    def s_squared_defect(self) -> float:
        n = len(self.s_matrix)
        worst = 0.0
        for i in range(n):
            for j in range(n):
                acc = mpmath.mpf(0)
                for k in range(n):
                    acc += self.s_matrix[i][k] * self.s_matrix[k][j]
                target = 1 if i == j else 0
                worst = max(worst, abs(float(acc - target)))
        return worst


def m_matrix(p: int) -> ModularTriple:
    """The (P-1)x(P-1) matrix with entries sqrt(2/P) sin(ab pi / P), together
    with the T-phases a^2/(2P)."""
    if p < 2:
        raise DomainError("P must be >= 2")
    labels = list(range(1, p))
    with mpmath.workdps(40):
        mat = [[mpmath.sqrt(mpmath.mpf(2) / p) * mpmath.sinpi(mpmath.mpf(a * b) / p)
                for b in labels] for a in labels]
    return ModularTriple(p, labels, mat, "sqrt(2/P) * sin(a*b*pi/P)",
                         [Fraction(a * a, 2 * p) for a in labels])


def theorem_s_matrix(family: str):
    """S-matrix of a theorem family acting on its character vector, with the
    characters themselves: families "2_3_5" (two modulus-60 combinations) and
    "2_3_7" (three modulus-84 combinations)."""
    with mpmath.workdps(40):
        if family == "2_3_5":
            chars_vec = [get_character("chi60_111"), get_character("chi60_112")]
            c = 2 / mpmath.sqrt(5)
            s1, s2 = mpmath.sinpi(mpmath.mpf(1) / 5), mpmath.sinpi(mpmath.mpf(2) / 5)
            return chars_vec, [[c * s1, c * s2], [c * s2, -c * s1]]
        if family == "2_3_7":
            chars_vec = [get_character("chi84_111"), get_character("chi84_112"),
                         get_character("chi84_113")]
            c = -2 / mpmath.sqrt(7)
            s = [mpmath.sinpi(mpmath.mpf(k) / 7) for k in (1, 2, 3)]
            mat = [[c * s[0], c * s[1], c * s[2]],
                   [c * s[1], -c * s[2], c * s[0]],
                   [c * s[2], c * s[0], -c * s[1]]]
            return chars_vec, mat
    raise UnknownIdError(f"no registered S-matrix family {family!r}")


def theta_numeric(chi: PeriodicFunction, tau: complex, tolerance: float = 1e-13) -> mpmath.mpc:
    """(1/2) sum_(n in Z) n chi(n) e^(2 pi i tau n^2 / (4P)) with the term
    count chosen from the Gaussian tail bound, not a fixed cutoff."""
    tau = mpmath.mpc(tau)
    if mpmath.im(tau) <= 0:
        raise DomainError("theta sums need Im(tau) > 0")
    two_p = chi.modulus
    c = mpmath.pi * mpmath.im(tau) / two_p  # decay rate of e^(-c n^2)
    mx = chi.max_abs()
    t = 8
    while True:
        tail = mx * (mpmath.e ** (-c * t * t) / (2 * c)
                     + (t + 1) * mpmath.e ** (-c * (t + 1) ** 2))
        if 2 * tail < tolerance / 2:
            break
        t *= 2
        if t > 10 ** 7:
            raise PrecisionError("theta tail bound will not reach the tolerance")
    dps = max(25, int(-mpmath.log10(tolerance)) + 15)
    with mpmath.workdps(dps):
        total = mpmath.mpc(0)
        for n in range(1, t + 1):
            v = chi(n)
            if v:
                total += n * v * mpmath.exp(2j * mpmath.pi * tau * n * n / (2 * two_p))
        return total


def verify_T_transform(p: int, a: int, tau: complex, tolerance: float = 1e-12) -> VerificationReport:
    """Theta(tau + 1) == e^(a^2 pi i/(2P)) Theta(tau) for a basis character."""
    chi = psi_basis(p, a)
    lhs = theta_numeric(chi, mpmath.mpc(tau) + 1, tolerance / 10)
    rhs = mpmath.expjpi(mpmath.mpf(a * a) / (2 * p)) * theta_numeric(chi, tau, tolerance / 10)
    err = abs(lhs - rhs)
    return VerificationReport(
        id=f"T_transform(P={p}, a={a}, tau={tau})",
        status="pass" if err < tolerance else "fail",
        detail=f"defect={mpmath.nstr(err, 3)}",
    )


def verify_S_transform(p: int, tau: complex, tolerance: float = 1e-12) -> VerificationReport:
    """Theta_a(tau) == (i/tau)^(3/2) sum_b M(P)_ab Theta_b(-1/tau), principal branch."""
    tau = mpmath.mpc(tau)
    if mpmath.im(tau) <= 0:
        raise DomainError("need Im(tau) > 0")
    triple = m_matrix(p)
    with mpmath.workdps(40):
        left = [theta_numeric(psi_basis(p, a), tau, tolerance / 100) for a in range(1, p)]
        right_vec = [theta_numeric(psi_basis(p, b), -1 / tau, tolerance / 100)
                     for b in range(1, p)]
        pref = (1j / tau) ** mpmath.mpf(1.5)
        worst = mpmath.mpf(0)
        for ia in range(p - 1):
            acc = mpmath.mpc(0)
            for ib in range(p - 1):
                acc += triple.s_matrix[ia][ib] * right_vec[ib]
            worst = max(worst, abs(left[ia] - pref * acc))
    return VerificationReport(
        id=f"S_transform(P={p}, tau={complex(tau)})",
        status="pass" if worst < tolerance else "fail",
        detail=f"max_defect={mpmath.nstr(worst, 3)}",
    )
