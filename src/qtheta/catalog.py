"""Named catalog of the mock theta functions and their series variants.

Every variant of a function is one declarative spec from ``series``: a
``ProductSum`` (a sum of monomials times a running product of linear
factors), a ``DoubleSum`` (a sum of groups of Gaussian binomials) or a
``ThetaSum`` (a theta series).  The formal engine expands a spec to any
truncation, and the root engines below evaluate the same spec at roots of
unity, so each series form is written down once.  The ``false_theta``
variant is the ThetaSum of the registered character expansion.  All variants
of one id agree coefficient-by-coefficient at any common truncation; the
identity registry in ``identities`` turns that statement into runnable
checks.

Starred functions are evaluated at roots of unity by several independent
routes:

* ``eichler``  - the exact radial (Abel) limit through the finite
  Bernoulli-weighted character sum;
* ``qseries``  - exact evaluation of one registered spec at the root: a
  spec with numerator factors as a terminating sum, one without as a
  geometrically collapsing sum, a double sum by group termination.  Where
  that spec does not terminate at the root, the function's registered
  ``double_sum`` variant is evaluated instead.
  The Le-type rewritings of the order-5 functions and the double-sum form of
  the order-7 function evaluate at roots to exactly half the radial limit
  (their tails contribute a second copy in the limit); the published factor
  is applied and separately asserted by the test suite;
* ``surgery``  - the surgery double sums, which group-terminate at roots and
  give the radial value directly;
* ``radial``   - an independent numeric extrapolation along the radius.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from types import MappingProxyType
from typing import Callable, Optional

from . import chars
from .chars import false_theta_radial_limit, false_theta_radial_numeric
from .cyclo import (CycloNumber, _add_mono, _context, _rot, _times_linear, ring_is_zero,
                    ring_value, unit_power)
from .errors import (DivergenceError, DomainError, UnknownIdError,
                     UnsupportedMethodError)
from .report import FrozenRecord, Record, VerificationReport
from .series import (DoubleSum, Monomial, ProductSum, QSeries, ThetaSum, coeff_pow,
                     pochhammer, pochhammer_inverse)


class NamedFunction(FrozenRecord):
    """A catalog function.

    ``variants`` maps a name to a ProductSum, DoubleSum or ThetaSum spec;
    ``character`` is the character expansion data of a starred function,
    (character id, D, shift), and ``weight`` the overall factor in front of
    it; ``qseries`` is the (variant, scale) of the exact q-series route:
    radial limit = scale * value."""

    __slots__ = ("id", "order_label", "variants", "character", "weight", "qseries")
    _defaults = {"variants": MappingProxyType({}), "character": None, "weight": 1,
                 "qseries": None}

    def generator(self, variant: Optional[str] = None) -> Callable[[int], QSeries]:
        name = variant or "defining"
        try:
            spec = self.variants[name]
        except KeyError:
            raise UnknownIdError(
                f"function {self.id!r} has no variant {name!r} "
                f"(has: {', '.join(sorted(self.variants))})") from None
        return spec.series


_functions: dict[str, NamedFunction] = {}


def register_function(fn: NamedFunction) -> NamedFunction:
    _functions[fn.id] = fn
    return fn


def get_function(fn_id: str) -> NamedFunction:
    try:
        return _functions[fn_id]
    except KeyError:
        raise UnknownIdError(f"unknown function id: {fn_id!r} "
                             f"(known: {', '.join(sorted(_functions))})") from None


def function_ids() -> list[str]:
    return sorted(_functions)


def expand(fn_id: str, truncation: int, variant: Optional[str] = None) -> QSeries:
    """Series of a catalogued function to the requested truncation, taken in
    the function's natural fractional variable."""
    return get_function(fn_id).generator(variant)(truncation)


# ---------------------------------------------------------------------------
# Series specs
# ---------------------------------------------------------------------------

def _alt(n: int) -> int:
    return -1 if n % 2 else 1


def _neg_alt(n: int) -> int:
    return 1 if n % 2 else -1


def _z12(k: int) -> CycloNumber:
    """zeta_12^k kept in the 12th cyclotomic field (no reduction of the order):
    the phase e^(pi i/3) is zeta_12^2."""
    return CycloNumber(12, _context(12).power(k % 12), 1)


# Factors entering the running product at step n, as (e, c, s) for
# (1 - c q^e)^s.  Each family is named after the product R_n it builds.

def _inv_qn1_n(n):        # 1/(q^(n+1); q)_n
    return [(n, 1, 1), (2 * n - 1, 1, -1), (2 * n, 1, -1)] if n else []


def _inv_qn1_n1(n):       # 1/(q^(n+1); q)_(n+1)
    return [(n, 1, 1), (2 * n, 1, -1), (2 * n + 1, 1, -1)] if n else [(1, 1, -1)]


def _inv_qn_n(n):         # 1/(q^n; q)_n, from n = 1
    return [(n - 1, 1, 1), (2 * n - 2, 1, -1), (2 * n - 1, 1, -1)] if n > 1 else [(1, 1, -1)]


def _qn1_n(n):            # (q^(n+1); q)_n
    return [(2 * n - 1, 1, 1), (2 * n, 1, 1), (n, 1, -1)] if n else []


def _qn_n(n):             # (q^n; q)_n
    if n < 2:
        return [(1, 1, 1)] if n else []
    return [(2 * n - 2, 1, 1), (2 * n - 1, 1, 1), (n - 1, 1, -1)]


def _inv_q_q2(n):         # 1/(q; q^2)_(n+1)
    return [(2 * n + 1, 1, -1)]


def _inv_mq_q2(n):        # 1/(-q; q^2)_(n+1)
    return [(2 * n + 1, -1, -1)]


def _inv_mq2_q2(n):       # 1/(-q^2; q^2)_n
    return [(2 * n, -1, -1)] if n else []


def _inv_mq_2n(n):        # 1/(-q; q)_(2n)
    return [(2 * n - 1, -1, -1), (2 * n, -1, -1)] if n else []


def _inv_mq_2n1(n):       # 1/(-q; q)_(2n+1)
    return [(2 * n, -1, -1), (2 * n + 1, -1, -1)] if n else [(1, -1, -1)]


def _inv_mq_n(n):         # 1/(-q; q)_n
    return [(n, -1, -1)] if n else []


def _mq_n(n):             # (-q; q)_n
    return [(n, -1, 1)] if n else []


def _q_q2(n):             # (q; q^2)_n
    return [(2 * n - 1, 1, 1)] if n else []


def _mq_q2(n):            # (-q; q^2)_n
    return [(2 * n - 1, -1, 1)] if n else []


def _mq2_q2(n):           # (-q^2; q^2)_n
    return [(2 * n, -1, 1)] if n else []


def _times(*families):
    return lambda n: [f for family in families for f in family(n)]


def _sq(family):
    return _times(family, family)


_phi6_run = _times(_q_q2, _inv_mq_2n)
_psi6_run = _times(_q_q2, _inv_mq_2n1)
_rho6_run = _times(_mq_n, _inv_q_q2)
_D6_run = _times(_mq2_q2, _inv_qn1_n1)
_I12_run = _times(_mq_q2, _inv_qn1_n1)


def _alternating(exponent, sign: int = 1):
    """Groups of sign * sum_(n=0..k) (-1)^n [k n] q^exponent(k, n), as the
    ``terms`` of a DoubleSum."""
    return lambda k: [(n, exponent(k, n), -sign if n % 2 else sign) for n in range(k + 1)]


def _fn(fn_id: str, order_label: str, character=None, weight: int = 1, qseries=None,
        **variants):
    if character is not None:
        char_id, denom, shift = character
        chi = chars.get_character(char_id)
        variants.setdefault("false_theta", ThetaSum(
            denom, shift, chi if weight == 1 else lambda n: weight * chi(n)))
    register_function(NamedFunction(fn_id, order_label, variants, character, weight,
                                    qseries))


def _build_functions():
    P, D = ProductSum, DoubleSum
    # order 5
    _fn("chi0", "5", defining=P(lambda n: n, _inv_qn1_n))
    _fn("chi1", "5", defining=P(lambda n: n, _inv_qn1_n1))
    _fn("chi0_star", "5", ("chi60_111", 120, -1), qseries=("le_sum", 2),
        defining=P(lambda n: (3 * n * n - n) // 2, _inv_qn1_n, _neg_alt, constant=2),
        le_product=P(lambda m: 2 * m + 1, _qn1_n, constant=1),
        le_sum=P(lambda n: n, _qn_n),
        surgery=D(lambda k: k * (k + 1) + 1,
                  _alternating(lambda k, n: k * (k + 1) + n * (3 * n + 5) // 2 + k * n + 1)))
    _fn("chi1_star", "5", ("chi60_112", 120, -49), qseries=("le", 2),
        defining=P(lambda n: 3 * n * (n + 1) // 2, _inv_qn1_n1, _alt),
        le=P(lambda n: n, _qn1_n))

    # order 3
    _fn("phi", "3", defining=P(lambda n: n * n, _inv_mq2_q2))
    _fn("nu", "3", defining=P(lambda n: n * (n + 1), _inv_mq_q2))
    _fn("phi_star", "3", ("chi24_1", 24, -1), qseries=("finite", 1),
        defining=P(lambda n: n, _inv_mq2_q2),
        finite=P(lambda n: n + 1, lambda n: [(n, _neg_alt(n), 1)] if n else [],
                 constant=1),
        surgery=D(lambda k: k * k + 1,
                  _alternating(lambda k, n: n * (2 * n + 3) + k * k + 1), step=2))
    _fn("phi_star_minus", "3", ("psi6_1", 24, -1),
        defining=P(lambda n: n, _inv_mq2_q2, _alt))
    _fn("nu_star", "3", ("chi24_2", 24, -16), qseries=("finite", 1),
        defining=P(lambda n: n, _inv_mq_q2),
        finite=P(lambda n: 2 * n, lambda n: [(4 * n - 2, 1, 1)] if n else []))
    _fn("f", "3", defining=P(lambda n: n * n, _sq(_inv_mq_n)),
        fine_form=P(lambda n: n, _inv_mq_n, _neg_alt, constant=2))
    _fn("f_star", "3", ("psi6_1", 24, -1), weight=2,
        defining=P(lambda n: n * (n - 1) // 2, _inv_mq_n, _neg_alt, constant=2))
    _fn("omega", "3", defining=P(lambda n: 2 * n * (n + 1), _sq(_inv_q_q2)),
        fine_form=P(lambda n: n, _inv_q_q2))
    _fn("omega_star", "3", ("psi6_1p2", 3, -1), qseries=("defining", 1),
        defining=P(lambda n: n * (n + 1), _inv_q_q2, _alt))
    # 1/(1 - q^n + q^2n) = (1 + q^n)/(1 + q^3n) and
    # 1/(1 + q^e + q^2e) = (1 - q^e)/(1 - q^3e)
    _fn("chi3", "3",
        defining=P(lambda n: n * n, lambda n: [(n, -1, 1), (3 * n, -1, -1)] if n else []),
        fine_form=P(lambda n: n, lambda n: [(n, -_z12(4), -1)],
                    lambda n: -_z12(4 + 2 * n), start=1, constant=_z12(0)))
    psi6_1, psi6_1p2 = chars.get_character("psi6_1"), chars.get_character("psi6_1p2")
    _fn("chi3_star", "3",
        defining=P(lambda n: n * (n - 1) // 2, lambda n: [(n, _z12(2), -1)],
                   lambda n: -_z12(4 - 2 * n), start=1, constant=1),
        false_theta=ThetaSum(24, -1, lambda n: (1 + _z12(-4 * n)) * psi6_1(n), 12))
    _fn("rho3", "3",
        defining=P(lambda n: 2 * n * (n + 1),
                   lambda n: [(2 * n + 1, 1, 1), (6 * n + 3, 1, -1)]),
        fine_form=P(lambda n: n, lambda n: [(2 * n + 1, _z12(4), -1)],
                    lambda n: _z12(-4 * n)))
    _fn("rho3_star", "3",
        defining=P(lambda n: n * (n + 1), lambda n: [(2 * n + 1, _z12(8), -1)],
                   lambda n: _z12(-2 * n)),
        false_theta=ThetaSum(3, -1, lambda n: _z12(4 - 4 * n) * psi6_1p2(n), 12))

    # order 7
    _fn("F0", "7", defining=P(lambda n: n * n, _inv_qn1_n))
    _fn("F1", "7", defining=P(lambda n: n * n, _inv_qn_n, start=1))
    _fn("F2", "7", defining=P(lambda n: n * (n + 1), _inv_qn1_n1))
    _fn("F0_star", "7", ("chi84_111", 168, -1), qseries=("double_sum", 2),
        defining=P(lambda n: n * (n + 1) // 2, _inv_qn1_n, _alt),
        double_sum=D(lambda k: 2 * k + 1,
                     _alternating(lambda k, n: (n + 2) * k - n * (n + 1) // 2 + 1, -1)),
        surgery=D(lambda k: (k + 1) ** 2 + k,
                  _alternating(lambda k, n: k + n * (n - 1) // 2 + (k + n + 1) ** 2, -1)))
    _fn("F1_star", "7", ("chi84_112", 168, -25),
        defining=P(lambda n: n * (n - 1) // 2, _inv_qn_n, _alt, start=1))
    _fn("F2_star", "7", ("chi84_113", 168, -121),
        defining=P(lambda n: n * (n + 3) // 2, _inv_qn1_n1, _neg_alt))

    # order 6
    _fn("phi6", "6", defining=P(lambda n: n * n, _phi6_run, _alt))
    _fn("psi6", "6", defining=P(lambda n: (n + 1) ** 2, _psi6_run, _alt))
    _fn("rho6", "6", defining=P(lambda n: n * (n + 1) // 2, _rho6_run))
    _fn("phi6_star", "6", ("psi12_1p5", 24, -1), qseries=("defining", 1),
        defining=P(lambda n: n, _phi6_run))
    _fn("psi6_star", "6", ("psi12_3", 24, -9), qseries=("defining", 1),
        defining=P(lambda n: n, _psi6_run))
    _fn("rho6_star", "6", ("psi24_6", 48, -36), qseries=("defining", 1),
        defining=P(lambda n: n, _rho6_run, _alt))

    # order 10
    _fn("Phi10", "10", defining=P(lambda n: n * (n + 1) // 2, _inv_q_q2))
    _fn("Psi10", "10", defining=P(lambda n: (n + 1) * (n + 2) // 2, _inv_q_q2))
    _fn("X10", "10", defining=P(lambda n: n * n, _inv_mq_2n, _alt))
    _fn("chi10", "10", defining=P(lambda n: (n + 1) ** 2, _inv_mq_2n1, _alt))
    _fn("Phi10_star", "10", ("psi10_2p3", 5, -4),
        defining=P(lambda n: n * (n + 3) // 2, _inv_q_q2, _alt))
    _fn("Psi10_star", "10", ("psi10_1p4", 5, -1), qseries=("defining", 1),
        defining=P(lambda n: n * (n + 1) // 2, _inv_q_q2, _alt))
    _fn("X10_star", "10", ("psi10_1", 40, -1), qseries=("defining", 1),
        defining=P(lambda n: n * (n + 1), _inv_mq_2n, _alt),
        double_sum=D(lambda k: k + 1, lambda k: [
            (k - 2 * n + 1, n * (n + 1) + k - 2 * n + 1, -1 if (k - n + 1) % 2 else 1)
            for n in range(1, (k + 1) // 2 + 1)]))
    _fn("chi10_star", "10", ("psi10_3", 40, -9),
        defining=P(lambda n: n * (n + 1), _inv_mq_2n1, _alt))

    # orders 2, 4 and 8
    _fn("D5", "2?", defining=P(lambda n: n, _rho6_run))
    _fn("D6", "4?", defining=P(lambda n: n, _D6_run))
    _fn("I12", "8?", defining=P(lambda n: 2 * n, _I12_run))
    _fn("I13", "8?", defining=P(lambda n: n, _I12_run))
    _fn("D5_star", "2?", ("psi4_1", 4, -1), qseries=("defining", 1),
        defining=P(lambda n: n * (n + 1) // 2, _rho6_run, _alt))
    _fn("D6_star", "4?", ("psi8_1p3", 4, -1), qseries=("defining", 1),
        defining=P(lambda n: n * (n + 1) // 2, _D6_run, _alt))
    _fn("I12_star", "8?", ("psi16_1p7", 16, -1), qseries=("defining", 1),
        defining=P(lambda n: n * (n + 1) // 2, _I12_run, _alt))
    _fn("I13_star", "8?", ("psi16_3p5", 16, -9),
        defining=P(lambda n: n * (n + 3) // 2, _I12_run, _alt))


_build_functions()


# ---------------------------------------------------------------------------
# Root-of-unity evaluation
# ---------------------------------------------------------------------------
#
# The engines sum on integer vectors of the group ring Z[x]/(x^R - 1), read
# at x = zeta_R.  R is the order r = m/gcd(m, j) of the point q = zeta_m^j,
# times the orders of the roots of unity a spec carries among its constants,
# if any; c q^e is then a signed monomial s x^a.  A product with a monomial
# is a rotation of the vector, one with a linear factor 1 - s x^a a
# rotate-and-subtract, and nothing is reduced on the way.  Beside its vector
# every engine keeps the field order its value is reported in: the lcm of the
# orders of the roots that entered the value (zeta^e at its own order, a
# constant other than +-1 at the order of the field it is written in).  The
# vector lies on the multiples of R/order, so it is read off once, at the
# end, as a canonical number of Q(zeta_order) (``cyclo.ring_value``).

def _point(m: int, j: int) -> tuple[int, int]:
    """(r, jr) with zeta_m^j = zeta_r^jr and gcd(r, jr) = 1."""
    g = math.gcd(m, j)
    return m // g, j // g


def _unit(c) -> tuple[int, int, int, int]:
    """A spec constant c = s zeta_n^k as (s, k, n, o), o the field order it
    brings into a value: 1 for +-1, else n, the order of its field."""
    if not isinstance(c, CycloNumber):
        if c in (1, -1):
            return int(c), 0, 1, 1
    elif (unit := unit_power(c)) is not None:
        s, k = unit
        if 2 * k % c.order == 0:  # c = +-1
            return (s if k == 0 else -s), 0, 1, 1
        return s, k, c.order, c.order
    raise UnsupportedMethodError(f"root engines need constants +-zeta^k, got {c!r}")


def _vanishes(m: int, j: int, e: int, u) -> bool:
    """Whether 1 - c q^e is zero at q = zeta_m^j, c given by ``_unit``."""
    ring = _Ring(m, j, [u])
    return ring.key(*ring.mono(e, u)[:2]) == 0


class _Ring:
    """Z[x]/(x^size - 1) for the point zeta_m^j and the given constants."""

    def __init__(self, m: int, j: int, units=()):
        self.r, self.jr = _point(m, j)
        self.size = math.lcm(self.r, *(u[2] for u in units))

    def order(self, b: int) -> int:
        """Order of zeta_r^b."""
        return self.r // math.gcd(self.r, b)

    def mono(self, e: int, u) -> tuple[int, int, int]:
        """c q^e as (s, a, o): s x^a, with o the order it brings into a value."""
        s, k, n, o = u
        b = self.jr * e
        a = (k * (self.size // n) + b * (self.size // self.r)) % self.size
        return s, a, math.lcm(o, self.order(b))

    def key(self, s: int, a: int) -> int:
        """s x^a as a residue mod 2 size: keys add when monomials multiply, and
        two monomials are equal at x = zeta_size exactly when their keys are."""
        return (2 * a + (self.size if s < 0 else 0)) % (2 * self.size)

    def unit_vector(self) -> list[int]:
        return [1] + [0] * (self.size - 1)


def _terminating_product_sum(m: int, j: int, spec: ProductSum,
                             cap: Optional[int] = None) -> CycloNumber:
    """Evaluate a spec at zeta_m^j whose running product has numerator
    factors, as the limit of the sum along the radius.

    A factor that vanishes at the root enters through the count of such
    factors in the running product (numerator minus denominator).  A term
    whose count is positive tends to zero; a term whose count is zero tends
    to the product of its other factors times prod e over its vanishing
    numerator factors / prod e over its vanishing denominator factors (the
    limit of (1 - c q^e)/(1 - c' q^e') is e/e'); a negative count makes the
    sum undefined at this root.  Past the first steps the factor exponents
    are affine in n, so their zero pattern repeats every r steps (r the order
    of the point); once the count is positive over r consecutive steps and no
    lower than r steps before, every later term tends to zero and the sum
    ends.  The kept terms are summed over the product of the denominator
    factors, which is divided out once."""
    r, _ = _point(m, j)
    cap = cap or 10 * m + 40
    steps = []  # (n, [(e, unit, s, vanishes)], count after step n)
    count = 0
    for i, n in enumerate(range(spec.start, spec.start + cap)):
        factors = []
        for e, c, s in spec.factors(n):
            u = _unit(c)
            factors.append((e, u, s, _vanishes(m, j, e, u)))
        count += sum(s for _, _, s, zero in factors if zero)
        if count < 0:
            raise DivergenceError("denominator factor vanishes at this root of unity")
        steps.append((n, factors, count))
        if i >= r + 2 and count >= steps[i - r][2] and \
                min(c for _, _, c in steps[i - r + 1:]) >= 1:
            break
    else:
        raise DivergenceError(f"no terminating factor within cap {cap} terms")
    while steps and steps[-1][2]:
        steps.pop()  # terms that tend to zero
    coeffs = {n: _unit(spec.coeff(n)) for n, _, count in steps if not count}
    ring = _Ring(m, j, [u for _, factors, _ in steps for _, u, _, _ in factors]
                 + list(coeffs.values()))
    constant = Fraction(spec.constant)
    total = [0] * ring.size  # the sum so far, times den and constant.denominator
    total[0] = constant.numerator
    den = ring.unit_vector()  # product of the denominator factors
    num = [x * constant.denominator for x in den]  # running numerator product
    num_order = order = 1
    for n, factors, count in steps:
        for e, u, s, zero in factors:
            if s > 0 and zero:
                num = [x * e for x in num]
            elif s > 0:
                sgn, a, o = ring.mono(e, u)
                num = _times_linear(num, sgn, a)
                num_order = math.lcm(num_order, o)
        for e, u, s, zero in factors:
            if s < 0 and zero:
                if not e:
                    raise DivergenceError("denominator factor vanishes at this root of unity")
                total = [x * e for x in total]
                den = [x * e for x in den]
            elif s < 0:
                sgn, a, o = ring.mono(e, u)
                total = _times_linear(total, sgn, a)
                den = _times_linear(den, sgn, a)
                order = math.lcm(order, o)
        if not count:
            sgn, a, o = ring.mono(spec.lead(n), coeffs[n])
            total = _add_mono(total, num, sgn, a)
            order = math.lcm(order, num_order, o)
    return ring_value(total, order, constant.denominator) * ring_value(den, order).inv()


def _collapse_sum(m: int, j: int, spec: ProductSum) -> CycloNumber:
    """Evaluate a spec at zeta_m^j whose running product has only denominator
    factors and whose terms repeat with an exact ratio of modulus < 1 after a
    full period of p factors; the sum then collapses to
    (t_0 + ... + t_(p-1)) / (1 - ratio).

    Each term t_n = u_n / (f_0 ... f_n) is a unit u_n = coeff(n) q^lead(n)
    over a product of step factors, so t_(n+p)/t_n is u_(n+p)/u_n over the
    window product f_(n+1) ... f_(n+p).  Windows that hold the same factors
    have the same product; only windows that do not are multiplied out."""
    r, _ = _point(m, j)
    candidates = [r, 2 * r, 4 * r]
    need = 2 * candidates[-1]
    steps = [([(e, _unit(c)) for e, c, _ in spec.factors(n)], _unit(spec.coeff(n)), spec.lead(n))
             for n in range(spec.start, spec.start + need)]
    ring = _Ring(m, j, [u for factors, cu, _ in steps for _, u in factors]
                 + [cu for _, cu, _ in steps])
    facs = [[ring.mono(e, u) for e, u in factors] for factors, _, _ in steps]
    units = [ring.mono(lead, cu) for _, cu, lead in steps]
    keys = [[ring.key(s, a) for s, a, _ in step] for step in facs]
    if any(0 in step for step in keys):
        raise DivergenceError("denominator factor vanishes at this root of unity")
    unit_keys = [ring.key(s, a) for s, a, _ in units]

    def product(v, first, last):  # v f_first ... f_last
        for step in facs[first:last + 1]:
            for s, a, _ in step:
                v = _times_linear(v, s, a)
        return v

    def times_unit(v, n):  # v u_n
        s, a, _ = units[n]
        return _add_mono([0] * ring.size, v, s, a)

    def has_period(p):  # u_(n+p) W_0 u_0 == u_n W_n u_p for every n < p
        diff: dict = {}  # factor keys of window n minus those of window 0
        w0 = None
        for n in range(1, p):
            for key in keys[n]:
                diff[key] = diff.get(key, 0) - 1
            for key in keys[n + p]:
                diff[key] = diff.get(key, 0) + 1
            if not any(diff.values()):
                if (unit_keys[n + p] + unit_keys[0] - unit_keys[n] - unit_keys[p]) \
                        % (2 * ring.size):
                    return False
                continue
            w0 = w0 or product(ring.unit_vector(), 1, p)
            lhs = times_unit(times_unit(w0, n + p), 0)
            rhs = times_unit(times_unit(product(ring.unit_vector(), n + 1, n + p), n), p)
            if not ring_is_zero(list(map(sub, lhs, rhs))):
                return False
        return True

    for p in candidates:
        if not has_period(p):
            continue
        order = math.lcm(*(o for step in facs[:p + 1] for _, _, o in step),
                         *(o for _, _, o in units[:p + 1]))
        # the ratio is (u_p/u_0) / W_0, and |u_p/u_0| = 1; |W_0| = 1 is
        # decided exactly, as W_0 conj(W_0) = 1 with conj(zeta^i) = zeta^(-i)
        w0 = ring_value(product(ring.unit_vector(), 1, p), order)
        conj = [0] * order
        for i, c in enumerate(w0.num):
            conj[-i % order] += c
        if w0 * ring_value(conj, order) == 1 or abs(complex(w0.to_complex(64))) < 1:
            raise DivergenceError("periodic term ratio does not contract")
        head = times_unit(ring.unit_vector(), 0)  # (t_0 + ... + t_(p-1)) f_0 ... f_(p-1)
        for n in range(1, p):
            head = product(head, n, n)
            s, a, _ = units[n]
            head[a] += s
        # value = head W_0 u_0 / (f_0 ... f_(p-1) (W_0 u_0 - u_p))
        prefix = product(ring.unit_vector(), 0, p - 1)
        num = times_unit(product(head, 1, p), 0)
        den = list(map(sub, times_unit(product(prefix, 1, p), 0), times_unit(prefix, p)))
        value = ring_value(num, order) * ring_value(den, order).inv()
        return value + spec.constant if spec.constant else value
    raise DivergenceError("no exact geometric period found")


def _grouped_sum_at_root(m: int, j: int, spec: DoubleSum) -> CycloNumber:
    """Sum a DoubleSum over its outer index k at zeta_m^j, where its groups
    vanish identically beyond a finite outer index.

    ``spec.terms(k)`` lists the k-th group as triples (n, e, s) standing for
    s [k n] q^e, [k n] the Gaussian binomial in q^step.  Groups are
    accumulated until a run of 2R consecutive exact zeros appears (R = order
    of the evaluation point); a hard cap reports nontermination.  At a base
    w of order d the binomials follow q-Lucas,
    [k n]_w = C(k div d, n div d) [k mod d, n mod d]_w, and [a b]_w = 0 for
    b > a, so the row of Gaussian binomials kept is at most d long.
    """
    ring = _Ring(m, j)
    r = ring.size
    zero_run_needed = 2 * r
    cap = 12 * r + 24
    w = ring.jr * spec.step % r
    d = ring.order(w)
    one = ring.unit_vector()
    row = [one]  # [k mod d, b]_w for b <= k mod d
    total = [0] * r
    order = 1
    run = 0
    for k in range(cap):
        kq, kr = divmod(k, d)
        if kr:  # [a b] = [a-1 b-1] + w^b [a-1 b]
            row = [one] + [_add_mono(row[b - 1], row[b], 1, w * b) for b in range(1, kr)] + [one]
        else:
            row = [one]
        scaled: dict = {}  # (n mod d, exponent) -> summed integer weight
        group_order = 1
        for n, e, s in spec.terms(k):
            a = ring.jr * e % r
            group_order = math.lcm(group_order, ring.order(a), d if 0 < n < k else 1)
            nq, nr = divmod(n, d)
            if nr <= kr:
                scaled[nr, a] = scaled.get((nr, a), 0) + s * math.comb(kq, nq)
        group = [0] * r
        for (b, a), c in scaled.items():
            if c:
                group = _add_mono(group, row[b], c, a)
        if ring_is_zero(group[::r // group_order]):
            run += 1
            if run >= zero_run_needed:
                total[0] += spec.constant
                return ring_value(total, order)
        else:
            total = list(map(add, total, group))
            order = math.lcm(order, group_order)
            run = 0
    raise DivergenceError(f"double sum groups did not vanish within {cap} outer terms")


def _le_sum_at_root(m: int, j: int, offset: int) -> CycloNumber:
    """sum_n q^n (q^(n+offset); q)_n at zeta_m^j, each window product taken
    afresh so that no factor is ever divided out.  The terms with n >= r
    (r the order of the point) vanish: their windows of n consecutive
    factors contain one that vanishes."""
    ring = _Ring(m, j)
    r, jr = ring.r, ring.jr
    total = [0] * r
    order = 1
    for n in range(r):
        term = _rot(ring.unit_vector(), jr * n)
        term_order = ring.order(jr * n)
        for i in range(n + offset, 2 * n + offset):
            if jr * i % r == 0:
                break  # a vanishing factor: the term is zero
            term = _times_linear(term, 1, jr * i)
            term_order = math.lcm(term_order, ring.order(jr * i))
        else:
            total = list(map(add, total, term))
        order = math.lcm(order, term_order)
    return ring_value(total, order)


#: Le-type forms, evaluated division-free: (function, variant) -> window offset
_LE_OFFSETS = {("chi0_star", "le_sum"): 0, ("chi1_star", "le"): 1}


def variant_at_root(fn_id: str, variant: str, root_order: int,
                    root_power: int = 1) -> CycloNumber:
    """Exact value of one series variant at q = zeta_(root_order)^(root_power),
    as the form itself sums there (no radial factor applied)."""
    m, j = root_order, root_power
    if (fn_id, variant) in _LE_OFFSETS:
        return _le_sum_at_root(m, j, _LE_OFFSETS[fn_id, variant])
    spec = get_function(fn_id).variants.get(variant)
    if isinstance(spec, DoubleSum):
        return _grouped_sum_at_root(m, j, spec)
    if not isinstance(spec, ProductSum):
        raise UnsupportedMethodError(f"{fn_id} variant {variant!r} has no exact "
                                     "evaluation at roots")
    # numerator factors, where a spec has them, enter within its first two steps
    if any(s > 0 for n in range(spec.start, spec.start + 2) for _, _, s in spec.factors(n)):
        return _terminating_product_sum(m, j, spec)
    return _collapse_sum(m, j, spec)


def value_at_root(fn_id: str, root_order: int, root_power: int = 1,
                  method: str = "eichler"):
    """Value of a starred function at q = zeta_(root_order)^(root_power).

    Methods: "eichler" (exact Bernoulli-sum radial limit), "qseries" (exact
    evaluation of a terminating/collapsing/group-terminating series form),
    "surgery" (exact evaluation of the surgery double sum), "radial"
    (independent numeric extrapolation, returns a complex number).
    """
    fn = get_function(fn_id)
    if method in ("eichler", "radial"):
        if fn.character is None:
            raise UnsupportedMethodError(f"{fn_id} has no character expansion")
        char_id, denom, shift = fn.character
        radial = false_theta_radial_limit if method == "eichler" else false_theta_radial_numeric
        v = radial(chars.get_character(char_id), denom, shift, root_order, root_power)
        return v * fn.weight if fn.weight != 1 else v
    if method == "qseries":
        if fn.qseries is None:
            raise UnsupportedMethodError(f"{fn_id} has no exact q-series route at roots")
        variant, scale = fn.qseries
        try:
            v = variant_at_root(fn_id, variant, root_order, root_power)
        except DivergenceError:
            if variant == "double_sum" or "double_sum" not in fn.variants:
                raise
            v = variant_at_root(fn_id, "double_sum", root_order, root_power)
        return v * scale if scale != 1 else v
    if method == "surgery":
        if "surgery" not in fn.variants:
            raise UnsupportedMethodError(f"{fn_id} has no surgery form")
        return variant_at_root(fn_id, "surgery", root_order, root_power)
    raise UnsupportedMethodError(f"unknown evaluation method {method!r}")


# ---------------------------------------------------------------------------
# Colored Jones values of the trefoil at roots of unity
# ---------------------------------------------------------------------------

def jones_trefoil(form: str, n_val: int) -> CycloNumber:
    """Value of the normalized N-colored Jones polynomial of the right-handed
    trefoil at q = e^(2 pi i/N), by either the cyclotomic-expansion sum or the
    single-sum geometric form; both terminate at k = N."""
    if n_val < 1:
        raise DomainError("N must be positive")
    m = n_val
    if form == "cyclotomic":
        # sum_k q^(-k(k+2)) prod_(i=1..k) (1 - q^(i-N)) (1 - q^(i+N))
        spec = ProductSum(lambda k: -k * (k + 2),
                          lambda k: [(k - m, 1, 1), (k + m, 1, 1)] if k else [])
    elif form == "geometric":
        # q^(1-N) sum_k q^(-kN) prod_(i=1..k) (1 - q^(i-N))
        spec = ProductSum(lambda k: 1 - m - k * m,
                          lambda k: [(k - m, 1, 1)] if k else [])
    else:
        raise DomainError(f"unknown Jones form {form!r} (use 'cyclotomic' or 'geometric')")
    return _terminating_product_sum(m, 1, spec)


# ---------------------------------------------------------------------------
# Bailey machinery
# ---------------------------------------------------------------------------

class BaileyPair(Record):
    """Finite stretch of a Bailey pair relative to x, held as exact series."""

    __slots__ = ("x", "alpha", "beta", "length", "truncation")


def _xq(x: Monomial) -> Monomial:
    return Monomial(x.coeff, x.num + x.den, x.den)


def _prefixes(poch, z: Monomial, count: int, t: int) -> list[QSeries]:
    """[poch(z, 1, i, t) for i < count], each extending the one before by a
    single factor; ``poch`` is pochhammer or pochhammer_inverse."""
    out = [poch(z, 1, 0, t)]
    for _ in range(1, count):
        out.append(out[-1] * poch(z, 1, 1, t))
        z = _xq(z)
    return out


def beta_from_alpha(x: Monomial, alpha: list, truncation: int) -> BaileyPair:
    """Complete a pair from its alpha side:
    beta_n = sum_(k<=n) alpha_k / ((q)_(n-k) (x q)_(n+k))."""
    inv_q = _prefixes(pochhammer_inverse, Monomial.q(1), len(alpha), truncation)
    inv_xq = _prefixes(pochhammer_inverse, _xq(x), 2 * len(alpha), truncation)
    beta = []
    for n in range(len(alpha)):
        total = QSeries.zero(1, truncation)
        for k in range(n + 1):
            a = alpha[k]
            if isinstance(a, (int, Fraction)):
                if not a:
                    continue
                a = QSeries.constant(a, 1, truncation)
            total = total + a * inv_q[n - k] * inv_xq[n + k]
        beta.append(total.truncate(truncation))
    return BaileyPair(x, list(alpha), beta, len(alpha), truncation)


def verify_bailey_pair(pair: BaileyPair) -> VerificationReport:
    """Recheck the defining relation for all stored n."""
    recomputed = beta_from_alpha(pair.x, pair.alpha, pair.truncation)
    worst = None
    for n, (b1, b2) in enumerate(zip(pair.beta, recomputed.beta)):
        b1s = b1 if isinstance(b1, QSeries) else QSeries.constant(b1, 1, pair.truncation)
        mm = b1s.first_mismatch(b2)
        if mm is not None and (worst is None or mm < worst):
            worst = mm
    return VerificationReport(
        id=f"bailey_pair(x=q^{pair.x.exponent}, length={pair.length})",
        status="pass" if worst is None else "fail",
        truncation=pair.truncation, first_mismatch=worst)


def bailey_reduced_identity(pair: BaileyPair, truncation: int) -> VerificationReport:
    """(1-x) sum_n (q)_n/(x)_n x^n alpha_n (-1)^n q^(n(n-1)/2)
       == sum_n (q)_n x^n beta_n (-1)^n q^(n(n-1)/2)."""
    t = truncation
    ex = pair.x.exponent
    if ex <= 0:
        raise DomainError("the reduced identity needs x with positive exponent")
    needed = 0
    while needed * ex + Fraction(needed * (needed - 1), 2) < t:
        needed += 1
    if needed > pair.length:
        raise DomainError(f"pair too short: need {needed} terms of alpha/beta for T={t}")

    def wrap(v):
        return v if isinstance(v, QSeries) else QSeries.constant(v, 1, t)

    common = _prefixes(pochhammer, Monomial.q(1), needed, t)
    inv_x = _prefixes(pochhammer_inverse, pair.x, needed, t)
    lhs = QSeries.zero(1, t)
    rhs = QSeries.zero(1, t)
    for n in range(needed):
        sign = 1 if n % 2 == 0 else -1
        xpow = Monomial(coeff_pow(pair.x.coeff, n), pair.x.num * n, pair.x.den)
        qshift = Monomial.q(Fraction(n * (n - 1), 2))
        lt = common[n] * inv_x[n] * wrap(pair.alpha[n])
        rt = common[n] * wrap(pair.beta[n])
        lhs = lhs + (lt.shift(xpow).shift(qshift) * sign).truncate(t)
        rhs = rhs + (rt.shift(xpow).shift(qshift) * sign).truncate(t)
    one_minus_x = QSeries.one(pair.x.den, t * pair.x.den) - QSeries.from_monomial(
        pair.x, t * pair.x.den)
    lhs = (one_minus_x * lhs).truncate(t * pair.x.den) if pair.x.den > 1 else \
        (one_minus_x * lhs)
    mm = lhs.first_mismatch(rhs)
    return VerificationReport(
        id=f"bailey_reduced(x=q^{ex})", status="pass" if mm is None else "fail",
        truncation=t, first_mismatch=mm)


#: surgery series id -> the function whose ``surgery`` variant it expands
_SURGERY_SERIES_IDS = {f"{fn_id}_surgery": fn_id for fn_id, fn in _functions.items()
                       if "surgery" in fn.variants}


def surgery_series(series_id: str, truncation: int) -> QSeries:
    """The double-sum series obtained from the surgery presentations, as a
    formal truncated series (their coefficient-wise agreement with the parent
    functions is an identity record; it has no direct proof and is confirmed
    empirically)."""
    try:
        fn_id = _SURGERY_SERIES_IDS[series_id]
    except KeyError:
        raise UnknownIdError(f"unknown surgery series {series_id!r}; known: "
                             + ", ".join(sorted(_SURGERY_SERIES_IDS))) from None
    return expand(fn_id, truncation, "surgery")


# identity registry lives in a sibling module; re-export its interface
from .identities import (IdentityRecord, identity_ids, verify_all,  # noqa: E402
                         verify_identity, get_identity,
                         verify_fine_andrews_specializations)

