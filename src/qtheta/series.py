"""Exact truncated power series in one formal variable q^(1/D).

A QSeries is a power series: it stores sparse coefficients keyed by the
exponent numerator n >= 0 (the exponent is n/D), a truncation T >= 0 meaning
every exponent numerator n < T is known, and the order K of the cyclotomic
coefficient field (K = 1 keeps plain rationals).  Values are immutable; every
operation returns a new series and propagates truncation pessimistically.  A
negative exponent raises DomainError wherever it would arise.

The series forms of the catalog are declarative specs, each expanded by one
engine here: ``ProductSum`` (a sum over a running product of linear
factors), ``DoubleSum`` (a sum of groups of Gaussian binomials) and
``ThetaSum`` (a one-variable theta series).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .cyclo import CycloNumber
from .errors import DivergenceError, DomainError, FieldMismatchError
from .report import FrozenRecord, VerificationReport, set_field

Coeff = Union[int, Fraction, CycloNumber]

#: hard guard against nonterminating infinite constructions, per unit of T*D
ITERATION_CAP_FACTOR = 10

#: sentinel accepted by pochhammer-style constructors for n = infinity
INFINITY = None


def _merge_field(ka: int, kb: int) -> int:
    if ka % kb == 0:
        return ka
    if kb % ka == 0:
        return kb
    raise FieldMismatchError(f"coefficient fields of order {ka} and {kb} are incompatible")


def _field_of(c: Coeff) -> int:
    return c.order if isinstance(c, CycloNumber) else 1


def coeff_pow(c: Coeff, k: int) -> Coeff:
    if k < 0:
        if isinstance(c, CycloNumber):
            return coeff_pow(c.inv(), -k)
        f = Fraction(c)
        return coeff_pow(Fraction(f.denominator, f.numerator), -k)
    out: Coeff = 1
    for _ in range(k):
        out = out * c
    return out


class Monomial(FrozenRecord):
    """A single term  coeff * q^(num/den)."""

    __slots__ = ("coeff", "num", "den")

    def __init__(self, coeff: Coeff = 1, num: int = 1, den: int = 1):
        if den < 1:
            raise DomainError("monomial denominator must be >= 1")
        g = math.gcd(abs(num), den)
        if g > 1:
            num, den = num // g, den // g
        set_field(self, "coeff", coeff)
        set_field(self, "num", num)
        set_field(self, "den", den)

    @staticmethod
    def q(power: Union[int, Fraction] = 1, coeff: Coeff = 1) -> "Monomial":
        p = Fraction(power)
        return Monomial(coeff, p.numerator, p.denominator)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.num, self.den)

    def field_order(self) -> int:
        return _field_of(self.coeff)


class QSeries(FrozenRecord):
    """Sparse exact series; see the module docstring for conventions.  Two
    series are equal only when they are the same object: compare coefficients
    with ``first_mismatch``."""

    # coeffs: exponent numerator -> nonzero Coeff
    __slots__ = ("denom", "trunc", "coeffs", "field_order")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, denom: int, trunc: int, coeffs: dict, field_order: int = 1):
        if denom < 1:
            raise DomainError("series denominator must be >= 1")
        if trunc < 0:
            raise DomainError(f"truncation must be nonnegative, got {trunc}")
        for n, c in coeffs.items():
            if n >= trunc:
                raise DomainError(f"stored exponent {n} not below truncation {trunc}")
            if not c:
                raise DomainError("canonical form forbids zero coefficients")
            if n < 0:
                raise DomainError(f"negative exponent {n}/{denom} in a power series")
        set_field(self, "denom", denom)
        set_field(self, "trunc", trunc)
        set_field(self, "coeffs", coeffs)
        set_field(self, "field_order", field_order)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def make(denom: int, trunc: int, coeffs: dict, field_order: int = 1) -> "QSeries":
        return QSeries(denom, trunc, {n: c for n, c in coeffs.items() if c}, field_order)

    @staticmethod
    def zero(denom: int = 1, trunc: int = 1) -> "QSeries":
        return QSeries(denom, trunc, {})

    @staticmethod
    def one(denom: int = 1, trunc: int = 1) -> "QSeries":
        return QSeries(denom, trunc, {0: 1} if trunc > 0 else {})

    @staticmethod
    def constant(value: Coeff, denom: int = 1, trunc: int = 1) -> "QSeries":
        return QSeries.make(denom, trunc, {0: value}, _field_of(value))

    @staticmethod
    def from_monomial(m: Monomial, trunc: int, denom: Optional[int] = None) -> "QSeries":
        d = denom if denom is not None else m.den
        if d % m.den:
            raise DomainError("monomial denominator does not divide the series denominator")
        n = m.num * (d // m.den)
        coeffs = {n: m.coeff} if n < trunc and m.coeff else {}
        return QSeries(d, trunc, coeffs, m.field_order())

    # -- views ------------------------------------------------------------
    def coefficient(self, exponent: Union[int, Fraction]) -> Coeff:
        e = Fraction(exponent)
        if e >= self.order_q:
            raise DomainError(f"exponent {e} is beyond the truncation of this series")
        if self.denom % e.denominator:
            return 0
        return self.coeffs.get(e.numerator * (self.denom // e.denominator), 0)

    @property
    def order_q(self) -> Fraction:
        """Knowledge horizon in powers of q."""
        return Fraction(self.trunc, self.denom)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- rescaling -------------------------------------------------------
    def rescale(self, denom: int) -> "QSeries":
        if denom == self.denom:
            return self
        if denom % self.denom:
            raise DomainError("can only rescale to a multiple of the current denominator")
        f = denom // self.denom
        return QSeries(denom, self.trunc * f, {n * f: c for n, c in self.coeffs.items()},
                       self.field_order)

    def truncate(self, trunc: int) -> "QSeries":
        if trunc >= self.trunc:
            return self
        return QSeries(self.denom, trunc, {n: c for n, c in self.coeffs.items() if n < trunc},
                       self.field_order)

    def _unify(self, other: "QSeries") -> tuple["QSeries", "QSeries", int]:
        k = _merge_field(self.field_order, other.field_order)
        d = math.lcm(self.denom, other.denom)
        a, b = self.rescale(d), other.rescale(d)
        t = min(a.trunc, b.trunc)
        return a.truncate(t), b.truncate(t), k

    def _scalar(self, value) -> "QSeries":
        return QSeries.constant(value, self.denom, self.trunc)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = self._scalar(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, k = self._unify(other)
        out = dict(a.coeffs)
        for n, c in b.coeffs.items():
            s = out.get(n, 0) + c
            if s:
                out[n] = s
            else:
                out.pop(n, None)
        return QSeries(a.denom, a.trunc, out, k)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.denom, self.trunc, {n: -c for n, c in self.coeffs.items()},
                       self.field_order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = self._scalar(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            if not other:
                return QSeries.zero(self.denom, self.trunc)
            k = _merge_field(self.field_order,
                             other.order if isinstance(other, CycloNumber) else 1)
            return QSeries(self.denom, self.trunc,
                           {n: c * other for n, c in self.coeffs.items()}, k)
        if isinstance(other, Monomial):
            return self.shift(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, k = self._unify(other)
        t = a.trunc
        out: dict = {}
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        for n1, c1 in a.coeffs.items():
            for n2, c2 in b.coeffs.items():
                n = n1 + n2
                if n < t:
                    s = out.get(n, 0) + c1 * c2
                    if s:
                        out[n] = s
                    else:
                        out.pop(n, None)
        return QSeries(a.denom, t, out, k)

    __rmul__ = __mul__

    def shift(self, m: Monomial) -> "QSeries":
        """Multiply by a monomial; exact, so the knowledge horizon shifts too.
        A negative exponent in the result raises DomainError."""
        d = math.lcm(self.denom, m.den)
        a = self.rescale(d)
        dn = m.num * (d // m.den)
        k = _merge_field(a.field_order, m.field_order())
        coeffs = {}
        for n, c in a.coeffs.items():
            v = c * m.coeff
            if v:
                coeffs[n + dn] = v
        return QSeries(d, a.trunc + dn, coeffs, k)

    # -- comparisons --------------------------------------------------------
    def first_mismatch(self, other: "QSeries") -> Optional[Fraction]:
        """Smallest exponent (in q units) where the two series differ below the
        shared truncation; None when they agree."""
        a, b, _ = self._unify(other)
        for n in sorted(set(a.coeffs) | set(b.coeffs)):
            if a.coeffs.get(n, 0) != b.coeffs.get(n, 0):
                return Fraction(n, a.denom)
        return None

    def agrees_with(self, other: "QSeries") -> bool:
        return self.first_mismatch(other) is None

    # -- serialization --------------------------------------------------------
    def text(self) -> str:
        """Canonical form ``D=<d>; T=<t>; K=<k>; <n>:<coeff> ...``."""
        parts = [f"D={self.denom}; T={self.trunc}; K={self.field_order};"]
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            if self.field_order == 1:
                parts.append(f"{n}:{Fraction(c)}")
            else:
                cc = c if isinstance(c, CycloNumber) else CycloNumber.from_rational(c)
                cc = cc.promote(self.field_order)
                vec = ",".join(str(Fraction(x, cc.den)) for x in cc.num)
                parts.append(f"{n}:[{vec}]")
        return " ".join(parts)

    def __repr__(self):
        head = self.text()
        return f"QSeries({head[:120]}{'...' if len(head) > 120 else ''})"


# ---------------------------------------------------------------------------
# q-calculus building blocks
# ---------------------------------------------------------------------------

def _step_monomial(step) -> Monomial:
    if isinstance(step, Monomial):
        return step
    return Monomial.q(Fraction(step))


def _poch_denominator(z: Monomial, b: Monomial, denom: Optional[int]) -> int:
    d = denom or 1
    d = math.lcm(d, z.den)
    return math.lcm(d, b.den)


def mul_linear(a: list, e: int, c: Coeff = 1) -> None:
    """a <- a * (1 - c q^e) in place, for a dense coefficient list truncated
    at len(a)."""
    if e == 0:
        unit = 1 - c
        a[:] = [x * unit for x in a]
        return
    for i in range(len(a) - 1, e - 1, -1):
        x = a[i - e]
        if x:
            a[i] = a[i] - c * x


def div_linear(a: list, e: int, c: Coeff = 1) -> None:
    """a <- a / (1 - c q^e) in place, the inverse of ``mul_linear``."""
    if e == 0:
        unit = 1 - c
        if not unit:
            raise ZeroDivisionError("factor (1 - 1) is not invertible")
        inv = unit.inv() if isinstance(unit, CycloNumber) else Fraction(1) / Fraction(unit)
        a[:] = [x * inv for x in a]
        return
    for i in range(e, len(a)):
        x = a[i - e]
        if x:
            a[i] = a[i] + c * x


def _dense_one(trunc: int) -> list:
    return [1] + [0] * (trunc - 1) if trunc > 0 else []


def _pochhammer_dense(z: Monomial, step, n, trunc: int, denom: Optional[int],
                      inverse: bool) -> QSeries:
    """(z; b)_n, or its inverse, applied factor by factor to a dense list."""
    b = _step_monomial(step)
    d = _poch_denominator(z, b, denom)
    horizon = Fraction(trunc, d)
    if not z.coeff:
        return QSeries.one(d, trunc)
    if n is INFINITY and b.exponent <= 0 and z.exponent < horizon:
        raise DivergenceError("nonterminating infinite product: factor exponents do not grow")
    out = _dense_one(trunc)
    field = 1
    cap = ITERATION_CAP_FACTOR * trunc * d + 16
    coeff, expo, k = z.coeff, z.exponent, 0
    while n is INFINITY or k < n:
        if expo >= horizon:
            if b.exponent >= 0:
                break  # every remaining factor is 1 modulo the truncation
            k += 1
            coeff, expo = coeff * b.coeff, expo + b.exponent
            continue
        if expo < 0:
            raise DomainError("pochhammer factor with negative exponent")
        field = _merge_field(field, _field_of(coeff))
        e = expo.numerator * (d // expo.denominator)
        if inverse:
            div_linear(out, e, coeff)
        else:
            mul_linear(out, e, coeff)
            if n is INFINITY and not any(out):
                break
        coeff, expo, k = coeff * b.coeff, expo + b.exponent, k + 1
        if k > cap:
            name = "pochhammer_inverse" if inverse else "pochhammer"
            raise DivergenceError(f"{name} exceeded its iteration cap")
    return QSeries.make(d, trunc, dict(enumerate(out)), field)


def pochhammer(z: Monomial, step, n, trunc: int, denom: Optional[int] = None) -> QSeries:
    """(z; b)_n = prod_(k=1..n) (1 - z b^(k-1)) with monomial base b.

    ``step`` is either a rational r (base q^r) or a Monomial such as -q.
    ``n`` is a nonnegative integer or INFINITY.  Infinite products require
    growing factor exponents (step exponent > 0), unless z is already beyond
    the truncation or z is the zero monomial.
    """
    return _pochhammer_dense(z, step, n, trunc, denom, inverse=False)


def pochhammer_inverse(z: Monomial, step, n, trunc: int, denom: Optional[int] = None) -> QSeries:
    """1 / (z; b)_n, dividing out one factor at a time."""
    return _pochhammer_dense(z, step, n, trunc, denom, inverse=True)


# ---------------------------------------------------------------------------
# Declarative sums: one spec per series form
# ---------------------------------------------------------------------------

def _one(n: int) -> int:
    return 1


class ProductSum(FrozenRecord):
    """constant + sum_(n>=start) coeff(n) q^lead(n) R_n over a running product.

    R_(start-1) = 1 and R_n = R_(n-1) * prod (1 - c q^e)^s over the triples
    (e, c, s) in ``factors(n)``, s = +1 for a numerator factor and -1 for a
    denominator factor.  The formal sum stops at the first n whose lead
    reaches the truncation, so lead(n) must be nonnegative and must not
    decrease.
    """

    __slots__ = ("lead", "factors", "coeff", "start", "constant")

    def __init__(self, lead: Callable[[int], int], factors: Callable[[int], Sequence[tuple]],
                 coeff: Callable[[int], Coeff] = _one, start: int = 0, constant: Coeff = 0):
        set_field(self, "lead", lead)
        set_field(self, "factors", factors)
        set_field(self, "coeff", coeff)
        set_field(self, "start", start)
        set_field(self, "constant", constant)

    def series(self, trunc: int) -> QSeries:
        total = [0] * max(trunc, 0)
        field = _field_of(self.constant)
        if self.constant and trunc > 0:
            total[0] = self.constant
        run = _dense_one(trunc)
        n = self.start
        while (lead := self.lead(n)) < trunc:
            del run[trunc - lead:]  # later terms start no lower than this one
            for e, c, s in self.factors(n):
                field = _merge_field(field, _field_of(c))
                (mul_linear if s > 0 else div_linear)(run, e, c)
            c = self.coeff(n)
            field = _merge_field(field, _field_of(c))
            for i, x in enumerate(run):
                if x:
                    total[lead + i] += c * x
            n += 1
        return QSeries.make(1, trunc, dict(enumerate(total)), field)


class DoubleSum(FrozenRecord):
    """constant + sum_(k>=0) sum_((n, e, s) in terms(k)) s [k n]_(q^step) q^e.

    ``terms(k)`` lists the k-th group as (n, e, s) triples with 0 <= n <= k
    and e >= 0; ``kmin(k)`` bounds the exponents of the k-th group from below
    and must not decrease, and the formal sum stops at the first k with
    kmin(k) beyond the truncation.
    """

    # kmin(k) -> int, terms(k) -> [(n, e, s)]
    __slots__ = ("kmin", "terms", "step", "constant")
    _defaults = {"step": 1, "constant": 1}

    def series(self, trunc: int) -> QSeries:
        total = {0: self.constant} if self.constant and trunc > 0 else {}
        rows = q_binomial_rows(trunc, self.step)
        row = next(rows)
        k = 0
        while self.kmin(k) < trunc:
            for n, e0, sgn in self.terms(k):
                if e0 >= trunc:
                    continue
                for e, c in row[n].items():
                    ee = e0 + e
                    if ee < trunc:
                        s = total.get(ee, 0) + sgn * c
                        if s:
                            total[ee] = s
                        else:
                            total.pop(ee, None)
            k += 1
            row = next(rows)
        return QSeries.make(1, trunc, total)


class ThetaSum(FrozenRecord):
    """sum_(n>=0) coeff(n) q^((n^2 + shift)/denom), coefficients in the
    cyclotomic field of order ``field_order``.

    ``series(T)`` knows the powers of q below T, in the variable q^(1/denom);
    a nonzero coefficient at a negative exponent raises DomainError.
    """

    # coeff(n) -> Coeff
    __slots__ = ("denom", "shift", "coeff", "field_order")
    _defaults = {"field_order": 1}

    def series(self, trunc: int) -> QSeries:
        t = trunc * self.denom
        coeffs: dict = {}
        n = 0
        while (e := n * n + self.shift) < t:
            c = self.coeff(n)
            if c:
                if e < 0:
                    raise DomainError(f"negative exponent at n={n} in a theta sum")
                coeffs[e] = c
            n += 1
        return QSeries.make(self.denom, t, coeffs, self.field_order)


def series_inverse(a: QSeries) -> QSeries:
    """1/a for a series whose lowest term is a unit constant."""
    if min(a.coeffs, default=0) < 0 or not a.coeffs.get(0, 0):
        raise DomainError("series inverse needs a unit constant term")
    c0 = a.coeffs[0]
    inv0 = c0.inv() if isinstance(c0, CycloNumber) else Fraction(1) / Fraction(c0)
    rest = sorted((n, c) for n, c in a.coeffs.items() if n > 0)
    out: dict = {0: inv0}
    for n in range(1, a.trunc):
        acc = 0
        for m, c in rest:
            if m > n:
                break
            prev = out.get(n - m)
            if prev is not None:
                acc = acc + c * prev
        if acc:
            out[n] = -(inv0 * acc)
    return QSeries(a.denom, a.trunc, {n: c for n, c in out.items() if c}, a.field_order)


def q_binomial(n: int, m: int, trunc: Optional[int] = None) -> QSeries:
    """Gaussian binomial coefficient [n m]_q as an exact polynomial."""
    if m < 0 or m > n:
        raise DomainError(f"q_binomial needs 0 <= m <= n, got ({n}, {m})")
    degree = m * (n - m)
    t = trunc if trunc is not None else degree + 1
    row = _binomial_row(n, t)
    return QSeries.make(1, t, row[m])


def q_binomial_rows(trunc: int, step: int = 1):
    """Yield rows of Gaussian binomials as raw dicts, truncated: row k maps m
    to the coefficient dict of [k m] in the base q^step."""
    row = [{0: 1}]
    while True:
        yield row
        row = _next_binomial_row(row, trunc, step)


def _next_binomial_row(row: list[dict], trunc: int, step: int = 1) -> list[dict]:
    k = len(row)
    new = [dict(row[0])]
    for j in range(1, k):
        merged = dict(row[j - 1])
        for e, c in row[j].items():
            ee = e + step * j
            if ee < trunc:
                s = merged.get(ee, 0) + c
                if s:
                    merged[ee] = s
                else:
                    merged.pop(ee, None)
        new.append(merged)
    new.append({0: 1})
    return new


def _binomial_row(n: int, trunc: int) -> list[dict]:
    gen = q_binomial_rows(trunc)
    row = next(gen)
    for _ in range(n):
        row = next(gen)
    return row


def substitute_power(a: QSeries, k: Union[int, Fraction]) -> QSeries:
    """q -> q^k for a positive rational k, with exact rescaling of the
    knowledge horizon."""
    k = Fraction(k)
    if k <= 0:
        raise DomainError(f"substitution power must be positive, got {k}")
    d = a.denom * k.denominator
    new = {n * k.numerator: c for n, c in a.coeffs.items()}
    t = a.trunc * k.numerator
    g = math.gcd(math.gcd(d, t), math.gcd(*new) if new else d * t)
    return QSeries(d // g, t // g, {n // g: c for n, c in new.items()}, a.field_order)


def substitute_sign(a: QSeries) -> QSeries:
    """q -> -q, realized as q^(1/D) -> zeta_(2D) q^(1/D)."""
    d = a.denom
    if d == 1:
        return QSeries(1, a.trunc, {n: (c if n % 2 == 0 else -c) for n, c in a.coeffs.items()},
                       a.field_order)
    k = _merge_field(a.field_order, 2 * d)
    out = {}
    for n, c in a.coeffs.items():
        v = CycloNumber.root_of_unity(2 * d, n % (2 * d)) * c
        if v:
            out[n] = v
    return QSeries(d, a.trunc, out, k)


# ---------------------------------------------------------------------------
# Classical identity self-tests
# ---------------------------------------------------------------------------

def _report(name: str, lhs: QSeries, rhs: QSeries, trunc) -> VerificationReport:
    mismatch = lhs.first_mismatch(rhs)
    return VerificationReport(
        id=name,
        status="pass" if mismatch is None else "fail",
        truncation=trunc,
        first_mismatch=mismatch,
    )


def selftest_euler(order: int, z: Optional[Monomial] = None) -> VerificationReport:
    """sum_m q^(m(m-1)/2) z^m / (q)_m  ==  (-z; q)_infinity."""
    if order < 1:
        raise DomainError("order must be >= 1")
    z = z or Monomial.q()
    if z.num < 0:
        raise DomainError("monomial exponent must be nonnegative")
    d, a, t = z.den, z.num, order
    # z = c q^(a/d): the left side summed in the variable q^(1/d)
    lhs = ProductSum(lambda m: d * m * (m - 1) // 2 + a * m,
                     lambda m: [(d * m, 1, -1)] if m else [],
                     lambda m: coeff_pow(z.coeff, m)).series(t)
    lhs = QSeries(d, t, lhs.coeffs, lhs.field_order)
    rhs = pochhammer(Monomial(-z.coeff, z.num, z.den), 1, INFINITY, t, d)
    return _report(f"euler_identity(order={order}, z=q^{z.exponent})", lhs, rhs, order)


def _triple_product_rhs(z: Monomial, d: int, t: int) -> tuple[Monomial, QSeries]:
    """(q, q^(1/2)/z, q^(1/2) z; q)_infinity as (clear, R), the product being
    R / clear with R a power series: each factor 1 - c q^e with e < 0 is
    -c q^e (1 - q^(-e)/c), and ``clear`` is the monomial that cancels the
    -c q^e."""
    half = Fraction(1, 2)
    clear_coeff, clear_exp = 1, Fraction(0)
    rhs = pochhammer(Monomial.q(1), 1, INFINITY, t, d)
    for coeff, expo in ((coeff_pow(z.coeff, -1), half - z.exponent),
                        (z.coeff, half + z.exponent)):
        while expo < 0:
            inv = coeff_pow(coeff, -1)
            clear_coeff, clear_exp = -inv * clear_coeff, clear_exp - expo
            rhs = rhs * pochhammer(Monomial.q(-expo, inv), 1, 1, t, d)
            expo += 1
        rhs = rhs * pochhammer(Monomial.q(expo, coeff), 1, INFINITY, t, d)
    return Monomial.q(clear_exp, clear_coeff), rhs


def _triple_product_lhs(z: Monomial, d: int, t: int, clear: Monomial) -> QSeries:
    """clear * sum_k (-1)^k q^(k^2/2) z^k, summed over every k whose term lies
    below the truncation."""
    def lead(k: int) -> Fraction:
        return Fraction(k * k, 2) + k * z.exponent

    k0 = math.floor(Fraction(1, 2) - z.exponent)  # lead is least at k0, rising on both sides
    coeffs: dict = {}
    for direction in (1, -1):
        k = k0 if direction > 0 else k0 - 1
        while (e := lead(k) + clear.exponent) < Fraction(t, d):
            c = clear.coeff * coeff_pow(z.coeff, k) * (-1) ** (k % 2)
            n = e.numerator * (d // e.denominator)
            coeffs[n] = coeffs.get(n, 0) + c
            k += direction
    return QSeries.make(d, t, coeffs)


def selftest_triple_product(z: Monomial, order: int) -> VerificationReport:
    """sum_k (-1)^k q^(k^2/2) z^k == (q, q^(1/2)/z, q^(1/2) z; q)_infinity,
    both sides times the monomial that clears the factors of negative
    exponent, so that each is a power series."""
    if not z.coeff:
        raise DomainError("the triple product needs a nonzero z")
    d, t = math.lcm(2, z.den), order
    clear, rhs = _triple_product_rhs(z, d, t)
    lhs = _triple_product_lhs(z, d, t, clear)
    return _report(f"triple_product(order={order}, z-exponent={z.exponent})", lhs, rhs, order)


def selftest_q_binomial_theorem(n: int, z: Monomial) -> VerificationReport:
    """(-z; q)_N == sum_m q^(m(m-1)/2) [N m]_q z^m, an exact polynomial identity."""
    if n < 0:
        raise DomainError("N must be nonnegative")
    if z.exponent < 0:
        raise DomainError("monomial exponent must be nonnegative")
    degree = Fraction(n * (n - 1), 2) + n * z.exponent
    d = math.lcm(z.den, degree.denominator if degree else 1)
    t = (degree.numerator * (d // degree.denominator) if degree else 0) + d + 1
    lhs = pochhammer(Monomial(-z.coeff, z.num, z.den), 1, n, t, d)
    rhs = QSeries.zero(d, t)
    for m in range(n + 1):
        mono = Monomial.q(Fraction(m * (m - 1), 2) + m * z.exponent, coeff_pow(z.coeff, m))
        rhs = rhs + q_binomial(n, m).rescale(d).shift(mono).truncate(t)
    return _report(f"q_binomial_theorem(N={n}, z=q^{z.exponent})", lhs, rhs, t)


def selftest_eta_cubed(order: int) -> VerificationReport:
    """sum_(n>=0) (-1)^n (2n+1) q^((2n+1)^2/8) == q^(1/8) (q)_infinity^3."""
    d, t = 8, order
    lhs = {}
    n = 0
    while (2 * n + 1) ** 2 < t:
        lhs[(2 * n + 1) ** 2] = (2 * n + 1) * (1 if n % 2 == 0 else -1)
        n += 1
    p = pochhammer(Monomial.q(1), 1, INFINITY, t, d)
    rhs = (p * p * p).shift(Monomial.q(Fraction(1, 8))).truncate(t)
    return _report(f"eta_cubed(order={order})", QSeries.make(d, t, lhs), rhs, order)
