"""Exact arithmetic in cyclotomic fields.

A CycloNumber is an element of Q(zeta_M) written in the power basis
1, zeta, ..., zeta^(phi(M)-1) modulo the M-th cyclotomic polynomial, with a
single integer denominator.  Representation stays canonical: coordinates are
integers, gcd(coords, den) == 1, den > 0.  The engines that sum series at
roots of unity live in ``catalog``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import mpmath

from .errors import DomainError


def euler_phi(m: int) -> int:
    if m < 1:
        raise DomainError("euler_phi needs m >= 1")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials; den must be monic."""
    num = num[:]
    dn = len(den) - 1
    quot = [0] * (max(len(num) - dn, 0))
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            quot[k - dn] = c
            for i, dc in enumerate(den):
                num[k - dn + i] -= c * dc
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, monic, computed by dividing x^m - 1
    by all lower-order cyclotomic polynomials."""
    if m < 1:
        raise DomainError("cyclotomic_polynomial needs m >= 1")
    if m == 1:
        return (-1, 1)
    poly = [0] * (m + 1)
    poly[0] = -1
    poly[m] = 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert not rem, f"cyclotomic division left a remainder at m={m}, d={d}"
    return tuple(poly)


class _Context:
    """Cached reduction data for one field order."""

    def __init__(self, m: int):
        self.m = m
        self.poly = cyclotomic_polynomial(m)
        self.phi = len(self.poly) - 1
        # zeta^k for k in [0, m) as integer coordinate vectors
        powers: list[tuple[int, ...]] = []
        vec = [0] * self.phi
        vec[0] = 1
        powers.append(tuple(vec))
        for _ in range(1, m):
            vec = [0] + vec
            vec = self._reduce(vec)
            powers.append(tuple(vec))
        self.powers = powers

    def _reduce(self, vec: list[int]) -> list[int]:
        phi = self.phi
        for k in range(len(vec) - 1, phi - 1, -1):
            c = vec[k]
            if c:
                base = k - phi
                for i, pc in enumerate(self.poly):
                    vec[base + i] -= c * pc
        del vec[phi:]
        while len(vec) < phi:
            vec.append(0)
        return vec

    def power(self, e: int) -> tuple[int, ...]:
        return self.powers[e % self.m]


@lru_cache(maxsize=None)
def _context(m: int) -> _Context:
    return _Context(m)


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if all(c == 0 for c in num):
        return tuple(0 for _ in num), 1
    g = 0
    for c in num:
        g = math.gcd(g, c)
    g = math.gcd(g, den)
    if den < 0:
        g = -g
    return tuple(c // g for c in num), den // g


@dataclass(frozen=True)
class CycloNumber:
    """Element of the M-th cyclotomic field in reduced power-basis form."""

    order: int
    num: tuple[int, ...]
    den: int

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(order: int = 1) -> "CycloNumber":
        phi = _context(order).phi
        return CycloNumber(order, tuple(0 for _ in range(phi)), 1)

    @staticmethod
    def one(order: int = 1) -> "CycloNumber":
        return CycloNumber.from_rational(Fraction(1), order)

    @staticmethod
    def from_rational(x, order: int = 1) -> "CycloNumber":
        x = Fraction(x)
        ctx = _context(order)
        vec = [0] * ctx.phi
        vec[0] = x.numerator
        num, den = _normalize(vec, x.denominator)
        return CycloNumber(order, num, den)

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "CycloNumber":
        """zeta_order^power, stored at the smallest sufficient field order."""
        if order < 1:
            raise DomainError("root order must be positive")
        power %= order
        g = math.gcd(order, power) if power else order
        m, e = order // g, power // g
        ctx = _context(m)
        return CycloNumber(m, ctx.power(e), 1)

    @staticmethod
    def from_coords(order: int, coords: Sequence) -> "CycloNumber":
        ctx = _context(order)
        fracs = [Fraction(c) for c in coords]
        if len(fracs) > ctx.phi:
            raise DomainError("coordinate vector longer than phi(M)")
        fracs += [Fraction(0)] * (ctx.phi - len(fracs))
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        vec = [int(f * den) for f in fracs]
        num, den = _normalize(vec, den)
        return CycloNumber(order, num, den)

    # -- structure -----------------------------------------------------
    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("not a rational number")
        return Fraction(self.num[0], self.den)

    def promote(self, order: int) -> "CycloNumber":
        if order == self.order:
            return self
        if order % self.order:
            raise DomainError(f"cannot promote order {self.order} into {order}")
        step = order // self.order
        ctx = _context(order)
        vec = [0] * ctx.phi
        for i, c in enumerate(self.num):
            if c:
                pw = ctx.power(i * step)
                for k, pc in enumerate(pw):
                    vec[k] += c * pc
        num, den = _normalize(vec, self.den)
        return CycloNumber(order, num, den)

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other) -> Optional[tuple["CycloNumber", "CycloNumber"]]:
        if isinstance(other, CycloNumber):
            if other.order == self.order:
                return self, other
            m = self.order * other.order // math.gcd(self.order, other.order)
            return self.promote(m), other.promote(m)
        if isinstance(other, (int, Fraction)):
            return self, CycloNumber.from_rational(other, 1).promote(self.order)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        den = a.den * b.den // math.gcd(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        vec = [ca * fa + cb * fb for ca, cb in zip(a.num, b.num)]
        num, den = _normalize(vec, den)
        return CycloNumber(a.order, num, den)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            vec = [c * f.numerator for c in self.num]
            num, den = _normalize(vec, self.den * f.denominator)
            return CycloNumber(self.order, num, den)
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ctx = _context(a.order)
        phi = ctx.phi
        conv = [0] * (2 * phi - 1)
        for i, ca in enumerate(a.num):
            if ca:
                for j, cb in enumerate(b.num):
                    if cb:
                        conv[i + j] += ca * cb
        vec = ctx._reduce(conv)
        num, den = _normalize(vec, a.den * b.den)
        return CycloNumber(a.order, num, den)

    __rmul__ = __mul__

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse via extended Euclid modulo Phi_M."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        a = [Fraction(c, self.den) for c in self.num]
        b = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # extended gcd: find u with a*u + b*v = gcd; gcd is a nonzero constant
        r0, r1 = b, a
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        def submul(p, q, c, shift):
            out = p[:]
            while len(out) < len(q) + shift:
                out.append(Fraction(0))
            for i, qc in enumerate(q):
                out[i + shift] -= c * qc
            while out and not out[-1]:
                out.pop()
            return out

        while deg(r1) > 0:
            while deg(r0) >= deg(r1):
                d = deg(r0) - deg(r1)
                c = r0[deg(r0)] / r1[deg(r1)]
                r0 = submul(r0, r1, c, d)
                s0 = submul(s0, s1, c, d)
                if deg(r0) < 0:
                    break
            r0, r1 = r1, r0
            s0, s1 = s1, s0
        if deg(r1) != 0:
            raise ZeroDivisionError("element not invertible (shares a factor with Phi_M)")
        c = r1[0]
        coords = [x / c for x in s1]
        return CycloNumber.from_coords(self.order, coords)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                raise ZeroDivisionError
            return self * Fraction(f.denominator, f.numerator)
        if isinstance(other, CycloNumber):
            return self * other.inv()
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other, 1)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        if self.order == other.order:
            return self.num == other.num and self.den == other.den
        m = self.order * other.order // math.gcd(self.order, other.order)
        a, b = self.promote(m), other.promote(m)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # hash through a canonical minimal embedding: rationals hash like Fraction
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    # -- numerics and text ----------------------------------------------
    def to_complex(self, precision_bits: int = 128) -> mpmath.mpc:
        """Numeric embedding zeta_M -> e^(2 pi i / M).

        The working precision carries guard bits so the rounding error is
        below 2^(1 - precision_bits) * sum |coords|.
        """
        dps = max(15, int(precision_bits * 0.30103) + 10)
        with mpmath.workdps(dps):
            total = mpmath.mpc(0)
            m = self.order
            for i, c in enumerate(self.num):
                if c:
                    total += c * mpmath.expjpi(mpmath.mpf(2 * i) / m)
            return total / self.den

    def to_complex_with_bound(self, precision_bits: int = 128) -> tuple[mpmath.mpc, Fraction]:
        value = self.to_complex(precision_bits)
        spread = sum(abs(c) for c in self.num)
        bound = Fraction(2 * spread, self.den) * Fraction(1, 2 ** precision_bits)
        return value, bound

    def text(self) -> str:
        """Canonical form ``M=<m>; [c0, c1, ...]`` with exact rationals."""
        coords = ", ".join(str(Fraction(c, self.den)) for c in self.num)
        return f"M={self.order}; [{coords}]"

    def __repr__(self):
        return f"CycloNumber({self.text()})"


def root_weighted_sum(order: int, terms: Iterable[tuple[int, int]], weight_den: int) -> CycloNumber:
    """Fast exact sum of  (w_e / weight_den) * zeta_order^e  over (e, w_e) pairs."""
    ctx = _context(order)
    vec = [0] * ctx.phi
    for e, w in terms:
        if w:
            pw = ctx.power(e)
            for k, pc in enumerate(pw):
                if pc:
                    vec[k] += w * pc
    num, den = _normalize(vec, weight_den)
    return CycloNumber(order, num, den)
