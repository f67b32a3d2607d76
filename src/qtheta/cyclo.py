"""Exact arithmetic in cyclotomic fields.

A CycloNumber is an element of Q(zeta_M) written in the power basis
1, zeta, ..., zeta^(phi(M)-1) modulo the M-th cyclotomic polynomial, with a
single integer denominator.  Representation stays canonical: coordinates are
integers, gcd(coords, den) == 1, den > 0.

Heavy sums are not run on CycloNumbers.  They run on integer vectors of the
group ring Z[x]/(x^R - 1), read at x = zeta_R: a product with zeta^e is a
rotation of the vector (``_rot``, ``_add_mono``, ``_times_linear``), and
nothing is reduced on the way.  ``ring_terms`` writes a number as such a
vector, ``ring_value`` reduces one modulo Phi once and returns the canonical
number, and ``ring_is_zero`` is the exact zero test.  ``root_weighted_sum``
and ``promote`` go through the same reduction.  The engines that sum series
at roots of unity this way live in ``catalog``; the formal running products
of ``series`` keep one such vector per power of q.

A product is an integer convolution reduced modulo Phi (``_Context.product``).
An inverse uses the same kernel: the product of the Galois conjugates of the
numerator, divided by its norm, a rational integer.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Optional, Sequence, Union

from .errors import DomainError
from .report import FrozenRecord, set_field


def _lazy_module(name: str):
    """The module ``name``, bound now and executed on its first attribute
    access (the ``importlib.util.LazyLoader`` recipe of the standard library);
    a module already imported is returned as it is, and a missing one raises
    ModuleNotFoundError."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


#: mpmath, loaded on first numeric use; chars, wrt, lfunc and cli import this
#: binding, so a process that computes only exact values never loads it
mpmath = _lazy_module("mpmath")


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


def _prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return out


def euler_phi(m: int) -> int:
    """phi(m) = m * prod(1 - 1/p) over the primes p dividing m."""
    if m < 1:
        raise DomainError("euler_phi needs m >= 1")
    for p in _prime_factors(m):
        m -= m // p
    return m


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, monic.

    With rad(m) the product of the primes dividing m,
    Phi_m(x) = Phi_rad(m)(x^(m/rad(m))); for squarefree m = n p with p prime,
    Phi_m(x) = Phi_n(x^p) / Phi_n(x), one exact division."""
    if m < 1:
        raise DomainError("cyclotomic_polynomial needs m >= 1")
    if m == 1:
        return (-1, 1)
    primes = _prime_factors(m)
    rad = math.prod(primes)
    if rad != m:
        return tuple(_stretch(cyclotomic_polynomial(rad), m // rad))
    base = cyclotomic_polynomial(m // primes[-1])
    poly, rem = _poly_divmod_int(_stretch(base, primes[-1]), list(base))
    assert not rem, f"cyclotomic division left a remainder at m={m}"
    return tuple(poly)


def _stretch(poly: Sequence[int], k: int) -> list[int]:
    """Coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


class _Context:
    """Reduction data for one field order."""

    def __init__(self, m: int):
        self.m = m
        self.poly = cyclotomic_polynomial(m)
        self.phi = len(self.poly) - 1
        # Phi_m = x^phi + sum c x^i over these (i, c); most c are zero
        self.tail = [(i, c) for i, c in enumerate(self.poly[:-1]) if c]
        self.powers: dict[int, tuple[int, ...]] = {}

    def _reduce(self, vec: list[int]) -> list[int]:
        """vec modulo Phi_m, in place, padded or cut to phi coordinates."""
        phi = self.phi
        tail = self.tail
        for k in range(len(vec) - 1, phi - 1, -1):
            c = vec[k]
            if c:
                base = k - phi
                for i, pc in tail:
                    vec[base + i] -= c * pc
        del vec[phi:]
        vec.extend([0] * (phi - len(vec)))
        return vec

    def product(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """a * b modulo Phi_m, both given by their phi coordinates."""
        conv = [0] * (2 * self.phi - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        conv[i + j] += ca * cb
        return self._reduce(conv)

    def power(self, e: int) -> tuple[int, ...]:
        """zeta^e as a coordinate vector."""
        e %= self.m
        pw = self.powers.get(e)
        if pw is None:
            vec = [0] * max(e + 1, self.phi)
            vec[e] = 1
            pw = self.powers[e] = tuple(self._reduce(vec))
        return pw


@lru_cache(maxsize=None)
def _context(m: int) -> _Context:
    return _Context(m)


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if not any(num):
        return (0,) * len(num), 1
    g = math.gcd(*num, den)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


class CycloNumber(FrozenRecord):
    """Element of the M-th cyclotomic field in reduced power-basis form: the
    power-basis coordinates are num[i]/den."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int):
        set_field(self, "order", order)
        set_field(self, "num", num)
        set_field(self, "den", den)

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
        den = math.lcm(*(f.denominator for f in fracs))
        vec = [int(f * den) for f in fracs]
        num, den = _normalize(vec, den)
        return CycloNumber(order, num, den)

    # -- structure -----------------------------------------------------
    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def promote(self, order: int) -> "CycloNumber":
        if order == self.order:
            return self
        if order % self.order:
            raise DomainError(f"cannot promote order {self.order} into {order}")
        vec = [0] * order
        vec[:len(self.num) * (order // self.order):order // self.order] = self.num
        return ring_value(vec, order, self.den)

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other) -> Optional[tuple["CycloNumber", "CycloNumber"]]:
        if isinstance(other, CycloNumber):
            if other.order == self.order:
                return self, other
            m = math.lcm(self.order, other.order)
            return self.promote(m), other.promote(m)
        if isinstance(other, (int, Fraction)):
            return self, CycloNumber.from_rational(other, 1).promote(self.order)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        den = math.lcm(a.den, b.den)
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
        vec = _context(a.order).product(a.num, b.num)
        num, den = _normalize(vec, a.den * b.den)
        return CycloNumber(a.order, num, den)

    __rmul__ = __mul__

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse by the Galois norm: with sigma_k the
        automorphism zeta -> zeta^k, the product c of the conjugates
        sigma_k(num) over k prime to M, k != 1, makes num * c the rational
        integer N(num), so 1/(num/den) = den * c / N(num)."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        m = self.order
        ctx = _context(m)
        cofactor = ctx.power(0)
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                conjugate = [0] * m
                for i, c in enumerate(self.num):
                    conjugate[i * k % m] += c
                cofactor = ctx.product(cofactor, ctx._reduce(conjugate))
        norm = ctx.product(self.num, cofactor)[0]
        num, den = _normalize([c * self.den for c in cofactor], norm)
        return CycloNumber(m, num, den)

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
        m = math.lcm(self.order, other.order)
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

    def _mpmath_(self, prec: int, rounding: str) -> mpmath.mpc:
        """mpmath's conversion hook: in arithmetic with an mpf or mpc the
        exact side embeds at the caller's working precision (bits)."""
        return self.to_complex(prec)

    def text(self) -> str:
        """Canonical form ``M=<m>; [c0, c1, ...]`` with exact rationals."""
        coords = ", ".join(str(Fraction(c, self.den)) for c in self.num)
        return f"M={self.order}; [{coords}]"

    def __repr__(self):
        return f"CycloNumber({self.text()})"


@lru_cache(maxsize=None)
def _signed_powers(order: int) -> dict:
    """Coordinates of +-zeta_order^k -> (s, k), the least k for each."""
    ctx = _context(order)
    out: dict = {}
    for k in range(order):
        pw = ctx.power(k)
        out.setdefault(pw, (1, k))
        out.setdefault(tuple(-c for c in pw), (-1, k))
    return out


def unit_power(c: CycloNumber) -> Optional[tuple[int, int]]:
    """(s, k) with c = s zeta_M^k, s = +-1 and M = c.order, the least such k;
    None when c is not a signed root of unity."""
    return _signed_powers(c.order).get(c.num) if c.den == 1 else None


def ring_terms(c, size: int) -> list[tuple[int, Union[int, Fraction]]]:
    """c, a rational or a number of a field whose order divides ``size``, as
    the sum of w x^a over the returned pairs (a, w): an element of
    Q[x]/(x^size - 1) that reads as c at x = zeta_size.  A signed root of
    unity is one pair, and zero is none."""
    if not isinstance(c, CycloNumber):
        return [(0, c)] if c else []
    step = size // c.order
    unit = unit_power(c)
    if unit is not None:
        return [(unit[1] * step, unit[0])]
    return [(i * step, x if c.den == 1 else Fraction(x, c.den)) for i, x in enumerate(c.num) if x]


def _rot(v: list, a: int) -> list:
    """v x^a."""
    a %= len(v)
    return v[-a:] + v[:-a] if a else v


def _add_mono(v: list, w: list, c, a: int) -> list:
    """v + c w x^a for a rational c; with a = 0, the entrywise v + c w."""
    if c == 1 or c == -1:
        return list(map(add if c > 0 else sub, v, _rot(w, a)))
    return [x + c * y for x, y in zip(v, _rot(w, a))]


def _times_linear(v: list, s: int, a: int) -> list:
    """v (1 - s x^a)."""
    return _add_mono(v, v, -s, a)


def ring_value(vec: Sequence[int], order: int, den: int = 1) -> CycloNumber:
    """vec/den, an element of Z[x]/(x^R - 1) with R = len(vec), at x = zeta_R,
    as a canonical number of Q(zeta_order).

    vec must lie on the multiples of R/order, as every sum of products of
    roots of unity whose orders divide ``order`` does; there x^(R/order) is
    zeta_order."""
    num, den = _normalize(_context(order)._reduce(list(vec[::len(vec) // order])), den)
    return CycloNumber(order, num, den)


def ring_is_zero(vec: Sequence[int]) -> bool:
    """Whether an element of Z[x]/(x^R - 1), R = len(vec), vanishes at
    x = zeta_R."""
    return not any(vec) or not any(_context(len(vec))._reduce(list(vec)))


def root_weighted_sum(order: int, terms: Iterable[tuple[int, int]], weight_den: int) -> CycloNumber:
    """Fast exact sum of  (w_e / weight_den) * zeta_order^e  over (e, w_e) pairs."""
    vec = [0] * order
    for e, w in terms:
        vec[e % order] += w
    return ring_value(vec, order, weight_den)
