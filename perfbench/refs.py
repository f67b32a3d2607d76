"""Reference values computed from first principles, without importing qtheta.

Power series are lists of plain Python integers truncated at T (index k holds
the coefficient of q^k).  L-values come from the generalised Bernoulli
numbers with exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _mul(a: list[int], b: list[int], t: int) -> list[int]:
    out = [0] * t
    for i, x in enumerate(a[:t]):
        if x:
            for j, y in enumerate(b[: t - i]):
                out[i + j] += x * y
    return out


def _div_one_minus(a: list[int], c: int, k: int) -> list[int]:
    """a / (1 - c q^k) for an integer c = +-1, in place of a geometric sum."""
    out = a[:]
    for n in range(k, len(out)):
        out[n] += c * out[n - k]
    return out


def _sum_of_terms(t: int, lead, denominators) -> list[int]:
    """sum_(n>=0, lead(n) < t) q^lead(n) / prod over (c, k) in denominators(n)
    of (1 - c q^k)."""
    total = [0] * t
    n = 0
    while lead(n) < t:
        term = [0] * t
        term[lead(n)] = 1
        for c, k in denominators(n):
            term = _div_one_minus(term, c, k)
        total = [x + y for x, y in zip(total, term)]
        n += 1
    return total


def ramanujan_f(t: int) -> list[int]:
    """Third-order f(q) = sum q^(n^2) / (-q; q)_n^2."""
    return _sum_of_terms(t, lambda n: n * n,
                         lambda n: [(-1, k) for k in range(1, n + 1)] * 2)


def ramanujan_phi(t: int) -> list[int]:
    """Third-order phi(q) = sum q^(n^2) / (-q^2; q^2)_n."""
    return _sum_of_terms(t, lambda n: n * n,
                         lambda n: [(-1, 2 * k) for k in range(1, n + 1)])


def fifth_order_chi0(t: int) -> list[int]:
    """Fifth-order chi0(q) = sum q^n / (q^(n+1); q)_n."""
    return _sum_of_terms(t, lambda n: n,
                         lambda n: [(1, k) for k in range(n + 1, 2 * n + 1)])


SERIES = {"f": ramanujan_f, "phi": ramanujan_phi, "chi0": fifth_order_chi0}


def chi60_111(n: int) -> int:
    """The odd periodic function of M(2,3,5) = Sigma(2,3,5): with P = 30 it is
    eps1*eps2*eps3 at n = P(1 + eps1/2 + eps2/3 + eps3/5) mod 2P, else 0."""
    values = {}
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                values[(30 + 15 * e1 + 10 * e2 + 6 * e3) % 60] = e1 * e2 * e3
    return values.get(n % 60, 0)


def _bernoulli_poly(m: int, x: Fraction) -> Fraction:
    """B_m(x) = sum_k C(m, k) B_k x^(m-k), with B_k from the usual recursion."""
    b = [Fraction(1)]
    for i in range(1, m + 1):
        b.append(-sum(comb(i + 1, k) * b[k] for k in range(i)) / (i + 1))
    return sum(comb(m, k) * b[k] * x ** (m - k) for k in range(m + 1))


def l_value_chi60_111(k: int) -> Fraction:
    """L(-2k, chi) = -B_(2k+1, chi) / (2k+1), where the generalised Bernoulli
    number is B_(m, chi) = f^(m-1) sum_(a=1..f) chi(a) B_m(a/f), f = 60."""
    m = 2 * k + 1
    b_chi = Fraction(60) ** (m - 1) * sum(
        chi60_111(a) * _bernoulli_poly(m, Fraction(a, 60)) for a in range(1, 61))
    return -b_chi / m


def series_text(coeffs: list[int]) -> str:
    """The canonical QSeries text of an integer series with D = 1, K = 1."""
    body = " ".join(f"{n}:{c}" for n, c in enumerate(coeffs) if c)
    return f"D=1; T={len(coeffs)}; K=1; {body}".rstrip()
