"""A small expression language for stating ad-hoc q-series identities.

Grammar (LL(1), whitespace-insensitive)::

    equation := expr ("==" expr)?
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | power
    power    := atom ("^" exponent)?
    exponent := atom                      (numeric-valued)
    atom     := RATIONAL | "q" | IDENT | "(" expr ")"
              | "poch" "(" expr ";" expr ";" (expr | "inf") ")"
              | "qbin" "(" expr "," expr ")"
              | "sum" "(" IDENT "=" expr ".." (expr | "inf") "," expr ")"
              | "qtheta" "(" IDENT "," expr "," expr ")"
              | IDENT "(" expr ")"        (catalogued function at a monomial)
    RATIONAL := NUMBER ("/" NUMBER)?

Sums are truncation-driven: an infinite sum stops once the term's leading
exponent reaches the truncation, with a stall detector (no progress of the
leading exponent for 4*T*D iterations) reporting divergence.  ``==`` may
appear only at top level and turns evaluation into a verification report.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Union

from . import catalog, chars
from .errors import DivergenceError, DomainError, QThetaError
from .report import FrozenRecord, VerificationReport
from .series import (INFINITY, Monomial, QSeries, ThetaSum, pochhammer, q_binomial,
                     substitute_power, substitute_sign)


class DslSyntaxError(QThetaError):
    """Parse failure with position and the expected-token set."""

    def __init__(self, message: str, line: int, column: int, expected=()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        suffix = f" (expected: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{suffix}")


# -- AST ----------------------------------------------------------------------
# Nodes are immutable records, equal when their classes and fields are equal
# (so ``Add(a, b) != Mul(a, b)``).

class Num(FrozenRecord):
    __slots__ = ("value",)  # a Fraction


class Q(FrozenRecord):
    __slots__ = ()


class Var(FrozenRecord):
    __slots__ = ("name",)


class Add(FrozenRecord):
    __slots__ = ("left", "right")


class Sub(FrozenRecord):
    __slots__ = ("left", "right")


class Mul(FrozenRecord):
    __slots__ = ("left", "right")


class Div(FrozenRecord):
    __slots__ = ("left", "right")


class Neg(FrozenRecord):
    __slots__ = ("child",)


class Pow(FrozenRecord):
    __slots__ = ("base", "exponent")


class Poch(FrozenRecord):
    __slots__ = ("z", "step", "count")  # count None = infinity


class QBin(FrozenRecord):
    __slots__ = ("n", "m")


class Sum(FrozenRecord):
    __slots__ = ("var", "lo", "hi", "body")  # hi None = infinity


class Call(FrozenRecord):
    __slots__ = ("name", "arg")


class QTheta(FrozenRecord):
    __slots__ = ("char_id", "denom", "shift")


class Eq(FrozenRecord):
    __slots__ = ("left", "right")


# -- lexer ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|\.\.|[-+*/^();,=])
""", re.VERBOSE)


class _Token(FrozenRecord):
    # kind: "number" | "ident" | an operator literal | "end"
    __slots__ = ("kind", "text", "line", "column")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            tokens.append(_Token(raw if kind == "op" else kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# -- parser ----------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise DslSyntaxError(f"found {self.cur.text or 'end of input'!r}",
                                 self.cur.line, self.cur.column, (kind,))
        return self._advance()

    def parse(self):
        node = self._expr()
        if self.cur.kind == "==":
            self._advance()
            rhs = self._expr()
            node = Eq(node, rhs)
        if self.cur.kind != "end":
            raise DslSyntaxError(f"trailing input {self.cur.text!r}",
                                 self.cur.line, self.cur.column,
                                 ("end of input", "==", "+", "-", "*", "^"))
        return node

    def _expr(self):
        node = self._term()
        while self.cur.kind in ("+", "-"):
            op = self._advance().kind
            rhs = self._term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _term(self):
        node = self._factor()
        while self.cur.kind in ("*", "/"):
            op = self._advance().kind
            rhs = self._factor()
            if op == "/" and isinstance(node, Num) and isinstance(rhs, Num):
                node = Num(node.value / rhs.value)
            elif op == "/":
                node = Div(node, rhs)
            else:
                node = Mul(node, rhs)
        return node

    def _factor(self):
        if self.cur.kind == "-":
            self._advance()
            child = self._factor()
            if isinstance(child, Num):
                return Num(-child.value)
            return Neg(child)
        return self._power()

    def _power(self):
        base = self._atom()
        if self.cur.kind == "^":
            self._advance()
            expo = self._atom()
            return Pow(base, expo)
        return base

    def _rational(self) -> Num:
        tok = self._expect("number")
        value = Fraction(int(tok.text))
        if self.cur.kind == "/":
            self._advance()
            den = self._expect("number")
            if int(den.text) == 0:
                raise DslSyntaxError("zero denominator", den.line, den.column)
            value = value / int(den.text)
        return Num(value)

    def _atom(self):
        tok = self.cur
        if tok.kind == "number":
            return self._rational()
        if tok.kind == "(":
            self._advance()
            node = self._expr()
            self._expect(")")
            return node
        if tok.kind == "ident":
            self._advance()
            name = tok.text
            if name == "q" and self.cur.kind != "(":
                return Q()
            if name == "inf":
                raise DslSyntaxError("'inf' is only allowed as a sum bound or "
                                     "pochhammer length", tok.line, tok.column)
            if name == "poch":
                self._expect("(")
                z = self._expr()
                self._expect(";")
                step = self._expr()
                self._expect(";")
                count = self._count_or_inf()
                self._expect(")")
                return Poch(z, step, count)
            if name == "qbin":
                self._expect("(")
                n = self._expr()
                self._expect(",")
                m = self._expr()
                self._expect(")")
                return QBin(n, m)
            if name == "sum":
                self._expect("(")
                var = self._expect("ident").text
                self._expect("=")
                lo = self._expr()
                self._expect("..")
                hi = self._count_or_inf()
                self._expect(",")
                body = self._expr()
                self._expect(")")
                return Sum(var, lo, hi, body)
            if name == "qtheta":
                self._expect("(")
                char_id = self._expect("ident").text
                self._expect(",")
                denom = self._expr()
                self._expect(",")
                shift = self._expr()
                self._expect(")")
                return QTheta(char_id, denom, shift)
            if self.cur.kind == "(":
                self._advance()
                arg = self._expr()
                self._expect(")")
                return Call(name, arg)
            return Var(name)
        raise DslSyntaxError(f"found {tok.text or 'end of input'!r}", tok.line,
                             tok.column, ("number", "q", "identifier", "(", "-"))

    def _count_or_inf(self):
        if self.cur.kind == "ident" and self.cur.text == "inf":
            self._advance()
            return None
        return self._expr()


def parse(text: str):
    """Parse DSL text into an AST; raises DslSyntaxError with position info."""
    return _Parser(text).parse()


# -- printer ----------------------------------------------------------------------

def _level(node) -> int:
    if isinstance(node, (Add, Sub)):
        return 1
    if isinstance(node, Mul):
        return 2
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    return 5


def _wrap(node, minimum: int) -> str:
    text = print_ast(node)
    return f"({text})" if _level(node) < minimum else text


def print_ast(node) -> str:
    """Canonical text; parse(print_ast(parse(s))) reproduces the AST."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Q):
        return "q"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Add):
        return f"{_wrap(node.left, 1)} + {_wrap(node.right, 2)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, 1)} - {_wrap(node.right, 2)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, 2)} * {_wrap(node.right, 3)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, 2)} / {_wrap(node.right, 3)}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.child, 3)}"
    if isinstance(node, Pow):
        expo = node.exponent
        if isinstance(expo, Num) and expo.value.denominator == 1 and expo.value >= 0:
            etext = str(expo.value)
        elif isinstance(expo, (Var, Q)):
            etext = print_ast(expo)
        else:
            etext = f"({print_ast(expo)})"
        return f"{_wrap(node.base, 5)}^{etext}"
    if isinstance(node, Poch):
        count = "inf" if node.count is None else print_ast(node.count)
        return f"poch({print_ast(node.z)}; {print_ast(node.step)}; {count})"
    if isinstance(node, QBin):
        return f"qbin({print_ast(node.n)}, {print_ast(node.m)})"
    if isinstance(node, Sum):
        hi = "inf" if node.hi is None else print_ast(node.hi)
        return f"sum({node.var} = {print_ast(node.lo)} .. {hi}, {print_ast(node.body)})"
    if isinstance(node, Call):
        return f"{node.name}({print_ast(node.arg)})"
    if isinstance(node, QTheta):
        return (f"qtheta({node.char_id}, {print_ast(node.denom)}, "
                f"{print_ast(node.shift)})")
    if isinstance(node, Eq):
        return f"{print_ast(node.left)} == {print_ast(node.right)}"
    raise DomainError(f"cannot print node {node!r}")


# -- evaluation --------------------------------------------------------------------

def _evalnum(node, env: dict) -> Fraction:
    """Numeric value of an exponent/bound expression; q is not a number."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise DomainError(f"unbound variable {node.name!r}")
        return env[node.name]
    if isinstance(node, Add):
        return _evalnum(node.left, env) + _evalnum(node.right, env)
    if isinstance(node, Sub):
        return _evalnum(node.left, env) - _evalnum(node.right, env)
    if isinstance(node, Mul):
        return _evalnum(node.left, env) * _evalnum(node.right, env)
    if isinstance(node, Div):
        den = _evalnum(node.right, env)
        if not den:
            raise DomainError("division by zero")
        return _evalnum(node.left, env) / den
    if isinstance(node, Neg):
        return -_evalnum(node.child, env)
    if isinstance(node, Pow):
        base = _evalnum(node.base, env)
        expo = _evalnum(node.exponent, env)
        if expo.denominator != 1:
            raise DomainError("numeric powers need integer exponents")
        return base ** expo.numerator
    if isinstance(node, Q):
        raise DomainError("the formal variable q cannot appear in this position")
    raise DomainError(f"expected a numeric expression, got {type(node).__name__}")


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise DomainError(f"{what} must be an integer, got {value}")
    return value.numerator


def _eval_monomial(node, env: dict, what: str) -> Monomial:
    """Exact monomial value of an argument position, never truncated."""
    if isinstance(node, Num):
        return Monomial(node.value, 0, 1)
    if isinstance(node, Var):
        return Monomial(_evalnum(node, env), 0, 1)
    if isinstance(node, Q):
        return Monomial.q(1)
    if isinstance(node, Neg):
        inner = _eval_monomial(node.child, env, what)
        return Monomial(-inner.coeff, inner.num, inner.den)
    if isinstance(node, Mul):
        a = _eval_monomial(node.left, env, what)
        b = _eval_monomial(node.right, env, what)
        return Monomial.q(a.exponent + b.exponent, a.coeff * b.coeff)
    if isinstance(node, Pow):
        expo = _evalnum(node.exponent, env)
        if isinstance(node.base, Q):
            return Monomial.q(expo)
        base = _eval_monomial(node.base, env, what)
        k = _as_int(expo, "a monomial power")
        if k < 0:
            raise DomainError("negative monomial powers are not supported")
        coeff = 1
        for _ in range(k):
            coeff = coeff * base.coeff
        return Monomial.q(base.exponent * k, coeff)
    raise DomainError(f"{what} must be a monomial expression in q")


def _lead_lower_bound(node, env: dict) -> Fraction:
    """Cheap lower bound on the leading exponent of a body, from its monomial
    structure; lets truncation-driven sums stop without evaluating dead terms."""
    if isinstance(node, (Num, Var, Poch, QBin, Call, QTheta)):
        return Fraction(0)
    if isinstance(node, Q):
        return Fraction(1)
    if isinstance(node, Neg):
        return _lead_lower_bound(node.child, env)
    if isinstance(node, (Add, Sub)):
        return min(_lead_lower_bound(node.left, env),
                   _lead_lower_bound(node.right, env))
    if isinstance(node, Mul):
        return _lead_lower_bound(node.left, env) + _lead_lower_bound(node.right, env)
    if isinstance(node, Div):
        return _lead_lower_bound(node.left, env)
    if isinstance(node, Pow):
        try:
            expo = _evalnum(node.exponent, env)
        except DomainError:
            return Fraction(0)
        if isinstance(node.base, Q):
            return max(expo, Fraction(0))
        return max(expo, Fraction(0)) * _lead_lower_bound(node.base, env)
    return Fraction(0)


def eval_series(node, env: dict, trunc: int) -> QSeries:
    """Evaluate to a QSeries with knowledge horizon ``trunc`` in powers of q."""
    if isinstance(node, Num):
        return QSeries.constant(node.value, 1, trunc)
    if isinstance(node, Var):
        return QSeries.constant(_evalnum(node, env), 1, trunc)
    if isinstance(node, Q):
        return QSeries.from_monomial(Monomial.q(1), trunc, 1)
    if isinstance(node, Add):
        return eval_series(node.left, env, trunc) + eval_series(node.right, env, trunc)
    if isinstance(node, Sub):
        return eval_series(node.left, env, trunc) - eval_series(node.right, env, trunc)
    if isinstance(node, Mul):
        return eval_series(node.left, env, trunc) * eval_series(node.right, env, trunc)
    if isinstance(node, Div):
        den = _evalnum(node.right, env)
        if not den:
            raise DomainError("division by zero")
        return eval_series(node.left, env, trunc) * (Fraction(1) / den)
    if isinstance(node, Neg):
        return -eval_series(node.child, env, trunc)
    if isinstance(node, Pow):
        expo = _evalnum(node.exponent, env)
        if isinstance(node.base, Q):
            if expo < 0:
                raise DomainError("a negative power of q is not a power series")
            m = Monomial.q(expo)
            return QSeries.from_monomial(m, trunc * m.den, m.den)
        base = eval_series(node.base, env, trunc)
        k = _as_int(expo, "a power of a series")
        if k < 0:
            raise DomainError("negative powers of series are not supported")
        out = QSeries.one(base.denom, trunc * base.denom)
        for _ in range(k):
            out = out * base
        return out
    if isinstance(node, Poch):
        z = _eval_monomial(node.z, env, "pochhammer argument")
        step = _evalnum(node.step, env)
        if node.count is None:
            count = INFINITY
        else:
            count = _as_int(_evalnum(node.count, env), "pochhammer length")
            if count < 0:
                raise DomainError("pochhammer length must be nonnegative")
        d = z.den * Fraction(step).denominator
        return pochhammer(z, step, count, trunc * d, d)
    if isinstance(node, QBin):
        n = _as_int(_evalnum(node.n, env), "binomial top")
        m = _as_int(_evalnum(node.m, env), "binomial bottom")
        return q_binomial(n, m, trunc)
    if isinstance(node, Sum):
        return _eval_sum(node, env, trunc)
    if isinstance(node, QTheta):
        denom = _as_int(_evalnum(node.denom, env), "exponent denominator")
        shift = _as_int(_evalnum(node.shift, env), "exponent shift")
        return ThetaSum(denom, shift, chars.get_character(node.char_id)).series(trunc)
    if isinstance(node, Call):
        arg = _eval_monomial(node.arg, env, "function argument")
        if arg.exponent <= 0:
            raise DomainError("function arguments must be positive powers of q")
        negative = False
        if arg.coeff == -1:
            negative = True
        elif arg.coeff != 1:
            raise DomainError("function arguments must be +-q^k")
        k = arg.exponent
        inner_t = int(math.ceil(trunc / k)) + 1
        s = catalog.expand(node.name, inner_t)
        if negative:
            s = substitute_sign(s)
        if k != 1:
            s = substitute_power(s, k)
        d = s.denom
        return s.truncate(trunc * d) if s.trunc > trunc * d else s
    if isinstance(node, Eq):
        raise DomainError("'==' is only allowed at top level")
    raise DomainError(f"cannot evaluate node {node!r}")


def _structurally_done(node: Sum, inner: dict, k: int, trunc: int) -> bool:
    """True when the monomial-structure bound puts the current term and every
    term within the stall cap beyond the truncation; guards against sums whose
    exponents are not monotone in the index."""
    probe = dict(inner)
    horizon = 4 * trunc + 64
    for kk in range(k, k + horizon + 1):
        probe[node.var] = Fraction(kk)
        if _lead_lower_bound(node.body, probe) < trunc:
            return False
    return True


def _eval_sum(node: Sum, env: dict, trunc: int) -> QSeries:
    lo = _as_int(_evalnum(node.lo, env), "sum lower bound")
    hi = None if node.hi is None else _as_int(_evalnum(node.hi, env), "sum upper bound")
    total = QSeries.zero(1, trunc)
    inner = dict(env)
    k = lo
    prev_lead: Optional[Fraction] = None
    stall = 0
    iterations = 0
    while True:
        if hi is not None and k > hi:
            break
        inner[node.var] = Fraction(k)
        if hi is None and _structurally_done(node, inner, k, trunc):
            break  # every further term provably lies beyond the truncation
        term = eval_series(node.body, inner, trunc)
        lead = term.leading_exponent()
        total = total + term
        if hi is None:
            cap = 4 * trunc * max(total.denom, term.denom) + 64
            if lead is None or (prev_lead is not None and lead <= prev_lead):
                stall += 1
                if stall > cap:
                    raise DivergenceError(
                        "sum shows no leading-exponent progress; divergent "
                        f"after {stall} stalled iterations")
            else:
                stall = 0
            if lead is not None:
                prev_lead = lead
            iterations += 1
            if iterations > cap:
                raise DivergenceError(f"sum exceeded the iteration cap {cap}")
        k += 1
    return total


def eval_dsl(node_or_text, truncation: int, env: Optional[dict] = None
             ) -> Union[QSeries, VerificationReport]:
    """Evaluate an AST or DSL text at the given truncation (in powers of q).
    Value expressions give a QSeries; a top-level ``==`` gives a report."""
    node = parse(node_or_text) if isinstance(node_or_text, str) else node_or_text
    env = env or {}
    if isinstance(node, Eq):
        if truncation < 1:
            raise DomainError(f"truncation must be at least 1, got {truncation}: "
                              f"an equation over no coefficients proves nothing")
        lhs = eval_series(node.left, env, truncation)
        rhs = eval_series(node.right, env, truncation)
        mm = lhs.first_mismatch(rhs)
        return VerificationReport(
            id="dsl_equation", status="pass" if mm is None else "fail",
            truncation=truncation, first_mismatch=mm)
    return eval_series(node, env, truncation)
