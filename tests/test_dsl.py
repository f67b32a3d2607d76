"""Expression language: parsing, printing, evaluation, divergence detection."""

import random
from fractions import Fraction

import pytest

from qtheta import dsl
from qtheta.dsl import DslSyntaxError, eval_dsl, parse, print_ast
from qtheta.errors import DivergenceError, DomainError


def test_parse_poch():
    ast = parse("poch(q; 1; 2)")
    assert isinstance(ast, dsl.Poch)
    out = eval_dsl(ast, 10)
    assert out.coeffs == {0: 1, 1: -1, 2: -1, 3: 1}


def test_parse_equality_ast():
    ast = parse("chi0_star(q) == qtheta(chi60_111, 120, -1)")
    assert isinstance(ast, dsl.Eq)
    assert eval_dsl(ast, 60).passed


def test_le_form_against_catalog():
    rep = eval_dsl("sum(n=0..inf, q^n * poch(q^n; 1; n)) == chi0_star(q)", 120)
    assert rep.passed


def test_second_le_form():
    rep = eval_dsl("1 + q * sum(m=0..inf, q^(2*m) * poch(q^(m+1); 1; m)) "
                   "== chi0_star(q)", 120)
    assert rep.passed


def test_simple_pass_and_fail():
    assert eval_dsl("poch(q;1;2) == 1 - q - q^2 + q^3", 20).passed
    rep = eval_dsl("poch(q;1;2) == 1 - q - q^2 + q^5", 20)
    assert not rep.passed and rep.first_mismatch == 3


def test_catalog_argument_forms():
    assert eval_dsl("omega_star(q^2) == nu_star(q)", 60).passed
    assert eval_dsl("phi_star(-q) == qtheta(psi6_1, 24, -1)", 60).passed


def test_fractional_powers():
    assert eval_dsl("q^(1/2) * q^(1/2) == q", 8).passed


def test_qbin():
    assert eval_dsl("qbin(4, 2)", 10).coeffs == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert eval_dsl("qbin(2, 1) == 1 + q", 8).passed


def test_finite_sum():
    out = eval_dsl("sum(k=1..3, q^k)", 10)
    assert out.coeffs == {1: 1, 2: 1, 3: 1}


def test_syntax_error_diagnostics():
    with pytest.raises(DslSyntaxError) as err:
        parse("poch(q; 1")
    assert err.value.line == 1 and err.value.column == 10
    assert ";" in err.value.expected
    with pytest.raises(DslSyntaxError):
        parse("1 + * 2")
    with pytest.raises(DslSyntaxError):
        parse("q q")  # trailing input


def test_divergent_sum_detected():
    with pytest.raises(DivergenceError):
        eval_dsl("sum(n=0..inf, q^0 + q^n)", 10)


def test_eq_only_top_level():
    with pytest.raises((DslSyntaxError, DomainError)):
        eval_dsl("(q == q) + 1", 5)


def test_unbound_variable():
    with pytest.raises(DomainError):
        eval_dsl("q^n", 5)


# -- round-trip property ---------------------------------------------------------

def _random_ast(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice([
            dsl.Num(Fraction(rng.randint(-9, 9))),
            dsl.Num(Fraction(rng.randint(1, 9), rng.randint(2, 9))),
            dsl.Q(),
            dsl.Var(rng.choice("nmk")),
        ])
    pick = rng.randrange(9)
    sub = lambda: _random_ast(rng, depth - 1)
    if pick == 0:
        return dsl.Add(sub(), sub())
    if pick == 1:
        return dsl.Sub(sub(), sub())
    if pick == 2:
        return dsl.Mul(sub(), sub())
    if pick == 3:
        child = sub()
        return dsl.Num(-child.value) if isinstance(child, dsl.Num) else dsl.Neg(child)
    if pick == 4:
        return dsl.Pow(dsl.Q(), sub())
    if pick == 5:
        return dsl.Poch(dsl.Pow(dsl.Q(), sub()), dsl.Num(Fraction(rng.randint(1, 3))),
                        None if rng.random() < 0.5 else sub())
    if pick == 6:
        return dsl.QBin(sub(), sub())
    if pick == 7:
        return dsl.Sum(rng.choice("nmk"), dsl.Num(Fraction(0)),
                       None if rng.random() < 0.5 else sub(), sub())
    return dsl.Call(rng.choice(["chi0_star", "nu_star", "F0_star"]),
                    dsl.Pow(dsl.Q(), dsl.Num(Fraction(rng.randint(1, 3)))))


def test_round_trip_on_generated_expressions():
    rng = random.Random(20250808)
    checked = 0
    while checked < 100:
        ast = _random_ast(rng, rng.randint(1, 4))
        text = print_ast(ast)
        reparsed = parse(text)
        assert reparsed == ast, text
        assert print_ast(reparsed) == text
        checked += 1


def test_nodes_are_immutable_values():
    a, b = dsl.Num(Fraction(1, 2)), dsl.Q()
    assert dsl.Add(a, b) != dsl.Mul(a, b) and dsl.Add(a, b) != dsl.Sub(a, b)
    assert dsl.Add(a, b) == dsl.Add(dsl.Num(Fraction(1, 2)), dsl.Q())
    assert hash(dsl.Add(a, b)) == hash(dsl.Add(dsl.Num(Fraction(1, 2)), dsl.Q()))
    assert repr(dsl.Add(a, b)) == "Add(left=Num(value=Fraction(1, 2)), right=Q())"
    with pytest.raises(AttributeError):
        a.value = Fraction(1)
    with pytest.raises(AttributeError):
        del a.value
    with pytest.raises(AttributeError):
        b.extra = 1
    with pytest.raises(TypeError):
        dsl.Add(a)
    node = parse("sum(n=0..inf, q^n * poch(q^n; 1; n)) == chi0_star(q)")
    assert parse(print_ast(node)) == node and len({node, parse(print_ast(node))}) == 1


def test_round_trip_on_concrete_texts():
    for text in (
        "poch(q; 1; 2)",
        "sum(n = 0 .. inf, q^n * poch(q^n; 1; n))",
        "chi0_star(q) == qtheta(chi60_111, 120, -1)",
        "1 + q * sum(m = 0 .. inf, q^(2*m) * poch(q^(m+1); 1; m))",
        "q^(1/2) * -q",
        "qbin(4, 2) - 3/2",
    ):
        ast = parse(text)
        assert parse(print_ast(ast)) == ast


def test_equation_at_order_zero_rejected():
    # an equation over no coefficients proves nothing
    with pytest.raises(DomainError):
        eval_dsl("chi0(q) == chi1(q)", 0)
    assert eval_dsl("chi0(q)", 0).coeffs == {}
