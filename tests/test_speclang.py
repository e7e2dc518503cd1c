import random
from fractions import Fraction

import pytest

from realcomp import (
    Add,
    ChiPos,
    Const,
    ExprSpec,
    Mul,
    Neg,
    ParseError,
    ProbSpec,
    RelSpec,
    Var,
    format_spec,
    parse_spec,
)

from helpers import random_expr

F = Fraction


def test_parse_expression_spec():
    ast = parse_spec("(chi-pos (var 0))")
    assert ast == ExprSpec(ChiPos(Var(0)), 1)


def test_parse_tail_relation_spec():
    ast = parse_spec("(tail (var 0) (add (var 0) (rat 1 1)))")
    assert ast == RelSpec((Var(0),), Add(Var(0), Const(1)))
    assert not ast.is_finite


def test_parse_finite_relation_spec():
    ast = parse_spec("(finite (var 0) (neg (var 0)))")
    assert ast == RelSpec((Var(0), Neg(Var(0))), None)
    assert ast.is_finite


def test_parse_prob_spec():
    text = "(prob (mass 1 2 (var 0)) (mass 1 2 (mul (rat 2 1) (var 0))))"
    ast = parse_spec(text)
    assert ast == ProbSpec(
        ((F(1, 2), Var(0)), (F(1, 2), Mul(Const(2), Var(0))))
    )


def test_parse_infers_arity_from_variables():
    ast = parse_spec("(mul (sub (add (var 0) (rat 1 1)) (var 1)) (sub (var 1) (var 0)))")
    assert isinstance(ast, ExprSpec)
    assert ast.arity == 2


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_spec("(add (var 0")
    assert err.value.line == 1
    assert err.value.col in (1, 6)
    with pytest.raises(ParseError, match="line 2"):
        parse_spec("(add (var 0)\n (var 0)) trailing")


def test_unknown_head_symbol():
    with pytest.raises(ParseError, match="unknown head"):
        parse_spec("(pow (var 0) (var 0))")


def test_arity_errors():
    with pytest.raises(ParseError, match="two arguments"):
        parse_spec("(add (var 0))")
    with pytest.raises(ParseError, match="one index"):
        parse_spec("(var 0 1)")
    with pytest.raises(ParseError, match="only .var 0."):
        parse_spec("(tail (var 1) (var 0))")


def test_bad_masses():
    with pytest.raises(ParseError, match="denominator"):
        parse_spec("(prob (mass 1 0 (var 0)))")
    with pytest.raises(ParseError, match="bad mass"):
        parse_spec("(prob (mass 3 2 (var 0)))")
    with pytest.raises(ParseError, match="integer"):
        parse_spec("(prob (mass x 2 (var 0)))")


def test_negative_rationals_and_comments():
    ast = parse_spec("; machines\n(add (var 0) (rat -3 4))")
    assert ast == ExprSpec(Add(Var(0), Const(F(-3, 4))), 1)


def test_empty_and_malformed_inputs():
    for text in ("", "   ", ")", "(", "()", "(3)"):
        with pytest.raises(ParseError):
            parse_spec(text)


def _spec_corpus():
    rng = random.Random(17)
    corpus = []
    for _ in range(30):
        corpus.append(ExprSpec(random_expr(rng, 3), 1))
    for _ in range(10):
        heads = tuple(random_expr(rng, 2) for _ in range(rng.randint(0, 3)))
        corpus.append(RelSpec(heads, random_expr(rng, 2)))
        corpus.append(RelSpec(tuple(random_expr(rng, 2) for _ in range(rng.randint(1, 3))), None))
    masses = [(F(1, 4), Var(0)), (F(1, 4), Neg(Var(0))), (F(1, 2), Const(F(2, 3)))]
    corpus.append(ProbSpec(tuple(masses)))
    return corpus


def test_print_parse_round_trip_on_a_corpus():
    corpus = _spec_corpus()
    assert len(corpus) >= 50
    for ast in corpus:
        text = format_spec(ast)
        assert parse_spec(text) == ast
        # printing is canonical: a second round trip is byte-identical
        assert format_spec(parse_spec(text)) == text
