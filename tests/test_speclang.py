import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from helpers import INT_DIGITS, random_expr

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


# (text, line, col, message).  Together they reach every ParseError in
# speclang; tabs and '\r' count one column.
_MALFORMED = [
    ("", 1, 1, "empty specification"),
    ("  ; nothing but a comment\n\t\n", 1, 1, "empty specification"),
    ("(neg " * 512 + "(var 0)" + ")" * 512, 1, 2561, "nesting deeper than 512"),
    (")", 1, 1, "unexpected ')'"),
    ("(var 0)\n\t; the end\n  )", 3, 3, "trailing content after specification"),
    ("(add (var 0)\n (var 0)) trailing", 2, 11, "trailing content after specification"),
    ("x y", 1, 3, "trailing content after specification"),
    ("(add\t(var 0)\n\t(neg (var 0)", 2, 2, "unclosed '('"),
    ("; open\n(tail (var 0) (", 2, 15, "unclosed '('"),
    ("(rat x 2)", 1, 6, "expected an integer for rat numerator"),
    ("(rat 1\n\t\t(var 0))", 2, 3, "expected an integer for rat denominator"),
    ("(var -)", 1, 6, "expected an integer for var index"),
    ("(prob (mass 1/2 1 (var 0)))", 1, 13, "expected an integer for mass numerator"),
    ("(prob\n  (mass 1 two (var 0)))", 2, 11, "expected an integer for mass denominator"),
    ("\t\tpi", 1, 3, "expected an expression, got atom 'pi'"),
    ("(add (var 0)\n  ())", 2, 3, "empty expression"),
    ("(3)", 1, 2, "expression head must be a symbol"),
    ("((var 0) (var 1))", 1, 2, "expression head must be a symbol"),
    ("(rat 1)", 1, 1, "rat takes a numerator and a denominator"),
    ("(rat 1 0)", 1, 8, "rat denominator must be a positive integer"),
    ("(rat 1 -2)", 1, 8, "rat denominator must be a positive integer"),
    ("(var 0 1)", 1, 1, "var takes one index"),
    ("(add (var 0)\r\n  (var -1))", 2, 8, "var index must be >= 0"),
    ("(pow (var 0) (var 0))", 1, 2, "unknown head symbol 'pow'"),
    ("(neg)", 1, 1, "neg takes one argument"),
    ("(add (var 0))", 1, 1, "add takes two arguments"),
    ("; relation\n(tail (var 0)\n\t(var 1))", 3, 2, "relation branches must use only (var 0)"),
    ("(finite (add (var 0) (var 2)))", 1, 9, "relation branches must use only (var 0)"),
    ("(prob (mass 1 1 (var 1)))", 1, 17, "prob branches must use only (var 0)"),
    ("(tail)", 1, 1, "tail needs at least a tail branch"),
    ("(finite)", 1, 1, "finite needs at least one branch"),
    ("(prob)", 1, 1, "prob needs at least one (mass n d expr) branch"),
    ("(prob (var 0))", 1, 7, "prob branches look like (mass n d expr)"),
    ("(prob\n\t(mass 1 2 (var 0))\n\tx)", 3, 2, "prob branches look like (mass n d expr)"),
    ("(prob ())", 1, 7, "prob branches look like (mass n d expr)"),
    ("(prob (weight 1 1 (var 0)))", 1, 7, "prob branches look like (mass n d expr)"),
    ("(prob (mass 1 1))", 1, 7, "mass takes a numerator, a denominator and an expression"),
    ("(prob (mass 1 0 (var 0)))", 1, 15, "mass denominator must be a positive integer"),
    ("(prob\n  ; over one\n  (mass 3 2 (var 0)))", 3, 9, "bad mass 3/2: not in [0, 1]"),
    ("(prob (mass -1 2 (var 0)))", 1, 13, "bad mass -1/2: not in [0, 1]"),
    pytest.param(
        "(rat 1 " + "7" * (INT_DIGITS + 1) + ")", 1, 8, "integer too long for rat denominator",
        id="integer-past-the-int-to-string-limit",
        marks=pytest.mark.skipif(not INT_DIGITS, reason="no int-to-string limit"),
    ),
]


@pytest.mark.parametrize("text, line, col, message", _MALFORMED)
def test_parse_error_messages_and_positions(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert str(err.value) == f"line {line}, col {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


def test_integers_are_signed_decimal_digits():
    # Arabic-Indic one and three are decimal digits, as int() reads them
    assert parse_spec("(rat \u0661 \u0663)") == ExprSpec(Const(F(1, 3)), 1)
    # a superscript two passes str.isdigit() but is no decimal digit
    with pytest.raises(ParseError) as err:
        parse_spec("(rat \u00b2 1)")
    assert str(err.value) == "line 1, col 6: expected an integer for rat numerator"
    with pytest.raises(ParseError, match="unknown head symbol '\u00b2'"):
        parse_spec("(\u00b2 (var 0))")


_SEPARATORS = st.sampled_from([" ", "\t", "\n", "\r\n", " ; note\n"])


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_any_layout_parses_to_the_same_ast(seed, data):
    ast = ExprSpec(random_expr(random.Random(seed), 4), 1)
    tokens = re.findall(r"[()]|[^ ()]+", format_spec(ast))
    text = ""
    for before, token in zip([None, *tokens], [*tokens, None]):
        between_atoms = before not in (None, "(", ")") and token not in (None, "(", ")")
        gap = data.draw(st.lists(_SEPARATORS, min_size=int(between_atoms), max_size=3))
        text += "".join(gap) + (token or "")
    assert parse_spec(text) == ast


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
