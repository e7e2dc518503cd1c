"""The machine-specification language: s-expressions over a fixed grammar.

Atoms are symbols and decimal integers.  Heads:

    (rat n d)          exact rational constant n/d
    (var k)            argument variable, k >= 0
    (add a b) (sub a b) (mul a b) (min a b) (max a b)
    (neg a) (chi-pos a)
    (tail e0 ... ek etail)   relation: listed branches, then a tail branch
    (finite e0 ... ek)       relation with finitely many branches
    (prob (mass n d expr)+)  probabilistic algorithm with exact masses

A bare expression form denotes a machine; its arity is one more than the
largest variable index (at least one).  Relation and probability
branches must be one-argument expressions.  Lists nest at most 512 deep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence, Union

from .oracle import _OPERATORS, Const, RealExpr, Var, expr_arity

__all__ = [
    "ParseError",
    "ExprSpec",
    "RelSpec",
    "ProbSpec",
    "SpecAst",
    "parse_spec",
    "format_spec",
    "format_expr",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "int", "symbol"
    text: str
    line: int
    col: int


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    tokens = []
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(_Token(c, c, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < len(text) and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            word = text[start:i]
            kind = "int" if _is_int(word) else "symbol"
            tokens.append(_Token(kind, word, line, start_col))
    return tokens


def _is_int(word: str) -> bool:
    body = word[1:] if word[:1] in "+-" else word
    return body.isdigit()


@dataclass(frozen=True)
class _Node:
    """Either an atom (items is None) or a parenthesized list."""

    items: Optional[tuple]
    token: _Token

    @property
    def is_list(self) -> bool:
        return self.items is not None


# Deepest list nesting a specification may have.  Every pass over the
# tree (reading, building, arity, compiling, answering queries) recurses
# once per level, so the cap keeps them all inside Python's recursion limit.
_MAX_DEPTH = 512


def _read(tokens: Sequence[_Token], pos: int, depth: int = 1) -> tuple:
    if pos >= len(tokens):
        last = tokens[-1] if tokens else _Token("", "", 1, 1)
        raise ParseError("unexpected end of input", last.line, last.col)
    tok = tokens[pos]
    if tok.kind == "(":
        if depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH}", tok.line, tok.col)
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unclosed '('", tok.line, tok.col)
            if tokens[pos].kind == ")":
                return _Node(tuple(items), tok), pos + 1
            node, pos = _read(tokens, pos, depth + 1)
            items.append(node)
    if tok.kind == ")":
        raise ParseError("unexpected ')'", tok.line, tok.col)
    return _Node(None, tok), pos + 1


def _err(node: _Node, message: str):
    raise ParseError(message, node.token.line, node.token.col)


def _want_int(node: _Node, what: str) -> int:
    if node.is_list or node.token.kind != "int":
        _err(node, f"expected an integer for {what}")
    return int(node.token.text)


# spec head -> (operator class, number of operands)
_OPERATOR_BY_SYMBOL = {op.symbol: (op, len(fields(op))) for op in _OPERATORS}


def _build_expr(node: _Node) -> RealExpr:
    if not node.is_list:
        _err(node, f"expected an expression, got atom {node.token.text!r}")
    if not node.items:
        _err(node, "empty expression")
    head = node.items[0]
    if head.is_list or head.token.kind != "symbol":
        _err(head, "expression head must be a symbol")
    name = head.token.text
    args = node.items[1:]
    if name == "rat":
        if len(args) != 2:
            _err(node, "rat takes a numerator and a denominator")
        num = _want_int(args[0], "rat numerator")
        den = _want_int(args[1], "rat denominator")
        if den <= 0:
            _err(args[1], "rat denominator must be a positive integer")
        return Const(Fraction(num, den))
    if name == "var":
        if len(args) != 1:
            _err(node, "var takes one index")
        index = _want_int(args[0], "var index")
        if index < 0:
            _err(args[0], "var index must be >= 0")
        return Var(index)
    if name not in _OPERATOR_BY_SYMBOL:
        _err(head, f"unknown head symbol {name!r}")
    op, takes = _OPERATOR_BY_SYMBOL[name]
    if len(args) != takes:
        _err(node, f"{name} takes {('one argument', 'two arguments')[takes - 1]}")
    return op(*map(_build_expr, args))


def _build_branch_expr(node: _Node) -> RealExpr:
    expr = _build_expr(node)
    if expr_arity(expr) > 1:
        _err(node, "relation branches must use only (var 0)")
    return expr


@dataclass(frozen=True)
class ExprSpec:
    expr: RealExpr
    arity: int


@dataclass(frozen=True)
class RelSpec:
    heads: tuple
    tail: Optional[RealExpr]  # None means a finite relation

    @property
    def is_finite(self) -> bool:
        return self.tail is None


@dataclass(frozen=True)
class ProbSpec:
    branches: tuple  # of (mass: Fraction, expr: RealExpr)


SpecAst = Union[ExprSpec, RelSpec, ProbSpec]


def parse_spec(text: str) -> SpecAst:
    """Parse one machine/relation/algorithm specification."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty specification", 1, 1)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise ParseError("trailing content after specification", extra.line, extra.col)
    if node.is_list and node.items:
        head = node.items[0]
        if not head.is_list and head.token.kind == "symbol":
            name = head.token.text
            if name == "tail":
                exprs = [_build_branch_expr(child) for child in node.items[1:]]
                if not exprs:
                    _err(node, "tail needs at least a tail branch")
                return RelSpec(tuple(exprs[:-1]), exprs[-1])
            if name == "finite":
                exprs = [_build_branch_expr(child) for child in node.items[1:]]
                if not exprs:
                    _err(node, "finite needs at least one branch")
                return RelSpec(tuple(exprs), None)
            if name == "prob":
                return _build_prob(node)
    expr = _build_expr(node)
    return ExprSpec(expr, max(1, expr_arity(expr)))


def _build_prob(node: _Node) -> ProbSpec:
    branches = []
    if len(node.items) < 2:
        _err(node, "prob needs at least one (mass n d expr) branch")
    for child in node.items[1:]:
        if not child.is_list or not child.items:
            _err(child, "prob branches look like (mass n d expr)")
        head = child.items[0]
        if head.is_list or head.token.text != "mass":
            _err(child, "prob branches look like (mass n d expr)")
        if len(child.items) != 4:
            _err(child, "mass takes a numerator, a denominator and an expression")
        num = _want_int(child.items[1], "mass numerator")
        den = _want_int(child.items[2], "mass denominator")
        if den <= 0:
            _err(child.items[2], "mass denominator must be a positive integer")
        mass = Fraction(num, den)
        if not 0 <= mass <= 1:
            _err(child.items[1], f"bad mass {num}/{den}: not in [0, 1]")
        branches.append((mass, _build_branch_expr(child.items[3])))
    return ProbSpec(tuple(branches))


# ---------------------------------------------------------------------------
# Printing (canonical form; parse . format . parse is the identity)


def format_expr(expr: RealExpr) -> str:
    if isinstance(expr, Const):
        return f"(rat {expr.value.numerator} {expr.value.denominator})"
    if isinstance(expr, Var):
        return f"(var {expr.index})"
    return f"({' '.join([expr.symbol, *map(format_expr, expr.children)])})"


def format_spec(ast: SpecAst) -> str:
    if isinstance(ast, ExprSpec):
        return format_expr(ast.expr)
    if isinstance(ast, RelSpec):
        if ast.is_finite:
            inner = " ".join(format_expr(e) for e in ast.heads)
            return f"(finite {inner})"
        parts = [format_expr(e) for e in ast.heads] + [format_expr(ast.tail)]
        return f"(tail {' '.join(parts)})"
    if isinstance(ast, ProbSpec):
        parts = [
            f"(mass {m.numerator} {m.denominator} {format_expr(e)})"
            for m, e in ast.branches
        ]
        return f"(prob {' '.join(parts)})"
    raise TypeError(f"not a specification: {ast!r}")
