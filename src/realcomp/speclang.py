"""The machine-specification language: s-expressions over a fixed grammar.

Atoms are symbols and integers (decimal digits, optionally signed, no
longer than the interpreter's int-to-string limit); a ';' starts a
comment that runs to the end of the line.  Heads:

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

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Union

from .oracle import _OPERATORS, Const, RealExpr, Var, _walk_dag

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


# A paren, an atom, or a comment running to the end of its line.
_TOKEN_RE = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")
# \d is the Unicode decimal digits, the same set int() reads.
_INT_RE = re.compile(r"[+-]?\d+")

# Deepest list nesting a specification may have.  Reading uses a stack,
# but building (_build_expr) recurses once per level, so the cap keeps it
# inside Python's recursion limit.  Every other walk of an expression
# (printing, arity, evaluation, compiling, repr and ==) keeps its own
# stack, so expressions built in Python are not capped.
_MAX_DEPTH = 512


def _read(text: str):
    """The one datum in text.

    An atom is its re.Match; a list is [match of its '(', *items].
    """
    stack = []  # open lists, innermost last
    datum = None
    for match in _TOKEN_RE.finditer(text):
        token = match.group()
        if token[0] == ";":
            continue
        if datum is not None:
            _err(match, "trailing content after specification")
        if token == "(":
            if len(stack) == _MAX_DEPTH:
                _err(match, f"nesting deeper than {_MAX_DEPTH}")
            stack.append([match])
            continue
        if token == ")":
            if not stack:
                _err(match, "unexpected ')'")
            node = stack.pop()
        else:
            node = match
        if stack:
            stack[-1].append(node)
        else:
            datum = node
    if stack:
        _err(stack[-1], "unclosed '('")
    if datum is None:
        raise ParseError("empty specification", 1, 1)
    return datum


def _err(node, message: str):
    """Raise at the node's first character; a tab or '\\r' is one column."""
    match = node[0] if isinstance(node, list) else node
    text, pos = match.string, match.start()
    line = text.count("\n", 0, pos) + 1
    raise ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _want_int(node, what: str) -> int:
    if isinstance(node, list) or not _INT_RE.fullmatch(node.group()):
        _err(node, f"expected an integer for {what}")
    try:
        return int(node.group())
    except ValueError:  # past sys.get_int_max_str_digits()
        _err(node, f"integer too long for {what}")


# spec head -> (operator class, number of operands)
_OPERATOR_BY_SYMBOL = {op.symbol: (op, len(fields(op))) for op in _OPERATORS}


def _build_expr(node) -> tuple:
    """(expression, arity): expr_arity's value, read while building."""
    if not isinstance(node, list):
        _err(node, f"expected an expression, got atom {node.group()!r}")
    if len(node) == 1:
        _err(node, "empty expression")
    _, head, *args = node
    if isinstance(head, list) or _INT_RE.fullmatch(head.group()):
        _err(head, "expression head must be a symbol")
    name = head.group()
    if name == "rat":
        if len(args) != 2:
            _err(node, "rat takes a numerator and a denominator")
        num = _want_int(args[0], "rat numerator")
        den = _want_int(args[1], "rat denominator")
        if den <= 0:
            _err(args[1], "rat denominator must be a positive integer")
        return Const(Fraction(num, den)), 1
    if name == "var":
        if len(args) != 1:
            _err(node, "var takes one index")
        index = _want_int(args[0], "var index")
        if index < 0:
            _err(args[0], "var index must be >= 0")
        return Var(index), index + 1
    if name not in _OPERATOR_BY_SYMBOL:
        _err(head, f"unknown head symbol {name!r}")
    op, takes = _OPERATOR_BY_SYMBOL[name]
    if len(args) != takes:
        _err(node, f"{name} takes {('one argument', 'two arguments')[takes - 1]}")
    exprs, arities = zip(*map(_build_expr, args))
    return op(*exprs), max(arities)


def _build_branch_expr(node, kind: str) -> RealExpr:
    expr, arity = _build_expr(node)
    if arity > 1:
        _err(node, f"{kind} branches must use only (var 0)")
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
    node = _read(text)
    if isinstance(node, list) and len(node) > 1 and not isinstance(node[1], list):
        name = node[1].group()
        if name == "tail":
            exprs = [_build_branch_expr(child, "relation") for child in node[2:]]
            if not exprs:
                _err(node, "tail needs at least a tail branch")
            return RelSpec(tuple(exprs[:-1]), exprs[-1])
        if name == "finite":
            exprs = [_build_branch_expr(child, "relation") for child in node[2:]]
            if not exprs:
                _err(node, "finite needs at least one branch")
            return RelSpec(tuple(exprs), None)
        if name == "prob":
            return _build_prob(node)
    return ExprSpec(*_build_expr(node))


def _build_prob(node: list) -> ProbSpec:
    branches = []
    if len(node) < 3:
        _err(node, "prob needs at least one (mass n d expr) branch")
    for child in node[2:]:
        if not isinstance(child, list) or len(child) == 1:
            _err(child, "prob branches look like (mass n d expr)")
        if isinstance(child[1], list) or child[1].group() != "mass":
            _err(child, "prob branches look like (mass n d expr)")
        if len(child) != 5:
            _err(child, "mass takes a numerator, a denominator and an expression")
        _, _, num_node, den_node, expr_node = child
        num = _want_int(num_node, "mass numerator")
        den = _want_int(den_node, "mass denominator")
        if den <= 0:
            _err(den_node, "mass denominator must be a positive integer")
        mass = Fraction(num, den)
        if not 0 <= mass <= 1:
            _err(num_node, f"bad mass {num}/{den}: not in [0, 1]")
        branches.append((mass, _build_branch_expr(expr_node, "prob")))
    return ProbSpec(tuple(branches))


# ---------------------------------------------------------------------------
# Printing (canonical form; parse . format . parse is the identity)


def format_expr(expr: RealExpr) -> str:
    return _walk_dag(
        expr,
        lambda e: f"(rat {e.value.numerator} {e.value.denominator})"
        if isinstance(e, Const) else f"(var {e.index})",
        lambda e, parts: f"({' '.join([e.symbol, *parts])})",
    )


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
