"""Presentations of real numbers and the expression-to-machine compiler.

A real oracle presents a real number x as a pure mapping from a
requested tolerance to a rational within that tolerance of x.  Machines
applied to oracles yield new oracles, so computed reals compose.

Real expressions are a small AST (constants, argument variables, exact
arithmetic, min/max, and the strict-positivity test) that compiles to
interval-query machines.  Each operator is defined once, as a class that
carries its spec symbol, exact rule and machine constructor; parsing,
printing, evaluation and compilation all read that table.  Subtrees with literal rational operands fold
into exact shift/scale primitives, so e.g. "x + 1" compiles to the
machine answering (q + 1, tol) rather than a looser composition
through a constant machine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Sequence

from .machine import (
    IntervalMachine,
    NoConvergence,
    NoConvergenceError,
    add_machine,
    chi_pos,
    compose,
    const_machine,
    max_machine,
    min_machine,
    mul_machine,
    neg_machine,
    proj,
    refine,
    scale_machine,
    shift_machine,
    sub_machine,
)
from .rational import as_fraction

__all__ = [
    "RealOracle",
    "from_rational",
    "apply_machine",
    "RealExpr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Neg",
    "Min",
    "Max",
    "ChiPos",
    "expr_arity",
    "expr_to_machine",
    "Undefined",
    "eval_expr",
]


@dataclass(frozen=True)
class RealOracle:
    """A real number as a tolerance -> rational approximation mapping.

    Contract (checked by tests for the catalog constructions): there is a
    single real x with |x - ask(tol)| <= tol for every positive tol.
    """

    ask: Callable[[Fraction], Fraction]
    name: str = "oracle"

    def __call__(self, tolerance) -> Fraction:
        tolerance = as_fraction(tolerance)
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        return self.ask(tolerance)

    def __repr__(self):
        return f"<oracle {self.name}>"


def from_rational(value) -> RealOracle:
    """The exact presentation of a rational: every request gets the value."""
    value = as_fraction(value)
    return RealOracle(lambda tol: value, name=str(value))


def apply_machine(
    machine: IntervalMachine,
    args: Sequence[RealOracle],
    fuel: int,
) -> RealOracle:
    """The oracle computing machine(args), refined on demand.

    The resulting oracle is partial: a request raises NoConvergenceError
    when refinement does not meet it within the fuel budget.  Answers are
    memoized per tolerance; the memo is invisible (the mapping is pure).
    """
    if len(args) != machine.arity:
        raise ValueError(
            f"machine {machine.name!r} takes {machine.arity} argument(s), "
            f"got {len(args)}"
        )
    args = tuple(args)
    memo: dict = {}

    def ask(tolerance: Fraction) -> Fraction:
        if tolerance in memo:
            return memo[tolerance]
        outcome = refine(machine, args, tolerance, fuel)
        if isinstance(outcome, NoConvergence):
            raise NoConvergenceError(outcome.steps_taken, outcome.all_infinite)
        memo[tolerance] = outcome.value
        return outcome.value

    return RealOracle(ask, name=f"{machine.name}(...)")


# ---------------------------------------------------------------------------
# Expressions


class RealExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(RealExpr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))


@dataclass(frozen=True)
class Var(RealExpr):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"variable index must be >= 0, got {self.index}")


class Undefined(Exception):
    """Exact evaluation hit a point where the expression has no value."""


class _Operator(RealExpr):
    """An operator node.  Each concrete class is one entry of the operator
    table: `symbol` is its spec-language head, `exact` its rule on exact
    rationals, `machine` the catalog constructor it compiles to, and the
    dataclass fields are its children.  `fold(c, literal_left, inner,
    arity)`, if set, compiles an application with one literal operand c
    (inner being the compiled other operand) to an exact primitive.
    A `partial` operator is never folded on literal operands: where its
    exact rule is undefined the machine must diverge, not fail to compile.
    """

    fold = None
    partial = False


@dataclass(frozen=True)
class _Unary(_Operator):
    operand: RealExpr

    @property
    def children(self) -> tuple:
        return (self.operand,)


@dataclass(frozen=True)
class _Binary(_Operator):
    left: RealExpr
    right: RealExpr

    @property
    def children(self) -> tuple:
        return (self.left, self.right)


def _shift_fold(c, literal_left, inner, arity):
    return compose(shift_machine(c), [inner])


def _sub_fold(c, literal_left, inner, arity):
    if literal_left:  # c - x: a shift of the negation
        return compose(compose(shift_machine(c), [neg_machine()]), [inner])
    return compose(shift_machine(-c), [inner])


def _scale_fold(c, literal_left, inner, arity):
    if c == 0:
        return const_machine(0, arity)
    return compose(scale_machine(c), [inner])


def _chi_pos_exact(a: Fraction) -> Fraction:
    if a > 0:
        return Fraction(1)
    raise Undefined("chi-pos argument is not strictly positive")


class Add(_Binary):
    symbol = "add"
    exact = staticmethod(operator.add)
    machine = staticmethod(add_machine)
    fold = staticmethod(_shift_fold)


class Sub(_Binary):
    symbol = "sub"
    exact = staticmethod(operator.sub)
    machine = staticmethod(sub_machine)
    fold = staticmethod(_sub_fold)


class Mul(_Binary):
    symbol = "mul"
    exact = staticmethod(operator.mul)
    machine = staticmethod(mul_machine)
    fold = staticmethod(_scale_fold)


class Min(_Binary):
    symbol = "min"
    exact = staticmethod(min)
    machine = staticmethod(min_machine)


class Max(_Binary):
    symbol = "max"
    exact = staticmethod(max)
    machine = staticmethod(max_machine)


class Neg(_Unary):
    symbol = "neg"
    exact = staticmethod(operator.neg)
    machine = staticmethod(neg_machine)


class ChiPos(_Unary):
    symbol = "chi-pos"
    exact = staticmethod(_chi_pos_exact)
    machine = staticmethod(chi_pos)
    partial = True


# The operator table.  The recursive walks below pass children through
# map() rather than a comprehension so that each level of nesting costs a
# single Python frame.
_OPERATORS = (Add, Sub, Mul, Min, Max, Neg, ChiPos)


def expr_arity(expr: RealExpr) -> int:
    """Smallest arity the expression is well-formed at (at least 1)."""
    if isinstance(expr, Var):
        return expr.index + 1
    if isinstance(expr, Const):
        return 1
    return max(1, *map(expr_arity, expr.children))


def eval_expr(expr: RealExpr, xs: Sequence[Fraction]) -> Fraction:
    """Exact rational evaluation; raises Undefined on chi at a value <= 0."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return as_fraction(xs[expr.index])
    return expr.exact(*map(eval_expr, expr.children, repeat(xs)))


def expr_to_machine(expr: RealExpr, arity: int) -> IntervalMachine:
    """Compile an expression to a sound machine of the given arity."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    needed = expr_arity(expr)
    if needed > arity:
        raise ValueError(
            f"unbound variable: expression uses {needed} argument(s), "
            f"declared arity is {arity}"
        )
    return _compile(expr, arity)


def _compile(expr: RealExpr, arity: int) -> IntervalMachine:
    if isinstance(expr, Const):
        return const_machine(expr.value, arity)
    if isinstance(expr, Var):
        return proj(expr.index, arity)
    kids = expr.children
    lc, rc = isinstance(kids[0], Const), isinstance(kids[-1], Const)
    if lc and rc and not expr.partial:
        return const_machine(expr.exact(*[kid.value for kid in kids]), arity)
    if (lc or rc) and expr.fold is not None:
        c, other = (kids[0].value, kids[1]) if lc else (kids[1].value, kids[0])
        return expr.fold(c, lc, _compile(other, arity), arity)
    return compose(expr.machine(), list(map(_compile, kids, repeat(arity))))
