"""Presentations of real numbers and the expression-to-machine compiler.

A real oracle presents a real number x as a pure mapping from a
requested tolerance to a rational within that tolerance of x.  Machines
applied to oracles yield new oracles, so computed reals compose.

Real expressions are a small AST (constants, argument variables, exact
arithmetic, min/max, and the strict-positivity test) that compiles to
interval-query machines.  Each operator is defined once, as a class that
carries its spec symbol, exact rule and interval rule; parsing,
printing, evaluation and compilation all read that table.

Compilation, like arity and exact evaluation, is one walk of the
expression DAG, memoised on the subterm object and freed when it
returns; it interns every step, so a DAG whose subterms are shared (the
tree of the logistic iterate k grows as 2^k, its DAG as k) becomes a
plan with one step per distinct subterm.
A plan is a list of (interval rule, operand slots) steps, run once per
query by the plan runner of realcomp.machine; refinement feeds it values
directly, and only a public transition call converts a Query.
A literal operand folds into an exact primitive: "x + 1" is the step
answering (q + 1, tol), "c * x" scales by c, and an operator of two
literals is a step of the constant it evaluates to, which its parent
does not fold.  A zero factor does not fold:
"0 * x" is undefined wherever x is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .machine import (
    _CAP,
    IntervalMachine,
    _add_rule,
    _chi_pos_rule,
    _const_rule,
    _max_rule,
    _min_rule,
    _mul_rule,
    _neg_rule,
    _plan_machine,
    _required,
    _scale_rule,
    _shift_rule,
    _sub_rule,
    refine,
)
from .rational import _positive, _text, as_fraction

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
    An exact presentation of a rational also carries it as _exact.
    """

    ask: Callable[[Fraction], Fraction]
    name: str = "oracle"
    _exact: Fraction = field(default=None, compare=False)

    def __call__(self, tolerance) -> Fraction:
        return self.ask(_positive(tolerance, "tolerance"))

    def __repr__(self):
        return f"<oracle {self.name}>"


def from_rational(value) -> RealOracle:
    """The exact presentation of a rational: every request gets the value."""
    value = as_fraction(value)
    return RealOracle(lambda tol: value, _text(value), value)


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
        value = memo[tolerance] = _required(refine(machine, args, tolerance, fuel)).value
        return value

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
    rationals, `rule` its interval rule (realcomp.machine), and the
    dataclass fields are its children.  `fold(c, literal_left)`, if set,
    gives for an application with one literal operand c the chain of
    (rule, parameters) steps that computes it exactly from the other
    operand, or None where it does not fold.  A `partial` operator is
    never folded on literal operands: where its exact rule is undefined
    the machine must diverge, not fail to compile.
    """

    fold = None
    partial = False

    # Equality, hashing and repr are structural, as the dataclass ones
    # would be, but never recurse: a spec may nest as deep as the parser
    # allows.  The hash is computed once, from the children's hashes.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.symbol, *self.children)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.__class__ is not b.__class__ or hash(a) != hash(b):
                return False
            if isinstance(a, _Operator):
                todo.extend(zip(a.children, b.children))
            elif a != b:
                return False
        return True

    def __repr__(self):
        parts, todo = [], [self]
        while todo:
            e = todo.pop()
            if isinstance(e, str):
                parts.append(e)
            elif isinstance(e, _Operator):
                parts.append(f"{e.__class__.__qualname__}(")
                todo.append(")")
                for i, field in reversed(list(enumerate(fields(e)))):
                    sep = ", " if i else ""
                    todo += [getattr(e, field.name), f"{sep}{field.name}="]
            else:
                parts.append(repr(e))
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class _Unary(_Operator):
    operand: RealExpr

    @property
    def children(self) -> tuple:
        return (self.operand,)


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(_Operator):
    left: RealExpr
    right: RealExpr

    @property
    def children(self) -> tuple:
        return (self.left, self.right)


def _shift_fold(c, literal_left):
    return ((_shift_rule, (c,)),)


def _sub_fold(c, literal_left):
    if literal_left:  # c - x: a shift of the negation
        return ((_neg_rule, ()), (_shift_rule, (c,)))
    return ((_shift_rule, (-c,)),)


def _scale_fold(c, literal_left):
    # 0 * x is undefined wherever x is, so a zero factor goes through mul
    return ((_scale_rule, (c,)),) if c else None


def _chi_pos_exact(a: Fraction) -> Fraction:
    if a > 0:
        return Fraction(1)
    raise Undefined("chi-pos argument is not strictly positive")


class Add(_Binary):
    symbol = "add"
    exact = staticmethod(operator.add)
    rule = staticmethod(_add_rule)
    fold = staticmethod(_shift_fold)


class Sub(_Binary):
    symbol = "sub"
    exact = staticmethod(operator.sub)
    rule = staticmethod(_sub_rule)
    fold = staticmethod(_sub_fold)


class Mul(_Binary):
    symbol = "mul"
    exact = staticmethod(operator.mul)
    rule = staticmethod(_mul_rule)
    fold = staticmethod(_scale_fold)


class Min(_Binary):
    symbol = "min"
    exact = staticmethod(min)
    rule = staticmethod(_min_rule)


class Max(_Binary):
    symbol = "max"
    exact = staticmethod(max)
    rule = staticmethod(_max_rule)


class Neg(_Unary):
    symbol = "neg"
    exact = staticmethod(operator.neg)
    rule = staticmethod(_neg_rule)


class ChiPos(_Unary):
    symbol = "chi-pos"
    exact = staticmethod(_chi_pos_exact)
    rule = staticmethod(_chi_pos_rule)
    partial = True


# The operator table.  The DAG walk below passes children through map()
# rather than a comprehension so that each level of nesting costs a
# single Python frame.
_OPERATORS = (Add, Sub, Mul, Min, Max, Neg, ChiPos)


def _walk_dag(expr: RealExpr, leaf, node):
    """Fold expr bottom-up: leaf(e) at a Const or Var, node(e, child
    values) at an operator.  Memoised on the subterm object, so a shared
    DAG is walked in linear time; the memo is freed when the walk returns."""
    seen = {}

    def walk(e: RealExpr):
        v = seen.get(id(e))
        if v is None:
            if isinstance(e, (Const, Var)):
                v = seen[id(e)] = leaf(e)
            else:
                v = seen[id(e)] = node(e, tuple(map(walk, e.children)))
        return v

    try:
        return walk(expr)
    finally:
        del walk  # walk refers to itself; break the cycle


def expr_arity(expr: RealExpr) -> int:
    """Smallest arity the expression is well-formed at (at least 1)."""
    return _walk_dag(
        expr,
        lambda e: e.index + 1 if isinstance(e, Var) else 1,
        lambda e, arities: max(1, *arities),
    )


def eval_expr(expr: RealExpr, xs: Sequence[Fraction]) -> Fraction:
    """Exact rational evaluation; raises Undefined on chi at a value <= 0."""
    return _walk_dag(
        expr,
        lambda e: e.value if isinstance(e, Const) else as_fraction(xs[e.index]),
        lambda e, values: e.exact(*values),
    )


def expr_to_machine(expr: RealExpr, arity: int) -> IntervalMachine:
    """Compile an expression to a sound machine of the given arity.

    Takes time linear in the expression DAG: shared subterms, and
    structurally equal ones, are compiled and evaluated once.  Slots
    0 .. arity-1 hold the query's components; step i fills slot arity + i
    by applying its rule to the values in its operand slots.  The walk
    takes a Var to its slot, an operator to the slot of its last step,
    and a Const to itself: an operand that does not fold becomes a const
    step.  Steps are interned on (rule, literal parameters as integer
    pairs, operand slots), so structurally equal subterms share one slot.
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    steps, interned, everything = [], {}, tuple(range(arity))

    def step(rule, params: tuple, operands: tuple) -> int:
        params = tuple(map(Fraction.as_integer_ratio, params))
        key = (rule, params, operands)
        slot = interned.get(key)
        if slot is None:
            slot = interned[key] = arity + len(steps)
            steps.append((partial(rule, *params) if params else rule, operands))
        return slot

    def slot(v) -> int:
        return step(_const_rule, (v.value,), everything) if isinstance(v, Const) else v

    def leaf(e):
        if isinstance(e, Const):
            return e
        if e.index >= arity:
            raise ValueError(
                f"unbound variable: expression uses {expr_arity(expr)} argument(s), "
                f"declared arity is {arity}"
            )
        return e.index

    def node(e, kids: tuple) -> int:
        lc, rc = isinstance(kids[0], Const), isinstance(kids[-1], Const)
        if not (lc or rc):
            return step(e.rule, (), kids)
        if lc and rc and not e.partial:
            return slot(Const(e.exact(*[kid.value for kid in kids])))
        if e.fold is not None:
            c, v = (kids[0].value, kids[1]) if lc else (kids[1].value, kids[0])
            chain = e.fold(c, lc)
            if chain is not None:
                for rule, params in chain:
                    v = step(rule, params, (v,))
                return v
        return step(e.rule, (), tuple(map(slot, kids)))

    def capped(e, values):
        v = e.exact(*values)
        if v.denominator > _CAP or abs(v.numerator) > _CAP:
            raise OverflowError  # too large to settle here; the loop decides
        return v

    def undefined(xs) -> bool:
        """Whether exact evaluation at xs raises Undefined, in time linear
        in the DAG: it gives up, as False, on a value past _CAP."""
        try:
            _walk_dag(expr, lambda e: e.value if isinstance(e, Const) else xs[e.index], capped)
        except Undefined:
            return True
        except OverflowError:
            pass
        return False

    root = slot(_walk_dag(expr, leaf, node))
    return _plan_machine(steps, arity, root, f"plan({len(steps)} steps)", undefined)
