"""Presentations of real numbers and the expression-to-machine compiler.

A real oracle presents a real number x as a pure mapping from a
requested tolerance to a rational within that tolerance of x.  Machines
applied to oracles yield new oracles, so computed reals compose; such a
real replays its schedule's steps, each run once (see apply_machine).

Real expressions are a small AST (constants, argument variables, exact
arithmetic, min/max, and the strict-positivity test) that compiles to
interval-query machines.  Each operator is defined once, as a class that
carries its spec symbol, exact rule and interval rule; parsing,
printing, evaluation and compilation all read that table.

Compiling, arity, exact evaluation and printing are each one loop over
the DAG's distinct subterms, operands first, which _postorder lists from
its own stack, so any depth works.  Compiling interns every step, so a
DAG whose subterms are shared (the tree of the logistic iterate k grows
as 2^k, its DAG as k) becomes a plan of at most one step per subterm.
A plan is a list of (interval rule, operand slots) steps, run once per
query by the plan runner of realcomp.machine; refinement feeds it values
directly, and only a public transition call converts a Query.
Linear operators (add, sub, neg, mul by a literal c != 0) are exact on
intervals, so each maximal linear region, cut at every subterm used more
than once, is one step c + sum a_i q_i, radius sum r_i t_i, that runs the
rule whose form it has ("x + 1" is the shift answering (q + 1, tol)), or
else the affine rule.  An operator of two literals is a step of its
constant, which its parent does not fold; "0 * x" is undefined wherever
x is.
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
    _Taped,
    _add_rule,
    _affine_rule,
    _chi_pos_rule,
    _const_rule,
    _max_rule,
    _min_rule,
    _mul_rule,
    _neg_rule,
    _plan_machine,
    _radd,
    _required,
    _rmul,
    _scale_rule,
    _shift_rule,
    _sub_from_rule,
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
    Each refine replays the steps that earlier ones ran (_Taped) before it
    runs more: answers are those of a fresh refine, and each step runs once.
    """
    if len(args) != machine.arity:
        raise ValueError(
            f"machine {machine.name!r} takes {machine.arity} argument(s), "
            f"got {len(args)}"
        )
    args = _Taped(args)
    memo: dict = {}

    def ask(tolerance: Fraction) -> Fraction:
        value = memo.get(tolerance)
        if value is None:
            value = memo[tolerance] = _required(refine(machine, args, tolerance, fuel)).value
        return value

    return RealOracle(ask, name=f"{machine.name}(...)")


# ---------------------------------------------------------------------------
# Expressions


class RealExpr:
    __slots__ = ()
    children = ()  # an operator's are its operands


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
    rationals, `rule` its interval rule (realcomp.machine) where it is not
    a weighted sum of its children, and the dataclass fields are its
    children.  `weights`, where it is one, holds one integer pair per child
    (a product is one only where an operand is a literal, see _linear).  A
    `partial` operator is never evaluated on literal operands: where its
    exact rule is undefined the machine must diverge, not fail to compile.
    """

    partial = False
    weights = None

    # Equality, hashing and repr are structural, as the dataclass ones
    # would be, but never recurse.  The children (the fields, just set in
    # order) are kept as a tuple and hashed once; repr prints an operator
    # object as "..." once it has printed it.
    def __post_init__(self):
        object.__setattr__(self, "children", kids := tuple(vars(self).values()))
        object.__setattr__(self, "_hash", hash((self.symbol, *kids)))

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
        parts, todo, shown = [], [self], set()
        while todo:
            e = todo.pop()
            if isinstance(e, str):
                parts.append(e)
            elif id(e) in shown:
                parts.append("...")
            elif isinstance(e, _Operator):
                shown.add(id(e))
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


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(_Operator):
    left: RealExpr
    right: RealExpr


def _chi_pos_exact(a: Fraction) -> Fraction:
    if a > 0:
        return Fraction(1)
    raise Undefined("chi-pos argument is not strictly positive")


class Add(_Binary):
    symbol = "add"
    exact = staticmethod(operator.add)
    weights = ((1, 1), (1, 1))


class Sub(_Binary):
    symbol = "sub"
    exact = staticmethod(operator.sub)
    weights = ((1, 1), (-1, 1))


class Mul(_Binary):
    symbol = "mul"
    exact = staticmethod(operator.mul)
    rule = staticmethod(_mul_rule)


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
    weights = ((-1, 1),)


class ChiPos(_Unary):
    symbol = "chi-pos"
    exact = staticmethod(_chi_pos_exact)
    rule = staticmethod(_chi_pos_rule)
    partial = True


_OPERATORS = (Add, Sub, Mul, Min, Max, Neg, ChiPos)  # the operator table


def _postorder(expr: RealExpr) -> tuple:
    """(subterms, shared): each distinct subterm object of expr once, after
    its operands (expr last), and the ids of those that are an operand more
    than once.  It keeps its own stack, so it walks any depth.  Operators
    come in the order a memoised left-to-right recursion finishes them."""
    order, shared, todo, done = [], set(), [expr], set()
    while todo:
        e = todo.pop()
        if e is None:  # the operator below it has its operands listed
            order.append(todo.pop())
            continue
        if (i := id(e)) in done:  # pushed by a second user before listed
            shared.add(i)
            continue
        done.add(i)
        todo.append(e)
        todo.append(None)
        for k in e.children[::-1]:
            if (j := id(k)) in done:
                shared.add(j)
            elif k.children:
                todo.append(k)
            else:  # a leaf is listed where it is met
                done.add(j)
                order.append(k)
    return order, shared


def _walk_dag(expr: RealExpr, leaf, node):
    """Fold expr bottom-up: leaf(e) at a Const or Var, node(e, operand
    values) at an operator, once per subterm object.  An operand used once
    hands its value to its user, so a deep tree keeps one path of values."""
    subterms, shared = _postorder(expr)
    values = {}
    for e in subterms:
        if e.children:
            v = node(e, [values[j] if (j := id(k)) in shared else values.pop(j)
                         for k in e.children])
        else:
            v = leaf(e)
        values[id(e)] = v
    return v


def _unbound(expr: RealExpr, given: str) -> ValueError:
    return ValueError(f"unbound variable: expression uses {expr_arity(expr)} argument(s), {given}")


def expr_arity(expr: RealExpr) -> int:
    """Smallest arity the expression is well-formed at (at least 1)."""
    return _walk_dag(
        expr,
        lambda e: e.index + 1 if isinstance(e, Var) else 1,
        lambda e, arities: max(1, *arities),
    )


def eval_expr(expr: RealExpr, xs: Sequence[Fraction]) -> Fraction:
    """Exact rational evaluation; raises Undefined on chi at a value <= 0,
    and ValueError where xs has too few values."""

    def leaf(e):
        if isinstance(e, Var) and e.index >= len(xs):
            raise _unbound(expr, f"got {len(xs)} value(s)")
        return e.value if isinstance(e, Const) else as_fraction(xs[e.index])

    return _walk_dag(expr, leaf, lambda e, values: e.exact(*values))


def _linear(e: _Operator):
    """(weights, operands) of the weighted sum e is, or None: an operator
    of literals is not one, and a product is one only where an operand is
    a literal c != 0, the weight of the other (0 * x is undefined where x is)."""
    kids = e.children
    if e.weights:
        return None if kids[0].__class__ is Const is kids[-1].__class__ else (e.weights, kids)
    if e.__class__ is Mul:
        c, x = kids if kids[0].__class__ is Const else kids[::-1]
        if c.__class__ is Const is not x.__class__ and c.value:
            return (c.value.as_integer_ratio(),), (x,)


def _affine(c: tuple, terms: dict) -> tuple:
    """(rule, parameters, operands) of the step c + sum a_i q_i, radius
    sum r_i t_i, for terms {slot i: (an, ad, rn, rd)}: a shift, c - x,
    neg, scale, add or sub where the form is theirs, as a lone operator's
    is, and the affine rule otherwise."""
    slots, coefficients = tuple(terms), tuple(terms.values())
    if len(slots) == 1:
        (an, ad, rn, rd), = coefficients
        if an * an == ad == rn == rd == 1:
            if an == 1 or c[0]:
                return _shift_rule if an == 1 else _sub_from_rule, (c,), slots
            return _neg_rule, (), slots
        if not c[0] and (rn, rd) == (abs(an), ad):
            return _scale_rule, ((an, ad),), slots
    elif len(slots) == 2 and not c[0] and coefficients[0] == (1, 1, 1, 1):
        if coefficients[1] in ((1, 1, 1, 1), (-1, 1, 1, 1)):
            return _add_rule if coefficients[1][0] == 1 else _sub_rule, (), slots
    return _affine_rule, (c, coefficients), slots


def expr_to_machine(expr: RealExpr, arity: int) -> IntervalMachine:
    """Compile an expression to a sound machine of the given arity.

    Takes time linear in the expression DAG: shared subterms, and
    structurally equal ones, are compiled and evaluated once.  Slots
    0 .. arity-1 hold the query's components; step i fills slot arity + i
    by applying its rule to the values in its operand slots.  The loop
    takes a Var to its slot, a Const to itself (else a const step), and a
    linear operator used once to its (weights, operands), pending; what
    takes it (a non-linear operator, a second use, the root) flattens each
    maximal linear region from its root to one step c + sum a_i q_i (see
    _affine), a_i the signed sum of the weight products over the paths to
    slot i and r_i the sum of their absolute values.  Steps are interned on
    (rule, literal parameters as integer pairs, operand slots), so
    structurally equal subterms share one slot.
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    subterms, shared = _postorder(expr)
    steps, interned, everything, seen = [], {}, tuple(range(arity)), {}

    def step(rule, params: tuple, operands: tuple) -> int:
        key = (rule, params, operands)
        slot = interned.get(key)
        if slot is None:
            slot = interned[key] = arity + len(steps)
            steps.append((partial(rule, *params) if params else rule, operands))
        return slot

    def slot(v) -> int:  # of a subterm's value: a slot, a Const or a pending region
        if v.__class__ is Const:
            return step(_const_rule, (v.value.as_integer_ratio(),), everything)
        if v.__class__ is not tuple:
            return v
        c, terms, todo = (0, 1), {}, [((1, 1), v)]  # the region, from its root
        for w, (weights, kids) in todo:
            for u, k in zip(weights, kids):
                u = u if w == (1, 1) else _rmul(*w, *u)
                if (k := seen[id(k)]).__class__ is tuple:
                    todo.append((u, k))
                elif k.__class__ is Const:
                    k = k.value.as_integer_ratio()
                    c = _radd(*c, *(k if u == (1, 1) else _rmul(*u, *k)))
                elif (t := terms.get(k)) is None:
                    terms[k] = (*u, abs(u[0]), u[1])
                else:
                    terms[k] = (*_radd(t[0], t[1], *u), *_radd(t[2], t[3], abs(u[0]), u[1]))
        return step(*_affine(c, terms))

    for e in subterms:
        if e.__class__ is Const:
            v = e
        elif e.__class__ is Var:
            if e.index >= arity:
                raise _unbound(expr, f"declared arity is {arity}")
            v = e.index
        elif (v := _linear(e)) is not None:
            if id(e) in shared:
                v = slot(v)
        else:
            kids = [seen[id(k)] for k in e.children]
            if kids[0].__class__ is Const is kids[-1].__class__ and not e.partial:
                v = slot(Const(e.exact(*[kid.value for kid in kids])))
            else:
                v = step(e.rule, (), tuple(map(slot, kids)))
        seen[id(e)] = v
    root = slot(seen[id(expr)])

    def undefined(xs) -> bool:
        """Whether eval_expr at xs raises Undefined: each step run once at
        radius 0, where rules are exact and chi-pos answers INF just at an
        operand <= 0; linear in the plan, as it gives up (False) past _CAP."""
        vals = [(x.numerator, x.denominator, 0, 1) for x in xs]
        for rule, ks in steps:
            qn, qd, _, td = value = rule(*[vals[k] for k in ks])
            if not td:
                return True
            if qd > _CAP or abs(qn) > _CAP:
                return False
            vals.append(value)
        return False

    return _plan_machine(steps, arity, root, f"plan({len(steps)} steps)", undefined)
