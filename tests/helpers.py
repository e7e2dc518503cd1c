"""Shared helpers: seeded rational and expression sampling, the
soundness harness, the catalog-tree reference compilers (by linear
region, as plans are compiled, and by operator), a counter of the plan
runner's ball roundings, the interval rules restated on Fractions, and
the interpreter's int-to-string digit limit."""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from functools import partial

from realcomp import (
    INF,
    Add,
    ChiPos,
    Const,
    Max,
    Min,
    Mul,
    Neg,
    Query,
    Sub,
    Undefined,
    Var,
    add_machine,
    apply,
    chi_pos,
    compose,
    const_machine,
    eval_expr,
    is_finite,
    max_machine,
    min_machine,
    mul_machine,
    neg_machine,
    proj,
    scale_machine,
    shift_machine,
    sub_machine,
)
from realcomp import machine as _machine
from realcomp.oracle import _OPERATORS

# The interpreter's int-to-string digit limit, 0 where there is none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# The operator table with mul five times over: products double the bits
# of their operands, so DAGs over it reach the plan runner's rounding.
MUL_HEAVY = _OPERATORS + (Mul,) * 4

# Machines with exact rational reference functions, as (name, expression)
# pairs; compiled machines must satisfy the soundness inequality against
# exact evaluation of the expression.
SOUNDNESS_CATALOG = [
    ("identity", Var(0)),
    ("neg", Neg(Var(0))),
    ("shift", Add(Var(0), Const(1))),
    ("scale", Mul(Const(2), Var(0))),
    ("const", Const(Fraction(7, 3))),
    ("add", Add(Var(0), Var(1))),
    ("sub", Sub(Var(0), Var(1))),
    ("mul", Mul(Var(0), Var(1))),
    ("min", Min(Var(0), Var(1))),
    ("max", Max(Var(0), Var(1))),
    ("band-product", Mul(Sub(Add(Var(0), Const(1)), Var(1)), Sub(Var(1), Var(0)))),
    ("nested", Min(Var(0), Max(Var(1), Mul(Var(0), Var(1))))),
]


def rand_fraction(rng: random.Random, num_bound: int = 12, den_bound: int = 12) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_positive(rng: random.Random, num_bound: int = 4, den_bound: int = 12) -> Fraction:
    return Fraction(rng.randint(1, num_bound), rng.randint(1, den_bound))


def rand_query(rng: random.Random, arity: int) -> Query:
    return Query(
        tuple((rand_fraction(rng), rand_positive(rng)) for _ in range(arity))
    )


def point_in_box(rng: random.Random, query: Query) -> list:
    """A rational point consistent with the query, component by component."""
    return [
        q + tol * Fraction(rng.randint(-16, 16), 16)
        for q, tol in query.components
    ]


def random_expr(rng: random.Random, depth: int, arity: int = 1):
    """A random expression over both leaf kinds and every table operator."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(rand_fraction(rng, 6, 6))
        return Var(rng.randrange(arity))
    op = rng.choice(_OPERATORS)
    return op(*[random_expr(rng, depth - 1, arity) for _ in fields(op)])


def random_dag(rng: random.Random, nodes: int, arity: int = 1, ops=_OPERATORS):
    """A random expression DAG over the operators `ops`, by default the
    whole table.

    Each operator node takes its operands from the nodes built before it,
    mostly the latest few, so subterms are shared and nest.  Some nodes
    are also rebuilt as equal but distinct objects.
    """
    pool = [Var(i) for i in range(arity)]
    pool += [Const(rand_fraction(rng, 6, 6)) for _ in range(2)]
    for _ in range(nodes):
        op = rng.choice(ops)
        kids = [rng.choice(pool[-4:] if rng.random() < 0.7 else pool)
                for _ in fields(op)]
        pool.append(op(*kids))
        if rng.random() < 0.2:
            pool.append(op(*kids))
    return pool[-1]


_CATALOG = {
    Add: add_machine,
    Sub: sub_machine,
    Mul: mul_machine,
    Min: min_machine,
    Max: max_machine,
    Neg: neg_machine,
    ChiPos: chi_pos,
}


def operand_uses(expr) -> Counter:
    """How often each operator object is an operand in the DAG, by id."""
    uses, todo = Counter(), [expr]
    while todo:
        for kid in getattr(todo.pop(), "children", ()):
            uses[id(kid)] += 1
            if uses[id(kid)] == 1:
                todo.append(kid)
    return uses


def weighted_operands(expr):
    """The (weight, operand) pairs of expr as a weighted sum, or None where
    it is not one: a leaf, an operator of literals (a constant), and a
    product without a nonzero literal factor (0 * x stays a mul)."""
    kids = getattr(expr, "children", ())
    if all(isinstance(kid, Const) for kid in kids):
        return None
    if isinstance(expr, Add):
        return [(1, kids[0]), (1, kids[1])]
    if isinstance(expr, Sub):
        return [(1, kids[0]), (-1, kids[1])]
    if isinstance(expr, Neg):
        return [(-1, kids[0])]
    if isinstance(expr, Mul):
        for c, other in (kids, kids[::-1]):
            if isinstance(c, Const) and c.value:
                return [(c.value, other)]
    return None


def linear_region(expr, uses):
    """(c, {operand: (a, r)}, operators) of the linear region rooted at
    expr, summed over the tree: a subterm that is an operand more than
    once is an operand of the region, not part of it."""
    c, terms, operators, todo = Fraction(0), {}, 0, [(1, expr)]
    while todo:
        weight, e = todo.pop()
        operators += 1
        for w, kid in weighted_operands(e):
            w *= weight
            if isinstance(kid, Const):
                c += w * kid.value
            elif uses[id(kid)] == 1 and weighted_operands(kid) is not None:
                todo.append((w, kid))
            else:
                a, r = terms.get(kid, (0, 0))
                terms[kid] = (a + w, r + abs(w))
    return c, terms, operators


def reference_machine(expr, arity: int, uses=None):
    """expr as a tree of catalog machines joined by `compose`.

    Each linear region (add, sub, neg and scaling by a nonzero literal,
    cut at a subterm that is an operand more than once) is one machine,
    as in `expr_to_machine`.  A lone operator is its catalog machine,
    with x + c and x - c a shift, c - x the rule of that name and c * x a
    scale; a larger region is the affine machine of the region's form,
    found here by summing over the tree.  A total operator of two literals is a
    constant.  A shared subterm is built once per use.
    """
    uses = operand_uses(expr) if uses is None else uses
    if isinstance(expr, Const):
        return const_machine(expr.value, arity)
    if isinstance(expr, Var):
        return proj(expr.index, arity)
    kids = expr.children
    lc, rc = isinstance(kids[0], Const), isinstance(kids[-1], Const)
    if lc and rc and not isinstance(expr, ChiPos):
        return const_machine(eval_expr(expr, ()), arity)
    if weighted_operands(expr) is None:
        return compose(_CATALOG[type(expr)](),
                       [reference_machine(kid, arity, uses) for kid in kids])
    c, terms, operators = linear_region(expr, uses)
    if operators == 1:
        if not (lc or rc):
            return compose(_CATALOG[type(expr)](),
                           [reference_machine(kid, arity, uses) for kid in kids])
        literal, other = (kids[0].value, kids[1]) if lc else (kids[1].value, kids[0])
        if isinstance(expr, Mul):
            outer = scale_machine(literal)
        elif isinstance(expr, Sub) and lc:
            outer = _machine._rule_machine(
                partial(_machine._sub_from_rule, c.as_integer_ratio()), 1, "sub-from")
        else:
            outer = shift_machine(c)
        return compose(outer, [reference_machine(other, arity, uses)])
    coefficients = tuple((*a.as_integer_ratio(), *r.as_integer_ratio())
                         for a, r in terms.values())
    affine = partial(_machine._affine_rule, c.as_integer_ratio(), coefficients)
    return compose(_machine._rule_machine(affine, len(terms), "affine"),
                   [reference_machine(kid, arity, uses) for kid in terms])


def unfused_machine(expr, arity: int):
    """expr as a tree of catalog machines joined by `compose`, one per
    operator: x + c and x - c are shifts, c - x the shift of the negation,
    c * x a scale unless c is 0, and a total operator of two literals is
    a constant.  A shared subterm is built once per use."""
    if isinstance(expr, Const):
        return const_machine(expr.value, arity)
    if isinstance(expr, Var):
        return proj(expr.index, arity)
    kids = expr.children
    lc, rc = isinstance(kids[0], Const), isinstance(kids[-1], Const)
    if lc and rc and not isinstance(expr, ChiPos):
        return const_machine(eval_expr(expr, ()), arity)
    if (lc or rc) and isinstance(expr, (Add, Sub, Mul)):
        c, other = (kids[0].value, kids[1]) if lc else (kids[1].value, kids[0])
        inner = unfused_machine(other, arity)
        if isinstance(expr, Add):
            return compose(shift_machine(c), [inner])
        if isinstance(expr, Sub) and lc:
            return compose(shift_machine(c), [compose(neg_machine(), [inner])])
        if isinstance(expr, Sub):
            return compose(shift_machine(-c), [inner])
        if c != 0:
            return compose(scale_machine(c), [inner])
    return compose(_CATALOG[type(expr)](), [unfused_machine(kid, arity) for kid in kids])


def count_roundings(monkeypatch) -> list:
    """Count the plan runner's ball roundings from now on: returns a
    one-element list that each call of machine._round_ball increments."""
    calls = [0]
    round_ball = _machine._round_ball

    def counted(value, e):
        calls[0] += 1
        return round_ball(value, e)

    monkeypatch.setattr(_machine, "_round_ball", counted)
    return calls


def soundness_violations(machine, expr, rng: random.Random, samples: int) -> int:
    """Count query/point pairs violating the soundness inequality.

    The reference value is the exact rational evaluation of `expr`.  A
    finite answer covering a point where `expr` is undefined claims a
    value that does not exist, and counts as a violation.  The check is
    exact, so the expected count is always zero.
    """
    violations = 0
    for _ in range(samples):
        query = rand_query(rng, machine.arity)
        answer = apply(machine, query)
        if not is_finite(answer.accuracy):
            continue
        xs = point_in_box(rng, query)
        try:
            value = eval_expr(expr, xs)
        except Undefined:
            violations += 1
            continue
        if abs(value - answer.value) > answer.accuracy:
            violations += 1
    return violations


# The interval rules on Fractions, written as plain rational formulas and
# independent of the integer-pair kernel in realcomp.machine, which must
# agree with them exactly.  Each maps (approximation, accuracy) pairs to a
# pair; literal parameters come first.


def _fraction_endpointwise(pick):
    def rule(x, y):
        (q1, t1), (q2, t2) = x, y
        lo = pick(q1 - t1, q2 - t2)
        hi = pick(q1 + t1, q2 + t2)
        return (lo + hi) / 2, (hi - lo) / 2

    return rule


FRACTION_RULES = {
    "const": lambda value, *args: (value, min(tol for _, tol in args)),
    "shift": lambda offset, x: (x[0] + offset, x[1]),
    "scale": lambda factor, x: (factor * x[0], abs(factor) * x[1]),
    "neg": lambda x: (-x[0], x[1]),
    "add": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "sub": lambda x, y: (x[0] - y[0], x[1] + y[1]),
    "mul": lambda x, y: (x[0] * y[0], abs(x[0]) * y[1] + abs(y[0]) * x[1] + x[1] * y[1]),
    "min": _fraction_endpointwise(min),
    "max": _fraction_endpointwise(max),
    "chi-pos": lambda x: (Fraction(1), x[1] if x[0] - x[1] > 0 else INF),
    "sub-from": lambda c, x: (c - x[0], x[1]),
    "affine": lambda c, coefficients, *xs: (
        c + sum(a * x[0] for (a, _), x in zip(coefficients, xs)),
        sum(r * x[1] for (_, r), x in zip(coefficients, xs))),
}
