"""Shared helpers: seeded rational and expression sampling, and the
soundness harness."""

from __future__ import annotations

import random
from dataclasses import fields
from fractions import Fraction

from realcomp import (
    Add,
    Const,
    Max,
    Min,
    Mul,
    Neg,
    Query,
    Sub,
    Undefined,
    Var,
    apply,
    eval_expr,
    is_finite,
)
from realcomp.oracle import _OPERATORS

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


def soundness_violations(machine, expr, rng: random.Random, samples: int,
                         skip_undefined: bool = False) -> int:
    """Count query/point pairs violating the soundness inequality.

    The reference value is the exact rational evaluation of `expr`.  A
    finite answer covering a point where `expr` is undefined claims a
    value that does not exist, and counts as a violation unless
    `skip_undefined` restricts the check to the points where `expr` has a
    value.  The check is exact, so the expected count is always zero.
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
            violations += not skip_undefined
            continue
        if abs(value - answer.value) > answer.accuracy:
            violations += 1
    return violations
