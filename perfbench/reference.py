"""Seeded inputs and exact reference answers, computed without realcomp.

Nothing here imports realcomp.  Every answer the benchmark checks is
derived in plain ``Fraction`` arithmetic: expression values, logistic
iterates, the band predicate, the natural-number relations and the
splitmix64 stream with inverse-CDF branch selection that realcomp.prob
documents.

Expressions are nested tuples:
``("var", k)``, ``("rat", Fraction)``, ``("neg", a)``, ``("chi", a)`` and
``(op, a, b)`` for op in add, sub, mul, min, max.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": min,
    "max": max,
}
UNARY = ("neg", "chi")
SPEC_HEAD = {"chi": "chi-pos"}

LOGISTIC_R = Fraction(15, 4)


class Undefined(Exception):
    """The expression has no value at the point (chi-pos of a value <= 0)."""


def evaluate(expr, xs):
    """Exact value of a tuple expression at the rational point xs."""
    head = expr[0]
    if head == "var":
        return xs[expr[1]]
    if head == "rat":
        return expr[1]
    if head == "neg":
        return -evaluate(expr[1], xs)
    if head == "chi":
        if evaluate(expr[1], xs) > 0:
            return Fraction(1)
        raise Undefined
    return BINARY[head](evaluate(expr[1], xs), evaluate(expr[2], xs))


def defined_at(expr, xs) -> bool:
    try:
        evaluate(expr, xs)
    except Undefined:
        return False
    return True


def render(expr) -> str:
    """Spec-language text of a tuple expression."""
    head = expr[0]
    if head == "var":
        return f"(var {expr[1]})"
    if head == "rat":
        return f"(rat {expr[1].numerator} {expr[1].denominator})"
    args = " ".join(render(child) for child in expr[1:])
    return f"({SPEC_HEAD.get(head, head)} {args})"


def small_rational(rng: random.Random, num: int = 4, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_expr(rng: random.Random, nodes: int, arity: int):
    """A random expression of exactly `nodes` nodes over vars < arity.

    chi-pos may wrap any operand; `guard_chi` then makes the expression
    defined at the point the benchmark evaluates it.
    """
    if nodes == 1:
        if rng.random() < 0.6:
            return ("var", rng.randrange(arity))
        return ("rat", small_rational(rng))
    if nodes == 2:
        return ("neg", random_expr(rng, 1, arity))
    if rng.random() < 0.12:
        return (rng.choice(UNARY), random_expr(rng, nodes - 1, arity))
    op = rng.choices(list(BINARY), weights=(3, 3, 2, 1, 1))[0]
    left = rng.randint(1, nodes - 2)
    return (op, random_expr(rng, left, arity), random_expr(rng, nodes - 1 - left, arity))


def guard_chi(expr, xs, margin=Fraction(1, 8)):
    """Rewrite every chi-pos whose operand is not above `margin` at xs.

    An operand below -margin is negated; one within the margin loses its
    chi-pos.  The result is defined at xs and every chi-pos settles after
    a few refinement steps.
    """
    head = expr[0]
    if head in ("var", "rat"):
        return expr
    children = tuple(guard_chi(child, xs, margin) for child in expr[1:])
    if head != "chi":
        return (head,) + children
    inner = children[0]
    value = evaluate(inner, xs)
    if value > margin:
        return ("chi", inner)
    if value < -margin:
        return ("chi", ("neg", inner))
    return inner


def add_chain(rng: random.Random, depth: int, arity: int):
    """A right-nested chain of `depth` add nodes over random leaves."""
    leaves = [
        ("var", rng.randrange(arity)) if rng.random() < 0.75 else ("rat", small_rational(rng))
        for _ in range(depth + 1)
    ]
    expr = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        expr = ("add", leaf, expr)
    return expr


def logistic(x0: Fraction, k: int) -> Fraction:
    """k iterates of x -> 15/4 x (1 - x)."""
    x = x0
    for _ in range(k):
        x = LOGISTIC_R * x * (1 - x)
    return x


# The band relation x < y < x + 1 as a positivity test.
BAND = ("chi", ("mul", ("sub", ("add", ("var", 0), ("rat", Fraction(1))), ("var", 1)),
                ("sub", ("var", 1), ("var", 0))))


def in_band(x: Fraction, y: Fraction) -> bool:
    return x < y < x + 1


# ---------------------------------------------------------------------------
# splitmix64 and inverse-CDF selection, as documented in realcomp.prob

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(seed: int):
    """The stream of 64-bit outputs for a seed."""
    state = seed & _MASK
    while True:
        state = (state + _GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def selections(masses, seed: int, n: int) -> list:
    """Branch indices of the first n draws: u = k/2^64 falls in [C(i-1), C(i))."""
    den = lcm(*(m.denominator for m in masses))
    # u < C_i  <=>  k * den < (C_i * den) * 2^64, all in integers
    bounds = []
    total = 0
    for m in masses:
        total += m.numerator * (den // m.denominator)
        bounds.append(total << 64)
    stream = splitmix64(seed)
    picks = []
    for _ in range(n):
        k = next(stream) * den
        i = 0
        while k >= bounds[i]:
            i += 1
        picks.append(i)
    return picks


def random_masses(rng: random.Random, count: int) -> list:
    weights = [rng.randint(1, 9) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


# ---------------------------------------------------------------------------
# Relations over the naturals


def nat_char(name: str, x: int, y: int) -> bool:
    if name == "equality":
        return x == y
    if name == "divisibility":
        return y % x == 0 if x else y == 0
    if name == "geq":
        return y >= x
    raise KeyError(name)


def natrel_expected(name: str, bound: int, fuel: int) -> dict:
    """The round-trip report a correct implementation gives.

    A related pair (x, y) is accepted at the first search slot that
    encodes (y, 0), the Cantor pair y (y + 1) / 2; it is missed when that
    slot lies beyond the fuel.  Unrelated pairs are never accepted.  The
    report carries the largest accepting slot.
    """
    slots = [y * (y + 1) // 2 for x in range(bound + 1) for y in range(bound + 1)
             if nat_char(name, x, y)]
    accepted = [s for s in slots if s <= fuel]
    total = (bound + 1) ** 2
    missed = len(slots) - len(accepted)
    return {
        "total": total,
        "agreements": total - missed,
        "false_accepts": 0,
        "missed_positives": missed,
        "max_fuel_on_positives": max(accepted) if accepted else None,
    }
