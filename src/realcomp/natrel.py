"""Relations over the naturals: decision, semi-decision, enumeration.

Three representations of a relation R between naturals, and executable
conversions between them:

* decidable: a total characteristic function valued in {0, 1};
* semi-decidable: a fuel-indexed program halting with 1 exactly on
  related pairs and running forever otherwise;
* effectively enumerable: a total function enumerate(x, j) listing, over
  all j, exactly the y related to x (with a FAIL sentinel for slots that
  produce nothing).

Partial computation is modeled by fuel indexing: run(args, fuel) either
halts with a value or reports it is still running, and halting is
monotone in fuel.  That is exactly the "first i steps" view the
conversions need, with no machine code committed to.  Enumeration slots
are Cantor-paired (y, i), and pair is inverted in closed form both ways:
unpair for a slot, _max_index_within for the last slot of a y in fuel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional, Union

__all__ = [
    "FAIL",
    "FueledProgram",
    "DecidableNatRel",
    "SemiDecidableNatRel",
    "EnumerableNatRel",
    "pair",
    "unpair",
    "dec_to_semi",
    "semi_to_enum",
    "semi_to_enum_nonempty",
    "enum_to_semi",
    "EquivalenceReport",
    "equivalence_report",
    "relation_by_name",
]


class _Fail:
    """Sentinel for enumeration slots that produce no element.

    A distinguished object, not a reserved natural, so it can never
    collide with data.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAIL"


FAIL = _Fail()


@dataclass(frozen=True)
class FueledProgram:
    """run(args, fuel) -> halting value, or None while still running.

    Contract: deterministic, and monotone in fuel (halting with v at fuel
    f implies halting with v at every fuel >= f).
    """

    run: Callable[[tuple, int], Optional[int]]
    name: str = "program"


@dataclass(frozen=True)
class DecidableNatRel:
    """A relation with a total {0,1}-valued characteristic function."""

    char_fn: Callable[[int, int], int]
    name: str = "relation"


@dataclass(frozen=True)
class SemiDecidableNatRel:
    """A relation whose partial characteristic function is computable.

    The program takes (x, y) and its only halting value is 1.
    """

    program: FueledProgram
    name: str = "relation"


@dataclass(frozen=True)
class EnumerableNatRel:
    """A relation given by a total enumerator of each row's elements."""

    enumerate_fn: Callable[[int, int], Union[int, _Fail]]
    name: str = "relation"

    def enumerate(self, x: int, j: int) -> Union[int, _Fail]:
        return self.enumerate_fn(x, j)


def pair(a: int, b: int) -> int:
    """Cantor pairing (a+b)(a+b+1)/2 + b: a bijection N x N -> N."""
    if a < 0 or b < 0:
        raise ValueError("pairing is defined on naturals")
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple:
    """Exact inverse of pair."""
    if n < 0:
        raise ValueError("unpairing is defined on naturals")
    s = (isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


def dec_to_semi(rel: DecidableNatRel) -> SemiDecidableNatRel:
    """Semi-decide a decidable relation.

    Composing the characteristic function with the partial map sending 1
    to 1 and undefined at 0 halts exactly on related pairs; unrelated
    pairs are still running at every fuel.
    """
    char = rel.char_fn

    def run(args: tuple, fuel: int) -> Optional[int]:
        x, y = args
        return 1 if char(x, y) == 1 else None

    return SemiDecidableNatRel(
        FueledProgram(run, name=f"semi({rel.name})"), name=rel.name
    )


def semi_to_enum(rel: SemiDecidableNatRel) -> EnumerableNatRel:
    """Enumerate a semi-decidable relation by dovetailing.

    Slot j encodes a pair (y, i); the slot produces y exactly when the
    semi-decision program for (x, y) halts within i steps, and produces
    FAIL otherwise.  Every related y eventually appears because its
    program halts at some finite fuel.  FAIL is an object, never a
    natural, so it cannot collide with data.
    """
    run = rel.program.run

    def enumerate_fn(x: int, j: int):
        y, i = unpair(j)
        return y if run((x, y), i) == 1 else FAIL

    return EnumerableNatRel(enumerate_fn, name=rel.name)


def semi_to_enum_nonempty(
    rel: SemiDecidableNatRel, default: Callable[[int], int]
) -> EnumerableNatRel:
    """FAIL-free enumeration when every row is known to be nonempty.

    `default` must map x to some element related to x; slots that would
    FAIL produce default(x) instead, so the enumeration is total onto the
    row.  The default's contract is the caller's to guarantee (the test
    suite samples it against the semi-decision); it is not re-checked at
    runtime.
    """
    dovetail = semi_to_enum(rel).enumerate_fn

    def enumerate_fn(x: int, j: int) -> int:
        y = dovetail(x, j)
        return default(x) if y is FAIL else y

    return EnumerableNatRel(enumerate_fn, name=f"{rel.name}-nonempty")


def enum_to_semi(rel: EnumerableNatRel) -> SemiDecidableNatRel:
    """Semi-decide an enumerable relation by sequential search.

    At fuel f the program computes slots 0..f and halts with 1 as soon as
    one of them produces exactly y.  Equality of naturals is decidable,
    which is what makes this direction work.
    """
    enumerate_fn = rel.enumerate_fn

    def run(args: tuple, fuel: int) -> Optional[int]:
        x, y = args
        for j in range(fuel + 1):
            if enumerate_fn(x, j) == y:
                return 1
        return None

    return SemiDecidableNatRel(
        FueledProgram(run, name=f"search({rel.name})"), name=rel.name
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the decide -> semi-decide -> enumerate -> search round trip."""

    relation: str
    bound: int
    fuel: int
    total: int
    agreements: int
    false_accepts: int
    missed_positives: int
    max_fuel_on_positives: Optional[int]

    @property
    def ok(self) -> bool:
        return self.agreements == self.total

    def summary(self) -> str:
        if self.ok:
            return f"OK {self.agreements}/{self.total}"
        return (
            f"FAIL agree={self.agreements}/{self.total} "
            f"false_accepts={self.false_accepts} missed={self.missed_positives}"
        )


def _max_index_within(y: int, fuel: int) -> Optional[int]:
    """Largest i with pair(y, i) <= fuel, or None if even i=0 is too big.

    With s = y + i, pair(y, i) = (s^2 + 3s)/2 - y, so pair(y, i) <= fuel
    iff (2s + 3)^2 <= 9 + 8(fuel + y): a closed form, as unpair is.
    """
    i = (isqrt(9 + 8 * (fuel + y)) - 3) // 2 - y
    return i if i >= 0 else None


def equivalence_report(
    rel: DecidableNatRel, bound: int, fuel: int
) -> EquivalenceReport:
    """Check the round trip on every pair with both coordinates <= bound.

    Builds enum = semi_to_enum(dec_to_semi(rel)) and checks, for every
    pair (x, y) in the square, that char(x, y) = 1 iff the search program
    enum_to_semi(enum) halts with 1 on (x, y) within fuel.  That program
    halts on (x, y) at fuel f exactly when some slot j <= f of row x
    produces y, so the report runs each row's search once instead of once
    per pair: it computes row x's slots j = 0, 1, ... in order, and the
    first slot that produces a related y is that pair's least accepting
    fuel.  The scan stops once every related y of the row has been seen,
    or past the budget, where the related y still unseen are missed.

    A negative pair would cost a full fuel-length scan to reject; instead
    the decisive slot for y, pair(y, i) with i the largest step count the
    budget can encode for y, is probed once.  Slots for y at smaller step
    counts produce y only if this one does (halting is monotone in fuel),
    so the probe is exactly the scan's outcome.  It is also the only
    check that catches a construction producing y on an unrelated pair,
    such as a semi-decision that halts everywhere.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if fuel < 0:
        raise ValueError(f"fuel must be >= 0, got {fuel}")
    enumerate_fn = semi_to_enum(dec_to_semi(rel)).enumerate_fn
    decisive = [_max_index_within(y, fuel) for y in range(bound + 1)]

    agreements = 0
    false_accepts = 0
    missed_positives = 0
    max_fuel: Optional[int] = None
    total = (bound + 1) ** 2

    for x in range(bound + 1):
        unseen = set()
        for y, i_max in enumerate(decisive):
            if rel.char_fn(x, y) == 1:
                unseen.add(y)
            elif i_max is not None and enumerate_fn(x, pair(y, i_max)) == y:
                false_accepts += 1
            else:
                agreements += 1
        j = 0
        while unseen and j <= fuel:
            y = enumerate_fn(x, j)
            if y in unseen:
                unseen.remove(y)
                agreements += 1
                if max_fuel is None or j > max_fuel:
                    max_fuel = j
            j += 1
        missed_positives += len(unseen)

    return EquivalenceReport(
        relation=rel.name,
        bound=bound,
        fuel=fuel,
        total=total,
        agreements=agreements,
        false_accepts=false_accepts,
        missed_positives=missed_positives,
        max_fuel_on_positives=max_fuel,
    )


# ---------------------------------------------------------------------------
# Built-in relations


def _equality() -> DecidableNatRel:
    return DecidableNatRel(lambda x, y: 1 if x == y else 0, name="equality")


def _divisibility() -> DecidableNatRel:
    # x divides y; 0 divides only 0
    def char(x: int, y: int) -> int:
        if x == 0:
            return 1 if y == 0 else 0
        return 1 if y % x == 0 else 0

    return DecidableNatRel(char, name="divisibility")


def _geq() -> DecidableNatRel:
    return DecidableNatRel(lambda x, y: 1 if y >= x else 0, name="geq")


RELATION_CATALOG = {
    "equality": _equality,
    "divisibility": _divisibility,
    "geq": _geq,
}


def relation_by_name(name: str) -> DecidableNatRel:
    try:
        return RELATION_CATALOG[name]()
    except KeyError:
        raise ValueError(
            f"unknown relation {name!r}; choose from {sorted(RELATION_CATALOG)}"
        ) from None
