"""Effectively enumerable relations over the reals.

A relation R relates x to every value of an indexed family of machines
at x: x R y iff y = f(x, i) for some index i drawn from an index set.
This representation is strictly more expressive than (partial)
characteristic functions over the reals, which cannot even represent
the identity relation; it is the representation every other module
builds on for nondeterminism.

Membership is only semi-decidable from the positive side: member_semi
can certify "related" by exhibiting an index, but exhausting a finite
window is never a refutation, because equality of reals cannot be
decided from finite-accuracy answers.

enumerate_witnesses and member_semi refine each distinct branch machine
once per call: every tail index of a (tail ...) relation, and every
index of a lifted function, reuses one refinement.  Refinement is pure,
so the reuse is invisible, like the oracle memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .machine import (
    Answer,
    Converged,
    IntervalMachine,
    NoConvergence,
    Query,
    apply,
    refine,
)
from .natrel import FAIL, _Fail
from .oracle import RealExpr, RealOracle, expr_to_machine
from .rational import _positive, as_fraction

__all__ = [
    "IndexSet",
    "NATURALS",
    "RealEnumRel",
    "WitnessEntry",
    "WitnessList",
    "make_tail_rel",
    "make_finite_rel",
    "from_function",
    "project",
    "witness",
    "enumerate_witnesses",
    "member_semi",
    "cluster_values",
]


@dataclass(frozen=True)
class IndexSet:
    """Either a finite index set {0..size-1} or all of the naturals."""

    size: Optional[int]  # None means the naturals

    def __post_init__(self):
        if self.size is not None and self.size < 1:
            raise ValueError(f"finite index set needs size >= 1, got {self.size}")

    @classmethod
    def finite(cls, n: int) -> "IndexSet":
        return cls(n)

    @classmethod
    def naturals(cls) -> "IndexSet":
        return cls(None)

    def contains(self, i: int) -> bool:
        return i >= 0 and (self.size is None or i < self.size)

    def clip(self, max_index: int) -> int:
        """Largest usable index not above max_index."""
        if self.size is None:
            return max_index
        return min(max_index, self.size - 1)


NATURALS = IndexSet.naturals()


@dataclass(frozen=True)
class RealEnumRel:
    """An index set plus one interval-query machine per index in use.

    slice_fn returns the machine for an index, or None when the index is
    not in use; family() exposes the raw (query, index) -> answer-or-FAIL
    view.
    """

    omega: IndexSet
    slice_fn: Callable[[int], Optional[IntervalMachine]]
    name: str = "relation"

    def slice(self, i: int) -> Optional[IntervalMachine]:
        if not self.omega.contains(i):
            return None
        return self.slice_fn(i)

    def family(self, query: Query, i: int) -> Union[Answer, _Fail]:
        machine = self.slice(i)
        if machine is None:
            return FAIL
        return apply(machine, query)


def make_tail_rel(
    head_branches: Sequence[RealExpr], tail_branch: RealExpr
) -> RealEnumRel:
    """Relation over the naturals: listed head branches, then a tail.

    Index i selects head_branches[i] while it lasts; every larger index
    selects tail_branch.  All branches are one-argument expressions.
    """
    heads = tuple(expr_to_machine(e, 1) for e in head_branches)
    tail = expr_to_machine(tail_branch, 1)

    def slice_fn(i: int) -> IntervalMachine:
        return heads[i] if i < len(heads) else tail

    return RealEnumRel(NATURALS, slice_fn, name=f"tail[{len(heads)}]")


def make_finite_rel(branches: Sequence[RealExpr]) -> RealEnumRel:
    """Relation with finitely many branches, one per index."""
    machines = tuple(expr_to_machine(e, 1) for e in branches)
    if not machines:
        raise ValueError("a finite relation needs at least one branch")
    return RealEnumRel(
        IndexSet.finite(len(machines)),
        lambda i: machines[i],
        name=f"finite[{len(machines)}]",
    )


def from_function(machine: IntervalMachine) -> RealEnumRel:
    """Lift a one-argument machine to the relation where every index computes it."""
    if machine.arity != 1:
        raise ValueError("only one-argument machines lift to relations")
    return RealEnumRel(NATURALS, lambda i: machine, name=f"graph({machine.name})")


def project(rel: RealEnumRel, i0: int) -> IntervalMachine:
    """The i0-th slice as a standalone machine; a functional relation
    projects back to the function it lifts, whatever the index."""
    machine = rel.slice(i0)
    if machine is None:
        raise ValueError(f"index {i0} is not in use in {rel.name!r}")
    return machine


@dataclass(frozen=True)
class WitnessEntry:
    index: int
    value: Fraction
    accuracy: Fraction


def witness(
    rel: RealEnumRel,
    x: RealOracle,
    i: int,
    accuracy,
    fuel: int,
) -> Union[WitnessEntry, _Fail, NoConvergence]:
    """Refine the i-th branch at x to the requested accuracy."""
    machine = rel.slice(i)
    if machine is None:
        return FAIL
    outcome = refine(machine, [x], accuracy, fuel)
    if isinstance(outcome, Converged):
        return WitnessEntry(i, outcome.value, outcome.accuracy)
    return outcome


@dataclass(frozen=True)
class WitnessList:
    entries: tuple
    skipped: tuple  # indices that FAILed or did not converge


def _window(rel: RealEnumRel, max_index: int) -> range:
    """Indices 0..max_index, clipped to a finite index set."""
    if max_index < 0:
        raise ValueError(f"max_index must be >= 0, got {max_index}")
    return range(rel.omega.clip(max_index) + 1)


def enumerate_witnesses(
    rel: RealEnumRel,
    x: RealOracle,
    accuracy,
    max_index: int,
    fuel: int,
) -> WitnessList:
    """Witnesses for indices 0..max_index (clipped to a finite index set).

    Each distinct machine is refined once; a later index with the same
    machine reuses that outcome, re-indexed.  Keyed on identity, so a
    machine need not be hashable; holding the machine keeps its id from
    being reused within the call.
    """
    entries = []
    skipped = []
    seen: dict = {}  # id(machine) -> (machine, outcome of its first index)
    for i in _window(rel, max_index):
        machine = rel.slice(i)
        _, result = seen.get(id(machine), (None, None))
        if result is None:
            result = witness(rel, x, i, accuracy, fuel)
            seen[id(machine)] = machine, result
        elif isinstance(result, WitnessEntry):
            result = WitnessEntry(i, result.value, result.accuracy)
        if isinstance(result, WitnessEntry):
            entries.append(result)
        else:
            skipped.append(i)
    return WitnessList(tuple(entries), tuple(skipped))


def member_semi(
    rel: RealEnumRel,
    x: RealOracle,
    y: RealOracle,
    accuracy,
    max_index: int,
    fuel: int,
) -> Optional[int]:
    """Search indices 0..max_index for a branch certified to land on y.

    Both sides are refined to a quarter of the requested accuracy and the
    approximations compared at half of it, so the triangle inequality
    certifies |f(x, i) - y| <= accuracy whenever an index is returned.
    None means the window is exhausted — silence, not refutation:
    equality over the reals is not decidable, so no finite search can
    rule membership out.
    """
    accuracy = _positive(accuracy, "accuracy")
    indices = _window(rel, max_index)
    quarter, half = accuracy / 4, accuracy / 2
    y_approx = y(quarter)
    compared: dict = {}  # id -> machine, held; its later indices compare the same
    for i in indices:
        machine = rel.slice(i)
        if id(machine) not in compared:
            compared[id(machine)] = machine
            result = witness(rel, x, i, quarter, fuel)
            if isinstance(result, WitnessEntry) and abs(result.value - y_approx) <= half:
                return i
    return None


def cluster_values(values: Sequence[Fraction], radius) -> list:
    """Greedy clustering of rationals: split where a sorted gap exceeds radius.

    Exact arithmetic, deterministic; used to count distinct outcomes among
    finite-accuracy witnesses.
    """
    radius = as_fraction(radius)
    ordered = sorted(as_fraction(v) for v in values)
    clusters: list = []
    for v in ordered:
        if clusters and v - clusters[-1][-1] <= radius:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return clusters
