"""Discrete probabilistic algorithms over the reals.

A probabilistic algorithm is a finite family of one-argument machines,
each carrying an exact rational mass, the masses summing to one.  This
decomposes nondeterminism (the branch family) from chance (the masses on
the index set), and it represents algorithms no pointwise mass function
can: a mass function continuous in its arguments cannot assign two
distinct outcomes positive mass, while a branch family does so freely.

Outcome masses are only semi-computable from finite-accuracy answers, so
mass queries return a certified lower bound plus the total mass whose
proximity to the target could not be settled at the requested accuracy.

Sampling is deterministic given a seed.  The generator is splitmix64:
state advances by the 64-bit golden-ratio increment γ = 0x9E3779B97F4A7C15
and each output is the state mixed by two xor-shift-multiply rounds
(constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, final shift 31).
Uniform draws are the exact rationals u = k / 2^64 with k the next
64-bit output, so inverse-CDF selection over rational cumulative masses
is exact.  An algorithm sums its masses once, into the table of the
cumulative masses c that it checks against 1; select_index bisects the
table with any rational u.  For parallel streams, derive child seeds
with spawn_seed(seed, stream_index) rather than reusing the parent sampler.

The states s + γ, s + 2γ, ... form an arithmetic progression, so draws
are made 2^10 at a time in one Python int, one 128-bit lane per draw
(SIMD within a register): each mixing step acts on the whole int, and
every lane is cut to 64 bits before a multiply, so no product carries
into the next lane.  empirical_frequency (the CLI's freq) compares all
lanes z with an integer cut point ceil(c * 2^64) in one subtraction:
lane i of (2^64 - 1 + cut) - z has bit 64 set iff draw i is below it.  A
branch's count is a bit_count and its first draw the lowest set bit, so
no Python code runs once per draw.  All chunks share one cached lane
table, the last counting only its own lanes; next_u64 mixes one lane.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Optional, Sequence

from .machine import Converged, IntervalMachine, NoConvergence, _required, refine
from .oracle import RealOracle, from_rational
from .rational import _positive, as_fraction

__all__ = [
    "MassSumInvalid",
    "ValidationFailed",
    "ProbBranch",
    "DiscreteProbAlgorithm",
    "MassReport",
    "Sampler",
    "spawn_seed",
    "make_prob",
    "decompose",
    "select_index",
    "sample",
    "outcome_mass",
    "empirical_frequency",
    "RepartitionMachine",
    "cdf_algorithm",
]


class MassSumInvalid(ValueError):
    """Branch masses do not sum to exactly one."""


class ValidationFailed(ValueError):
    """A sampled validation found a counterexample."""


@dataclass(frozen=True)
class ProbBranch:
    """One possible behaviour and the exact mass placed on it."""

    machine: IntervalMachine
    mass: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mass", as_fraction(self.mass))
        if not 0 <= self.mass <= 1:
            raise ValueError(f"branch mass must lie in [0, 1], got {self.mass}")
        if self.machine.arity != 1:
            raise ValueError("probabilistic branches take exactly one argument")


@dataclass(frozen=True)
class DiscreteProbAlgorithm:
    branches: tuple
    # the cumulative masses, ending at 1; branch i owns [c[i-1], c[i])
    _cumulative: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("an algorithm needs at least one branch")
        object.__setattr__(self, "branches", branches)
        cumulative = tuple(accumulate(b.mass for b in branches))
        if cumulative[-1] != 1:
            raise MassSumInvalid(f"masses sum to {cumulative[-1]}, not 1")
        object.__setattr__(self, "_cumulative", cumulative)

    @property
    def masses(self) -> tuple:
        return tuple(b.mass for b in self.branches)


def make_prob(branches: Sequence[ProbBranch]) -> DiscreteProbAlgorithm:
    """Validate and build; raises MassSumInvalid unless masses sum to 1."""
    return DiscreteProbAlgorithm(tuple(branches))


def decompose(alg: DiscreteProbAlgorithm) -> tuple:
    """Split into the branch-machine family and the mass vector."""
    return tuple(b.machine for b in alg.branches), alg.masses


@dataclass(frozen=True)
class MassReport:
    """Certified lower bound on an outcome's mass, plus the unsettled mass."""

    lower: Fraction
    unknown: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lower", as_fraction(self.lower))
        object.__setattr__(self, "unknown", as_fraction(self.unknown))
        if self.lower < 0 or self.unknown < 0 or self.lower + self.unknown > 1:
            raise ValueError(f"inconsistent mass report: {self}")


_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
# Draws per lane int: one 128-bit lane per draw, so 16 KB per int.  The
# dozen ints a chunk keeps live then stay in cache: at 5,000-15,000 draws
# a call, 2^12 draws a chunk ran about 1.3x slower.
_CHUNK = 1 << 10


@cache
def _full_lanes() -> tuple:
    """ones, steps, low over _CHUNK lanes: 1, (i+1)·γ and 2^64 - 1 in lane i.

    Built by doubling on the first empirical_frequency call, then kept.
    """
    ones, ranks, bits = 1, 1, 128
    while bits < _CHUNK << 7:
        ranks |= (ranks + ones * (bits >> 7)) << bits
        ones |= ones << bits
        bits <<= 1
    return ones, ranks * _GAMMA, ones * _MASK


def _splitmix(state: int, ones: int, steps: int, low: int) -> int:
    """splitmix64's outputs for the states state + (i+1)·γ, one per lane.

    Every lane is cut to 64 bits before each multiply, so a 64×64-bit
    product fills its own 128-bit lane and never carries into the next.
    """
    z = (steps + ones * state) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return (z ^ (z >> 31)) & low


class Sampler:
    """Deterministic seedable generator of exact uniform rationals in [0, 1)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self.seed = seed

    def next_u64(self) -> int:
        state = self._state
        self._state = (state + _GAMMA) & _MASK
        return _splitmix(state, 1, _GAMMA, _MASK)

    def next_unit(self) -> Fraction:
        """The next uniform rational k / 2^64 in [0, 1)."""
        return Fraction(self.next_u64(), 1 << 64)


def spawn_seed(seed: int, stream_index: int) -> int:
    """Child seed for an independent stream; documented and reproducible."""
    child = Sampler(seed ^ (stream_index * _GAMMA))
    return child.next_u64()


def select_index(alg: DiscreteProbAlgorithm, u) -> int:
    """Inverse-CDF selection: the unique branch whose cumulative-mass
    half-open interval contains u.  Preimage lengths equal the masses."""
    u = as_fraction(u)
    if not 0 <= u < 1:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    return bisect_right(alg._cumulative, u)


def _cut_points(alg: DiscreteProbAlgorithm) -> list:
    """ceil(c * 2^64) for each cumulative mass c: k / 2^64 < c iff k < it."""
    return [-((-c.numerator << 64) // c.denominator) for c in alg._cumulative]


def sample(
    alg: DiscreteProbAlgorithm,
    x: RealOracle,
    sampler: Sampler,
    accuracy,
    fuel: int,
) -> tuple:
    """One draw: select a branch by inverse CDF, refine it at x.

    Returns (index, value); deterministic given the sampler state and
    inputs.  Raises NoConvergenceError if the chosen branch diverges.
    """
    index = select_index(alg, sampler.next_unit())
    return index, _required(refine(alg.branches[index].machine, [x], accuracy, fuel)).value


def outcome_mass(
    alg: DiscreteProbAlgorithm,
    x: RealOracle,
    y: RealOracle,
    accuracy,
    fuel: int,
) -> MassReport:
    """Mass of the outcome "within accuracy of y" at input x.

    Per branch, both the branch value and y are refined to a quarter of
    the accuracy; the branch's mass goes to `lower` when the true values
    are certifiably within the accuracy of each other, is dropped when
    they are certifiably farther apart, and goes to `unknown` otherwise
    (including divergent branches).  Exact equality of outcomes is not
    decidable, so this three-way accounting is the computable reading of
    "the probability that the result is y".
    """
    accuracy = _positive(accuracy, "accuracy")
    quarter = accuracy / 4
    y_approx = y(quarter)
    lower = Fraction(0)
    unknown = Fraction(0)
    for branch in alg.branches:
        outcome = refine(branch.machine, [x], quarter, fuel)
        if isinstance(outcome, NoConvergence):
            unknown += branch.mass
            continue
        gap = abs(outcome.value - y_approx)
        slack = outcome.accuracy + quarter
        if gap + slack <= accuracy:
            lower += branch.mass
        elif gap - slack > accuracy:
            pass  # certified to be a different outcome
        else:
            unknown += branch.mass
    return MassReport(lower, unknown)


def empirical_frequency(
    alg: DiscreteProbAlgorithm,
    x: RealOracle,
    n: int,
    sampler: Sampler,
    accuracy,
    fuel: int,
) -> list:
    """Per-branch selection counts over n draws; Monte-Carlo mass check.

    A branch is refined once, when it is first selected, to surface
    divergence exactly as sample() would: the error is that of the first
    divergent branch drawn, and the sampler is left just past that draw.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    *cuts, _ = _cut_points(alg)  # the last is 2^64: every draw lies below it
    counts = [0] * len(alg.branches)
    start = sampler._state
    ones, steps, low = _full_lanes()
    # bit 64 of a lane of limit - z is set iff the lane's draw is below cut
    limits, high = [ones * (_MASK + cut) for cut in cuts], ones << 64
    for done in range(0, n, _CHUNK):
        z = _splitmix((start + done * _GAMMA) & _MASK, ones, steps, low)
        if n - done < _CHUNK:  # the last chunk counts only its own lanes
            high &= (1 << ((n - done) << 7)) - 1
        below, fresh = 0, []
        for index, up_to in enumerate([(limit - z) & high for limit in limits] + [high]):
            drawn, below = up_to ^ below, up_to
            if drawn:
                if not counts[index]:
                    fresh.append(((drawn & -drawn).bit_length() >> 7, index))
                counts[index] += drawn.bit_count()
        for first, index in sorted(fresh):
            sampler._state = (start + (done + first + 1) * _GAMMA) & _MASK
            _required(refine(alg.branches[index].machine, [x], accuracy, fuel))
    sampler._state = (start + n * _GAMMA) & _MASK
    return counts


@dataclass(frozen=True)
class RepartitionMachine:
    """A two-argument machine validated to behave as P(result <= y | x)."""

    machine: IntervalMachine

    def evaluate(self, x: RealOracle, y: RealOracle, accuracy, fuel: int) -> Fraction:
        return _required(refine(self.machine, [x, y], accuracy, fuel)).value


# Deterministic probe grid used to validate repartition machines.
_CDF_PROBE_XS = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)]
_CDF_PROBE_YS = [Fraction(v) for v in (-3, -1, 0, 1, 3)] + [
    Fraction(1, 2),
    Fraction(5, 4),
]
_CDF_PROBE_ACCURACY = Fraction(1, 256)
_CDF_PROBE_FUEL = 200


def cdf_algorithm(machine: IntervalMachine) -> RepartitionMachine:
    """Wrap an arity-2 machine as a repartition (cumulative) function.

    Interval outcomes are described by the probability that the result at
    x is at most y; that function of (x, y) is what the machine must
    compute.  Validation refines the machine on a fixed rational probe
    grid and rejects it (ValidationFailed) if any refined value falls
    outside [0, 1] beyond its certified bound, if values ever decrease in
    y beyond the certified bounds, or if any probe fails to converge.
    """
    if machine.arity != 2:
        raise ValueError("a repartition machine takes (x, y)")
    acc, fuel = _CDF_PROBE_ACCURACY, _CDF_PROBE_FUEL
    for x in _CDF_PROBE_XS:
        x_oracle = from_rational(x)
        previous: Optional[Converged] = None
        for y in sorted(_CDF_PROBE_YS):
            outcome = refine(machine, [x_oracle, from_rational(y)], acc, fuel)
            if isinstance(outcome, NoConvergence):
                raise ValidationFailed(
                    f"no convergence at probe x={x}, y={y}"
                )
            if outcome.value < -outcome.accuracy or outcome.value > 1 + outcome.accuracy:
                raise ValidationFailed(
                    f"value {outcome.value} at x={x}, y={y} leaves [0, 1]"
                )
            if previous is not None:
                slack = previous.accuracy + outcome.accuracy
                if outcome.value < previous.value - slack:
                    raise ValidationFailed(
                        f"decreasing in y at x={x}, y={y}: "
                        f"{previous.value} -> {outcome.value}"
                    )
            previous = outcome
    return RepartitionMachine(machine)
