"""Interval-query machines: computable (possibly partial) real functions.

A machine is a pure total mapping from rational interval queries to
answers.  A query supplies, per argument, a rational approximation
together with a strictly positive tolerance; the answer is a rational
approximation of the function value together with a certified error
bound, or ``INF`` when nothing can be certified from the query alone.

Soundness contract: whenever the answer to a query is ``(r, eps)`` with
``eps`` finite, every input vector consistent with the query (each
component within its tolerance of its approximation) at which the
function is defined has its true function value within ``eps`` of ``r``.

One loop, ``_schedule``, drives a machine's integer step along the
tolerance schedule ``2^-n`` for refine and domain_neighborhood, reading
an exact input once, never asking it; one runner, ``_plan_machine``,
runs compiled plans and compositions.  Query and Answer are validated
at ``apply`` and around hand-built transitions.
Divergence can only be observed up to an explicit fuel budget; running
out of fuel is evidence of undefinedness, never proof, and ``_required``
is the one place that turns it into NoConvergenceError.  At exact rational
inputs order is decidable: a compiled plan's ``_undefined`` test runs its
steps once at radius 0, where each rule is exact, and where a chi-pos
answers INF there its operand is <= 0 and lies in every ball its slot
holds, so every step answers INF; ``_schedule`` returns that at once.

The plan runner alone rounds, midpoint-radius as in Arb: with e the bit
length of the query's largest tolerance denominator plus 16, a finite
step value whose qd or td exceeds 2^(2e) gets its midpoint floored to
the grid 2^-e and its radius rounded up to it plus 2^-e.  The new ball
holds the old, so rules stay sound; the grid depends on the query alone,
and a query value passed on unchanged is never rounded.  A linear region
is one step, so it is rounded at its root only: plans answer like compose
trees of one machine per region, and per operator where nothing rounds.
A finite step value whose radius passes 2^4096, as a mul chain's can at
a coarse query, makes the step answer (0, INF): where it fires, that step,
all_infinite and domain_neighborhood's first finite step change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, inf
from operator import itemgetter
from typing import Callable, Sequence, Union

from .rational import INF, Accuracy, Interval, _positive, _text, as_fraction

__all__ = [
    "Query",
    "Answer",
    "IntervalMachine",
    "apply",
    "Converged",
    "NoConvergence",
    "RefineOutcome",
    "NoConvergenceError",
    "refine",
    "domain_neighborhood",
    "identity",
    "proj",
    "const_machine",
    "shift_machine",
    "scale_machine",
    "neg_machine",
    "add_machine",
    "sub_machine",
    "mul_machine",
    "min_machine",
    "max_machine",
    "chi_pos",
    "compose",
    "ModulusMachine",
    "modulus_to_machine",
]


@dataclass(frozen=True)
class Query:
    """Per-argument (approximation, tolerance) pairs; tolerances > 0."""

    components: tuple

    def __post_init__(self):
        comps = tuple(
            (as_fraction(q), as_fraction(tol)) for q, tol in self.components
        )
        if not comps:
            raise ValueError("a query needs at least one component")
        for _, tol in comps:
            _positive(tol, "query tolerance")
        object.__setattr__(self, "components", comps)

    @classmethod
    def of(cls, *pairs) -> "Query":
        return cls(tuple(pairs))

    @property
    def arity(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Answer:
    """Approximation of the result with a certified error bound (or INF)."""

    value: Fraction
    accuracy: Accuracy

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if self.accuracy is not INF:
            object.__setattr__(self, "accuracy", _positive(self.accuracy, "finite accuracy"))


@dataclass(frozen=True)
class IntervalMachine:
    """A pure total transition from queries of a fixed arity to answers.

    The refinement loop and the plan runner drive its integer step (see
    the interval rules); a transition given here is adapted to one once.
    """

    arity: int
    transition: Callable[[Query], Answer]
    name: str = "machine"
    _step: Callable[..., tuple] = field(default=None, compare=False)
    # exact input values -> True where the machine is certainly undefined
    _undefined: Callable[[list], bool] = field(default=None, compare=False)

    def __post_init__(self):
        if self._step is None:
            object.__setattr__(self, "_step", _adapted_step(self.transition))

    def __repr__(self):
        return f"<machine {self.name}/{self.arity}>"


def _adapted_step(transition):
    def step(*values):
        answer = transition(Query(tuple(
            (Fraction(qn, qd), Fraction(tn, td)) for qn, qd, tn, td in values
        )))
        if answer.accuracy is INF:
            return answer.value.numerator, answer.value.denominator, 1, 0
        return _value(answer.value, answer.accuracy)

    return step


def apply(machine: IntervalMachine, query: Query) -> Answer:
    """Answer a single query; the arity must match."""
    if query.arity != machine.arity:
        raise ValueError(
            f"arity mismatch: machine {machine.name!r} takes {machine.arity} "
            f"argument(s), query has {query.arity}"
        )
    return machine.transition(query)


@dataclass(frozen=True)
class Converged:
    """Refinement met the target: |true value - value| <= accuracy <= target."""

    value: Fraction
    accuracy: Fraction
    steps: int  # queries issued; the schedule index of the hit is steps - 1


@dataclass(frozen=True)
class NoConvergence:
    """Fuel ran out.  all_infinite means no query ever got a finite bound."""

    steps_taken: int
    all_infinite: bool


RefineOutcome = Union[Converged, NoConvergence]


class NoConvergenceError(RuntimeError):
    """Raised where a refinement result is required but fuel ran out."""

    def __init__(self, steps_taken: int, all_infinite: bool):
        super().__init__(
            f"no convergence after {steps_taken} refinement steps"
            + (" (every answer was infinite)" if all_infinite else "")
        )
        self.steps_taken = steps_taken
        self.all_infinite = all_infinite


Oracle = Callable[[Fraction], Fraction]
_CAP = 1 << 34  # the plan runner's first rounding cap; a plan's _undefined gives up past it
# The plan runner's largest finite radius; a larger one certifies nothing of
# use.  Fixed, so a numerator below it (td >= 1) costs one comparison.
_MAX_RADIUS_BITS = 4096
_MAX_RADIUS = 1 << _MAX_RADIUS_BITS


class _Taped(tuple):
    """Argument oracles with a tape: step n -> the value of schedule step n
    run on them at wide 0.  The oracles are pure, so that value depends on
    n alone: a replayed step is the step itself, and writing it is idempotent."""

    def __init__(self, oracles):
        self.tape = {}


def _schedule(machine, oracles, fuel, gn, gd, wide):
    """The one refinement loop.  Step n asks the oracles at tolerance 2^-n
    (where all are exact, it reads their _exact values once instead) and
    runs the integer step on their answers at tolerance 2^(wide-n), wide 0
    or 1.  Returns (n, approximations, value) at the first finite accuracy
    <= gn/gd, NoConvergence when fuel is out.  A product's bit length is its
    factors' summed or one less, so with d = len(tn) + len(gd) - len(td) -
    len(gn), tn/td <= gn/gd holds at d <= -2 and fails at d >= 2; only in
    between is it multiplied out.  gd = 0 takes any: d is -inf.
    Where step 0 answers INF, every oracle is exact and the machine's
    _undefined test holds there, every later step would answer INF too, so
    it returns that NoConvergence(fuel, True) without running them.
    At wide 0, where the approximations are None, _Taped oracles' steps are
    replayed from their tape where it has them, and kept on it.
    """
    if len(oracles) != machine.arity:
        raise ValueError(
            f"machine {machine.name!r} takes {machine.arity} argument(s), "
            f"got {len(oracles)} oracle(s)"
        )
    if fuel < 1:
        raise ValueError(f"fuel must be >= 1, got {fuel}")
    step, undefined = machine._step, machine._undefined
    tape = oracles.tape if oracles.__class__ is _Taped and not wide else None
    approxes = [getattr(oracle, "_exact", None) for oracle in oracles]
    exact = None not in approxes
    pairs = [(x.numerator, x.denominator) for x in approxes] if exact else None
    gbits = gd.bit_length() - gn.bit_length() if gd else -inf
    all_infinite = True
    wn, wd = 1 << wide, 1
    for n in range(fuel):
        if tape is None or (value := tape.get(n)) is None:
            if exact:
                value = step(*[(qn, qd, wn, wd) for qn, qd in pairs])
            else:
                tol = Fraction(1, 1 << n)
                approxes = [as_fraction(oracle(tol)) for oracle in oracles]
                value = step(*[(q.numerator, q.denominator, wn, wd) for q in approxes])
            if tape is not None:
                tape[n] = value
        qn, qd, tn, td = value
        if td:
            all_infinite = False
            d = tn.bit_length() - td.bit_length() + gbits
            if d <= -2 or d < 2 and tn * gd <= gn * td:
                return n, approxes if wide else None, value
        elif not n and exact and undefined is not None and undefined(approxes):
            return NoConvergence(fuel, True)
        # halve the query tolerance in lowest terms: 2, 1, 1/2, 1/4, ...
        wn, wd = 1, wd << (wn & 1)
    return NoConvergence(fuel, all_infinite)


def _required(outcome):
    """A refine or domain_neighborhood outcome where a result is required:
    returned unchanged, or NoConvergenceError if fuel ran out."""
    if isinstance(outcome, NoConvergence):
        raise NoConvergenceError(outcome.steps_taken, outcome.all_infinite)
    return outcome


def refine(
    machine: IntervalMachine,
    oracles: Sequence[Oracle],
    target,
    fuel: int,
) -> RefineOutcome:
    """Query with tolerances 2^0, 2^-1, ... until a finite bound <= target.

    Each step n asks every argument oracle for an approximation at
    tolerance 2^-n (exact ones are read once instead) and feeds the
    machine the resulting query.  Returns Converged at the first step
    whose answer has a finite accuracy at or below the target,
    NoConvergence once fuel is spent.
    """
    target = _positive(target, "target accuracy")
    hit = _schedule(machine, oracles, fuel, target.numerator, target.denominator, 0)
    if isinstance(hit, NoConvergence):
        return hit
    n, _, (qn, qd, tn, td) = hit
    return Converged(Fraction(qn, qd), Fraction(tn, td), n + 1)


def domain_neighborhood(
    machine: IntervalMachine,
    oracles: Sequence[Oracle],
    fuel: int,
) -> Union[list, NoConvergence]:
    """Certified per-argument neighborhoods on which the machine converges.

    Runs the refinement schedule with doubled tolerances: step n asks the
    oracles at 2^-n but queries the machine at tolerance 2^-(n-1).  At the
    first finite answer the query boxes themselves are neighborhoods of
    the true inputs lying inside the machine's domain of definition, and
    they are returned as one closed interval per argument.  It is the
    loop of refine with target 1/0, so all answers were INF if fuel runs out.
    """
    hit = _schedule(machine, oracles, fuel, 1, 0, 1)
    if isinstance(hit, NoConvergence):
        return hit
    n, approxes, _ = hit
    width = Fraction(2, 1 << n)
    return [Interval(q - width, q + width) for q in approxes]


# ---------------------------------------------------------------------------
# Interval rules
#
# Each rule maps the values of its operands to the value of its result;
# literal parameters, integer pairs or tuples of them, come first.  A value
# is a flat 4-tuple (qn, qd, tn, td) of ints: the approximation qn/qd and
# the accuracy tn/td, both in lowest terms with positive denominators, so
# every value is the canonical rational a Fraction would hold.  Operand
# accuracies are finite and positive, and so is every result accuracy,
# except that chi-pos answers INF where it certifies nothing; INF is the
# accuracy 1/0, the only value with td == 0.  The catalog machines below
# and the plans of realcomp.oracle run these exact rules, each written
# once; only the plan runner widens a value (_round_ball).  A machine's
# integer step is such a rule on its query's values; its transition turns
# components into values (_value) and the result into an Answer (_answer).


def _radd(an, ad, bn, bd):
    """an/ad + bn/bd in lowest terms, with the gcd shortcuts of CPython's
    fractions._add: the gcd of the denominators first, then a second gcd
    of the sum only against that one."""
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


def _rmul(an, ad, bn, bd):
    """(an/ad) * (bn/bd) in lowest terms, cross-cancelling first as
    CPython's fractions._mul does."""
    g1 = gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


def _gcd(a, b):
    """gcd(a, b) for b > 0: the gcd of the odd parts, shifted back by the
    smaller power of two, where math.gcd would be quadratic in the bits."""
    if not a:
        return b
    i, j = (a & -a).bit_length() - 1, (b & -b).bit_length() - 1
    return gcd(a >> i, b >> j) << min(i, j)


def _half(n, d):
    """(n/d) / 2 in lowest terms, for n/d in lowest terms: an even n has
    an odd d, and an odd n stays coprime to 2d."""
    return (n >> 1, d) if n & 1 == 0 else (n, d << 1)


def _value(q: Fraction, tol: Fraction) -> tuple:
    return q.numerator, q.denominator, tol.numerator, tol.denominator


def _answer(value: tuple) -> Answer:
    qn, qd, tn, td = value
    return Answer(Fraction(qn, qd), Fraction(tn, td) if td else INF)


def _const_rule(c, *args):
    """The constant, at the finest argument tolerance.

    The bound cannot be zero (accuracies are strictly positive), so the
    smallest tolerance stands in for it; it still shrinks to zero under
    refinement.
    """
    _, _, tn, td = args[0]
    for _, _, un, ud in args[1:]:
        if un * td < tn * ud:
            tn, td = un, ud
    return c[0], c[1], tn, td


def _shift_rule(c, x):
    qn, qd, tn, td = x
    return (*_radd(qn, qd, *c), tn, td)


def _scale_rule(c, x):
    (cn, cd), (qn, qd, tn, td) = c, x
    return (*_rmul(cn, cd, qn, qd), *_rmul(abs(cn), cd, tn, td))


def _neg_rule(x):
    qn, qd, tn, td = x
    return -qn, qd, tn, td


def _sub_from_rule(c, x):
    qn, qd, tn, td = x
    return (*_radd(*c, -qn, qd), tn, td)


def _add_rule(x, y):
    (q1n, q1d, t1n, t1d), (q2n, q2d, t2n, t2d) = x, y
    return (*_radd(q1n, q1d, q2n, q2d), *_radd(t1n, t1d, t2n, t2d))


def _sub_rule(x, y):
    (q1n, q1d, t1n, t1d), (q2n, q2d, t2n, t2d) = x, y
    return (*_radd(q1n, q1d, -q2n, q2d), *_radd(t1n, t1d, t2n, t2d))


def _mul_rule(x, y):
    """q1 q2, with the corner bound |q1| t2 + |q2| t1 + t1 t2.

    The bound is summed as (|q1| + t1) t2 + |q2| t1 over the common
    denominator q1d t1d q2d t2d and reduced by one final gcd, which is
    cheaper than three products and two sums each reduced on the way.
    At 2^-n, td is a small odd number times 2^(2n): past 2048 bits, _gcd.
    """
    (q1n, q1d, t1n, t1d), (q2n, q2d, t2n, t2d) = x, y
    tn = (abs(q1n) * t1d + t1n * q1d) * q2d * t2n + abs(q2n) * t1n * q1d * t2d
    td = q1d * t1d * q2d * t2d
    g = gcd(tn, td) if td.bit_length() < 2048 else _gcd(tn, td)
    return (*_rmul(q1n, q1d, q2n, q2d), tn // g, td // g)


def _affine_rule(c, coefficients, *xs):
    """c + sum a_i q_i, accuracy sum r_i t_i, for coefficients (an, ad, rn,
    rd) per operand; each partial sum is kept in lowest terms, and a
    product by a coefficient of 1 or -1 needs no gcd."""
    (qn, qd), tn, td = c, 0, 1
    for (an, ad, rn, rd), (xn, xd, un, ud) in zip(coefficients, xs):
        if ad == 1 and an * an == 1:
            qn, qd = _radd(qn, qd, an * xn, xd)
        else:
            qn, qd = _radd(qn, qd, *_rmul(an, ad, xn, xd))
        tn, td = _radd(tn, td, un, ud) if rn == rd == 1 else _radd(tn, td, *_rmul(rn, rd, un, ud))
    return qn, qd, tn, td


def _rmin(a, b):
    return b if b[0] * a[1] < a[0] * b[1] else a


def _rmax(a, b):
    return b if b[0] * a[1] > a[0] * b[1] else a


def _endpointwise(pick):
    def rule(x, y):
        (q1n, q1d, t1n, t1d), (q2n, q2d, t2n, t2d) = x, y
        lon, lod = pick(_radd(q1n, q1d, -t1n, t1d), _radd(q2n, q2d, -t2n, t2d))
        hin, hid = pick(_radd(q1n, q1d, t1n, t1d), _radd(q2n, q2d, t2n, t2d))
        mid, rad = _radd(lon, lod, hin, hid), _radd(hin, hid, -lon, lod)
        return (*_half(*mid), *_half(*rad))

    return rule


_min_rule = _endpointwise(_rmin)
_max_rule = _endpointwise(_rmax)


def _chi_pos_rule(x):
    qn, qd, tn, td = x
    # q - tol > 0, cross-multiplied over the positive denominators
    return (1, 1, tn, td) if qn * td > tn * qd else (1, 1, 1, 0)


# ---------------------------------------------------------------------------
# Machine catalog


def _rule_machine(rule, arity: int, name: str, undefined=None) -> IntervalMachine:
    """The machine whose integer step is `rule`, with the derived transition."""

    def transition(query: Query) -> Answer:
        return _answer(rule(*[_value(q, tol) for q, tol in query.components]))

    return IntervalMachine(arity, transition, name, rule, undefined)


def _round_ball(value, e):
    """The ball (qn/qd, tn/td) on the grid 2^-e, in lowest terms: the
    midpoint floored, the radius rounded up plus 2^-e."""
    qn, qd, tn, td = value
    m, r, one = (qn << e) // qd, 1 - (-tn << e) // td, 1 << e
    gm, gr = gcd(m, one), gcd(r, one)
    return m // gm, one // gm, r // gr, one // gr


def _plan_machine(steps, arity: int, root: int, name: str, undefined=None) -> IntervalMachine:
    """The one plan runner.  Slots 0 .. arity-1 hold the query's values;
    each (step, operand slots) pair fills the next slot, and the machine
    answers slot `root`.  An infinite value in any other slot answers
    (0, INF) at once: an uncertified operand leaves nothing above it.  So
    does a radius past _MAX_RADIUS in any slot.
    Step values past 2^(2e) are rounded, but not a query value that a
    step passes on unchanged; e is found once a value passes _CAP.
    """
    # gather each step's operands in one C call; one operand is a 1-slice
    steps = [(rule, itemgetter(*ks) if len(ks) > 1 else itemgetter(slice(*ks, ks[0] + 1)))
             for rule, ks in steps]

    def step(*values):
        vals = list(values)
        cap, e = _CAP, 0
        for rule, gather in steps:
            value = rule(*gather(vals))
            if not value[3]:
                if len(vals) != root:
                    return 0, 1, 1, 0
            elif value[2] > _MAX_RADIUS and value[2] > value[3] << _MAX_RADIUS_BITS:
                return 0, 1, 1, 0
            elif value[1] > cap or value[3] > cap:
                e = e or max(v[3] for v in values).bit_length() + 16
                cap = 1 << 2 * e
                # a query value passed on by a proj leaf has not grown
                if (value[1] > cap or value[3] > cap) and not any(value is v for v in values):
                    value = _round_ball(value, e)
            vals.append(value)
        return vals[root]

    return _rule_machine(step, arity, name, undefined)


def proj(index: int, arity: int) -> IntervalMachine:
    """Projection onto argument `index`: answers its component unchanged."""
    if not 0 <= index < arity:
        raise ValueError(f"projection index {index} out of range for arity {arity}")
    return _rule_machine(lambda *values: values[index], arity, f"proj{index}")


def identity() -> IntervalMachine:
    """The identity on one argument."""
    return proj(0, 1)


def const_machine(value, arity: int = 1) -> IntervalMachine:
    """Constant machine; answers the constant at the finest query tolerance."""
    value = as_fraction(value)
    rule = partial(_const_rule, value.as_integer_ratio())
    return _rule_machine(rule, arity, f"const({_text(value)})")


def shift_machine(offset) -> IntervalMachine:
    """x + offset for an exact rational offset; tolerance passes through."""
    offset = as_fraction(offset)
    rule = partial(_shift_rule, offset.as_integer_ratio())
    return _rule_machine(rule, 1, f"shift({_text(offset)})")


def scale_machine(factor) -> IntervalMachine:
    """factor * x for an exact rational factor != 0."""
    factor = as_fraction(factor)
    if factor == 0:
        raise ValueError("scale factor must be nonzero; use const_machine(0)")
    rule = partial(_scale_rule, factor.as_integer_ratio())
    return _rule_machine(rule, 1, f"scale({_text(factor)})")


def neg_machine() -> IntervalMachine:
    return _rule_machine(_neg_rule, 1, "neg")


def add_machine() -> IntervalMachine:
    return _rule_machine(_add_rule, 2, "add")


def sub_machine() -> IntervalMachine:
    return _rule_machine(_sub_rule, 2, "sub")


def mul_machine() -> IntervalMachine:
    """Product with the exact corner bound |q1|t2 + |q2|t1 + t1*t2."""
    return _rule_machine(_mul_rule, 2, "mul")


def min_machine() -> IntervalMachine:
    """Pointwise minimum; the exact range is the endpointwise minimum."""
    return _rule_machine(_min_rule, 2, "min")


def max_machine() -> IntervalMachine:
    return _rule_machine(_max_rule, 2, "max")


def chi_pos() -> IntervalMachine:
    """Semi-decision of strict positivity.

    Answers (1, tol) when the whole query interval lies in (0, oo),
    otherwise (1, INF): no finite query can refute positivity, so the
    machine never certifies anything on inputs <= 0 and refinement there
    runs forever.  This is the partial characteristic function of the
    strictly positive reals.
    """
    return _rule_machine(_chi_pos_rule, 1, "chi_pos")


def compose(outer: IntervalMachine, inners: Sequence[IntervalMachine]) -> IntervalMachine:
    """Feed each inner machine's answer to the outer machine as a query.

    Inner answer (r, eps) becomes the outer query component (r, eps); a
    single infinite inner answer makes the composite answer (0, INF)
    immediately, since the outer machine would have nothing to certify.
    It is a two-level plan: each inner step on the query slots, then the
    outer step on the inner slots, whose values it takes unconverted.
    """
    inners = tuple(inners)
    if outer.arity != len(inners):
        raise ValueError(
            f"outer machine {outer.name!r} takes {outer.arity} argument(s), "
            f"got {len(inners)} inner machine(s)"
        )
    if not inners:
        raise ValueError("composition needs at least one inner machine")
    arity = inners[0].arity
    for m in inners:
        if m.arity != arity:
            raise ValueError("inner machines must share one arity")

    root = arity + len(inners)
    steps = [(m._step, tuple(range(arity))) for m in inners]
    steps.append((outer._step, tuple(range(arity, root))))
    name = f"{outer.name}({', '.join(m.name for m in inners)})"
    return _plan_machine(steps, arity, root, name)


@dataclass(frozen=True)
class ModulusMachine:
    """A computable real function given with an a priori uniform modulus.

    `modulus` maps a desired output accuracy to the input accuracy that
    suffices for it; `approx` maps (rational approximation, desired
    accuracy) to a rational within that accuracy of the function value,
    provided the input approximation was within modulus(accuracy).
    """

    modulus: Callable[[Fraction], Fraction]
    approx: Callable[[Fraction, Fraction], Fraction]
    name: str = "modulus-machine"


def modulus_to_machine(mm: ModulusMachine, grid_floor_exp: int) -> IntervalMachine:
    """Adapt a modulus-style machine to the interval-query interface.

    The a priori modulus hides how fine an answer a given query supports,
    so the adapter scans the dyadic grid 2^-grid_floor_exp, .., 2^-1, 2^0
    up to the first, hence smallest, output accuracy whose required
    input accuracy the query tolerance already meets.  If no grid point
    qualifies the answer is infinite; a bounded grid keeps the adapter
    total.
    """
    if grid_floor_exp < 1:
        raise ValueError(f"grid_floor_exp must be >= 1, got {grid_floor_exp}")

    def transition(query: Query) -> Answer:
        q, tol = query.components[0]
        for k in range(grid_floor_exp, -1, -1):
            eps = Fraction(1, 1 << k)
            if mm.modulus(eps) >= tol:
                return Answer(mm.approx(q, eps), eps)
        return Answer(mm.approx(q, Fraction(1)), INF)

    return IntervalMachine(1, transition, name=f"adapted({mm.name})")
