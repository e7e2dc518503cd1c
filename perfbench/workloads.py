"""The three workloads: seeded op streams, how each op calls realcomp,
and how its output is checked against the reference.

Generation (the ``gen_*`` functions and `Stream`) uses only
`reference`; realcomp is touched only by the thunks that ``prepare``
builds, and each thunk calls through module attributes
(``rc.machine.refine``, ``rc.cli.main``, ...) so that the traced run's
wraps are the functions it reaches.

An op's output is first normalised to plain data; ``check`` compares that
data with the reference exactly, and ``perturb`` yields wrong variants of
a good output that ``check`` must reject (the benchmark's self-check).
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import reference as ref

# Accuracies are 2^-TARGET_BITS for refinement and eval, 2^-REL_BITS for
# relation and probability ops.
TARGET_BITS = 20
TARGET = Fraction(1, 1 << TARGET_BITS)
REL_BITS = 16
REL_ACCURACY = Fraction(1, 1 << REL_BITS)
DEEP_FUEL = 400
REL_FUEL = 200
BAND_FUEL = 200
NATREL_FUEL = 10 ** 6

# Parameters drawn per op from a deck, centred on nominal values: 2^-20,
# fuel 200, a 50-index window and 10000 draws.  A kind whose ops all cost
# the same puts a spike in the latency distribution; on a host whose speed
# switches between phases about 1.5x apart, a percentile on a spike jumps
# between the two phases' costs, while on a spread of costs it moves
# smoothly.
DEEP_TARGET_BITS = range(8, 33)
BOUNDARY_FUELS = range(100, 301, 10)
SEMI_WINDOWS = range(30, 71, 4)
FREQ_DRAWS = range(5000, 15001, 500)


@dataclass
class Op:
    kind: str
    ident: int
    slot: int  # position among the round's ops of this kind; picks a stratum
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers


def _x(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 8))


def _far_point(rng: random.Random, values, accuracy: Fraction) -> Fraction:
    """A rational farther than 2 * accuracy from every value."""
    while True:
        y = Fraction(rng.randint(-64, 64), rng.randint(1, 16))
        if all(abs(y - v) > 2 * accuracy for v in values):
            return y


def _branch(rng: random.Random, x: Fraction, nodes_lo=3, nodes_hi=9):
    """A one-argument expression defined at x."""
    return ref.guard_chi(ref.random_expr(rng, rng.randint(nodes_lo, nodes_hi), 1), [x])


def _divergent_branch(rng: random.Random, x: Fraction):
    """chi-pos(c - x) with c <= x: undefined at x, so refinement diverges."""
    c = x - Fraction(rng.randint(0, 3), rng.randint(1, 4))
    return ("chi", ("sub", ("rat", c), ("var", 0)))


def _tail_spec(heads, tail) -> str:
    return "(tail " + " ".join(ref.render(e) for e in heads + [tail]) + ")"


def _prob_spec(masses, branches) -> str:
    parts = [f"(mass {m.numerator} {m.denominator} {ref.render(e)})"
             for m, e in zip(masses, branches)]
    return "(prob " + " ".join(parts) + ")"


def _away(value: Fraction, reference: Fraction, by: Fraction) -> Fraction:
    """value moved by `by` away from the reference."""
    return value + by if value >= reference else value - by


def to_ast(rc, expr):
    """The realcomp expression for a tuple expression."""
    o = rc.oracle
    head = expr[0]
    if head == "var":
        return o.Var(expr[1])
    if head == "rat":
        return o.Const(expr[1])
    if head == "neg":
        return o.Neg(to_ast(rc, expr[1]))
    if head == "chi":
        return o.ChiPos(to_ast(rc, expr[1]))
    cls = {"add": o.Add, "sub": o.Sub, "mul": o.Mul, "min": o.Min, "max": o.Max}[head]
    return cls(to_ast(rc, expr[1]), to_ast(rc, expr[2]))


def _refine_outcome(outcome):
    """Converged / NoConvergence as plain tuples."""
    if hasattr(outcome, "value"):
        return ("converged", outcome.value, outcome.accuracy)
    return ("no-convergence", outcome.steps_taken, outcome.all_infinite)


def _converged_within(norm, expected: Fraction, target: Fraction) -> bool:
    return (norm[0] == "converged" and 0 < norm[2] <= target
            and abs(norm[1] - expected) <= norm[2])


def _box_ok(boxes, point) -> bool:
    """Boxes contain the point and every corner lies inside the open band."""
    if len(boxes) != 2:
        return False
    (xlo, xhi), (ylo, yhi) = boxes
    if not (xlo <= point[0] <= xhi and ylo <= point[1] <= yhi):
        return False
    return all(ref.in_band(a, b) for a in (xlo, xhi) for b in (ylo, yhi))


def _shift_box(boxes):
    (xlo, xhi), rest = boxes[0], boxes[1:]
    width = xhi - xlo
    return [(xhi + width, xhi + 2 * width)] + list(rest)


# ---------------------------------------------------------------------------
# CLI ops: run realcomp.cli.main in-process, stdout and stderr captured


def run_cli(rc, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fields(stdout: str) -> list:
    rows = []
    for line in stdout.splitlines():
        rows.append(dict(item.split("=", 1) for item in line.split()))
    return rows


def _render_fields(rows) -> str:
    return "".join(" ".join(f"{k}={v}" for k, v in row.items()) + "\n" for row in rows)


class CliKind:
    """An op that runs one CLI command; subclasses check its stdout."""

    expected_code = 0

    def prepare(self, rc, op):
        argv = op.data["argv"]
        return lambda: run_cli(rc, argv)

    def normalise(self, raw):
        return raw

    def check(self, op, norm) -> bool:
        code, stdout, stderr = norm
        if code != self.expected_code or stderr:
            return False
        try:
            return self.check_stdout(op, _fields(stdout))
        except (ValueError, KeyError, ZeroDivisionError):
            return False

    def perturb(self, op, norm):
        code, stdout, stderr = norm
        yield (1 - code, stdout, stderr)
        yield (code, _render_fields(self.perturb_rows(op, _fields(stdout))), stderr)


class EvalKind(CliKind):
    def check_stdout(self, op, rows):
        (row,) = rows
        return _converged_within(
            ("converged", Fraction(row["r"]), Fraction(row["eps"])),
            op.data["ref"], TARGET)

    def perturb_rows(self, op, rows):
        r, eps = Fraction(rows[0]["r"]), Fraction(rows[0]["eps"])
        return [{"r": _away(r, op.data["ref"], 2 * eps), "eps": eps}]


class DomainKind(CliKind):
    def check_stdout(self, op, rows):
        if [row["arg"] for row in rows] != ["0", "1"]:
            return False
        boxes = [(Fraction(row["lo"]), Fraction(row["hi"])) for row in rows]
        return _box_ok(boxes, op.data["point"])

    def perturb_rows(self, op, rows):
        boxes = _shift_box([(Fraction(row["lo"]), Fraction(row["hi"])) for row in rows])
        return [{"arg": k, "lo": lo, "hi": hi} for k, (lo, hi) in enumerate(boxes)]


class EnumerateKind(CliKind):
    def check_stdout(self, op, rows):
        refs = op.data["refs"]
        if len(rows) != len(refs):
            return False
        for i, (row, expected) in enumerate(zip(rows, refs)):
            if row["i"] != str(i):
                return False
            if expected is None:
                if row.get("status") != "skipped":
                    return False
            elif not _converged_within(
                    ("converged", Fraction(row["r"]), Fraction(row["eps"])),
                    expected, REL_ACCURACY):
                return False
        return True

    def perturb_rows(self, op, rows):
        rows = [dict(row) for row in rows]
        for row, expected in zip(rows, op.data["refs"]):
            if expected is not None:
                r, eps = Fraction(row["r"]), Fraction(row["eps"])
                row["r"] = _away(r, expected, 2 * eps)
                break
        return rows


class MemberMissKind(CliKind):
    expected_code = 1

    def check_stdout(self, op, rows):
        return rows == [{"found": "false", "searched": str(op.data["window"])}]

    def perturb_rows(self, op, rows):
        return [{"found": "true", "index": 0}]


class MassKind(CliKind):
    def check_stdout(self, op, rows):
        (row,) = rows
        return (Fraction(row["lower"]) == op.data["lower"]
                and Fraction(row["unknown"]) == op.data["unknown"])

    def perturb_rows(self, op, rows):
        return [{"lower": Fraction(rows[0]["lower"]) + 2 * REL_ACCURACY,
                 "unknown": rows[0]["unknown"]}]


class FreqKind(CliKind):
    def check_stdout(self, op, rows):
        return rows == [{"i": str(i), "count": str(c)}
                        for i, c in enumerate(op.data["counts"])]

    def perturb_rows(self, op, rows):
        rows = [dict(row) for row in rows]
        rows[0]["count"] = int(rows[0]["count"]) + 1
        return rows


class SampleKind(CliKind):
    def check_stdout(self, op, rows):
        (row,) = rows
        return (row["index"] == str(op.data["index"])
                and abs(Fraction(row["r"]) - op.data["ref"]) <= REL_ACCURACY)

    def perturb_rows(self, op, rows):
        r = Fraction(rows[0]["r"])
        return [{"index": rows[0]["index"],
                 "r": _away(r, op.data["ref"], 2 * REL_ACCURACY)}]


# ---------------------------------------------------------------------------
# Library ops


class DeepKind:
    """Compile the logistic DAG and refine it at x0 to 2^-bits."""

    def prepare(self, rc, op):
        o = rc.oracle
        r, one = o.Const(ref.LOGISTIC_R), o.Const(Fraction(1))
        expr = o.Var(0)
        for _ in range(op.data["k"]):
            expr = o.Mul(r, o.Mul(expr, o.Sub(one, expr)))
        x0, target = op.data["x0"], op.data["target"]

        def thunk():
            machine = rc.oracle.expr_to_machine(expr, 1)
            return rc.machine.refine(machine, [rc.oracle.from_rational(x0)],
                                     target, DEEP_FUEL)

        return thunk

    normalise = staticmethod(_refine_outcome)

    def check(self, op, norm):
        return _converged_within(norm, op.data["ref"], op.data["target"])

    def perturb(self, op, norm):
        yield (norm[0], _away(norm[1], op.data["ref"], 2 * norm[2]), norm[2])


class BandRefineKind:
    """Compile the band and refine it at (x, y): on the boundary this must
    spend all its fuel on infinite answers; inside it converges to 1."""

    def __init__(self, inside: bool):
        self.inside = inside

    def prepare(self, rc, op):
        band = to_ast(rc, ref.BAND)
        x, y = op.data["point"]
        fuel = BAND_FUEL if self.inside else op.data["fuel"]

        def thunk():
            machine = rc.oracle.expr_to_machine(band, 2)
            oracles = [rc.oracle.from_rational(x), rc.oracle.from_rational(y)]
            return rc.machine.refine(machine, oracles, TARGET, fuel)

        return thunk

    normalise = staticmethod(_refine_outcome)

    def check(self, op, norm):
        if self.inside:
            return _converged_within(norm, Fraction(1), TARGET)
        return norm == ("no-convergence", op.data["fuel"], True)

    def perturb(self, op, norm):
        if norm[0] == "converged":
            yield (norm[0], _away(norm[1], Fraction(1), 2 * norm[2]), norm[2])
        else:
            yield (norm[0], norm[1], not norm[2])
            yield (norm[0], norm[1] - 1, norm[2])


class DomainNearKind:
    def prepare(self, rc, op):
        band = to_ast(rc, ref.BAND)
        x, y = op.data["point"]

        def thunk():
            machine = rc.oracle.expr_to_machine(band, 2)
            oracles = [rc.oracle.from_rational(x), rc.oracle.from_rational(y)]
            return rc.machine.domain_neighborhood(machine, oracles, BAND_FUEL)

        return thunk

    def normalise(self, raw):
        if isinstance(raw, list):
            return [(box.lo, box.hi) for box in raw]
        return _refine_outcome(raw)

    def check(self, op, norm):
        return isinstance(norm, list) and _box_ok(norm, op.data["point"])

    def perturb(self, op, norm):
        yield _shift_box(norm)


class MemberSemiKind:
    """member_semi over a window of indices at a computed real x."""

    def prepare(self, rc, op):
        d = op.data
        x_expr = to_ast(rc, d["x_expr"])
        heads = [to_ast(rc, e) for e in d["heads"]]
        tail = to_ast(rc, d["tail"])

        def thunk():
            o = rc.oracle
            x = o.apply_machine(o.expr_to_machine(x_expr, 1),
                                [o.from_rational(d["a"])], REL_FUEL)
            rel = rc.relation.make_tail_rel(heads, tail)
            return rc.relation.member_semi(rel, x, o.from_rational(d["y"]),
                                           REL_ACCURACY, d["window"] - 1, REL_FUEL)

        return thunk

    def normalise(self, raw):
        return raw

    def check(self, op, norm):
        return norm is None

    def perturb(self, op, norm):
        yield 0


class NatrelKind:
    """The decide -> semi-decide -> enumerate -> search round trip."""

    FIELDS = ("total", "agreements", "false_accepts", "missed_positives",
              "max_fuel_on_positives")

    def prepare(self, rc, op):
        d = op.data

        def thunk():
            rel = rc.natrel.relation_by_name(d["name"])
            return rc.natrel.equivalence_report(rel, d["bound"], NATREL_FUEL)

        return thunk

    def normalise(self, raw):
        return {name: getattr(raw, name) for name in self.FIELDS} | {"ok": raw.ok}

    def check(self, op, norm):
        return norm == op.data["expected"] | {"ok": True}

    def perturb(self, op, norm):
        yield norm | {"agreements": norm["agreements"] - 1}
        yield norm | {"ok": False}


KINDS = {
    "logistic": DeepKind(),
    "eval_rand": EvalKind(),
    "eval_chain": EvalKind(),
    "domain": DomainKind(),
    "enumerate": EnumerateKind(),
    "member": MemberMissKind(),
    "mass": MassKind(),
    "freq": FreqKind(),
    "sample": SampleKind(),
    "band_boundary": BandRefineKind(inside=False),
    "band_inside": BandRefineKind(inside=True),
    "domain_near": DomainNearKind(),
    "member_semi": MemberSemiKind(),
    "natrel": NatrelKind(),
}


# ---------------------------------------------------------------------------
# Generation: one function per op kind, realcomp-free


class Deck:
    """Draw without replacement from a reshuffled list, so that every value
    occurs equally often over a run whatever the seed."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class Stream:
    """The seeded, endless sequence of rounds for one workload.

    A round holds every op kind of the workload in fixed proportion, in a
    seeded shuffled order; runs stop only at round boundaries, so each run
    has the same op mix.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.mix = MIXES[workload]
        self.rng = random.Random(f"realcomp-perfbench:{workload}:{seed}")
        self.workdir = workdir
        self.decks: dict = {}
        self.next_id = 0
        workdir.mkdir(parents=True, exist_ok=True)

    def deck(self, name, values) -> Deck:
        if name not in self.decks:
            self.decks[name] = Deck(self.rng, values)
        return self.decks[name]

    def spec_file(self, op: Op, text: str) -> str:
        path = self.workdir / f"{op.ident}.sexp"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def round(self) -> list:
        ops = []
        for kind, count in self.mix:
            for slot in range(count):
                op = Op(kind, self.next_id, slot)
                self.next_id += 1
                GENERATORS[kind](self, op)
                ops.append(op)
        self.rng.shuffle(ops)
        return ops


def gen_logistic(s: Stream, op: Op):
    """Slot j: k = 3 + j // 3, and b from the (j % 3)-th third of 2..16.
    The accuracy 2^-bits comes from a deck per k: refinement takes about
    bits + 2k steps, so each k's costs spread over about 2.3x."""
    k = 3 + op.slot // 3
    b = s.rng.randint(2 + 5 * (op.slot % 3), 6 + 5 * (op.slot % 3))
    x0 = Fraction(s.rng.choice([a for a in range(1, b) if gcd(a, b) == 1]), b)
    bits = s.deck(("bits", k), DEEP_TARGET_BITS).draw()
    op.data.update(k=k, x0=x0, target=Fraction(1, 1 << bits), ref=ref.logistic(x0, k))


def _eval_op(s: Stream, op: Op, expr, x, y):
    path = s.spec_file(op, ref.render(expr))
    op.data.update(
        argv=["eval", f"--spec={path}", f"--x={x}", f"--y={y}",
              f"--accuracy=2^-{TARGET_BITS}"],
        ref=ref.evaluate(expr, [x, y]),
    )


def gen_eval_rand(s: Stream, op: Op):
    x, y = _x(s.rng), _x(s.rng)
    low = 16 + 28 * op.slot  # slots 0..3 cover 16..127 nodes
    expr = ref.random_expr(s.rng, s.rng.randint(low, low + 27), 2)
    _eval_op(s, op, ref.guard_chi(expr, [x, y]), x, y)


def gen_eval_chain(s: Stream, op: Op):
    x, y = _x(s.rng), _x(s.rng)
    _eval_op(s, op, ref.add_chain(s.rng, 200, 2), x, y)


def _band_point(s: Stream, gap: Fraction):
    x = _x(s.rng)
    y = x + gap if s.rng.random() < 0.5 else x + 1 - gap
    return x, y


def gen_domain(s: Stream, op: Op):
    x, y = _band_point(s, Fraction(s.rng.randint(1, 7), 8))
    path = s.spec_file(op, ref.render(ref.BAND))
    op.data.update(argv=["domain", f"--spec={path}", f"--x={x}", f"--y={y}"],
                   point=(x, y))


def _relation(s: Stream, x: Fraction, divergent: bool):
    """3..8 head branches and a tail; with `divergent`, exactly one head
    diverges at x, so every such op spends the same fuel on it."""
    heads = [_branch(s.rng, x) for _ in range(s.rng.randint(3, 8))]
    if divergent:
        heads[s.rng.randrange(len(heads))] = _divergent_branch(s.rng, x)
    return heads, _branch(s.rng, x)


def gen_enumerate(s: Stream, op: Op):
    x = _x(s.rng)
    heads, tail = _relation(s, x, divergent=True)
    path = s.spec_file(op, _tail_spec(heads, tail))
    last = 100
    refs = [ref.evaluate(e, [x]) if ref.defined_at(e, [x]) else None
            for e in (heads[i] if i < len(heads) else tail for i in range(last + 1))]
    op.data.update(
        argv=["enumerate", f"--spec={path}", f"--x={x}", f"--accuracy=2^-{REL_BITS}",
              f"--max-index={last}", f"--fuel={REL_FUEL}"],
        refs=refs,
    )


def gen_member(s: Stream, op: Op):
    x = _x(s.rng)
    heads, tail = _relation(s, x, divergent=True)
    values = [ref.evaluate(e, [x]) for e in heads + [tail] if ref.defined_at(e, [x])]
    y = _far_point(s.rng, values, REL_ACCURACY)
    path = s.spec_file(op, _tail_spec(heads, tail))
    window = 50
    op.data.update(
        argv=["member", f"--spec={path}", f"--x={x}", f"--y={y}",
              f"--accuracy=2^-{REL_BITS}", f"--max-index={window - 1}",
              f"--fuel={REL_FUEL}"],
        window=window,
    )


def gen_mass(s: Stream, op: Op):
    """Branches that certainly hit y, certainly miss it, or (exactly one)
    diverge at x, so the exact report is the masses of the hits and of the
    divergent branch."""
    rng = s.rng
    x = _x(rng)
    base = _branch(rng, x)
    y = ref.evaluate(base, [x])
    hits = [base, ("add", base, ("rat", Fraction(0))), ("mul", ("rat", Fraction(1)), base),
            ("max", base, ("sub", base, ("rat", Fraction(1))))]
    branches = []
    roles = ["diverge"] + [rng.choice(("hit", "miss", "miss")) for _ in range(rng.randint(2, 5))]
    rng.shuffle(roles)
    for role in roles:
        if role == "hit":
            branches.append(rng.choice(hits))
        elif role == "diverge":
            branches.append(_divergent_branch(rng, x))
        else:
            while True:
                e = _branch(rng, x)
                if abs(ref.evaluate(e, [x]) - y) > 2 * REL_ACCURACY:
                    break
            branches.append(e)
    masses = ref.random_masses(rng, len(branches))
    path = s.spec_file(op, _prob_spec(masses, branches))
    op.data.update(
        argv=["mass", f"--spec={path}", f"--x={x}", f"--y={y}",
              f"--accuracy=2^-{REL_BITS}", f"--fuel={REL_FUEL}"],
        lower=sum((m for m, r in zip(masses, roles) if r == "hit"), Fraction(0)),
        unknown=sum((m for m, r in zip(masses, roles) if r == "diverge"), Fraction(0)),
    )


def _algorithm(s: Stream, op: Op, x: Fraction):
    branches = [_branch(s.rng, x) for _ in range(4)]
    masses = ref.random_masses(s.rng, len(branches))
    return branches, masses, s.spec_file(op, _prob_spec(masses, branches))


def gen_freq(s: Stream, op: Op):
    x, seed = _x(s.rng), s.rng.getrandbits(63)
    branches, masses, path = _algorithm(s, op, x)
    draws = s.deck("draws", FREQ_DRAWS).draw()
    picks = ref.selections(masses, seed, draws)
    op.data.update(
        argv=["freq", f"--spec={path}", f"--x={x}", f"--seed={seed}",
              f"--n={draws}", f"--accuracy=2^-{REL_BITS}"],
        counts=[picks.count(i) for i in range(len(branches))],
    )


def gen_sample(s: Stream, op: Op):
    x, seed = _x(s.rng), s.rng.getrandbits(63)
    branches, masses, path = _algorithm(s, op, x)
    (index,) = ref.selections(masses, seed, 1)
    op.data.update(
        argv=["sample", f"--spec={path}", f"--x={x}", f"--seed={seed}",
              f"--accuracy=2^-{REL_BITS}"],
        index=index,
        ref=ref.evaluate(branches[index], [x]),
    )


def gen_band_boundary(s: Stream, op: Op):
    x = _x(s.rng)
    y = x if s.rng.random() < 0.5 else x + 1
    op.data.update(point=(x, y), fuel=s.deck("fuel", BOUNDARY_FUELS).draw())


def gen_band_inside(s: Stream, op: Op):
    m = s.deck("m", range(4, 41)).draw()
    op.data.update(point=_band_point(s, Fraction(1, 1 << m)))


def gen_domain_near(s: Stream, op: Op):
    m = s.deck("m_domain", range(4, 41)).draw()
    op.data.update(point=_band_point(s, Fraction(1, 1 << m)))


def gen_member_semi(s: Stream, op: Op):
    rng = s.rng
    a = _x(rng)
    x_expr = _branch(rng, a, 5, 9)
    x = ref.evaluate(x_expr, [a])
    heads, tail = _relation(s, x, divergent=False)
    values = [ref.evaluate(e, [x]) for e in heads + [tail]]
    op.data.update(a=a, x_expr=x_expr, heads=heads, tail=tail,
                   window=s.deck("window", SEMI_WINDOWS).draw(),
                   y=_far_point(rng, values, REL_ACCURACY))


def gen_natrel(s: Stream, op: Op):
    name = s.deck("relation", ("equality", "divisibility", "geq")).draw()
    # the round trip costs about bound^3 for geq; a deck keeps the mix fixed
    bound = s.deck(("bound", name), (20, 25, 30, 35, 40)).draw()
    op.data.update(name=name, bound=bound,
                   expected=ref.natrel_expected(name, bound, NATREL_FUEL))


GENERATORS = {name[len("gen_"):]: fn for name, fn in globals().items()
              if name.startswith("gen_")}

# (kind, ops per round).  The proportions place the p50 and p90 latency
# inside one kind's spread of costs rather than on the gap between two
# kinds, where a percentile jumps from run to run.
MIXES = {
    "deep": [("logistic", 15)],
    "spec_mix": [("eval_rand", 4), ("eval_chain", 1), ("domain", 1), ("enumerate", 1),
                 ("member", 1), ("mass", 1), ("freq", 2), ("sample", 1)],
    "semidecide": [("band_boundary", 4), ("band_inside", 1), ("domain_near", 1),
                   ("member_semi", 2), ("natrel", 2)],
}
