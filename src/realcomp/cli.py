"""Command-line front end.

Reads machine specifications in the s-expression language, runs
refinement, enumeration, sampling and round-trip checks, and prints
deterministic key=value lines.  Exit codes: 0 on success, 1 when an
outcome is a reported non-result (no convergence, exhausted search,
failed round trip), 2 on usage or parse errors, each refused in one
stderr line "error: <message>", argparse's own too (--help exits 0).

Numeric flags use the exact syntax "n", and rational ones also "n/d";
accuracy flags also accept the dyadic shorthand "2^-k".  No floating point
crosses this boundary.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from typing import Optional, Sequence

from .machine import NoConvergenceError, _required, domain_neighborhood, refine
from .natrel import equivalence_report, relation_by_name, RELATION_CATALOG
from .oracle import expr_to_machine, from_rational
from .prob import (
    DiscreteProbAlgorithm,
    ProbBranch,
    Sampler,
    empirical_frequency,
    outcome_mass,
    sample,
)
from .rational import _int, _text, parse_accuracy, parse_rational
from .relation import (
    RealEnumRel,
    enumerate_witnesses,
    make_finite_rel,
    make_tail_rel,
    member_semi,
)
from .speclang import ExprSpec, ProbSpec, RelSpec, parse_spec

__all__ = ["main", "run_command"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuses through UsageError, as run_command does; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


# Largest values the command line accepts for its size flags, by argparse
# dest; the library functions behind them take any size.  A natcheck round
# trip on geq at bound 100 makes 525,402 characteristic-function calls
# (13,117,678 when each related pair re-ran its own search), and enumerate
# keeps one entry per index up to --max-index.
_FLAG_CAPS = (("fuel", 10**6), ("n", 10**6), ("bound", 100), ("max_index", 10**5))


def _flag(parse):
    """An argparse type that reports parse's ValueError as its message."""
    def flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag


def _integer(text: str) -> int:
    """A decimal integer flag, read as parse_rational reads a numerator."""
    if not re.fullmatch(r"[+-]?\d+", text.strip()):
        raise ValueError(f"invalid int value: {text!r}")
    return _int(text.strip(), "integer")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first main() call and reused: parsing never changes it."""
    parser = _Parser(
        prog="realcomp",
        description="exact real computation: interval-query machines, "
        "enumerable relations, discrete probabilistic algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_args(p, x=True, y=False, accuracy=True, max_index=False,
                  seed=False, n=False):
        p.add_argument("--spec", required=True, metavar="FILE",
                       help="file holding one s-expression specification")
        if x:
            p.add_argument("--x", type=_flag(parse_rational), required=True,
                           help="first argument (exact rational)")
        if y:
            p.add_argument("--y", type=_flag(parse_rational), required=y == "required",
                           help="second argument / candidate (exact rational)")
        if accuracy:
            p.add_argument("--accuracy", type=_flag(parse_accuracy), required=True,
                           help="target accuracy: n/d or 2^-k")
        p.add_argument("--fuel", type=_flag(_integer), default=1000,
                       help="refinement step budget (default 1000, at most 10^6)")
        if max_index:
            p.add_argument("--max-index", type=_flag(_integer), default=10,
                           dest="max_index", help="last index of the search window "
                           "(default 10, at most 10^5)")
        if seed:
            p.add_argument("--seed", type=_flag(_integer), default=0, help="sampler seed")
        if n:
            p.add_argument("--n", type=_flag(_integer), default=1000,
                           help="number of samples (default 1000, at most 10^6)")

    p = sub.add_parser("eval", help="refine a machine at rational inputs")
    spec_args(p, y=True)

    p = sub.add_parser("domain", help="certified neighborhood inside the domain")
    spec_args(p, y=True, accuracy=False)

    p = sub.add_parser("enumerate", help="list witnesses of a relation at x")
    spec_args(p, max_index=True)

    p = sub.add_parser("member", help="search for an index relating x to y")
    spec_args(p, y="required", max_index=True)

    p = sub.add_parser("sample", help="draw one outcome of an algorithm at x")
    spec_args(p, seed=True)

    p = sub.add_parser("mass", help="certified outcome-mass bounds at (x, y)")
    spec_args(p, y="required")

    p = sub.add_parser("freq", help="empirical branch frequencies at x")
    spec_args(p, seed=True, n=True)

    p = sub.add_parser("natcheck", help="round-trip a relation over the naturals")
    p.add_argument("--construction", required=True, choices=["roundtrip"])
    p.add_argument("--relation", required=True, choices=sorted(RELATION_CATALOG))
    p.add_argument("--bound", type=_flag(_integer), required=True,
                   help="check all pairs with coordinates <= bound (at most 100)")
    p.add_argument("--fuel", type=_flag(_integer), default=10**6,
                   help="search budget (default 10^6, at most 10^6)")
    return parser


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from None
    return parse_spec(text)


def _expr_machine(spec, args) -> tuple:
    """Machine plus argument oracles for an expression spec."""
    if not isinstance(spec, ExprSpec):
        raise UsageError("this command needs an expression specification")
    if spec.arity > 2:
        raise UsageError("the command line supplies at most two arguments (--x, --y)")
    machine = expr_to_machine(spec.expr, spec.arity)
    oracles = [from_rational(args.x)]
    if spec.arity == 2:
        if args.y is None:
            raise UsageError("this specification takes two arguments; pass --y")
        oracles.append(from_rational(args.y))
    return machine, oracles


def _relation(spec) -> RealEnumRel:
    if not isinstance(spec, RelSpec):
        raise UsageError("this command needs a (tail ...) or (finite ...) specification")
    if spec.is_finite:
        return make_finite_rel(spec.heads)
    return make_tail_rel(spec.heads, spec.tail)


def _algorithm(spec) -> DiscreteProbAlgorithm:
    if not isinstance(spec, ProbSpec):
        raise UsageError("this command needs a (prob ...) specification")
    branches = [
        ProbBranch(expr_to_machine(expr, 1), mass) for mass, expr in spec.branches
    ]
    return DiscreteProbAlgorithm(tuple(branches))


def run_command(args) -> int:
    """Execute one parsed command; prints results, returns the exit code.

    Where a command needs a refinement result (eval, domain, sample,
    freq) and fuel runs out, it raises NoConvergenceError; main prints
    the status=no-convergence line for it and exits 1.
    """
    for flag, cap in _FLAG_CAPS:
        value = getattr(args, flag, None)
        if value is not None and value > cap:
            raise UsageError(
                f"--{flag.replace('_', '-')} must be <= {cap}, got {value}")
    if args.command == "natcheck":
        report = equivalence_report(
            relation_by_name(args.relation), args.bound, args.fuel
        )
        print(report.summary())
        return 0 if report.ok else 1

    spec = _load_spec(args.spec)

    if args.command == "eval":
        machine, oracles = _expr_machine(spec, args)
        outcome = _required(refine(machine, oracles, args.accuracy, args.fuel))
        print(f"r={_text(outcome.value)} eps={_text(outcome.accuracy)}")
        return 0

    if args.command == "domain":
        machine, oracles = _expr_machine(spec, args)
        boxes = _required(domain_neighborhood(machine, oracles, args.fuel))
        for k, interval in enumerate(boxes):
            print(f"arg={k} lo={_text(interval.lo)} hi={_text(interval.hi)}")
        return 0

    if args.command == "enumerate":
        rel = _relation(spec)
        listing = enumerate_witnesses(
            rel, from_rational(args.x), args.accuracy, args.max_index, args.fuel
        )
        by_index = {entry.index: entry for entry in listing.entries}
        last = rel.omega.clip(args.max_index)
        for i in range(last + 1):
            if i in by_index:
                entry = by_index[i]
                print(f"i={i} r={_text(entry.value)} eps={_text(entry.accuracy)}")
            else:
                print(f"i={i} status=skipped")
        return 0

    if args.command == "member":
        rel = _relation(spec)
        found = member_semi(
            rel,
            from_rational(args.x),
            from_rational(args.y),
            args.accuracy,
            args.max_index,
            args.fuel,
        )
        if found is not None:
            print(f"found=true index={found}")
            return 0
        print(f"found=false searched={rel.omega.clip(args.max_index) + 1}")
        return 1

    if args.command == "sample":
        alg = _algorithm(spec)
        index, value = sample(
            alg, from_rational(args.x), Sampler(args.seed), args.accuracy, args.fuel
        )
        print(f"index={index} r={_text(value)}")
        return 0

    if args.command == "mass":
        alg = _algorithm(spec)
        report = outcome_mass(
            alg,
            from_rational(args.x),
            from_rational(args.y),
            args.accuracy,
            args.fuel,
        )
        print(f"lower={_text(report.lower)} unknown={_text(report.unknown)}")
        return 0

    if args.command == "freq":
        alg = _algorithm(spec)
        counts = empirical_frequency(
            alg,
            from_rational(args.x),
            args.n,
            Sampler(args.seed),
            args.accuracy,
            args.fuel,
        )
        for i, count in enumerate(counts):
            print(f"i={i} count={count}")
        return 0

    raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run_command(_build_parser().parse_args(argv))
    except SystemExit:  # only --help exits; refusals raise UsageError
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoConvergenceError as exc:
        flag = "true" if exc.all_infinite else "false"
        print(f"status=no-convergence steps={exc.steps_taken} all_infinite={flag}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
