"""Where a refinement result is required, fuel running out is one error.

Every site that needs a result raises NoConvergenceError (or, on the
command line, prints its status line) carrying exactly what refine or
domain_neighborhood returned.  Each module refines through its own
`refine` attribute, the point at which a caller can wrap it.
"""

import io
import re
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import realcomp
from realcomp import (
    NoConvergence,
    NoConvergenceError,
    ProbBranch,
    RepartitionMachine,
    Sampler,
    apply_machine,
    domain_neighborhood,
    empirical_frequency,
    enumerate_witnesses,
    expr_to_machine,
    from_rational,
    make_prob,
    make_tail_rel,
    member_semi,
    outcome_mass,
    parse_spec,
    refine,
    sample,
    witness,
)
from realcomp.cli import main

F = Fraction

# (spec, x, accuracy, fuel): chi-pos at x <= 0 never answers finitely;
# x + 1 answers finitely from the first step but not to 2^-10 in 3 steps.
DIVERGENT = ("(chi-pos (var 0))", F(-1), F(1, 4), 30)
STARVED = ("(add (var 0) (rat 1 1))", F(1, 3), F(1, 1024), 3)


def _raised(run):
    with pytest.raises(NoConvergenceError) as raised:
        run()
    return raised.value.steps_taken, raised.value.all_infinite


def _printed(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 1
    line = re.fullmatch(r"status=no-convergence steps=(\d+) all_infinite=(true|false)\n",
                        out.getvalue())
    return int(line[1]), line[2] == "true"


def _alg(machine):
    return make_prob([ProbBranch(machine, 1)])


# Each site, run on (machine of arity 1, the same expression at arity 2,
# x, accuracy, fuel, spec file), returns the (steps_taken, all_infinite)
# it reports.
SITES = {
    "apply_machine": lambda m, m2, x, acc, fuel, path: _raised(
        lambda: apply_machine(m, [from_rational(x)], fuel)(acc)),
    "sample": lambda m, m2, x, acc, fuel, path: _raised(
        lambda: sample(_alg(m), from_rational(x), Sampler(0), acc, fuel)),
    "empirical_frequency": lambda m, m2, x, acc, fuel, path: _raised(
        lambda: empirical_frequency(_alg(m), from_rational(x), 5, Sampler(0), acc, fuel)),
    "RepartitionMachine.evaluate": lambda m, m2, x, acc, fuel, path: _raised(
        lambda: RepartitionMachine(m2).evaluate(
            from_rational(x), from_rational(0), acc, fuel)),
    "cli eval": lambda m, m2, x, acc, fuel, path: _printed(
        ["eval", "--spec", path, "--x", str(x), "--accuracy", str(acc), "--fuel", str(fuel)]),
    "cli domain": lambda m, m2, x, acc, fuel, path: _printed(
        ["domain", "--spec", path, "--x", str(x), "--fuel", str(fuel)]),
}

# domain_neighborhood stops at the first finite answer, so when it runs
# out of fuel every answer was infinite: STARVED has no domain case.
CASES = [(site, "divergent") for site in SITES] + [
    (site, "starved") for site in SITES if site != "cli domain"
]


@pytest.mark.parametrize("site, case", CASES, ids=[f"{s}-{c}" for s, c in CASES])
def test_a_required_result_carries_the_no_convergence_of_refine(tmp_path, site, case):
    text, x, accuracy, fuel = DIVERGENT if case == "divergent" else STARVED
    path = tmp_path / "spec.sexp"
    path.write_text(text)
    expr = parse_spec(text).expr
    machine, machine2 = expr_to_machine(expr, 1), expr_to_machine(expr, 2)
    if site == "cli domain":
        expected = domain_neighborhood(machine, [from_rational(x)], fuel)
    elif site == "RepartitionMachine.evaluate":
        expected = refine(machine2, [from_rational(x), from_rational(0)], accuracy, fuel)
    else:
        expected = refine(machine, [from_rational(x)], accuracy, fuel)
    assert isinstance(expected, NoConvergence)
    assert expected.all_infinite == (case == "divergent")
    observed = SITES[site](machine, machine2, x, accuracy, fuel, str(path))
    assert observed == (expected.steps_taken, expected.all_infinite)


def test_each_module_refines_through_its_own_attribute(monkeypatch, tmp_path):
    counts = Counter()
    wrapped = [(realcomp.oracle, "refine"), (realcomp.prob, "refine"),
               (realcomp.relation, "refine"), (realcomp.cli, "refine"),
               (realcomp.cli, "domain_neighborhood")]
    for module, name in wrapped:
        def counted(*args, _site=f"{module.__name__}.{name}", _fn=getattr(module, name)):
            counts[_site] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)

    def seen(run):
        before = counts.copy()
        run()
        return dict(counts - before)

    identity = expr_to_machine(parse_spec("(var 0)").expr, 1)
    shifted = expr_to_machine(parse_spec("(add (var 0) (rat 1 1))").expr, 1)
    x, acc, fuel = from_rational(F(1, 3)), F(1, 64), 40
    alg = make_prob([ProbBranch(identity, F(1, 2)), ProbBranch(shifted, F(1, 2))])
    rel = make_tail_rel([parse_spec("(var 0)").expr], parse_spec("(neg (var 0))").expr)
    spec = tmp_path / "spec.sexp"
    spec.write_text("(var 0)")
    cli_args = ["--spec", str(spec), "--x", "1/3"]

    assert seen(lambda: apply_machine(identity, [x], fuel)(acc)) == {"realcomp.oracle.refine": 1}
    assert seen(lambda: sample(alg, x, Sampler(0), acc, fuel)) == {"realcomp.prob.refine": 1}
    assert seen(lambda: empirical_frequency(alg, x, 50, Sampler(0), acc, fuel)) == {
        "realcomp.prob.refine": 2}
    assert seen(lambda: outcome_mass(alg, x, x, acc, fuel)) == {"realcomp.prob.refine": 2}
    cdf = RepartitionMachine(expr_to_machine(parse_spec("(var 1)").expr, 2))
    assert seen(lambda: cdf.evaluate(x, x, acc, fuel)) == {"realcomp.prob.refine": 1}
    assert seen(lambda: witness(rel, x, 0, acc, fuel)) == {"realcomp.relation.refine": 1}
    assert seen(lambda: enumerate_witnesses(rel, x, acc, 5, fuel)) == {
        "realcomp.relation.refine": 2}
    assert seen(lambda: member_semi(rel, x, from_rational(5), acc, 5, fuel)) == {
        "realcomp.relation.refine": 2}
    with redirect_stdout(io.StringIO()):
        assert seen(lambda: main(["eval", *cli_args, "--accuracy", "1/64"])) == {
            "realcomp.cli.refine": 1}
        assert seen(lambda: main(["domain", *cli_args])) == {
            "realcomp.cli.domain_neighborhood": 1}
