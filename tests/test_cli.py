import io
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcomp.cli import _build_parser, main

from helpers import INT_DIGITS

CHI_SPEC = "(chi-pos (var 0))"
TAIL_SPEC = "(tail (var 0) (add (var 0) (rat 1 1)))"
PROB_SPEC = (
    "(prob (mass 1 4 (var 0)) (mass 1 4 (var 0)) "
    "(mass 1 4 (add (var 0) (rat 1 1))) (mass 1 4 (add (var 0) (rat 1 1))))"
)
BAND_SPEC = "(chi-pos (mul (sub (add (var 0) (rat 1 1)) (var 1)) (sub (var 1) (var 0))))"


@pytest.fixture
def spec_file(tmp_path):
    def write(text, name="spec.sexp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_golden(capsys, spec_file):
    path = spec_file(CHI_SPEC)
    argv = ["eval", "--spec", path, "--x", "1", "--accuracy", "1/1024"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == "r=1 eps=1/1024\n"
    # byte-identical across repeated runs
    assert run_cli(capsys, argv) == (code, out, "")


def test_enumerate_golden(capsys, spec_file):
    path = spec_file(TAIL_SPEC)
    argv = [
        "enumerate", "--spec", path, "--x", "1/2",
        "--accuracy", "1/1024", "--max-index", "5",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "i=0 r=1/2 eps=1/1024"
    assert lines[1:] == [f"i={i} r=3/2 eps=1/1024" for i in range(1, 6)]
    assert run_cli(capsys, argv) == (code, out, "")


def test_natcheck_golden(capsys):
    argv = [
        "natcheck", "--construction", "roundtrip",
        "--relation", "divisibility", "--bound", "20", "--fuel", "1000000",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == "OK 441/441\n"
    assert run_cli(capsys, argv) == (code, out, "")


def test_cli_runs_as_a_module_with_identical_bytes(spec_file):
    path = spec_file(CHI_SPEC)
    argv = [
        sys.executable, "-m", "realcomp",
        "eval", "--spec", path, "--x", "1", "--accuracy", "2^-10",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == b"r=1 eps=1/1024\n"
    assert first.stdout == second.stdout


def test_eval_two_argument_machine(capsys, spec_file):
    path = spec_file(BAND_SPEC)
    code, out, _ = run_cli(
        capsys,
        ["eval", "--spec", path, "--x", "0", "--y", "1/2", "--accuracy", "2^-6"],
    )
    assert code == 0
    assert out.startswith("r=1 eps=")


def test_eval_reports_no_convergence_with_exit_1(capsys, spec_file):
    path = spec_file(CHI_SPEC)
    code, out, _ = run_cli(
        capsys,
        ["eval", "--spec", path, "--x", "-1", "--accuracy", "1/4", "--fuel", "100"],
    )
    assert code == 1
    assert out == "status=no-convergence steps=100 all_infinite=true\n"


def test_domain_command(capsys, spec_file):
    path = spec_file(CHI_SPEC)
    code, out, _ = run_cli(capsys, ["domain", "--spec", path, "--x", "1"])
    assert code == 0
    assert out == "arg=0 lo=1/2 hi=3/2\n"
    code, out, _ = run_cli(
        capsys, ["domain", "--spec", path, "--x", "0", "--fuel", "50"]
    )
    assert code == 1
    assert "no-convergence" in out


def test_a_zero_factor_is_undefined_where_the_other_factor_is(capsys, spec_file):
    path = spec_file("(mul (rat 0 1) (chi-pos (var 0)))")
    diverges = (1, "status=no-convergence steps=30 all_infinite=true\n", "")
    argv = ["--spec", path, "--x", "-1", "--fuel", "30"]
    assert run_cli(capsys, ["eval", "--accuracy", "1/4"] + argv) == diverges
    assert run_cli(capsys, ["domain"] + argv) == diverges
    argv = ["--spec", path, "--x", "1", "--fuel", "30"]
    assert run_cli(capsys, ["eval", "--accuracy", "1/4"] + argv) == (0, "r=0 eps=9/64\n", "")
    assert run_cli(capsys, ["domain"] + argv) == (0, "arg=0 lo=1/2 hi=3/2\n", "")


def test_member_command_exit_codes(capsys, spec_file):
    path = spec_file(TAIL_SPEC)
    base = ["member", "--spec", path, "--x", "0", "--accuracy", "2^-10",
            "--max-index", "5"]
    code, out, _ = run_cli(capsys, base + ["--y", "1"])
    assert (code, out) == (0, "found=true index=1\n")
    code, out, _ = run_cli(capsys, base + ["--y", "1/2"])
    assert (code, out) == (1, "found=false searched=6\n")
    # a negative window is a usage error, as it is for enumerate
    negative = base[:-1] + ["-1", "--y", "1"]
    assert run_cli(capsys, negative) == (2, "", "error: max_index must be >= 0, got -1\n")


def test_sample_and_freq_are_seed_deterministic(capsys, spec_file):
    path = spec_file(PROB_SPEC)
    argv = ["sample", "--spec", path, "--x", "0", "--accuracy", "2^-6", "--seed", "11"]
    first = run_cli(capsys, argv)
    assert first[0] == 0
    assert first == run_cli(capsys, argv)

    argv = ["freq", "--spec", path, "--x", "0", "--accuracy", "2^-6",
            "--seed", "11", "--n", "2000"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert sum(int(line.split("count=")[1]) for line in lines) == 2000
    # pinned, so that selecting a branch off by one at a cut point fails
    assert out == "i=0 count=512\ni=1 count=501\ni=2 count=491\ni=3 count=496\n"
    assert (code, out, "") == run_cli(capsys, argv)


def test_mass_command(capsys, spec_file):
    path = spec_file(PROB_SPEC)
    code, out, _ = run_cli(
        capsys,
        ["mass", "--spec", path, "--x", "0", "--y", "0", "--accuracy", "2^-6"],
    )
    assert (code, out) == (0, "lower=1/2 unknown=0\n")


def test_parse_errors_exit_2(capsys, spec_file):
    path = spec_file("(add (var 0")
    code, out, err = run_cli(
        capsys, ["eval", "--spec", path, "--x", "1", "--accuracy", "1/4"]
    )
    assert code == 2
    assert out == ""
    assert "unclosed" in err


def nested(depth, op="neg"):
    """A spec nesting `depth` lists: depth - 1 applications over (var 0)."""
    if op == "neg":
        return "(neg " * (depth - 1) + "(var 0)" + ")" * (depth - 1)
    # c - x, nested: one linear region, compiled to one affine step
    return "(sub (rat 1 1) " * (depth - 1) + "(var 0)" + ")" * (depth - 1)


def test_nesting_past_the_cap_exits_2_without_a_traceback(spec_file):
    path = spec_file(nested(3000))
    result = subprocess.run(
        [sys.executable, "-m", "realcomp", "eval", "--spec", path,
         "--x", "1", "--accuracy", "1/4"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: line 1, col ")
    assert "nesting deeper than 512" in result.stderr
    assert "Traceback" not in result.stderr


def test_nesting_up_to_the_cap_evaluates(capsys, spec_file):
    argv = ["--x", "1/3", "--accuracy", "1/4"]
    path = spec_file(nested(500))  # 499 negations
    assert run_cli(capsys, ["eval", "--spec", path] + argv) == (0, "r=-1/3 eps=1/4\n", "")
    path = spec_file(nested(512, "sub"))  # x -> 1 - x, 511 times
    assert run_cli(capsys, ["eval", "--spec", path] + argv) == (0, "r=2/3 eps=1/4\n", "")
    path = spec_file(nested(513))
    code, out, err = run_cli(capsys, ["eval", "--spec", path] + argv)
    assert (code, out) == (2, "")
    # the 513th '(' follows 512 copies of "(neg "
    assert err == "error: line 1, col 2561: nesting deeper than 512\n"


def test_answers_longer_than_the_int_digit_limit_print_in_full(capsys, spec_file):
    # str() of an int refuses more than 4300 digits; 2^15000 has 4516
    digits = f"{Decimal(1 << 15000):f}"
    assert len(digits) == 4516
    argv = ["--x", "1/3", "--fuel", "20000"]
    path = spec_file("(var 0)")
    assert run_cli(capsys, ["eval", "--spec", path, "--accuracy", "2^-15000"] + argv) == (
        0, f"r=1/3 eps=1/{digits}\n", "")
    path = spec_file("(mul (var 0) (var 0))")
    code, out, err = run_cli(capsys, ["eval", "--spec", path, "--accuracy", "2^-8000"] + argv)
    assert (code, err) == (0, "") and out.startswith("r=1/9 eps=")
    num, den = out.split("eps=")[1].split("/")
    assert len(den) > 4300 and int(Decimal(num)) << 8000 <= int(Decimal(den))


@pytest.mark.skipif(not INT_DIGITS, reason="no int-to-string limit")
def test_numeric_flags_past_the_int_digit_limit_get_a_message_of_their_own(
        capsys, spec_file):
    # one digit past the limit; Python's own text advises a call no CLI user can make
    long = "7" * (INT_DIGITS + 1)
    path = spec_file("(var 0)")
    prob = spec_file(PROB_SPEC, "prob.sexp")
    tail = spec_file(TAIL_SPEC, "tail.sexp")
    ev = ["eval", "--spec", path]
    evals = ev + ["--x", "1", "--accuracy", "1/4"]
    draws = ["--spec", prob, "--x", "0", "--accuracy", "1/4"]
    cases = [
        (ev + ["--x", f"1/{long}", "--accuracy", "1/4"], "--x: denominator too long"),
        (ev + ["--x", f"-{long}", "--accuracy", "1/4"], "--x: numerator too long"),
        (ev + ["--x", "1", "--accuracy", f"{long}/3"], "--accuracy: numerator too long"),
        (ev + ["--x", "1", "--accuracy", f"1/{long}"], "--accuracy: denominator too long"),
        (ev + ["--x", "1", "--accuracy", f"2^-{long}"], "--accuracy: exponent of 2^-k too long"),
        (evals + ["--fuel", long], "--fuel: integer too long"),
        (evals + ["--fuel", f"-{long}"], "--fuel: integer too long"),
        (["freq"] + draws + ["--n", long], "--n: integer too long"),
        (["sample"] + draws + ["--seed", f"+{long}"], "--seed: integer too long"),
        (["enumerate", "--spec", tail, "--x", "0", "--accuracy", "1/4",
          "--max-index", long], "--max-index: integer too long"),
        (["natcheck", "--construction", "roundtrip", "--relation", "geq",
          "--bound", long], "--bound: integer too long"),
    ]
    for argv, message in cases:
        # one line of the project's own, neither the digits nor Python's advice
        assert run_cli(capsys, argv) == (
            2, "", f"error: argument {message}: {INT_DIGITS + 1} digits\n")


def logistic_spec(k):
    """The k-th iterate of x -> 15/4 x (1 - x) as a spec: a tree of 2^k leaves."""
    x = "(var 0)"
    for _ in range(k):
        x = f"(mul (rat 15 4) (mul {x} (sub (rat 1 1) {x})))"
    return x


def test_a_deep_logistic_spec_evaluates_at_bounded_size(capsys, spec_file):
    # exact, the answer would have 233,471 accuracy bits
    path = spec_file(logistic_spec(12))
    argv = ["eval", "--spec", path, "--x", "1/3", "--accuracy", "2^-32", "--fuel", "400"]
    assert run_cli(capsys, argv) == (
        0,
        "r=4473866386159725779895/9444732965739290427392 "
        "eps=506824243035/2361183241434822606848\n",
        "",
    )


def test_usage_errors_exit_2(capsys, spec_file):
    # bad rational flag: one line, as every refusal, with no usage text
    path = spec_file(CHI_SPEC)
    assert run_cli(capsys, ["eval", "--spec", path, "--x", "0.5", "--accuracy", "1/4"]) == (
        2, "", "error: argument --x: not a rational: '0.5' (expected 'n' or 'n/d')\n")
    # 2^-k beyond the exponent cap, refused before any power is built
    code, out, err = run_cli(
        capsys, ["eval", "--spec", path, "--x", "1", "--accuracy", "2^-10000000000"]
    )
    assert (code, out) == (2, "")
    assert "k <= 65536" in err
    # missing required flag
    assert run_cli(capsys, ["eval", "--spec", path, "--x", "1"]) == (
        2, "", "error: the following arguments are required: --accuracy\n")
    # unknown command; later argparse versions may list the choices with str()
    names = ["eval", "domain", "enumerate", "member", "sample", "mass", "freq", "natcheck"]
    code, out, err = run_cli(capsys, ["bogus"])
    assert (code, out) == (2, "")
    assert err in [
        f"error: argument command: invalid choice: 'bogus' (choose from {listed})\n"
        for listed in (", ".join(map(repr, names)), ", ".join(names))]
    # --help is no refusal: its text on stdout, exit 0
    code, out, err = run_cli(capsys, ["eval", "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: realcomp eval ")
    # relation spec fed to eval
    path = spec_file(TAIL_SPEC)
    code, out, err = run_cli(
        capsys, ["eval", "--spec", path, "--x", "1", "--accuracy", "1/4"]
    )
    assert code == 2
    assert "expression specification" in err
    # three-argument machines exceed the flag surface
    path = spec_file("(add (var 0) (var 2))")
    code, out, err = run_cli(
        capsys, ["eval", "--spec", path, "--x", "1", "--accuracy", "1/4"]
    )
    assert code == 2
    # bad mass sum
    path = spec_file("(prob (mass 1 2 (var 0)) (mass 1 3 (var 0)))")
    code, out, err = run_cli(
        capsys, ["sample", "--spec", path, "--x", "0", "--accuracy", "1/4"]
    )
    assert code == 2
    assert "masses sum" in err
    # unreadable file
    code, out, err = run_cli(
        capsys, ["eval", "--spec", "/nonexistent/x.sexp", "--x", "1", "--accuracy", "1/4"]
    )
    assert code == 2
    # size caps: --fuel and --n at most 10^6, natcheck --bound at most 100;
    # --fuel at its cap is accepted where the run converges at once
    path = spec_file(CHI_SPEC)
    argv = ["eval", "--spec", path, "--x", "1", "--accuracy", "1/4", "--fuel"]
    assert run_cli(capsys, argv + ["1000000"]) == (0, "r=1 eps=1/4\n", "")
    assert run_cli(capsys, argv + ["1000001"]) == (
        2, "", "error: --fuel must be <= 1000000, got 1000001\n")
    path = spec_file(PROB_SPEC)
    argv = ["freq", "--spec", path, "--x", "0", "--accuracy", "1/4", "--n"]
    assert run_cli(capsys, argv + ["1000001"]) == (
        2, "", "error: --n must be <= 1000000, got 1000001\n")
    argv = ["natcheck", "--construction", "roundtrip", "--relation", "geq", "--bound"]
    assert run_cli(capsys, argv + ["101"]) == (
        2, "", "error: --bound must be <= 100, got 101\n")
    assert run_cli(capsys, argv + ["5", "--fuel", "1000001"]) == (
        2, "", "error: --fuel must be <= 1000000, got 1000001\n")
    # --max-index at most 10^5, named as typed; a finite relation clips the
    # window, so the cap itself is accepted at no cost
    path = spec_file("(finite (var 0))")
    refused = (2, "", "error: --max-index must be <= 100000, got 100001\n")
    argv = ["enumerate", "--spec", path, "--x", "1", "--accuracy", "1/4", "--max-index"]
    assert run_cli(capsys, argv + ["100000"]) == (0, "i=0 r=1 eps=1/4\n", "")
    assert run_cli(capsys, argv + ["100001"]) == refused
    argv = ["member", "--spec", path, "--x", "1", "--y", "1", "--accuracy", "1/4",
            "--max-index"]
    assert run_cli(capsys, argv + ["100000"]) == (0, "found=true index=0\n", "")
    assert run_cli(capsys, argv + ["100001"]) == refused


def test_missing_second_argument_is_a_usage_error(capsys, spec_file):
    path = spec_file(BAND_SPEC)
    code, out, err = run_cli(
        capsys, ["eval", "--spec", path, "--x", "0", "--accuracy", "1/4"]
    )
    assert code == 2
    assert "--y" in err


def test_one_parser_serves_every_call_with_the_same_bytes(capsys, spec_file):
    chi = spec_file(CHI_SPEC, "chi.sexp")
    tail = spec_file(TAIL_SPEC, "tail.sexp")
    prob = spec_file(PROB_SPEC, "prob.sexp")
    goldens = [
        (["eval", "--spec", chi, "--x", "1", "--accuracy", "1/1024"],
         "r=1 eps=1/1024\n"),
        (["domain", "--spec", chi, "--x", "1"], "arg=0 lo=1/2 hi=3/2\n"),
        (["enumerate", "--spec", tail, "--x", "1/2", "--accuracy", "1/1024",
          "--max-index", "1"], "i=0 r=1/2 eps=1/1024\ni=1 r=3/2 eps=1/1024\n"),
        (["member", "--spec", tail, "--x", "0", "--y", "1", "--accuracy", "2^-10"],
         "found=true index=1\n"),
        (["mass", "--spec", prob, "--x", "0", "--y", "0", "--accuracy", "2^-6"],
         "lower=1/2 unknown=0\n"),
        (["sample", "--spec", prob, "--x", "0", "--accuracy", "2^-6", "--seed", "11"],
         "index=1 r=0\n"),
        (["freq", "--spec", prob, "--x", "0", "--accuracy", "2^-6", "--seed", "11",
          "--n", "2000"], "i=0 count=512\ni=1 count=501\ni=2 count=491\ni=3 count=496\n"),
        (["natcheck", "--construction", "roundtrip", "--relation", "divisibility",
          "--bound", "20"], "OK 441/441\n"),
    ]
    refusals = [
        ["eval", "--spec", chi, "--x", "0.5", "--accuracy", "1/4"],
        ["eval", "--spec", chi, "--x", "1", "--accuracy", "1/4", "--fuel", "1000001"],
        ["freq", "--help"],
        ["member", "--spec", tail, "--x", "0", "--accuracy", "1/4"],
        ["--help"],
        ["bogus"],
        ["natcheck", "--construction", "roundtrip", "--relation", "geq", "--bound", "101"],
        ["eval", "--spec", chi + ".missing", "--x", "1", "--accuracy", "1/4"],
    ]
    passes = []
    for _ in range(2):
        results = []
        for (argv, expected), refused in zip(goldens, refusals):
            assert run_cli(capsys, argv) == (0, expected, "")
            results.append(run_cli(capsys, refused))
        passes.append(results)
    assert passes[0] == passes[1]
    codes = [code for code, _, _ in passes[0]]
    assert codes == [2, 2, 0, 2, 0, 2, 2, 2]
    assert passes[0][1] == (2, "", "error: --fuel must be <= 1000000, got 1000001\n")
    assert passes[0][2][1].startswith("usage: realcomp freq ")
    assert passes[0][4][1].startswith("usage: realcomp ")
    assert passes[0][0] == (
        2, "", "error: argument --x: not a rational: '0.5' (expected 'n' or 'n/d')\n")
    assert _build_parser() is _build_parser()


# --- argv fuzzing ------------------------------------------------------------------

COMMAND_FLAGS = {
    "eval": ["--spec", "--x", "--y", "--accuracy", "--fuel"],
    "domain": ["--spec", "--x", "--y", "--fuel"],
    "enumerate": ["--spec", "--x", "--accuracy", "--fuel", "--max-index"],
    "member": ["--spec", "--x", "--y", "--accuracy", "--fuel", "--max-index"],
    "sample": ["--spec", "--x", "--accuracy", "--fuel", "--seed"],
    "mass": ["--spec", "--x", "--y", "--accuracy", "--fuel"],
    "freq": ["--spec", "--x", "--accuracy", "--fuel", "--seed", "--n"],
    "natcheck": ["--construction", "--relation", "--bound", "--fuel"],
}


def mostly(valid, invalid):
    """Draws from `valid` about nine times in ten, else from `invalid`."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 9 else valid)


RATIONALS = mostly(
    st.one_of(
        st.integers(-9, 9).map(str),
        st.tuples(st.integers(-99, 99), st.integers(1, 99)).map("{0[0]}/{0[1]}".format),
    ),
    st.sampled_from(["0.5", "1/0", "1/-2", "", "x", "2^-3", "1 / 2", "--", "1e3"]),
)
ACCURACIES = mostly(
    st.one_of(
        st.integers(0, 20).map("2^-{}".format),
        st.tuples(st.integers(1, 9), st.integers(1, 99)).map("{0[0]}/{0[1]}".format),
    ),
    st.sampled_from(["0", "-1/4", "2^-", "2^3", "2^-65537", "2^-10000000000", "1/0"]),
)


def sizes(limit, cap):
    """Values up to `limit` that keep a run fast, negatives, and over-cap sizes."""
    return mostly(
        st.integers(0, limit).map(str),
        st.sampled_from(["-1", "-3", str(cap + 1), str(10**30), "1.5", "ten", ""]),
    )


# spec files each command reads; the other files are refused with exit 2
SPEC_KINDS = {
    "eval": ["chi", "band"], "domain": ["chi", "band"],
    "enumerate": ["tail", "finite"], "member": ["tail", "finite"],
    "sample": ["prob", "divergent-prob"], "mass": ["prob", "divergent-prob"],
    "freq": ["prob", "divergent-prob"],
}


@pytest.fixture(scope="module")
def fuzz_specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    texts = {
        "chi": CHI_SPEC,
        "band": BAND_SPEC,
        "tail": TAIL_SPEC,
        "finite": "(finite (var 0) (neg (var 0)))",
        "prob": PROB_SPEC,
        "divergent-prob": "(prob (mass 1 2 (chi-pos (var 0))) (mass 1 2 (var 0)))",
        "bad-mass": "(prob (mass 1 2 (var 0)) (mass 1 3 (var 0)))",
        "three-args": "(add (var 0) (var 2))",
        "unclosed": "(add (var 0)",
        "too-deep": nested(600),
        "empty": "",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = root / f"{name}.sexp"
        paths[name].write_text(text)
    paths["undecodable"] = root / "undecodable.sexp"
    paths["undecodable"].write_bytes(b"(var \xff\xfe 0)")
    paths["directory"] = root
    paths["missing"] = root / "missing.sexp"
    return {name: str(path) for name, path in paths.items()}


def flag_values(command, specs):
    valid = [specs[name] for name in SPEC_KINDS.get(command, [])]
    return {
        "--spec": mostly(st.sampled_from(valid or sorted(specs.values())),
                         st.sampled_from(sorted(specs.values()))),
        "--x": RATIONALS,
        "--y": RATIONALS,
        "--accuracy": ACCURACIES,
        "--fuel": sizes(50, 10**6),
        "--max-index": sizes(50, 10**5),
        "--n": sizes(50, 10**6),
        "--seed": mostly(st.integers(-(2**70), 2**70).map(str), st.just("s")),
        "--bound": sizes(5, 100),
        "--construction": mostly(st.just("roundtrip"), st.just("other")),
        "--relation": mostly(st.sampled_from(["equality", "divisibility", "geq"]),
                             st.just("lt")),
    }


@st.composite
def argvs(draw, specs):
    # mostly a command with its own flags; sometimes an unknown command, a
    # flag left out, a foreign flag, a flag without its value, or --help
    rng = draw(st.randoms(use_true_random=True))
    command = draw(mostly(st.sampled_from(sorted(COMMAND_FLAGS)), st.just("bogus")))
    values = flag_values(command, specs)
    chosen = [f for f in COMMAND_FLAGS.get(command, []) if rng.random() < 0.95]
    if rng.random() < 0.1:
        chosen.append(rng.choice(sorted(values)))
    rng.shuffle(chosen)
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if rng.random() < 0.97:
            argv.append(draw(values[flag]))
    if rng.random() < 0.03:
        argv.insert(rng.randint(0, len(argv)), "--help")
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_exits_0_1_or_2_and_reports_errors_on_stderr(fuzz_specs, data):
    argv = data.draw(argvs(fuzz_specs))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    err = err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]*\n", err)
    else:
        assert err == ""
