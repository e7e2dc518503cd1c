import subprocess
import sys

import pytest

from realcomp.cli import main

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
    # c - x folds to two catalog machines, the deepest compiled chain
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


def test_usage_errors_exit_2(capsys, spec_file):
    # bad rational flag
    path = spec_file(CHI_SPEC)
    code = main(["eval", "--spec", path, "--x", "0.5", "--accuracy", "1/4"])
    capsys.readouterr()
    assert code == 2
    # 2^-k beyond the exponent cap, refused before any power is built
    code, out, err = run_cli(
        capsys, ["eval", "--spec", path, "--x", "1", "--accuracy", "2^-10000000000"]
    )
    assert (code, out) == (2, "")
    assert "k <= 65536" in err
    # missing required flag
    code = main(["eval", "--spec", path, "--x", "1"])
    capsys.readouterr()
    assert code == 2
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
