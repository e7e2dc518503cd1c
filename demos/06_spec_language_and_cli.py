"""The machine-spec language and the command-line front end.

Machines, relations and algorithms can be written down as
s-expressions, stored in files, and driven from the shell.  This demo
parses a few specifications in-process and then invokes the CLI entry
point the way a shell would.
"""

import os
import tempfile
from pathlib import Path

from realcomp import format_spec, parse_spec
from realcomp.cli import main

SPECS = {
    "positivity test": "(chi-pos (var 0))",
    "band x<y<x+1": "(chi-pos (mul (sub (add (var 0) (rat 1 1)) (var 1)) "
                    "(sub (var 1) (var 0))))",
    "relation {x, x+1}": "(tail (var 0) (add (var 0) (rat 1 1)))",
    "fair x / x+1": "(prob (mass 1 2 (var 0)) (mass 1 2 (add (var 0) (rat 1 1))))",
}

print("parsing and canonically reprinting:")
for label, text in SPECS.items():
    ast = parse_spec(text)
    printed = format_spec(ast)
    assert parse_spec(printed) == ast
    print(f"  {label:>18}: {printed}")

print("\ndriving the CLI (exit code in brackets):")
with tempfile.TemporaryDirectory() as tmp:
    chi = Path(tmp, "chi.sexp")
    chi.write_text(SPECS["positivity test"])
    tail = Path(tmp, "tail.sexp")
    tail.write_text(SPECS["relation {x, x+1}"])
    prob = Path(tmp, "prob.sexp")
    prob.write_text(SPECS["fair x / x+1"])

    for argv in (
        ["eval", "--spec", str(chi), "--x", "1", "--accuracy", "2^-10"],
        ["eval", "--spec", str(chi), "--x", "-1", "--accuracy", "2^-10",
         "--fuel", "60"],
        ["domain", "--spec", str(chi), "--x", "1"],
        ["enumerate", "--spec", str(tail), "--x", "1/2",
         "--accuracy", "2^-10", "--max-index", "3"],
        ["member", "--spec", str(tail), "--x", "0", "--y", "1",
         "--accuracy", "2^-10", "--max-index", "5"],
        ["sample", "--spec", str(prob), "--x", "0", "--accuracy", "2^-6",
         "--seed", "7"],
        ["mass", "--spec", str(prob), "--x", "0", "--y", "0",
         "--accuracy", "2^-6"],
        ["freq", "--spec", str(prob), "--x", "0", "--accuracy", "2^-6",
         "--seed", "7", "--n", "1000"],
        ["natcheck", "--construction", "roundtrip", "--relation", "geq",
         "--bound", "15", "--fuel", "100000"],
    ):
        # spec files are shown by name, so the output does not vary by run
        print(f"\n$ realcomp {' '.join(argv).replace(tmp + os.sep, '')}")
        code = main(argv)
        print(f"[{code}]")
