"""The realcomp benchmark.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 35 --trace 0

Run from the root of a realcomp checkout; realcomp is imported from
``src/``.  Workloads (see `workloads.MIXES` and BENCHMARK.json):

* ``deep``: compile and refine iterated logistic DAGs (library API);
* ``spec_mix``: the CLI in-process on generated spec files;
* ``semidecide``: divergent and near-boundary refinement, computed-real
  membership search and the natural-number round trip (library API).

Each is a closed loop: one caller, one thread, the next op issued when
the previous one returns.  Ops come in seeded, shuffled rounds; a run
stops at the first round boundary after ``--seconds`` of measured op
time and at least MIN_OPS ops.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
list of ops once untraced and twice traced, prints the per-layer metrics
of the first traced pass, and fails if the two traced passes disagree on
any count.  The last stdout line is the JSON result; the lines before it
are a readable report and the run context.  Exit status is 0 when a
result was printed, 1 on a benchmark error, 2 when there is no realcomp
source to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
SETUP_REPS = 11
TRACE_MIN_OPS = 100

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]


class BenchError(RuntimeError):
    pass


def realcomp_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "realcomp" or name.startswith("realcomp.")}


def import_realcomp():
    """A fresh import of the realcomp package from the checkout's src/."""
    for name in realcomp_modules():
        del sys.modules[name]
    package = importlib.import_module("realcomp")
    importlib.import_module("realcomp.cli")
    return package


def setup(workload: str, seed: int, workdir: Path):
    """One set-up: import realcomp afresh, generate the first round and
    write its spec files.  Returns its time and the state it made."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = perf_counter()
    rc = import_realcomp()
    stream = workloads.Stream(workload, seed, workdir)
    first = stream.round()
    return perf_counter() - start, rc, stream, first


def repeat_setup(workload: str, seed: int, workdir: Path) -> float:
    """Time one more set-up in the middle of a run, then put back the
    realcomp modules the run uses and drop what the set-up made."""
    kept = realcomp_modules()
    try:
        elapsed = setup(workload, seed, workdir)[0]
    finally:
        for name in realcomp_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()
    return elapsed


class Runner:
    """Executes ops, times the realcomp call alone, checks every output."""

    def __init__(self, rc):
        self.rc = rc
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}  # kind -> (op, normalised output) of a passed op
        self.first_failure = None

    def run(self, op, tracer=None) -> float:
        kind = workloads.KINDS[op.kind]
        thunk = kind.prepare(self.rc, op)
        if tracer is not None:
            tracer.begin_op(op.ident)
        error = None
        start = perf_counter()
        try:
            raw = thunk()
        except Exception:  # an unexpected exception is a failed op
            error = traceback.format_exc()
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.attempted += 1
        norm, ok = None, False
        if error is None:
            try:
                norm = kind.normalise(raw)
                ok = kind.check(op, norm)
            except Exception:  # an output of the wrong shape is a failed op
                error = traceback.format_exc()
        if ok:
            self.samples.setdefault(op.kind, (op, norm))
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = (op.kind, op.ident, error or repr(norm))
        return elapsed

    def self_check(self):
        """Wrong answers must fail the check that good ones pass."""
        for kind_name, (op, norm) in self.samples.items():
            kind = workloads.KINDS[kind_name]
            for wrong in kind.perturb(op, norm):
                if kind.check(op, wrong):
                    raise BenchError(f"self-check: the {kind_name} check accepts "
                                     f"a perturbed answer {wrong!r}")


def host_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-integer loop.  Not a metric: a gauge of
    how fast the shared host ran, for reading the spread between runs."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def percentile_report(latencies) -> dict:
    cuts = statistics.quantiles(latencies, n=10)
    return {"p50_ms": cuts[4] * 1e3, "p90_ms": cuts[8] * 1e3,
            "samples": len(latencies),
            "samples_above_p90": sum(1 for v in latencies if v > cuts[8])}


def timed_run(workload: str, seed: int, workdir: Path, seconds: float) -> tuple:
    """The untraced run.  Set-up is timed SETUP_REPS times: once before
    the first op and once after each further 1/SETUP_REPS of the measured
    time, so that its median sees the same host conditions as the ops."""
    setup_s, rc, stream, ops = setup(workload, seed, workdir)
    setup_times = [setup_s]
    spare = workdir.with_name(workdir.name + "-setup")
    runner = Runner(rc)
    latencies, by_kind = [], {}
    gc.collect()
    while True:
        for op in ops:
            latencies.append(runner.run(op))
            by_kind.setdefault(op.kind, []).append(latencies[-1])
        measured = sum(latencies)
        if measured >= seconds and len(latencies) >= MIN_OPS:
            break
        if len(setup_times) < SETUP_REPS and measured >= seconds * len(setup_times) / SETUP_REPS:
            setup_times.append(repeat_setup(workload, seed, spare))
        ops = stream.round()
    while len(setup_times) < SETUP_REPS:
        setup_times.append(repeat_setup(workload, seed, spare))
    runner.self_check()
    pct = percentile_report(latencies)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": pct["p50_ms"],
        "latency_p90_ms": pct["p90_ms"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": 1 - runner.failed / runner.attempted,
    }
    units = dict(END_TO_END)
    report = {
        "fail_ratio": runner.failed / runner.attempted,
        "ops_per_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
        "latency": pct,
        "measured_s": sum(latencies),
    }
    return runner, metrics, units, report


def traced_run(rc, stream, first, workload: str) -> tuple:
    ops = list(first)
    while len(ops) < TRACE_MIN_OPS:
        ops.extend(stream.round())
    runner = Runner(rc)
    gc.collect()
    untraced = sum(runner.run(op) for op in ops)
    tracer = tracing.Tracer(rc)
    passes = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            gc.collect()
            elapsed = sum(runner.run(op, tracer) for op in ops)
            tracer.check_required(workload)
            passes.append((elapsed, tracer.metrics()))
    finally:
        tracer.uninstall()
    runner.self_check()
    (elapsed, metrics), (_, again) = passes
    units = tracing.UNITS
    counts = [name for name in metrics if units[name] not in tracing.TIMED_UNITS]
    differ = [name for name in counts if metrics[name] != again[name]]
    if differ:
        raise BenchError("counts differ between two traced passes: " + ", ".join(
            f"{name} {metrics[name]} != {again[name]}" for name in differ))
    metrics["trace.ops_per_s"] = len(ops) / elapsed
    metrics["trace.overhead_ops_per_s"] = len(ops) / elapsed - len(ops) / untraced
    report = {
        "fail_ratio": runner.failed / runner.attempted,
        "ops_per_kind": dict(sorted(Counter(op.kind for op in ops).items())),
        "untraced_ops_per_s": len(ops) / untraced,
        "traced_passes": 2,
        "counts_repeat": True,
    }
    return runner, metrics, units, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "realcomp" / "__init__.py").is_file():
        print(f"error: no realcomp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    host_before = host_loop_ms()
    try:
        if args.trace:
            _, rc, stream, first = setup(args.workload, args.seed, workdir)
            runner, metrics, units, report = traced_run(rc, stream, first, args.workload)
        else:
            runner, metrics, units, report = timed_run(
                args.workload, args.seed, workdir, args.seconds)
    except (BenchError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if runner.first_failure is not None:
        kind, ident, detail = runner.first_failure
        print(f"first failure: op {ident} ({kind}): {detail}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "setup_reps": SETUP_REPS,
        "host_loop_ms": [host_before, host_loop_ms()],
    } | report
    print("context " + json.dumps(context, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
