#!/usr/bin/env python3
"""pdescent benchmark: three closed-loop workloads, timed end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload tower-p2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Workloads (see workloads.py): `tower-p2` runs `descend` on a V=256 tower,
`cyclic-p3` runs `cyclic --depth 128` at p = 3, `expansion` runs Cheeger
and relative-size diagnostics on a fixed V=256 cover.  One process runs
one workload, one op at a time (a closed loop with a single client), with
BLAS pinned to one thread and successive ops placed on alternate CPUs.  Every op gets its own input, derived from
--seed and its op number.

With --trace 0 the run reports the end-to-end metrics: solve_s (median
wall seconds per timed op), setup_s (script start to the first timed op:
imports, plus the median of SETUP_REPEATS rounds of building the shared
inputs and one warm-up op) and peak_rss_mb.  With --trace 1 each input
runs once untraced and once traced, and the run reports the per-layer
metrics of spans.py; the spans are written to .bench_build/ as JSON
lines.  Every op, warm-up and traced ones included, is checked by the
workload's oracles; failures are counted in `failed` and printed as
error_rate, which is not a declared metric because it is 0 on correct
code.

Standard output carries one JSON record per op (its input, time and
oracle verdict), the environment and shape records, a readable summary,
and as its last line the result object.  `--replay K` reruns op K of a
workload and seed on its own.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import numpy as np
    import pdescent

    import spans
    import workloads
except ImportError as exc:
    print(f"bench: cannot import pdescent from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if os.path.dirname(os.path.abspath(pdescent.__file__)) != os.path.join(SRC, "pdescent"):
    print(f"bench: pdescent resolved to {pdescent.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

IMPORT_S = time.perf_counter() - _T0
SETUP_REPEATS = 3
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CPUS = sorted(os.sched_getaffinity(0))
NO_WAIT_NOTE = (
    "the library is single-threaded with no queues, waits or retries, "
    "so no wait or retry metrics are recorded"
)


def use_cpus(cpus):
    """Run this process on the given CPUs from now on.

    Successive ops go to alternate CPUs: on a shared host each CPU's speed
    drifts on its own, in phases of seconds, and a run that spreads its
    ops over every CPU averages those drifts, so its median varies less
    from run to run.
    """
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # affinity may be fixed by the environment
        pass


def nth_cpu(k: int) -> set[int]:
    return {CPUS[k % len(CPUS)]}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_alternated": CPUS,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Run:
    """One workload in this process: set-up, the op loop, and its records."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.workdir = os.path.join(BUILD_DIR, f"work-{os.getpid()}")
        self.wl = workloads.WORKLOADS[name](seed, tiny, self.workdir)
        self.records: list[dict] = []
        self.first_out = None  # op 0's result, for the shape record
        self.seen: dict[str, str] = {}  # input record -> result fingerprint

    def setup(self, repeats: int) -> float:
        """Set up `repeats` times; returns the median round's seconds.

        A round builds the shared inputs and warms up with a run of op 0.
        The first round is the process's first (cold) run of the library
        at full size, which also pays the allocator's growth to the op's
        working set.  Warm-up ops are checked and counted like timed ops,
        and every run of op 0 must give the same result byte for byte.
        """
        times = []
        for r in range(repeats):
            use_cpus(nth_cpu(r))
            t = time.perf_counter()
            self.wl.setup()
            self.op(0, self.wl.prepare(0), phase="warmup")
            times.append(time.perf_counter() - t)
        return statistics.median(times)

    def same_as_before(self, inp, out) -> str | None:
        """Identical inputs must give byte-identical results."""
        key = json.dumps(self.wl.describe(inp), sort_keys=True)
        got = self.wl.fingerprint(out)
        want = self.seen.setdefault(key, got)
        return None if got == want else "result differs from an earlier run of the same input"

    def op(self, k: int, inp, tracer: spans.Tracer | None = None, phase: str = "timed") -> float:
        """Run op k once, check it, and record it; returns its wall seconds."""
        out, error = None, None
        if tracer is None:
            t = time.perf_counter()
            try:
                out = self.wl.execute(inp)
            except Exception:  # a failed op is counted and reported, not fatal
                error = traceback.format_exc()
            seconds = time.perf_counter() - t
        else:
            phase = "traced"
            patches = spans.install(tracer)
            tracer.begin_op(k)
            try:
                out = self.wl.execute(inp)
            except Exception:
                error = traceback.format_exc()
            finally:
                seconds = tracer.end_op()
                spans.uninstall(patches)
        if error is None:
            try:
                error = self.wl.check(inp, out) or self.same_as_before(inp, out)
            except Exception:  # a malformed result fails its oracle
                error = traceback.format_exc()
            if k == 0:
                self.first_out = out
        self.records.append(
            {
                "op": k,
                "phase": phase,
                "seconds": seconds,
                "ok": error is None,
                "error": error,
                "input": self.wl.describe(inp),
            }
        )
        return seconds

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        use_cpus(CPUS)


def timed_run(run: Run, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    setup_s = IMPORT_S + run.setup(SETUP_REPEATS)
    deadline = time.perf_counter() + seconds
    k = 0
    op_times = []
    while k == 0 or time.perf_counter() < deadline:
        use_cpus(nth_cpu(k))
        op_times.append(run.op(k, run.wl.prepare(k)))
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "solve_s": (statistics.median(op_times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def traced_run(run: Run, seconds: float, tracer: spans.Tracer) -> dict:
    """Per-layer metrics: each input runs untraced and traced, in alternating order."""
    run.setup(1)
    deadline = time.perf_counter() + seconds
    k = 0
    plain, traced, per_op = [], [], []
    while k == 0 or time.perf_counter() < deadline:
        use_cpus(nth_cpu(k))
        inp = run.wl.prepare(k)
        if k % 2:
            plain.append(run.op(k, inp))
        traced.append(run.op(k, inp, tracer))
        per_op.append(tracer.op_metrics())
        if not k % 2:
            plain.append(run.op(k, inp))
        k += 1
    units = dict(spans.PER_LAYER)
    metrics = {
        name: (statistics.median(m[name] for m in per_op), units[name])
        for name in per_op[0]
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return {name: metrics[name] for name, _ in spans.PER_LAYER}


def shapes(run: Run, tracer: spans.Tracer | None) -> dict:
    record = {"levels": None if run.first_out is None else run.wl.levels(run.first_out)}
    if tracer is not None:
        if tracer.covers_built:
            record["levels"] = tracer.covers_built
        rref = tracer.largest_rref
        record["largest_rref"] = (
            None if rref is None else {"rows": rref[0], "cols": rref[1], "rank": rref[2]}
        )
    return record


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            genus: int | None = None) -> tuple[Run, dict, dict]:
    run = Run(name, seed, tiny)
    if genus is not None:
        run.wl.genus = genus
    tracer = spans.Tracer() if trace else None
    try:
        metrics = traced_run(run, seconds, tracer) if trace else timed_run(run, seconds)
    finally:
        run.cleanup()
    if trace:
        os.makedirs(BUILD_DIR, exist_ok=True)
        # one file per workload, so repeated runs do not pile up on disk
        path = os.path.join(BUILD_DIR, f"spans-{name}.jsonl")
        tracer.write_jsonl(path)
        spans_file = os.path.relpath(path, ROOT)
    else:
        spans_file = None
    info = {"shapes": shapes(run, tracer), "spans_file": spans_file}
    return run, metrics, info


def print_report(args, run: Run, metrics: dict, info: dict):
    print(f"# pdescent bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(json.dumps({"environment": environment()}))
    for record in run.records:
        print(json.dumps(record))
    print(json.dumps(info))
    ops = sum(1 for r in run.records if r["phase"] == "timed")
    for name, (value, unit) in metrics.items():
        note = f" (median of {ops} ops)" if name == "solve_s" else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"error_rate = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    print(f"note: {NO_WAIT_NOTE}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def replay(args) -> int:
    """Run one op of a workload on its own and print its record."""
    run = Run(args.workload, args.seed)
    try:
        run.wl.setup()
        run.op(args.replay, run.wl.prepare(args.replay))
    finally:
        run.cleanup()
    print(json.dumps(run.records[0]))
    return 0 if run.failed == 0 else 1


def self_test() -> int:
    """Tiny runs of every workload must pass; a wrong oracle must fail."""
    problems = []
    declared = None
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_file):
        with open(bench_file, encoding="utf-8") as fh:
            declared = json.load(fh)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            run, metrics, _ = measure(name, seed=1, seconds=0, trace=trace, tiny=True)
            label = f"{name} trace={int(trace)}"
            if run.failed:
                problems.append(f"{label}: {run.failed} failed ops: {run.records}")
            if declared is not None:
                want = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
                if list(metrics) != want:
                    problems.append(f"{label}: metrics {list(metrics)} != BENCHMARK.json {want}")
            print(f"self-test: {label}: {run.attempted} ops, {run.failed} failed")
    run, _, _ = measure("tower-p2", seed=1, seconds=0, trace=False, tiny=True, genus=3)
    print(f"self-test: wrong expected d_p (genus 3): {run.failed}/{run.attempted} ops failed")
    if run.failed != run.attempted:
        problems.append("a wrong expected d_p was not reported as a failed op")
    for p in problems:
        print(f"self-test FAILED: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, default=None, metavar="K",
                        help="run only op K of the workload and print its record")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.replay is not None:
        return replay(args)
    run, metrics, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args, run, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
