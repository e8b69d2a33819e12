"""Benchmark for sparsefeas: one seeded workload per invocation.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a run with the tracing wrappers installed.  See
bench/README.md for the workloads, metrics and reference checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from reference import ReferenceMismatch, expect

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
MIN_PASSES = 2  # each instance's time is the best of at least this many


def child_seconds(code: str, env) -> float:
    """Run a fresh interpreter that prints a duration it measured itself."""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def timed_child(code: str, env) -> float:
    """Wall time of a fresh interpreter running ``code``, seen from outside."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def import_seconds(module: str, env) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return statistics.median(child_seconds(code, env) for _ in range(SETUP_REPEATS))


class Runner:
    """Timed passes over a workload's fixed instance list, with reference
    checks between passes (outside the timed region).

    Each instance's time is the best of its repeats in the run: the
    operations are deterministic, and the best repeat filters out the
    phases in which a shared machine runs slow.
    """

    def __init__(self, wl, raws, built):
        self.wl = wl
        self.raws = raws
        self.built = built
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised
        self.mismatches: list[str] = []  # outputs that failed a check
        self.first_outs = None

    def one_pass(self, best):
        outs = []
        for k, item in enumerate(self.built):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.wl.run(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                outs.append(exc)
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            best[k] = min(best[k], time.perf_counter() - t0)
            outs.append(out)
        self.verify(outs)

    def verify(self, outs):
        for k, (raw, out) in enumerate(zip(self.raws, outs)):
            if isinstance(out, Exception):
                continue
            try:
                if self.first_outs is None:
                    self.wl.check(raw, out)
                else:
                    expect(out == self.first_outs[k], "output differs from the first pass")
            except ReferenceMismatch as exc:
                self.mismatches.append(str(exc))
        if self.first_outs is None:
            self.first_outs = outs

    def run_for(self, seconds: float, min_passes: int) -> list[float]:
        """Whole passes until ``seconds`` have passed and at least
        ``min_passes`` were made; returns each instance's best time."""
        best = [math.inf] * len(self.built)
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_passes or time.perf_counter() < deadline:
            self.one_pass(best)
            done += 1
        return [b for b in best if b < math.inf]


def end_to_end(times: list[float], setup_s: float) -> dict:
    q = statistics.quantiles(times, n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": (q[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(runner: Runner, seconds: float, env) -> dict:
    """Half the run untraced, half traced; per-operation layer figures come
    from the traced half, the overhead from the difference."""
    import layertrace

    plain = runner.run_for(seconds / 2, min_passes=1)
    tracer = layertrace.Tracer()
    tracer.install()
    attempted = runner.attempted
    traced = runner.run_for(seconds / 2, min_passes=1)
    metrics = layertrace.per_op_metrics(tracer.totals(), runner.attempted - attempted)
    overhead = (sum(traced) / len(traced) - sum(plain) / len(plain)) * 1e3
    metrics["trace.overhead_ms"] = (overhead, "ms/op")
    interp = statistics.median(timed_child("pass", env) for _ in range(SETUP_REPEATS))
    metrics["cli.interpreter_ms"] = (interp * 1e3, "ms")
    metrics["cli.import_ms"] = (import_seconds("sparsefeas.cli", env) * 1e3, "ms")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sparsefeas" / "__init__.py").is_file():
        print(f"error: no sparsefeas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wl = workloads.WORKLOADS[args.workload]()
    raws = wl.generate(random.Random(f"{args.workload}:{args.seed}"))

    # set-up: import in a fresh interpreter, then build the instance list
    # through the library; each repeated, the medians summed
    import_s = import_seconds("sparsefeas", env)
    workloads.load_library()
    build_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = wl.build(raws)
        build_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(build_times)
    wl.warm()
    runner = Runner(wl, raws, built)

    if args.trace:
        metrics = per_layer(runner, args.seconds, env)
    else:
        metrics = end_to_end(runner.run_for(args.seconds, MIN_PASSES), setup_s)

    for line in runner.errors[:10] + runner.mismatches[:10]:
        print(line, file=sys.stderr)
    result = {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
