"""Time one bench workload on two source trees in one process, alternating.

Run from the repository root, naming a second checkout (for example a
``git worktree`` or ``git archive`` copy of the parent commit):

    python tools/ab_timing.py --workload disc_sign --other ../parent --rounds 20

Both ``sparsefeas`` packages are imported into this process under their
own name, one after the other, and each side's modules are swapped into
``sys.modules`` while it runs.  Each round builds nothing new: it runs
the workload's fixed instance list (``bench/workloads.py``, seeded as
``bench/run.py`` seeds it) for ``--seconds`` on one side and then on the
other, the first side switching every round, and reads p50, p90 and
throughput off the per-instance best times exactly as ``bench/run.py``
does.  The benchmark files of this tree drive both sides; nothing under
``bench/`` is written.  The report gives each side's median over the
rounds and, per metric, how many rounds the first tree won.  A round
whose outputs fail the workload's reference check is reported and
stops the run.
"""

from __future__ import annotations

import argparse
import importlib
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

METRICS = (  # name, True when higher is better
    ("latency_p50_ms", False),
    ("latency_p90_ms", False),
    ("throughput_ops_s", True),
)


def load_package(src: Path) -> dict:
    """The ``sparsefeas`` modules imported from ``src``, keyed as in
    ``sys.modules``; the process's own ``sparsefeas`` modules are removed
    first, so the two trees share no module object."""
    for name in [n for n in sys.modules if n == "sparsefeas" or n.startswith("sparsefeas.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("sparsefeas")
    finally:
        sys.path.remove(str(src))
    return {n: m for n, m in sys.modules.items() if n == "sparsefeas" or n.startswith("sparsefeas.")}


class Side:
    """One tree: its package, the built instance list and a bench Runner."""

    def __init__(self, label, src, wl, raws):
        if not (src / "sparsefeas" / "__init__.py").is_file():
            raise SystemExit(f"error: no sparsefeas sources under {src}")
        self.label = label
        self.modules = load_package(src)
        self.activate()
        self.runner = bench.Runner(wl, raws, wl.build(raws))
        wl.warm()
        self.results = {name: [] for name, _ in METRICS}

    def activate(self):
        sys.modules.update(self.modules)
        workloads.sf = self.modules["sparsefeas"]

    def round(self, seconds):
        self.activate()
        times = self.runner.run_for(seconds, bench.MIN_PASSES)
        if self.runner.mismatches or self.runner.failed:
            raise SystemExit(f"error: {self.label} failed the reference check: "
                             f"{(self.runner.mismatches + self.runner.errors)[:3]}")
        metrics = bench.end_to_end(times, 0.0)
        for name, _ in METRICS:
            self.results[name].append(metrics[name][0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--other", required=True, type=Path, help="root of the second source tree")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=4.0, help="timed seconds per side per round")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    raws = wl.generate(random.Random(f"{args.workload}:{args.seed}"))
    this = Side("this tree", ROOT / "src", wl, raws)
    other = Side(f"other tree ({args.other})", args.other.resolve() / "src", wl, raws)
    for k in range(args.rounds):
        for side in ((this, other) if k % 2 == 0 else (other, this)):
            side.round(args.seconds)

    print(f"{args.workload}, seed {args.seed}: {args.rounds} alternating rounds of {args.seconds} s a side")
    for name, higher in METRICS:
        a, b = this.results[name], other.results[name]
        wins = sum((x > y) if higher else (x < y) for x, y in zip(a, b))
        print(f"  {name}: this tree {statistics.median(a):.6g}, other tree {statistics.median(b):.6g}, "
              f"this tree better in {wins}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
