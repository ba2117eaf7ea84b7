#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark between two checkouts.

Usage:

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload multiclass-sgd --pairs 10 --seed 0

Each pair runs ``perfbench/run.py --workload W --seed S`` once in each tree,
each in its own tree as working directory, and alternates which side runs
first.  For every end-to-end metric listed in the change tree's
``BENCHMARK.json`` it prints each side's median and quartiles and how many
pairs the change won (ties count for neither side), and whether the metric
meets the gain rule in the direction of its ``better``: the change wins at
least nine tenths of the pairs, and the medians differ by more than the
parent's quartile spread.  Next to it stands the no-regression verdict
against the metric's relative ``bound``: ``REGRESSED`` when the change's
median is worse than the parent's by more than the bound, else
``UNRESOLVED`` when the parent's quartile spread exceeds the bound and not
every change run beats every parent run, else ``within bound``.  The script
only runs the benchmark; it changes nothing under ``perfbench/``.  Exit code
0 when every call of every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One benchmark run in ``tree``; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: benchmark printed nothing (exit {proc.returncode}):\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regression(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The no-regression verdict of one metric; ``sign`` is 1 when lower is
    better, -1 when higher is, and ``bound`` is relative to the parent's median."""
    qp, qc = quartiles(parent), quartiles(change)
    allowed = bound * abs(qp[1])
    if sign * (qc[1] - qp[1]) > allowed:
        return "REGRESSED"
    if qp[2] - qp[0] > allowed and not max(sign * c for c in change) < min(sign * p for p in parent):
        return "UNRESOLVED"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per benchmark run (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(bench_once(sides[side], args.workload, args.seed, args.seconds))
        p, c = (runs[s][-1]["metrics"]["run_s"]["value"] for s in ("parent", "change"))
        print(f"pair {i + 1:2d} ({order[0]} first): run_s parent {p:.4f}  change {c:.4f}",
              flush=True)

    correct = all(r["correct"] for side in runs.values() for r in side)
    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} "
          f"all calls correct: {correct}")
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(vals["parent"], vals["change"]))
        qp, qc = quartiles(vals["parent"]), quartiles(vals["change"])
        gain, spread = sign * (qp[1] - qc[1]), qp[2] - qp[0]
        met = wins >= 0.9 * args.pairs and gain > spread
        print(f"  {name:12s} parent median {qp[1]:.4f} [{qp[0]:.4f}, {qp[2]:.4f}]  "
              f"change median {qc[1]:.4f} [{qc[0]:.4f}, {qc[2]:.4f}] {m['unit']}  "
              f"change won {wins}/{args.pairs}  gain {'MET' if met else 'NOT MET'}  "
              f"{regression(vals['parent'], vals['change'], sign, m['bound'])}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
