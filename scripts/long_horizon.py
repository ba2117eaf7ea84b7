#!/usr/bin/env python3
"""Run the suite's global-poly config far past its 2000 steps; print memory and verdicts.

Usage:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/long_horizon.py --out runs/long-horizon [--steps 100000]

Runs ``relulab verify`` on ``GLOBAL_POLY`` of ``scripts/run_suite.py`` (n = 20,
d = 25, m = 1024, the two-stage schedule that stays in stage 1) at
``train.steps`` = ``--steps``, in this process, with tracemalloc tracing
from the call on.  It prints the wall time of the call (tracing included),
the tracemalloc peak, the process's ``ru_maxrss``, the size of steps.csv,
the loss at the first and the last step, and each certificate's verdict.
Whether L keeps falling in stage 1, the abstract's "global convergence of
GD", shows only over 10^5 steps or more; a run's memory must not grow with
them.  Not part of the test suite: 10^5 steps take about a minute.
Exit code: that of ``relulab verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run_suite import GLOBAL_POLY  # noqa: E402

from relulab.certificates import verdict  # noqa: E402
from relulab.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument("--steps", type=int, default=100_000, help="training steps")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    config = dict(GLOBAL_POLY, train={"steps": args.steps})
    config_path = args.out / "global-poly.json"
    config_path.write_text(json.dumps(config, indent=2))
    run_dir = args.out / "global-poly"

    tracemalloc.start()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["verify", "--config", str(config_path), "--out", str(run_dir)])
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    summary = json.loads((run_dir / "summary.json").read_text())
    print(f"global-poly verify, {args.steps} steps: exit {code}, status {summary['status']}")
    print(f"  wall time         {wall:.1f} s (tracemalloc on)")
    print(f"  tracemalloc peak  {peak / 1e6:.2f} MB")
    print(f"  ru_maxrss         {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    print(f"  steps.csv         {(run_dir / 'steps.csv').stat().st_size / 1e6:.1f} MB")
    print(f"  loss              {summary['initial_loss']!r} at t = 0, "
          f"{summary['final_loss']!r} at t = {summary['steps']}")
    for cert in json.loads((run_dir / "certificates.json").read_text()):
        print(f"  [{verdict(cert)}] {cert['cert_id']}: bound={cert['theoretical']:.6g} "
              f"measured={cert['measured']:.6g} slack={cert['slack']:.3g}")
    return code


if __name__ == "__main__":
    sys.exit(main())
