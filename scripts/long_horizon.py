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
them.  It then prints the memory gate: the tracemalloc peak of ``verify``
on the tests' global-poly config (``GLOBAL_POLY`` of ``tests/test_cli.py``:
n = 10, d = 12, m = 256) at 5000 and at 50 000 steps, whose growth must stay
under 1 MB, beside the same growth at kappa = 1, where the partition check
fails at every step; and the tracemalloc peak of ``prm.run_prm_gd`` at
d = 4, m = 3, M = 4 for 2000 and 20 000 steps, which must not grow either.
Not part of the test suite: 10^5 steps take about a minute, the gates about
a minute more.
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
sys.path.insert(1, str(Path(__file__).resolve().parents[1]))
from run_suite import GLOBAL_POLY  # noqa: E402

from relulab.certificates import verdict  # noqa: E402
from relulab.cli import main as cli_main  # noqa: E402
from relulab.prm import TeacherStudentConfig, run_prm_gd  # noqa: E402


def prm_peak(steps: int) -> float:
    """tracemalloc peak of a prm run at d = 4, m = 3, M = 4, in MB."""
    config = TeacherStudentConfig(d=4, m=3, M=4, kappa=0.1, eta=0.001, seed=0, steps=steps)
    tracemalloc.start()
    try:
        run_prm_gd(config)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def verify_peak(config: dict, steps: int, out: Path, name: str):
    """``relulab verify`` of ``config`` at ``train.steps`` = ``steps``, in this
    process under tracemalloc, into ``out / name``: (exit code, tracemalloc
    peak in bytes, wall seconds, run directory)."""
    config_path = out / f"{name}.json"
    config_path.write_text(json.dumps(dict(config, train={"steps": steps}), indent=2))
    run_dir = out / name
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["verify", "--config", str(config_path), "--out", str(run_dir)])
        return code, tracemalloc.get_traced_memory()[1], time.perf_counter() - start, run_dir
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument("--steps", type=int, default=100_000, help="training steps")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    code, peak, wall, run_dir = verify_peak(GLOBAL_POLY, args.steps, args.out, "global-poly")

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
    # Imported only now: the pytest and hypothesis that tests/test_cli.py
    # imports would otherwise count in the ru_maxrss above.
    from tests.test_cli import GLOBAL_POLY as TEST_GLOBAL_POLY
    failing = dict(TEST_GLOBAL_POLY, model=dict(TEST_GLOBAL_POLY["model"], kappa=1))
    for label, config in (("tests' global-poly verify", TEST_GLOBAL_POLY),
                          ("the same at kappa = 1 (partition fails)", failing)):
        name = f"test-global-poly-kappa-{config['model']['kappa']}"
        # The long run goes first, so that what a first run allocates once
        # counts in the growth rather than against it.
        long, short = (verify_peak(config, steps, args.out, f"{name}-{steps}")[1] / 1e6
                       for steps in (50_000, 5000))
        print(f"{label}: tracemalloc peak {short:.2f} MB at 5000 steps, "
              f"{long:.2f} MB at 50000 steps; growth {long - short:.2f} MB "
              f"({'under' if long - short < 1.0 else 'NOT under'} the 1 MB gate)")
    print("prm run_prm_gd, d = 4, m = 3, M = 4: tracemalloc peak "
          + ", ".join(f"{prm_peak(steps):.3f} MB at {steps} steps" for steps in (2000, 20_000)))
    return code


if __name__ == "__main__":
    sys.exit(main())
