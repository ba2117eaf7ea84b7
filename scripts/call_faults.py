#!/usr/bin/env python3
"""Wall time and minor page faults of each CLI call, in two checkouts.

Usage:

    python3 scripts/call_faults.py PARENT_DIR CHANGE_DIR --workload global-poly [--procs 4] [--calls 3]
    python3 scripts/call_faults.py PARENT_DIR CHANGE_DIR --workload global-poly early-binary
    python3 scripts/call_faults.py PARENT_DIR CHANGE_DIR --workload all

``--workload`` takes one or more names from the change tree's
``BENCHMARK.json``, or ``all`` for every one of them.  Each workload's seed-0
config is written once, from the change tree, through
``perfbench/workloads.py`` (read, never changed).  Each tree then runs
``--procs`` fresh processes, alternating which tree goes first, with BLAS at
1 thread.  A process imports that tree's ``relulab.cli`` and calls its
``main`` ``--calls`` times on the config, as the benchmark does: the output
directory removed and a ``gc.collect()`` before each call.  For each call it
prints the wall time and the ``resource.getrusage(RUSAGE_SELF).ru_minflt``
delta, the minor page faults the call took.  A call whose heap reuses freed
pages takes few faults; one that maps fresh pages takes one per 4 kB page.
After each workload, one line per side gives the median wall time and the
median fault count of calls 2 onward (call 1 also pays the imports' and the
heap's first growth), over all its processes.  Exit code 0 when every call
returned an exit code of 0 or 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import contextlib, gc, io, json, resource, shutil, sys, time
import relulab.cli
argv, calls = json.loads(sys.argv[1]), int(sys.argv[2])
for _ in range(calls):
    shutil.rmtree(argv[-1], ignore_errors=True)
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = relulab.cli.main(argv)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(json.dumps({"exit": code, "wall_s": wall, "minflt": faults}), flush=True)
"""


def write_config(change: Path, workload: str, directory: Path) -> list:
    """The workload's seed-0 argv, with the config and its corpus under ``directory``."""
    sys.path.insert(0, str(change / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  change / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    command, path = workloads.write_config(directory, workload, 0)
    return [command, "--config", str(path), "--out", str(directory / "out")]


def run_process(tree: Path, argv: list, calls: int, workdir: Path) -> list:
    """One fresh process of ``tree``'s CLI; one dict per call."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv), str(calls)],
                          cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: the calls failed (exit {proc.returncode}):\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="workload names from BENCHMARK.json, or all")
    parser.add_argument("--procs", type=int, default=4, help="fresh processes per tree")
    parser.add_argument("--calls", type=int, default=3, help="CLI calls per process")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = [w["name"] for w in json.loads((sides["change"] / "BENCHMARK.json").read_text())["workloads"]]
    workloads = names if args.workload == ["all"] else args.workload
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(names)} or all")
    ok = True
    for workload in workloads:
        later = {side: [] for side in sides}      # calls 2 onward, per side
        with tempfile.TemporaryDirectory() as tmp:
            cli_argv = write_config(sides["change"], workload, Path(tmp))
            for i in range(args.procs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    calls = run_process(sides[side], cli_argv, args.calls, Path(tmp))
                    ok = ok and all(c["exit"] in (0, 1) for c in calls)
                    later[side] += calls[1:]
                    line = "  ".join(f"call {k + 1}: {c['wall_s']:.3f} s {c['minflt']:7d} faults"
                                     for k, c in enumerate(calls))
                    print(f"{workload} process {i + 1} {side:6s}  {line}", flush=True)
        for side, calls in later.items():
            if calls:
                wall = statistics.median(c["wall_s"] for c in calls)
                faults = statistics.median(c["minflt"] for c in calls)
                print(f"{workload} {side:6s} calls 2-{args.calls}: median {wall:.3f} s "
                      f"{faults:9.1f} faults over {len(calls)} calls", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
