#!/usr/bin/env python3
"""relulab benchmark: time `relulab verify` / `relulab prm` runs in fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload early-binary --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

For ``--seconds`` the run starts fresh child processes one after another.
Import-only children measure set-up.  Each working child makes one first
call (``first_run_s``) and repeats it once (``run_s``); working children
start while the last one's duration still fits.  Every call's outputs are
checked against ``reference.json``.  ``--trace 1`` wraps the package's
public functions in spans and reports the per-layer split instead of the
end-to-end metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every call was correct.
"""

from __future__ import annotations

import os

# Bit-for-bit determinism holds only for a fixed BLAS thread count (see
# README.md), and one thread also gives the steadiest timings.  Set before
# numpy is imported, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120.0

# Import-only processes per run; with the working ones they give setup_s.
PROBES = 3
# Calls after the first in each working process.  One gives first_run_s as
# many samples as run_s; trace mode needs a traced and an untraced one.
LATER_CALLS = {False: 1, True: 2}


def blas_runtime() -> dict:
    """OpenBLAS core type and thread count as the loaded library reports them."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas_", "openblas_"):
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if core is not None and threads is not None:
                    core.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return {"core": core().decode(), "threads": threads()}
    return {"core": "unknown", "threads": None}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = blas_runtime()
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": BLAS_THREADS, "blas_threads_reported": blas["threads"],
        "blas_core": blas["core"], "openblas": openblas,
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "src_relulab_lines": sum(len(p.read_text().splitlines())
                                 for p in sorted((SRC / "relulab").glob("*.py"))),
    }


def reference_key(env: dict) -> str:
    """Digests are pinned per BLAS thread count, OpenBLAS kernel and numpy."""
    return f"blas_threads={env['blas_threads']};blas_core={env['blas_core']};numpy={env['numpy']}"


def spawn(plan: dict) -> tuple[float, dict | None]:
    """Run one child; returns (spawn time, its result or None if it failed)."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(SRC), json.dumps(plan)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return start, None
    finally:
        # Also reached on SIGTERM (see main): no child outlives the run.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        return start, None
    return start, json.loads(out.strip().splitlines()[-1])


def expected_outputs(name: str, seed: int, env: dict, calls: list, reference: dict):
    """What every call must produce, or None if no call can be trusted.

    At the pinned seed: the pinned exit code and verdict set, plus the
    digests pinned for this environment if there are any.  At other seeds:
    whatever the first call produced, provided it is self-consistent; the
    remaining calls must then agree with it.
    """
    if seed == reference["seed"]:
        expected = dict(reference["outputs"][name])
        expected.update(reference["digests"].get(reference_key(env), {}).get(name, {}))
        return expected
    first = next((c for c in calls if c["error"] is None), None)
    if first is None:
        return None
    verdicts = {tuple(v) for v in first["verdicts"]}
    ids = {cert for cert, _ in verdicts}
    required = {cert for cert, _ in reference["outputs"][name]["verdicts"]
                if cert not in reference["optional_certificates"]}
    failed = any(v == "FAIL" for _, v in verdicts)
    if first["exit"] not in (0, 1) or (failed and first["exit"] != 1) or not required <= ids:
        return None
    return {k: first[k] for k in ("exit", "verdicts", "steps.csv", "summary.json")}


def call_ok(call: dict, expected: dict | None) -> bool:
    if expected is None or call["error"] is not None:
        return False
    for key, value in expected.items():
        got = call[key]
        if key == "verdicts":
            got, value = {tuple(v) for v in got}, {tuple(v) for v in value}
        if got != value:
            return False
    return True


def tail(samples: list) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(samples)
    if n == 0:
        return "no samples"
    text = f"median of {n} samples, max {max(samples):.4f}"
    if n >= 20:
        text += f", p{100.0 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f}"
    else:
        text += ", fewer than 20 samples: no percentile above the median has ten beyond it"
    return text


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict,
                 reference: dict, env: dict) -> int:
    import workloads

    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    command, config_path = workloads.write_config(work, name, seed)

    start = time.monotonic()
    deadline = start + seconds
    setups, results = [], []
    probes = 0 if trace else PROBES
    for _ in range(probes):
        spawned, result = spawn({"probe": True})
        if result is not None:
            setups.append(result["imported"] - spawned)
    # Working processes run one at a time while the last one's duration
    # still fits before the deadline; the first always runs.
    last = 0.0
    while not results or time.monotonic() + last <= deadline:
        i = len(results)
        plan = {"probe": False, "command": command, "config": str(config_path),
                "out": str(work / f"run{i}"), "trace": trace, "later": LATER_CALLS[trace],
                "spans": str(work / f"spans{i}.jsonl")}
        spawned, result = spawn(plan)
        last = time.monotonic() - spawned
        if result is None:
            results.append({"calls": [{"error": "child process failed", "traced": False}]})
            continue
        setups.append(result["imported"] - spawned)
        results.append(result)
    elapsed = time.monotonic() - start

    calls = [c for r in results for c in r["calls"]]
    expected = expected_outputs(name, seed, env, calls, reference)
    failed = sum(not call_ok(c, expected) for c in calls)
    attempted = max(1, len(calls))
    firsts = [r["calls"][0]["wall_s"] for r in results if "wall_s" in r["calls"][0]]
    later = [c["wall_s"] for r in results for c in r["calls"][1:] if not c["traced"]]
    traced = [c for c in calls if c["traced"] and "layers" in c]

    print(f"relulab benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} measured={elapsed:.1f}s")
    if trace:
        layers = {k: statistics.median(c["layers"][k] for c in traced)
                  for k in (traced[0]["layers"] if traced else ())}
        if traced and later:
            layers["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                          - statistics.median(later))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {k: {"value": layers.get(k, 0.0), "unit": units[k]} for k in units}
        print(f"  per-layer medians over {len(traced)} traced calls; the overhead is the "
              f"median traced minus the median of {len(later)} untraced later calls; "
              f"layers this workload never reaches read 0 and are not listed:")
        for k, unit in units.items():
            if layers.get(k):
                print(f"  {k:26s} {layers[k]:.6g} {unit}")
    else:
        values = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "first_run_s": statistics.median(firsts) if firsts else 0.0,
            "run_s": statistics.median(later) if later else 0.0,
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in results if "maxrss_mb" in r)
            if any("maxrss_mb" in r for r in results) else 0.0,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        print(f"  setup_s      {values['setup_s']:.4f} s   ({tail(setups)})")
        print(f"  first_run_s  {values['first_run_s']:.4f} s   ({tail(firsts)})")
        print(f"  run_s        {values['run_s']:.4f} s   ({tail(later)})")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(f"  error_rate   {failed / attempted:.4g} ({failed} of {attempted} calls failed)")
    sample = next((c for c in calls if c.get("error") is None and "verdicts" in c), None)
    if sample is not None:
        print(f"  outputs: exit={sample['exit']} steps.csv={sample['steps.csv']} "
              f"summary.json={sample['summary.json']}")
        print("  verdicts: " + ", ".join(f"{c}={v}" for c, v in sample["verdicts"]))
    if seed != reference["seed"]:
        basis = "no pinned reference at this seed: every call must reproduce the first"
    elif reference_key(env) in reference["digests"]:
        basis = "pinned verdicts and digests"
    else:
        basis = "pinned verdicts; no digests pinned for this environment"
    print(f"  reference: {basis} ({reference_key(env)})")
    print("meta " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None, reference: dict | None = None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "relulab" / "cli.py").is_file() or not bench_path.is_file():
        print(f"error: no relulab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    env = environment()
    code = 0
    for name in names if args.workload == "all" else [args.workload]:
        code = max(code, run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      bench, reference, env))
    return code


if __name__ == "__main__":
    sys.exit(main())
