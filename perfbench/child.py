"""One fresh relulab process: import relulab, then call its CLI a few times.

Usage (from run.py): child.py <src dir> <json plan>

The plan names the subcommand, config, output directory, whether to trace,
the number of calls after the first, and where to write spans.  A ``probe``
plan only measures the import.  The result is one JSON line on stdout.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import relulab.cli  # noqa: E402  (the timed import)

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def outputs(out: Path) -> dict:
    """Digests, verdicts and size of one run directory."""
    certs = json.loads((out / "certificates.json").read_text()) \
        if (out / "certificates.json").exists() else []
    verdicts = sorted({(c["cert_id"], "PASS" if c["passed"] else
                        "INCONCLUSIVE" if c.get("inconclusive") else "FAIL") for c in certs})
    files = [f for f in out.iterdir() if f.is_file()] if out.is_dir() else []
    return {
        "steps.csv": _sha256(out / "steps.csv"),
        "summary.json": _sha256(out / "summary.json"),
        "verdicts": [list(v) for v in verdicts],
        "artifact_bytes": sum(f.stat().st_size for f in files),
    }


def one_call(plan: dict, call_id: int, tracer: Tracer | None) -> dict:
    out = Path(plan["out"])
    shutil.rmtree(out, ignore_errors=True)
    argv = [plan["command"], "--config", plan["config"], "--out", str(out)]
    first_span = tracer.begin_call(call_id) if tracer else 0
    if tracer:
        tracer.install()
    error = None
    code = None
    gc.collect()   # the previous call's garbage is not this call's cost
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = relulab.cli.main(argv)
    except Exception as exc:  # a raising call is a failed call, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    call = {"wall_s": wall, "traced": tracer is not None, "exit": code, "error": error}
    if error is None:
        call.update(outputs(out))
    if tracer:
        call["layers"] = dict(tracer.layers(first_span),
                              **{"cli.artifact_bytes": call.get("artifact_bytes", 0)})
    return call


def main() -> None:
    plan = json.loads(sys.argv[2])
    result = {"imported": IMPORTED, "calls": []}
    if not plan["probe"]:
        tracer = Tracer() if plan["trace"] else None
        calls = result["calls"]
        calls.append(one_call(plan, 0, None))
        for later in range(plan["later"]):
            # Trace mode alternates traced and untraced calls after the
            # first one, so the two medians give the tracing overhead.
            traced = tracer if later % 2 == 0 else None
            calls.append(one_call(plan, len(calls), traced))
        if tracer:
            tracer.write(plan["spans"])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
