"""Negative control: the benchmark must reject outputs that differ from the reference.

Run from the repository root:

    python3 -m pytest -q perfbench/test_negative_control.py
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_altered_reference_digest_fails_every_call():
    reference = json.loads((HERE / "reference.json").read_text())
    altered = copy.deepcopy(reference)
    key = run.reference_key(run.environment())
    altered["digests"].setdefault(key, {})["prm-population"] = {"steps.csv": "0" * 64}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "prm-population", "--seconds", "1"], reference=altered)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]   # error_rate = 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prm-population",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
