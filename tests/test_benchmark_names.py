"""The benchmark's span recorder (perfbench/tracing.py) binds relulab
functions by module and name, and fails on a name that no longer exists;
its OBSERVE table reads attributes of what some of them return.  These tests
read both tables, without changing them, so a rename or a dropped result
attribute shows up here first."""

import importlib
import importlib.util
import numbers
from pathlib import Path

from relulab.cli import evaluate_certificates, run_experiment
from relulab.prm import TeacherStudentConfig, run_prm_gd


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = [f"{module}.{attr}" for module, attr in tracing.TRACED.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert set(tracing.MODEL_CALLS) <= set(tracing.TRACED)


def test_every_observed_result_has_what_the_benchmark_reads():
    tracing = _tracing()
    record, ctx = run_experiment({
        "kind": "early-binary",
        "dataset": {"type": "synthetic", "n": 6, "d": 8, "seed": 1},
        "model": {"m": 16, "kappa": "auto"},
        "schedule": {"type": "constant", "eta": 0.01},
        "train": {"steps": 3}, "seed": 1})
    results = {
        "training.run": record,
        "certificates.evaluate": evaluate_certificates(record, ctx),
        "prm.run_prm_gd": run_prm_gd(TeacherStudentConfig(
            d=4, m=3, M=4, kappa=0.1, eta=0.001, seed=0, steps=3)),
    }
    assert set(tracing.OBSERVE) <= set(tracing.TRACED)
    assert set(tracing.OBSERVE) == set(results)
    for name, observe in tracing.OBSERVE.items():
        values = observe(results[name])
        assert values, name
        assert all(isinstance(v, numbers.Real) for v in values.values()), name
