"""The benchmark's span recorder (perfbench/tracing.py) binds relulab
functions by module and name, and fails on a name that no longer exists;
its OBSERVE table reads attributes of what some of them return.  These tests
read both tables, without changing them, so a rename or a dropped result
attribute shows up here first.  They also read the benchmark's workload
configs (perfbench/workloads.py), which at seed 0 must equal the suite's."""

import importlib
import importlib.util
import numbers
from pathlib import Path

from relulab.cli import evaluate_certificates, run_experiment
from relulab.prm import TeacherStudentConfig, run_prm_gd


def _load(relative: str, name: str):
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench/tracing.py", "perfbench_tracing")


def test_suite_regimes_equal_the_seed_0_workloads():
    suite = _load("scripts/run_suite.py", "run_suite")
    workloads = _load("perfbench/workloads.py", "perfbench_workloads")
    assert workloads.config("early-binary", 0) == ("verify", suite.EARLY_BINARY)
    assert workloads.config("global-poly", 0) == ("verify", suite.GLOBAL_POLY)


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
