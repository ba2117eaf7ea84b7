"""The benchmark's span recorder (perfbench/tracing.py) binds relulab
functions by module and name, and fails on a name that no longer exists.
This test reads its table, without changing it, so a rename shows up here
first."""

import importlib
import importlib.util
from pathlib import Path


def test_every_traced_name_resolves():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr in tracing.TRACED.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert set(tracing.MODEL_CALLS) <= set(tracing.TRACED)
