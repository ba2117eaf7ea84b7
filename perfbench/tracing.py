"""In-memory span recorder around relulab's public functions.

The recorder wraps functions from outside the package: it rebinds every
name under which a ``relulab`` module holds the original function (for
example both ``relulab.datasets.compute_V`` and the copy that ``relulab.cli``
imported), so calls made through either name are recorded.  ``uninstall``
restores the original bindings, so untraced calls run the program as
shipped.

A span is (call id, name, start, end, parent span index).  All spans of one
benchmark call share its call id.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# Span name -> (module, attribute).  The names are the layer boundaries the
# per-layer metrics are built from.
TRACED = {
    "cli.cmd_verify": ("relulab.cli", "cmd_verify"),
    "cli.cmd_prm": ("relulab.cli", "cmd_prm"),
    "cli.build_dataset": ("relulab.cli", "build_dataset"),
    "datasets.validate_separable": ("relulab.datasets", "validate_separable"),
    "datasets.compute_gamma_constants": ("relulab.datasets", "compute_gamma_constants"),
    "datasets.compute_V": ("relulab.datasets", "compute_V"),
    "models.init_binary": ("relulab.models", "init_binary"),
    "models.init_multi": ("relulab.models", "init_multi"),
    "models.forward": ("relulab.models", "forward"),
    "models.per_sample_margins": ("relulab.models", "per_sample_margins"),
    "models.loss_value": ("relulab.models", "loss_value"),
    "models.grad_loss_struct": ("relulab.models", "grad_loss_struct"),
    "training.run": ("relulab.training", "run"),
    "partition.compute_partition": ("relulab.partition", "compute_partition"),
    "partition.check_dynamics_early": ("relulab.partition", "check_dynamics_early"),
    "partition.check_dynamics_global": ("relulab.partition", "check_dynamics_global"),
    "certificates.evaluate": ("relulab.cli", "evaluate_certificates"),
    "certificates.gram_matrix": ("relulab.certificates", "gram_matrix"),
    "certificates.check_block_structure": ("relulab.certificates", "check_block_structure"),
    "certificates.check_gram_lower_bound": ("relulab.certificates", "check_gram_lower_bound"),
    "certificates.multi_gram_min_entry": ("relulab.certificates", "multi_gram_min_entry"),
    "certificates.fit_convergence_rate": ("relulab.certificates", "fit_convergence_rate"),
    "prm.run_prm_gd": ("relulab.prm", "run_prm_gd"),
    "prm.population_loss": ("relulab.prm", "population_loss"),
    "prm.population_grad": ("relulab.prm", "population_grad"),
    "prm.prm_descent_certificate": ("relulab.prm", "prm_descent_certificate"),
}

MODEL_CALLS = ("models.forward", "models.per_sample_margins",
               "models.loss_value", "models.grad_loss_struct")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Values read from a function's result when its span closes.
OBSERVE = {
    "training.run": lambda rec: {"training.steps": len(rec.records),
                                 "training.kept_nets": len(rec.nets),
                                 "training.rss_mb": _rss_mb()},
    "certificates.evaluate": lambda reports: {"certificates.emitted": len(reports),
                                              "certificates.rss_mb": _rss_mb()},
    "prm.run_prm_gd": lambda rec: {"prm.steps": len(rec.losses)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.observed: dict = {}
        self.call_id = 0
        self._stack: list = []
        self._bindings: list = []   # (module, attribute, original)

    def _wrap(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self.call_id, name, start, end, parent)
            if observe is not None:
                self.observed.update(observe(result))
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "relulab" or key.startswith("relulab.")]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bindings.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in self._bindings:
            setattr(module, key, original)
        self._bindings.clear()

    def begin_call(self, call_id: int) -> int:
        """Start a call; returns the index of its first span."""
        self.call_id = call_id
        self.observed = {}
        return len(self.spans)

    def layers(self, first: int) -> dict:
        """Per-layer metrics of the call whose spans start at ``first``."""
        spans = self.spans[first:]
        parents = [parent - first if parent >= first else -1 for *_, parent in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, start, end, _) in enumerate(spans):
            if parents[i] >= 0:
                # Spans nest within one thread, so direct children never
                # overlap and the part of the parent they cover is their sum.
                child_time[parents[i]] += end - start

        def ancestors(i):
            p = parents[i]
            while p >= 0:
                yield spans[p][1]
                p = parents[p]

        def t(*names):
            """Time inside any of ``names``, counting nested spans once."""
            return sum((end - start for i, (_, name, start, end, _) in enumerate(spans)
                        if name in names and not any(a in names for a in ancestors(i))), 0.0)

        def self_time(names):
            return sum(((end - start) - child_time[i]
                        for i, (_, name, start, end, _) in enumerate(spans) if name in names), 0.0)

        model_calls = sum(1 for i, s in enumerate(spans)
                          if s[1] in MODEL_CALLS and "training.run" in ancestors(i))
        steps = self.observed.get("training.steps", 0)
        training_s = t("training.run")
        return {
            "datasets.build_s": t("cli.build_dataset"),
            "datasets.constants_s": t("datasets.validate_separable",
                                      "datasets.compute_gamma_constants",
                                      "datasets.compute_V"),
            "models.init_s": t("models.init_binary", "models.init_multi"),
            "models.calls_per_step": model_calls / steps if steps else 0.0,
            "training.run_s": training_s,
            "training.steps": steps,
            "training.step_ms": 1e3 * training_s / steps if steps else 0.0,
            "training.kept_nets": self.observed.get("training.kept_nets", 0),
            "training.rss_mb": self.observed.get("training.rss_mb", 0.0),
            "partition.dynamics_s": t("partition.check_dynamics_early",
                                      "partition.check_dynamics_global"),
            "partition.snapshots": sum(s[1] == "partition.compute_partition" for s in spans),
            "certificates.total_s": t("certificates.evaluate"),
            "certificates.self_s": self_time({"certificates.evaluate"}),
            "certificates.gram_s": t("certificates.gram_matrix",
                                     "certificates.check_block_structure",
                                     "certificates.check_gram_lower_bound"),
            "certificates.multi_gram_s": t("certificates.multi_gram_min_entry"),
            "certificates.envelope_s": t("certificates.fit_convergence_rate"),
            "certificates.emitted": self.observed.get("certificates.emitted", 0),
            "certificates.rss_mb": self.observed.get("certificates.rss_mb", 0.0),
            "prm.run_s": t("prm.run_prm_gd"),
            "prm.loss_s": t("prm.population_loss"),
            "prm.grad_s": t("prm.population_grad"),
            "prm.steps": self.observed.get("prm.steps", 0),
            "prm.certificate_s": t("prm.prm_descent_certificate"),
            "cli.self_s": self_time({"cli.cmd_verify", "cli.cmd_prm"}),
        }

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
