"""The registry of negative controls: for every certificate id that a
subcommand emits, a test in which that id reads FAIL.  A new id cannot land
without one, and a control cannot be renamed or deleted without its entry."""

import ast
from pathlib import Path

from relulab import cli

ROOT = Path(__file__).resolve().parents[1]

# cert_id -> the test, as pytest names it, that makes the id read FAIL.
NEGATIVE_CONTROLS = {
    "early-descent-binary": "tests/test_cli.py::test_early_descent_binary_fails_on_its_own",
    "hitting-time-at-least-tstar":
        "tests/test_cli.py::test_hitting_time_fails_on_a_violation_at_t0_or_t1",
    "early-gradient-lower": "tests/test_cli.py::test_early_gradient_lower_reports_worst_step_once",
    "gram-cross-class-zero": "tests/test_cli.py::test_gram_cross_class_zero_fails_on_a_planted_entry",
    "gram-same-class-lower":
        "tests/test_cli.py::test_gram_same_class_lower_is_inconclusive_when_the_bound_is_vacuous",
    "partition-dynamics-early": "tests/test_cli.py::test_a_partition_violation_still_fails",
    "early-descent-multi": "tests/test_cli.py::test_early_descent_multi_follows_the_loss_at_tstar",
    "multi-gram-entries-at-least-one":
        "tests/test_cli.py::test_multi_gram_entries_at_least_one_fails_on_a_planted_minimum",
    "stochastic-gradient-alignment":
        "tests/test_cli.py::test_stochastic_gradient_alignment_fails_below_its_bound",
    "rate-poly_stage1": "tests/test_cli.py::test_rate_envelope_fails_on_a_loss_above_it",
    "rate-exponential": "tests/test_cli.py::test_rate_envelope_fails_on_a_loss_above_it",
    "correct-classification":
        "tests/test_cli.py::test_correct_classification_fails_on_a_nonpositive_margin",
    "partition-dynamics-global":
        "tests/test_cli.py::test_partition_dynamics_global_fails_through_verify",
    "gamma-sandwich": "tests/test_cli.py::test_gamma_sandwich_fails_on_a_gamma1_outside_it",
    "prm-two-term-descent": "tests/test_prm.py::test_certificate_fails_on_a_planted_loss",
}


def _test_functions(path: Path) -> set:
    """The names of the module-level test functions of a test file."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_emitted_id_has_a_negative_control_that_exists():
    emitted = {cert_id for kind in cli._KINDS.values() for cert_id in kind.cert_ids}
    emitted.add("prm-two-term-descent")
    assert sorted(emitted - set(NEGATIVE_CONTROLS)) == [], "ids without a negative control"
    assert sorted(set(NEGATIVE_CONTROLS) - emitted) == [], "controls of ids no subcommand emits"
    for cert_id, node in NEGATIVE_CONTROLS.items():
        path, name = node.split("::")
        assert (ROOT / path).is_file() and name in _test_functions(ROOT / path), (cert_id, node)
