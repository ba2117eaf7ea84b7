import csv
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relulab import cli, oracles, training
from relulab.certificates import CertificateReport, verdict
from relulab.cli import evaluate_certificates, main, run_experiment
from relulab.datasets import write_idx_images, write_idx_labels
from relulab.losses import LOSS_KEYS
from relulab.partition import DynamicsViolation
from relulab.training import RunRecord, StepRecord


def write_config(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def _hand_out(monkeypatch, changes=None):
    """Wrap the step records that ``training.run`` hands out: the record of a
    step t in ``changes`` is replaced by a copy with the fields that
    ``changes[t](record)`` returns.  Every reader of the step stream (the
    observers, the hitting time, the step log) sees the copy; training does
    not read the records.  Returns the list of records handed out."""
    changes, handed = changes or {}, []

    def make(**fields):
        r = StepRecord(**fields)
        if r.t in changes:
            r = dataclasses.replace(r, **changes[r.t](r))
        handed.append(r)
        return r

    monkeypatch.setattr(training, "StepRecord", make)
    return handed


EARLY_BINARY = {
    "kind": "early-binary",
    "dataset": {"type": "synthetic", "n": 12, "d": 20, "seed": 1},
    "model": {"m": 512, "kappa": "auto"},
    "loss": "quadratic",
    "schedule": {"type": "constant", "eta": 0.01},
    "train": {"steps": 46},
    "delta": 0.05,
    "seed": 3,
}

PRM = {"kind": "prm",
       "prm": {"d": 10, "m": 10, "M": 10, "kappa": 0.1, "eta": "auto",
               "steps": 8, "seed": 0}}


def test_gen_data_writes_csv_and_sidecar(tmp_path):
    cfg = write_config(tmp_path, "ds.json", {"type": "synthetic", "n": 8, "d": 5, "seed": 2})
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "dataset.csv").read_text().split("\n")[0]
    assert header == "index,label," + ",".join(f"x_{j}" for j in range(5))
    side = json.loads((out / "dataset.json").read_text())
    assert side["separable"] is True


def test_train_emits_run_artifacts(tmp_path):
    cfg = write_config(tmp_path, "c.json", EARLY_BINARY)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "steps.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["digests"]) == {"steps.csv", "summary.json"}


def test_verify_writes_certificates_and_exit_code_reflects_failures(tmp_path):
    cfg = write_config(tmp_path, "c.json", EARLY_BINARY)
    out = tmp_path / "run"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    certs = json.loads((out / "certificates.json").read_text())
    failed = [c for c in certs if not (c["passed"] or c.get("inconclusive"))]
    assert code == (1 if failed else 0)
    ids = {c["cert_id"] for c in certs}
    assert "gram-cross-class-zero" in ids
    assert "early-descent-binary" in ids


def test_verify_at_a_tiny_rate_keeps_the_exit_code_contract(tmp_path, capsys):
    # T_e is about 5e7 steps at eta = 1e-8; finding it must not abort the run.
    cfg = write_config(tmp_path, "c.json", {
        "kind": "early-binary", "dataset": {"type": "synthetic", "n": 6, "d": 8, "seed": 1},
        "model": {"m": 16, "kappa": "auto"}, "loss": "quadratic",
        "schedule": {"type": "constant", "eta": 1e-8}, "train": {"steps": 1},
        "delta": 0.05, "seed": 3})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


PRM_KAPPA_09 = {"kind": "prm", "prm": {"d": 10, "m": 10, "M": 10, "kappa": 0.9}}


def test_prm_at_an_empty_horizon_needs_explicit_steps(tmp_path, capsys):
    """At kappa = 0.9 >= 1/pi the certified horizon T*+1 is -4.42: there is
    no default step count, and with one the certificate says nothing."""
    with pytest.raises(cli.ConfigError, match=r"prm\.kappa = 0\.9.*prm\.steps"):
        cli.run_prm_experiment(PRM_KAPPA_09)
    cfg = write_config(tmp_path, "p.json", PRM_KAPPA_09)
    assert main(["prm", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
    assert "prm.steps" in capsys.readouterr().err
    cfg = write_config(tmp_path, "q.json", {"kind": "prm", "prm": dict(PRM_KAPPA_09["prm"],
                                                                        steps=10)})
    assert main(["prm", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert "[INCONCLUSIVE] prm-two-term-descent" in capsys.readouterr().out
    (rep,) = json.loads((tmp_path / "b" / "certificates.json").read_text())
    assert rep["context"]["detail"].startswith("empty horizon: T*+1 = -4.419")


def test_prm_subcommand(tmp_path):
    cfg = write_config(tmp_path, "p.json", PRM)
    out = tmp_path / "prm"
    assert main(["prm", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eta_compliant"] is True
    certs = json.loads((out / "certificates.json").read_text())
    assert certs[0]["cert_id"] == "prm-two-term-descent" and certs[0]["passed"]
    assert certs[0]["context"]["detail"].startswith("evaluated at step ")
    head = (out / "steps.csv").read_text().split("\n")[0]
    assert head == "t,loss,sum_norms,min_norm,max_norm,grad_norm"


def test_report_prints_and_propagates_status(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", PRM)
    out = tmp_path / "prm"
    main(["prm", "--config", str(cfg), "--out", str(out)])
    code = main(["report", "--out", str(out)])
    captured = capsys.readouterr().out
    assert "prm-two-term-descent" in captured
    assert code == 0


def test_sweep_cross_product_and_aggregate(tmp_path):
    base = dict(PRM)
    sweep = {"base": {"kind": "early-binary",
                      "dataset": {"type": "synthetic", "n": 8, "d": 20, "seed": 1},
                      "model": {"m": 128, "kappa": "auto"},
                      "schedule": {"type": "constant", "eta": 0.01},
                      "train": {"steps": 8}, "delta": 0.05, "seed": 1},
             "axes": [{"path": "seed", "values": [1, 2]},
                      {"path": "model.m", "values": [64, 128]}]}
    cfg = write_config(tmp_path, "s.json", sweep)
    out = tmp_path / "sweep"
    main(["sweep", "--config", str(cfg), "--out", str(out)])
    rows = (out / "aggregate.csv").read_text().strip().split("\n")
    assert rows[0].startswith("seed,model.m,run_dir,")
    assert len(rows) == 5
    assert (out / "run_0000" / "summary.json").exists()
    assert (out / "run_0003" / "certificates.json").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_keeps_rows_when_a_cell_has_a_config_error(tmp_path, capsys, jobs):
    sweep = {"base": {"kind": "early-binary",
                      "dataset": {"type": "synthetic", "n": 8, "d": 20, "seed": 1},
                      "model": {"m": 64, "kappa": "auto"},
                      "schedule": {"type": "constant", "eta": 0.01},
                      "train": {"steps": 4}, "delta": 0.05, "seed": 1},
             "axes": [{"path": "loss", "values": ["quadratic", "nope"]}]}
    cfg = write_config(tmp_path, "s.json", sweep)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == 2
    err = capsys.readouterr().err
    assert "unknown loss 'nope'" in err
    assert "Traceback" not in err
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["loss"] for r in rows] == ["quadratic", "nope"]
    assert rows[0]["status"] == "completed" and rows[0]["final_loss"] != ""
    assert rows[1]["status"].startswith("error:config: unknown loss 'nope'")
    assert all(rows[1][c] == "" for c in ("initial_loss", "final_loss", "descent",
                                          "measured_T", "certificates_failed"))
    assert (out / "run_0000" / "summary.json").exists()
    assert not (out / "run_0001").exists()


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    bad = dict(EARLY_BINARY)
    bad["learning_rate"] = 0.01
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_loss_key_is_a_config_error(tmp_path, capsys):
    bad = dict(EARLY_BINARY, loss="quadratc")
    cfg = write_config(tmp_path, "bad.json", bad)
    for command in ("train", "verify"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert "unknown loss 'quadratc'" in err
        assert "Traceback" not in err


def test_verify_emits_every_certificate_once(tmp_path):
    cfg = write_config(tmp_path, "c.json", EARLY_BINARY)
    out = tmp_path / "run"
    main(["verify", "--config", str(cfg), "--out", str(out)])
    ids = [c["cert_id"] for c in json.loads((out / "certificates.json").read_text())]
    assert len(ids) == len(set(ids))
    assert "early-gradient-lower" in ids


def _gradient_lower(record, ctx):
    (rep,) = [c for c in evaluate_certificates(record, ctx)
              if c["cert_id"] == "early-gradient-lower"]
    return rep


def test_early_gradient_lower_reports_worst_step_once(monkeypatch):
    record, ctx = run_experiment(EARLY_BINARY)
    rep = _gradient_lower(record, ctx)
    assert rep["passed"] and not rep["inconclusive"]
    assert rep["context"]["failing_steps"] == []
    # Shrinking the measured gradient below the bound at t = 2 (by 4) and
    # t = 5 (by 2) fails the one report, which names the worst failing step.
    _hand_out(monkeypatch, {t: lambda r, factor=factor: {"grad_norm": r.grad_norm / factor}
                            for t, factor in ((2, 4.0), (5, 2.0))})
    record, ctx = run_experiment(EARLY_BINARY)
    rep = _gradient_lower(record, ctx)
    assert not rep["passed"] and not rep["inconclusive"]
    assert rep["context"] == {"t": 2, "failing_steps": [2, 5]}
    assert rep["slack"] == rep["measured"] - rep["theoretical"] < 0.0


def test_early_gradient_lower_is_inconclusive_when_the_bound_is_vacuous():
    # At m = 16 the width tail exceeds gamma1 / gamma2: the bound is <= 0 at every t.
    record, ctx = run_experiment(dict(EARLY_BINARY, model={"m": 16, "kappa": "auto"}))
    rep = _gradient_lower(record, ctx)
    assert rep["inconclusive"] and not rep["passed"]
    assert rep["theoretical"] <= 0.0


def test_early_descent_binary_fails_on_its_own(monkeypatch):
    """Negative control: a loss at t* planted above L(0) - bound fails
    early-descent-binary; every other report keeps its verdict."""
    record, ctx = run_experiment(EARLY_BINARY)
    before = {c["cert_id"]: verdict(c) for c in evaluate_certificates(record, ctx)}
    assert before["early-descent-binary"] == "PASS"
    ts, L0 = ctx["tstar"], record.records.first.loss
    _hand_out(monkeypatch, {ts: lambda r: {"loss": L0}})
    record, ctx = run_experiment(EARLY_BINARY)
    after = {c["cert_id"]: c for c in evaluate_certificates(record, ctx)}
    rep = after.pop("early-descent-binary")
    assert verdict(rep) == "FAIL" and rep["measured"] == 0.0 < rep["theoretical"]
    assert rep["slack"] == -rep["theoretical"] and rep["context"]["t_star"] == ts
    assert {k: verdict(c) for k, c in after.items()} == {
        k: v for k, v in before.items() if k != "early-descent-binary"}


# The small-rate run of scripts/same_outputs.py: t* = 4479, and at m = 16 the
# descent bound is negative.
SMALL_RATE = {"kind": "early-binary", "dataset": {"type": "synthetic", "n": 6, "d": 8, "seed": 1},
              "model": {"m": 16, "kappa": "auto"}, "loss": "quadratic",
              "schedule": {"type": "constant", "eta": 1e-4}, "delta": 0.01, "seed": 1}


def test_early_descent_binary_is_inconclusive_on_a_negative_bound():
    record, ctx = run_experiment(SMALL_RATE)
    (rep,) = [c for c in evaluate_certificates(record, ctx)
              if c["cert_id"] == "early-descent-binary"]
    assert rep["theoretical"] < 0.0 < rep["measured"]
    assert verdict(rep) == "INCONCLUSIVE" and rep["slack"] > 0.0


def test_unknown_nested_key_is_an_error(tmp_path, capsys):
    bad = json.loads(json.dumps(EARLY_BINARY))
    bad["schedule"]["rate"] = 0.5
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_seed_override_changes_run(tmp_path):
    cfg = write_config(tmp_path, "c.json", EARLY_BINARY)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["train", "--config", str(cfg), "--out", str(out1), "--seed", "3"])
    main(["train", "--config", str(cfg), "--out", str(out2), "--seed", "4"])
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["net0_digest"] != s2["net0_digest"]


def test_certify_only_needs_no_schedule(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "kind": "certify-only",
        "dataset": {"type": "synthetic", "n": 12, "d": 20, "seed": 0},
        "model": {"m": 256, "kappa": "auto"},
        "delta": 0.05, "seed": 0})
    out = tmp_path / "co"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    certs = json.loads((out / "certificates.json").read_text())
    assert [c["cert_id"] for c in certs] == ["gamma-sandwich"]
    assert certs[0]["passed"]


REPORT_KEYS = {f.name for f in dataclasses.fields(CertificateReport)}


@pytest.mark.parametrize("command,config", [("verify", EARLY_BINARY), ("prm", PRM)])
def test_every_report_has_the_certificate_report_keys(tmp_path, command, config):
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "run"
    main([command, "--config", str(cfg), "--out", str(out)])
    reports = json.loads((out / "certificates.json").read_text())
    assert reports
    assert all(set(c) == REPORT_KEYS for c in reports)


def test_report_ranks_pass_above_inconclusive(tmp_path, capsys):
    (tmp_path / "summary.json").write_text(json.dumps({"kind": "early-binary"}))
    (tmp_path / "certificates.json").write_text(json.dumps([{
        "cert_id": "hand-written", "theoretical": 1.0, "measured": 2.0,
        "passed": True, "slack": 1.0, "inconclusive": True, "context": {}}]))
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert "[PASS] hand-written" in capsys.readouterr().out


@pytest.fixture(scope="module")
def onehot_spec(tmp_path_factory):
    """A 30-record, 3-class IDX corpus of 4x4 images, as a dataset spec."""
    d = tmp_path_factory.mktemp("idx")
    gen = np.random.default_rng(0)
    pixels = np.clip(np.abs(gen.standard_normal((30, 16))) * 64.0, 1.0, 255.0)
    write_idx_images(d / "images", pixels.astype(np.uint8), 4, 4)
    write_idx_labels(d / "labels", (np.arange(30) % 3).astype(np.uint8))
    return {"type": "mnist", "images": str(d / "images"), "labels": str(d / "labels"),
            "count": 30}


def test_early_descent_multi_is_inconclusive_when_the_budget_is_vacuous(tmp_path):
    # 60 records of 2x2 images, m = 50, B = 16: the failure budget is about
    # 16, so the measured descent (0.125 against 0.2625) decides nothing.
    gen = np.random.default_rng(0)
    pixels = np.clip(np.abs(gen.standard_normal((60, 4))) * 64.0, 1.0, 255.0)
    write_idx_images(tmp_path / "images", pixels.astype(np.uint8), 2, 2)
    write_idx_labels(tmp_path / "labels", (np.arange(60) % 3).astype(np.uint8))
    record, ctx = run_experiment({
        "kind": "early-multiclass", "loss": "logistic",
        "dataset": {"type": "mnist", "images": str(tmp_path / "images"),
                    "labels": str(tmp_path / "labels"), "count": 60},
        "model": {"m": 50, "kappa": "auto"}, "schedule": {"type": "constant", "eta": 0.01},
        "train": {"batch": {"B": 16, "seed": 1}}, "delta": 0.05, "seed": 3})
    (rep,) = [c for c in evaluate_certificates(record, ctx) if c["cert_id"] == "early-descent-multi"]
    assert rep["context"]["budget"] >= 1.0
    assert rep["measured"] < rep["theoretical"]
    assert verdict(rep) == "INCONCLUSIVE"


def test_multi_gram_entries_at_least_one_fails_on_a_planted_minimum(onehot_spec):
    """Negative control: a minimum entry below 1 at one step of the Gram
    observer fails multi-gram-entries-at-least-one, which reports the least."""
    record, ctx = run_experiment(_small_config("early-multiclass", onehot_spec))
    (gram, _), report = cli._certify_early_multiclass(ctx)

    def multi_gram():
        (rep,) = [c for c in report(record) if c["cert_id"] == "multi-gram-entries-at-least-one"]
        return rep

    gram.minima = [1.5, 1.25, 3.0]
    rep = multi_gram()
    assert verdict(rep) == "PASS" and (rep["measured"], rep["slack"]) == (1.25, 0.25)
    gram.minima = [1.5, 0.75, 0.5, 3.0]
    rep = multi_gram()
    assert verdict(rep) == "FAIL" and (rep["theoretical"], rep["measured"]) == (1.0, 0.5)
    assert rep["slack"] == -0.5


TINY = dict(EARLY_BINARY, dataset={"type": "synthetic", "n": 6, "d": 8, "seed": 1},
            model={"m": 16, "kappa": "auto"}, train={"steps": 3})
LOSS_INVERSE = {"type": "loss-inverse", "eta0": 0.25, "c": 0.5}

# Configs whose kind cannot use their schedule, loss or dataset; the one-hot
# dataset is filled in from the fixture.
MISMATCHED = {
    "early-binary-loss-inverse": dict(TINY, schedule=LOSS_INVERSE),
    "global-poly-constant": dict(TINY, kind="global-poly", loss="exp"),
    "early-multiclass-quadratic": dict(TINY, kind="early-multiclass", dataset=None),
    "global-exp-onehot": dict(TINY, kind="global-exp", loss="exp",
                              schedule=LOSS_INVERSE, dataset=None),
    "certify-only-onehot": {k: v for k, v in dict(TINY, kind="certify-only", dataset=None).items()
                            if k != "train"},
}


@pytest.mark.parametrize("command", ["train", "verify"])
@pytest.mark.parametrize("name", sorted(MISMATCHED))
def test_kind_mismatch_is_a_config_error(tmp_path, capsys, onehot_spec, name, command):
    config = dict(MISMATCHED[name])
    if config["dataset"] is None:
        config["dataset"] = onehot_spec
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


MUTATED_FIELDS = {
    "kind": ["early-binary", "early-multiclass", "global-poly", "global-exp",
             "certify-only", "prm"],
    "schedule.type": ["constant", "loss-inverse", "two-stage-poly"],
    "loss": list(LOSS_KEYS),
    "dataset.type": ["synthetic", "mnist", "cifar10"],
    "train.trained_layers": ["all", "input_only"],
    "model.kappa": [1e-300, 1e300],
    "delta": [0, 2],
}
JUNK = st.one_of(st.text(max_size=6), st.integers(-2, 2), st.none(), st.booleans(),
                 st.lists(st.integers(0, 2), max_size=2))


def _valid_bases(onehot):
    certify_only = dict(TINY, kind="certify-only")
    del certify_only["train"]
    return [
        TINY,
        dict(TINY, kind="global-exp", loss="exp", schedule=LOSS_INVERSE),
        certify_only,
        dict(TINY, kind="early-multiclass", loss="logistic", dataset=onehot,
             train={"steps": 3, "batch": {"B": 8, "seed": 1}}),
    ]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), field=st.sampled_from(sorted(MUTATED_FIELDS)),
       command=st.sampled_from(["train", "verify"]))
def test_one_mutated_enum_field_never_raises(tmp_path_factory, onehot_spec, data,
                                             field, command):
    base = data.draw(st.sampled_from(_valid_bases(onehot_spec)), label="base")
    value = data.draw(st.one_of(st.sampled_from(MUTATED_FIELDS[field]), JUNK), label="value")
    config = json.loads(json.dumps(base))
    cur = config
    *parents, leaf = field.split(".")
    for key in parents:
        cur = cur.setdefault(key, {})
    cur[leaf] = value
    tmp = tmp_path_factory.mktemp("mutated")
    cfg = write_config(tmp, "c.json", config)
    assert main([command, "--config", str(cfg), "--out", str(tmp / "run")]) in (0, 1, 2)


GLOBAL_POLY = {
    "kind": "global-poly",
    "dataset": {"type": "synthetic", "n": 10, "d": 12, "seed": 3},
    "model": {"m": 256, "kappa": "auto"},
    "loss": "exp",
    "schedule": {"type": "two-stage-poly", "eta0": 0.25, "c": 1.0 / 15.5, "T0": 10 ** 9,
                 "cprime": 0.5, "r": 1.0},
    "train": {"steps": 60},
    "delta": 0.01,
    "seed": 3,
}


def test_partition_dynamics_global_fails_through_verify(tmp_path):
    """Negative control: at kappa = 0.1 the global-poly run leaves TL/FD at
    step 1, and verify reports it."""
    cfg = write_config(tmp_path, "c.json", dict(GLOBAL_POLY, model={"m": 256, "kappa": 0.1}))
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    (rep,) = [c for c in json.loads((out / "certificates.json").read_text())
              if c["cert_id"] == "partition-dynamics-global"]
    assert verdict(rep) == "FAIL" and rep["measured"] == 3.0 and rep["slack"] == -3.0
    assert rep["context"]["first"] == {
        "rule": "StageII-S4", "step": 1, "sample": 2, "neuron": 65, "lam": None,
        "detail": "cell outside TL/FD at step >= 1"}


def test_correct_classification_fails_on_a_nonpositive_margin(monkeypatch):
    """Negative control: a nonpositive min_margin planted at t >= 1 fails
    correct-classification, which reports the least margin over t >= 1 and
    its step, and names the first nonpositive one."""
    def report(changes=None):
        handed = _hand_out(monkeypatch, changes)
        record, ctx = run_experiment(GLOBAL_POLY)
        (rep,) = [c for c in evaluate_certificates(record, ctx)
                  if c["cert_id"] == "correct-classification"]
        return rep, handed

    rep, handed = report()
    least = min(handed[1:], key=lambda r: r.min_margin)
    assert verdict(rep) == "PASS" and rep["measured"] == rep["slack"] == least.min_margin > 0.0
    assert rep["context"] == {"t": least.t, "first_violation": None}
    rep, _ = report({t: lambda r, margin=margin: {"min_margin": margin}   # t = 0 is not checked
                     for t, margin in ((0, -5.0), (30, 0.0), (7, -0.25), (12, -1.0))})
    assert verdict(rep) == "FAIL" and rep["measured"] == rep["slack"] == -1.0
    assert rep["context"]["t"] == 12
    assert tuple(rep["context"]["first_violation"]) == (7, -0.25)


@pytest.mark.parametrize("kind,cert_id", [("global-poly", "rate-poly_stage1"),
                                           ("global-exp", "rate-exponential")])
def test_rate_envelope_fails_on_a_loss_above_it(monkeypatch, kind, cert_id):
    """Negative control: losses planted above the envelope at t = 20 (twice
    L(1)) and t = 40 (1.5 L(1)) fail the kind's rate report, which names the
    worse one; every other report keeps its verdict.  At m = 512 the certified
    rate is positive, so the report is not made inconclusive by a vacuous V."""
    schedule = GLOBAL_POLY["schedule"] if kind == "global-poly" else LOSS_INVERSE
    config = dict(GLOBAL_POLY, kind=kind, schedule=schedule, model={"m": 512, "kappa": "auto"})
    handed = _hand_out(monkeypatch)
    record, ctx = run_experiment(config)
    before = {c["cert_id"]: verdict(c) for c in evaluate_certificates(record, ctx)}
    assert before[cert_id] == "PASS"
    L1 = handed[1].loss
    _hand_out(monkeypatch, {t: lambda r, factor=factor: {"loss": factor * L1}
                            for t, factor in ((20, 2.0), (40, 1.5))})
    record, ctx = run_experiment(config)
    after = {c["cert_id"]: c for c in evaluate_certificates(record, ctx)}
    rep = after.pop(cert_id)
    rate = rep["theoretical"]
    envelope = L1 / 20 ** rate if kind == "global-poly" else (1.0 - rate) ** 19 * L1
    assert verdict(rep) == "FAIL" and rate > 0.0
    assert rep["context"]["worst_t"] == 20 and rep["slack"] == envelope - 2.0 * L1 < 0.0
    assert {k: verdict(c) for k, c in after.items()} == {
        k: v for k, v in before.items() if k != cert_id}


@pytest.mark.parametrize("scale", [0.25, 1.25])
def test_gamma_sandwich_fails_on_a_gamma1_outside_it(monkeypatch, scale):
    """Negative control: gamma1 replaced by scale * gamma2, below gamma2 / 2 or
    above gamma2, fails gamma-sandwich by the distance to the nearer side."""
    config = {"kind": "certify-only", "dataset": {"type": "synthetic", "n": 12, "d": 20, "seed": 0},
              "model": {"m": 256, "kappa": "auto"}, "delta": 0.05, "seed": 0}
    record, ctx = run_experiment(config)
    (rep,) = evaluate_certificates(record, ctx)
    assert verdict(rep) == "PASS"
    g2 = rep["context"]["gamma2"]
    measured = cli.compute_gamma_constants
    monkeypatch.setattr(cli, "compute_gamma_constants", lambda ds: (scale * measured(ds)[1],
                                                                    measured(ds)[1]))
    (rep,) = evaluate_certificates(record, ctx)
    assert verdict(rep) == "FAIL" and rep["measured"] == scale * g2
    assert rep["slack"] == min(scale * g2 - g2 / 2.0, g2 - scale * g2) < 0.0


def _small_config(name, onehot):
    if name == "early-binary":
        return EARLY_BINARY
    if name == "global-poly":
        return GLOBAL_POLY
    return dict(TINY, kind="early-multiclass", loss="logistic", dataset=onehot,
                model={"m": 32, "kappa": "auto"},
                train={"steps": 40, "batch": {"B": 8, "seed": 1}})


def _reduced(record):
    """What the run record's reducers hold but for the CSV digest."""
    log = record.records
    return (log.first, log.last, len(log), record.measured_T, record.first_violation,
            record.min_batch_alignment, record.status)


@pytest.mark.parametrize("name", ["early-binary", "early-multiclass", "global-poly"])
def test_record_every_thins_only_the_step_records(tmp_path, monkeypatch, onehot_spec, name):
    config = _small_config(name, onehot_spec)
    runs = {}
    for k in (1, 5):
        cfg = json.loads(json.dumps(config))
        cfg["train"]["record_every"] = k
        handed = _hand_out(monkeypatch)
        record, ctx = run_experiment(cfg, outdir=tmp_path / str(k))
        runs[k] = (record, evaluate_certificates(record, ctx), handed,
                   (tmp_path / str(k) / "steps.csv").read_text())
    (every, reports, handed, full_csv), (thinned, thinned_reports, thinned_handed, csv) = \
        runs[1], runs[5]
    # The certificates see every step: same ids, verdicts, worst steps and slacks.
    assert thinned_reports == reports
    assert len(reports) >= 3
    # run hands out the same records, and the reducers hold the same values.
    assert thinned_handed == handed
    assert _reduced(thinned) == _reduced(every)
    # Only steps.csv thins: every fifth row of the full one, and the last.
    assert full_csv == oracles.steps_csv(handed)
    assert every.records.digest() == hashlib.sha256(full_csv.encode()).hexdigest()
    assert thinned.records.digest() == hashlib.sha256(csv.encode()).hexdigest()
    last = every.records.last.t
    rows = full_csv.split("\n")[1:-1]
    assert csv.split("\n")[1:-1] == [row for t, row in enumerate(rows) if t % 5 == 0 or t == last]


def test_hitting_time_sentinel_is_the_last_step_reached():
    record, ctx = run_experiment(EARLY_BINARY)
    (rep,) = [c for c in evaluate_certificates(record, ctx)
              if c["cert_id"] == "hitting-time-at-least-tstar"]
    assert record.measured_T == -1 and rep["context"]["sentinel_not_yet_hit"]
    assert rep["measured"] == 46.0 and rep["slack"] == 46.0 - 44.0


# A run keeps no per-step object: of 4500 more steps, verify keeps only the
# rate fit's two float64 columns (72 kB), train nothing.
PEAK_GROWTH_BOUND = 0.25e6   # bytes


def _peak_growth(tmp_path, command, **train):
    """How much the tracemalloc peak of ``command`` on GLOBAL_POLY grows from
    500 to 5000 steps."""
    def peak(steps):
        cfg = write_config(tmp_path, f"c{steps}.json",
                           dict(GLOBAL_POLY, train=dict(train, steps=steps)))
        tracemalloc.start()
        try:
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / str(steps))]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(5000) - peak(500)
    summary = json.loads((tmp_path / "5000" / "summary.json").read_text())
    assert summary["status"] == "completed" and summary["steps"] == 5000
    return growth


def test_verify_memory_does_not_grow_with_the_horizon(tmp_path):
    assert _peak_growth(tmp_path, "verify") < PEAK_GROWTH_BOUND


def test_train_memory_at_a_thinned_record_does_not_grow_with_the_horizon(tmp_path):
    # The rows of steps.csv go to the file as the steps happen.
    assert _peak_growth(tmp_path, "train", record_every=100) < PEAK_GROWTH_BOUND
    assert len((tmp_path / "5000" / "steps.csv").read_text().splitlines()) == 1 + 51


def test_global_kinds_default_to_the_exp_loss(monkeypatch):
    implicit = {k: v for k, v in GLOBAL_POLY.items() if k != "loss"}
    runs = []
    for config in (implicit, GLOBAL_POLY):
        handed = _hand_out(monkeypatch)
        record = run_experiment(config, certify=False)[0]
        runs.append((_reduced(record), record.records.digest(), handed))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("config,message", [
    (dict(GLOBAL_POLY, loss="quadratic"), "global-poly takes a loss of kind exptype, not 'quadratic' (quadratic)"),
    (dict(GLOBAL_POLY, kind="global-exp", loss="hinge"), "global-exp takes a loss of kind exptype, not 'hinge' (general)"),
    (dict(TINY, kind="certify-only"), "certify-only certifies the dataset and takes no train.steps"),
    (dict(TINY, train={"steps": 3, "record_every": 0}), "record_every must be >= 1"),
    (dict(TINY, train={"steps": -1}), "steps must be >= 0"),
    (dict(TINY, kind="early-multiclass", loss="logistic",
          train={"steps": 3, "trained_layers": "input_only"}),
     "early-multiclass: input-only training is defined for the binary network only"),
    (PRM, "use run_prm_experiment for prm configs"),
    (dict(TINY, train={"steps": 3, "batch": {"B": 4}}),
     "early-binary is certified for full-batch training only and takes no train.batch"),
    (dict(GLOBAL_POLY, train={"steps": 3, "batch": {"B": 4}}),
     "global-poly is certified for full-batch training only and takes no train.batch"),
    (dict(GLOBAL_POLY, kind="global-exp", schedule=LOSS_INVERSE, train={"batch": {"B": 4}}),
     "global-exp is certified for full-batch training only and takes no train.batch"),
    (dict(TINY, kind="certify-only", train={"batch": {"B": 4}}),
     "certify-only is certified for full-batch training only and takes no train.batch"),
    (dict(TINY, schedule={"type": "constant", "eta": 0.05}, train={}),
     "schedule.eta: eta must lie in (0, 0.01] to define t*, not 0.05"),
    (dict(GLOBAL_POLY, schedule=dict(GLOBAL_POLY["schedule"], T0=20, cprime=-0.5)),
     "TwoStagePoly requires cprime > 0"),
    (dict(GLOBAL_POLY, schedule=dict(GLOBAL_POLY["schedule"], T0=0)),
     "TwoStagePoly requires T0 >= 1"),
])
def test_config_errors_come_before_dataset_and_init(tmp_path, capsys, monkeypatch,
                                                    config, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(cli, "build_dataset", refuse)
    cfg = write_config(tmp_path, "c.json", config)
    for command in ("train", "verify"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("command", ["train", "verify"])
def test_negative_steps_is_reported_ahead_of_a_missing_idx_file(tmp_path, capsys, command):
    config = dict(TINY, dataset={"type": "mnist", "images": str(tmp_path / "nope-images"),
                                 "labels": str(tmp_path / "nope-labels")},
                  train={"steps": -1})
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "steps" in err and "nope-images" not in err


# Runs that abort at step 0 (or have no step after it) and malformed inputs:
# (config, exit code).  An aborted run exits 1 and still writes its run
# directory; a config error exits 2 before anything is written.
BROKEN = {
    "early-binary-kappa-1e300": (dict(TINY, model={"m": 16, "kappa": 1e300}), 1),
    "global-poly-kappa-1e150": (dict(GLOBAL_POLY, model={"m": 256, "kappa": 1e150},
                                     schedule=LOSS_INVERSE), 1),
    "global-poly-kappa-1e3": (dict(GLOBAL_POLY, model={"m": 256, "kappa": 1e3},
                                   schedule=LOSS_INVERSE), 1),
    "model-not-an-object": (dict(TINY, model=5), 2),
    "schedule-null": (dict(TINY, schedule=None), 2),
    "train-an-array": (dict(TINY, train=[]), 2),
    "batch-an-array": (dict(TINY, train={"steps": 3, "batch": [64]}), 2),
    "kappa-null": (dict(TINY, model={"m": 16, "kappa": None}), 2),
    "images-an-array": (dict(TINY, dataset={"type": "mnist", "images": [1], "labels": "x"}), 2),
    "delta-0": (dict(TINY, delta=0), 2),
    "delta-2": (dict(TINY, delta=2.0), 2),
    "delta-null": (dict(TINY, delta=None), 2),
    "prm-5": (dict(TINY, prm=5), 2),
}


@pytest.mark.parametrize("command", ["train", "verify"])
@pytest.mark.parametrize("name", sorted(BROKEN))
def test_aborted_runs_and_malformed_configs_keep_the_exit_code_contract(
        tmp_path, capsys, monkeypatch, name, command):
    config, expected = BROKEN[name]
    if expected == 2:
        for loader in ("gen_orthant_separable", "load_mnist", "load_cifar10"):
            monkeypatch.setattr(cli, loader, lambda *a, **k: pytest.fail("dataset built"))
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert out.exists() == (expected == 1)
    if expected == 1:
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"].startswith("aborted:")
    else:
        assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["train", "verify"])
def test_report_exits_1_on_an_aborted_run(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", BROKEN["global-poly-kappa-1e150"][0])
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert main(["report", "--out", str(out)]) == 1
    assert "status: aborted:non-finite-loss-at-t=0" in capsys.readouterr().out


def test_a_run_with_no_step_reports_inconclusive_where_nothing_was_measured(tmp_path):
    for name, cert_id in (("early-binary-kappa-1e300", "hitting-time-at-least-tstar"),
                          ("early-binary-kappa-1e300", "partition-dynamics-early"),
                          ("global-poly-kappa-1e3", "rate-poly_stage1"),
                          ("global-poly-kappa-1e150", "correct-classification"),
                          ("global-poly-kappa-1e150", "partition-dynamics-global")):
        with np.errstate(over="ignore", invalid="ignore"):
            record, ctx = run_experiment(BROKEN[name][0])
        (rep,) = [c for c in evaluate_certificates(record, ctx) if c["cert_id"] == cert_id]
        assert verdict(rep) == "INCONCLUSIVE", (name, cert_id)
        assert math.isnan(rep["measured"]) and math.isnan(rep["slack"]), (name, cert_id)


def test_a_partition_violation_still_fails():
    viol = [DynamicsViolation("S1", 3, 0, 2, "planted")]
    rep = cli._partition_report("partition-dynamics-early", viol)
    assert verdict(rep) == "FAIL" and rep["measured"] == 1.0 and rep["slack"] == -1.0
    assert verdict(cli._partition_report("partition-dynamics-early", [])) == "PASS"


def test_certify_only_validates_the_dataset_once(monkeypatch):
    # kappa "auto" reads mu0 for the cap and the report reads the same
    # separability report; without an antipodal pair each call would run
    # the O(n^3) witness search.
    calls = []

    def counted(ds):
        calls.append(ds)
        return validate(ds)

    validate = cli.validate_separable
    monkeypatch.setattr(cli, "validate_separable", counted)
    record, ctx = run_experiment({
        "kind": "certify-only",
        "dataset": {"type": "synthetic", "n": 12, "d": 6, "seed": 0, "antipodal": False},
        "model": {"m": 16, "kappa": "auto"}, "delta": 0.05, "seed": 0})
    (rep,) = evaluate_certificates(record, ctx)
    assert len(calls) == 1
    assert rep["context"]["mu0"] == validate(ctx["ds"]).mu0


def test_hitting_time_fails_on_a_violation_at_t0_or_t1():
    # kappa = 100 gives max |f| > 1 at t = 0: T = -1, the value the sentinel
    # also takes, so the report must read the violation, not the sign of T.
    record, ctx = run_experiment(dict(EARLY_BINARY, model={"m": 512, "kappa": 100}))
    assert record.records.first.max_abs_pred > 1.0 and record.first_violation == 0
    (rep,) = [c for c in evaluate_certificates(record, ctx)
              if c["cert_id"] == "hitting-time-at-least-tstar"]
    assert verdict(rep) == "FAIL" and rep["measured"] == -1.0 and rep["slack"] == -45.0
    assert not rep["context"]["sentinel_not_yet_hit"]
    at_one = RunRecord(records=record.records, measured_T=-1, first_violation=1)
    rep = cli._hitting_time_report(at_one, 44)
    assert verdict(rep) == "FAIL" and rep["measured"] == -1.0


def test_hitting_time_is_inconclusive_when_the_run_stops_before_tstar():
    record, ctx = run_experiment(dict(EARLY_BINARY, train={"steps": 10}))
    (rep,) = [c for c in evaluate_certificates(record, ctx)
              if c["cert_id"] == "hitting-time-at-least-tstar"]
    assert record.measured_T == -1 and rep["context"]["sentinel_not_yet_hit"]
    assert rep["theoretical"] == 44.0 and rep["measured"] == 10.0
    assert rep["inconclusive"] and not rep["passed"]
    # A violation before t* is measured, whenever the run stops: it fails.
    hit = RunRecord(records=record.records, measured_T=7, first_violation=9)
    rep = cli._hitting_time_report(hit, 44)
    assert verdict(rep) == "FAIL" and rep["measured"] == 7.0 and rep["slack"] == -37.0


@pytest.mark.parametrize("batch", [None, {"B": 4, "seed": 1}], ids=["full", "stochastic"])
def test_a_non_finite_gradient_aborts_the_run_at_its_step(tmp_path, monkeypatch, onehot_spec,
                                                          batch):
    """A NaN gradient entry at t = 2 (in the full gradient of an early-binary
    run under Full(), in the batch gradient of an early-multiclass run under
    Stochastic) stops the run there: the status names the step, t = 2 is the
    last record, and verify exits 1 with a run directory."""
    name = "evaluate" if batch is None else "grad_loss_struct"
    original, calls = getattr(training, name), []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:     # the gradient of step t = 2
            (out[3] if batch is None else out)[1][0, 0] = np.nan
        return out

    monkeypatch.setattr(training, name, poisoned)
    config = (dict(TINY, train={"steps": 5}) if batch is None else
              dict(TINY, kind="early-multiclass", loss="logistic", dataset=onehot_spec,
                   train={"steps": 5, "batch": batch}))
    record, _ = run_experiment(config, certify=False)
    assert record.status == "aborted:non-finite-gradient-at-t=2"
    assert record.records.last.t == 2
    calls.clear()
    cfg, out = write_config(tmp_path, "c.json", config), tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "aborted:non-finite-gradient-at-t=2" and summary["steps"] == 2


@pytest.mark.parametrize("command", ["train", "verify"])
def test_only_a_run_that_needs_tstar_caps_eta(tmp_path, capsys, command):
    # train with train.steps needs no t*; verify of an early kind does, and
    # t* is defined for eta in (0, 0.01] only.
    cfg = write_config(tmp_path, "c.json", dict(TINY, schedule={"type": "constant", "eta": 0.05},
                                                 train={"steps": 10}))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    if command == "train":
        assert code == 0 and err == ""
    else:
        assert code == 2
        assert err == "error: schedule.eta: eta must lie in (0, 0.01] to define t*, not 0.05\n"


def _kind_config(kind, onehot):
    """A small config of ``kind`` at its default horizon."""
    if kind == "early-binary":
        return dict(TINY, train={})
    if kind == "early-multiclass":
        return dict(TINY, kind=kind, loss="logistic", dataset=onehot,
                    model={"m": 32, "kappa": "auto"}, train={"batch": {"B": 8, "seed": 1}})
    if kind == "global-poly":
        return dict(GLOBAL_POLY, train={})
    if kind == "global-exp":
        return dict(GLOBAL_POLY, kind=kind, schedule=LOSS_INVERSE, train={})
    return {k: v for k, v in dict(TINY, kind=kind).items() if k != "train"}


# certify-only takes no training steps: its only run is the full one.
KIND_RUNS = [(kind, run) for kind in sorted(cli._KINDS)
             for run in ("full", "steps-0", "short", "abort-at-0")
             if kind != "certify-only" or run == "full"]


@pytest.mark.parametrize("kind,run", KIND_RUNS)
def test_every_run_emits_its_kinds_cert_ids_once_in_order(monkeypatch, onehot_spec, kind, run):
    """Whatever the horizon, a run reports each id of its kind's cert_ids once,
    in order.  A run that stopped short (before t* for the early kinds, at
    t = 1 for the global ones) or reached no step passes nothing: a report
    that did not fail is INCONCLUSIVE and says why."""
    config = json.loads(json.dumps(_kind_config(kind, onehot_spec)))
    if run == "steps-0":
        config["train"]["steps"] = 0
    elif run == "short":
        config["train"]["steps"] = 5 if kind.startswith("early-") else 1
    elif run == "abort-at-0":
        evaluate = training.evaluate
        monkeypatch.setattr(training, "evaluate",
                            lambda *a, **k: (math.nan, *evaluate(*a, **k)[1:]))
    record, ctx = run_experiment(config)
    reports = evaluate_certificates(record, ctx)
    assert [c["cert_id"] for c in reports] == list(cli._KINDS[kind].cert_ids)
    assert (len(record.records) == 0) == (run == "abort-at-0")
    for c in reports:
        if run == "full":
            assert "reason" not in c["context"], c
        elif verdict(c) != "FAIL":
            assert verdict(c) == "INCONCLUSIVE" and c["context"]["reason"], c


def test_a_certificate_outside_the_kinds_cert_ids_is_a_programming_error():
    record, ctx = run_experiment(TINY)
    build = ctx["report"]
    for extra in ("hessian-binary_early", "gram-cross-class-zero"):   # undeclared; a repeat
        ctx["report"] = lambda record, extra=extra: build(record) + [
            CertificateReport(extra, 0.0, 0.0, True, 0.0).as_dict()]
        with pytest.raises(RuntimeError, match=extra):
            evaluate_certificates(record, ctx)


SUITE_EARLY_BINARY = dict(EARLY_BINARY, dataset={"type": "synthetic", "n": 40, "d": 30, "seed": 0},
                          delta=0.01, seed=0)


def test_gram_same_class_lower_is_inconclusive_when_the_bound_is_vacuous():
    # n = 40, delta = 0.01: the width tail exceeds 1 for m <= 64, so the bound
    # is <= 0 at every same-class pair; it is positive from m = 256 on, and
    # refuted from m = 512.
    verdicts = {}
    for m in (16, 64, 256, 512):
        record, ctx = run_experiment(dict(SUITE_EARLY_BINARY, model={"m": m, "kappa": "auto"}))
        (rep,) = [c for c in evaluate_certificates(record, ctx)
                  if c["cert_id"] == "gram-same-class-lower"]
        verdicts[m] = verdict(rep)
        assert (rep["theoretical"] <= 0.0) == (m <= 64), (m, rep)
    assert verdicts == {16: "INCONCLUSIVE", 64: "INCONCLUSIVE", 256: "PASS", 512: "FAIL"}


def test_verify_and_report_print_why_a_certificate_was_not_measured(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", dict(TINY, train={"steps": 5}))
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert ("[INCONCLUSIVE] early-descent-binary: bound=nan measured=nan slack=nan "
            "(not measured; the run reached t = 5)\n") in printed
    assert "(the claim covers t <= t* = 44; the run reached t = 5)\n" in printed
    assert main(["report", "--out", str(out)]) == 0
    assert "measured=nan slack=nan (not measured; the run reached t = 5)\n" in \
        capsys.readouterr().out
