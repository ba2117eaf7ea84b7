import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relulab import cli
from relulab.certificates import CertificateReport
from relulab.cli import evaluate_certificates, main, run_experiment
from relulab.datasets import write_idx_images, write_idx_labels
from relulab.losses import LOSS_KEYS


def write_config(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


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


class _ShrinkGradients:
    """Hands an observer the gradient norm of step 2 divided by 4 and of step 5 by 2."""

    def __init__(self, observer):
        self.observer = observer

    def step(self, t, net, H, r):
        if t in (2, 5):
            r = dataclasses.replace(r, grad_norm=r.grad_norm / (4.0 if t == 2 else 2.0))
        self.observer.step(t, net, H, r)


def test_early_gradient_lower_reports_worst_step_once(monkeypatch):
    record, ctx = run_experiment(EARLY_BINARY)
    rep = _gradient_lower(record, ctx)
    assert rep["passed"] and not rep["inconclusive"]
    assert rep["context"]["failing_steps"] == []
    # Shrinking the measured gradient below the bound at t = 2 and 5 fails
    # the one report, which names the worst of the failing steps.
    train = cli.run
    monkeypatch.setattr(cli, "run", lambda *args: train(
        *args[:-1], [_ShrinkGradients(o) for o in args[-1]]))
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


def _small_config(name, onehot):
    if name == "early-binary":
        return EARLY_BINARY
    if name == "global-poly":
        return GLOBAL_POLY
    return dict(TINY, kind="early-multiclass", loss="logistic", dataset=onehot,
                model={"m": 32, "kappa": "auto"},
                train={"steps": 40, "batch": {"B": 8, "seed": 1}})


@pytest.mark.parametrize("name", ["early-binary", "early-multiclass", "global-poly"])
def test_record_every_thins_only_the_step_records(onehot_spec, name):
    config = _small_config(name, onehot_spec)
    runs = {}
    for k in (1, 5):
        cfg = json.loads(json.dumps(config))
        cfg["train"]["record_every"] = k
        record, ctx = run_experiment(cfg)
        runs[k] = record, evaluate_certificates(record, ctx)
    (every, reports), (thinned, thinned_reports) = runs[1], runs[5]
    # The certificates see every step: same ids, verdicts, worst steps and slacks.
    assert thinned_reports == reports
    assert len(reports) >= 3
    last = every.records[-1].t
    assert thinned.records == [r for r in every.records if r.t % 5 == 0 or r.t == last]
    assert thinned.measured_T == every.measured_T


def test_hitting_time_sentinel_is_the_last_step_reached():
    record, ctx = run_experiment(EARLY_BINARY)
    (rep,) = [c for c in evaluate_certificates(record, ctx)
              if c["cert_id"] == "hitting-time-at-least-tstar"]
    assert record.measured_T == -1 and rep["context"]["sentinel_not_yet_hit"]
    assert rep["measured"] == 46.0 and rep["slack"] == 46.0 - 44.0


def test_verify_memory_does_not_grow_with_the_horizon(tmp_path):
    def peak(steps):
        cfg = write_config(tmp_path, f"c{steps}.json", dict(GLOBAL_POLY, train={"steps": steps}))
        tracemalloc.start()
        try:
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / str(steps))]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(5000) - peak(500)
    summary = json.loads((tmp_path / "5000" / "summary.json").read_text())
    assert summary["status"] == "completed" and summary["steps"] == 5000
    m, d = GLOBAL_POLY["model"]["m"], GLOBAL_POLY["dataset"]["d"]
    one_net = 8 * m * (d + 1)                   # a (m,) and B (m, d), float64
    assert growth < 0.1 * 4500 * one_net


def test_global_kinds_default_to_the_exp_loss():
    implicit = {k: v for k, v in GLOBAL_POLY.items() if k != "loss"}
    assert run_experiment(implicit, certify=False)[0].records == \
        run_experiment(GLOBAL_POLY, certify=False)[0].records


@pytest.mark.parametrize("config,message", [
    (dict(GLOBAL_POLY, loss="quadratic"), "global-poly takes a loss of kind exptype, not 'quadratic' (quadratic)"),
    (dict(GLOBAL_POLY, kind="global-exp", loss="hinge"), "global-exp takes a loss of kind exptype, not 'hinge' (general)"),
    (dict(TINY, kind="certify-only"), "certify-only certifies the dataset and takes no train.steps"),
    (dict(TINY, kind="early-multiclass", loss="logistic",
          train={"steps": 3, "trained_layers": "input_only"}),
     "early-multiclass: input-only training is defined for the binary network only"),
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


def test_a_run_with_no_step_reports_inconclusive_where_nothing_was_measured(tmp_path):
    for name, cert_id in (("early-binary-kappa-1e300", "hitting-time-at-least-tstar"),
                          ("global-poly-kappa-1e3", "rate-poly_stage1")):
        with np.errstate(over="ignore", invalid="ignore"):
            record, ctx = run_experiment(BROKEN[name][0])
        (rep,) = [c for c in evaluate_certificates(record, ctx) if c["cert_id"] == cert_id]
        assert rep["inconclusive"] and not rep["passed"], name
