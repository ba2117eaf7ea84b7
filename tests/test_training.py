import math

import numpy as np
import pytest

from relulab.datasets import gen_orthant_separable
from relulab.losses import loss_family
from relulab import models, rng
from relulab.models import (
    BinaryNet,
    InitSpec,
    apply_gradient,
    forward,
    grad_loss_struct,
    init_binary,
    init_multi,
    loss_value,
    param_norm,
    per_sample_margins,
)
from relulab.training import (
    NOT_YET_HIT,
    Constant,
    Full,
    HittingTime,
    LossInverse,
    RunRecord,
    StepRecord,
    Stochastic,
    TrainConfig,
    TwoStagePoly,
    exp_hitting_time_Te,
    run,
    steps_csv,
    tstar,
)
from tests.conftest import make_onehot_dataset


# ---------------------------------------------------------------------------
# Closed-form horizons
# ---------------------------------------------------------------------------

def test_tstar_reference_values():
    assert tstar(0.01, "binary") == 44
    assert [tstar(e, "multi") for e in (0.01, 0.005, 0.002, 0.001)] == [34, 69, 173, 346]


def test_tstar_range_guard():
    with pytest.raises(ValueError):
        tstar(0.02, "binary")
    with pytest.raises(ValueError):
        tstar(0.0, "multi")


@pytest.mark.parametrize("eta", [0.01, 0.005, 0.002, 0.001])
@pytest.mark.parametrize("variant,n,m,delta", [
    ("binary", 40, 4096, 0.01), ("binary", 1000, 65536, 0.001),
    ("multi", 1000, 1000, 0.01),
])
def test_exponential_hitting_time_dominates_tstar(eta, variant, n, m, delta):
    te = exp_hitting_time_Te(eta, n, m, delta, variant)
    assert te + 1 >= tstar(eta, variant)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_schedule_parameter_guards():
    with pytest.raises(ValueError):
        LossInverse(eta0=1.0, c=0.5)           # eta0 > 1/(2 sqrt 2)
    with pytest.raises(ValueError):
        LossInverse(eta0=0.25, c=0.75)         # c > 1/2
    with pytest.raises(ValueError):
        TwoStagePoly(eta0=0.25, c=0.5, T0=10, cprime=0.5, r=1.0)  # c above cap


def test_loss_inverse_rate_identity():
    ds = gen_orthant_separable(n=8, d=6, seed=0)
    net0 = init_binary(64, 6, InitSpec(kappa=1e-4, seed=0))
    rec = run(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
              TrainConfig(steps=50, batching=Full()))
    for r in rec.records:
        if r.t >= 1:
            assert r.eta * r.loss == pytest.approx(0.5, rel=1e-15)
    assert rec.records[0].eta == 0.25


def test_two_stage_poly_switches_at_T0():
    sched = TwoStagePoly(eta0=0.25, c=0.05, T0=5, cprime=0.5, r=1.0)
    # Stage 1: c/(t L) for t < T0; stage 2: c'/L^{1-1/(2r)} from T0 on.
    assert sched.rate(2, 0.5) == pytest.approx(0.05 / (2 * 0.5))
    assert sched.rate(4, 0.5) == pytest.approx(0.05 / (4 * 0.5))
    assert sched.rate(5, 0.25) == pytest.approx(0.5 / 0.25 ** 0.5)
    assert sched.rate(7, 0.25) == pytest.approx(0.5 / 0.25 ** 0.5)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def test_run_is_deterministic_and_digested():
    ds = gen_orthant_separable(n=10, d=8, seed=1)
    net0 = init_binary(128, 8, InitSpec(kappa=1e-5, seed=1))
    cfg = TrainConfig(steps=20, batching=Full())
    r1 = run(net0, ds, loss_family("quadratic"), Constant(eta=0.01), cfg)
    r2 = run(net0, ds, loss_family("quadratic"), Constant(eta=0.01), cfg)
    assert r1.digest() == r2.digest()
    assert r1.status == "completed"


def test_stochastic_run_records_alignments():
    ds = make_onehot_dataset(n=30, d=10, num_classes=3, seed=2)
    net0 = init_multi(64, 10, 3, InitSpec(kappa=1e-4, seed=2))
    rec = run(net0, ds, loss_family("logistic"), Constant(eta=0.01),
              TrainConfig(steps=10, batching=Stochastic(B=8, seed=3)))
    assert len(rec.batch_alignments) == 10
    r1 = run(net0, ds, loss_family("logistic"), Constant(eta=0.01),
             TrainConfig(steps=10, batching=Stochastic(B=8, seed=3)))
    assert r1.digest() == rec.digest()


def test_losses_finite_and_nonnegative_at_every_record():
    ds = gen_orthant_separable(n=10, d=8, seed=4)
    net0 = init_binary(64, 8, InitSpec(kappa=1e-4, seed=4))
    rec = run(net0, ds, loss_family("logistic"), Constant(eta=0.01),
              TrainConfig(steps=25, batching=Full()))
    for r in rec.records:
        assert math.isfinite(r.loss) and r.loss >= 0.0


def test_output_sign_preservation_along_compliant_run():
    ds = gen_orthant_separable(n=12, d=20, seed=5)
    net0 = init_binary(1024, 20, InitSpec(kappa=5e-6, seed=5))
    rec = run(net0, ds, loss_family("quadratic"), Constant(eta=0.01),
              TrainConfig(steps=45, batching=Full()))
    assert all(r.a_sign_ok for r in rec.records)
    assert rec.measured_T == NOT_YET_HIT or rec.measured_T >= tstar(0.01, "binary")


# ---------------------------------------------------------------------------
# One activation pass per step
# ---------------------------------------------------------------------------

def _reference_run(net0, ds, loss, schedule, config):
    """The training loop spelled out with the four public model functions,
    each making its own activation pass: (steps.csv text, batch alignments)."""
    rec = RunRecord()
    net = net0
    stochastic = isinstance(config.batching, Stochastic)
    gen = rng.make_generator(config.batching.seed, stream=1) if stochastic else None
    for t in range(config.steps + 1):
        L = loss_value(net, ds, loss)
        z = per_sample_margins(net, ds)
        f = forward(net, ds.inputs)
        parts = grad_loss_struct(net, ds, loss, trained_layers=config.trained_layers)
        a0, a = (net0.a, net.a) if isinstance(net, BinaryNet) else (net0.A, net.A)
        eta = schedule.rate(t, L)
        rec.records.append(StepRecord(
            t=t, loss=L, eta=eta,
            grad_norm=float(math.sqrt(sum(float(np.sum(p * p)) for p in parts))),
            min_margin=float(np.min(z)), max_margin=float(np.max(z)),
            param_norm=param_norm(net), max_abs_pred=float(np.max(np.abs(f))),
            a_sign_ok=bool(np.all(a * a0 > 0.0))))
        if t == config.steps:
            break
        if stochastic:
            idx = (gen.random(config.batching.B) * ds.n).astype(np.int64)
            idx = np.minimum(idx, ds.n - 1)
            bparts = grad_loss_struct(net, ds, loss, subset=idx,
                                      trained_layers=config.trained_layers)
            full = np.concatenate([p.ravel() for p in parts])
            batch = np.concatenate([p.ravel() for p in bparts])
            rec.batch_alignments.append(float(full @ batch))
            parts = bparts
        net = apply_gradient(net, parts, eta)
    return steps_csv(rec), rec.batch_alignments


_SINGLE_PASS_CASES = {
    "binary-quadratic-full": lambda: (
        gen_orthant_separable(n=10, d=8, seed=1),
        init_binary(128, 8, InitSpec(kappa=1e-5, seed=1)),
        loss_family("quadratic"), Constant(eta=0.01),
        TrainConfig(steps=20, batching=Full())),
    "binary-exp-input-only": lambda: (
        gen_orthant_separable(n=10, d=8, seed=2),
        init_binary(64, 8, InitSpec(kappa=1e-4, seed=2)),
        loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
        TrainConfig(steps=30, batching=Full(), trained_layers="input_only")),
    "multi-logistic-sgd": lambda: (
        make_onehot_dataset(n=30, d=10, num_classes=3, seed=2),
        init_multi(64, 10, 3, InitSpec(kappa=1e-4, seed=2)),
        loss_family("logistic"), Constant(eta=0.01),
        TrainConfig(steps=10, batching=Stochastic(B=8, seed=3))),
}


@pytest.mark.parametrize("case", sorted(_SINGLE_PASS_CASES))
def test_single_pass_run_matches_four_function_reference(case):
    ds, net0, loss, schedule, cfg = _SINGLE_PASS_CASES[case]()
    rec = run(net0, ds, loss, schedule, cfg)
    csv, alignments = _reference_run(net0, ds, loss, schedule, cfg)
    assert steps_csv(rec) == csv               # repr() of every float: bit for bit
    assert rec.batch_alignments == alignments
    assert len(rec.records) == cfg.steps + 1


@pytest.mark.parametrize("case,passes", [("binary-quadratic-full", 21),
                                         ("multi-logistic-sgd", 11 + 10)])
def test_run_makes_one_full_pass_per_step_plus_one_per_batch(case, passes, monkeypatch):
    ds, net0, loss, schedule, cfg = _SINGLE_PASS_CASES[case]()
    calls = []
    original = models.preactivation

    def counting(net, X):
        calls.append(X.shape[0])
        return original(net, X)

    monkeypatch.setattr(models, "preactivation", counting)
    run(net0, ds, loss, schedule, cfg)
    assert len(calls) == passes
    assert calls.count(ds.n) == cfg.steps + 1


# ---------------------------------------------------------------------------
# Hitting-time semantics
# ---------------------------------------------------------------------------

def _hitting_time(preds, signs):
    """T by the rule ``run`` applies, over steps with the given prediction
    sup-norms and output-sign flags."""
    rule = HittingTime()
    for t, (p, s) in enumerate(zip(preds, signs)):
        rule.step(t, None, None, StepRecord(
            t=t, loss=0.1, eta=0.01, grad_norm=0.0, min_margin=0.0,
            max_margin=p, param_norm=1.0, max_abs_pred=p, a_sign_ok=s))
    return rule.T


def test_hitting_time_counts_back_two_from_first_violation():
    # First violation at s=3 -> conditions hold for all s <= 2 -> T = 1.
    assert _hitting_time([0.5, 0.5, 0.5, 1.5, 1.5], [True] * 5) == 1


def test_hitting_time_sign_flip_counts_as_violation():
    assert _hitting_time([0.5] * 5, [True, True, False, True, True]) == 0


def test_hitting_time_sentinel_when_never_violated():
    assert _hitting_time([0.5] * 5, [True] * 5) == NOT_YET_HIT


def test_run_hitting_time_sees_every_step():
    # A step size of 0.5 first breaks |f| <= 1 at t = 11; with records kept
    # every 7 steps the first recorded violation is at t = 14, which a rule
    # read from the records would turn into T = 12.
    ds = gen_orthant_separable(n=8, d=6, seed=6)
    net0 = init_binary(64, 6, InitSpec(kappa=1e-3, seed=6))
    runs = [run(net0, ds, loss_family("quadratic"), Constant(eta=0.5),
                TrainConfig(steps=30, batching=Full(), record_every=k)) for k in (1, 7)]
    assert runs[0].measured_T == runs[1].measured_T == 9
    assert [r.t for r in runs[1].records] == [0, 7, 14, 21, 28, 30]


def test_immediate_violation_clamps_to_minus_one():
    assert _hitting_time([2.0, 2.0], [True, True]) == -1


# ---------------------------------------------------------------------------
# CSV layout
# ---------------------------------------------------------------------------

def test_steps_csv_layout():
    ds = gen_orthant_separable(n=8, d=6, seed=6)
    net0 = init_binary(32, 6, InitSpec(kappa=1e-4, seed=6))
    rec = run(net0, ds, loss_family("quadratic"), Constant(eta=0.01),
              TrainConfig(steps=3, batching=Full()))
    lines = steps_csv(rec).strip().split("\n")
    assert lines[0] == ("t,loss,eta,grad_norm,min_margin,max_margin,"
                        "param_norm,max_abs_pred,a_sign_ok")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] in {"0", "1"}
    # Full-precision floats: parsing back reproduces the recorded loss exactly.
    assert float(first[1]) == rec.records[0].loss
