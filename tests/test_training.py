import math

import numpy as np
import pytest

from relulab.datasets import LabeledDataset, gen_orthant_separable
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
    LossInverse,
    RunRecord,
    StepRecord,
    Stochastic,
    TrainConfig,
    TwoStagePoly,
    exp_hitting_time_Te,
    hitting_time,
    run,
    steps_csv,
    tstar,
    varphi,
)
from relulab.training import _extremes
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


def _scan_Te(eta, n, m, delta, variant):
    """Reference: the step-by-step scan that the bisection search replaced."""
    if variant == "binary":
        lead = 0.5 + 2.0 * math.sqrt(math.log(2.0 * n * n / delta) / m)
        cap = 2.0 * math.sqrt(2.0)
    else:
        lead, cap = 1.0, 2.0
    t = -1
    while True:
        up = (1.0 + 2.0 * eta) ** (t + 2)
        dn = (1.0 - 2.0 * eta) ** (t + 2)
        if lead * 251001.0 * (up * up - dn * dn) / 1_000_000.0 <= 1.0 and up <= cap:
            t += 1
        else:
            return t


_TE_SETS = [("binary", 40, 4096, 0.01), ("binary", 6, 16, 0.05), ("binary", 1000, 65536, 0.001),
            ("binary", 1000, 1, 0.001), ("multi", 1000, 1000, 0.01)]


def test_exponential_hitting_time_equals_the_scan():
    for eta in np.geomspace(1e-4, 1e-2, 200):
        for variant, n, m, delta in _TE_SETS:
            assert exp_hitting_time_Te(float(eta), n, m, delta, variant) == \
                _scan_Te(float(eta), n, m, delta, variant), (eta, variant, n, m, delta)


@pytest.mark.parametrize("variant,n,m,delta", _TE_SETS)
def test_exponential_hitting_time_is_the_last_step_both_conditions_hold(variant, n, m, delta):
    cap = 2.0 * math.sqrt(2.0) if variant == "binary" else 2.0
    for eta in [*np.geomspace(1e-9, 1e-2, 50), 0.3, 0.45]:
        eta = float(eta)

        def holds(t):
            return varphi(t + 1, eta, n, m, delta, variant) <= 1.0 and (1.0 + 2.0 * eta) ** (t + 1) <= cap

        te = exp_hitting_time_Te(eta, n, m, delta, variant)
        assert te >= -1 and (te == -1 or holds(te)) and not holds(te + 1), eta


def test_exponential_hitting_time_edges():
    # A leading factor of about 9.75 fails the envelope condition at t = 0.
    assert exp_hitting_time_Te(0.45, 1000, 1, 0.001, "binary") == -1
    # 1 + 2 eta is not above 1 in floating point: the conditions would hold at every t.
    for eta in (0.0, 1e-17, -0.01):
        with pytest.raises(ValueError):
            exp_hitting_time_Te(eta, 40, 4096, 0.01, "binary")
    with pytest.raises(ValueError):
        exp_hitting_time_Te(0.01, 40, 4096, 0.01, "ternary")


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
    assert steps_csv(r1) == steps_csv(r2)
    assert r1.status == "completed"


def test_stochastic_run_records_alignments():
    ds = make_onehot_dataset(n=30, d=10, num_classes=3, seed=2)
    net0 = init_multi(64, 10, 3, InitSpec(kappa=1e-4, seed=2))
    rec = run(net0, ds, loss_family("logistic"), Constant(eta=0.01),
              TrainConfig(steps=10, batching=Stochastic(B=8, seed=3)))
    assert len(rec.batch_alignments) == 10
    r1 = run(net0, ds, loss_family("logistic"), Constant(eta=0.01),
             TrainConfig(steps=10, batching=Stochastic(B=8, seed=3)))
    assert steps_csv(r1) == steps_csv(rec)


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


def test_an_overflowed_gradient_norm_of_a_finite_gradient_does_not_abort():
    """Full batch, finite gradient entries whose squares overflow: grad_norm
    is inf, the per-entry finite check still runs and passes, and the run
    goes on.  (A non-finite entry aborts: see tests/test_cli.py.)"""
    # H = (100, -100); f_1 = 1e153, so L is finite, ga = 5e154 and ga^2 = inf.
    ds = LabeledDataset(inputs=np.array([[1e-20], [-1e-20]]), labels=np.array([1.0, -1.0]),
                        label_kind="binary", source="test-overflowed-gnorm")
    net0 = BinaryNet(a=np.array([1e151]), B=np.array([[1e22]]))
    rec = run(net0, ds, loss_family("quadratic"), Constant(eta=1e-300),
              TrainConfig(steps=2, batching=Full()))
    assert rec.status == "completed" and [r.t for r in rec.records] == [0, 1, 2]
    assert all(math.isfinite(r.loss) and r.grad_norm == math.inf for r in rec.records)


def _numpy_extremes(z, f):
    return float(np.min(z)), float(np.max(z)), float(np.max(np.abs(f)))


_EXTREME_CASES = [
    ([0.0, -0.0], [0.0, -0.0]),
    ([-0.0, 0.0], [-0.0, 0.0]),
    ([-0.0, -0.0], [-0.0, -0.0]),
    ([1.0, 0.0, -0.0], [-1.0, -0.0, 0.0]),
    ([1.0, -0.0, 0.0], [1.0, 0.0, -0.0]),
    ([np.inf, -np.inf, 0.5], [-np.inf, 2.0]),
    ([-np.inf, np.inf], [np.inf, -np.inf]),
    ([np.inf, -0.0, 0.0], [-np.inf, -0.0]),
    ([0.25], [-0.25]),
]


@pytest.mark.parametrize("z,f", _EXTREME_CASES)
def test_record_extremes_keep_numpys_bits(z, f):
    """min_margin, max_margin and max_abs_pred are numpy's reductions, not
    Python's min / max, which break a tie of signed zeros the other way:
    np.min([0.0, -0.0]) is -0.0, min() gives 0.0.  A sample with no active
    neuron has z_i = +-0.0 exactly, and steps.csv prints repr()."""
    z, f = np.array(z), np.array(f)
    assert list(map(repr, _extremes(z, f))) == list(map(repr, _numpy_extremes(z, f)))


def test_record_extremes_keep_numpys_bits_on_planted_zeros():
    # Lengths past numpy's unrolled and vector loops, zeros of both signs planted.
    gen = np.random.default_rng(0)
    for n in (3, 8, 9, 17, 40, 130):
        for _ in range(20):
            z = gen.standard_normal(n)
            z[gen.random(n) < 0.5] = 0.0
            z[gen.random(n) < 0.3] = -0.0
            if gen.random() < 0.5:
                z = np.where(z == 0.0, z, np.abs(z))    # the zeros are the minimum
            f = np.stack([z, -z], axis=1) if n % 2 else z * gen.choice([-1.0, 1.0], n)
            assert list(map(repr, _extremes(z, f))) == list(map(repr, _numpy_extremes(z, f)))


# ---------------------------------------------------------------------------
# Hitting-time semantics
# ---------------------------------------------------------------------------

def _hitting_time(preds, signs):
    """T by the rule ``run`` applies, over steps with the given prediction
    sup-norms and output-sign flags."""
    T, _ = hitting_time([StepRecord(
        t=t, loss=0.1, eta=0.01, grad_norm=0.0, min_margin=0.0,
        max_margin=p, param_norm=1.0, max_abs_pred=p, a_sign_ok=s)
        for t, (p, s) in enumerate(zip(preds, signs))])
    return T


def test_hitting_time_counts_back_two_from_first_violation():
    # First violation at s=3 -> conditions hold for all s <= 2 -> T = 1.
    assert _hitting_time([0.5, 0.5, 0.5, 1.5, 1.5], [True] * 5) == 1


def test_hitting_time_sign_flip_counts_as_violation():
    assert _hitting_time([0.5] * 5, [True, True, False, True, True]) == 0


def test_hitting_time_sentinel_when_never_violated():
    assert _hitting_time([0.5] * 5, [True] * 5) == NOT_YET_HIT


def test_run_hitting_time_sees_every_step():
    # A step size of 0.5 first breaks |f| <= 1 at t = 11; in the rows
    # written every 7 steps the first violation is at t = 14, which a rule
    # read from those rows would turn into T = 12.
    ds = gen_orthant_separable(n=8, d=6, seed=6)
    net0 = init_binary(64, 6, InitSpec(kappa=1e-3, seed=6))
    rec = run(net0, ds, loss_family("quadratic"), Constant(eta=0.5),
              TrainConfig(steps=30, batching=Full()))
    assert rec.measured_T == 9
    rows = steps_csv(rec, 7).strip().split("\n")[1:]
    every = steps_csv(rec).strip().split("\n")[1:]
    assert rows == [every[t] for t in (0, 7, 14, 21, 28, 30)]


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
