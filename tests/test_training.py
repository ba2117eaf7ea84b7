import hashlib
import math

import numpy as np
import pytest

from relulab.datasets import LabeledDataset, gen_orthant_separable
from relulab.losses import loss_family
from relulab import models, oracles, rng, training
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
    StepRecord,
    Stochastic,
    TrainConfig,
    TwoStagePoly,
    exp_hitting_time_Te,
    run,
    tstar,
    varphi,
)
from relulab.training import _extremes
from tests.conftest import KeepNets, make_onehot_dataset, run_recorded


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


@pytest.mark.parametrize("T0,cprime,message", [
    (10, -0.5, "cprime > 0"), (10, 0.0, "cprime > 0"), (10, math.nan, "cprime > 0"),
    (0, 0.5, "T0 >= 1"), (-3, 0.5, "T0 >= 1"),
])
def test_two_stage_poly_requires_a_positive_stage_two_rate_and_T0(T0, cprime, message):
    # At c' <= 0 stage 2 ascends; T0 < 1 would start stage 2 at step 0.
    with pytest.raises(ValueError, match=message):
        TwoStagePoly(eta0=0.25, c=0.05, T0=T0, cprime=cprime, r=1.0)
    TwoStagePoly(eta0=0.25, c=0.05, T0=1, cprime=1e-300, r=1.0)


def test_loss_inverse_rate_identity():
    ds = gen_orthant_separable(n=8, d=6, seed=0)
    net0 = init_binary(64, 6, InitSpec(kappa=1e-4, seed=0))
    _, records, _ = run_recorded(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
                                 TrainConfig(steps=50, batching=Full()))
    for r in records:
        if r.t >= 1:
            assert r.eta * r.loss == pytest.approx(0.5, rel=1e-15)
    assert records[0].eta == 0.25


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
    r1, _, csv1 = run_recorded(net0, ds, loss_family("quadratic"), Constant(eta=0.01), cfg)
    r2, _, csv2 = run_recorded(net0, ds, loss_family("quadratic"), Constant(eta=0.01), cfg)
    assert csv1 == csv2 and r1.records.digest() == r2.records.digest()
    assert r1.records.digest() == hashlib.sha256(csv1.encode()).hexdigest()
    assert r1.status == "completed"


def test_stochastic_run_records_alignments():
    ds = make_onehot_dataset(n=30, d=10, num_classes=3, seed=2)
    net0 = init_multi(64, 10, 3, InitSpec(kappa=1e-4, seed=2))
    rec, _, csv = run_recorded(net0, ds, loss_family("logistic"), Constant(eta=0.01),
                               TrainConfig(steps=10, batching=Stochastic(B=8, seed=3)))
    assert math.isfinite(rec.min_batch_alignment)
    r1, _, csv1 = run_recorded(net0, ds, loss_family("logistic"), Constant(eta=0.01),
                               TrainConfig(steps=10, batching=Stochastic(B=8, seed=3)))
    assert csv1 == csv and r1.min_batch_alignment == rec.min_batch_alignment
    full = run(net0, ds, loss_family("logistic"), Constant(eta=0.01),
               TrainConfig(steps=10, batching=Full()))
    assert full.min_batch_alignment is None


def test_losses_finite_and_nonnegative_at_every_record():
    ds = gen_orthant_separable(n=10, d=8, seed=4)
    net0 = init_binary(64, 8, InitSpec(kappa=1e-4, seed=4))
    _, records, _ = run_recorded(net0, ds, loss_family("logistic"), Constant(eta=0.01),
                                 TrainConfig(steps=25, batching=Full()))
    for r in records:
        assert math.isfinite(r.loss) and r.loss >= 0.0


def test_output_sign_preservation_along_compliant_run():
    ds = gen_orthant_separable(n=12, d=20, seed=5)
    net0 = init_binary(1024, 20, InitSpec(kappa=5e-6, seed=5))
    rec, records, _ = run_recorded(net0, ds, loss_family("quadratic"), Constant(eta=0.01),
                                   TrainConfig(steps=45, batching=Full()))
    assert all(r.a_sign_ok for r in records)
    assert rec.measured_T == NOT_YET_HIT or rec.measured_T >= tstar(0.01, "binary")


# ---------------------------------------------------------------------------
# One activation pass per step
# ---------------------------------------------------------------------------

def _reference_run(net0, ds, loss, schedule, config):
    """The training loop spelled out with the four public model functions,
    each making its own activation pass, and steps.csv rendered from the
    whole record list: (steps.csv text, batch alignments).  Input-only
    training zeroes the output-layer part of every gradient."""
    records, alignments = [], []

    def trained(parts):
        return (np.zeros_like(parts[0]), parts[1]) if config.trained_layers == "input_only" else parts

    net = net0
    stochastic = isinstance(config.batching, Stochastic)
    gen = rng.make_generator(config.batching.seed, stream=1) if stochastic else None
    for t in range(config.steps + 1):
        L = loss_value(net, ds, loss)
        z = per_sample_margins(net, ds)
        f = forward(net, ds.inputs)
        parts = trained(grad_loss_struct(net, ds, loss))
        a0, a = (net0.a, net.a) if isinstance(net, BinaryNet) else (net0.A, net.A)
        eta = schedule.rate(t, L)
        records.append(StepRecord(
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
            bparts = trained(grad_loss_struct(net, ds, loss, subset=idx))
            full = np.concatenate([p.ravel() for p in parts])
            batch = np.concatenate([p.ravel() for p in bparts])
            alignments.append(float(full @ batch))
            parts = bparts
        net = apply_gradient(net, parts, eta)
    return oracles.steps_csv(records), alignments


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
    rec, _, streamed = run_recorded(net0, ds, loss, schedule, cfg)
    csv, alignments = _reference_run(net0, ds, loss, schedule, cfg)
    assert streamed == csv               # repr() of every float: bit for bit
    assert rec.min_batch_alignment == (min(alignments) if alignments else None)
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


def test_input_only_gradient_masks_output_layer(small_binary_ds):
    """Input-only training zeroes the output-layer part of the step ``run``
    takes: a stays bit for bit, and grad_norm is the input-layer part's norm."""
    ds, loss = small_binary_ds, loss_family("exp")
    net0 = init_binary(8, ds.d, InitSpec(kappa=0.5, seed=13))
    keep = KeepNets()
    _, records, _ = run_recorded(net0, ds, loss, Constant(eta=0.05),
                                 TrainConfig(steps=5, trained_layers="input_only"), [keep])
    assert len(keep.nets) == len(records) == 6
    for net, r in zip(keep.nets, records):
        assert np.array_equal(net.a.view(np.int64), net0.a.view(np.int64))
        ga, gB = grad_loss_struct(net, ds, loss)
        assert np.any(ga != 0.0)            # the output layer would move
        assert r.grad_norm == math.sqrt(float(np.sum(gB * gB)))
    assert not np.array_equal(keep.nets[-1].B, net0.B)


def test_input_only_training_refuses_the_multi_output_network(small_onehot_ds, small_multi_net):
    with pytest.raises(ValueError, match="input-only training is defined for the binary network"):
        run(small_multi_net, small_onehot_ds, loss_family("logistic"), Constant(eta=0.01),
            TrainConfig(steps=1, trained_layers="input_only"))


def test_an_overflowed_gradient_norm_of_a_finite_gradient_does_not_abort():
    """Full batch, finite gradient entries whose squares overflow: grad_norm
    is inf, the per-entry finite check still runs and passes, and the run
    goes on.  (A non-finite entry aborts: see tests/test_cli.py.)"""
    # H = (100, -100); f_1 = 1e153, so L is finite, ga = 5e154 and ga^2 = inf.
    ds = LabeledDataset(inputs=np.array([[1e-20], [-1e-20]]), labels=np.array([1.0, -1.0]),
                        label_kind="binary", source="test-overflowed-gnorm")
    net0 = BinaryNet(a=np.array([1e151]), B=np.array([[1e22]]))
    rec, records, _ = run_recorded(net0, ds, loss_family("quadratic"), Constant(eta=1e-300),
                                   TrainConfig(steps=2, batching=Full()))
    assert rec.status == "completed" and [r.t for r in records] == [0, 1, 2]
    assert all(math.isfinite(r.loss) and r.grad_norm == math.inf for r in records)


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
    """T by the reducer ``run`` applies, shown steps with the given
    prediction sup-norms and output-sign flags."""
    hit = HittingTime()
    for t, (p, s) in enumerate(zip(preds, signs)):
        hit.step(t, None, None, None, StepRecord(
            t=t, loss=0.1, eta=0.01, grad_norm=0.0, min_margin=0.0,
            max_margin=p, param_norm=1.0, max_abs_pred=p, a_sign_ok=s))
    return hit.T


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
    args = (net0, ds, loss_family("quadratic"), Constant(eta=0.5),
            TrainConfig(steps=30, batching=Full()))
    full, _, every = run_recorded(*args)
    thinned, _, rows = run_recorded(*args, every=7)
    assert full.measured_T == thinned.measured_T == 9
    assert full.first_violation == thinned.first_violation == 11
    every = every.strip().split("\n")[1:]
    assert rows.strip().split("\n")[1:] == [every[t] for t in (0, 7, 14, 21, 28, 30)]


def test_immediate_violation_clamps_to_minus_one():
    assert _hitting_time([2.0, 2.0], [True, True]) == -1


# ---------------------------------------------------------------------------
# CSV layout
# ---------------------------------------------------------------------------

def test_steps_csv_layout():
    ds = gen_orthant_separable(n=8, d=6, seed=6)
    net0 = init_binary(32, 6, InitSpec(kappa=1e-4, seed=6))
    _, records, csv = run_recorded(net0, ds, loss_family("quadratic"), Constant(eta=0.01),
                                   TrainConfig(steps=3, batching=Full()))
    lines = csv.strip().split("\n")
    assert lines[0] == ("t,loss,eta,grad_norm,min_margin,max_margin,"
                        "param_norm,max_abs_pred,a_sign_ok")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] in {"0", "1"}
    # Full-precision floats: parsing back reproduces the recorded loss exactly.
    assert float(first[1]) == records[0].loss


@pytest.mark.parametrize("every", [1, 3, 7])
@pytest.mark.parametrize("steps", [0, 1, 20, 21])
def test_step_log_streams_the_whole_run_rendering(every, steps):
    """The streamed steps.csv holds the bytes of the rendering from the whole
    record list, thinning included, and the log's digest is their SHA-256;
    the log keeps the first and the last record only."""
    ds = gen_orthant_separable(n=8, d=6, seed=6)
    net0 = init_binary(32, 6, InitSpec(kappa=1e-4, seed=6))
    rec, records, csv = run_recorded(net0, ds, loss_family("quadratic"), Constant(eta=0.01),
                                     TrainConfig(steps=steps, batching=Full()), every=every)
    assert csv == oracles.steps_csv(records, every)
    assert rec.records.digest() == hashlib.sha256(csv.encode()).hexdigest()
    assert len(rec.records) == len(records) == steps + 1
    assert (rec.records.first, rec.records.last) == (records[0], records[-1])


def test_step_log_of_a_run_that_stops_early_ends_at_its_last_step(monkeypatch):
    """A run that aborts at step 0 leaves the header only; one that aborts
    at t = 5 ends with the row of its last step, 4, whatever the thinning."""
    ds = gen_orthant_separable(n=8, d=6, seed=6)
    net0 = init_binary(32, 6, InitSpec(kappa=1e-4, seed=6))
    args = (net0, ds, loss_family("quadratic"), Constant(eta=0.01),
            TrainConfig(steps=20, batching=Full()))
    original, calls = models.evaluate, []

    def poisoned(*a, **k):
        calls.append(None)
        out = original(*a, **k)
        return (math.nan, *out[1:]) if len(calls) == abort_at + 1 else out

    monkeypatch.setattr(training, "evaluate", poisoned)
    for abort_at, every in ((0, 1), (5, 3), (5, 1)):
        calls.clear()
        rec, records, csv = run_recorded(*args, every=every)
        assert rec.status == f"aborted:non-finite-loss-at-t={abort_at}"
        assert csv == oracles.steps_csv(records, every)
        assert len(rec.records) == abort_at
        if abort_at == 0:
            assert csv == "t,loss,eta,grad_norm,min_margin,max_margin,param_norm,max_abs_pred,a_sign_ok\n"
            assert rec.records.first is rec.records.last is None
        else:
            assert csv.splitlines()[-1].startswith(f"{abort_at - 1},")
