import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relulab.datasets import LabeledDataset, gen_orthant_separable
from relulab.losses import loss_family
from relulab.models import BinaryNet, InitSpec, MultiNet, init_binary, init_multi
from relulab.partition import (
    FD,
    FL,
    TD,
    TL,
    check_correct_classification,
    check_dynamics_early,
    check_dynamics_global,
    compute_partition,
    initial_partition_stats,
    partition_counts_csv,
)
from relulab.training import Constant, Full, LossInverse, TrainConfig
from tests.conftest import run_keeping_nets


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_partition_is_exclusive_and_exhaustive(seed):
    ds = gen_orthant_separable(n=8, d=6, seed=seed)
    net = init_binary(16, 6, InitSpec(kappa=0.1, seed=seed))
    snap = compute_partition(net, ds)
    assert snap.table.shape == (8, 16)
    assert np.all((snap.table >= TL) & (snap.table <= FD))
    # Cross-check one cell against the definitions.
    agree = np.outer(ds.labels, net.a) > 0
    living = ds.inputs @ net.B.T > 0
    expected = np.where(agree, np.where(living, TL, TD), np.where(living, FL, FD))
    assert np.array_equal(snap.table, expected.astype(np.uint8))


def test_partition_counts_sum_to_width(small_binary_ds, small_binary_net):
    snap = compute_partition(small_binary_net, small_binary_ds)
    counts = snap.counts()
    assert counts.shape == (small_binary_ds.n, 4)
    assert np.all(counts.sum(axis=1) == small_binary_net.m)


def test_multi_partition_is_two_way_under_positive_outputs(small_onehot_ds, small_multi_net):
    snap = compute_partition(small_multi_net, small_onehot_ds)
    # All-positive output weights and one-hot labels: every neuron is "true".
    assert not snap.four_way
    assert np.all((snap.table == TL) | (snap.table == TD))


def test_initial_partition_fractions_match_angular_prediction():
    ds = gen_orthant_separable(n=16, d=25, seed=1)
    net0 = init_binary(8192, 25, InitSpec(kappa=1e-5, seed=1))
    stats = initial_partition_stats(net0, ds, delta=0.01)
    assert stats.passed, (stats.max_deviation, stats.bound)
    assert stats.max_deviation <= stats.bound


def _compliant_binary_run(seed, steps=45):
    ds = gen_orthant_separable(n=16, d=25, seed=seed)
    net0 = init_binary(2048, 25, InitSpec(kappa=5e-6, seed=seed))
    _, nets = run_keeping_nets(net0, ds, loss_family("quadratic"), Constant(eta=0.01),
                               TrainConfig(steps=steps, batching=Full()))
    return ds, nets


def test_early_dynamics_clean_on_compliant_run():
    ds, nets = _compliant_binary_run(seed=2)
    assert check_dynamics_early(nets, ds) == []


def _overshooting_run():
    """A non-compliant trajectory: quadratic loss at eta = 10."""
    ds = gen_orthant_separable(n=16, d=25, seed=3)
    net0 = init_binary(2048, 25, InitSpec(kappa=5e-6, seed=3))
    _, nets = run_keeping_nets(net0, ds, loss_family("quadratic"), Constant(eta=10.0),
                               TrainConfig(steps=6, batching=Full()))
    return ds, nets


def _rule_steps(violations):
    return [(v.rule, v.step) for v in violations]


def test_early_dynamics_negative_control_reports_violations():
    ds, nets = _overshooting_run()
    assert _rule_steps(check_dynamics_early(nets, ds)) == [
        ("S1", 1), ("S2", 1), ("S2", 2), ("S5", 1)]


def test_global_dynamics_negative_control_reports_violations():
    ds, nets = _overshooting_run()
    assert _rule_steps(check_dynamics_global(nets, ds)) == [
        ("StageII-S2", 1), ("StageII-S3", 1), ("StageII-S1", 2), ("StageII-S3", 2),
        ("StageII-S4", 2), ("StageII-S4", 3), ("StageII-S4", 4), ("StageII-S4", 5),
        ("StageII-S4", 6), ("StageII-S5", 1)]


def test_early_dynamics_insufficient_horizon():
    ds = gen_orthant_separable(n=8, d=6, seed=4)
    net0 = init_binary(64, 6, InitSpec(kappa=1e-4, seed=4))
    violations = check_dynamics_early([net0], ds)
    assert len(violations) == 1
    assert violations[0].rule == "horizon"
    assert "insufficient horizon" in violations[0].detail


def test_global_dynamics_clean_on_adaptive_run():
    ds = gen_orthant_separable(n=12, d=25, seed=5)
    net0 = init_binary(1024, 25, InitSpec(kappa=1e-5, seed=5))
    rec, nets = run_keeping_nets(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
                                 TrainConfig(steps=200, batching=Full(), trained_layers="input_only"))
    assert check_dynamics_global(nets, ds) == []
    assert check_correct_classification(rec) is None


def test_counts_csv(small_binary_ds, small_binary_net):
    snaps = [compute_partition(small_binary_net, small_binary_ds)]
    csv = partition_counts_csv(snaps)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,sample,TL,TD,FL,FD"
    assert len(lines) == 1 + small_binary_ds.n


def test_partition_rejects_exactly_zero_output_weight(small_binary_ds):
    net = init_binary(4, small_binary_ds.d, InitSpec(kappa=0.1, seed=0))
    broken = type(net)(a=np.where(np.arange(4) == 0, 0.0, net.a), B=net.B)
    with pytest.raises(ValueError):
        compute_partition(broken, small_binary_ds)


def test_dynamics_checks_reject_zero_output_weight_after_step_0(small_binary_ds, small_onehot_ds):
    net = init_binary(4, small_binary_ds.d, InitSpec(kappa=0.1, seed=0))
    broken = BinaryNet(a=np.where(np.arange(4) == 0, 0.0, net.a), B=net.B)
    for check in (check_dynamics_early, check_dynamics_global):
        with pytest.raises(ValueError):
            check([net, net, broken], small_binary_ds)
    multi = init_multi(4, small_onehot_ds.d, small_onehot_ds.num_classes, InitSpec(kappa=0.1, seed=0))
    A = multi.A.copy()
    A[2] = 0.0                                   # y_i^T a_2 = 0 for every sample
    with pytest.raises(ValueError):
        check_dynamics_early([multi, MultiNet(A=A, B=multi.B, c=multi.c)], small_onehot_ds)


# ---------------------------------------------------------------------------
# Exact S5 against a dense-sampling oracle
# ---------------------------------------------------------------------------

def _oracle_sign_rule(nets, ds, rule, points=201):
    """(rule, t) for the first segment t -> t+1 (t >= 1) on which a preactivation,
    sampled at `points` evenly spaced points with the endpoints included, leaves
    its sign at step 1 or is exactly 0; [] when there is none."""
    def pre(net):
        H = ds.inputs @ net.B.T
        return H + net.c[None, :] if isinstance(net, MultiNet) else H

    ref = np.sign(pre(nets[1])) if len(nets) > 1 else None
    for t in range(1, len(nets) - 1):
        H0, H1 = pre(nets[t]), pre(nets[t + 1])
        for lam in np.linspace(0.0, 1.0, points):
            H = (1.0 - lam) * H0 + lam * H1
            if np.any((np.sign(H) != ref) | (H == 0.0)):
                return [(rule, t)]
    return []


def _segment_reports(violations):
    return [v for v in violations if v.lam is not None]


def _random_trajectory(seed, d, multi, steps=6):
    """Random parameter walk: a positive rescaling per step (sign-preserving)
    plus Gaussian noise whose scale is drawn per trajectory, 0 included."""
    gen = np.random.default_rng(seed)
    noise = [0.0, 1e-3, 1e-2, 1e-1, 1.0][seed % 5]
    m = 12
    B = gen.standard_normal((m, d))
    if multi:
        A, c = gen.standard_normal((m, 3)), gen.standard_normal(m)
    else:
        a = gen.choice([-1.0, 1.0], m) * gen.uniform(0.5, 1.5, m)
    nets = []
    for _ in range(steps + 1):
        nets.append(MultiNet(A=A, B=B, c=c) if multi else BinaryNet(a=a, B=B))
        scale = gen.uniform(0.5, 2.0)
        B = scale * B + noise * gen.standard_normal(B.shape)
        if multi:
            c = scale * c + noise * gen.standard_normal(m)
        else:
            a = a * gen.uniform(1.0, 1.2, m)
    return nets


def test_exact_sign_rule_matches_dense_oracle(small_binary_ds, small_onehot_ds):
    outcomes = set()
    for seed in range(60):
        multi = seed % 2 == 1
        ds = small_onehot_ds if multi else small_binary_ds
        nets = _random_trajectory(seed, ds.d, multi)
        expected = _oracle_sign_rule(nets, ds, "S5")
        got = _segment_reports(check_dynamics_early(nets, ds))
        assert _rule_steps(got) == expected, seed
        for v in got:
            assert 0.0 <= v.lam <= 1.0, (seed, v)
        if not multi:
            expected_global = _oracle_sign_rule(nets, ds, "StageII-S5")
            assert _rule_steps(_segment_reports(check_dynamics_global(nets, ds))) == expected_global, seed
        outcomes.add((multi, bool(expected)))
    # Both network kinds produced trajectories with and without a crossing.
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def _planted_trajectory(values):
    """Binary trajectory on the standard basis, so H_t[i, k] = B_t[k, i]."""
    ds = LabeledDataset(inputs=np.eye(4), labels=np.array([1.0, 1.0, -1.0, -1.0]),
                        label_kind="binary", source="test-planted-crossing")
    a = np.array([1.0, -1.0, 1.0])
    base = np.array([[0.5, -1.0, 1.5, -0.5],
                     [1.0, 0.5, -1.5, 2.0],
                     [-0.5, 1.0, 1.0, -2.0]])
    nets = []
    for t in range(5):
        B = base.copy()
        for (i, k), v in values.items():
            if t >= 3:
                B[k, i] = v
        nets.append(BinaryNet(a=a, B=B))
    return ds, nets


def test_exact_sign_rule_reports_the_planted_crossing():
    # Entry (3, 1) crosses at lambda* = 2 / (2 + 6) = 0.25 on segment 2 -> 3;
    # (0, 2), earlier in row-major order, crosses later, at 0.75.
    ds, nets = _planted_trajectory({(3, 1): -6.0, (0, 2): 1.0 / 6.0})
    for check, rule in ((check_dynamics_early, "S5"), (check_dynamics_global, "StageII-S5")):
        (v,) = _segment_reports(check(nets, ds))
        assert (v.rule, v.step, v.sample, v.neuron) == (rule, 2, 3, 1)
        assert 0.0 < v.lam <= 1.0
        assert v.lam == pytest.approx(0.25)
        assert "lambda*=0.25" in v.detail


def test_exact_sign_rule_reports_zero_endpoint_at_lambda_one():
    ds, nets = _planted_trajectory({(1, 0): 0.0})
    (v,) = _segment_reports(check_dynamics_early(nets, ds))
    assert (v.step, v.sample, v.neuron, v.lam) == (2, 1, 0, 1.0)
