import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relulab.datasets import LabeledDataset, gen_orthant_separable
from relulab.losses import loss_family
from relulab.models import BinaryNet, InitSpec, MultiNet, init_binary, init_multi, preactivation
from relulab.partition import (
    FD,
    FL,
    TD,
    TL,
    EarlyDynamics,
    GlobalDynamics,
    CorrectClassification,
    check_dynamics_early,
    check_dynamics_global,
    compute_partition,
    initial_partition_stats,
    partition_counts_csv,
)
from relulab.partition import _Dynamics, _agree, _off_sign
from relulab.training import Constant, Full, LossInverse, TrainConfig
from tests.conftest import run_keeping_nets


def _table_counts(table):
    """Per-row cell counts of a four-way table, in the column order TL, TD, FL, FD."""
    return np.stack([np.sum(table == cell, axis=1) for cell in (TL, TD, FL, FD)], axis=1)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_partition_is_exclusive_and_exhaustive(seed):
    ds = gen_orthant_separable(n=8, d=6, seed=seed)
    net = init_binary(16, 6, InitSpec(kappa=0.1, seed=seed))
    snap = compute_partition(net, ds)
    assert snap.agree.shape == snap.alive.shape == (8, 16)
    # Every pair lies in exactly one cell.
    assert np.all(snap.counts().sum(axis=1) == 16)
    # Cross-check the cells against the definitions.
    agree = np.outer(ds.labels, net.a) > 0
    living = ds.inputs @ net.B.T > 0
    expected = np.where(agree, np.where(living, TL, TD), np.where(living, FL, FD))
    assert np.array_equal(snap.agree, agree) and np.array_equal(snap.alive, living)
    assert np.array_equal(snap.counts(), _table_counts(expected))


def test_partition_counts_sum_to_width(small_binary_ds, small_binary_net):
    snap = compute_partition(small_binary_net, small_binary_ds)
    counts = snap.counts()
    assert counts.shape == (small_binary_ds.n, 4)
    assert np.all(counts.sum(axis=1) == small_binary_net.m)


def test_multi_partition_is_two_way_under_positive_outputs(small_onehot_ds, small_multi_net):
    snap = compute_partition(small_multi_net, small_onehot_ds)
    # All-positive output weights and one-hot labels: every neuron is "true".
    assert not snap.four_way
    assert np.all(snap.agree)
    assert np.all(snap.counts()[:, [FL, FD]] == 0)


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


def _full(violations):
    return [(v.rule, v.step, v.sample, v.neuron, v.lam, v.detail) for v in violations]


_SEGMENT_1_2 = "preactivation sign changed along segment t=1->2 at lambda*=0.397536"


def test_early_dynamics_negative_control_reports_violations():
    ds, nets = _overshooting_run()
    assert _full(check_dynamics_early(nets, ds)) == [
        ("S1", 1, 0, 0, None, "true-living cell left TL at the next step"),
        ("S2", 1, 0, 1, None, "false-dead cell left FD at the next step"),
        ("S2", 2, 6, 115, None, "false-dead cell left FD at the next step"),
        ("S5", 1, 6, 931, 0.3975358896996009, _SEGMENT_1_2)]


def test_global_dynamics_negative_control_reports_violations():
    ds, nets = _overshooting_run()
    outside = [("StageII-S4", t, 0, 0, None, "cell outside TL/FD at step >= 1") for t in range(2, 7)]
    assert _full(check_dynamics_global(nets, ds)) == [
        ("StageII-S2", 1, 0, 0, None, "true-living cell left TL"),
        ("StageII-S3", 1, 0, 1, None, "false-dead cell left FD"),
        ("StageII-S1", 2, -1, 2, None, "output-weight magnitude decreased"),
        ("StageII-S3", 2, 6, 115, None, "false-dead cell left FD"),
        *outside,
        ("StageII-S5", 1, 6, 931, 0.3975358896996009, _SEGMENT_1_2)]


def _planted(gen, shape, values):
    """Standard normals with about a third of the entries replaced by draws from ``values``."""
    out = gen.standard_normal(shape)
    where = gen.random(shape) < 1.0 / 3.0
    out[where] = gen.choice(values, int(where.sum()))
    return out


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_masks_reproduce_the_outer_product_rule_and_the_sign_rule(seed):
    """agree is np.outer(y, a) > 0, alive is H > 0 and the cell counts are the
    four-way rule's, with +-inf and NaN output weights and exact zeros in H;
    the segment mask is (sign(H) != sign(H_1)) | (H == 0), with zeros and NaN
    in both."""
    gen = np.random.default_rng(seed)
    n, m = 2 * int(gen.integers(1, 6)), int(gen.integers(1, 12))
    # Inputs on the standard basis, so H[i, k] = B[k, i] exactly.
    ds = LabeledDataset(inputs=np.eye(n), labels=np.repeat([1.0, -1.0], n // 2),
                        label_kind="binary", source="test-masks")
    net = BinaryNet(a=_planted(gen, m, [np.inf, -np.inf, np.nan]),
                    B=_planted(gen, (m, n), [0.0, -0.0]))
    H = ds.inputs @ net.B.T
    assert np.array_equal(H, net.B.T)
    expected = np.outer(ds.labels, net.a) > 0.0
    assert np.array_equal(_agree(net, ds), expected)
    table = np.where(expected, np.where(H > 0.0, TL, TD), np.where(H > 0.0, FL, FD))
    snap = compute_partition(net, ds)
    assert np.array_equal(snap.agree, expected) and np.array_equal(snap.alive, H > 0.0)
    assert np.array_equal(snap.counts(), _table_counts(table)) and snap.four_way

    H1, H2 = (_planted(gen, (n, m), [0.0, -0.0, np.nan]) for _ in range(2))
    got = _off_sign((H1 > 0.0, H1 < 0.0), H2, H2 > 0.0)
    assert np.array_equal(got, (np.sign(H2) != np.sign(H1)) | (H2 == 0.0))


def test_early_dynamics_insufficient_horizon():
    # One state checks no rule: the observer shows it by the states it saw,
    # not by a violation.
    ds = gen_orthant_separable(n=8, d=6, seed=4)
    net0 = init_binary(64, 6, InitSpec(kappa=1e-4, seed=4))
    observer = EarlyDynamics(ds)
    H = preactivation(net0, ds.inputs)
    observer.step(0, net0, H, H > 0.0)
    assert observer.seen == 1 and observer.violations() == []
    assert check_dynamics_early([net0], ds) == []


@pytest.mark.parametrize("start", [1, 2, 5])
def test_early_dynamics_refuses_a_window_after_step_0(start):
    ds = gen_orthant_separable(n=8, d=6, seed=4)
    with pytest.raises(ValueError, match=f"EarlyDynamics window starts at step {start}:"):
        EarlyDynamics(ds, range(start, 10))
    EarlyDynamics(ds, range(0, 10))
    EarlyDynamics(ds, range(3, 3))      # an empty window checks nothing


@pytest.mark.parametrize("start", [2, 3, 7])
def test_global_dynamics_refuses_a_window_after_step_1(start):
    ds, steps = _clean_trajectory()
    with pytest.raises(ValueError, match=f"GlobalDynamics window starts at step {start}:"):
        GlobalDynamics(ds, range(start, _CLEAN_STEPS))
    # A window from step 1 reads no step before it: it sees every step of
    # the clean trajectory but the first and reports nothing.
    observer = GlobalDynamics(ds, range(1, _CLEAN_STEPS))
    assert _walk(observer, steps, ds) == ([], _CLEAN_STEPS - 1)


def test_global_dynamics_clean_on_adaptive_run():
    ds = gen_orthant_separable(n=12, d=25, seed=5)
    net0 = init_binary(1024, 25, InitSpec(kappa=1e-5, seed=5))
    margins = CorrectClassification()
    rec, nets = run_keeping_nets(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
                                 TrainConfig(steps=200, batching=Full(), trained_layers="input_only"),
                                 observers=[margins])
    assert check_dynamics_global(nets, ds) == []
    assert margins.first_violation is None and margins.least[1] > 0.0


def test_counts_csv(small_binary_ds, small_binary_net):
    snaps = [(0, compute_partition(small_binary_net, small_binary_ds))]
    csv = partition_counts_csv(snaps)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,sample,TL,TD,FL,FD"
    assert len(lines) == 1 + small_binary_ds.n


def test_counts_csv_labels_each_row_with_its_step():
    ds = gen_orthant_separable(n=8, d=6, seed=6)
    _, nets = run_keeping_nets(init_binary(32, 6, InitSpec(kappa=1e-4, seed=6)), ds,
                               loss_family("quadratic"), Constant(eta=0.01),
                               TrainConfig(steps=3, batching=Full()))
    s0, s3 = (compute_partition(nets[t], ds) for t in (0, 3))
    rows = partition_counts_csv([(0, s0), (3, s3)]).strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["0"] * ds.n + ["3"] * ds.n
    for i, (r0, r3) in enumerate(zip(rows[:ds.n], rows[ds.n:])):
        assert r0 == ",".join(map(str, [0, i, *s0.counts()[i]]))
        assert r3 == ",".join(map(str, [3, i, *s3.counts()[i]]))


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


# ---------------------------------------------------------------------------
# GlobalDynamics' clean-step check against the full rules
# ---------------------------------------------------------------------------

class _FullRules(GlobalDynamics):
    """The reference walk: agree, the cells and the sign masks formed on
    every step, with no clean-step check."""

    step = _Dynamics.step


_CLEAN_STEPS = 8
_MAG = np.array([[0.5, 1.25, 2.0, 0.75],
                 [1.5, 0.5, 1.0, 1.75],
                 [1.0, 2.0, 0.5, 1.25],
                 [0.75, 1.0, 1.5, 0.5]])
_A_SIGN = np.array([1.0, -1.0, 1.0, -1.0])


def _clean_trajectory():
    """(dataset, [(a_t, H_t)]) that breaks no rule: on the standard basis with
    labels (+, +, -, -), H_t[i, k] = y_i sign(a_k) |.| > 0 exactly on the
    agreeing pairs, so every cell is TL or FD, and |H| and |a| grow with t."""
    ds = LabeledDataset(inputs=np.eye(4), labels=np.array([1.0, 1.0, -1.0, -1.0]),
                        label_kind="binary", source="test-clean-step")
    signs = np.outer(ds.labels, _A_SIGN)
    steps = [(_A_SIGN * np.array([1.0, 1.5, 0.5, 2.0]) * (1.0 + 0.05 * t),
              signs * _MAG * (1.0 + 0.1 * t)) for t in range(_CLEAN_STEPS)]
    return ds, steps


def _plant_h(t0, i, k, value, until=_CLEAN_STEPS):
    def plant(steps):
        for t in range(t0, until):
            steps[t][1][i, k] = value
    return plant


def _plant_a(t0, k, value):
    def plant(steps):
        for t in range(t0, _CLEAN_STEPS):
            steps[t][0][k] = value
    return plant


# Pair (0, 0) agrees (TL), pair (0, 1) does not (FD).
_PLANTS = {
    "sign-crossing-at-t3": [_plant_h(3, 0, 0, -0.5)],
    "zero-at-step-1": [_plant_h(1, 0, 1, 0.0, until=2)],
    "zero-at-step-1-and-step-5": [_plant_h(1, 0, 1, 0.0, until=2), _plant_h(5, 2, 0, 0.0, until=6)],
    "zero-on-a-dead-pair-at-t4": [_plant_h(4, 0, 1, 0.0, until=5)],
    "nan-in-H-at-t3": [_plant_h(3, 0, 1, np.nan, until=4)],
    "nan-in-H-at-step-1": [_plant_h(1, 3, 3, np.nan, until=2)],
    "inf-in-H": [_plant_h(3, 0, 0, np.inf), _plant_h(4, 0, 1, -np.inf, until=6)],
    "inf-crossing": [_plant_h(4, 0, 1, np.inf, until=5)],
    "shrinking-a-at-t4": [_plant_a(4, 2, 0.25)],
    "a-sign-flip-at-t3": [_plant_a(3, 1, 1.5)],
    "s4-break-from-step-1": [_plant_h(1, 0, 0, -1.0)],
}


def _fields(violations):
    """``_full`` with lam by repr, so that a NaN lambda* compares equal to itself."""
    return [(v.rule, v.step, v.sample, v.neuron, repr(v.lam), v.detail) for v in violations]


def _walk(observer, steps, ds):
    for t, (a, H) in enumerate(steps):
        observer.step(t, BinaryNet(a=a, B=np.zeros((a.size, ds.d))), H, H > 0.0)
    return _fields(observer.violations()), observer.seen


def test_the_clean_trajectory_takes_the_clean_step_check():
    ds, steps = _clean_trajectory()
    observer, calls = GlobalDynamics(ds), []
    rules = observer._rules
    observer._rules = lambda t, *rest: calls.append(t) or rules(t, *rest)
    assert _walk(observer, steps, ds) == _walk(_FullRules(ds), steps, ds) == ([], _CLEAN_STEPS)
    assert calls == [0, 1]            # from t = 2 on, every step is clean


@pytest.mark.parametrize("name", sorted(_PLANTS))
def test_clean_step_check_agrees_with_the_full_rules(name):
    ds, steps = _clean_trajectory()
    for plant in _PLANTS[name]:
        plant(steps)
    got = _walk(GlobalDynamics(ds), steps, ds)
    expected = _walk(_FullRules(ds), steps, ds)
    assert got == expected
    if name != "inf-in-H":               # +-inf keeps every sign: nothing to report
        assert expected[0], name
    if name == "nan-in-H-at-t3":         # lambda* = h0 / (h0 - NaN) is NaN, not a point of [0, 1]
        assert [v[4] for v in got[0] if v[0] == "StageII-S5"] == ["nan"]


def test_nan_output_weight_agrees_with_the_full_rules():
    """A NaN a_k where a_k < 0: NaN > 0 is False, as a_k > 0 was, and
    |NaN| < |a_k| is False too, so a check of either alone passes the step;
    but agree loses the column, and its TL pairs leave TL (StageII-S2, S4)."""
    ds, steps = _clean_trajectory()
    _plant_a(4, 1, np.nan)(steps)
    nets = [BinaryNet(a=a, B=H.T.copy()) for a, H in steps]
    got = check_dynamics_global(nets, ds)
    reference = _FullRules(ds)
    for t, net in enumerate(nets):
        H = preactivation(net, ds.inputs)
        reference.step(t, net, H, H > 0.0)
    assert _fields(got) == _fields(reference.violations())
    assert [(v.rule, v.step, v.sample, v.neuron) for v in got] == [("StageII-S2", 3, 2, 1)] + [
        ("StageII-S4", t, 2, 1) for t in range(4, _CLEAN_STEPS)]
