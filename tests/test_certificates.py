import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from relulab.datasets import compute_gamma_constants, compute_V, gen_orthant_separable
from relulab.losses import loss_family
from relulab.models import InitSpec, MultiNet, init_binary, init_multi
from relulab.oracles import (convergence_rate_of_records, descent_series_brute_force,
                             descent_series_closed_form, grad_loss, multi_gram_matrix,
                             multi_gram_min_full_bound, phi)
from relulab.training import Constant, Full, LossInverse, StepRecord, TrainConfig, run, varphi
from relulab import certificates as C
from tests.conftest import make_onehot_dataset, run_keeping_nets, run_recorded


NAN = math.nan


@pytest.mark.parametrize("rule,bound,measured,inconclusive,expected,slack", [
    # at_least: slack measured - bound; a met bound <= 0 holds trivially.
    ("at_least", 1.0, 2.5, False, "PASS", 1.5),
    ("at_least", 1.0, 2.5, True, "PASS", 1.5),           # a pass outranks the flag
    ("at_least", 1.0, 0.25, False, "FAIL", -0.75),
    ("at_least", 1.0, 0.25, True, "INCONCLUSIVE", -0.75),
    ("at_least", 1.0, 1.0, False, "PASS", 0.0),
    ("at_least", 0.0, 0.5, False, "INCONCLUSIVE", 0.5),
    ("at_least", 0.0, 0.0, False, "INCONCLUSIVE", 0.0),
    ("at_least", -0.5, 0.25, False, "INCONCLUSIVE", 0.75),
    ("at_least", -0.5, 0.25, True, "INCONCLUSIVE", 0.75),
    ("at_least", -0.5, -1.0, False, "FAIL", -0.5),
    ("at_least", -0.5, -1.0, True, "INCONCLUSIVE", -0.5),
    ("at_least", 1.0, NAN, False, "FAIL", NAN),
    # at_most: slack -(measured - bound), PASS exactly when met.
    ("at_most", 0.0, 0.0, False, "PASS", -0.0),          # a zero count: slack -0.0
    ("at_most", 0.0, 3.0, False, "FAIL", -3.0),
    ("at_most", 2.0, 0.5, False, "PASS", 1.5),
    ("at_most", -1.0, -0.5, False, "FAIL", -0.5),
    ("at_most", 2.0, NAN, False, "FAIL", NAN),
])
def test_comparison_rule_table(rule, bound, measured, inconclusive, expected, slack):
    if rule == "at_least":
        rep = C.at_least("id", bound, measured, inconclusive, step=3)
    else:
        rep = C.at_most("id", bound, measured, step=3)
    d = rep.as_dict()
    assert C.verdict(d) == expected
    assert (d["cert_id"], d["theoretical"], d["context"]) == ("id", bound, {"step": 3})
    assert d["measured"] == measured or math.isnan(measured)
    if math.isnan(slack):
        assert math.isnan(d["slack"])
    else:
        assert d["slack"] == slack and math.copysign(1.0, d["slack"]) == math.copysign(1.0, slack)


@pytest.mark.parametrize("bound,measured,k", [
    ([1.0, 2.0, -1.0, 3.0], [0.5, 1.5, -3.0, 2.0], 2),    # the least-slack missed entry
    ([1.0, 2.0, -1.0], [1.5, 2.25, -0.5], 1),             # none missed: least slack, bound > 0
    ([0.0, -1.0, -2.0], [0.5, -0.75, 0.0], 1),            # every bound <= 0: least slack
    ([1.0, 1.0, 1.0], [1.5, 1.25, 1.25], 1),              # the first on a tie
    ([1.0, 1.0], [2.0, NAN], 1),                          # NaN is a miss
])
def test_worst_entry_picks_missed_then_positive_then_any(bound, measured, k):
    assert C.worst_entry(np.array(bound), np.array(measured)) == k


def test_closed_series_matches_brute_force_and_reference():
    closed = descent_series_closed_form(0.01, 44)
    brute = descent_series_brute_force(0.01, 44)
    assert abs(closed - brute) <= 1e-14
    assert abs(closed - 0.19659127915806962) <= 1e-14


@pytest.mark.parametrize("eta,ts", [(0.005, 69), (0.002, 173), (0.001, 346)])
def test_closed_series_matches_brute_force_other_rates(eta, ts):
    assert descent_series_closed_form(eta, ts) == pytest.approx(
        descent_series_brute_force(eta, ts), abs=1e-14)


def test_phi_and_varphi_shapes():
    # phi has the fixed 251001/1500000 prefactor; varphi carries the
    # width/confidence-dependent lead and the 1/10^6 scaling.
    eta = 0.01
    base = 251001.0 * ((1 + 2 * eta) ** 2 - (1 - 2 * eta) ** 2)
    assert phi(1, eta) == pytest.approx(base / 1_500_000.0, rel=1e-15)
    lead = 0.5 + 2.0 * math.sqrt(math.log(2.0 * 400 / 0.01) / 10_000)
    assert varphi(1, eta, 20, 10_000, 0.01) == pytest.approx(
        lead * base / 1_000_000.0, rel=1e-15)


def test_descent_bound_binary_formula():
    consts = C.TheoryConstants(n=40, d=30, m=4096, delta=0.01,
                               gamma1=0.25, gamma2=0.33)
    tail = math.sqrt(8 * math.log(1600 / 0.01) / 4096)
    assert C.descent_bound_binary(consts) == pytest.approx(
        0.193 * (0.25 - 0.33 * tail) - 0.0111, rel=1e-15)
    assert C.descent_bound_multi() == 0.262533


def test_probability_budgets():
    b = C.probability_budget(
        C.TheoryConstants(n=40, d=30, m=4096, delta=1e-10), "binary_early")
    assert b == pytest.approx(1e-10 + 2 * 4096 * math.exp(-60), rel=1e-12)
    assert b < 1e-9
    bm = C.probability_budget(
        C.TheoryConstants(n=100, d=63, m=1000, delta=0.01, batch=64), "multi_early")
    assert bm == pytest.approx(0.01 + 4000 * math.exp(-32) + 1000 * 0.17 ** 64, rel=1e-12)


@pytest.fixture(scope="module")
def binary_run():
    ds = gen_orthant_separable(n=16, d=25, seed=9)
    net0 = init_binary(2048, 25, InitSpec(kappa=5e-6, seed=9))
    _, nets = run_keeping_nets(net0, ds, loss_family("quadratic"), Constant(eta=0.01),
                               TrainConfig(steps=45, batching=Full()))
    g1, g2 = compute_gamma_constants(ds)
    consts = C.TheoryConstants(n=16, d=25, m=2048, delta=0.01, eta=0.01,
                               gamma1=g1, gamma2=g2)
    return ds, nets, consts


def test_gram_cross_class_block_is_exactly_zero(binary_run):
    ds, nets, consts = binary_run
    for t in (1, 10, 44):
        G = C.gram_matrix(nets[t], ds)
        rep = C.check_block_structure(G, ds)
        assert rep.passed
        cross = np.outer(ds.labels, ds.labels) < 0
        assert np.all(G[cross] == 0.0)


def test_gram_matrix_is_psd(binary_run):
    ds, nets, _ = binary_run
    G = C.gram_matrix(nets[5], ds)
    assert float(np.linalg.eigvalsh(G)[0]) >= -1e-10 * float(np.trace(G))


def test_gram_matches_direct_per_sample_gradients(binary_run, small_onehot_ds):
    ds, nets, _ = binary_run
    net = nets[3]
    G = C.gram_matrix(net, ds)
    # Direct computation from per-sample prediction gradients.
    D = (ds.inputs @ net.B.T > 0).astype(float)
    S = np.maximum(ds.inputs @ net.B.T, 0.0)
    direct = np.zeros_like(G)
    for i in range(ds.n):
        for j in range(ds.n):
            co = D[i] * D[j]
            direct[i, j] = float(S[i] @ S[j]) + float(
                np.sum(co * net.a ** 2)) * float(ds.inputs[i] @ ds.inputs[j])
    assert np.allclose(G, direct, atol=1e-12)

    # Multi-output: entry ((i,alpha),(j,beta)) is the inner product of the
    # parameter gradients of f_alpha(x_i) and f_beta(x_j), flat order [A, B, c].
    ds = small_onehot_ds
    net = init_multi(9, ds.d, ds.num_classes, InitSpec(kappa=0.5, seed=6))
    gen = np.random.default_rng(6)
    net = MultiNet(A=net.A + 0.3 * gen.standard_normal(net.A.shape), B=net.B, c=net.c)
    H = ds.inputs @ net.B.T + net.c
    assert 0 < np.sum(H > 0) < H.size
    nc = ds.num_classes

    def jacobian(i):
        rows = []
        for alpha in range(nc):
            gA = np.zeros((net.m, nc))
            gA[:, alpha] = np.maximum(H[i], 0.0)
            gc = (H[i] > 0) * net.A[:, alpha]
            rows.append(np.concatenate([gA.ravel(), np.outer(gc, ds.inputs[i]).ravel(), gc]))
        return np.array(rows)

    J = [jacobian(i) for i in range(ds.n)]
    direct = np.zeros((ds.n * nc, ds.n * nc))
    for i in range(ds.n):
        for j in range(ds.n):
            direct[i * nc:(i + 1) * nc, j * nc:(j + 1) * nc] = J[i] @ J[j].T
    assert np.allclose(multi_gram_matrix(net, ds), direct, atol=1e-12)


def test_squared_gradient_norm_matches_gram_expansion(binary_run):
    ds, nets, _ = binary_run
    net = nets[2]
    lf = loss_family("quadratic")
    g = grad_loss(net, ds, lf)
    lhs = float(g @ g)
    from relulab.models import forward
    e = forward(net, ds.inputs) - ds.labels
    G = C.gram_matrix(net, ds)
    rhs = float(e @ G @ e) / ds.n ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_multi_gram_entries_at_least_one(small_onehot_ds):
    ds = small_onehot_ds
    net0 = init_multi(128, ds.d, ds.num_classes, InitSpec(kappa=1e-4, seed=3))
    _, nets = run_keeping_nets(net0, ds, loss_family("logistic"), Constant(eta=0.01),
                               TrainConfig(steps=10, batching=Full()))
    for t in (1, 5, 10):
        assert C.multi_gram_min_entry([nets[t]], ds)[0] >= 1.0


def test_multi_gram_min_entry_matches_dense(small_onehot_ds):
    ds = small_onehot_ds
    net = init_multi(16, ds.d, ds.num_classes, InitSpec(kappa=0.2, seed=4))
    dense = multi_gram_matrix(net, ds)
    assert C.multi_gram_min_entry([net], ds)[0] == pytest.approx(
        float(dense.min()), rel=1e-12)


def _random_onehot_problem(seed, weight_spread=0.0):
    """A small one-hot dataset and a MultiNet with positive output weights of
    log-normal size (spread ``weight_spread``) and random biases."""
    gen = np.random.default_rng([seed, 11])
    n, d, nc, m = (int(gen.integers(lo, hi)) for lo, hi in ((4, 20), (2, 12), (2, 5), (2, 48)))
    ds = make_onehot_dataset(n=n, d=d, num_classes=nc, seed=seed)
    A = np.exp(weight_spread * gen.standard_normal((m, nc))) / np.sqrt(m)
    return ds, MultiNet(A=A, B=gen.standard_normal((m, d)), c=gen.standard_normal(m))


def _pairs_below_first_block(net, ds):
    """How many pairs besides the least-bound one have a bound below that
    pair's exact block minimum, recomputed here from the dense Gram matrix."""
    nc = net.C
    blocks = multi_gram_matrix(net, ds).reshape(ds.n, nc, ds.n, nc).min(axis=(1, 3)).ravel()
    E = (ds.inputs @ net.B.T + net.c > 0.0) * net.A.min(axis=1)
    bound = ((E @ E.T) * (ds.inputs @ ds.inputs.T + 1.0)).ravel()
    k0 = int(np.argmin(bound))
    below = bound < blocks[k0]
    below[k0] = False
    return int(below.sum())


def test_multi_gram_min_entry_selection_matches_dense():
    for seed in range(24):
        ds, net = _random_onehot_problem(seed, weight_spread=0.0 if seed % 2 else 2.0)
        expected = float(multi_gram_matrix(net, ds).min())
        got = C.multi_gram_min_entry([net], ds)[0]
        assert got == pytest.approx(expected, rel=1e-12), seed
        assert got == multi_gram_min_full_bound(net, ds), seed


def _dense_onehot_problem(seed, n, perturb, dead=0.0, b_scale=0.1):
    """Nonneg unit inputs, input weights of size ``b_scale`` and biases of 1:
    at 0.1 every (sample, neuron) pair is active, at 1.0 about 80 %.  A
    ``dead`` share of the neurons gets a bias of -1 and is never active.  The
    output weights are constant times ``1 + perturb * U[0, 1)``: at
    ``perturb = 0`` the pair bound equals the off-diagonal block entries in
    exact arithmetic."""
    gen = np.random.default_rng([seed, 13])
    d, nc, m = 6, 3, 40
    ds = make_onehot_dataset(n=n, d=d, num_classes=nc, seed=seed)
    c = np.ones(m)
    c[:int(dead * m)] = -1.0
    A = np.full((m, nc), 1.0 / np.sqrt(m)) * (1.0 + perturb * gen.random((m, nc)))
    return ds, MultiNet(A=A, B=b_scale * gen.standard_normal((m, d)), c=c)


@pytest.mark.parametrize("dead", [0.0, 0.1])
@pytest.mark.parametrize("perturb", [0.0, 1e-12, 1e-6, 1e-2])
def test_multi_gram_min_entry_equals_full_bound_search_on_dense_patterns(perturb, dead):
    for seed in range(4):
        for b_scale in (0.1, 1.0):
            ds, net = _dense_onehot_problem(seed, 60, perturb, dead, b_scale)
            expected = multi_gram_min_full_bound(net, ds)
            assert C.multi_gram_min_entry([net], ds)[0] == expected, (seed, b_scale)


def test_multi_gram_min_row_filter_prunes_dense_and_scans_sparse(monkeypatch):
    bounded_rows = []
    pair_bound = C.MultiGramMin._pair_bound
    monkeypatch.setattr(C.MultiGramMin, "_pair_bound",
                        lambda self, E, rows: bounded_rows.append(rows.size) or pair_bound(self, E, rows))
    ds, net = _dense_onehot_problem(0, 240, 1e-2, dead=0.1)
    assert C.multi_gram_min_entry([net], ds)[0] == multi_gram_min_full_bound(net, ds)
    assert sum(bounded_rows) < ds.n
    bounded_rows.clear()
    ds = make_onehot_dataset(n=240, d=6, num_classes=3, seed=1)
    gen = np.random.default_rng(1)
    net = MultiNet(A=gen.random((40, 3)), B=gen.standard_normal((40, 6)), c=np.zeros(40))
    assert C.multi_gram_min_entry([net], ds)[0] == multi_gram_min_full_bound(net, ds)
    assert ds.n in bounded_rows


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 7, 600])
def test_multi_gram_min_packs_xx1_bit_for_bit(n):
    ds = make_onehot_dataset(n=n, d=64, num_classes=10, seed=0)
    XX1 = ds.inputs @ ds.inputs.T + 1.0
    obs = C.MultiGramMin(ds)
    upper = np.triu(np.ones((n, n), dtype=bool))
    assert np.array_equal(_bits(obs.packed), _bits(XX1[upper]))
    # The pair bound on both of its paths, the few rows and all n rows, keeps
    # the bits of the full product on and above the diagonal, and inf below.
    few, every = np.unique([0, n // 2, n - 1])[:n - 1], np.arange(n)
    gen = np.random.default_rng(n)
    E = (gen.random((n, 40)) < 0.5) * gen.random(40)
    for rows, full in ((few, E[few] @ E.T), (every, E @ E.T)):
        bound = obs._pair_bound(E, rows)
        on_or_above = np.arange(n) >= rows[:, None]
        assert np.array_equal(_bits(bound[on_or_above]), _bits((full * XX1[rows])[on_or_above]))
        assert np.all(bound[~on_or_above] == np.inf)


def test_multi_gram_min_holds_half_of_xx1():
    ds = make_onehot_dataset(600, 64, 10, 0)
    size = ds.n ** 2 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        obs = C.MultiGramMin(ds)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.6 * size
    assert held - before <= 0.6 * size
    assert obs.packed.size == ds.n * (ds.n + 1) // 2


def test_multi_gram_min_entry_visits_several_candidates():
    # Widely varying positive output weights loosen the per-pair bound, so
    # pairs other than the least-bound one must be checked exactly.
    ds, net = _random_onehot_problem(3, weight_spread=3.0)
    assert _pairs_below_first_block(net, ds) > 1
    got = C.multi_gram_min_entry([net], ds)[0]
    assert got == pytest.approx(float(multi_gram_matrix(net, ds).min()), rel=1e-12)
    assert got == multi_gram_min_full_bound(net, ds)


def test_multi_gram_min_entry_without_a_pair_bound_visits_every_pair():
    # No pair bound holds for a negative output weight, or for an X Xᵀ + 1
    # entry below 0 (an antipodal pair at norm 1 + 1e-13): every block is
    # evaluated.
    ds, net = _random_onehot_problem(5)
    net.A[0, 1] = -0.5
    got = C.multi_gram_min_entry([net], ds)[0]
    assert got == float(multi_gram_matrix(net, ds).min()) == multi_gram_min_full_bound(net, ds)
    x = ds.inputs.copy()
    x[1] = -x[0]
    x[:2] *= 1.0 + 1e-13
    ds = dataclasses.replace(ds, inputs=x)
    net.A[0, 1] = 0.5
    assert C.MultiGramMin(ds)._xx1(0, 1) < 0.0 < net.A.min()
    got = C.multi_gram_min_entry([net], ds)[0]
    assert got == float(multi_gram_matrix(net, ds).min()) == multi_gram_min_full_bound(net, ds)


def test_multi_gram_min_entry_negative_weight_forms_no_dense_matrix():
    # The (Cn) x (Cn) Gram matrix is 100 n² doubles at C = 10; visiting the
    # n(n+1)/2 blocks one by one holds a few C x C and m x C arrays.
    n, d, nc, m = 200, 16, 10, 40
    ds = make_onehot_dataset(n=n, d=d, num_classes=nc, seed=2)
    gen = np.random.default_rng(2)
    net = MultiNet(A=gen.standard_normal((m, nc)) / np.sqrt(m), B=gen.standard_normal((m, d)),
                   c=gen.standard_normal(m))
    assert net.A.min() < 0.0
    obs = C.MultiGramMin(ds)
    H = ds.inputs @ net.B.T + net.c
    alive = H > 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        obs.step(0, net, H, alive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= n * n * 8
    assert obs.minima == [multi_gram_min_full_bound(net, ds)]


def test_multi_gram_min_entry_trajectory_matches_per_net_calls(small_onehot_ds):
    ds = small_onehot_ds
    net0 = init_multi(32, ds.d, ds.num_classes, InitSpec(kappa=0.5, seed=2))
    _, nets = run_keeping_nets(net0, ds, loss_family("logistic"), Constant(eta=0.05),
                               TrainConfig(steps=6, batching=Full()))
    negative = MultiNet(A=nets[3].A.copy(), B=nets[3].B, c=nets[3].c)
    negative.A[2, 0] = -1.0
    nets = nets + [negative]
    assert C.multi_gram_min_entry(nets, ds) == [C.multi_gram_min_entry([n], ds)[0] for n in nets]
    assert C.multi_gram_min_entry([], ds) == []


def test_hessian_certificates_on_trajectory(binary_run):
    ds, nets, _ = binary_run
    lf = loss_family("quadratic")
    for t in (0, 20, 44):
        rep = C.check_hessian_bound(nets[t], ds, lf, "binary_early")
        assert rep.passed and rep.theoretical == pytest.approx(7 / (2 * 2048) + 2)


def test_convergence_envelope_reports():
    ds = gen_orthant_separable(n=12, d=25, seed=11)
    net0 = init_binary(512, 25, InitSpec(kappa=1e-5, seed=11))
    from relulab.training import LossInverse
    dc = compute_V(ds, 512, 0.01)
    envelope = C.RateEnvelope("exponential", dc.V, 0.5)
    run(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
        TrainConfig(steps=300, batching=Full(), trained_layers="input_only"), [envelope])
    rep = C.fit_convergence_rate(envelope)
    assert rep.passed and rep.slack >= 0.0


@pytest.mark.parametrize("kind", ["poly_stage1", "exponential"])
def test_rate_envelope_reads_a_run_as_its_whole_record_list_does(kind):
    ds = gen_orthant_separable(n=12, d=25, seed=11)
    net0 = init_binary(512, 25, InitSpec(kappa=1e-5, seed=11))
    dc = compute_V(ds, 512, 0.01)
    envelope = C.RateEnvelope(kind, dc.V, 0.5)
    _, records, _ = run_recorded(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
                                 TrainConfig(steps=300, batching=Full(), trained_layers="input_only"),
                                 observers=[envelope])
    _assert_same_rate_report(C.fit_convergence_rate(envelope),
                             convergence_rate_of_records(records, kind, dc.V, 0.5))


def _assert_same_rate_report(rep, ref):
    """The whole-list report's fields exactly, but for the fitted decay: the
    running slope is np.polyfit's to 1e-12 relative, or NaN where it is."""
    assert (rep.cert_id, rep.theoretical, rep.passed, rep.slack, rep.inconclusive) == \
        (ref.cert_id, ref.theoretical, ref.passed, ref.slack, ref.inconclusive)
    assert rep.context["worst_t"] == ref.context["worst_t"]
    assert rep.context["fitted_decay"] is rep.measured
    assert rep.measured == pytest.approx(ref.measured, rel=1e-12, abs=0.0, nan_ok=True)


def _loss_records(losses):
    return [StepRecord(t=t, loss=L, eta=0.1, grad_norm=1.0, min_margin=0.1, max_margin=0.2,
                       param_norm=1.0, max_abs_pred=0.5, a_sign_ok=True)
            for t, L in enumerate(losses)]


@pytest.mark.parametrize("kind", ["poly_stage1", "exponential"])
@pytest.mark.parametrize("V,losses,worst_t", [
    (0.0, [1.0, 0.5, 0.75, 0.75, 0.25], 2),     # a flat envelope: a tie goes to the first step
    (0.4, [1.0, 0.5, 0.0, 0.6, 0.0, 0.3], 3),   # zero losses leave the fit
    (0.4, [1.0, 0.5, 0.0, 0.0], 1),             # one positive loss: no fit
    (0.4, [1.0, 0.5], 1),
])
def test_rate_envelope_keeps_the_whole_list_rules(kind, V, losses, worst_t):
    envelope = C.RateEnvelope(kind, V, 0.5)
    records = _loss_records(losses)
    for r in records:
        envelope.step(r.t, None, None, None, r)
    rep, ref = C.fit_convergence_rate(envelope), convergence_rate_of_records(records, kind, V, 0.5)
    assert rep.context["worst_t"] == worst_t
    _assert_same_rate_report(rep, ref)
    assert math.isnan(rep.measured) == (sum(L > 0 for L in losses[1:]) < 2)


def test_rate_envelope_needs_the_step_at_t1():
    envelope = C.RateEnvelope("exponential", 0.4, 0.5)
    records = _loss_records([1.0, 0.5, 0.4])
    envelope.step(0, None, None, None, records[0])
    with pytest.raises(ValueError, match="t = 1"):
        C.fit_convergence_rate(envelope)
    with pytest.raises(ValueError, match="t = 1"):
        envelope.step(2, None, None, None, records[2])
    with pytest.raises(ValueError, match="envelope kind"):
        C.RateEnvelope("linear", 0.4, 0.5)


def _running_slope(kind, ts, Ls):
    """The fitted decay of ``RateEnvelope`` after a step at each (t, L), ts[0] = 1."""
    envelope = C.RateEnvelope(kind, 0.4, 0.5)
    record = SimpleNamespace(loss=None)
    for t, L in zip(ts.tolist(), Ls.tolist()):
        record.loss = L
        envelope.step(t, None, None, None, record)
    return C.fit_convergence_rate(envelope).measured


def test_the_running_slope_is_polyfits_to_1e_12():
    """The co-moment slope of log L on x = log t (poly_stage1) or t
    (exponential) against np.polyfit's: random losses on unit steps and on
    t scattered over up to 17 decades, and a planted 10^5-step decay."""
    gen = np.random.default_rng(0)
    cases = []
    for n in [2, 3, 7, 64, 129, 1000, 2000, 5001]:
        spread = 10.0 ** gen.uniform(-3, 1)
        scattered = np.concatenate(([1.0], 1.0 + np.exp(gen.standard_normal(n - 1) * spread)))
        for ts in (np.arange(1.0, n + 1.0), scattered):
            cases.append((ts, np.exp(gen.standard_normal(n))))
    t = np.arange(1.0, 100_001.0)
    noise = np.exp(1e-3 * gen.standard_normal(t.size))
    planted = {"poly_stage1": 0.9 * t ** -0.01 * noise,
               "exponential": 0.9 * (1.0 - 2e-3) ** (t - 1.0) * noise}
    for kind in ("poly_stage1", "exponential"):
        for ts, Ls in cases + [(t, planted[kind])]:
            x = np.log(ts) if kind == "poly_stage1" else ts
            ref = float(np.polyfit(x, np.log(Ls), 1)[0])
            assert _running_slope(kind, ts, Ls) == pytest.approx(ref, rel=1e-12, abs=0.0), \
                (kind, len(ts))


def test_rate_envelope_state_does_not_grow_with_the_horizon():
    """10^5 steps through one envelope grow its traced memory by under
    0.1 MB; two float64 columns of (t, L) would take 1.6 MB."""
    envelope = C.RateEnvelope("poly_stage1", 0.4, 0.5)
    record = SimpleNamespace(loss=1.0)
    tracemalloc.start()
    try:
        envelope.step(1, None, None, None, record)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for t in range(2, 100_001):
            record.loss = 1.0 / t
            envelope.step(t, None, None, None, record)
        growth = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert growth < 0.1e6


def test_gradient_lower_bound_global_form():
    assert C.gradient_lower_bound_global(0.3, 0.02) == pytest.approx(0.02 * 0.09)


@pytest.mark.parametrize("passed,inconclusive,expected", [
    (True, False, "PASS"),
    (True, True, "PASS"),
    (False, True, "INCONCLUSIVE"),
    (False, False, "FAIL"),
])
def test_verdict_ranks_pass_then_inconclusive_then_fail(passed, inconclusive, expected):
    report = C.CertificateReport("x", 0.0, 0.0, passed, 0.0, inconclusive=inconclusive).as_dict()
    assert C.verdict(report) == expected
    assert C.holds(report) == (expected != "FAIL")
