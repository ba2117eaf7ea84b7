import math

import numpy as np
import pytest

from relulab.datasets import compute_gamma_constants, compute_V, gen_orthant_separable
from relulab.losses import loss_family
from relulab.models import InitSpec, MultiNet, init_binary, init_multi
from relulab.oracles import descent_series_brute_force, descent_series_closed_form, grad_loss, phi
from relulab.training import Constant, Full, TrainConfig, run
from relulab import certificates as C
from tests.conftest import make_onehot_dataset, run_keeping_nets


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
    assert C.varphi(1, eta, 20, 10_000, 0.01) == pytest.approx(
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
    assert np.allclose(C.gram_matrix(net, ds), direct, atol=1e-12)


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
    dense = C.gram_matrix(net, ds)
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
    blocks = C.gram_matrix(net, ds).reshape(ds.n, nc, ds.n, nc).min(axis=(1, 3)).ravel()
    E = (ds.inputs @ net.B.T + net.c > 0.0) * net.A.min(axis=1)
    bound = ((E @ E.T) * (ds.inputs @ ds.inputs.T + 1.0)).ravel()
    k0 = int(np.argmin(bound))
    below = bound < blocks[k0]
    below[k0] = False
    return int(below.sum())


def test_multi_gram_min_entry_selection_matches_dense(monkeypatch):
    dense_calls = []
    gram = C.gram_matrix
    monkeypatch.setattr(C, "gram_matrix", lambda *a: dense_calls.append(1) or gram(*a))
    for seed in range(24):
        ds, net = _random_onehot_problem(seed, weight_spread=0.0 if seed % 2 else 2.0)
        expected = float(gram(net, ds).min())
        assert C.multi_gram_min_entry([net], ds)[0] == pytest.approx(expected, rel=1e-12), seed
    assert dense_calls == []


def test_multi_gram_min_entry_visits_several_candidates():
    # Widely varying positive output weights loosen the per-pair bound, so
    # pairs other than the least-bound one must be checked exactly.
    ds, net = _random_onehot_problem(3, weight_spread=3.0)
    assert _pairs_below_first_block(net, ds) > 1
    assert C.multi_gram_min_entry([net], ds)[0] == pytest.approx(
        float(C.gram_matrix(net, ds).min()), rel=1e-12)


def test_multi_gram_min_entry_negative_weight_takes_dense_fallback(monkeypatch):
    ds, net = _random_onehot_problem(5)
    net.A[0, 1] = -0.5
    dense_calls = []
    gram = C.gram_matrix
    monkeypatch.setattr(C, "gram_matrix", lambda *a: dense_calls.append(1) or gram(*a))
    assert C.multi_gram_min_entry([net], ds)[0] == float(gram(net, ds).min())
    assert dense_calls == [1]


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
    rec = run(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
              TrainConfig(steps=300, batching=Full(), trained_layers="input_only"))
    dc = compute_V(ds, 512, 0.01)
    rep = C.fit_convergence_rate(rec.records, "exponential", dc.V, 0.5)
    assert rep.passed and rep.slack >= 0.0


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
