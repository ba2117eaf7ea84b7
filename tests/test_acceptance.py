"""Acceptance suite: every headline quantitative claim checked end to end.

Each test here corresponds to one published criterion.  Image-corpus tests
skip when the binary files are not present (set RELULAB_MNIST_DIR or place
the IDX files under data/mnist/).  Claims that measurement refutes are
marked as strict expected failures with the measured counterexample in the
reason string; see the repository notes for the full analysis.
"""

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from relulab import certificates as C
from relulab import prm as P
from relulab.cli import main
from relulab.datasets import (
    compute_gamma_constants,
    compute_V,
    gen_orthant_separable,
    load_mnist,
    validate_separable,
)
from relulab.losses import loss_family
from relulab.models import InitSpec, flatten_params, init_binary, init_multi, loss_value
from relulab import oracles as O
from relulab.oracles import fd_gradient, grad_loss, loss_of_flat, min_preactivation_gap
from relulab.partition import check_dynamics_early, check_dynamics_global
from relulab.training import (
    Constant,
    Full,
    LossInverse,
    Stochastic,
    TrainConfig,
    TwoStagePoly,
    run,
    tstar,
)
from tests.conftest import KeepNets, make_onehot_dataset, run_keeping_nets, run_recorded

ETA = 0.01
TSTAR_BINARY = 44


def _mnist_dir():
    root = Path(os.environ.get("RELULAB_MNIST_DIR", "data/mnist"))
    images = root / "train-images-idx3-ubyte"
    labels = root / "train-labels-idx1-ubyte"
    if images.exists() and labels.exists():
        return images, labels
    return None


# ---------------------------------------------------------------------------
# Criterion 1: hitting-time constants
# ---------------------------------------------------------------------------

def test_criterion_01_hitting_time_constants():
    assert tstar(0.01, "binary") == 44
    assert [tstar(e, "multi") for e in (0.01, 0.005, 0.002, 0.001)] == [34, 69, 173, 346]


# ---------------------------------------------------------------------------
# Criterion 2: closed descent series
# ---------------------------------------------------------------------------

def test_criterion_02_closed_series():
    closed = O.descent_series_closed_form(0.01, 44)
    assert abs(closed - 0.19659127915806962) <= 1e-14
    assert abs(closed - O.descent_series_brute_force(0.01, 44)) <= 1e-14


# ---------------------------------------------------------------------------
# Criterion 3: image-corpus descent table (requires the MNIST IDX files)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(_mnist_dir() is None,
                    reason="MNIST IDX files not available in this environment "
                           "(no dataset downloads); set RELULAB_MNIST_DIR to run")
def test_criterion_03_mnist_descent_table():
    images, labels = _mnist_dir()
    ds = load_mnist(images, labels, count=1000, normalize=True)
    B = 64
    kappa = min(ETA / 10.0, ETA / (3.0 * B))
    descents = {}
    for m in (100, 200, 500, 1000):
        net0 = init_multi(m, ds.d, 10, InitSpec(kappa=kappa, seed=0))
        _, records, _ = run_recorded(net0, ds, loss_family("logistic"), Constant(eta=ETA),
                                     TrainConfig(steps=34, batching=Stochastic(B=B, seed=1)))
        L = {r.t: r.loss for r in records}
        descents[m] = L[0] - L[34]
        assert descents[m] >= 0.263, (m, descents[m])
    assert 0.35 <= descents[200] <= 0.60, descents[200]


# ---------------------------------------------------------------------------
# Criteria 4 / 5 / 6 share ten theorem-compliant binary runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def compliant_binary_summaries():
    """Ten seeds of the reference configuration (n=40, d=30, m=4096)."""
    n, d, m, delta = 40, 30, 4096, 0.01
    out = []
    for seed in range(10):
        ds = gen_orthant_separable(n=n, d=d, seed=seed)
        mu0 = validate_separable(ds).mu0
        kappa = min(ETA / 2000.0, ETA * mu0 / (3.0 * n))
        net0 = init_binary(m, d, InitSpec(kappa=kappa, seed=seed))
        keep = KeepNets()
        rec, records, _ = run_recorded(net0, ds, loss_family("quadratic"), Constant(eta=ETA),
                                       TrainConfig(steps=TSTAR_BINARY + 2, batching=Full()),
                                       observers=[keep])
        nets = keep.nets
        g1, g2 = compute_gamma_constants(ds)
        consts = C.TheoryConstants(n=n, d=d, m=m, delta=delta, eta=ETA,
                                   gamma1=g1, gamma2=g2)
        losses = {r.t: r.loss for r in records}
        cross_zero = True
        gram_lower_worst = math.inf
        for t in range(1, TSTAR_BINARY + 1):
            G = C.gram_matrix(nets[t], ds)
            cross_zero &= C.check_block_structure(G, ds).passed
            gram_lower_worst = min(gram_lower_worst,
                                   C.check_gram_lower_bound(G, ds, consts).slack)
        out.append({
            "seed": seed,
            "descent": losses[0] - losses[TSTAR_BINARY],
            "descent_bound": C.descent_bound_binary(consts),
            "budget_strict": C.probability_budget(
                C.TheoryConstants(n=n, d=d, m=m, delta=1e-10), "binary_early"),
            "early_violations": len(check_dynamics_early(
                nets[:TSTAR_BINARY + 2], ds)),
            "cross_zero": cross_zero,
            "gram_lower_worst": gram_lower_worst,
            "measured_T": rec.measured_T,
        })
    return out


def test_criterion_04_early_descent_binary(compliant_binary_summaries):
    for s in compliant_binary_summaries:
        assert s["descent"] >= s["descent_bound"], s


def test_criterion_05_partition_dynamics_early(compliant_binary_summaries):
    for s in compliant_binary_summaries:
        assert s["budget_strict"] < 1e-9
        assert s["early_violations"] == 0, s


def test_criterion_05_partition_dynamics_global():
    for seed in range(10):
        ds = gen_orthant_separable(n=20, d=25, seed=seed)
        mu0 = validate_separable(ds).mu0
        kappa = min(1e-3, 0.25 * mu0 / (3.0 * ds.n))
        net0 = init_binary(512, 25, InitSpec(kappa=kappa, seed=seed))
        _, nets = run_keeping_nets(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
                                   TrainConfig(steps=150, batching=Full(),
                                               trained_layers="input_only"))
        assert check_dynamics_global(nets, ds) == [], seed


def test_criterion_05_negative_control_produces_violations():
    ds = gen_orthant_separable(n=40, d=30, seed=0)
    net0 = init_binary(4096, 30, InitSpec(kappa=5e-6, seed=0))
    _, nets = run_keeping_nets(net0, ds, loss_family("quadratic"), Constant(eta=10.0),
                               TrainConfig(steps=6, batching=Full()))
    assert [(v.rule, v.step) for v in check_dynamics_early(nets, ds)] == [
        ("S1", 1), ("S2", 1), ("S5", 1)]


def test_criterion_06_gram_cross_class_exactly_zero(compliant_binary_summaries):
    for s in compliant_binary_summaries:
        assert s["cross_zero"], s


@pytest.mark.xfail(
    strict=True,
    reason="the stated same-class entrywise Gram lower bound "
           "x_i^T x_j ((pi - arccos)/pi - sqrt(8 log(n^2/delta)/m)) exceeds the "
           "measured entries: after the first step the co-active neuron set for a "
           "same-class pair is exactly the half of the neurons whose output weight "
           "matches the label, so the entry concentrates near x_i^T x_j / 2, while "
           "the bound approaches x_i^T x_j (pi - arccos)/pi > x_i^T x_j / 2; "
           "measured worst slack is about -0.35 at the reference configuration "
           "(see notes ledger)")
def test_criterion_06_gram_same_class_lower_bound(compliant_binary_summaries):
    for s in compliant_binary_summaries:
        assert s["gram_lower_worst"] >= 0.0, s


def test_criterion_06_multi_gram_entries_at_least_one():
    # The image-corpus variant of this check lives in criterion 3's setting
    # and skips with it; this synthetic one-hot configuration is the
    # equivalent compliant mini-batch run.
    ds = make_onehot_dataset(n=200, d=30, num_classes=10, seed=0)
    B = 64
    kappa = min(ETA / 10.0, ETA / (3.0 * B))
    net0 = init_multi(256, ds.d, 10, InitSpec(kappa=kappa, seed=0))
    _, nets = run_keeping_nets(net0, ds, loss_family("logistic"), Constant(eta=ETA),
                               TrainConfig(steps=34, batching=Stochastic(B=B, seed=1)))
    for t in range(1, 35):
        assert C.multi_gram_min_entry([nets[t]], ds)[0] >= 1.0, t


def test_criterion_04_hitting_time_covers_tstar(compliant_binary_summaries):
    for s in compliant_binary_summaries:
        assert s["measured_T"] == -1 or s["measured_T"] >= TSTAR_BINARY, s


# ---------------------------------------------------------------------------
# Criterion 7: gradient and Hessian certificates
# ---------------------------------------------------------------------------

def _min_batch_alignment(loss_key: str, seed: int) -> float:
    ds = make_onehot_dataset(n=200, d=30, num_classes=10, seed=seed)
    B = 64
    kappa = min(ETA / 10.0, ETA / (3.0 * B))
    net0 = init_multi(512, ds.d, 10, InitSpec(kappa=kappa, seed=seed))
    rec = run(net0, ds, loss_family(loss_key), Constant(eta=ETA),
              TrainConfig(steps=34, batching=Stochastic(B=B, seed=seed + 1)))
    return rec.min_batch_alignment


def test_criterion_07_stochastic_gradient_alignment():
    for seed in range(3):
        assert _min_batch_alignment("hinge", seed) >= C.STOCHASTIC_ALIGNMENT_BOUND, seed


def test_criterion_07_stochastic_gradient_alignment_refuted_for_logistic():
    # Recorded counterexample: the alignment claim is scoped to the hinge
    # loss.  Under the logistic loss the same runs reach a minimum alignment
    # of 0.302-0.314 at seeds 0-2, far below the 0.9801 bound.
    for seed in range(3):
        assert _min_batch_alignment("logistic", seed) < C.STOCHASTIC_ALIGNMENT_BOUND, seed


def test_criterion_07_hessian_binary_early():
    ds = gen_orthant_separable(n=10, d=10, seed=0)
    net0 = init_binary(1100, 10, InitSpec(kappa=5e-6, seed=0))
    _, nets = run_keeping_nets(net0, ds, loss_family("quadratic"), Constant(eta=ETA),
                               TrainConfig(steps=45, batching=Full()), steps=range(0, 46, 5))
    points = nets[:10]
    assert len(points) == 10
    for net in points:
        rep = C.check_hessian_bound(net, ds, loss_family("quadratic"), "binary_early")
        assert rep.passed and rep.measured <= 3.0, rep.as_dict()


def test_criterion_07_hessian_multi_early():
    ds = make_onehot_dataset(n=30, d=20, num_classes=3, seed=1)
    net0 = init_multi(64, ds.d, 3, InitSpec(kappa=3e-4, seed=1))
    _, nets = run_keeping_nets(net0, ds, loss_family("logistic"), Constant(eta=ETA),
                               TrainConfig(steps=36, batching=Full()), steps=range(0, 37, 4))
    points = nets[:10]
    assert len(points) == 10
    for net in points:
        rep = C.check_hessian_bound(net, ds, loss_family("logistic"), "multi_early")
        assert rep.passed and rep.measured <= 4.0, rep.as_dict()


def test_criterion_07_hessian_input_only_exp_type():
    ds = gen_orthant_separable(n=20, d=25, seed=2)
    mu0 = validate_separable(ds).mu0
    kappa = min(1e-3, 0.25 * mu0 / (3.0 * ds.n))
    net0 = init_binary(1024, 25, InitSpec(kappa=kappa, seed=2))
    lf = loss_family("exp")
    _, nets = run_keeping_nets(net0, ds, lf, LossInverse(eta0=0.25, c=0.5),
                               TrainConfig(steps=99, batching=Full(), trained_layers="input_only"),
                               steps=range(0, 100, 11))
    points = nets[:10]
    assert len(points) == 10
    for net in points:
        L = loss_value(net, ds, lf)
        rep = C.check_hessian_bound(net, ds, lf, "input_only", loss_at_point=L)
        assert rep.passed and rep.measured <= L, rep.as_dict()


# ---------------------------------------------------------------------------
# Criteria 8 / 9: convergence-rate envelopes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def global_setting():
    ds = gen_orthant_separable(n=20, d=25, seed=3)
    mu0 = validate_separable(ds).mu0
    m = 1024
    kappa = min(1e-3, 0.25 * mu0 / (3.0 * ds.n))
    net0 = init_binary(m, 25, InitSpec(kappa=kappa, seed=3))
    dc = compute_V(ds, m, 0.01)
    assert not dc.vacuous
    return ds, net0, dc


def test_criterion_08_exponential_envelope(global_setting):
    ds, net0, dc = global_setting
    envelope = C.RateEnvelope("exponential", dc.V, 0.5)
    rec = run(net0, ds, loss_family("exp"), LossInverse(eta0=0.25, c=0.5),
              TrainConfig(steps=1000, batching=Full(), trained_layers="input_only"), [envelope])
    rep = C.fit_convergence_rate(envelope)
    assert rep.passed and rep.slack >= 0.0, rep.as_dict()
    # The run either covers the full horizon or terminates by exact
    # convergence (loss below 1e-14), which dominates any envelope.
    assert rec.records.last.t == 1000 or rec.status == "converged-exactly"


def test_criterion_09_polynomial_stage1_envelope(global_setting):
    ds, net0, dc = global_setting
    eta0 = 0.25
    c = 1.0 / (6.0 * (1.0 + 2.0 * eta0) ** 2 + 2.0)
    sched = TwoStagePoly(eta0=eta0, c=c, T0=10 ** 9, cprime=0.5, r=1.0)
    envelope = C.RateEnvelope("poly_stage1", dc.V, c)
    rec = run(net0, ds, loss_family("exp"), sched,
              TrainConfig(steps=2000, batching=Full(), trained_layers="input_only"), [envelope])
    rep = C.fit_convergence_rate(envelope)
    assert rep.passed and rep.slack >= 0.0, rep.as_dict()
    assert rec.records.last.t == 2000
    # Stage 2 is deliberately not certified: its start T0 is astronomically
    # large at these scales, so the run never leaves stage 1.
    assert sched.T0 > 2000


# ---------------------------------------------------------------------------
# Criterion 10: oracle equivalences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant,loss_key", [
    ("binary", "quadratic"), ("binary", "exp"), ("binary", "logistic"),
    ("binary", "hinge"), ("multi", "exp"), ("multi", "logistic"),
    ("multi", "hinge"),
])
def test_criterion_10_gradients_match_finite_differences(variant, loss_key):
    lf = loss_family(loss_key)
    checked = 0
    state = 0
    while checked < 50:
        state += 1
        if variant == "binary":
            ds = gen_orthant_separable(n=10, d=6, seed=state)
            net = init_binary(8, 6, InitSpec(kappa=0.5, seed=state))
        else:
            ds = make_onehot_dataset(n=10, d=6, num_classes=3, seed=state)
            net = init_multi(6, 6, 3, InitSpec(kappa=0.5, seed=state))
        if min_preactivation_gap(net, ds) < 1e-4:
            continue  # keep only kink-free points
        g = grad_loss(net, ds, lf)
        fd = fd_gradient(loss_of_flat(net, ds, lf), flatten_params(net))
        err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))
        assert err <= 1e-5, (variant, loss_key, state, err)
        checked += 1


def test_criterion_10_kernel_loss_matches_monte_carlo():
    for state in range(20):
        cfg = P.TeacherStudentConfig(d=8, m=5, M=8, kappa=0.1, eta=0.001,
                                     seed=state, steps=0)
        gen = np.random.default_rng(state)
        W = 0.3 * gen.standard_normal((cfg.m, cfg.d))
        exact = P.population_loss(W, cfg)
        mc, sem = O.mc_population_loss(W, cfg, samples=1_000_000, seed=1000 + state)
        assert abs(mc - exact) <= 4.0 * sem, (state, exact, mc, sem)


def test_criterion_10_homogeneity_identity():
    cfg = P.TeacherStudentConfig(d=6, m=4, M=6, kappa=0.1, eta=0.001,
                                 seed=0, steps=0)
    V = P.teacher_matrix(cfg)
    for state in range(100):
        gen = np.random.default_rng(state)
        W = 0.4 * gen.standard_normal((cfg.m, cfg.d))
        G = P.population_grad(W, cfg)
        for i in range(cfg.m):
            lhs = float(W[i] @ G[i])
            rhs = math.fsum(O.arccos_kernel(W[i], W[j]) for j in range(cfg.m)) \
                - math.fsum(O.arccos_kernel(W[i], V[j]) for j in range(cfg.M))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), (state, i)


# ---------------------------------------------------------------------------
# Criterion 11: teacher-student population-risk descent
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prm_reference_run():
    probe = P.TeacherStudentConfig(d=10, m=10, M=10, kappa=0.1, eta=1.0,
                                   seed=0, steps=0)
    eta = P.max_compliant_eta(probe)
    cfg = P.TeacherStudentConfig(d=10, m=10, M=10, kappa=0.1, eta=eta,
                                 seed=0, steps=10)
    return cfg, P.run_prm_gd(cfg)


def test_criterion_11_prm_descent_exceeds_two_term_bound(prm_reference_run):
    cfg, rec = prm_reference_run
    assert rec.eta_compliant
    cert = P.prm_descent_certificate(cfg, rec)
    assert not cert.inconclusive
    assert cert.passed, cert.as_dict()


@pytest.mark.xfail(
    strict=True,
    reason="with M = d = 10 orthogonal teachers of norm 1/M, the closed-form "
           "risk of the zero student is 1/(4M) + (M-1)/(4 pi M) = 0.09662..., "
           "not 1/2; the Monte-Carlo oracle confirms the closed form "
           "(see notes ledger)")
def test_criterion_11_origin_loss_equals_one_half(prm_reference_run):
    cfg, _ = prm_reference_run
    assert abs(P.loss_at_origin(cfg) - 0.5) <= 1e-12


def test_criterion_11_origin_loss_matches_monte_carlo(prm_reference_run):
    cfg, _ = prm_reference_run
    exact = P.loss_at_origin(cfg)
    mc, sem = O.mc_population_loss(np.full((1, cfg.d), 1e-300), cfg,
                                   samples=1_000_000, seed=77)
    assert abs(mc - exact) <= 4.0 * sem + 1e-6


# ---------------------------------------------------------------------------
# Criterion 12: byte-level determinism
# ---------------------------------------------------------------------------

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_12_determinism(tmp_path):
    config = {
        "kind": "early-binary",
        "dataset": {"type": "synthetic", "n": 16, "d": 25, "seed": 1},
        "model": {"m": 1024, "kappa": "auto"},
        "loss": "quadratic",
        "schedule": {"type": "constant", "eta": 0.01},
        "train": {"steps": 46},
        "delta": 0.01,
        "seed": 4,
    }
    prm_config = {"kind": "prm",
                  "prm": {"d": 10, "m": 10, "M": 10, "kappa": 0.1,
                          "eta": "auto", "steps": 8, "seed": 0}}
    digests = []
    for rep in (1, 2):
        cfg_path = tmp_path / f"c{rep}.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / f"run{rep}"
        main(["verify", "--config", str(cfg_path), "--out", str(out)])
        pcfg = tmp_path / f"p{rep}.json"
        pcfg.write_text(json.dumps(prm_config))
        pout = tmp_path / f"prm{rep}"
        main(["prm", "--config", str(pcfg), "--out", str(pout)])
        digests.append((
            _digest(out / "steps.csv"), _digest(out / "certificates.json"),
            _digest(pout / "steps.csv"), _digest(pout / "certificates.json"),
        ))
    assert digests[0] == digests[1]
