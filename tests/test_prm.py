import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relulab import prm, rng
from relulab.oracles import arccos_kernel, kernel_grad_w, mc_population_loss
from relulab.prm import (
    TeacherStudentConfig,
    descent_bound_two_term,
    init_prm,
    loss_at_origin,
    max_compliant_eta,
    population_grad,
    population_loss,
    prm_csv,
    prm_descent_certificate,
    prm_tstar_plus_one,
    run_prm_gd,
    teacher_matrix,
)


def cfg(d=10, m=10, M=10, kappa=0.1, eta=0.001, seed=0, steps=0):
    return TeacherStudentConfig(d=d, m=m, M=M, kappa=kappa, eta=eta,
                                seed=seed, steps=steps)


# ---------------------------------------------------------------------------
# Kernel closed forms
# ---------------------------------------------------------------------------

def test_kernel_reference_values():
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert arccos_kernel(e1, e1) == pytest.approx(0.5, abs=1e-15)       # self
    assert arccos_kernel(e1, e2) == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    assert arccos_kernel(e1, -e1) == pytest.approx(0.0, abs=1e-15)      # antipodal
    assert arccos_kernel(3 * e1, 2 * e2) == pytest.approx(6 / (2 * math.pi), rel=1e-14)


def test_kernel_gradient_matches_fd():
    gen = np.random.default_rng(0)
    for _ in range(10):
        w = gen.standard_normal(6)
        v = gen.standard_normal(6)
        g = kernel_grad_w(w, v)
        fd = np.zeros(6)
        h = 1e-7
        for i in range(6):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (arccos_kernel(wp, v) - arccos_kernel(wm, v)) / (2 * h)
        assert np.allclose(g, fd, atol=1e-6)


def test_self_kernel_gradient_is_w():
    w = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(kernel_grad_w(w, w, same_object=True), w)


# ---------------------------------------------------------------------------
# Loss / gradient closed forms
# ---------------------------------------------------------------------------

def test_loss_at_origin_matches_analytic_sum():
    # For M = d orthogonal teachers of norm 1/M the double kernel sum gives
    # 1/(4M) + (M-1)/(4 pi M).
    c = cfg()
    expected = 1 / 40 + 9 / (40 * math.pi)
    assert loss_at_origin(c) == pytest.approx(expected, abs=1e-15)


def test_population_grad_matches_fd():
    c = cfg()
    gen = np.random.default_rng(1)
    W = 0.05 * gen.standard_normal((c.m, c.d))
    G = population_grad(W, c)
    h = 1e-6
    fd = np.zeros_like(W)
    for k in range(c.m):
        for j in range(c.d):
            Wp, Wm = W.copy(), W.copy()
            Wp[k, j] += h
            Wm[k, j] -= h
            fd[k, j] = (population_loss(Wp, c) - population_loss(Wm, c)) / (2 * h)
    assert np.linalg.norm(G - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_homogeneity_identity(seed):
    # <w_i, dL/dw_i> = sum_j k(w_i; w_j) - sum_j k(w_i; v_j) for each row.
    c = cfg(d=6, m=4, M=6)
    gen = rng.make_generator(seed, stream=0)
    W = 0.3 * rng.normal(gen, (c.m, c.d))
    if np.any(np.linalg.norm(W, axis=1) < 1e-8):
        return
    V = teacher_matrix(c)
    G = population_grad(W, c)
    for i in range(c.m):
        lhs = float(W[i] @ G[i])
        rhs = math.fsum(arccos_kernel(W[i], W[j]) for j in range(c.m)) \
            - math.fsum(arccos_kernel(W[i], V[j]) for j in range(c.M))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_mc_oracle_agrees_with_closed_form():
    c = cfg(d=8, m=5, M=8)
    gen = np.random.default_rng(2)
    W = 0.2 * gen.standard_normal((c.m, c.d))
    exact = population_loss(W, c)
    mc, sem = mc_population_loss(W, c, samples=400_000, seed=9)
    assert abs(mc - exact) <= 4 * sem


def _prm_terms_from_fresh_teacher(W, c):
    """The loss at the zero student, the loss and the gradient, rebuilt on a
    fresh ``teacher_matrix(c)``."""
    V = teacher_matrix(c)
    nw, nv = np.linalg.norm(W, axis=1), np.linalg.norm(V, axis=1)
    origin = 0.5 * math.fsum(prm._kernel_matrix(V, V, nv, nv).ravel().tolist())
    loss = float(0.5 * math.fsum(prm._kernel_matrix(W, W, nw, nw).ravel().tolist())
                 - math.fsum(prm._kernel_matrix(W, V, nw, nv).ravel().tolist())
                 + origin)
    Wbar, Vbar = W / nw[:, None], V / nv[:, None]
    th_ww = np.arccos(np.clip(Wbar @ Wbar.T, -1.0, 1.0))
    cos_wv = np.clip(Wbar @ Vbar.T, -1.0, 1.0)
    th_wv = np.arccos(cos_wv)
    sin_ww = np.sin(th_ww)
    np.fill_diagonal(sin_ww, 0.0)
    pi_minus = (np.pi - th_ww) / (2.0 * np.pi)
    np.fill_diagonal(pi_minus, 0.0)
    G = ((sin_ww @ nw) / (2.0 * np.pi))[:, None] * Wbar + (pi_minus * nw[None, :]) @ Wbar
    G += 0.5 * W
    G -= (((np.sin(th_wv) @ nv) / (2.0 * np.pi))[:, None] * Wbar
          + (((np.pi - th_wv) / (2.0 * np.pi)) * nv[None, :]) @ Vbar)
    return origin, loss, G


def test_cached_teacher_terms_are_keyed_on_d_M_and_seed():
    # Extension-mode configs that differ only in seed, interleaved with ones
    # that differ only in d or M: more keys than the cache holds, visited
    # twice, so entries are evicted and rebuilt.
    configs = [cfg(d=5, m=4, M=8, seed=s) for s in (0, 1, 2)]
    configs += [cfg(d=d, m=4, M=8) for d in (6, 7, 8, 9)]
    configs += [cfg(d=5, m=4, M=M) for M in (5, 9, 10)]
    assert not np.array_equal(teacher_matrix(configs[0]), teacher_matrix(configs[1]))
    prm._teacher_terms.cache_clear()
    gen = np.random.default_rng(3)
    for c in configs[0::2] + configs[1::2] + configs:
        W = 0.05 * gen.standard_normal((c.m, c.d))
        origin, loss, G = _prm_terms_from_fresh_teacher(W, c)
        assert loss_at_origin(c) == origin
        assert population_loss(W, c) == loss
        assert np.array_equal(population_grad(W, c), G)

    c = configs[0]
    cached = prm._teacher(c)
    assert not any(a.flags.writeable for a in (cached.V, cached.nv, cached.Vbar))
    V = teacher_matrix(c)
    assert V.flags.writeable and not np.shares_memory(V, cached.V)
    V[:] = 0.0
    assert np.array_equal(teacher_matrix(c), cached.V)


@pytest.mark.parametrize("m,M", [(1, 1), (3, 7), (33, 40), (40, 40)])
@pytest.mark.parametrize("low,high", [(1e-150, 1e150), (1e-150, 1e-150), (1.0, 1.0)])
def test_population_loss_is_bit_identical_to_the_fsum_oracle(m, M, low, high):
    # Row norms spread log-evenly over [low, high].  The spread leaves
    # remainders after both extraction rounds of the kernel sums; rows of
    # norm 1e-150 put the student-student sum below the normal range, where
    # the sum falls back to fsum itself.
    c = cfg(d=40, m=m, M=M)
    W = np.random.default_rng(m * M).standard_normal((m, c.d))
    W *= (np.geomspace(low, high, m) / np.linalg.norm(W, axis=1))[:, None]
    origin, loss, _ = _prm_terms_from_fresh_teacher(W, c)
    assert loss_at_origin(c) == origin
    assert population_loss(W, c) == loss


# ---------------------------------------------------------------------------
# Schedule constants and run
# ---------------------------------------------------------------------------

def test_compliant_eta_reference_value():
    assert max_compliant_eta(cfg(eta=1.0)) == pytest.approx(0.004021801828985618, rel=1e-12)


def test_tstar_plus_one_reference_value():
    eta = max_compliant_eta(cfg(eta=1.0))
    assert prm_tstar_plus_one(cfg(eta=eta)) == pytest.approx(6.0, abs=1e-2)


def test_init_radius_and_determinism():
    c = cfg(eta=0.001)
    W1, W2 = init_prm(c), init_prm(c)
    assert np.array_equal(W1, W2)
    r = (c.d * c.kappa / (c.m * c.M)) * math.sqrt((c.d - 1) / c.d)
    assert np.allclose(np.linalg.norm(W1, axis=1), r, atol=1e-15)


def test_run_norm_growth_and_certificate():
    eta = max_compliant_eta(cfg(eta=1.0))
    c = cfg(eta=eta, steps=10)
    rec = run_prm_gd(c)
    assert rec.eta_compliant
    assert rec.norm_monotone
    assert all(l2 <= l1 + 1e-15 for l1, l2 in zip(rec.losses, rec.losses[1:]))
    cert = prm_descent_certificate(c, rec)
    assert not cert.inconclusive
    assert cert.passed
    assert cert.theoretical == pytest.approx(descent_bound_two_term(c), rel=1e-15)


@pytest.mark.parametrize("kappa,steps,detail", [
    (0.1, 2, "horizon too short: need 8 recorded steps"),
    # kappa = 0.9 >= 1/pi: T*+1 = -4.42, and the bound is negative.
    (0.9, 10, "empty horizon: T*+1 = -4.419"),
], ids=["short-run", "empty-horizon"])
def test_certificate_inconclusive_when_horizon_short(kappa, steps, detail):
    c = cfg(kappa=kappa, eta=max_compliant_eta(cfg(kappa=kappa, eta=1.0)), steps=steps)
    cert = prm_descent_certificate(c, run_prm_gd(c))
    assert cert.inconclusive and not cert.passed
    assert math.isnan(cert.measured) and math.isnan(cert.slack)
    assert cert.theoretical == descent_bound_two_term(c)
    assert cert.context["detail"].startswith(detail)


def test_certificate_fails_on_a_planted_loss():
    """Negative control: a loss at T*+1 planted at the zero student's loss
    (no descent) fails the two-term bound."""
    c = cfg(eta=max_compliant_eta(cfg(eta=1.0)), steps=10)
    rec = run_prm_gd(c)
    t_eval = math.ceil(prm_tstar_plus_one(c))
    losses = list(rec.losses)
    losses[t_eval] = loss_at_origin(c)
    cert = prm_descent_certificate(c, dataclasses.replace(rec, losses=losses))
    assert not cert.passed and not cert.inconclusive
    assert cert.measured == 0.0 and cert.slack == -cert.theoretical < 0.0
    assert cert.context["detail"].startswith(f"evaluated at step {t_eval};")


def test_prm_csv_layout():
    c = cfg(eta=0.001, steps=2)
    text = prm_csv(run_prm_gd(c))
    lines = text.strip().split("\n")
    assert lines[0] == "t,loss,sum_norms,min_norm,max_norm,grad_norm"
    assert len(lines) == 4


def test_extension_mode_flag():
    assert not cfg().extension_mode
    assert cfg(d=5, M=8, m=4).extension_mode
    V = teacher_matrix(cfg(d=5, M=8, m=4))
    assert np.allclose(np.linalg.norm(V, axis=1), 1 / 8, atol=1e-15)


# ---------------------------------------------------------------------------
# Streamed norm growth against a run that keeps every student
# ---------------------------------------------------------------------------

def _reference_T_and_growth(c):
    """(measured_T, norm_monotone) from the kept trajectory W(0..steps)."""
    Ws = [init_prm(c)]
    for _ in range(c.steps):
        Ws.append(Ws[-1] - c.eta * prm.population_grad(Ws[-1], c))
    norms = [np.linalg.norm(W, axis=1) for W in Ws]
    threshold = (c.d / (math.pi * c.M)) * math.sqrt((c.d - 1) / c.d)
    T = max((t for t in range(c.steps) if float(norms[t + 1].sum()) < threshold), default=-1)
    monotone = all(np.all(norms[t] < norms[t + 1]) and np.all(norms[t + 1] < 2.0 * norms[t])
                   for t in range(T + 1))
    return T, monotone


def _compliant(d, m, M, kappa, seed, steps):
    c = cfg(d=d, m=m, M=M, kappa=kappa, eta=1.0, seed=seed)
    return dataclasses.replace(c, eta=max_compliant_eta(c), steps=steps)


@pytest.mark.parametrize("d,m,M,kappa", [(10, 10, 10, 0.1), (8, 5, 8, 0.1),
                                         (12, 6, 10, 0.05), (6, 9, 6, 0.2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_norm_growth_matches_kept_trajectory(d, m, M, kappa, seed):
    c = _compliant(d, m, M, kappa, seed, steps=40)
    rec = run_prm_gd(c)
    assert (rec.measured_T, rec.norm_monotone) == _reference_T_and_growth(c)
    assert 0 <= rec.measured_T < c.steps and rec.norm_monotone


def _shrink_row_zero_at(grad, t):
    """``grad`` with step t -> t+1 scaling student row 0 by 0.9, which breaks
    the growth condition."""
    calls = []

    def planted(W, config):
        G = grad(W, config)
        calls.append(t)
        if len(calls) == t + 1:
            G[0] = 0.1 * W[0] / config.eta
        return G

    return planted


@pytest.mark.parametrize("t,monotone", [(2, False), (24, True)])
def test_streamed_norm_growth_with_a_planted_shrink(monkeypatch, t, monotone):
    # Growth counts only up to measured_T: a shrink at t = 2 breaks it, one
    # at t = 24 does not.
    c = _compliant(8, 5, 8, 0.1, 0, steps=40)
    grad = prm.population_grad
    monkeypatch.setattr(prm, "population_grad", _shrink_row_zero_at(grad, t))
    rec = run_prm_gd(c)
    monkeypatch.setattr(prm, "population_grad", _shrink_row_zero_at(grad, t))
    assert (rec.measured_T, rec.norm_monotone) == _reference_T_and_growth(c)
    assert rec.norm_monotone is monotone
    if monotone:
        assert rec.measured_T < t       # the shrink lies beyond the certified horizon
    else:
        assert t <= rec.measured_T
