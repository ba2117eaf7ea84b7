"""Independent numerical oracles and reference implementations used to
validate the analytic code paths.

Nothing in here is used by the training, certificate or command-line
machinery itself; these routines exist so that tests can compare every
closed form against an independent computation (central finite differences,
brute-force summation, dense grids, Monte-Carlo estimation) or against a
plainer formulation (the flat gradient, the dense Hessian, the scalar
arc-cosine kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .losses import LossFamily
from .models import (BinaryNet, MultiNet, Net, _activations, _flatten_struct, _hessian_matvec,
                     grad_loss_struct, loss_value)
from .certificates import CertificateReport
from .prm import TeacherStudentConfig, teacher_matrix
from .training import StepRecord

__all__ = [
    "fd_gradient",
    "fd_hessian_vector",
    "unflatten_like",
    "loss_of_flat",
    "min_preactivation_gap",
    "multi_gram_matrix",
    "multi_gram_min_full_bound",
    "grad_loss",
    "hessian_loss",
    "phi",
    "steps_csv",
    "convergence_rate_of_records",
    "descent_series_closed_form",
    "descent_series_brute_force",
    "ConstantsReport",
    "verify_range_constants",
    "verify_exptype_constants",
    "arccos_kernel",
    "kernel_grad_w",
    "mc_population_loss",
]


def unflatten_like(net: Net, flat: np.ndarray) -> Net:
    """Rebuild a network of the same shape from a flat parameter vector."""
    if isinstance(net, BinaryNet):
        m, d = net.m, net.d
        return BinaryNet(a=flat[:m].copy(), B=flat[m:].reshape(m, d).copy())
    m, d, C = net.m, net.d, net.C
    return MultiNet(A=flat[:m * C].reshape(m, C).copy(),
                    B=flat[m * C:m * C + m * d].reshape(m, d).copy(),
                    c=flat[m * C + m * d:].copy())


def loss_of_flat(net: Net, ds: LabeledDataset, loss: LossFamily) -> Callable[[np.ndarray], float]:
    """Empirical risk as a function of the flat parameter vector."""
    def f(flat: np.ndarray) -> float:
        return loss_value(unflatten_like(net, flat), ds, loss)
    return f


def grad_loss(net: Net, ds: LabeledDataset, loss: LossFamily,
              trained_layers: str = "all") -> np.ndarray:
    """Flat gradient of the empirical risk in the canonical parameter order."""
    return _flatten_struct(grad_loss_struct(net, ds, loss, trained_layers=trained_layers))


_DENSE_GUARD = 20_000


def hessian_loss(net: Net, ds: LabeledDataset, loss: LossFamily,
                 trained_layers: str = "all") -> np.ndarray:
    """Dense Hessian of the empirical risk in flat parameter order.

    Its columns are the exact Hessian-vector products of the unit vectors,
    so it is the matrix that ``models.hessian_spectral_norm`` solves for
    without forming it.  The input-only Hessian (binary network) is the
    input-layer block.  Guarded at 20000 parameters.
    """
    if isinstance(net, MultiNet) and trained_layers != "all":
        raise ValueError("input-only training is defined for the binary network")
    matvec, dim = _hessian_matvec(net, ds, loss)
    first = net.m if trained_layers == "input_only" else 0
    if dim - first > _DENSE_GUARD:
        raise ValueError(f"dense Hessian guard exceeded: {dim - first} > {_DENSE_GUARD}")
    Hmat = np.empty((dim - first, dim - first))
    e = np.zeros(dim)
    for j in range(first, dim):
        e[j] = 1.0
        Hmat[:, j - first] = matvec(e)[first:]
        e[j] = 0.0
    return 0.5 * (Hmat + Hmat.T)


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_hessian_vector(f: Callable[[np.ndarray], float], x: np.ndarray, v: np.ndarray,
                      h: float = 1e-5) -> np.ndarray:
    """Central finite-difference Hessian-vector product via gradient differences."""
    def grad(y: np.ndarray) -> np.ndarray:
        return fd_gradient(f, y, h=1e-6)
    return (grad(x + h * v) - grad(x - h * v)) / (2.0 * h)


def min_preactivation_gap(net: Net, ds: LabeledDataset) -> float:
    """Smallest |preactivation| over all (sample, neuron) pairs.

    Finite-difference comparisons are only meaningful at kink-free points:
    every preactivation magnitude must exceed several times the step h.
    """
    H = ds.inputs @ net.B.T
    if isinstance(net, MultiNet):
        H = H + net.c[None, :]
    return float(np.min(np.abs(H)))


# ---------------------------------------------------------------------------
# Multi-class Gram minimum
# ---------------------------------------------------------------------------

def multi_gram_matrix(net: MultiNet, ds: LabeledDataset) -> np.ndarray:
    """The (Cn) x (Cn) model-gradient Gram matrix of the multi-output network,
    laid out as (i*C + alpha).

    Entry ((i,alpha),(j,beta)) = delta_{alpha beta} sum_k S_ik S_jk
      + (x_iᵀx_j + 1) sum_k a_{k alpha} a_{k beta} D_ik D_jk, that is
    kron(S Sᵀ, I_C) + kron(X Xᵀ + 1, 1_{CxC}) * F Fᵀ with
    F[(i,alpha), k] = D_ik a_{k alpha}.  The dense reference for
    ``certificates.MultiGramMin``, which evaluates one C x C block at a time.
    """
    X, _, S, D, _, _ = _activations(net, ds)
    n, C = ds.n, net.C
    F = (D[:, None, :] * net.A.T[None, :, :]).reshape(n * C, net.m)
    G = F @ F.T
    G *= np.kron(X @ X.T + 1.0, np.ones((C, C)))
    G += np.kron(S @ S.T, np.eye(C))
    return G


def multi_gram_min_full_bound(net: MultiNet, ds: LabeledDataset) -> float:
    """Minimum entry of the multi-class Gram matrix by a search over the full
    n x n pair bound.

    ``bound_ij = (E Eᵀ)_ij (x_iᵀx_j + 1)`` with ``E_ik = D_ik min_alpha a_{k alpha}``
    lies below every entry of the pair's C x C block when the output weights
    and ``X Xᵀ + 1`` are nonnegative (otherwise every block i <= j is
    evaluated).  The pair of least bound gives an exact block minimum m0; the
    pairs (i <= j) with ``bound < m0`` are then visited in ascending bound
    order, stopping once a bound clears the running minimum.  The reference
    for ``certificates.MultiGramMin``, which forms the bound on fewer rows.
    """
    X, _, S, D, _, _ = _activations(net, ds)
    n, A, eye = ds.n, net.A, np.eye(net.C)
    XX1 = X @ X.T + 1.0
    amin = A.min(axis=1)

    def block_min(k: int) -> float:
        i, j = divmod(int(k), n)
        block = (A.T * (D[i] * D[j])[None, :]) @ A * XX1[i, j] + eye * (S[i] @ S[j])
        return float(block.min())

    if np.any(XX1 < 0.0) or np.any(amin < 0.0):
        return min(block_min(i * n + j) for i in range(n) for j in range(i, n))
    E = D * amin[None, :]
    bound = E @ E.T
    bound *= XX1
    bound = bound.ravel()
    k0 = int(np.argmin(bound))
    best = block_min(k0)
    kept = np.flatnonzero(bound < best)
    kept = kept[(kept // n <= kept % n) & (kept != k0)]
    for k in kept[np.argsort(bound[kept])]:
        if bound[k] >= best:
            break
        best = min(best, block_min(k))
    return best


# ---------------------------------------------------------------------------
# Whole-run readers: the references of the streamed step log and reducers
# ---------------------------------------------------------------------------

def steps_csv(records: Sequence[StepRecord], every: int = 1) -> str:
    """steps.csv rendered at once from a run's whole record list: the rows of
    the steps with t % every == 0 and of the last record.  ``training.StepLog``
    streams the same bytes one record at a time."""
    lines = ["t,loss,eta,grad_norm,min_margin,max_margin,param_norm,max_abs_pred,a_sign_ok\n"]
    for r in records:
        if r.t % every == 0 or r is records[-1]:
            lines.append(f"{r.t},{r.loss!r},{r.eta!r},{r.grad_norm!r},{r.min_margin!r},"
                         f"{r.max_margin!r},{r.param_norm!r},{r.max_abs_pred!r},{int(r.a_sign_ok)}\n")
    return "".join(lines)


def convergence_rate_of_records(records: Sequence[StepRecord], kind: str, V: float,
                                c: float) -> CertificateReport:
    """The rate-<kind> report read from a run's whole record list, with
    ``np.polyfit``: the reference for ``certificates.RateEnvelope``, which
    reads one record at a time, and ``fit_convergence_rate``."""
    rate = V * c / 2.0
    pts = [(r.t, r.loss) for r in records if r.t >= 1]
    L1 = dict(pts)[1]
    worst_slack, worst_t = math.inf, None
    for t, L in pts:
        env = L1 / t ** rate if kind == "poly_stage1" else (1.0 - rate) ** (t - 1) * L1
        if env - L < worst_slack:
            worst_slack, worst_t = env - L, t
    ts = np.array([t for t, L in pts if L > 0], dtype=np.float64)
    Ls = np.array([L for _, L in pts if L > 0], dtype=np.float64)
    x = np.log(ts) if kind == "poly_stage1" else ts
    fit = float(np.polyfit(x, np.log(Ls), 1)[0]) if len(ts) > 1 else math.nan
    return CertificateReport(f"rate-{kind}", rate, fit, worst_slack >= 0.0, worst_slack,
                             context={"worst_t": worst_t, "fitted_decay": fit})


# ---------------------------------------------------------------------------
# Early descent series (acceptance criterion 2)
# ---------------------------------------------------------------------------

def phi(t: float, eta: float) -> float:
    """Descent-series envelope 251001((1+2eta)^{2t} - (1-2eta)^{2t}) / 1500000."""
    return 251001.0 * ((1.0 + 2.0 * eta) ** (2 * t) - (1.0 - 2.0 * eta) ** (2 * t)) / 1_500_000.0


def descent_series_closed_form(eta: float, t_star: int) -> float:
    """Closed form of sum_{t=1}^{T*-1} eta (1 - phi(t))^2 via geometric sums."""
    a = 251001.0 / 1_500_000.0
    up = (1.0 + 2.0 * eta) ** 2
    dn = (1.0 - 2.0 * eta) ** 2
    mix = up * dn
    T = t_star

    def geo(q: float) -> float:
        # sum_{t=1}^{T-1} q^t
        return (q - q ** T) / (1.0 - q)

    # Expand (1 - a(u^t - v^t))^2 with u = up^t, v = dn^t and sum each
    # geometric series separately.
    total = (T - 1) - 2.0 * a * geo(up) + 2.0 * a * geo(dn) \
        + a * a * geo(up * up) + a * a * geo(dn * dn) - 2.0 * a * a * geo(mix)
    return eta * total


def descent_series_brute_force(eta: float, t_star: int) -> float:
    """Direct term-by-term evaluation of sum_{t=1}^{T*-1} eta (1 - phi(t))^2."""
    return math.fsum(eta * (1.0 - phi(t, eta)) ** 2 for t in range(1, t_star))


# ---------------------------------------------------------------------------
# Loss-family constants on dense grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsReport:
    passed: bool
    min_slack: float
    detail: str


def verify_range_constants(family: LossFamily, grid_points: int = 1001,
                           z0: Optional[float] = None,
                           g_min: Optional[float] = None,
                           g_max: Optional[float] = None,
                           h_max: Optional[float] = None) -> ConstantsReport:
    """Check g_min <= -ltilde' <= g_max and 0 <= ltilde'' <= h_max on [0, z0].

    Constants default to the family's declared values; overrides allow
    probing wrong declarations.
    """
    if family.kind == "quadratic":
        raise TypeError("quadratic loss has no margin-range constants")
    z0 = family.z0 if z0 is None else z0
    g_min = family.g_min if g_min is None else g_min
    g_max = family.g_max if g_max is None else g_max
    h_max = family.h_max if h_max is None else h_max
    z = np.linspace(0.0, z0, grid_points)
    neg_d = -family.deriv(z)
    dd = family.second_deriv(z)
    slacks = {
        "g_min": float(np.min(neg_d - g_min)),
        "g_max": float(np.min(g_max - neg_d)),
        "h_lo": float(np.min(dd)),
        "h_max": float(np.min(h_max - dd)),
    }
    tol = -1e-12
    worst = min(slacks, key=slacks.get)
    return ConstantsReport(
        passed=all(v >= tol for v in slacks.values()),
        min_slack=slacks[worst],
        detail=f"worst inequality {worst}, slack {slacks[worst]:.3e} over [0,{z0}] with {grid_points} points",
    )


def verify_exptype_constants(family: LossFamily, z_range: float = 50.0,
                             grid_points: int = 100_000,
                             g_a: Optional[float] = None,
                             g_b: Optional[float] = None,
                             h: Optional[float] = None) -> ConstantsReport:
    """Check the ratio inequalities of exponential-type losses on a grid.

    -ltilde'/ltilde <= g_b and 0 <= ltilde''/ltilde <= h on [-R, R];
    -ltilde'/ltilde >= g_a on [0, R].  The grid is a desk-scale certificate:
    both implemented families have monotone ratios outside any bounded
    interval, but that is documented, not proven here.
    """
    if family.kind != "exptype":
        raise TypeError(f"loss {family.name!r} is not exponential-type")
    g_a = family.g_a if g_a is None else g_a
    g_b = family.g_b if g_b is None else g_b
    h = family.h if h is None else h
    z = np.linspace(-z_range, z_range, grid_points)
    val = family.value(z)
    if np.any(val <= 0.0):
        return ConstantsReport(False, float(np.min(val)), "loss not positive on grid")
    ratio1 = -family.deriv(z) / val
    ratio2 = family.second_deriv(z) / val
    pos = z >= 0.0
    slacks = {
        "g_b": float(np.min(g_b - ratio1)),
        "h_lo": float(np.min(ratio2)),
        "h": float(np.min(h - ratio2)),
        "g_a": float(np.min(ratio1[pos] - g_a)),
    }
    tol = -1e-12
    worst = min(slacks, key=slacks.get)
    return ConstantsReport(
        passed=all(v >= tol for v in slacks.values()),
        min_slack=slacks[worst],
        detail=f"worst inequality {worst}, slack {slacks[worst]:.3e} on [-{z_range},{z_range}]",
    )


# ---------------------------------------------------------------------------
# Teacher-student population risk
# ---------------------------------------------------------------------------

def arccos_kernel(w: np.ndarray, v: np.ndarray) -> float:
    """k(w; v) = (1/2pi) |w| |v| (sin theta + (pi - theta) cos theta)."""
    nw = float(np.linalg.norm(w))
    nv = float(np.linalg.norm(v))
    if nw == 0.0 or nv == 0.0:
        raise ValueError("arc-cosine kernel undefined for zero vectors")
    cos = float(np.clip(np.dot(w, v) / (nw * nv), -1.0, 1.0))
    theta = math.acos(cos)
    return nw * nv * (math.sin(theta) + (math.pi - theta) * cos) / (2.0 * math.pi)


def kernel_grad_w(w: np.ndarray, v: np.ndarray, same_object: bool = False) -> np.ndarray:
    """Gradient of k(w; v) in w.

    The self term (``same_object=True``, i.e. k(w; w) = |w|^2/2) has gradient
    w.  Otherwise the generic branch (1/2pi)|v|(sin(theta) w/|w| +
    (pi - theta) v/|v|) applies; it is continuous at theta = 0, so
    collinear-but-distinct vectors use it too.
    """
    if same_object:
        return np.array(w, dtype=np.float64, copy=True)
    nw = float(np.linalg.norm(w))
    nv = float(np.linalg.norm(v))
    if nw == 0.0 or nv == 0.0:
        raise ValueError("arc-cosine kernel undefined for zero vectors")
    cos = float(np.clip(np.dot(w, v) / (nw * nv), -1.0, 1.0))
    theta = math.acos(cos)
    return (nv / (2.0 * math.pi)) * (math.sin(theta) * (w / nw) + (math.pi - theta) * (v / nv))


def mc_population_loss(W: np.ndarray, config: TeacherStudentConfig,
                       samples: int, seed: int) -> Tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) of the population risk.

    Gaussian inputs in antithetic pairs (x, -x) for variance reduction; the
    per-pair average is an unbiased estimator of the risk.
    """
    gen = rng.make_generator(seed, stream=11)
    V = teacher_matrix(config)
    pairs = samples // 2
    chunk = 65536
    vals: List[np.ndarray] = []
    done = 0
    while done < pairs:
        b = min(chunk, pairs - done)
        X = rng.normal(gen, (b, config.d))
        for Xs in (X, -X):
            student = np.maximum(Xs @ W.T, 0.0).sum(axis=1)
            teacher = np.maximum(Xs @ V.T, 0.0).sum(axis=1)
            vals.append(0.5 * (student - teacher) ** 2)
        done += b
    pair_means = 0.5 * (np.concatenate(vals[0::2]) + np.concatenate(vals[1::2]))
    mean = float(np.mean(pair_means))
    sem = float(np.std(pair_means, ddof=1) / math.sqrt(pair_means.size))
    return mean, sem
