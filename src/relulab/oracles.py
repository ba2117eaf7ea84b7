"""Independent numerical oracles and reference implementations used to
validate the analytic code paths.

Nothing in here is used by the training, certificate or command-line
machinery itself; these routines exist so that tests can compare every
closed form against an independent computation (central finite differences,
brute-force summation, dense grids, Monte-Carlo estimation) or against a
plainer formulation (the flat gradient, the scalar arc-cosine kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .losses import LossFamily
from .models import BinaryNet, MultiNet, Net, _flatten_struct, grad_loss_struct, loss_value
from .prm import TeacherStudentConfig, teacher_matrix

__all__ = [
    "fd_gradient",
    "fd_hessian_vector",
    "unflatten_like",
    "loss_of_flat",
    "min_preactivation_gap",
    "grad_loss",
    "phi",
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
    if family.is_quadratic:
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
