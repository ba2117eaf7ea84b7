"""Teacher-student population-risk minimization with the arc-cosine kernel.

The population squared error of a ReLU student against a fixed ReLU teacher
under standard Gaussian inputs has the closed form

    L(W) = 1/2 sum_{i,j} k(w_i; w_j) - sum_{i,j} k(w_i; v_j) + 1/2 sum_{i,j} k(v_i; v_j)

where k(w; v) = (1/2pi) |w| |v| (sin theta + (pi - theta) cos theta) equals
E[sigma(w^T x) sigma(v^T x)] for x ~ N(0, I).  Teachers are the scaled basis
vectors v_i = e_i / M.  The double sums are correctly rounded (the same
bits as ``math.fsum``) and computed by ExtractVector in
``datasets.exact_sum`` (Rump, Ogita and Oishi, "Accurate floating-point
summation part I", SIAM J. Sci. Comput. 31(1), 2008).  The module provides
the exact loss and gradient, plain gradient descent under the compliant
step-size cap, hitting-time measurement and the final two-term descent
certificate.  The scalar kernel and a Monte-Carlo estimate of the risk,
which the tests compare the closed forms against, live in ``oracles``.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

from . import rng
from .certificates import CertificateReport, at_least
from .datasets import exact_sum

__all__ = [
    "TeacherStudentConfig",
    "PrmRunRecord",
    "teacher_matrix",
    "population_loss",
    "population_grad",
    "loss_at_origin",
    "init_prm",
    "max_compliant_eta",
    "prm_tstar_plus_one",
    "run_prm_gd",
    "descent_bound_two_term",
    "prm_descent_certificate",
    "prm_csv",
]


@dataclass(frozen=True)
class TeacherStudentConfig:
    d: int
    m: int
    M: int
    kappa: float
    eta: float
    seed: int
    steps: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.m < 1 or self.M < 1:
            raise ValueError("m and M must be >= 1")
        if not (0 < self.kappa <= 1):
            raise ValueError("kappa must lie in (0, 1]")
        if self.eta <= 0 or self.steps < 0:
            raise ValueError("eta must be positive and steps nonnegative")

    @property
    def extension_mode(self) -> bool:
        """True when M > d: extra teachers are placed randomly (uncertified)."""
        return self.M > self.d


@dataclass
class PrmRunRecord:
    losses: List[float] = field(default_factory=list)
    sum_norms: List[float] = field(default_factory=list)
    min_norms: List[float] = field(default_factory=list)
    max_norms: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    measured_T: int = -1
    eta_compliant: bool = True
    norm_monotone: bool = True      # |w_k(t)| < |w_k(t+1)| < 2 |w_k(t)| for every t <= T


# ---------------------------------------------------------------------------
# Kernel, loss and gradient
# ---------------------------------------------------------------------------

def _row_norms(A: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(A, axis=1)
    if np.any(n == 0.0):
        raise ValueError("arc-cosine kernel undefined for zero rows")
    return n


def _kernel_matrix(A: np.ndarray, B: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """k(a_i; b_j) for all row pairs, given the nonzero row norms na, nb."""
    nn = np.outer(na, nb)
    cos = np.clip((A @ B.T) / nn, -1.0, 1.0)
    theta = np.arccos(cos)
    return nn * (np.sin(theta) + (np.pi - theta) * cos) / (2.0 * np.pi)


def teacher_matrix(config: TeacherStudentConfig) -> np.ndarray:
    """Teacher rows e_i / M for i < d; extras uniform on the (1/M)-sphere (extension mode).

    Reads only ``d``, ``M`` and ``seed``, and builds a fresh array on every call.
    """
    V = np.zeros((config.M, config.d))
    base = min(config.M, config.d)
    V[:base] = np.eye(config.d)[:base] / config.M
    if config.M > config.d:
        gen = rng.make_generator(config.seed, stream=7)
        V[config.d:] = rng.unit_sphere(gen, config.M - config.d, config.d) / config.M
    return V


class _TeacherKey(NamedTuple):
    """The config fields ``teacher_matrix`` reads.  ``_teacher_terms`` builds the
    teacher from the key itself, so a field read but missing here raises."""
    d: int
    M: int
    seed: int


class _Teacher(NamedTuple):
    V: np.ndarray            # teacher rows (M, d)
    nv: np.ndarray           # their norms
    Vbar: np.ndarray         # unit rows V / nv
    half_kvv: float          # 1/2 sum_{i,j} k(v_i; v_j), the loss at the zero student


@functools.lru_cache(maxsize=8)
def _teacher_terms(key: _TeacherKey) -> _Teacher:
    V = teacher_matrix(key)
    nv = _row_norms(V)
    Vbar = V / nv[:, None]
    half_kvv = 0.5 * exact_sum(_kernel_matrix(V, V, nv, nv))
    for a in (V, nv, Vbar):
        a.setflags(write=False)     # every caller shares them
    return _Teacher(V, nv, Vbar, half_kvv)


def _teacher(config: TeacherStudentConfig) -> _Teacher:
    """The teacher-side terms of the loss and gradient, computed once per (d, M, seed)."""
    return _teacher_terms(_TeacherKey(config.d, config.M, config.seed))


def population_loss(W: np.ndarray, config: TeacherStudentConfig) -> float:
    """Exact population risk of student rows W against the configured teacher."""
    teacher = _teacher(config)
    nw = _row_norms(W)
    Kww = _kernel_matrix(W, W, nw, nw)
    Kwv = _kernel_matrix(W, teacher.V, nw, teacher.nv)
    return 0.5 * exact_sum(Kww) - exact_sum(Kwv) + teacher.half_kvv


def loss_at_origin(config: TeacherStudentConfig) -> float:
    """Population risk of the all-zero student: 1/2 sum_{i,j} k(v_i; v_j)."""
    return _teacher(config).half_kvv


def population_grad(W: np.ndarray, config: TeacherStudentConfig) -> np.ndarray:
    """Exact gradient; row k is
    w_k/2 + sum_{j != k} dk(w_k; w_j)/dw - sum_j dk(w_k; v_j)/dw.

    The student-student double sum counts each unordered pair twice, which
    turns the 1/2 prefactor into a full cross-gradient per distinct pair,
    while the self pair contributes w_k/2.
    """
    teacher = _teacher(config)
    nv, Vbar = teacher.nv, teacher.Vbar
    nw = _row_norms(W)
    Wbar = W / nw[:, None]

    cos_ww = np.clip((Wbar @ Wbar.T), -1.0, 1.0)
    th_ww = np.arccos(cos_ww)
    cos_wv = np.clip((Wbar @ Vbar.T), -1.0, 1.0)
    th_wv = np.arccos(cos_wv)

    # Student-student cross terms (j != k): (1/2pi)(|w_j| sin th) w_bar_k + (1/2pi)(pi - th) w_j.
    sin_ww = np.sin(th_ww)
    np.fill_diagonal(sin_ww, 0.0)
    coef_dir = (sin_ww @ nw) / (2.0 * np.pi)               # multiplies w_bar_k
    pi_minus = (np.pi - th_ww) / (2.0 * np.pi)
    np.fill_diagonal(pi_minus, 0.0)
    G = coef_dir[:, None] * Wbar + (pi_minus * nw[None, :]) @ Wbar
    # Self pair.
    G += 0.5 * W
    # Teacher cross terms, subtracted.
    coef_dir_v = (np.sin(th_wv) @ nv) / (2.0 * np.pi)
    pi_minus_v = (np.pi - th_wv) / (2.0 * np.pi)
    G -= coef_dir_v[:, None] * Wbar + (pi_minus_v * nv[None, :]) @ Vbar
    return G


# ---------------------------------------------------------------------------
# Initialization and schedule constants
# ---------------------------------------------------------------------------

def _init_radius(config: TeacherStudentConfig) -> float:
    return (config.d * config.kappa / (config.m * config.M)) * math.sqrt((config.d - 1) / config.d)


def init_prm(config: TeacherStudentConfig) -> np.ndarray:
    """Student rows W (m, d) uniform on the sphere of radius (d kappa / (m M)) sqrt((d-1)/d)."""
    gen = rng.make_generator(config.seed, stream=0)
    dirs = rng.unit_sphere(gen, config.m, config.d)
    return dirs * _init_radius(config)


def max_compliant_eta(config: TeacherStudentConfig) -> float:
    """Largest certified step size: the minimum of the speed cap and the inverse curvature cap."""
    d, m, M, kappa = config.d, config.m, config.M, config.kappa
    root = math.sqrt((d - 1) / d)
    speed_cap = (2.0 * math.pi * d * kappa * root) / (
        (math.pi + 1.0) * m * M * (1.0 + (d / (math.pi * M)) * root))
    curvature = (0.5
                 + m * (m - 1) * ((kappa + (1.0 / math.pi - kappa) * root) / (2.0 * math.pi * kappa) + 0.5)
                 + m * m * M / (2.0 * math.pi * d * kappa))
    return min(speed_cap, 1.0 / curvature)


def prm_tstar_plus_one(config: TeacherStudentConfig) -> float:
    """Closed-form horizon T* + 1 = 2 d sqrt((d-1)/d) (1 - pi kappa) /
    ((pi+1) eta m M (1 + (d/(pi M)) sqrt((d-1)/d)))."""
    d, m, M, kappa, eta = config.d, config.m, config.M, config.kappa, config.eta
    root = math.sqrt((d - 1) / d)
    return (2.0 * d * root * (1.0 - math.pi * kappa)) / (
        (math.pi + 1.0) * eta * m * M * (1.0 + (d / (math.pi * M)) * root))


def run_prm_gd(config: TeacherStudentConfig) -> PrmRunRecord:
    """Plain gradient descent on the closed-form population risk.

    Records loss, per-neuron norm statistics, and gradient norm at every
    step; measures the hitting time (largest t with total student norm at
    t+1 below (d/(pi M)) sqrt((d-1)/d)) and per-step norm growth bounds.
    Growth is checked step by step, so no student is kept: the run notes
    the first step t whose successor breaks it.
    """
    rec = PrmRunRecord(eta_compliant=config.eta <= max_compliant_eta(config) * (1.0 + 1e-12))
    W = init_prm(config)
    threshold = (config.d / (math.pi * config.M)) * math.sqrt((config.d - 1) / config.d)
    prev = None
    first_bad_growth = None      # first t with |w_k(t)| < |w_k(t+1)| < 2 |w_k(t)| broken
    for t in range(config.steps + 1):
        L = population_loss(W, config)
        G = population_grad(W, config)
        norms = np.linalg.norm(W, axis=1)
        rec.losses.append(L)
        rec.sum_norms.append(float(norms.sum()))
        rec.min_norms.append(float(norms.min()))
        rec.max_norms.append(float(norms.max()))
        rec.grad_norms.append(float(np.linalg.norm(G)))
        if first_bad_growth is None and prev is not None and not (
                np.all(prev < norms) and np.all(norms < 2.0 * prev)):
            first_bad_growth = t - 1
        prev = norms
        if t == config.steps:
            break
        W = W - config.eta * G
    # Hitting time: largest recorded t whose successor keeps the total norm below threshold.
    rec.measured_T = -1
    for t in range(len(rec.sum_norms) - 1):
        if rec.sum_norms[t + 1] < threshold:
            rec.measured_T = t
    # Norm growth must hold along the certified horizon t <= T.
    rec.norm_monotone = first_bad_growth is None or first_bad_growth > rec.measured_T
    return rec


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def descent_bound_two_term(config: TeacherStudentConfig) -> float:
    """Explicit lower bound on L(0) - L(theta(T*+1)):

    kappa(1 - pi kappa)/(4 pi) ((d-1)/d) (d/M)^2
    + (1 - pi kappa)^3 / (8 (pi+1) pi^2 (1 + d/(pi M sqrt((d-1)/d)))) ((d-1)/d)^{3/2} (d/M)^3.
    """
    d, M, kappa = config.d, config.M, config.kappa
    root = math.sqrt((d - 1) / d)
    term1 = kappa * (1.0 - math.pi * kappa) / (4.0 * math.pi) * root ** 2 * (d / M) ** 2
    term2 = ((1.0 - math.pi * kappa) ** 3
             / (8.0 * (math.pi + 1.0) * math.pi ** 2 * (1.0 + d / (math.pi * M * root)))
             * root ** 3 * (d / M) ** 3)
    return term1 + term2


def prm_descent_certificate(config: TeacherStudentConfig,
                            record: PrmRunRecord) -> CertificateReport:
    """Compare measured descent over the closed-form horizon against the two-term bound.

    INCONCLUSIVE, with NaN measured and slack, when the horizon is empty
    (T*+1 <= 0, at kappa >= 1/pi) or the run recorded too few steps."""
    horizon = prm_tstar_plus_one(config)
    t_eval = math.ceil(horizon)
    bound = descent_bound_two_term(config)
    if t_eval <= 0 or len(record.losses) <= t_eval:
        detail = (f"empty horizon: T*+1 = {horizon!r} <= 0" if t_eval <= 0 else
                  f"horizon too short: need {t_eval + 1} recorded steps")
        return CertificateReport("prm-two-term-descent", bound, math.nan, False, math.nan,
                                 inconclusive=True, context={"detail": detail})
    L0 = loss_at_origin(config)
    return at_least("prm-two-term-descent", bound, L0 - record.losses[t_eval],
                    detail=f"evaluated at step {t_eval}; loss at the zero student {L0!r}")


def prm_csv(record: PrmRunRecord) -> str:
    """Render the run trace in the canonical CSV layout."""
    buf = io.StringIO()
    buf.write("t,loss,sum_norms,min_norm,max_norm,grad_norm\n")
    for t in range(len(record.losses)):
        buf.write(f"{t},{record.losses[t]!r},{record.sum_norms[t]!r},"
                  f"{record.min_norms[t]!r},{record.max_norms[t]!r},{record.grad_norms[t]!r}\n")
    return buf.getvalue()
