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
certificate.  A run streams its steps.csv through ``training.StepLog`` and
keeps no per-step state.  The scalar kernel, a Monte-Carlo estimate of the
risk, the whole-matrix loss and gradient and a run that keeps every row,
which the tests compare the production forms against, live in ``oracles``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, TextIO, Tuple

import numpy as np

from . import rng
from .certificates import CertificateReport, at_least
from .datasets import exact_sum
from .training import StepLog

__all__ = [
    "TeacherStudentConfig",
    "PrmStep",
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


class PrmStep(NamedTuple):
    """One step of a prm run, a row of its steps.csv."""
    t: int
    loss: float
    sum_norms: float
    min_norm: float
    max_norm: float
    grad_norm: float


_CSV_HEADER = "t,loss,sum_norms,min_norm,max_norm,grad_norm\n"


def _csv_row(r: PrmStep) -> str:
    return f"{r.t},{r.loss!r},{r.sum_norms!r},{r.min_norm!r},{r.max_norm!r},{r.grad_norm!r}\n"


@dataclass
class PrmRunRecord:
    losses: StepLog                  # one row per step; perfbench/tracing.py reads its length
    horizon_loss: float = math.nan   # the loss at t = ceil(T*+1), which the certificate reads
    measured_T: int = -1
    eta_compliant: bool = True
    norm_monotone: bool = True      # |w_k(t)| < |w_k(t+1)| < 2 |w_k(t)| for every t <= T


# ---------------------------------------------------------------------------
# Kernel, loss and gradient
# ---------------------------------------------------------------------------

def _row_norms(A: np.ndarray) -> np.ndarray:
    """The nonzero row norms of A, with the bits of ``np.linalg.norm(A, axis=1)``."""
    n = np.sqrt(np.add.reduce(A * A, axis=1))
    if not n.all():
        raise ValueError("arc-cosine kernel undefined for zero rows")
    return n


def _kernel(G: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """k of the pairs whose inner products are G and whose norm products are nn."""
    cos = np.clip(G / nn, -1.0, 1.0)
    theta = np.arccos(cos)
    return nn * (np.sin(theta) + (np.pi - theta) * cos) / (2.0 * np.pi)


def _kernel_matrix(A: np.ndarray, B: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """k(a_i; b_j) for all row pairs, given the nonzero row norms na, nb."""
    return _kernel(A @ B.T, np.outer(na, nb))


@functools.lru_cache(maxsize=8)
def _pairs(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices of an m x m matrix's diagonal, then of its
    strict upper triangle."""
    i, j = np.triu_indices(m, 1)
    rows, cols = np.concatenate((np.arange(m), i)), np.concatenate((np.arange(m), j))
    for a in (rows, cols):
        a.setflags(write=False)     # every caller shares them
    return rows, cols


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


def population_loss(W: np.ndarray, config: TeacherStudentConfig,
                    nw: Optional[np.ndarray] = None) -> float:
    """Exact population risk of student rows W against the configured teacher.

    ``nw`` holds W's row norms, ``np.linalg.norm(W, axis=1)``, when the
    caller has them.  K_ww is exactly symmetric (numpy forms W Wᵀ as a
    symmetric rank-k update, and the norm products commute), and doubling a
    float is exact, so the correctly rounded sum of its diagonal and its
    doubled strict upper triangle is that of all m² entries: the kernel is
    evaluated on m(m+1)/2 pairs.
    """
    teacher = _teacher(config)
    if nw is None:
        nw = _row_norms(W)
    rows, cols = _pairs(len(nw))
    kww = _kernel((W @ W.T)[rows, cols], nw[rows] * nw[cols])
    kww[len(nw):] *= 2.0
    Kwv = _kernel_matrix(W, teacher.V, nw, teacher.nv)
    return 0.5 * exact_sum(kww) - exact_sum(Kwv) + teacher.half_kvv


def loss_at_origin(config: TeacherStudentConfig) -> float:
    """Population risk of the all-zero student: 1/2 sum_{i,j} k(v_i; v_j)."""
    return _teacher(config).half_kvv


def population_grad(W: np.ndarray, config: TeacherStudentConfig,
                    nw: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact gradient; row k is
    w_k/2 + sum_{j != k} dk(w_k; w_j)/dw - sum_j dk(w_k; v_j)/dw.

    The student-student double sum counts each unordered pair twice, which
    turns the 1/2 prefactor into a full cross-gradient per distinct pair,
    while the self pair contributes w_k/2.  ``nw`` is as in ``population_loss``.
    """
    teacher = _teacher(config)
    nv, Vbar = teacher.nv, teacher.Vbar
    if nw is None:
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


def run_prm_gd(config: TeacherStudentConfig, sink: Optional[TextIO] = None) -> PrmRunRecord:
    """Plain gradient descent on the closed-form population risk.

    Each step's loss, per-neuron norm statistics and gradient norm go, as a
    row of steps.csv, to the record's ``StepLog`` (and to ``sink``, an open
    text file, when given); the student's row norms are taken once per step
    and shared by the loss, the gradient and the row.  The run keeps
    bounded state only: the loss at t = ceil(T*+1), the hitting time
    (largest t with total student norm at t+1 below (d/(pi M))
    sqrt((d-1)/d)) as a running value, and the first step t whose successor
    breaks the per-step norm growth bounds.
    """
    rec = PrmRunRecord(StepLog(sink=sink, header=_CSV_HEADER, row=_csv_row),
                       eta_compliant=config.eta <= max_compliant_eta(config) * (1.0 + 1e-12))
    W = init_prm(config)
    threshold = (config.d / (math.pi * config.M)) * math.sqrt((config.d - 1) / config.d)
    t_eval = math.ceil(prm_tstar_plus_one(config))
    prev = None
    first_bad_growth = None      # first t with |w_k(t)| < |w_k(t+1)| < 2 |w_k(t)| broken
    for t in range(config.steps + 1):
        norms = _row_norms(W)
        L = population_loss(W, config, norms)
        G = population_grad(W, config, norms)
        total = float(norms.sum())
        rec.losses.append(PrmStep(t, L, total, float(norms.min()), float(norms.max()),
                                  float(np.linalg.norm(G))))
        if t == t_eval:
            rec.horizon_loss = L
        if t > 0 and total < threshold:
            rec.measured_T = t - 1      # the successor of t - 1 keeps the total norm below
        if first_bad_growth is None and prev is not None and not (
                np.all(prev < norms) and np.all(norms < 2.0 * prev)):
            first_bad_growth = t - 1
        prev = norms
        if t == config.steps:
            break
        W = W - config.eta * G
    rec.losses.close()
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
    return at_least("prm-two-term-descent", bound, L0 - record.horizon_loss,
                    detail=f"evaluated at step {t_eval}; loss at the zero student {L0!r}")

