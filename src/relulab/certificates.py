"""Closed-form bounds and their comparison against measured quantities.

Every certificate returns a ``CertificateReport`` carrying the theoretical
value, the measured value, the pass verdict, and the slack.  Bounds whose
probability budget is vacuous are reported as inconclusive rather than
failed: they are probabilistic statements and an invalid budget makes the
comparison meaningless.

Checks that read the networks of a run are observers of the training run
(``GramChecks``, ``MultiGramMin``): ``training.run`` hands them every step,
so they keep no trajectory.

Two similar exponential envelopes appear in the early-stage analysis and are
easy to conflate:

* ``varphi(t, ...)``  = (1/2 + 2 sqrt(log(2n^2/delta)/m)) *
  251001((1+2eta)^{2t} - (1-2eta)^{2t}) / 1000000 — the prediction envelope
  used in the early gradient lower bound;
* ``oracles.phi(t, eta)`` = 251001((1+2eta)^{2t} - (1-2eta)^{2t}) / 1500000 —
  used inside the per-step descent series, whose closed form the acceptance
  tests check (criterion 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .datasets import LabeledDataset
from .losses import LossFamily
from .models import (BinaryNet, MultiNet, Net, _activations, hessian_spectral_norm, param_norm,
                     preactivation)
from .training import EVERY_STEP

__all__ = [
    "TheoryConstants",
    "CertificateReport",
    "verdict",
    "holds",
    "varphi",
    "gram_matrix",
    "MultiGramMin",
    "multi_gram_min_entry",
    "check_block_structure",
    "check_gram_lower_bound",
    "GramChecks",
    "gradient_lower_bound_early",
    "gradient_lower_bound_global",
    "check_hessian_bound",
    "descent_bound_binary",
    "descent_bound_multi",
    "fit_convergence_rate",
    "probability_budget",
    "STOCHASTIC_ALIGNMENT_BOUND",
]

STOCHASTIC_ALIGNMENT_BOUND = 9801.0 / 10000.0


@dataclass(frozen=True)
class TheoryConstants:
    """All scalar inputs the certificates need; no silent defaults."""

    n: int
    d: int
    m: int
    delta: float
    eta: Optional[float] = None
    batch: Optional[int] = None
    gamma1: Optional[float] = None
    gamma2: Optional[float] = None


@dataclass(frozen=True)
class CertificateReport:
    cert_id: str
    theoretical: float
    measured: float
    passed: bool
    slack: float
    inconclusive: bool = False
    context: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "cert_id": self.cert_id,
            "theoretical": self.theoretical,
            "measured": self.measured,
            "passed": bool(self.passed),
            "slack": self.slack,
            "inconclusive": bool(self.inconclusive),
            "context": self.context,
        }


def verdict(report: dict) -> str:
    """PASS, INCONCLUSIVE or FAIL for a report dict; a pass outranks the inconclusive flag."""
    return "PASS" if report["passed"] else ("INCONCLUSIVE" if report.get("inconclusive") else "FAIL")


def holds(report: dict) -> bool:
    """True unless the report failed: an inconclusive report does not fail a run."""
    return verdict(report) != "FAIL"


# ---------------------------------------------------------------------------
# Exponential envelopes
# ---------------------------------------------------------------------------

def varphi(t: float, eta: float, n: int, m: int, delta: float) -> float:
    """Prediction envelope with the width-dependent leading factor."""
    lead = 0.5 + 2.0 * math.sqrt(math.log(2.0 * n * n / delta) / m)
    return lead * 251001.0 * ((1.0 + 2.0 * eta) ** (2 * t) - (1.0 - 2.0 * eta) ** (2 * t)) / 1_000_000.0


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def gram_matrix(net: Net, ds: LabeledDataset, H: Optional[np.ndarray] = None) -> np.ndarray:
    """G_ij = <model gradient at x_i, model gradient at x_j>.

    For the binary network this is the n x n matrix
    sum_k sigma_ik sigma_jk + sum_k a_k^2 D_ik D_jk x_i^T x_j.
    For the multi-output network, the (Cn) x (Cn) block matrix with blocks
    indexed by output channel is returned, laid out as (i*C + alpha).
    ``H`` is the full-data preactivation when the caller already holds it.
    """
    X, _, S, D, _, _ = _activations(net, ds, H=H)
    if isinstance(net, BinaryNet):
        M = D * net.a[None, :]
        return S @ S.T + (M @ M.T) * (X @ X.T)
    # Entry ((i,alpha),(j,beta)) = delta_{alpha beta} sum_k S_ik S_jk
    #   + (x_i^T x_j + 1) sum_k a_{k alpha} a_{k beta} D_ik D_jk, that is
    # kron(S S^T, I_C) + kron(X X^T + 1, 1_{CxC}) * F F^T with
    # F[(i,alpha), k] = D_ik a_{k alpha}.
    n, C = ds.n, net.C
    F = (D[:, None, :] * net.A.T[None, :, :]).reshape(n * C, net.m)
    G = F @ F.T
    G *= np.kron(X @ X.T + 1.0, np.ones((C, C)))
    G += np.kron(S @ S.T, np.eye(C))
    return G


class MultiGramMin:
    """Exact minimum entry of the (Cn) x (Cn) model-gradient Gram matrix at
    each step in ``steps``, appended to ``minima``.

    ``X Xᵀ + 1`` depends on the data only and is formed once per observer.
    For each net a conservative per-pair lower bound
    ``bound_ij = (E Eᵀ)_ij (x_iᵀx_j + 1)`` with ``E_ik = D_ik min_alpha a_{k alpha}``
    is computed; it lies below every entry of the pair's C x C block when the
    output weights and ``X Xᵀ + 1`` are nonnegative (otherwise the dense Gram
    matrix is used).  The search then selects rather than sorts: the pair of
    least bound gives an exact block minimum m0, and only pairs with
    ``bound < m0`` are sorted and visited in order, stopping once a bound
    clears the running minimum.  This is exact: a pair holding an entry
    below m0 has ``bound <= entry < m0`` and so is among the kept pairs.
    """

    def __init__(self, ds: LabeledDataset, steps: range = EVERY_STEP):
        self.ds, self.steps = ds, steps
        self.XX1 = ds.inputs @ ds.inputs.T + 1.0
        self.dense_only = bool(np.any(self.XX1 < 0.0))
        self.minima: List[float] = []

    def step(self, t: int, net: MultiNet, H: np.ndarray, record=None) -> None:
        if t in self.steps:
            self.minima.append(self._min_entry(net, H))

    def _min_entry(self, net: MultiNet, H: np.ndarray) -> float:
        ds, n, XX1 = self.ds, self.ds.n, self.XX1
        amin = net.A.min(axis=1)
        if self.dense_only or np.any(amin < 0.0):
            # Conservative shortcut invalid; fall back to the dense form.
            return float(gram_matrix(net, ds, H).min())
        _, _, S, D, _, _ = _activations(net, ds, H=H)
        A, eye = net.A, np.eye(net.C)

        def block_min(k: int) -> float:
            i, j = divmod(int(k), n)
            block = (A.T * (D[i] * D[j])[None, :]) @ A * XX1[i, j] + eye * (S[i] @ S[j])
            return float(block.min())

        E = D * amin[None, :]
        # Off-diagonal-channel entries have no S-term, so the safe per-pair
        # lower bound ignores it: bound_ij <= min_{alpha,beta} block_{alpha beta}.
        bound = E @ E.T
        bound *= XX1
        bound = bound.ravel()
        k0 = int(np.argmin(bound))
        best = block_min(k0)
        kept = np.flatnonzero(bound < best)
        kept = kept[kept != k0]
        for k in kept[np.argsort(bound[kept])]:
            if bound[k] >= best:
                break
            best = min(best, block_min(k))
        return best


def multi_gram_min_entry(nets: Sequence[MultiNet], ds: LabeledDataset) -> List[float]:
    """``MultiGramMin`` over a list of nets: one minimum entry per net."""
    obs = MultiGramMin(ds)
    for t, net in enumerate(nets):
        obs.step(t, net, preactivation(net, ds.inputs))
    return obs.minima


def check_block_structure(G: np.ndarray, ds: LabeledDataset) -> CertificateReport:
    """Every cross-class entry of the binary Gram matrix must be exactly 0.0."""
    y = ds.labels
    cross = np.outer(y, y) < 0
    bad = np.argwhere(cross & (G != 0.0))
    worst = float(np.max(np.abs(G[cross]))) if np.any(cross) else 0.0
    return CertificateReport(
        cert_id="gram-cross-class-zero",
        theoretical=0.0, measured=worst,
        passed=bad.size == 0, slack=-worst,
        context={} if bad.size == 0 else {"pair": bad[0].tolist()},
    )


def check_gram_lower_bound(G: np.ndarray, ds: LabeledDataset,
                           consts: TheoryConstants) -> CertificateReport:
    """Binary same-class entries: G_ij >= (999/1000) x_i^T x_j ((pi - arccos)/pi - sqrt(8 log(n^2/delta)/m))."""
    x, y = ds.inputs, ds.labels
    gram = np.clip(x @ x.T, -1.0, 1.0)
    tail = math.sqrt(8.0 * math.log(consts.n ** 2 / consts.delta) / consts.m)
    bound = 0.999 * gram * ((np.pi - np.arccos(gram)) / np.pi - tail)
    same = np.outer(y, y) > 0
    slack = (G - bound)[same]
    worst = float(np.min(slack))
    idx = np.argwhere(same)[int(np.argmin(slack))]
    return CertificateReport(
        cert_id="gram-same-class-lower",
        theoretical=float(bound[tuple(idx)]), measured=float(G[tuple(idx)]),
        passed=worst >= 0.0, slack=worst,
        context={"pair": idx.tolist()},
    )


class GramChecks:
    """The binary Gram checks at each step in ``steps``; keeps the worst
    (least-slack, first on a tie) report of each check."""

    def __init__(self, ds: LabeledDataset, consts: TheoryConstants, steps: range = EVERY_STEP):
        self.ds, self.consts, self.steps = ds, consts, steps
        self.block: Optional[CertificateReport] = None
        self.lower: Optional[CertificateReport] = None

    def step(self, t: int, net: BinaryNet, H: np.ndarray, record=None) -> None:
        if t not in self.steps:
            return
        G = gram_matrix(net, self.ds, H)
        block = check_block_structure(G, self.ds)
        lower = check_gram_lower_bound(G, self.ds, self.consts)
        if self.block is None or block.slack < self.block.slack:
            self.block = block
        if self.lower is None or lower.slack < self.lower.slack:
            self.lower = lower

    def reports(self) -> List[CertificateReport]:
        return [r for r in (self.block, self.lower) if r is not None]


# ---------------------------------------------------------------------------
# Gradient bounds
# ---------------------------------------------------------------------------

def gradient_lower_bound_early(t: int, consts: TheoryConstants) -> float:
    """Early-stage squared-gradient lower bound
    (999/1000)(1 - varphi(t))^2 (gamma1 - gamma2 sqrt(8 log(n^2/delta)/m))."""
    v = varphi(t, consts.eta, consts.n, consts.m, consts.delta)
    tail = math.sqrt(8.0 * math.log(consts.n ** 2 / consts.delta) / consts.m)
    return 0.999 * (1.0 - v) ** 2 * (consts.gamma1 - consts.gamma2 * tail)


def gradient_lower_bound_global(loss: float, V: float) -> float:
    """Late-stage bound: squared gradient norm at least V * loss^2."""
    return V * loss * loss


# ---------------------------------------------------------------------------
# Hessian bounds
# ---------------------------------------------------------------------------

def check_hessian_bound(net: Net, ds: LabeledDataset, loss: LossFamily,
                        regime: str, loss_at_point: Optional[float] = None,
                        dense_limit: int = 1200) -> CertificateReport:
    """Spectral norm of the risk Hessian against the regime's closed-form cap.

    Regimes: ``binary_early`` (7/(2m)+2), ``multi_early`` (25/(4m)+2 sqrt 2),
    ``global`` ((norm(theta)^2+1) L), ``input_only`` (L).
    """
    if regime == "binary_early":
        cap = 7.0 / (2.0 * net.m) + 2.0
        layers = "all"
    elif regime == "multi_early":
        cap = 25.0 / (4.0 * net.m) + 2.0 * math.sqrt(2.0)
        layers = "all"
    elif regime == "global":
        if loss_at_point is None:
            raise ValueError("global regime needs the loss value at the point")
        cap = (param_norm(net) ** 2 + 1.0) * loss_at_point
        layers = "all"
    elif regime == "input_only":
        if loss_at_point is None:
            raise ValueError("input-only regime needs the loss value at the point")
        cap = loss_at_point
        layers = "input_only"
    else:
        raise ValueError(f"unknown Hessian regime {regime!r}")
    measured = hessian_spectral_norm(net, ds, loss, trained_layers=layers,
                                     dense_limit=dense_limit)
    return CertificateReport(
        cert_id=f"hessian-{regime}",
        theoretical=cap, measured=measured,
        passed=measured <= cap, slack=cap - measured,
        context={"regime": regime},
    )


# ---------------------------------------------------------------------------
# Descent bounds
# ---------------------------------------------------------------------------

def descent_bound_binary(consts: TheoryConstants) -> float:
    """Early total descent bound 0.193(gamma1 - gamma2 sqrt(8 log(n^2/delta)/m)) - 0.0111."""
    tail = math.sqrt(8.0 * math.log(consts.n ** 2 / consts.delta) / consts.m)
    return 0.193 * (consts.gamma1 - consts.gamma2 * tail) - 0.0111


def descent_bound_multi() -> float:
    """Early total descent bound for the mini-batch multi-output setting."""
    return 0.262533


# ---------------------------------------------------------------------------
# Convergence-rate envelopes
# ---------------------------------------------------------------------------

def fit_convergence_rate(records, kind: str, V: float, c: float) -> CertificateReport:
    """Check the per-step loss envelope of an adaptive-rate run.

    ``kind``: ``poly_stage1`` checks L(t) <= L(1)/t^{Vc/2};
    ``exponential`` checks L(t) <= (1 - Vc/2)^{t-1} L(1).  Also reports the
    least-squares fitted decay for diagnostics.  A run with no record at
    t >= 1 (one that aborted at step 0) is inconclusive.
    """
    if kind not in ("poly_stage1", "exponential"):
        raise ValueError(f"unknown envelope kind {kind!r}")
    rate = V * c / 2.0
    pts = [(r.t, r.loss) for r in records if r.t >= 1]
    if not pts:
        return CertificateReport(f"rate-{kind}", rate, math.nan, False, math.nan, inconclusive=True,
                                 context={"worst_t": None, "fitted_decay": math.nan})
    L1 = dict(pts).get(1)
    if L1 is None:
        raise ValueError("record at t = 1 required")
    worst_slack, worst_t = math.inf, None
    for t, L in pts:
        env = L1 / t ** rate if kind == "poly_stage1" else (1.0 - rate) ** (t - 1) * L1
        slack = env - L
        if slack < worst_slack:
            worst_slack, worst_t = slack, t
    ts = np.array([t for t, L in pts if L > 0], dtype=np.float64)
    Ls = np.array([L for _, L in pts if L > 0], dtype=np.float64)
    if kind == "poly_stage1":
        fit = float(np.polyfit(np.log(ts), np.log(Ls), 1)[0]) if len(ts) > 1 else math.nan
    else:
        fit = float(np.polyfit(ts, np.log(Ls), 1)[0]) if len(ts) > 1 else math.nan
    return CertificateReport(
        cert_id=f"rate-{kind}",
        theoretical=rate, measured=fit,
        passed=worst_slack >= 0.0, slack=worst_slack,
        context={"worst_t": worst_t, "fitted_decay": fit},
    )


# ---------------------------------------------------------------------------
# Probability budgets
# ---------------------------------------------------------------------------

def probability_budget(consts: TheoryConstants, regime: str) -> float:
    """Total failure probability of the regime's event stack.

    ``binary_early``: delta + 2 m e^{-2d};
    ``multi_early``:  delta + 4 m e^{-(d+1)/2} + m 0.17^B.
    """
    if regime == "binary_early":
        return consts.delta + 2.0 * consts.m * math.exp(-2.0 * consts.d)
    if regime == "multi_early":
        if consts.batch is None:
            raise ValueError("multi_early budget needs the batch size")
        return (consts.delta + 4.0 * consts.m * math.exp(-(consts.d + 1) / 2.0)
                + consts.m * 0.17 ** consts.batch)
    raise ValueError(f"unknown budget regime {regime!r}")
