"""Closed-form bounds and their comparison against measured quantities.

Every certificate returns a ``CertificateReport`` carrying the theoretical
value, the measured value, the pass verdict, and the slack.  Bounds whose
probability budget is vacuous are reported as inconclusive rather than
failed: they are probabilistic statements and an invalid budget makes the
comparison meaningless.

Checks that read the networks of a run are observers of the training run
(``GramChecks``, ``MultiGramMin``): ``training.run`` hands them every step,
so they keep no trajectory.  So is the rate envelope (``RateEnvelope``),
which reads the step records as they are made.  Each checks every step it
is handed from step 1 on; an early kind's horizon is the
``training.StepWindow`` that wraps them.

The early gradient lower bound reads the prediction envelope
``training.varphi``, the one copy of that envelope and of its width lead; the
hitting time T_e reads it too.  ``oracles.phi`` is the descent-series
reference: the same (1+2eta)^{2t} - (1-2eta)^{2t} gap at 2/3 of the
envelope's scale, without the lead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .datasets import LabeledDataset, concentration_tail
from .losses import LossFamily
from .models import BinaryNet, MultiNet, Net, hessian_spectral_norm, param_norm, preactivation
from .training import varphi

__all__ = [
    "TheoryConstants",
    "CertificateReport",
    "verdict",
    "holds",
    "at_least",
    "at_most",
    "worst_entry",
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
    "RateEnvelope",
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


def at_least(cert_id: str, bound: float, measured: float, inconclusive: bool = False,
             **context) -> CertificateReport:
    """measured >= bound, slack measured - bound.  A met bound > 0 PASSes, a met bound <= 0
    holds trivially (INCONCLUSIVE), a miss FAILs unless ``inconclusive`` (a vacuous budget)."""
    slack = measured - bound
    met = slack >= 0.0
    return CertificateReport(cert_id, bound, measured, met and bound > 0.0, slack,
                             inconclusive or (met and bound <= 0.0), context)


def at_most(cert_id: str, bound: float, measured: float, **context) -> CertificateReport:
    """measured <= bound, slack -(measured - bound): -0.0 for a zero count
    against a zero bound.  PASS when met, else FAIL."""
    slack = -(measured - bound)
    return CertificateReport(cert_id, bound, measured, slack >= 0.0, slack, context=context)


def worst_entry(bound: np.ndarray, measured: np.ndarray) -> int:
    """The entry a lower-bound claim over many entries reports: the least-slack missed one,
    else the least-slack one with a positive bound, else the least-slack one; first on a tie."""
    slack = measured - bound
    for pick in (~(slack >= 0.0), bound > 0.0):
        if pick.any():
            rows = np.flatnonzero(pick)
            return int(rows[np.argmin(slack[rows])])
    return int(np.argmin(slack))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def gram_matrix(net: BinaryNet, ds: LabeledDataset, H: Optional[np.ndarray] = None,
                alive: Optional[np.ndarray] = None) -> np.ndarray:
    """G_ij = <model gradient at x_i, model gradient at x_j> of the binary network,
    the n x n matrix sum_k sigma_ik sigma_jk + sum_k a_k^2 D_ik D_jk x_i^T x_j.

    ``H`` is the full-data preactivation, and ``alive`` its mask H > 0, when
    the caller already holds them.
    """
    X = ds.inputs
    if H is None:
        H = preactivation(net, X)
    if alive is None:
        alive = H > 0.0
    S = np.maximum(H, 0.0)
    M = np.multiply(alive, net.a[None, :])
    return S @ S.T + (M @ M.T) * (X @ X.T)


class MultiGramMin:
    """Exact minimum entry of the (Cn) x (Cn) model-gradient Gram matrix at
    each step from step 1 on, appended to ``minima``: ``minima[k]`` is step
    k + 1's.

    Entry ((i,alpha),(j,beta)) is ``(x_iᵀx_j + 1) sum_k a_{k alpha} a_{k beta}
    D_ik D_jk`` plus ``S_i·S_j`` when alpha = beta.  Every value comes from
    the exact block of one pair (i, j), a C x C product; the (Cn) x (Cn)
    matrix is never formed.  When the output weights and ``X Xᵀ + 1`` are
    nonnegative, every entry of the pair's block is at least the pair bound
    ``bound_ij = (E Eᵀ)_ij (x_iᵀx_j + 1)`` with ``E_ik = D_ik min_alpha a_{k alpha}``.
    Otherwise no pair bound holds, and every pair i <= j is evaluated:
    n(n+1)/2 blocks.  Training reaches no such input: the IDX and CIFAR
    pixels are nonnegative, so ``X Xᵀ + 1 >= 1``, and the output weights start
    positive and only grow (gA <= 0 for a loss with ℓ' <= 0).

    The n x n x m product ``E Eᵀ`` is formed only on the rows that can hold
    the minimum.  With ``w_k = (min_alpha a_{k alpha})²``, the cover
    ``cover_i = sum_k w_k D_ik`` of sample i's active neurons and
    ``W = sum_k w_k``, Bonferroni gives ``(E Eᵀ)_ij >= cover_i + cover_j - W``,
    so every pair bound in row i (j >= i) is at least the row floor

        rho_i = mu_i max(cover_i + min_j cover_j - W, 0),

    where ``mu_i = min_{j>=i} (x_iᵀx_j + 1)`` depends on the data only and is
    formed once per observer.  ``rho`` is rounded down, by ``4 (m+2) eps W``
    inside the max and a factor ``1 - (m+2) eps``, so that it stays below the
    computed bounds whatever the rounding of the sums.  The search:

    1. the pair of least bound in the row of least floor gives an exact
       block minimum, ``best``;
    2. only the rows with ``rho_i < best`` are kept;
    3. the pair bound is formed on the kept rows only, and the block
       minimum of their pair of least bound lowers ``best``;
    4. their pairs with ``bound < best`` are visited in ascending bound
       order, stopping once a bound clears the running minimum.

    This is exact: a pair holding an entry below ``best`` has
    ``rho_i <= bound <= entry < best``, so its row is kept and the pair is
    visited.  Only pairs with i <= j are bounded and visited (the pair
    bound reads inf below the diagonal): ``X Xᵀ + 1`` is exactly
    symmetric (numpy forms ``X @ X.T`` as a symmetric rank-k update), and
    pair (j, i) has the same block as pair (i, j).  With dense activation
    patterns the floor is tight and one row is usually kept; with sparse
    ones it is 0 and every row is scanned.

    ``X Xᵀ + 1`` is held once, as its upper triangle packed row by row in
    n(n+1)/2 doubles: row i's entries j >= i start at ``row_start[i]``.  Its
    construction peaks at about 1.5 n² doubles (the full product and the
    triangle), and every packed entry keeps the bits of the full product.
    """

    def __init__(self, ds: LabeledDataset):
        self.ds = ds
        n = ds.n
        XX1 = ds.inputs @ ds.inputs.T
        XX1 += 1.0
        start = np.concatenate(([0], np.cumsum(np.arange(n, 0, -1))))
        packed = np.empty(start[-1])
        for i in range(n):
            packed[start[i]:start[i + 1]] = XX1[i, i:]
        del XX1
        self.packed, self.row_start = packed, start
        self.row_xx1_min = np.minimum.reduceat(packed, start[:-1])
        self.minima: List[float] = []

    def step(self, t: int, net: MultiNet, H: np.ndarray, alive: np.ndarray, record=None) -> None:
        if t >= 1:
            self.minima.append(self._min_entry(net, H, alive))

    def _xx1(self, i: int, j: int) -> float:
        """Entry (i, j) of ``X Xᵀ + 1``."""
        i, j = min(i, j), max(i, j)
        return self.packed[self.row_start[i] + j - i]

    def _pair_bound(self, E: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``bound_ij`` on ``rows`` x every column, with inf below the diagonal
        (j < i): each row is scaled by its slice of the packed triangle.  All n
        rows use ``E @ E.T``, which numpy forms as a symmetric rank-k update."""
        packed, start = self.packed, self.row_start
        bound = E @ E.T if rows.size == self.ds.n else E[rows] @ E.T
        for r, i in enumerate(rows.tolist()):
            bound[r, :i] = np.inf
            bound[r, i:] *= packed[start[i]:start[i + 1]]
        return bound

    def _min_entry(self, net: MultiNet, H: np.ndarray, D: np.ndarray) -> float:
        n = self.ds.n
        A, eye = net.A, np.eye(net.C)

        def block_min(i: int, j: int) -> float:
            Si, Sj = np.maximum(H[i], 0.0), np.maximum(H[j], 0.0)
            block = (A.T * (D[i] * D[j])[None, :]) @ A * self._xx1(i, j) + eye * (Si @ Sj)
            return float(block.min())

        amin = A.min(axis=1)
        if np.any(amin < 0.0) or np.any(self.row_xx1_min < 0.0):
            return min(block_min(i, j) for i in range(n) for j in range(i, n))
        # A float copy of the mask, scaled in place: numpy's mixed
        # bool-float product takes its slower, buffered loop.
        E = D.astype(np.float64)
        E *= amin
        cover, W = E @ amin, float(amin @ amin)
        rel = (net.m + 2) * np.finfo(np.float64).eps
        rho = self.row_xx1_min * np.maximum(cover + (cover.min() - W - 4.0 * rel * W), 0.0)
        rho *= 1.0 - rel
        i0 = int(np.argmin(rho))
        row = self._pair_bound(E, np.array([i0]))[0]
        best = block_min(i0, int(np.argmin(row)))
        # A row is dropped only once its floor is known to clear best.
        rows = np.flatnonzero(~(rho >= best))
        if rows.size == 0:
            return best
        bound = self._pair_bound(E, rows).ravel()
        k0 = int(np.argmin(bound))
        best = min(best, block_min(rows[k0 // n], k0 % n))
        kept = np.flatnonzero(bound < best)
        kept = kept[kept != k0]
        i, j = rows[kept // n], kept % n
        for k in np.argsort(bound[kept]):
            if bound[kept[k]] >= best:
                break
            best = min(best, block_min(i[k], j[k]))
        return best


def multi_gram_min_entry(nets: Sequence[MultiNet], ds: LabeledDataset) -> List[float]:
    """``MultiGramMin`` over a list of nets: one minimum entry per net."""
    obs = MultiGramMin(ds)
    for t, net in enumerate(nets, 1):
        H = preactivation(net, ds.inputs)
        obs.step(t, net, H, H > 0.0)
    return obs.minima


def check_block_structure(G: np.ndarray, ds: LabeledDataset) -> CertificateReport:
    """Every cross-class entry of the binary Gram matrix must be exactly 0.0."""
    y = ds.labels
    cross = np.outer(y, y) < 0
    bad = np.argwhere(cross & (G != 0.0))
    worst = float(np.max(np.abs(G[cross]))) if np.any(cross) else 0.0
    return at_most("gram-cross-class-zero", 0.0, worst,
                   **({"pair": bad[0].tolist()} if bad.size else {}))


def check_gram_lower_bound(G: np.ndarray, ds: LabeledDataset,
                           consts: TheoryConstants) -> CertificateReport:
    """Binary same-class entries: G_ij >= (999/1000) x_i^T x_j ((pi - arccos)/pi - sqrt(8 log(n^2/delta)/m)).

    Reports the pair that ``worst_entry`` picks among the same-class pairs."""
    x, y = ds.inputs, ds.labels
    gram = np.clip(x @ x.T, -1.0, 1.0)
    tail = concentration_tail(consts.n, consts.m, consts.delta)
    bound = 0.999 * gram * ((np.pi - np.arccos(gram)) / np.pi - tail)
    same = np.outer(y, y) > 0
    idx = tuple(np.argwhere(same)[worst_entry(bound[same], G[same])].tolist())
    return at_least("gram-same-class-lower", float(bound[idx]), float(G[idx]), pair=list(idx))


class GramChecks:
    """The binary Gram checks at each step from step 1 on; keeps the worst
    (least-slack, first on a tie) report of each check, with its step as
    ``context["t"]``."""

    def __init__(self, ds: LabeledDataset, consts: TheoryConstants):
        self.ds, self.consts = ds, consts
        self.block: Optional[CertificateReport] = None
        self.lower: Optional[CertificateReport] = None

    def step(self, t: int, net: BinaryNet, H: np.ndarray, alive: np.ndarray, record=None) -> None:
        if t < 1:
            return
        G = gram_matrix(net, self.ds, H, alive)
        block = check_block_structure(G, self.ds)
        lower = check_gram_lower_bound(G, self.ds, self.consts)
        block.context["t"] = lower.context["t"] = t
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
    tail = concentration_tail(consts.n, consts.m, consts.delta)
    return 0.999 * (1.0 - v) ** 2 * (consts.gamma1 - consts.gamma2 * tail)


def gradient_lower_bound_global(loss: float, V: float) -> float:
    """Late-stage bound: squared gradient norm at least V * loss^2."""
    return V * loss * loss


# ---------------------------------------------------------------------------
# Hessian bounds
# ---------------------------------------------------------------------------

def check_hessian_bound(net: Net, ds: LabeledDataset, loss: LossFamily,
                        regime: str, loss_at_point: Optional[float] = None) -> CertificateReport:
    """Spectral norm of the risk Hessian against the regime's closed-form cap.

    Regimes: ``binary_early`` (7/(2m)+2), ``multi_early`` (25/(4m)+2 sqrt 2),
    ``global`` ((norm(theta)^2+1) L), ``input_only`` (L).
    """
    if regime == "binary_early":
        cap = 7.0 / (2.0 * net.m) + 2.0
    elif regime == "multi_early":
        cap = 25.0 / (4.0 * net.m) + 2.0 * math.sqrt(2.0)
    elif regime == "global":
        if loss_at_point is None:
            raise ValueError("global regime needs the loss value at the point")
        cap = (param_norm(net) ** 2 + 1.0) * loss_at_point
    elif regime == "input_only":
        if loss_at_point is None:
            raise ValueError("input-only regime needs the loss value at the point")
        cap = loss_at_point
    else:
        raise ValueError(f"unknown Hessian regime {regime!r}")
    # The input-only cap bounds the input-layer block: the Hessian of the layers trained.
    measured = hessian_spectral_norm(net, ds, loss, trained_layers="input_only"
                                     if regime == "input_only" else "all")
    return at_most(f"hessian-{regime}", cap, measured, regime=regime)


# ---------------------------------------------------------------------------
# Descent bounds
# ---------------------------------------------------------------------------

def descent_bound_binary(consts: TheoryConstants) -> float:
    """Early total descent bound 0.193(gamma1 - gamma2 sqrt(8 log(n^2/delta)/m)) - 0.0111."""
    tail = concentration_tail(consts.n, consts.m, consts.delta)
    return 0.193 * (consts.gamma1 - consts.gamma2 * tail) - 0.0111


def descent_bound_multi() -> float:
    """Early total descent bound for the mini-batch multi-output setting."""
    return 0.262533


# ---------------------------------------------------------------------------
# Convergence-rate envelopes
# ---------------------------------------------------------------------------

class RateEnvelope:
    """Observer: the per-step loss envelope of an adaptive-rate run.

    ``kind``: ``poly_stage1`` checks L(t) <= L(1)/t^{Vc/2};
    ``exponential`` checks L(t) <= (1 - Vc/2)^{t-1} L(1).  From t = 1 on,
    each step is one comparison against the envelope through L(1), and the
    worst slack keeps its first step.  Each step with L > 0 also updates
    Welford's count, means and co-moments sum dx², sum dx·dy of x = log t
    (``poly_stage1``) or t (``exponential``) and y = log L: the fit's state.
    """

    def __init__(self, kind: str, V: float, c: float):
        if kind not in ("poly_stage1", "exponential"):
            raise ValueError(f"unknown envelope kind {kind!r}")
        self.kind, self.rate = kind, V * c / 2.0
        self.L1: Optional[float] = None
        self.worst_slack, self.worst_t = math.inf, None
        self.count, self.mean_x, self.mean_y, self.sxx, self.sxy = 0, 0.0, 0.0, 0.0, 0.0

    def step(self, t, net, H, alive, record) -> None:
        if t < 1:
            return
        L = record.loss
        if t == 1:
            self.L1 = L
        elif self.L1 is None:
            raise ValueError("record at t = 1 required")
        env = self.L1 / t ** self.rate if self.kind == "poly_stage1" else \
            (1.0 - self.rate) ** (t - 1) * self.L1
        slack = env - L
        if slack < self.worst_slack:
            self.worst_slack, self.worst_t = slack, t
        if L > 0.0:
            x, y = (math.log(t) if self.kind == "poly_stage1" else t), math.log(L)
            self.count += 1
            dx = x - self.mean_x
            self.mean_x += dx / self.count
            self.mean_y += (y - self.mean_y) / self.count
            self.sxx += dx * (x - self.mean_x)
            self.sxy += dx * (y - self.mean_y)


def fit_convergence_rate(envelope: RateEnvelope) -> CertificateReport:
    """The rate-<kind> report: its worst slack, and the slope of log L on x (NaN below two points)."""
    if envelope.L1 is None:
        raise ValueError("record at t = 1 required")
    fit = envelope.sxy / envelope.sxx if envelope.count > 1 else math.nan
    slack = envelope.worst_slack
    return CertificateReport(f"rate-{envelope.kind}", envelope.rate, fit, slack >= 0.0, slack,
                             context={"worst_t": envelope.worst_t, "fitted_decay": fit})


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
