"""Gradient-descent and mini-batch engines with monitoring and hitting times.

Learning-rate schedules:

* ``Constant(eta)`` — fixed step size;
* ``LossInverse(eta0, c)`` — eta0 at step 0, then eta_t = c / L(theta(t));
* ``TwoStagePoly(eta0, c, T0, cprime, r)`` — eta0 at step 0, then
  eta_t = c / (t L) for 1 <= t < T0 and eta_t = cprime / L^{1 - 1/(2r)}
  afterwards.

Batching is either full-batch or i.i.d. uniform with replacement (the
literal mini-batch model).  Every step yields a ``StepRecord``: loss, step
size, full-batch gradient norm, margin extremes, parameter norm, prediction
sup-norm, and whether every output weight kept its initial sign.  Each step
makes one activation pass over the full data (``models.evaluate``), plus one
over the mini-batch under SGD.

Certificates watch the run as observers: ``run`` calls
``observer.step(t, net, H, record)`` on every step, with H the preactivation
of that step's full-data pass, so a check needs no kept trajectory and sees
every step whatever ``record_every`` is.  ``record_every`` thins only the
records kept for ``steps.csv``; the last step reached is always kept.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Union

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .losses import LossFamily
from .models import (
    BinaryNet,
    Net,
    _flatten_struct,
    apply_gradient,
    evaluate,
    grad_loss_struct,
    param_norm,
)

__all__ = [
    "Constant",
    "LossInverse",
    "TwoStagePoly",
    "Full",
    "Stochastic",
    "TrainConfig",
    "StepRecord",
    "RunRecord",
    "Observer",
    "EVERY_STEP",
    "HittingTime",
    "run",
    "tstar",
    "exp_hitting_time_Te",
    "steps_csv",
    "NOT_YET_HIT",
]

NOT_YET_HIT = -1  # sentinel: no violation observed within the run
EVERY_STEP = range(2 ** 63 - 1)   # an observer window without limits

_EARLY_STOP_LOSS = 1e-14
_MAX_ETA0 = 1.0 / (2.0 * math.sqrt(2.0))


@dataclass(frozen=True)
class Constant:
    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    def rate(self, t: int, loss: float) -> float:
        return self.eta


@dataclass(frozen=True)
class LossInverse:
    eta0: float
    c: float

    def __post_init__(self):
        if not (0 < self.c <= 0.5):
            raise ValueError("LossInverse requires c in (0, 1/2]")
        if not (0 < self.eta0 <= _MAX_ETA0):
            raise ValueError("LossInverse requires eta0 in (0, 1/(2*sqrt(2))]")

    def rate(self, t: int, loss: float) -> float:
        return self.eta0 if t == 0 else self.c / loss


@dataclass(frozen=True)
class TwoStagePoly:
    eta0: float
    c: float
    T0: int
    cprime: float
    r: float

    def __post_init__(self):
        cap = 1.0 / (6.0 * (1.0 + 2.0 * self.eta0) ** 2 + 2.0)
        if not (0 < self.c <= cap):
            raise ValueError(f"TwoStagePoly requires c in (0, {cap:.6g}]")
        if self.r < 1:
            raise ValueError("TwoStagePoly requires r >= 1")
        if not (0 < self.eta0 <= _MAX_ETA0):
            raise ValueError("TwoStagePoly requires eta0 in (0, 1/(2*sqrt(2))]")

    def rate(self, t: int, loss: float) -> float:
        if t == 0:
            return self.eta0
        if t < self.T0:
            return self.c / (t * loss)
        return self.cprime / loss ** (1.0 - 1.0 / (2.0 * self.r))


Schedule = Union[Constant, LossInverse, TwoStagePoly]


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Stochastic:
    B: int
    seed: int

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("batch size must be >= 1")


Batching = Union[Full, Stochastic]


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batching: Batching = Full()
    trained_layers: str = "all"       # "all" | "input_only"
    record_every: int = 1             # keep every k-th step record (and the last)

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.trained_layers not in ("all", "input_only"):
            raise ValueError("trained_layers must be 'all' or 'input_only'")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    t: int
    loss: float
    eta: float
    grad_norm: float
    min_margin: float
    max_margin: float
    param_norm: float
    max_abs_pred: float
    a_sign_ok: bool


class Observer(Protocol):
    """Sees every step of a run; each observer ignores the steps outside its window."""

    def step(self, t: int, net: Net, H: np.ndarray, record: StepRecord) -> None: ...


@dataclass
class RunRecord:
    records: List[StepRecord] = field(default_factory=list)
    nets: List[Net] = field(default_factory=list)      # always empty; perfbench/tracing.py reads its length
    batch_alignments: List[float] = field(default_factory=list)  # <full grad, batch grad> per step
    measured_T: int = NOT_YET_HIT
    status: str = "completed"          # completed | converged-exactly | aborted

    def digest(self) -> str:
        return hashlib.sha256(steps_csv(self).encode()).hexdigest()


def _a_sign_ok(net: Net, net0: Net) -> bool:
    if isinstance(net, BinaryNet):
        return bool(np.all(net.a * net0.a > 0.0))
    return bool(np.all(net.A * net0.A > 0.0))


class HittingTime:
    """The hitting-time rule, which ``run`` applies to every step.

    T is the largest t with max_i |f(x_i)| <= 1 and preserved output-weight
    signs for all s <= t+1 (for the multi-output network max_abs_pred is an
    upper envelope of max f_alpha(x_i)).  ``T`` is NOT_YET_HIT when no step
    violates the conditions: the true T is then at least the horizon.
    """

    def __init__(self):
        self.first_violation: Optional[int] = None

    def step(self, t: int, net: Net, H: np.ndarray, record: StepRecord) -> None:
        if self.first_violation is None and (record.max_abs_pred > 1.0 or not record.a_sign_ok):
            self.first_violation = t

    @property
    def T(self) -> int:
        if self.first_violation is None:
            return NOT_YET_HIT
        # Conditions must hold for every s <= t+1, so t+1 must precede the violation.
        return max(self.first_violation - 2, -1)


def run(net0: Net, ds: LabeledDataset, loss: LossFamily, schedule: Schedule,
        config: TrainConfig, observers: Sequence[Observer] = ()) -> RunRecord:
    """Train and record.  Deterministic given (net0, ds, loss, schedule, config).

    Each observer's ``step(t, net, H, record)`` runs on every step whose loss
    is finite, before the parameter update.
    """
    rec = RunRecord()
    net = net0
    batch_gen = None
    if isinstance(config.batching, Stochastic):
        batch_gen = rng.make_generator(config.batching.seed, stream=1)
    hitting = HittingTime()
    last = None          # the record of the last step reached, unless kept

    for t in range(config.steps + 1):
        L, z, f, parts, H = evaluate(net, ds, loss, trained_layers=config.trained_layers)
        if not math.isfinite(L):
            rec.status = f"aborted:non-finite-loss-at-t={t}"
            break
        with np.errstate(over="ignore"):
            # Diverging runs (negative controls) legitimately overflow to inf
            # here; the non-finite guards below handle them.
            gnorm = float(math.sqrt(sum(float(np.sum(p * p)) for p in parts)))
        if isinstance(schedule, Constant) or L > 0.0:
            eta_t = schedule.rate(t, L)
        else:
            eta_t = math.nan
        r = StepRecord(
            t=t, loss=L, eta=eta_t, grad_norm=gnorm,
            min_margin=float(np.min(z)), max_margin=float(np.max(z)),
            param_norm=param_norm(net),
            max_abs_pred=float(np.max(np.abs(f))),
            a_sign_ok=_a_sign_ok(net, net0),
        )
        for observer in (hitting, *observers):
            observer.step(t, net, H, r)
        last = r
        if t % config.record_every == 0:
            rec.records.append(r)
            last = None
        if t == config.steps:
            break
        if L < _EARLY_STOP_LOSS:
            rec.status = "converged-exactly"
            break
        if isinstance(config.batching, Stochastic):
            idx = (batch_gen.random(config.batching.B) * ds.n).astype(np.int64)
            idx = np.minimum(idx, ds.n - 1)
            bparts = grad_loss_struct(net, ds, loss, subset=idx,
                                      trained_layers=config.trained_layers)
            full_flat, bflat = _flatten_struct(parts), _flatten_struct(bparts)
            rec.batch_alignments.append(float(full_flat @ bflat))
            if not np.all(np.isfinite(bflat)):
                rec.status = f"aborted:non-finite-gradient-at-t={t}"
                break
            net = apply_gradient(net, bparts, eta_t)
        else:
            for p in parts:
                if not np.all(np.isfinite(p)):
                    rec.status = f"aborted:non-finite-gradient-at-t={t}"
                    break
            else:
                net = apply_gradient(net, parts, eta_t)
                continue
            break

    if last is not None:
        rec.records.append(last)
    rec.measured_T = hitting.T
    return rec


def tstar(eta: float, variant: str) -> int:
    """Closed-form early-horizon lower bound: floor(log6/(4 eta)) or floor(log4/(4 eta))."""
    if not (0 < eta <= 0.01):
        raise ValueError("eta must lie in (0, 0.01]")
    if variant == "binary":
        return int(math.floor(math.log(6.0) / (4.0 * eta)))
    if variant == "multi":
        return int(math.floor(math.log(4.0) / (4.0 * eta)))
    raise ValueError("variant must be 'binary' or 'multi'")


def exp_hitting_time_Te(eta: float, n: int, m: int, delta: float, variant: str) -> int:
    """Largest t satisfying the closed-form exponential-envelope conditions.

    Binary: (1/2 + 2 sqrt(log(2 n^2/delta)/m)) * 251001((1+2eta)^{2(t+1)} -
    (1-2eta)^{2(t+1)})/1000000 <= 1 and (1+2eta)^{t+1} <= 2 sqrt 2.
    Multi: 251001(...)/1000000 <= 1 and (1+2eta)^{t+1} <= 2.
    """
    if variant == "binary":
        lead = 0.5 + 2.0 * math.sqrt(math.log(2.0 * n * n / delta) / m)
        cap = 2.0 * math.sqrt(2.0)
    elif variant == "multi":
        lead = 1.0
        cap = 2.0
    else:
        raise ValueError("variant must be 'binary' or 'multi'")
    t = -1
    while True:
        # Test membership of candidate t+1; both conditions use exponent (t+1)+1.
        up = (1.0 + 2.0 * eta) ** (t + 2)
        dn = (1.0 - 2.0 * eta) ** (t + 2)
        cond1 = lead * 251001.0 * (up * up - dn * dn) / 1_000_000.0 <= 1.0
        cond2 = up <= cap
        if cond1 and cond2:
            t += 1
        else:
            return t
        if t > 10_000_000:
            raise RuntimeError("exponential hitting time scan did not terminate")


def steps_csv(record: RunRecord) -> str:
    """Render the step records in the canonical CSV layout."""
    buf = io.StringIO()
    buf.write("t,loss,eta,grad_norm,min_margin,max_margin,param_norm,max_abs_pred,a_sign_ok\n")
    for r in record.records:
        buf.write(f"{r.t},{r.loss!r},{r.eta!r},{r.grad_norm!r},{r.min_margin!r},"
                  f"{r.max_margin!r},{r.param_norm!r},{r.max_abs_pred!r},{int(r.a_sign_ok)}\n")
    return buf.getvalue()
