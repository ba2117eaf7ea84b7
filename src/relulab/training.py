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

A run keeps no per-step object beyond its step, but for what a reader keeps
of a window fixed before training.  Each ``StepRecord`` goes, as it is
made, to the observers and to the run's ``StepLog``, and is then dropped.  The log renders steps.csv row by row (the steps with
t % every == 0, and at the end the last step reached when it has no row
yet) into an open file, if it is given one, and into a running SHA-256; of
the records it keeps only the first and the last.  Whatever reads the
records is an online reducer with bounded state: the hitting time keeps the
first violation (``HittingTime``), a reader of a window fixed before
training keeps that window (``StepWindow``), and the certificates' reducers
live beside their checks.  Checks that need the network watch the run as
observers too: ``run`` calls ``observer.step(t, net, H, alive, record)`` on
every step, with H the preactivation of that step's full-data pass and
alive = [H > 0] the activity mask that pass formed, so they need no kept
trajectory and form no mask of their own.  An observer may keep what it is
handed (the networks, H, alive and the records are never written to after
the call), but it receives no float array of the pass beyond H: S = relu(H)
dies with the pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, TextIO, Tuple, Union

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .losses import LossFamily
from .models import (
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
    "StepLog",
    "StepWindow",
    "HittingTime",
    "run",
    "tstar",
    "varphi",
    "exp_hitting_time_Te",
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

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.trained_layers not in ("all", "input_only"):
            raise ValueError("trained_layers must be 'all' or 'input_only'")


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

    def step(self, t: int, net: Net, H: np.ndarray, alive: np.ndarray,
             record: StepRecord) -> None: ...


_HEADER = "t,loss,eta,grad_norm,min_margin,max_margin,param_norm,max_abs_pred,a_sign_ok\n"


def _row(r: StepRecord) -> str:
    return (f"{r.t},{r.loss!r},{r.eta!r},{r.grad_norm!r},{r.min_margin!r},"
            f"{r.max_margin!r},{r.param_norm!r},{r.max_abs_pred!r},{int(r.a_sign_ok)}\n")


class StepLog:
    """A run's step records as a stream, in the canonical steps.csv layout.

    ``append`` takes each record once, in step order, and writes its row
    when t % every == 0; ``close`` writes the row of the last record when it
    has none, so the last step reached is always a row.  Every row goes to
    ``sink`` (an open text file, or nowhere) and into a running SHA-256 of
    the CSV.  Of the records the log keeps the first and the last; ``len``
    is the number appended.
    """

    def __init__(self, every: int = 1, sink: Optional[TextIO] = None):
        self.every, self.sink = every, sink
        self.first: Optional[StepRecord] = None
        self.last: Optional[StepRecord] = None
        self._count = 0
        self._pending = False      # the last record has no row yet
        self._sha = hashlib.sha256()
        self._emit(_HEADER)

    def _emit(self, text: str) -> None:
        self._sha.update(text.encode())
        if self.sink is not None:
            self.sink.write(text)

    def append(self, r: StepRecord) -> None:
        if self.first is None:
            self.first = r
        self.last = r
        self._count += 1
        self._pending = r.t % self.every != 0
        if not self._pending:
            self._emit(_row(r))

    def close(self) -> None:
        if self._pending:
            self._emit(_row(self.last))
            self._pending = False

    def digest(self) -> str:
        """Hex SHA-256 of the CSV written so far."""
        return self._sha.hexdigest()

    def __len__(self) -> int:
        return self._count


class StepWindow:
    """Observer that keeps the records of the steps in ``window``, a range
    fixed before training, and nothing beyond them."""

    def __init__(self, window: range = EVERY_STEP):
        self.window = window
        self.records: List[StepRecord] = []

    def step(self, t, net, H, alive, record: StepRecord) -> None:
        if t in self.window:
            self.records.append(record)


class HittingTime:
    """The hitting time of the records it is shown, in step order.

    T is the largest t with max_i |f(x_i)| <= 1 and preserved output-weight
    signs for all s <= t+1 (for the multi-output network max_abs_pred is an
    upper envelope of max f_alpha(x_i)).  The reducer keeps only the first
    violating step: T is NOT_YET_HIT, and ``first`` None, while no step
    violates the conditions (the true T is then at least the horizon).
    """

    def __init__(self):
        self.first: Optional[int] = None

    def step(self, t, net, H, alive, record: StepRecord) -> None:
        if self.first is None and (record.max_abs_pred > 1.0 or not record.a_sign_ok):
            self.first = t

    @property
    def T(self) -> int:
        # Conditions must hold for every s <= t+1, so t+1 must precede the violation.
        return NOT_YET_HIT if self.first is None else max(self.first - 2, -1)


@dataclass
class RunRecord:
    records: StepLog = field(default_factory=StepLog)   # perfbench/tracing.py reads its length
    nets: List[Net] = field(default_factory=list)      # always empty; perfbench/tracing.py reads its length
    min_batch_alignment: Optional[float] = None   # least <full grad, batch grad> over the steps
    measured_T: int = NOT_YET_HIT
    first_violation: Optional[int] = None   # HittingTime.first; T is NOT_YET_HIT also for one at t <= 1
    status: str = "completed"          # completed | converged-exactly | aborted


def _extremes(z: np.ndarray, f: np.ndarray) -> Tuple[float, float, float]:
    """(min z, max z, max |f|) with the bits of ``float(np.min(z))``,
    ``float(np.max(z))`` and ``float(np.max(np.abs(f)))``: the same ufunc
    reductions, called without ``np.min``'s dispatch.  numpy picks between
    tied signed zeros by position, so Python's ``min`` on ``z.tolist()``
    would not do."""
    return float(z.min()), float(z.max()), float(np.abs(f).max())


def run(net0: Net, ds: LabeledDataset, loss: LossFamily, schedule: Schedule,
        config: TrainConfig, observers: Sequence[Observer] = (),
        log: Optional[StepLog] = None) -> RunRecord:
    """Train and record.  Deterministic given (net0, ds, loss, schedule, config).

    Every step whose loss is finite gets a record, and each observer's
    ``step(t, net, H, alive, record)`` runs on it, before the parameter update;
    then the record goes to ``log`` (a fresh ``StepLog`` by default), which
    ``run`` closes before it returns, whether the run completed or stopped.
    """
    rec = RunRecord(records=StepLog() if log is None else log)
    hit = HittingTime()
    net = net0
    a0 = net0.output_weights
    batch_gen = None
    if isinstance(config.batching, Stochastic):
        batch_gen = rng.make_generator(config.batching.seed, stream=1)

    for t in range(config.steps + 1):
        L, z, f, parts, H, alive = evaluate(net, ds, loss, trained_layers=config.trained_layers)
        if not math.isfinite(L):
            rec.status = f"aborted:non-finite-loss-at-t={t}"
            break
        with np.errstate(over="ignore"):
            # Diverging runs (negative controls) legitimately overflow to inf
            # here; the non-finite guards below handle them.
            gnorm = math.sqrt(sum([float(np.add.reduce(p * p, axis=None)) for p in parts]))
        if isinstance(schedule, Constant) or L > 0.0:
            eta_t = schedule.rate(t, L)
        else:
            eta_t = math.nan
        min_margin, max_margin, max_abs_pred = _extremes(z, f)
        r = StepRecord(
            t=t, loss=L, eta=eta_t, grad_norm=gnorm,
            min_margin=min_margin, max_margin=max_margin,
            param_norm=param_norm(net), max_abs_pred=max_abs_pred,
            a_sign_ok=bool((net.output_weights * a0 > 0.0).all()),
        )
        for observer in observers:
            observer.step(t, net, H, alive, r)
        hit.step(t, net, H, alive, r)
        rec.records.append(r)
        if t == config.steps:
            break
        if L < _EARLY_STOP_LOSS:
            rec.status = "converged-exactly"
            break
        step = parts
        if batch_gen is not None:
            idx = (batch_gen.random(config.batching.B) * ds.n).astype(np.int64)
            idx = np.minimum(idx, ds.n - 1)
            step = grad_loss_struct(net, ds, loss, subset=idx,
                                    trained_layers=config.trained_layers)
            alignment = float(_flatten_struct(parts) @ _flatten_struct(step))
            # min() of the per-step values: a later value replaces only a larger one.
            if rec.min_batch_alignment is None or alignment < rec.min_batch_alignment:
                rec.min_batch_alignment = alignment
        # A finite full-batch gnorm means every entry of parts is finite.
        if not (step is parts and math.isfinite(gnorm) or all(np.all(np.isfinite(p)) for p in step)):
            rec.status = f"aborted:non-finite-gradient-at-t={t}"
            break
        net = apply_gradient(net, step, eta_t)

    rec.records.close()
    rec.measured_T, rec.first_violation = hit.T, hit.first
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


def varphi(t: float, eta: float, n: int, m: int, delta: float, variant: str = "binary") -> float:
    """Prediction envelope: the lead times the gap (1+2eta)^{2t} - (1-2eta)^{2t},
    scaled as below.  The binary lead 1/2 + 2 sqrt(log(2n^2/delta)/m) carries
    the width; the multi-output lead is 1.
    """
    if variant == "binary":
        lead = 0.5 + 2.0 * math.sqrt(math.log(2.0 * n * n / delta) / m)
    elif variant == "multi":
        lead = 1.0
    else:
        raise ValueError("variant must be 'binary' or 'multi'")
    return lead * 251001.0 * ((1.0 + 2.0 * eta) ** (2 * t) - (1.0 - 2.0 * eta) ** (2 * t)) / 1_000_000.0


def exp_hitting_time_Te(eta: float, n: int, m: int, delta: float, variant: str) -> int:
    """Largest t with varphi(t+1) <= 1 and (1+2eta)^{t+1} <= cap, where cap is
    2 sqrt 2 (binary) or 2 (multi); -1 when t = 0 fails.

    Both conditions are monotone in t, so doubling brackets the first t that
    fails them and bisection finds the last one that holds.
    """
    if not 1.0 + 2.0 * eta > 1.0:
        raise ValueError("eta must be positive, with 1 + 2 eta above 1 in floating point")
    cap = 2.0 * math.sqrt(2.0) if variant == "binary" else 2.0

    def holds(t: int) -> bool:
        return varphi(t + 1, eta, n, m, delta, variant) <= 1.0 and (1.0 + 2.0 * eta) ** (t + 1) <= cap

    lo, hi = -1, 0           # holds(lo) unless lo = -1; not holds(hi) once bracketed
    while holds(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo
