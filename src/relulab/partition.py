"""Per-sample neuron partitions and checks on how they evolve during training.

For each sample i and neuron k, the partition cell is determined by the sign
agreement between the label and the output weight, and by whether the neuron
is active on the sample:

* TL (true-living):  y_i a_k > 0 and preactivation > 0
* TD (true-dead):    y_i a_k > 0 and preactivation <= 0
* FL (false-living): y_i a_k < 0 and preactivation > 0
* FD (false-dead):   y_i a_k < 0 and preactivation <= 0

Multi-output networks use y_i^T a_k in place of y_i a_k; under the
all-positive output-weight initialization only TL/TD occur, and the checker
verifies that positivity before relying on it.

The dynamics checks are observers of a training run (``EarlyDynamics``,
``GlobalDynamics``): each step hands them the preactivation H of the
training pass and its activity mask alive (H > 0); they add the mask agree
(y_i a_k > 0) and keep two states' cells, not the trajectory.
``check_dynamics_early`` / ``check_dynamics_global`` drive the same
observers over a list of states.

The sign rule (S5) is checked exactly at the segment endpoints: the
preactivations are affine in the parameters, so a sign is constant and
nonzero along theta(t) -> theta(t+1) iff it is so at both endpoints.  A
failure names the entry that leaves its step-1 sign first, at lambda* =
h0 / (h0 - h1) on the segment (0 or 1 for an exact zero at an endpoint).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .datasets import LabeledDataset
from .models import BinaryNet, Net, preactivation
from .training import EVERY_STEP

__all__ = [
    "TL", "TD", "FL", "FD",
    "PartitionSnapshot",
    "DynamicsViolation",
    "compute_partition",
    "initial_partition_stats",
    "EarlyDynamics",
    "GlobalDynamics",
    "check_dynamics_early",
    "check_dynamics_global",
    "CorrectClassification",
    "partition_counts_csv",
]

TL, TD, FL, FD = 0, 1, 2, 3


@dataclass(frozen=True)
class PartitionSnapshot:
    """The partition at one state as its two (n, m) masks, agree (y_i a_k > 0)
    and alive (H > 0): TL is agree & alive, TD agree & ~alive, FL ~agree &
    alive, FD ~(agree | alive)."""

    agree: np.ndarray
    alive: np.ndarray

    @property
    def four_way(self) -> bool:
        """False when only TL/TD occur (multi-output nets with positive outputs)."""
        return bool(np.any(~self.agree))

    def counts(self) -> np.ndarray:
        """Per-sample cell counts, shape (n, 4), columns indexed by TL, TD, FL, FD."""
        agree, alive = self.agree, self.alive
        out = np.empty((agree.shape[0], 4), dtype=np.int64)
        for cell, mask in ((TL, agree & alive), (TD, agree & ~alive),
                           (FL, alive & ~agree), (FD, ~(agree | alive))):
            out[:, cell] = np.sum(mask, axis=1)
        return out


@dataclass(frozen=True)
class DynamicsViolation:
    rule: str                  # S1..S5, StageII-S1..S5, CorrectClassification
    step: int
    sample: int                # -1 when not sample-specific
    neuron: int                # -1 when not neuron-specific
    detail: str
    # S5 only: where the sign leaves its reference, in [0, 1]; NaN when the
    # entry's preactivation at the segment's end is NaN.
    lam: Optional[float] = None


def _agree(net: Net, ds: LabeledDataset) -> np.ndarray:
    """Validate the net against the labels and reduce every (sample, neuron)
    pair to the mask agree (y_i a_k > 0); alive is H > 0, strict."""
    if isinstance(net, BinaryNet):
        if ds.label_kind != "binary":
            raise TypeError("binary network requires binary labels")
        if np.any(net.a == 0.0):
            k = int(np.where(net.a == 0.0)[0][0])
            raise ValueError(f"partition undefined: output weight a_{k} is exactly 0")
        # Canonical labels: +1 on the first half, -1 on the second.
        agree = np.repeat(np.stack([net.a > 0.0, net.a < 0.0]), ds.n // 2, axis=0)
    else:
        if ds.label_kind != "onehot":
            raise TypeError("multi-output network requires one-hot labels")
        ya = ds.labels @ net.A.T                        # (n, m): y_i^T a_k
        if np.any(ya == 0.0):
            i, k = np.argwhere(ya == 0.0)[0]
            raise ValueError(f"partition undefined: y_{i}^T a_{k} is exactly 0")
        agree = ya > 0.0
    return agree


def compute_partition(net: Net, ds: LabeledDataset) -> PartitionSnapshot:
    """Classify every (sample, neuron) pair; strict > 0 for living, <= 0 for dead."""
    return PartitionSnapshot(_agree(net, ds), preactivation(net, ds.inputs) > 0.0)


@dataclass(frozen=True)
class InitialPartitionStats:
    """Observed vs predicted initial co-activation fractions for same-class pairs."""

    bound: float
    max_deviation: float
    passed: bool
    worst_pair: tuple
    worst_cell: str


def initial_partition_stats(net0: BinaryNet, ds: LabeledDataset, delta: float) -> InitialPartitionStats:
    """Compare |TL_i(0) n TL_j(0)|/m (and the TD siblings) with the angular prediction.

    For a same-class pair with inner product rho, the predicted fraction is
    (pi - arccos(rho))/(4 pi) for TLnTL and TDnTD, and arccos(rho)/(4 pi) for
    the mixed intersections; deviations are compared against
    sqrt(log(n^2/delta)/(2m)).
    """
    if not isinstance(net0, BinaryNet):
        raise TypeError("initial partition statistics are defined for the binary network")
    snap = compute_partition(net0, ds)
    n, m = snap.agree.shape
    x = ds.inputs
    gram = np.clip(x @ x.T, -1.0, 1.0)
    theta = np.arccos(gram)
    same = np.outer(ds.labels, ds.labels) > 0
    bound = float(np.sqrt(np.log(n * n / delta) / (2.0 * m)))
    is_tl = snap.agree & snap.alive
    is_td = snap.agree & ~snap.alive
    max_dev, worst_pair, worst_cell = -1.0, (-1, -1), ""
    combos = (
        ("TLnTL", is_tl, is_tl, (np.pi - theta) / (4.0 * np.pi)),
        ("TLnTD", is_tl, is_td, theta / (4.0 * np.pi)),
        ("TDnTL", is_td, is_tl, theta / (4.0 * np.pi)),
        ("TDnTD", is_td, is_td, (np.pi - theta) / (4.0 * np.pi)),
    )
    for name, left, right, predicted in combos:
        observed = (left.astype(np.float64) @ right.T.astype(np.float64)) / m
        dev = np.abs(observed - predicted)
        dev[~same] = -np.inf
        idx = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if dev[idx] > max_dev:
            max_dev, worst_pair, worst_cell = float(dev[idx]), (int(idx[0]), int(idx[1])), name
    return InitialPartitionStats(bound=bound, max_deviation=max_dev,
                                 passed=max_dev <= bound,
                                 worst_pair=worst_pair, worst_cell=worst_cell)


# ---------------------------------------------------------------------------
# Dynamics checks
# ---------------------------------------------------------------------------

class _Segments:
    """Exact sign rule on the segments t -> t+1 from step 1 on: the first
    failing segment's entry that leaves sign(H_1) first, or nothing."""

    def __init__(self, rule: str):
        self.rule = rule
        self.found: List[DynamicsViolation] = []
        self._ref = self._H0 = self._bad0 = None

    def step(self, t: int, H: np.ndarray, alive: np.ndarray) -> None:
        if t == 0 or self.found:
            return
        if self._ref is None:
            # A copy: the pass's own mask, held for the whole run, leaves the
            # heap laid out so that each early-binary call takes about 100
            # more page faults (scripts/call_faults.py).
            self._ref = (alive.copy(), H < 0.0)
        bad = _off_sign(self._ref, H, alive)
        H0, bad0 = self._H0, self._bad0
        if H0 is not None and (bad0.any() or bad.any()):
            i, k = np.nonzero(bad0 | bad)
            lam = np.zeros(i.size)
            on = ~bad0[i, k]                   # still on the reference sign at H_{t-1}
            h0, h1 = H0[i, k][on], H[i, k][on]
            lam[on] = h0 / (h0 - h1)
            j = int(np.argmin(lam))
            self.found.append(DynamicsViolation(
                self.rule, t - 1, int(i[j]), int(k[j]),
                f"preactivation sign changed along segment t={t - 1}->{t} at lambda*={lam[j]:.6g}",
                lam=float(lam[j])))
        self._H0, self._bad0 = H, bad

    def hold(self, H: np.ndarray) -> None:
        """A step known to keep every sign of step 1, after a step that did:
        only the segment's start moves (``_bad0`` stays all False)."""
        self._H0 = H


def _off_sign(ref: Tuple[np.ndarray, np.ndarray], H: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """(sign(H) != sign(H_1)) | (H == 0), NaN included, from ref = (H_1 > 0, H_1 < 0):
    neither positive on a positive reference nor negative on a negative one."""
    pos, neg = ref
    return ~((pos & alive) | (neg & (H < 0.0)))


def _record(out: List[DynamicsViolation], rule: str, t: int, mask: np.ndarray, detail: str) -> None:
    if mask.any():
        where = np.argwhere(mask)[0]
        i, k = (int(where[0]), int(where[1])) if mask.ndim == 2 else (-1, int(where[0]))
        out.append(DynamicsViolation(rule=rule, step=t, sample=i, neuron=k, detail=detail))


class _Dynamics:
    """Checks partition rules on the states in ``steps`` from each state's
    agree/alive masks (``_agree`` and the pass's own alive); ``_rules`` keeps
    the cells the next state reads, and ``prev > cell`` is prev & ~cell: the
    pairs that left a cell.  Violations list as persist + cells + signs +
    positive; ``seen`` counts the states checked, so a run too short for any
    rule shows as such.  The rules read the states before a step, so a
    window may start no later than ``latest_start``."""

    latest_start = 0

    def __init__(self, ds: LabeledDataset, steps: range, sign_rule: str):
        first = next(iter(steps), 0)
        if first > self.latest_start:
            raise ValueError(f"{type(self).__name__} window starts at step {first}: its rules "
                             f"need it to start no later than step {self.latest_start}")
        self.ds, self.steps = ds, steps
        self.seen = 0
        self.persist, self.cells, self.positive = [], [], []
        self.signs = _Segments(sign_rule)
        self._prev = self._net = None

    def step(self, t: int, net: Net, H: np.ndarray, alive: np.ndarray, record=None) -> None:
        if t not in self.steps:
            return
        self._prev = self._rules(t, net, H, _agree(net, self.ds), alive, self._prev)
        self.signs.step(t, H, alive)
        self._net = net
        self.seen += 1

    def violations(self) -> List[DynamicsViolation]:
        return self.persist + self.cells + self.signs.found + self.positive

    def _found(self) -> int:
        return len(self.persist) + len(self.cells) + len(self.signs.found) + len(self.positive)


class EarlyDynamics(_Dynamics):
    """Early-stage partition dynamics.

    Binary: TL and FD cells persist step to step (S1, S2); at the first step
    every TD cell flips to TL (S3) and every FL cell to FD (S4); from step 1
    on, preactivation signs are constant along every inter-step parameter
    segment (S5).  Multi-output: TL persists, TD flips to TL at the first
    step, and segment signs stay constant and positive from step 1 on.
    The window starts at step 0, whose cells S1-S4 read.
    """

    def __init__(self, ds: LabeledDataset, steps: range = EVERY_STEP):
        super().__init__(ds, steps, "S5")

    def _rules(self, t, net, H, agree, alive, prev):
        is_binary = isinstance(net, BinaryNet)
        tl, fd = agree & alive, ~(agree | alive)
        if t >= 1:
            _record(self.persist, "S1", t - 1, prev[0] > tl,
                    "true-living cell left TL at the next step")
            if is_binary:
                _record(self.persist, "S2", t - 1, prev[1] > fd,
                        "false-dead cell left FD at the next step")
        if t == 1:
            _record(self.cells, "S3", 0, prev[2] > tl,
                    "true-dead cell did not turn true-living at the first step")
            if is_binary:
                _record(self.cells, "S4", 0, prev[3] > fd,
                        "false-living cell did not turn false-dead at the first step")
            else:
                # After the first step every preactivation must be positive;
                # later steps are covered by the segment check.
                _record(self.positive, "S5", 1, H <= 0.0, "nonpositive preactivation after the first step")
        # TD and FL are read at the first step only.
        return (tl, fd) if t else (tl, fd, agree & ~alive, alive & ~agree)


class GlobalDynamics(_Dynamics):
    """Two-stage partition dynamics for the adaptive-rate runs.

    From step 1 on: |a_k| is non-decreasing (StageII-S1), TL and FD cells
    persist (S2, S3), every cell is TL or FD (S4), and preactivation signs
    are constant along inter-step segments (S5).  Binary network only.

    A step t >= 1 is clean when it broke no rule and none of its
    preactivations is 0 or NaN.  After a clean step, the next one breaks no
    rule either when alive is unchanged, every entry that is not alive is
    negative, the signs of a are unchanged and no |a_k| decreased: its cells
    are the clean step's, all TL or FD (S2-S4), and its signs are the clean
    step's, those of step 1 (S5).  That step costs these few comparisons;
    every other step runs the full rules (``_Dynamics.step``).

    The window starts at step 0 or 1: from step 2 on, StageII-S1 reads the
    network of the step before.
    """

    latest_start = 1

    def __init__(self, ds: LabeledDataset, steps: range = EVERY_STEP):
        super().__init__(ds, steps, "StageII-S5")
        self._clean = None     # (alive, sign(a)) of the last step seen, if it was clean

    def step(self, t: int, net: Net, H: np.ndarray, alive: np.ndarray, record=None) -> None:
        if t not in self.steps:
            return
        sign = np.sign(net.a)
        clean = self._clean
        if (clean is not None and (alive == clean[0]).all() and (sign == clean[1]).all()
                and not (np.abs(net.a) < np.abs(self._net.a)).any() and _signed(H, alive)):
            self.signs.hold(H)
            self._net = net
            self.seen += 1
            return
        found = self._found()
        super().step(t, net, H, alive, record)
        is_clean = t >= 1 and self._found() == found and _signed(H, alive)
        self._clean = (alive, sign) if is_clean else None

    def _rules(self, t, net, H, agree, alive, prev):
        tl, fd = agree & alive, ~(agree | alive)
        if t >= 2:
            _record(self.persist, "StageII-S1", t - 1, np.abs(net.a) < np.abs(self._net.a),
                    "output-weight magnitude decreased")
            _record(self.persist, "StageII-S2", t - 1, prev[0] > tl, "true-living cell left TL")
            _record(self.persist, "StageII-S3", t - 1, prev[1] > fd, "false-dead cell left FD")
        if t >= 1:
            _record(self.cells, "StageII-S4", t, agree ^ alive, "cell outside TL/FD at step >= 1")
        return tl, fd


def _signed(H: np.ndarray, alive: np.ndarray) -> bool:
    """Every entry of H is positive (alive) or negative: none is 0 or NaN."""
    return np.count_nonzero(H < 0.0) == H.size - np.count_nonzero(alive)


def _drive(observer, nets: Sequence[Net], ds: LabeledDataset) -> List[DynamicsViolation]:
    for t, net in enumerate(nets):
        H = preactivation(net, ds.inputs)
        observer.step(t, net, H, H > 0.0)
    return observer.violations()


def check_dynamics_early(nets: Sequence[Net], ds: LabeledDataset) -> List[DynamicsViolation]:
    """``EarlyDynamics`` over a trajectory of parameter states."""
    return _drive(EarlyDynamics(ds), nets, ds)


def check_dynamics_global(nets: Sequence[Net], ds: LabeledDataset) -> List[DynamicsViolation]:
    """``GlobalDynamics`` over a trajectory of parameter states."""
    return _drive(GlobalDynamics(ds), nets, ds)


class CorrectClassification:
    """Observer of the margins from t = 1 on: ``least`` is the (t, min_margin)
    of the least margin (its first step on a tie) and ``first_violation``
    the first (t, min_margin) with a nonpositive margin; each is None until
    a step sets it."""

    def __init__(self):
        self.least: Optional[Tuple[int, float]] = None
        self.first_violation: Optional[Tuple[int, float]] = None

    def step(self, t, net, H, alive, record) -> None:
        if t < 1:
            return
        margin = record.min_margin
        if self.least is None or margin < self.least[1]:
            self.least = (t, margin)
        if self.first_violation is None and margin <= 0.0:
            self.first_violation = (t, margin)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def partition_counts_csv(snapshots: Sequence[Tuple[int, PartitionSnapshot]]) -> str:
    """Per-step, per-sample cell counts of (t, snapshot) pairs: t,sample,TL,TD,FL,FD."""
    buf = io.StringIO()
    buf.write("t,sample,TL,TD,FL,FD\n")
    for t, snap in snapshots:
        counts = snap.counts()
        for i in range(counts.shape[0]):
            tl, td, fl, fd = counts[i]
            buf.write(f"{t},{i},{tl},{td},{fl},{fd}\n")
    return buf.getvalue()
