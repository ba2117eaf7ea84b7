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
training pass, so they keep two states, not the trajectory.
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
    "check_correct_classification",
    "partition_counts_csv",
]

TL, TD, FL, FD = 0, 1, 2, 3


@dataclass(frozen=True)
class PartitionSnapshot:
    """Partition table at one step: table[i, k] in {TL, TD, FL, FD}."""

    step: int
    table: np.ndarray          # (n, m) uint8
    four_way: bool             # False when only TL/TD can occur (multi variant)

    def counts(self) -> np.ndarray:
        """Per-sample cell counts, shape (n, 4)."""
        n = self.table.shape[0]
        out = np.zeros((n, 4), dtype=np.int64)
        for cell in range(4):
            out[:, cell] = np.sum(self.table == cell, axis=1)
        return out


@dataclass(frozen=True)
class DynamicsViolation:
    rule: str                  # S1..S5, StageII-S1..S5, CorrectClassification
    step: int
    sample: int                # -1 when not sample-specific
    neuron: int                # -1 when not neuron-specific
    detail: str
    lam: Optional[float] = None  # S5 only: where the sign leaves its reference, in [0, 1]


def _table(net: Net, ds: LabeledDataset, H: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Validate the net against the labels and classify every (sample, neuron)
    pair from its preactivation H; strict > 0 for living, <= 0 for dead."""
    if isinstance(net, BinaryNet):
        if ds.label_kind != "binary":
            raise TypeError("binary network requires binary labels")
        if np.any(net.a == 0.0):
            k = int(np.where(net.a == 0.0)[0][0])
            raise ValueError(f"partition undefined: output weight a_{k} is exactly 0")
        agree = np.outer(ds.labels, net.a) > 0.0        # (n, m)
        four_way = True
    else:
        if ds.label_kind != "onehot":
            raise TypeError("multi-output network requires one-hot labels")
        ya = ds.labels @ net.A.T                        # (n, m): y_i^T a_k
        if np.any(ya == 0.0):
            i, k = np.argwhere(ya == 0.0)[0]
            raise ValueError(f"partition undefined: y_{i}^T a_{k} is exactly 0")
        agree = ya > 0.0
        four_way = bool(np.any(~agree))
    # TL, TD, FL, FD = 0, 1, 2, 3: twice "disagrees" plus "dead".
    table = 2 * (~agree).view(np.uint8) + (~(H > 0.0)).view(np.uint8)
    return table, four_way


def compute_partition(net: Net, ds: LabeledDataset) -> PartitionSnapshot:
    """Classify every (sample, neuron) pair; strict > 0 for living, <= 0 for dead."""
    table, four_way = _table(net, ds, preactivation(net, ds.inputs))
    return PartitionSnapshot(step=0, table=table, four_way=four_way)


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
    n, m = snap.table.shape
    x = ds.inputs
    gram = np.clip(x @ x.T, -1.0, 1.0)
    theta = np.arccos(gram)
    same = np.outer(ds.labels, ds.labels) > 0
    bound = float(np.sqrt(np.log(n * n / delta) / (2.0 * m)))
    is_tl = snap.table == TL
    is_td = snap.table == TD
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

    def step(self, t: int, H: np.ndarray) -> None:
        if t == 0 or self.found:
            return
        if self._ref is None:
            self._ref = np.sign(H)
        bad = (np.sign(H) != self._ref) | (H == 0.0)
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


def _record(out: List[DynamicsViolation], rule: str, t: int, mask: np.ndarray, detail: str) -> None:
    if np.any(mask):
        where = np.argwhere(mask)[0]
        i, k = (int(where[0]), int(where[1])) if mask.ndim == 2 else (-1, int(where[0]))
        out.append(DynamicsViolation(rule=rule, step=t, sample=i, neuron=k, detail=detail))


class _Dynamics:
    """Checks partition rules on the states in ``steps``, one state at a time;
    each state is validated as in ``compute_partition``.  Violations list
    as persist + cells + signs + positive."""

    def __init__(self, ds: LabeledDataset, steps: range, sign_rule: str):
        self.ds, self.steps = ds, steps
        self.seen = 0
        self.persist, self.cells, self.positive = [], [], []
        self.signs = _Segments(sign_rule)
        self._prev = self._net = None

    def step(self, t: int, net: Net, H: np.ndarray, record=None) -> None:
        if t not in self.steps:
            return
        tbl = _table(net, self.ds, H)[0]
        self._rules(t, net, H, tbl, self._prev)
        self.signs.step(t, H)
        self._prev, self._net = tbl, net
        self.seen += 1

    def violations(self) -> List[DynamicsViolation]:
        if self.seen < 2:
            return [DynamicsViolation("horizon", 0, -1, -1, "insufficient horizon: need at least steps 0 and 1")]
        return self.persist + self.cells + self.signs.found + self.positive


class EarlyDynamics(_Dynamics):
    """Early-stage partition dynamics.

    Binary: TL and FD cells persist step to step (S1, S2); at the first step
    every TD cell flips to TL (S3) and every FL cell to FD (S4); from step 1
    on, preactivation signs are constant along every inter-step parameter
    segment (S5).  Multi-output: TL persists, TD flips to TL at the first
    step, and segment signs stay constant and positive from step 1 on.
    """

    def __init__(self, ds: LabeledDataset, steps: range = EVERY_STEP):
        super().__init__(ds, steps, "S5")

    def _rules(self, t, net, H, tbl, prev) -> None:
        is_binary = isinstance(net, BinaryNet)
        if t >= 1:
            _record(self.persist, "S1", t - 1, (prev == TL) & (tbl != TL),
                    "true-living cell left TL at the next step")
            if is_binary:
                _record(self.persist, "S2", t - 1, (prev == FD) & (tbl != FD),
                        "false-dead cell left FD at the next step")
        if t == 1:
            _record(self.cells, "S3", 0, (prev == TD) & (tbl != TL),
                    "true-dead cell did not turn true-living at the first step")
            if is_binary:
                _record(self.cells, "S4", 0, (prev == FL) & (tbl != FD),
                        "false-living cell did not turn false-dead at the first step")
            else:
                # After the first step every preactivation must be positive;
                # later steps are covered by the segment check.
                _record(self.positive, "S5", 1, H <= 0.0, "nonpositive preactivation after the first step")


class GlobalDynamics(_Dynamics):
    """Two-stage partition dynamics for the adaptive-rate runs.

    From step 1 on: |a_k| is non-decreasing (StageII-S1), TL and FD cells
    persist (S2, S3), every cell is TL or FD (S4), and preactivation signs
    are constant along inter-step segments (S5).
    """

    def __init__(self, ds: LabeledDataset, steps: range = EVERY_STEP):
        super().__init__(ds, steps, "StageII-S5")

    def _rules(self, t, net, H, tbl, prev) -> None:
        if t >= 2:
            _record(self.persist, "StageII-S1", t - 1, np.abs(net.a) < np.abs(self._net.a),
                    "output-weight magnitude decreased")
            _record(self.persist, "StageII-S2", t - 1, (prev == TL) & (tbl != TL), "true-living cell left TL")
            _record(self.persist, "StageII-S3", t - 1, (prev == FD) & (tbl != FD), "false-dead cell left FD")
        if t >= 1:
            _record(self.cells, "StageII-S4", t, (tbl != TL) & (tbl != FD), "cell outside TL/FD at step >= 1")


def _drive(observer, nets: Sequence[Net], ds: LabeledDataset) -> List[DynamicsViolation]:
    for t, net in enumerate(nets):
        observer.step(t, net, preactivation(net, ds.inputs))
    return observer.violations()


def check_dynamics_early(nets: Sequence[Net], ds: LabeledDataset) -> List[DynamicsViolation]:
    """``EarlyDynamics`` over a trajectory of parameter states."""
    return _drive(EarlyDynamics(ds), nets, ds)


def check_dynamics_global(nets: Sequence[Net], ds: LabeledDataset) -> List[DynamicsViolation]:
    """``GlobalDynamics`` over a trajectory of parameter states."""
    return _drive(GlobalDynamics(ds), nets, ds)


def check_correct_classification(record):
    """First (t, min_margin) in ``record.records`` with a nonpositive margin at
    t >= 1, or None when all pass."""
    for r in record.records:
        if r.t >= 1 and r.min_margin <= 0.0:
            return (r.t, r.min_margin)
    return None


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def partition_counts_csv(snapshots: Sequence[PartitionSnapshot]) -> str:
    """Per-step, per-sample cell counts: t,sample,TL,TD,FL,FD."""
    buf = io.StringIO()
    buf.write("t,sample,TL,TD,FL,FD\n")
    for snap in snapshots:
        counts = snap.counts()
        for i in range(counts.shape[0]):
            tl, td, fl, fd = counts[i]
            buf.write(f"{snap.step},{i},{tl},{td},{fl},{fd}\n")
    return buf.getvalue()
