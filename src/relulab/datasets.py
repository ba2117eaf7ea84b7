"""Dataset generation, ingestion, validation, and data-dependent constants.

Datasets are immutable value objects.  Binary-label datasets follow the
canonical ordering convention: the first n/2 samples carry label +1, the
rest -1.  All validators work directly on the stored 64-bit floats.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import rng

__all__ = [
    "LabeledDataset",
    "SeparabilityReport",
    "DataConstants",
    "gen_orthant_separable",
    "validate_separable",
    "load_idx_images",
    "load_idx_labels",
    "load_mnist",
    "load_cifar10",
    "compute_gamma_constants",
    "concentration_tail",
    "exact_sum",
    "compute_V",
    "export_dataset_csv",
    "write_idx_images",
    "write_idx_labels",
]


@dataclass(frozen=True)
class LabeledDataset:
    """n samples in the unit ball with binary (+/-1) or one-hot labels."""

    inputs: np.ndarray            # (n, d) float64
    labels: np.ndarray            # (n,) float64 of +/-1, or (n, C) one-hot float64
    label_kind: str               # "binary" | "onehot"
    source: str                   # provenance tag: synthetic seed or file digest

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)
        if x.ndim != 2:
            raise ValueError("inputs must be an (n, d) matrix")
        # Written so that it fails on a NaN norm too: a row with a NaN or an
        # infinite entry has a NaN or infinite norm.
        if not np.all(np.linalg.norm(x, axis=1) <= 1.0 + 1e-12):
            raise ValueError("every input must be finite and lie in the unit ball (tolerance 1e-12)")
        if self.label_kind == "binary":
            if y.shape != (x.shape[0],):
                raise ValueError("binary labels must be an n-vector")
            if x.shape[0] % 2 != 0:
                raise ValueError("binary datasets require an even sample count")
            half = x.shape[0] // 2
            if not (np.all(y[:half] == 1.0) and np.all(y[half:] == -1.0)):
                raise ValueError("binary labels must be canonical: +1 first half, -1 second half")
        elif self.label_kind == "onehot":
            if y.ndim != 2 or y.shape[0] != x.shape[0]:
                raise ValueError("one-hot labels must be an (n, C) matrix")
            if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)):
                raise ValueError("each one-hot label must have exactly one entry equal to 1")
        else:
            raise ValueError(f"unknown label_kind {self.label_kind!r}")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def num_classes(self) -> int:
        if self.label_kind != "onehot":
            raise TypeError("num_classes is defined for one-hot datasets only")
        return self.labels.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.label_kind.encode())
        h.update(np.ascontiguousarray(self.inputs).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of ``validate_separable``.

    ``mu0`` is the margin constant from the min-max separation condition,
    evaluated over a finite witness family (sound on that family, possibly
    conservative); it is exactly 1 when an antipodal labeled pair exists.
    ``s`` is the minimum pairwise inner product; ``gamma`` the minimum
    same-class inner product.  One-hot datasets are never reported
    separable: ``mu0`` is None and ``gamma`` nan.
    """

    separable: bool
    mu0: Optional[float]
    concentrated: bool
    s: float
    gamma: float


@dataclass(frozen=True)
class DataConstants:
    """Data-dependent certificate constants (given width m and failure prob delta)."""

    V: float
    vacuous: bool    # True when m is too small for the V bracket to be positive


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _orthant_unit_rows(gen: np.random.Generator, count: int, d: int) -> np.ndarray:
    """Unit vectors with all-nonnegative coordinates."""
    z = np.abs(rng.normal(gen, (count, d)))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def gen_orthant_separable(n: int, d: int, seed: int, include_antipodal: bool = True) -> LabeledDataset:
    """Synthetic separable dataset: class + in the nonnegative orthant, class - in the nonpositive one.

    Same-class inner products are then nonnegative and cross-class ones
    nonpositive by construction.  With ``include_antipodal`` the first
    negative sample is the exact negation of the first positive sample,
    which pins the separation margin constant to 1.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    gen = rng.make_generator(seed, stream=0)
    half = n // 2
    pos = _orthant_unit_rows(gen, half, d)
    neg = -_orthant_unit_rows(gen, half, d)
    if include_antipodal:
        neg[0] = -pos[0]
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(half), -np.ones(half)])
    return LabeledDataset(inputs=x, labels=y, label_kind="binary",
                          source=f"synthetic-orthant:n={n},d={d},seed={seed},antipodal={include_antipodal}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _has_antipodal_pair(ds: LabeledDataset, tol: float = 1e-12) -> bool:
    x, y = ds.inputs, ds.labels
    sq = np.sum(x * x, axis=1)
    # x_j == -x_i  <=>  ||x_i + x_j||^2 == 0
    dist = sq[:, None] + sq[None, :] + 2.0 * (x @ x.T)
    return bool(np.any((dist <= tol) & (np.outer(y, y) < 0)))


def _mu0_witness_search(ds: LabeledDataset) -> Optional[float]:
    """Min-max separation margin over a finite family of half-space normals.

    Witness normals: every +/-x_j, plus every normalized pairwise difference
    x_j - x_k.  For each (sample i, witness v) with v^T x_i <= 0, take the
    max of y_i x_i^T x_j y_j over j with v^T x_j > 0; the reported value is
    the min of those maxima (None when no witness pair applies).
    """
    x, y = ds.inputs, ds.labels
    n = ds.n
    witnesses = [x, -x]
    diffs = []
    for j in range(n):
        for k in range(j + 1, n):
            dvec = x[j] - x[k]
            nrm = np.linalg.norm(dvec)
            if nrm > 1e-12:
                diffs.append(dvec / nrm)
    if diffs:
        witnesses.append(np.array(diffs))
    V = np.vstack(witnesses)              # (w, d)
    proj = V @ x.T                        # (w, n): v^T x_j
    signed = (y[:, None] * (x @ x.T)) * y[None, :]   # y_i x_i^T x_j y_j
    best = None
    for w in range(V.shape[0]):
        active = proj[w] > 0.0
        if not np.any(active):
            continue
        inactive = proj[w] <= 0.0
        if not np.any(inactive):
            continue
        maxima = np.max(signed[:, active], axis=1)   # per-i max over active j
        cand = float(np.min(maxima[inactive]))
        best = cand if best is None else min(best, cand)
    return best


def validate_separable(ds: LabeledDataset) -> SeparabilityReport:
    """Check concentration (all pairwise inner products bounded away from -1)
    and, for binary labels, the sign-pattern separation condition and its
    margin constant."""
    x, y = ds.inputs, ds.labels
    gram = x @ x.T
    off = ~np.eye(ds.n, dtype=bool)
    s = float(np.min(gram[off])) if ds.n > 1 else 1.0
    if ds.label_kind != "binary":
        return SeparabilityReport(separable=False, mu0=None,
                                  concentrated=s > -1.0 + 1e-9, s=s, gamma=math.nan)
    same = np.outer(y, y) > 0
    separable = bool(np.all(gram[same & off] >= -1e-12) and np.all(gram[~same] <= 1e-12))
    gamma = float(np.min(gram[same])) if ds.n > 0 else math.nan
    mu0: Optional[float] = None
    if separable:
        if _has_antipodal_pair(ds):
            mu0 = 1.0
        else:
            mu0 = _mu0_witness_search(ds)
        if mu0 is not None and mu0 <= 0.0:
            mu0 = None
    return SeparabilityReport(separable=separable, mu0=mu0,
                              concentrated=s > -1.0 + 1e-9, s=s, gamma=gamma)


# ---------------------------------------------------------------------------
# Binary file loaders (IDX and CIFAR-10 batch formats)
# ---------------------------------------------------------------------------

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into an (n, rows*cols) uint8 array."""
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise ValueError(f"{path}: truncated IDX image header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != _IDX_IMAGE_MAGIC:
            raise ValueError(f"{path}: bad IDX image magic 0x{magic:08x}")
        payload = f.read(count * rows * cols)
    if len(payload) != count * rows * cols:
        raise ValueError(f"{path}: truncated IDX image payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an (n,) uint8 array."""
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise ValueError(f"{path}: truncated IDX label header")
        magic, count = struct.unpack(">II", header)
        if magic != _IDX_LABEL_MAGIC:
            raise ValueError(f"{path}: bad IDX label magic 0x{magic:08x}")
        payload = f.read(count)
    if len(payload) != count:
        raise ValueError(f"{path}: truncated IDX label payload")
    return np.frombuffer(payload, dtype=np.uint8)


def write_idx_images(path, images: np.ndarray, rows: int, cols: int) -> None:
    """Write an (n, rows*cols) uint8 array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", _IDX_IMAGE_MAGIC, images.shape[0], rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write an (n,) uint8 array in IDX label format."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", _IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _finish_image_dataset(pixels: np.ndarray, label_bytes: np.ndarray, count: int,
                          normalize: bool, source: str, num_classes: int = 10) -> LabeledDataset:
    if count > pixels.shape[0]:
        raise ValueError(f"requested {count} samples but file holds {pixels.shape[0]}")
    x = pixels[:count].astype(np.float64)
    if normalize:
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.where(norms == 0.0)[0][0])
            raise ValueError(f"sample {bad} is all-zero and cannot be normalized")
        x = x / norms[:, None]
    else:
        # Scale into the unit ball so the dataset invariant holds.
        maxn = np.linalg.norm(x, axis=1).max()
        if maxn > 0:
            x = x / maxn
    lbl = label_bytes[:count].astype(np.int64)
    if np.any(lbl >= num_classes) or np.any(lbl < 0):
        raise ValueError("label byte out of range")
    onehot = np.zeros((count, num_classes))
    onehot[np.arange(count), lbl] = 1.0
    return LabeledDataset(inputs=x, labels=onehot, label_kind="onehot", source=source)


def load_mnist(images_path, labels_path, count: int = 1000, normalize: bool = True) -> LabeledDataset:
    """Load the first ``count`` records of an IDX image/label pair as one-hot data."""
    pixels = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if labels.shape[0] < count:
        raise ValueError("label file holds fewer records than requested")
    src = f"idx:{_file_digest(images_path)[:16]}+{_file_digest(labels_path)[:16]}:count={count}"
    return _finish_image_dataset(pixels, labels, count, normalize, src)


def load_cifar10(bin_path, count: int = 1000, normalize: bool = True) -> LabeledDataset:
    """Load the first ``count`` records of a CIFAR-10 binary batch (3073-byte records)."""
    with open(bin_path, "rb") as f:
        raw = f.read()
    if len(raw) % 3073 != 0:
        raise ValueError(f"{bin_path}: length {len(raw)} is not a multiple of 3073")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3073)
    labels = records[:, 0]
    pixels = records[:, 1:]
    src = f"cifar10:{_file_digest(bin_path)[:16]}:count={count}"
    return _finish_image_dataset(pixels, labels, count, normalize, src)


# ---------------------------------------------------------------------------
# Data-dependent constants
# ---------------------------------------------------------------------------

def compute_gamma_constants(ds: LabeledDataset) -> Tuple[float, float]:
    """Concentration constants (gamma1, gamma2) from same-class inner products.

    gamma2 averages x_i^T x_j over all same-class ordered pairs (including
    i=j) divided by n^2; gamma1 additionally weights each term by
    (1 - arccos(x_i^T x_j)/pi).  Always gamma2/2 <= gamma1 <= gamma2.
    """
    if ds.label_kind != "binary":
        raise TypeError("gamma constants are defined for binary datasets")
    x, y = ds.inputs, ds.labels
    n = ds.n
    gram = np.clip(x @ x.T, -1.0, 1.0)
    same = np.outer(y, y) > 0
    vals = gram[same]
    g2 = exact_sum(vals) / (n * n)
    weighted = vals * (1.0 - np.arccos(vals) / np.pi)
    g1 = exact_sum(weighted) / (n * n)
    return g1, g2


def concentration_tail(n: int, m: int, delta: float) -> float:
    """The width-m concentration term sqrt(8 log(n^2/delta)/m)."""
    return math.sqrt(8.0 * math.log(n ** 2 / delta) / m)


def exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of a float64 array: ``math.fsum(x.ravel().tolist())``.

    Returns the same float as that expression, or raises the same exception,
    for every input, from a few array passes instead of one boxed float per
    entry.  Two ExtractVector rounds (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008) split
    each entry x_i = q_i + r_i exactly: q_i = ((sigma + x_i) - sigma) sits on
    a grid so coarse that numpy sums the q_i without error, in any order,
    when sigma is a power of two >= 2^shift max|x| with 2^shift >= size + 2.
    The second round takes sigma * 2^(shift - 53), which bounds the first
    round's remainders the same way.  fsum of the two exact round sums and
    the remainders left is then fsum of x.  An empty or non-float64 array, a
    non-finite or zero max|x|, or a sigma outside the normal range falls back
    to fsum.
    """
    if x.size and x.dtype == np.float64:
        big = float(np.abs(x).max())
        shift = (x.size + 1).bit_length()
        top = math.frexp(big)[1] + shift         # big < 2**frexp(big)[1]
        if 0.0 < big < math.inf and top <= 1023 and top + shift - 53 >= -1022:
            sums, rest = [], x
            for sigma in (math.ldexp(1.0, top), math.ldexp(1.0, top + shift - 53)):
                q = (sigma + rest) - sigma
                sums.append(float(q.sum()))
                rest = rest - q
            return math.fsum(sums + rest[rest != 0.0].tolist())
    return math.fsum(x.ravel().tolist())


def compute_V(ds: LabeledDataset, m: int, delta: float) -> DataConstants:
    """Convergence-rate constant V for width m and failure probability delta.

    V = (1/16)(1/2 - sqrt(8 log(n^2/delta)/m)) * max{2/n + ((n-2)/n) gamma,
    min eigenvalue of the per-class input Gram matrices}, where gamma is
    the minimum same-class inner product.  A negative bracket (m too small)
    is reported with ``vacuous=True``.
    """
    if ds.label_kind != "binary":
        raise TypeError("V is defined for binary datasets")
    if m <= 0 or not (0.0 < delta < 1.0):
        raise ValueError("need m > 0 and delta in (0, 1)")
    x, y = ds.inputs, ds.labels
    n = ds.n
    half = n // 2
    gram = x @ x.T
    same = np.outer(y, y) > 0
    gamma = float(np.min(gram[same]))
    lam_p = float(np.linalg.eigvalsh(x[:half] @ x[:half].T).min())
    lam_m = float(np.linalg.eigvalsh(x[half:] @ x[half:].T).min())
    spread = 2.0 / n + ((n - 2.0) / n) * gamma
    bracket = 0.5 - concentration_tail(n, m, delta)
    V = (bracket / 16.0) * max(spread, min(lam_p, lam_m))
    return DataConstants(V=V, vacuous=bracket <= 0.0)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_dataset_csv(ds: LabeledDataset, csv_path, sidecar_path=None) -> None:
    """Write the dataset as CSV with a JSON sidecar of validation results."""
    n, d = ds.n, ds.d
    with open(csv_path, "w") as f:
        cols = ",".join(f"x_{j}" for j in range(d))
        f.write(f"index,label,{cols}\n")
        for i in range(n):
            if ds.label_kind == "binary":
                label = int(ds.labels[i])
            else:
                label = int(np.argmax(ds.labels[i]))
            row = ",".join(repr(float(v)) for v in ds.inputs[i])
            f.write(f"{i},{label},{row}\n")
    if sidecar_path is not None:
        rep = validate_separable(ds)
        payload = {
            "source": ds.source,
            "n": n, "d": d,
            "label_kind": ds.label_kind,
            "separable": rep.separable,
            "mu0": rep.mu0,
            "concentrated": rep.concentrated,
            "s": rep.s,
            "gamma": None if math.isnan(rep.gamma) else rep.gamma,
        }
        if ds.label_kind == "binary":
            g1, g2 = compute_gamma_constants(ds)
            payload["gamma1"] = g1
            payload["gamma2"] = g2
        with open(sidecar_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
