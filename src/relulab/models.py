"""Two-layer ReLU networks: initialization, evaluation, gradients, Hessians.

Two architectures are supported:

* ``BinaryNet``  — scalar output, no bias: f(x) = sum_k a_k sigma(b_k^T x);
* ``MultiNet``   — C outputs with per-neuron bias: f(x) = sum_k a_k sigma(b_k^T x + c_k),
  with a_k a C-vector.

The derivative convention at the ReLU kink is sigma'(0) = 0: every activity
indicator is the strict comparison ``preactivation > 0``.  All arithmetic is
64-bit.  Flat parameter order is [a, B.ravel()] for BinaryNet and
[A.ravel(), B.ravel(), c] for MultiNet.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .losses import LossFamily

__all__ = [
    "BinaryNet",
    "MultiNet",
    "InitSpec",
    "init_binary",
    "init_multi",
    "forward",
    "margins",
    "loss_value",
    "per_sample_margins",
    "grad_loss",
    "grad_loss_struct",
    "apply_gradient",
    "flatten_params",
    "param_norm",
    "hessian_loss",
    "hessian_spectral_norm",
    "save_snapshot",
    "load_snapshot",
]

Net = Union["BinaryNet", "MultiNet"]


@dataclass(frozen=True)
class BinaryNet:
    """Scalar-output network without biases."""

    a: np.ndarray    # (m,)
    B: np.ndarray    # (m, d)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.B.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.a).tobytes())
        h.update(np.ascontiguousarray(self.B).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class MultiNet:
    """C-output network with per-neuron biases."""

    A: np.ndarray    # (m, C)
    B: np.ndarray    # (m, d)
    c: np.ndarray    # (m,)

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def d(self) -> int:
        return self.B.shape[1]

    @property
    def C(self) -> int:
        return self.A.shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.A, self.B, self.c):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class InitSpec:
    """Initialization scale and seed."""

    kappa: float
    seed: int

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")


def init_binary(m: int, d: int, spec: InitSpec) -> BinaryNet:
    """a_k uniform on {-1/sqrt(m), +1/sqrt(m)}; b_k Gaussian with per-coordinate variance kappa^2/(md)."""
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    gen = rng.make_generator(spec.seed, stream=0)
    a = rng.rademacher(gen, m) / np.sqrt(m)
    B = rng.normal(gen, (m, d)) * (spec.kappa / np.sqrt(m * d))
    return BinaryNet(a=a, B=B)


def init_multi(m: int, d: int, C: int, spec: InitSpec) -> MultiNet:
    """All output weights 1/sqrt(m); b_k Gaussian with variance kappa^2/(m(d+1)); biases kappa/sqrt(m(d+1))."""
    if m < 1 or d < 1 or C < 1:
        raise ValueError("need m, d, C >= 1")
    gen = rng.make_generator(spec.seed, stream=0)
    A = np.full((m, C), 1.0 / np.sqrt(m))
    scale = spec.kappa / np.sqrt(m * (d + 1))
    B = rng.normal(gen, (m, d)) * (spec.kappa / np.sqrt(m * (d + 1)))
    c = np.full(m, scale)
    return MultiNet(A=A, B=B, c=c)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _preact(net: Net, X: np.ndarray) -> np.ndarray:
    """Pre-activations, shape (n, m)."""
    H = X @ net.B.T
    if isinstance(net, MultiNet):
        H = H + net.c[None, :]
    return H


def forward(net: Net, x: np.ndarray) -> np.ndarray:
    """Network output for a single input (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != net.d:
        raise ValueError(f"input dimension {X.shape[1]} != network dimension {net.d}")
    S = np.maximum(_preact(net, X), 0.0)
    out = S @ (net.a if isinstance(net, BinaryNet) else net.A)
    return out[0] if single else out


def per_sample_margins(net: Net, ds: LabeledDataset, subset: Optional[np.ndarray] = None) -> np.ndarray:
    """z_i = y_i f(x_i) (binary) or y_i^T f(x_i) (one-hot)."""
    idx = np.arange(ds.n) if subset is None else np.asarray(subset)
    X = ds.inputs[idx]
    f = forward(net, X)
    if isinstance(net, BinaryNet):
        if ds.label_kind != "binary":
            raise TypeError("BinaryNet requires binary labels")
        return ds.labels[idx] * f
    if ds.label_kind != "onehot":
        raise TypeError("MultiNet requires one-hot labels")
    return np.sum(ds.labels[idx] * f, axis=1)


def margins(net: Net, ds: LabeledDataset) -> np.ndarray:
    """Per-sample label/prediction inner products over the full dataset."""
    return per_sample_margins(net, ds)


def loss_value(net: Net, ds: LabeledDataset, loss: LossFamily,
               subset: Optional[np.ndarray] = None) -> float:
    """Empirical risk over the (multi)set of sample indices (full data by default)."""
    idx = np.arange(ds.n) if subset is None else np.asarray(subset)
    if loss.is_quadratic:
        if not isinstance(net, BinaryNet):
            raise TypeError("quadratic loss is implemented for the binary network")
        f = forward(net, ds.inputs[idx])
        r = f - ds.labels[idx]
        return float(np.mean(0.5 * r * r))
    z = per_sample_margins(net, ds, idx)
    return float(np.mean(loss.value(z)))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def grad_loss_struct(net: Net, ds: LabeledDataset, loss: LossFamily,
                     subset: Optional[np.ndarray] = None,
                     trained_layers: str = "all"):
    """Structured gradient of the empirical risk (averaged over the subset).

    Returns (ga, gB) for BinaryNet or (gA, gB, gc) for MultiNet.  With
    ``trained_layers='input_only'`` the output-layer gradient is masked to
    zero (only meaningful for BinaryNet).
    """
    idx = np.arange(ds.n) if subset is None else np.asarray(subset)
    if idx.size == 0:
        raise ValueError("empty sample subset")
    X = ds.inputs[idx]
    nsub = idx.size
    H = _preact(net, X)
    S = np.maximum(H, 0.0)
    D = (H > 0.0).astype(np.float64)

    if isinstance(net, BinaryNet):
        f = S @ net.a
        if loss.is_quadratic:
            w = (f - ds.labels[idx]) / nsub
        else:
            z = ds.labels[idx] * f
            w = loss.deriv(z) * ds.labels[idx] / nsub
        ga = S.T @ w
        gB = ((D * w[:, None]).T @ X) * net.a[:, None]
        if trained_layers == "input_only":
            ga = np.zeros_like(ga)
        elif trained_layers != "all":
            raise ValueError(f"unknown trained_layers {trained_layers!r}")
        return ga, gB

    if loss.is_quadratic:
        raise TypeError("quadratic loss is implemented for the binary network")
    if trained_layers != "all":
        raise ValueError("input-only training is defined for the binary network")
    Y = ds.labels[idx]
    z = np.sum(Y * (S @ net.A), axis=1)
    w = loss.deriv(z) / nsub
    gA = S.T @ (w[:, None] * Y)
    U = Y @ net.A.T                     # (nsub, m): y_i^T a_k
    T = D * U * w[:, None]
    gB = T.T @ X
    gc = T.sum(axis=0)
    return gA, gB, gc


def flatten_params(net: Net) -> np.ndarray:
    if isinstance(net, BinaryNet):
        return np.concatenate([net.a, net.B.ravel()])
    return np.concatenate([net.A.ravel(), net.B.ravel(), net.c])


def _flatten_struct(parts) -> np.ndarray:
    return np.concatenate([np.asarray(p).ravel() for p in parts])


def grad_loss(net: Net, ds: LabeledDataset, loss: LossFamily,
              subset: Optional[np.ndarray] = None,
              trained_layers: str = "all") -> np.ndarray:
    """Flat gradient in the canonical parameter order."""
    return _flatten_struct(grad_loss_struct(net, ds, loss, subset, trained_layers))


def apply_gradient(net: Net, parts, eta: float) -> Net:
    """One descent step: parameters minus eta times the structured gradient."""
    if isinstance(net, BinaryNet):
        ga, gB = parts
        return BinaryNet(a=net.a - eta * ga, B=net.B - eta * gB)
    gA, gB, gc = parts
    return MultiNet(A=net.A - eta * gA, B=net.B - eta * gB, c=net.c - eta * gc)


def param_norm(net: Net) -> float:
    """Euclidean norm of the full flat parameter vector."""
    return float(np.linalg.norm(flatten_params(net)))


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

_DENSE_GUARD = 20_000


def _margin_weights(net: Net, ds: LabeledDataset, loss: LossFamily, X, Y, S):
    """Return (w2, w1, sfac): per-sample second/first derivative weights and
    the factor mapping model-output gradients to margin gradients."""
    if isinstance(net, BinaryNet):
        f = S @ net.a
        if loss.is_quadratic:
            return np.ones_like(f), f - Y, np.ones_like(f)
        z = Y * f
        return loss.second_deriv(z), loss.deriv(z), Y
    z = np.sum(Y * (S @ net.A), axis=1)
    return loss.second_deriv(z), loss.deriv(z), None


def hessian_loss(net: Net, ds: LabeledDataset, loss: LossFamily,
                 trained_layers: str = "all") -> np.ndarray:
    """Dense Hessian of the empirical risk in flat parameter order.

    Guarded at 20000 parameters.  The second derivative of the activation
    is exactly zero away from the kink, so per-neuron curvature appears
    only in the output/input cross blocks.
    """
    n, X = ds.n, ds.inputs
    H = _preact(net, X)
    S = np.maximum(H, 0.0)
    D = (H > 0.0).astype(np.float64)

    if isinstance(net, BinaryNet):
        m, d = net.m, net.d
        p_full = m + m * d
        input_only = trained_layers == "input_only"
        p = m * d if input_only else p_full
        if p > _DENSE_GUARD:
            raise ValueError(f"dense Hessian guard exceeded: {p} > {_DENSE_GUARD}")
        Y = ds.labels
        w2, w1, sfac = _margin_weights(net, ds, loss, X, Y, S)
        # Per-sample model gradient rows: [S_i, (a_k D_ik x_i)_k].
        GB = (D * net.a[None, :])[:, :, None] * X[:, None, :]   # (n, m, d)
        if input_only:
            G = GB.reshape(n, m * d)
            coeff = (w2 * sfac * sfac) / n
            Hmat = (G.T * coeff) @ G
            return 0.5 * (Hmat + Hmat.T)
        G = np.concatenate([S, GB.reshape(n, m * d)], axis=1)
        coeff = (w2 * sfac * sfac) / n
        Hmat = (G.T * coeff) @ G
        # Cross blocks from the model's own curvature: d^2 f / da_k db_k = D_ik x_i.
        cw = (w1 * sfac) / n
        M = (cw[:, None] * D).T @ X      # (m, d)
        for k in range(m):
            Hmat[k, m + k * d: m + (k + 1) * d] += M[k]
            Hmat[m + k * d: m + (k + 1) * d, k] += M[k]
        return 0.5 * (Hmat + Hmat.T)

    m, d, C = net.m, net.d, net.C
    p = m * C + m * d + m
    if p > _DENSE_GUARD:
        raise ValueError(f"dense Hessian guard exceeded: {p} > {_DENSE_GUARD}")
    if trained_layers != "all":
        raise ValueError("input-only training is defined for the binary network")
    Y = ds.labels
    w2, w1, _ = _margin_weights(net, ds, loss, X, Y, S)
    U = Y @ net.A.T                      # (n, m)
    # Margin gradient rows: [ (S_ik y_i)_{k,alpha}, (U_ik D_ik x_i)_k, (U_ik D_ik)_k ].
    GA = S[:, :, None] * Y[:, None, :]                     # (n, m, C)
    GB = (U * D)[:, :, None] * X[:, None, :]               # (n, m, d)
    Gc = U * D                                             # (n, m)
    G = np.concatenate([GA.reshape(n, m * C), GB.reshape(n, m * d), Gc], axis=1)
    coeff = w2 / n
    Hmat = (G.T * coeff) @ G
    # Curvature cross blocks: d^2 z / d a_{k,alpha} d b_k = y_alpha D_ik x_i,
    # d^2 z / d a_{k,alpha} d c_k = y_alpha D_ik.
    cw = w1 / n
    MB = np.einsum("i,ik,ia,ij->kaj", cw, D, Y, X)         # (m, C, d)
    Mc = (cw[:, None] * D).T @ Y                           # (m, C)
    offB = m * C
    offc = m * C + m * d
    for k in range(m):
        rows = slice(k * C, (k + 1) * C)
        colsB = slice(offB + k * d, offB + (k + 1) * d)
        Hmat[rows, colsB] += MB[k]
        Hmat[colsB, rows] += MB[k].T
        Hmat[rows, offc + k] += Mc[k]
        Hmat[offc + k, rows] += Mc[k]
    return 0.5 * (Hmat + Hmat.T)


def _binary_hessian_matvec(net: BinaryNet, ds: LabeledDataset, loss: LossFamily):
    """Exact Hessian-vector product closure for the binary network (all layers)."""
    n, X = ds.n, ds.inputs
    H = _preact(net, X)
    S = np.maximum(H, 0.0)
    D = (H > 0.0).astype(np.float64)
    Y = ds.labels
    w2, w1, sfac = _margin_weights(net, ds, loss, X, Y, S)
    c2 = (w2 * sfac * sfac) / n
    c1 = (w1 * sfac) / n
    a = net.a
    m, d = net.m, net.d

    def matvec(v: np.ndarray) -> np.ndarray:
        va = v[:m]
        VB = v[m:].reshape(m, d)
        P = X @ VB.T                       # (n, m): x_i^T vB_k
        t = S @ va + (D * P) @ a           # g_i^T v
        out_a = S.T @ (c2 * t) + ((c1[:, None] * D) * P).sum(axis=0)
        out_B = ((D * (c2 * t)[:, None]).T @ X) * a[:, None] \
            + ((c1[:, None] * D).T @ X) * va[:, None]
        return np.concatenate([out_a, out_B.ravel()])

    return matvec, m + m * d


def _multi_hessian_matvec(net: MultiNet, ds: LabeledDataset, loss: LossFamily):
    """Exact Hessian-vector product closure for the multi-output network."""
    n, X = ds.n, ds.inputs
    Hpre = _preact(net, X)
    S = np.maximum(Hpre, 0.0)
    D = (Hpre > 0.0).astype(np.float64)
    Y = ds.labels
    w2, w1, _ = _margin_weights(net, ds, loss, X, Y, S)
    c2 = w2 / n
    c1 = w1 / n
    U = Y @ net.A.T
    m, d, C = net.m, net.d, net.C

    def matvec(v: np.ndarray) -> np.ndarray:
        VA = v[:m * C].reshape(m, C)
        VB = v[m * C:m * C + m * d].reshape(m, d)
        vc = v[m * C + m * d:]
        P = X @ VB.T + vc[None, :]             # (n, m): x_i^T vB_k + vc_k
        YVA = Y @ VA.T                          # (n, m): y_i^T vA_k
        # g_i^T v with g the margin gradient.
        t = (S * YVA).sum(axis=1) + (U * D * P).sum(axis=1)
        ct = c2 * t
        out_A = S.T @ (ct[:, None] * Y) + (c1[:, None] * D * P).T @ Y
        TB = (ct[:, None] * U + c1[:, None] * YVA) * D
        out_B = TB.T @ X
        out_c = TB.sum(axis=0)
        return np.concatenate([out_A.ravel(), out_B.ravel(), out_c])

    return matvec, m * C + m * d + m


def hessian_spectral_norm(net: Net, ds: LabeledDataset, loss: LossFamily,
                          trained_layers: str = "all",
                          dense_limit: int = 1200) -> float:
    """Spectral norm of the empirical-risk Hessian.

    Small problems use a dense symmetric eigendecomposition; larger ones use
    exact Hessian-vector products (same matrix, never approximated) under a
    Lanczos largest-magnitude eigensolve.  Input-only Hessians are a pure
    Gauss-Newton form of rank at most n and are reduced to an n x n
    eigenproblem.
    """
    if isinstance(net, BinaryNet) and trained_layers == "input_only":
        # H = (1/n) sum_i w2_i g_i g_i^T with g_i the input-layer margin
        # gradient; its nonzero spectrum equals that of the n x n matrix
        # K_ij = sqrt(w2_i w2_j)/n * g_i^T g_j (w2 >= 0 for all families).
        X = ds.inputs
        Hpre = _preact(net, X)
        S = np.maximum(Hpre, 0.0)
        D = (Hpre > 0.0).astype(np.float64)
        w2, _, sfac = _margin_weights(net, ds, loss, X, ds.labels, S)
        if np.any(w2 < 0):
            raise ValueError("input-only fast path requires nonnegative curvature weights")
        E = D * net.a[None, :]
        G = (E @ E.T) * (X @ X.T) * np.outer(sfac, sfac)
        r = np.sqrt(w2 / ds.n)
        K = G * np.outer(r, r)
        return float(np.max(np.abs(np.linalg.eigvalsh(K))))

    if isinstance(net, BinaryNet):
        p = net.m * (1 + net.d)
    else:
        p = net.m * (net.C + net.d + 1)
    if p <= dense_limit:
        Hmat = hessian_loss(net, ds, loss, trained_layers)
        return float(np.max(np.abs(np.linalg.eigvalsh(Hmat))))

    from scipy.sparse.linalg import LinearOperator, eigsh
    if isinstance(net, BinaryNet):
        matvec, dim = _binary_hessian_matvec(net, ds, loss)
    else:
        matvec, dim = _multi_hessian_matvec(net, ds, loss)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    vals = eigsh(op, k=1, which="LM", tol=1e-10, maxiter=5000,
                 return_eigenvectors=False)
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

_SNAP_MAGIC = b"RLB1"


def save_snapshot(net: Net, path, kappa: Optional[float] = None,
                  seed: Optional[int] = None, step: Optional[int] = None) -> None:
    """Serialize parameters as a JSON header plus flat little-endian float64 data."""
    if isinstance(net, BinaryNet):
        header = {"variant": "binary", "m": net.m, "d": net.d, "C": None}
    else:
        header = {"variant": "multi", "m": net.m, "d": net.d, "C": net.C}
    header.update({"kappa": kappa, "seed": seed, "step": step})
    blob = json.dumps(header, sort_keys=True).encode()
    flat = flatten_params(net).astype("<f8")
    with open(path, "wb") as f:
        f.write(_SNAP_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(flat.tobytes())


def load_snapshot(path) -> Tuple[Net, dict]:
    """Inverse of save_snapshot."""
    with open(path, "rb") as f:
        if f.read(4) != _SNAP_MAGIC:
            raise ValueError(f"{path}: not a parameter snapshot")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode())
        flat = np.frombuffer(f.read(), dtype="<f8").astype(np.float64)
    m, d = header["m"], header["d"]
    if header["variant"] == "binary":
        if flat.size != m + m * d:
            raise ValueError("snapshot payload size mismatch")
        net: Net = BinaryNet(a=flat[:m].copy(), B=flat[m:].reshape(m, d).copy())
    else:
        C = header["C"]
        if flat.size != m * C + m * d + m:
            raise ValueError("snapshot payload size mismatch")
        net = MultiNet(A=flat[:m * C].reshape(m, C).copy(),
                       B=flat[m * C:m * C + m * d].reshape(m, d).copy(),
                       c=flat[m * C + m * d:].copy())
    return net, header
