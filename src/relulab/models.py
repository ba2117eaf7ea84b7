"""Two-layer ReLU networks: initialization, evaluation, gradients, Hessians.

Two architectures are supported:

* ``BinaryNet``  — scalar output, no bias: f(x) = sum_k a_k sigma(b_k^T x);
* ``MultiNet``   — C outputs with per-neuron bias: f(x) = sum_k a_k sigma(b_k^T x + c_k),
  with a_k a C-vector.

The activation pattern of every neuron on every sample is the object the
gradient bounds rest on.  ``preactivation`` is the one place that forms
H = X B^T (+ c); one activation pass over a sample subset derives from it
S = sigma(H), D = [H > 0], the outputs f and the margins z.  The loss,
margins, gradient, ``evaluate`` (all of them at once, as a training step
needs), the Hessian-vector product and the certificates' Gram matrices all
read that pass.  The dense Hessian is the Hessian-vector product applied to
the unit vectors.

The derivative convention at the ReLU kink is sigma'(0) = 0: every activity
indicator is the strict comparison ``preactivation > 0``.  All arithmetic is
64-bit.  Flat parameter order is [a, B.ravel()] for BinaryNet and
[A.ravel(), B.ravel(), c] for MultiNet.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

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
    "preactivation",
    "evaluate",
    "forward",
    "loss_value",
    "per_sample_margins",
    "grad_loss_struct",
    "apply_gradient",
    "flatten_params",
    "param_norm",
    "hessian_loss",
    "hessian_spectral_norm",
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
# The activation pass
# ---------------------------------------------------------------------------

def preactivation(net: Net, X: np.ndarray) -> np.ndarray:
    """Pre-activations H = X B^T (+ c), shape (n, m)."""
    H = X @ net.B.T
    if isinstance(net, MultiNet):
        H = H + net.c[None, :]
    return H


def _activations(net: Net, ds: LabeledDataset, subset: Optional[np.ndarray] = None,
                 H: Optional[np.ndarray] = None):
    """One pass over the (multi)set of sample indices (full data by default).

    Returns (X, Y, S, D, f, z): inputs, labels, S = relu(H), D = [H > 0],
    outputs f and margins z for H = preactivation(net, X).  A caller that
    already holds the full-data H passes it in place of forming it again.
    """
    kind = "binary" if isinstance(net, BinaryNet) else "onehot"
    if ds.label_kind != kind:
        raise TypeError(f"{type(net).__name__} requires {kind} labels")
    if subset is None:
        X, Y = ds.inputs, ds.labels
    else:
        idx = np.asarray(subset)
        X, Y = ds.inputs[idx], ds.labels[idx]
    if H is None:
        H = preactivation(net, X)
    S = np.maximum(H, 0.0)
    D = (H > 0.0).astype(np.float64)
    if isinstance(net, BinaryNet):
        f = S @ net.a
        return X, Y, S, D, f, Y * f
    f = S @ net.A
    return X, Y, S, D, f, np.sum(Y * f, axis=1)


def _risk(net: Net, loss: LossFamily, Y, f, z) -> float:
    if loss.is_quadratic:
        if not isinstance(net, BinaryNet):
            raise TypeError("quadratic loss is implemented for the binary network")
        r = f - Y
        return float(np.mean(0.5 * r * r))
    return float(np.mean(loss.value(z)))


def _grad_parts(net: Net, loss: LossFamily, trained_layers: str, X, Y, S, D, f, z):
    nsub = X.shape[0]
    if nsub == 0:
        raise ValueError("empty sample subset")
    if isinstance(net, BinaryNet):
        w = (f - Y) / nsub if loss.is_quadratic else loss.deriv(z) * Y / nsub
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
    w = loss.deriv(z) / nsub
    gA = S.T @ (w[:, None] * Y)
    T = D * (Y @ net.A.T) * w[:, None]   # y_i^T a_k on active pairs, weighted
    return gA, T.T @ X, T.sum(axis=0)


def evaluate(net: Net, ds: LabeledDataset, loss: LossFamily, trained_layers: str = "all"):
    """(L, z, f, grad parts, H) from one activation pass over the full data;
    see ``loss_value``, ``per_sample_margins``, ``forward`` and
    ``grad_loss_struct``.  H is the preactivation the pass was built on."""
    H = preactivation(net, ds.inputs)
    X, Y, S, D, f, z = _activations(net, ds, H=H)
    return (_risk(net, loss, Y, f, z), z, f,
            _grad_parts(net, loss, trained_layers, X, Y, S, D, f, z), H)


def forward(net: Net, x: np.ndarray) -> np.ndarray:
    """Network output for a single input (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != net.d:
        raise ValueError(f"input dimension {X.shape[1]} != network dimension {net.d}")
    S = np.maximum(preactivation(net, X), 0.0)
    out = S @ (net.a if isinstance(net, BinaryNet) else net.A)
    return out[0] if single else out


def per_sample_margins(net: Net, ds: LabeledDataset) -> np.ndarray:
    """z_i = y_i f(x_i) (binary) or y_i^T f(x_i) (one-hot)."""
    return _activations(net, ds)[5]


def loss_value(net: Net, ds: LabeledDataset, loss: LossFamily) -> float:
    """Empirical risk over the full data."""
    _, Y, _, _, f, z = _activations(net, ds)
    return _risk(net, loss, Y, f, z)


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
    return _grad_parts(net, loss, trained_layers, *_activations(net, ds, subset))


def flatten_params(net: Net) -> np.ndarray:
    if isinstance(net, BinaryNet):
        return np.concatenate([net.a, net.B.ravel()])
    return np.concatenate([net.A.ravel(), net.B.ravel(), net.c])


def _flatten_struct(parts) -> np.ndarray:
    return np.concatenate([np.asarray(p).ravel() for p in parts])


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


def _margin_weights(net: Net, loss: LossFamily, Y, f, z):
    """Return (w2, w1, sfac): per-sample second/first derivative weights and
    the factor mapping model-output gradients to margin gradients."""
    if isinstance(net, MultiNet):
        return loss.second_deriv(z), loss.deriv(z), None
    if loss.is_quadratic:
        return np.ones_like(f), f - Y, np.ones_like(f)
    return loss.second_deriv(z), loss.deriv(z), Y


def _hessian_matvec(net: Net, ds: LabeledDataset, loss: LossFamily):
    """Exact Hessian-vector product closure (all layers) and the parameter count."""
    X, Y, S, D, f, z = _activations(net, ds)
    w2, w1, sfac = _margin_weights(net, loss, Y, f, z)
    n, m, d = ds.n, net.m, net.d

    if isinstance(net, BinaryNet):
        c2 = (w2 * sfac * sfac) / n
        c1 = (w1 * sfac) / n
        a = net.a

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

    C = net.C
    c2 = w2 / n
    c1 = w1 / n
    U = Y @ net.A.T

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


def hessian_loss(net: Net, ds: LabeledDataset, loss: LossFamily,
                 trained_layers: str = "all") -> np.ndarray:
    """Dense Hessian of the empirical risk in flat parameter order.

    Its columns are the exact Hessian-vector products of the unit vectors,
    so the dense and the operator paths share one formula.  The input-only
    Hessian (binary network) is the input-layer block.  Guarded at 20000
    parameters.
    """
    if isinstance(net, MultiNet) and trained_layers != "all":
        raise ValueError("input-only training is defined for the binary network")
    matvec, dim = _hessian_matvec(net, ds, loss)
    first = net.m if trained_layers == "input_only" else 0
    if dim - first > _DENSE_GUARD:
        raise ValueError(f"dense Hessian guard exceeded: {dim - first} > {_DENSE_GUARD}")
    Hmat = np.empty((dim - first, dim - first))
    e = np.zeros(dim)
    for j in range(first, dim):
        e[j] = 1.0
        Hmat[:, j - first] = matvec(e)[first:]
        e[j] = 0.0
    return 0.5 * (Hmat + Hmat.T)


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
        X, Y, _, D, f, z = _activations(net, ds)
        w2, _, sfac = _margin_weights(net, loss, Y, f, z)
        if np.any(w2 < 0):
            raise ValueError("input-only fast path requires nonnegative curvature weights")
        E = D * net.a[None, :]
        G = (E @ E.T) * (X @ X.T) * np.outer(sfac, sfac)
        r = np.sqrt(w2 / ds.n)
        K = G * np.outer(r, r)
        return float(np.max(np.abs(np.linalg.eigvalsh(K))))

    if flatten_params(net).size <= dense_limit:
        Hmat = hessian_loss(net, ds, loss, trained_layers)
        return float(np.max(np.abs(np.linalg.eigvalsh(Hmat))))

    from scipy.sparse.linalg import LinearOperator, eigsh
    matvec, dim = _hessian_matvec(net, ds, loss)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    vals = eigsh(op, k=1, which="LM", tol=1e-10, maxiter=5000,
                 return_eigenvectors=False)
    return float(np.max(np.abs(vals)))
