"""Two-layer ReLU networks: initialization, evaluation, gradients, Hessians.

Two architectures are supported:

* ``BinaryNet``  — scalar output, no bias: f(x) = sum_k a_k sigma(b_k^T x);
* ``MultiNet``   — C outputs with per-neuron bias: f(x) = sum_k a_k sigma(b_k^T x + c_k),
  with a_k a C-vector.

The activation pattern of every neuron on every sample is the object the
gradient bounds rest on.  ``preactivation`` is the one place that forms
H = X B^T (+ c); one activation pass over a sample subset derives from it
S = sigma(H), the boolean activity mask D = [H > 0], the outputs f and the
margins z.  The loss, margins, gradient, ``evaluate`` (all of them at once,
as a training step needs), the Hessian-vector product and the certificates'
Gram matrices all read that pass.  The Hessian's spectral norm is a Lanczos
solve on the exact Hessian-vector product.

The derivative convention at the ReLU kink is sigma'(0) = 0: every activity
indicator is the strict comparison ``preactivation > 0``.  All arithmetic is
64-bit.  Each network lists its arrays in flat parameter order as ``params``:
(a, B) for BinaryNet and (A, B, c) for MultiNet; the digest, the flat vector
and the descent step read that one layout.
"""

from __future__ import annotations

import hashlib
import math
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
    "digest",
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

    @property
    def params(self) -> tuple:
        return self.a, self.B

    @property
    def output_weights(self) -> np.ndarray:
        return self.a


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

    @property
    def params(self) -> tuple:
        return self.A, self.B, self.c

    @property
    def output_weights(self) -> np.ndarray:
        return self.A


def digest(net: Net) -> str:
    """SHA-256 of the parameter arrays' bytes in flat order."""
    h = hashlib.sha256()
    for arr in net.params:
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
        H += net.c
    return H


def _activations(net: Net, ds: LabeledDataset, subset: Optional[np.ndarray] = None,
                 H: Optional[np.ndarray] = None):
    """One pass over the (multi)set of sample indices (full data by default).

    Returns (X, Y, S, D, f, z): inputs, labels, S = relu(H), the boolean
    mask D = [H > 0], outputs f and margins z for H = preactivation(net, X).
    D enters the arithmetic as 0.0 / 1.0.  A caller that already holds the
    full-data H passes it in place of forming it again.
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
    D = H > 0.0
    S = np.maximum(H, 0.0)
    if isinstance(net, BinaryNet):
        f = S @ net.a
        return X, Y, S, D, f, Y * f
    f = S @ net.A
    return X, Y, S, D, f, np.sum(Y * f, axis=1)


def _refuse_multi_quadratic(net: Net, loss: LossFamily) -> None:
    """With one-hot labels (1 - y^T f)^2 / 2 is not the squared error."""
    if isinstance(net, MultiNet) and loss.kind == "quadratic":
        raise TypeError("quadratic loss is implemented for the binary network")


def _risk(net: Net, loss: LossFamily, z) -> float:
    """The mean loss over the margins z, shape (n,): ``np.add.reduce(v) / n``
    has the bits of ``np.mean(v)`` without its dispatch."""
    _refuse_multi_quadratic(net, loss)
    v = loss.value(z)
    return float(np.add.reduce(v)) / v.size


def _grad_parts(net: Net, loss: LossFamily, trained_layers: str, X, Y, S, D, z):
    _refuse_multi_quadratic(net, loss)
    nsub = X.shape[0]
    if nsub == 0:
        raise ValueError("empty sample subset")
    if isinstance(net, BinaryNet):
        w = loss.deriv(z) * Y / nsub
        ga = S.T @ w
        # A float copy of the mask, scaled in place: numpy's mixed
        # bool-float product takes its slower, buffered loop.
        M = D.astype(np.float64)
        gB = np.multiply(M, w[:, None], out=M).T @ X
        gB *= net.a[:, None]
        if trained_layers == "input_only":
            ga = np.zeros_like(ga)
        elif trained_layers != "all":
            raise ValueError(f"unknown trained_layers {trained_layers!r}")
        return ga, gB

    if trained_layers != "all":
        raise ValueError("input-only training is defined for the binary network")
    w = loss.deriv(z) / nsub
    gA = S.T @ (w[:, None] * Y)
    T = Y @ net.A.T           # y_i^T a_k on active pairs, weighted, in place
    T *= D
    T *= w[:, None]
    return gA, T.T @ X, T.sum(axis=0)


def evaluate(net: Net, ds: LabeledDataset, loss: LossFamily, trained_layers: str = "all"):
    """(L, z, f, grad parts, H, alive) from one activation pass over the full
    data; see ``loss_value``, ``per_sample_margins``, ``forward`` and
    ``grad_loss_struct``.  H is the preactivation the pass was built on and
    alive = [H > 0] its activity mask, the pass's own D.  S = relu(H) is not
    returned: it dies with the pass."""
    H = preactivation(net, ds.inputs)
    X, Y, S, alive, f, z = _activations(net, ds, H=H)
    return (_risk(net, loss, z), z, f,
            _grad_parts(net, loss, trained_layers, X, Y, S, alive, z), H, alive)


def forward(net: Net, x: np.ndarray) -> np.ndarray:
    """Network output for a single input (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != net.d:
        raise ValueError(f"input dimension {X.shape[1]} != network dimension {net.d}")
    S = np.maximum(preactivation(net, X), 0.0)
    out = S @ net.output_weights
    return out[0] if single else out


def per_sample_margins(net: Net, ds: LabeledDataset) -> np.ndarray:
    """z_i = y_i f(x_i) (binary) or y_i^T f(x_i) (one-hot)."""
    return _activations(net, ds)[5]


def loss_value(net: Net, ds: LabeledDataset, loss: LossFamily) -> float:
    """Empirical risk over the full data."""
    return _risk(net, loss, _activations(net, ds)[5])


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
    X, Y, S, D, _, z = _activations(net, ds, subset)
    return _grad_parts(net, loss, trained_layers, X, Y, S, D, z)


def _flatten_struct(parts) -> np.ndarray:
    return np.concatenate([np.asarray(p).ravel() for p in parts])


def flatten_params(net: Net) -> np.ndarray:
    return _flatten_struct(net.params)


def apply_gradient(net: Net, parts, eta: float) -> Net:
    """One descent step p - eta * g; consumes ``parts``: eta * g is formed in g's own buffer."""
    return type(net)(*(p - np.multiply(eta, g, out=g) for p, g in zip(net.params, parts)))


def param_norm(net: Net) -> float:
    """Euclidean norm of the full flat parameter vector: the square root of its
    BLAS dot product with itself, as ``np.linalg.norm`` forms it."""
    flat = flatten_params(net)
    return math.sqrt(flat.dot(flat))


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

def _hessian_matvec(net: Net, ds: LabeledDataset, loss: LossFamily):
    """Exact Hessian-vector product closure (all layers) and the parameter count."""
    _refuse_multi_quadratic(net, loss)
    X, Y, S, D, _, z = _activations(net, ds)
    n, m, d = ds.n, net.m, net.d
    c2 = loss.second_deriv(z) / n

    if isinstance(net, BinaryNet):
        c1 = loss.deriv(z) * Y / n
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
    c1 = loss.deriv(z) / n
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


def hessian_spectral_norm(net: Net, ds: LabeledDataset, loss: LossFamily,
                          trained_layers: str = "all") -> float:
    """Spectral norm of the empirical-risk Hessian.

    A Lanczos largest-magnitude eigensolve on the exact Hessian-vector
    product (the matrix is never formed or approximated).  The input-only
    Hessian (binary network) is a pure Gauss-Newton form of rank at most n
    and is reduced to an n x n eigenproblem instead.
    """
    if trained_layers == "input_only":
        if not isinstance(net, BinaryNet):
            raise ValueError("input-only training is defined for the binary network")
        # H = (1/n) sum_i w2_i g_i g_i^T with g_i the input-layer margin
        # gradient; its nonzero spectrum equals that of the n x n matrix
        # K_ij = sqrt(w2_i w2_j)/n * g_i^T g_j (w2 >= 0 for all families).
        X, Y, _, D, _, z = _activations(net, ds)
        w2 = loss.second_deriv(z)
        if np.any(w2 < 0):
            raise ValueError("input-only fast path requires nonnegative curvature weights")
        E = D * net.a[None, :]
        G = (E @ E.T) * (X @ X.T) * np.outer(Y, Y)
        r = np.sqrt(w2 / ds.n)
        K = G * np.outer(r, r)
        return float(np.max(np.abs(np.linalg.eigvalsh(K))))

    from scipy.sparse.linalg import LinearOperator, eigsh
    matvec, dim = _hessian_matvec(net, ds, loss)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    # A seeded start vector: ARPACK's own random start makes the last digits
    # differ from call to call.
    v0 = rng.normal(rng.make_generator(0, stream=2), dim)
    vals = eigsh(op, k=1, which="LM", tol=1e-10, maxiter=5000, v0=v0,
                 return_eigenvectors=False)
    return float(np.max(np.abs(vals)))
