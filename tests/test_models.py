import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relulab.datasets import gen_orthant_separable
from relulab.losses import loss_family
from relulab.models import (
    BinaryNet,
    InitSpec,
    MultiNet,
    apply_gradient,
    flatten_params,
    forward,
    grad_loss_struct,
    hessian_loss,
    hessian_spectral_norm,
    init_binary,
    init_multi,
    loss_value,
    param_norm,
    per_sample_margins,
)
from relulab.oracles import (
    fd_gradient,
    fd_hessian_vector,
    grad_loss,
    loss_of_flat,
    min_preactivation_gap,
    unflatten_like,
)
from tests.conftest import make_onehot_dataset


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_binary_init_exact_magnitudes():
    m, d, kappa = 64, 9, 0.02
    net = init_binary(m, d, InitSpec(kappa=kappa, seed=0))
    assert np.all(np.abs(net.a) == 1.0 / math.sqrt(m))
    # Row variance close to kappa^2/(m d) per coordinate.
    var = float(np.var(net.B))
    assert var == pytest.approx(kappa ** 2 / (m * d), rel=0.2)


def test_multi_init_exact_constants():
    m, d, C, kappa = 32, 5, 4, 0.05
    net = init_multi(m, d, C, InitSpec(kappa=kappa, seed=1))
    assert np.all(net.A == 1.0 / math.sqrt(m))
    assert np.all(net.c == kappa / math.sqrt(m * (d + 1)))
    assert float(np.var(net.B)) == pytest.approx(kappa ** 2 / (m * (d + 1)), rel=0.3)


def test_init_is_deterministic():
    a = init_binary(16, 4, InitSpec(kappa=0.1, seed=9))
    b = init_binary(16, 4, InitSpec(kappa=0.1, seed=9))
    assert a.digest() == b.digest()
    assert a.digest() != init_binary(16, 4, InitSpec(kappa=0.1, seed=10)).digest()


# ---------------------------------------------------------------------------
# Forward / margins
# ---------------------------------------------------------------------------

def test_binary_forward_matches_direct_formula(small_binary_ds, small_binary_net):
    net, ds = small_binary_net, small_binary_ds
    x = ds.inputs[3]
    direct = float(np.sum(net.a * np.maximum(net.B @ x, 0.0)))
    assert float(forward(net, x)) == pytest.approx(direct, rel=1e-14)


def test_multi_forward_shape_and_margins(small_onehot_ds, small_multi_net):
    out = forward(small_multi_net, small_onehot_ds.inputs)
    assert out.shape == (small_onehot_ds.n, small_onehot_ds.num_classes)
    z = per_sample_margins(small_multi_net, small_onehot_ds)
    direct = np.sum(out * small_onehot_ds.labels, axis=1)
    assert np.allclose(z, direct, atol=1e-15)


@given(st.floats(0.1, 5.0))
@settings(max_examples=20, deadline=None)
def test_forward_positive_homogeneity_in_input_layer(c, ):
    net = init_binary(8, 5, InitSpec(kappa=0.3, seed=2))
    scaled = BinaryNet(a=net.a, B=c * net.B)
    gen = np.random.default_rng(0)
    x = gen.standard_normal(5)
    assert float(forward(scaled, x)) == pytest.approx(c * float(forward(net, x)), rel=1e-10)


# ---------------------------------------------------------------------------
# Gradients vs finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss_key", ["quadratic", "exp", "logistic", "hinge"])
def test_binary_gradient_matches_fd(small_binary_ds, loss_key):
    ds = small_binary_ds
    net = init_binary(8, ds.d, InitSpec(kappa=0.5, seed=11))
    lf = loss_family(loss_key)
    assert min_preactivation_gap(net, ds) > 1e-4
    g = grad_loss(net, ds, lf)
    fd = fd_gradient(loss_of_flat(net, ds, lf), flatten_params(net))
    assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("loss_key", ["exp", "logistic", "hinge"])
def test_multi_gradient_matches_fd(small_onehot_ds, loss_key):
    ds = small_onehot_ds
    net = init_multi(6, ds.d, ds.num_classes, InitSpec(kappa=0.5, seed=12))
    lf = loss_family(loss_key)
    assert min_preactivation_gap(net, ds) > 1e-4
    g = grad_loss(net, ds, lf)
    fd = fd_gradient(loss_of_flat(net, ds, lf), flatten_params(net))
    assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_input_only_gradient_masks_output_layer(small_binary_ds):
    ds = small_binary_ds
    net = init_binary(8, ds.d, InitSpec(kappa=0.5, seed=13))
    parts = grad_loss_struct(net, ds, loss_family("exp"), trained_layers="input_only")
    assert np.all(parts[0] == 0.0)
    assert np.any(parts[1] != 0.0)


def test_quadratic_loss_requires_binary_labels(small_onehot_ds):
    net = init_multi(4, small_onehot_ds.d, small_onehot_ds.num_classes,
                     InitSpec(kappa=0.1, seed=0))
    with pytest.raises(TypeError):
        loss_value(net, small_onehot_ds, loss_family("quadratic"))


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss_key", ["quadratic", "exp", "logistic"])
def test_binary_hessian_matches_fd_hvp(small_binary_ds, loss_key):
    ds = small_binary_ds
    net = init_binary(6, ds.d, InitSpec(kappa=0.6, seed=21))
    lf = loss_family(loss_key)
    assert min_preactivation_gap(net, ds) > 1e-3
    H = hessian_loss(net, ds, lf)
    assert np.max(np.abs(H - H.T)) == 0.0
    flat = flatten_params(net)
    gen = np.random.default_rng(0)
    for _ in range(3):
        v = gen.standard_normal(flat.size)
        hv_fd = fd_hessian_vector(loss_of_flat(net, ds, lf), flat, v)
        assert np.linalg.norm(H @ v - hv_fd) <= 2e-4 * max(1.0, np.linalg.norm(hv_fd))


def test_multi_hessian_matches_fd_hvp(small_onehot_ds):
    ds = small_onehot_ds
    net = init_multi(5, ds.d, ds.num_classes, InitSpec(kappa=0.6, seed=22))
    lf = loss_family("logistic")
    H = hessian_loss(net, ds, lf)
    assert np.max(np.abs(H - H.T)) == 0.0
    flat = flatten_params(net)
    gen = np.random.default_rng(1)
    v = gen.standard_normal(flat.size)
    hv_fd = fd_hessian_vector(loss_of_flat(net, ds, lf), flat, v)
    assert np.linalg.norm(H @ v - hv_fd) <= 2e-4 * max(1.0, np.linalg.norm(hv_fd))


def test_spectral_norm_dense_and_operator_paths_agree(small_binary_ds):
    ds = small_binary_ds
    net = init_binary(10, ds.d, InitSpec(kappa=0.4, seed=23))
    lf = loss_family("exp")
    dense = hessian_spectral_norm(net, ds, lf, dense_limit=10_000)
    operator = hessian_spectral_norm(net, ds, lf, dense_limit=1)
    assert operator == pytest.approx(dense, rel=1e-8)


def test_input_only_spectral_norm_fast_path_matches_dense(small_binary_ds):
    ds = small_binary_ds
    net = init_binary(10, ds.d, InitSpec(kappa=0.4, seed=24))
    lf = loss_family("exp")
    fast = hessian_spectral_norm(net, ds, lf, trained_layers="input_only")
    H = hessian_loss(net, ds, lf, trained_layers="input_only")
    dense = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    assert fast == pytest.approx(dense, rel=1e-9)


# ---------------------------------------------------------------------------
# Flatten round trip
# ---------------------------------------------------------------------------

def test_unflatten_round_trip(small_binary_net, small_multi_net):
    for net in (small_binary_net, small_multi_net):
        back = unflatten_like(net, flatten_params(net))
        assert back.digest() == net.digest()


def test_param_norm_matches_flat_norm(small_multi_net):
    assert param_norm(small_multi_net) == pytest.approx(
        float(np.linalg.norm(flatten_params(small_multi_net))), rel=1e-15)


def test_apply_gradient_is_one_descent_step(small_binary_ds):
    ds = small_binary_ds
    net = init_binary(8, ds.d, InitSpec(kappa=0.3, seed=31))
    lf = loss_family("quadratic")
    parts = grad_loss_struct(net, ds, lf)
    stepped = apply_gradient(net, parts, eta=0.05)
    expected = flatten_params(net) - 0.05 * grad_loss(net, ds, lf)
    assert np.allclose(flatten_params(stepped), expected, atol=0)
