import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relulab.losses import LOSS_KEYS, _expit, loss_family
from relulab.oracles import verify_exptype_constants, verify_range_constants

_E = math.e


def test_known_keys():
    assert set(LOSS_KEYS) == {"quadratic", "exp", "logistic", "hinge"}
    with pytest.raises(KeyError):
        loss_family("huber")


def test_logistic_constants_hold_on_grid():
    rep = verify_range_constants(loss_family("logistic"))
    assert rep.passed, rep.detail
    fam = loss_family("logistic")
    assert fam.z0 == 1.0
    assert fam.g_min == pytest.approx(1.0 / (_E + 1.0), abs=0)
    assert fam.g_max == 0.5
    assert fam.h_max == 0.25


def test_exp_constants_hold_on_grid():
    rep = verify_range_constants(loss_family("exp"))
    assert rep.passed, rep.detail
    fam = loss_family("exp")
    assert fam.g_min == pytest.approx(1.0 / _E, abs=0)
    assert fam.g_max == 1.0 and fam.h_max == 1.0


def test_hinge_constants_hold_on_grid():
    rep = verify_range_constants(loss_family("hinge"), grid_points=101, z0=0.999)
    assert rep.passed, rep.detail


def test_exptype_inequalities_on_wide_grid():
    for key in ("exp", "logistic"):
        rep = verify_exptype_constants(loss_family(key))
        assert rep.passed, (key, rep.detail)


def test_logistic_value_is_stable_for_large_arguments():
    fam = loss_family("logistic")
    z = np.array([-800.0, -50.0, 0.0, 50.0, 800.0])
    v = fam.value(z)
    assert np.all(np.isfinite(v))
    assert v[0] == pytest.approx(800.0, rel=1e-12)
    assert v[2] == pytest.approx(math.log(2.0), rel=1e-12)
    assert v[4] == pytest.approx(0.0, abs=1e-300)


@given(st.sampled_from(["quadratic", "exp", "logistic"]),
       st.floats(-30.0, 30.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_derivatives_match_finite_differences(key, z):
    fam = loss_family(key)
    h = 1e-6
    za = np.array([z])
    fd1 = float((fam.value(za + h) - fam.value(za - h))[0] / (2 * h))
    fd2 = float((fam.deriv(za + h) - fam.deriv(za - h))[0] / (2 * h))
    assert float(fam.deriv(za)[0]) == pytest.approx(fd1, rel=1e-5, abs=1e-8)
    assert float(fam.second_deriv(za)[0]) == pytest.approx(fd2, rel=1e-4, abs=1e-8)


def test_hinge_derivative_convention():
    fam = loss_family("hinge")
    z = np.array([-2.0, 0.0, 0.5, 1.0, 3.0])
    assert np.array_equal(fam.deriv(z), np.array([-1.0, -1.0, -1.0, 0.0, 0.0]))
    assert np.array_equal(fam.value(z), np.array([3.0, 1.0, 0.5, 0.0, 0.0]))


def _expit_grid():
    """Edge values first, then a random grid across scales."""
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 5e-324, -5e-324]
    edge = np.linspace(709.78, 709.9, 241)
    scales = (1e-300, 1e-8, 1e-3, 1.0, 10.0, 40.0, 100.0, 750.0)
    return np.concatenate([special, edge, -edge]
                          + [rng.standard_normal(20_000) * s for s in scales])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.int64), b.view(np.int64))


def test_expit_matches_scipy_bit_for_bit():
    expit = pytest.importorskip("scipy.special").expit
    z = _expit_grid()
    assert _same_bits(_expit(z), expit(z))


@pytest.mark.parametrize("ndim", [0, 1, 2])
def test_logistic_derivatives_match_scipy_bit_for_bit(ndim):
    expit = pytest.importorskip("scipy.special").expit
    fam = loss_family("logistic")
    grid = _expit_grid()
    if ndim == 0:
        inputs = [np.array(v) for v in grid[:1000]]
    else:
        inputs = [grid if ndim == 1 else grid[:grid.size // 7 * 7].reshape(-1, 7)]
    for z in inputs:
        assert _same_bits(fam.deriv(z), -expit(-z))
        assert _same_bits(fam.second_deriv(z), expit(z) * expit(-z))


def test_logistic_value_keeps_the_bits_of_the_two_branch_form():
    """max(-z, 0) + log1p(e^-|z|) against the form that picks log1p(e^-|z|)
    for z > 0 and -min(z, 0) + log1p(e^-|z|) otherwise."""
    z = np.concatenate([_expit_grid(), [1e308, -1e308, 709.8, -709.8, 2.2e-308, -2.2e-308, 30.0]])
    tail = np.log1p(np.exp(-np.abs(z)))
    two_branch = np.where(z > 0, tail, -np.minimum(z, 0.0) + tail)
    assert _same_bits(loss_family("logistic").value(z), two_branch)
    assert _same_bits(loss_family("logistic").value(z.reshape(-1, 2)), two_branch.reshape(-1, 2))


def _residual_grid():
    """Signed zeros, subnormals, outputs whose squares overflow, non-finite
    values, the zero residuals f = +-1, then random outputs."""
    rng = np.random.default_rng(1)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e154, -1e154,
               1e200, -1e200, np.inf, -np.inf, np.nan, 1.0, -1.0]
    return np.concatenate([special, rng.standard_normal(20_000),
                           rng.standard_normal(1000) * 1e154])


@pytest.mark.parametrize("y", [1.0, -1.0])
def test_quadratic_margin_loss_is_the_squared_error_bit_for_bit(y):
    """(1 - yf)^2 / 2 and l'(yf) y against (f - y)^2 / 2 and f - y.

    Negation and products with +-1 are exact, so the bits agree; the one
    exception is the sign of an exactly zero residual at y = -1, where
    l'(1) * -1 is -0 and f - y is +0."""
    fam = loss_family("quadratic")
    f = _residual_grid()
    Y = np.full_like(f, y)
    z = Y * f
    r = f - Y
    with np.errstate(over="ignore"):     # squares past 1.8e308 overflow to inf
        assert _same_bits(fam.value(z), 0.5 * r * r)
    w = fam.deriv(z) * Y
    zero = r == 0.0
    assert np.count_nonzero(zero) == 1
    assert _same_bits(w[~zero], r[~zero]) and np.all(w[zero] == 0.0)
    assert np.array_equal(fam.second_deriv(z), np.ones_like(f))
