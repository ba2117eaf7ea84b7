import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relulab.losses import LOSS_KEYS, loss_family
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


@given(st.sampled_from(["exp", "logistic"]),
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
