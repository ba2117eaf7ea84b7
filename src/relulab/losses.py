"""Loss families with certified derivative constants.

Each family evaluates a scalar loss ``ltilde(z)`` of the label/prediction
inner product z (the quadratic loss is handled separately by the training
engine because it is a function of the residual, not of the margin).  Two
kinds of constant certificates are supported:

* margin-range constants (z0, g_min, g_max, h_max): on [0, z0] the negated
  first derivative lies in [g_min, g_max] and the second derivative in
  [0, h_max];
* exponential-type constants (g_a, g_b, h): everywhere, -ltilde'(z)/ltilde(z)
  is at most g_b and ltilde''(z)/ltilde(z) lies in [0, h]; for z >= 0 the
  ratio -ltilde'/ltilde is at least g_a.

``oracles.verify_range_constants`` / ``verify_exptype_constants`` check those
inequalities on dense grids and report the worst-case slack, so a wrongly
declared constant fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

__all__ = [
    "LossFamily",
    "loss_family",
    "LOSS_KEYS",
]


@dataclass(frozen=True)
class LossFamily:
    """A margin-form loss ltilde with its certified constants.

    ``kind`` is one of ``quadratic``, ``general`` (margin-range constants
    apply), ``exptype`` (ratio constants additionally apply).
    """

    name: str
    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second_deriv: Callable[[np.ndarray], np.ndarray]
    z0: Optional[float] = None
    g_min: Optional[float] = None
    g_max: Optional[float] = None
    h_max: Optional[float] = None
    g_a: Optional[float] = None
    g_b: Optional[float] = None
    h: Optional[float] = None

    @property
    def is_quadratic(self) -> bool:
        return self.kind == "quadratic"


def _logistic_value(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    # log(1 + e^-z), stable on both tails: for z < -30 the direct form
    # overflows, so use -z + log1p(e^z).
    out = np.where(z > 0, np.log1p(np.exp(-np.abs(z))), -np.minimum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
    return out


def _logistic_deriv(z: np.ndarray) -> np.ndarray:
    # d/dz log(1+e^-z) = -1/(1+e^z) = -sigmoid(-z)
    return -expit(-np.asarray(z, dtype=np.float64))


def _logistic_second(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return expit(z) * expit(-z)


def _exp_value(z):
    return np.exp(-np.asarray(z, dtype=np.float64))


def _exp_deriv(z):
    return -np.exp(-np.asarray(z, dtype=np.float64))


def _hinge_value(z):
    return np.maximum(1.0 - np.asarray(z, dtype=np.float64), 0.0)


def _hinge_deriv(z):
    z = np.asarray(z, dtype=np.float64)
    # Subgradient at the kink z=1 taken as 0 (dead side), mirroring the
    # ReLU convention sigma'(0)=0 used throughout.
    return np.where(z < 1.0, -1.0, 0.0)


def _zero(z):
    return np.zeros_like(np.asarray(z, dtype=np.float64))


def _quad_unused(z):
    raise TypeError("quadratic loss is residual-based; margin evaluators are undefined")


_E = float(np.e)

_FAMILIES = {
    "quadratic": LossFamily(
        name="quadratic", kind="quadratic",
        value=_quad_unused, deriv=_quad_unused, second_deriv=_quad_unused,
    ),
    "exp": LossFamily(
        name="exp", kind="exptype",
        value=_exp_value, deriv=_exp_deriv, second_deriv=_exp_value,
        z0=1.0, g_min=1.0 / _E, g_max=1.0, h_max=1.0,
        g_a=1.0, g_b=1.0, h=1.0,
    ),
    "logistic": LossFamily(
        name="logistic", kind="exptype",
        value=_logistic_value, deriv=_logistic_deriv, second_deriv=_logistic_second,
        z0=1.0, g_min=1.0 / (_E + 1.0), g_max=0.5, h_max=0.25,
        g_a=0.5, g_b=1.0, h=1.0,
    ),
    "hinge": LossFamily(
        name="hinge", kind="general",
        value=_hinge_value, deriv=_hinge_deriv, second_deriv=_zero,
        z0=1.0, g_min=1.0, g_max=1.0, h_max=0.0,
    ),
}

LOSS_KEYS = tuple(sorted(_FAMILIES))


def loss_family(key: str) -> LossFamily:
    """Look up a loss family by its config key."""
    try:
        return _FAMILIES[key]
    except KeyError:
        raise KeyError(f"unknown loss key {key!r}; known: {', '.join(LOSS_KEYS)}") from None
