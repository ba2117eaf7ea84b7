"""Shared fixtures: small deterministic datasets and networks."""

import io

import numpy as np
import pytest

from relulab.datasets import LabeledDataset, gen_orthant_separable
from relulab.models import InitSpec, init_binary, init_multi
from relulab.training import StepLog, StepWindow, run


def make_onehot_dataset(n: int, d: int, num_classes: int, seed: int) -> LabeledDataset:
    """Nonneg-orthant unit vectors with cyclic one-hot labels (concentrated)."""
    gen = np.random.default_rng(seed)
    x = np.abs(gen.standard_normal((n, d)))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    labels = np.zeros((n, num_classes))
    labels[np.arange(n), np.arange(n) % num_classes] = 1.0
    return LabeledDataset(inputs=x, labels=labels, label_kind="onehot",
                          source=f"test-onehot:n={n},d={d},C={num_classes},seed={seed}")


class KeepNets:
    """A step observer that keeps the network of each step in ``steps``
    (every step by default)."""

    def __init__(self, steps=None):
        self.steps, self.nets = steps, []

    def step(self, t, net, H, alive, record):
        if self.steps is None or t in self.steps:
            self.nets.append(net)


def run_keeping_nets(net0, ds, loss, schedule, config, steps=None, observers=()):
    """``training.run`` plus the networks of the steps in ``steps`` (every
    step by default): (record, nets)."""
    keep = KeepNets(steps)
    return run(net0, ds, loss, schedule, config, [*observers, keep]), keep.nets


def run_recorded(net0, ds, loss, schedule, config, observers=(), every=1):
    """``training.run`` with every step record kept by an observer and
    steps.csv streamed into a string: (record, records, steps.csv text)."""
    window, sink = StepWindow(config.steps, observers), io.StringIO()
    rec = run(net0, ds, loss, schedule, config, [window], StepLog(every, sink))
    return rec, window.records, sink.getvalue()


@pytest.fixture(scope="session")
def small_binary_ds() -> LabeledDataset:
    return gen_orthant_separable(n=12, d=10, seed=7)


@pytest.fixture(scope="session")
def small_onehot_ds() -> LabeledDataset:
    return make_onehot_dataset(n=18, d=12, num_classes=3, seed=7)


@pytest.fixture(scope="session")
def small_binary_net(small_binary_ds):
    return init_binary(32, small_binary_ds.d, InitSpec(kappa=1e-3, seed=5))


@pytest.fixture(scope="session")
def small_multi_net(small_onehot_ds):
    return init_multi(24, small_onehot_ds.d, small_onehot_ds.num_classes,
                      InitSpec(kappa=1e-3, seed=5))
