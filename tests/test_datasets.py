import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relulab.datasets import (
    LabeledDataset,
    _has_antipodal_pair,
    compute_gamma_constants,
    compute_V,
    exact_sum,
    export_dataset_csv,
    gen_orthant_separable,
    load_idx_images,
    load_idx_labels,
    load_mnist,
    validate_separable,
    write_idx_images,
    write_idx_labels,
)


def binary_ds(inputs, labels):
    return LabeledDataset(inputs=np.asarray(inputs, dtype=float),
                          labels=np.asarray(labels, dtype=float),
                          label_kind="binary", source="test")


# ---------------------------------------------------------------------------
# Generation and separability
# ---------------------------------------------------------------------------

def test_generated_dataset_is_orthant_separable():
    ds = gen_orthant_separable(n=20, d=8, seed=0)
    x, y = ds.inputs, ds.labels
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    same = np.outer(y, y) > 0
    gram = x @ x.T
    assert np.all(gram[same] >= -1e-12)
    assert np.all(gram[~same] <= 1e-12)
    rep = validate_separable(ds)
    assert rep.separable
    assert rep.mu0 == 1.0  # antipodal pair present by default


def test_antipodal_pair_gives_mu0_one():
    ds = gen_orthant_separable(n=10, d=6, seed=3, include_antipodal=True)
    assert np.allclose(ds.inputs[0], -ds.inputs[5], atol=1e-15)
    assert validate_separable(ds).mu0 == 1.0


def _has_antipodal_pair_loop(ds, tol=1e-12):
    """Row-by-row reference: some x_j with opposite label and ||x_i + x_j||^2 <= tol."""
    x, y = ds.inputs, ds.labels
    cross, sq = x @ x.T, np.sum(x * x, axis=1)
    return any(np.any((sq[i] + sq + 2.0 * cross[i] <= tol) & (y * y[i] < 0))
               for i in range(ds.n))


@pytest.mark.parametrize("seed", range(4))
def test_antipodal_pair_check_matches_the_row_loop(seed):
    for antipodal in (True, False):
        ds = gen_orthant_separable(n=12, d=5, seed=seed, include_antipodal=antipodal)
        assert _has_antipodal_pair(ds) == _has_antipodal_pair_loop(ds) == antipodal
    # Either side of the tolerance (||x_i + x_j||^2 = 1e-10 and 1e-14), and an
    # antipodal pair with one label, which does not count.
    e1, e2, e3 = np.eye(3)
    for scale, expected in ((1 - 1e-5, False), (1 - 1e-7, True)):
        ds = binary_ds([e1, -scale * e1], [1.0, -1.0])
        assert _has_antipodal_pair(ds) == _has_antipodal_pair_loop(ds) == expected
    ds = binary_ds([e1, -e1, e2, e3], [1.0, 1.0, -1.0, -1.0])
    assert not _has_antipodal_pair(ds) and not _has_antipodal_pair_loop(ds)


def test_separability_violation_detected():
    d = 4
    e1 = np.eye(d)[0]
    ds = binary_ds([e1, e1], [1.0, -1.0])
    assert not validate_separable(ds).separable


def test_concentration_examples():
    d = 3
    e1, e2 = np.eye(d)[0], np.eye(d)[1]
    assert validate_separable(binary_ds([e1, e2], [1.0, -1.0])).s == 0.0
    rep = validate_separable(binary_ds([e1, -e1], [1.0, -1.0]))
    assert rep.s == -1.0 and not rep.concentrated
    # One-hot labels: concentration only, never separable.
    onehot = LabeledDataset(inputs=np.array([e1, -e1, e2]), labels=np.eye(3),
                            label_kind="onehot", source="test")
    rep = validate_separable(onehot)
    assert (rep.separable, rep.mu0, rep.s, rep.concentrated) == (False, None, -1.0, False)
    assert math.isnan(rep.gamma)


def test_unit_ball_constraint_enforced():
    with pytest.raises(ValueError):
        binary_ds([[2.0, 0.0]], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("label_kind", ["binary", "onehot"])
def test_non_finite_inputs_are_rejected(bad, label_kind):
    # A NaN norm compares False with the unit-ball bound either way round.
    labels = [1.0, -1.0] if label_kind == "binary" else [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset(inputs=[[bad, 0.0], [0.0, 1.0]], labels=labels,
                       label_kind=label_kind, source="x")
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset(inputs=[[0.5, 0.0], [0.0, bad]], labels=labels,
                       label_kind=label_kind, source="x")


# ---------------------------------------------------------------------------
# Data-dependent constants
# ---------------------------------------------------------------------------

def test_gamma_antipodal_pair_is_half():
    e1 = np.eye(3)[0]
    g1, g2 = compute_gamma_constants(binary_ds([e1, -e1], [1.0, -1.0]))
    assert g1 == pytest.approx(0.5, abs=1e-15)
    assert g2 == pytest.approx(0.5, abs=1e-15)


def test_gamma_orthogonal_quadruple_is_quarter():
    e = np.eye(4)
    ds = binary_ds([e[0], e[1], -e[0], -e[1]], [1.0, 1.0, -1.0, -1.0])
    g1, g2 = compute_gamma_constants(ds)
    assert g1 == pytest.approx(0.25, abs=1e-15)
    assert g2 == pytest.approx(0.25, abs=1e-15)


def test_V_closed_form_example():
    e1 = np.eye(3)[0]
    dc = compute_V(binary_ds([e1, -e1], [1.0, -1.0]), m=10_000, delta=0.01)
    expected = (0.5 - math.sqrt(8.0 * math.log(400.0) / 1e4)) / 16.0
    assert dc.V == pytest.approx(expected, rel=1e-12)
    assert dc.V == pytest.approx(0.026922954043494287, rel=1e-9)
    assert not dc.vacuous


def test_V_vacuous_flag_for_tiny_width():
    e1 = np.eye(3)[0]
    dc = compute_V(binary_ds([e1, -e1], [1.0, -1.0]), m=10, delta=0.01)
    assert dc.vacuous and dc.V < 0


@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(4, 16))
@settings(max_examples=40, deadline=None)
def test_gamma_sandwich_on_random_datasets(seed, d, half_n):
    ds = gen_orthant_separable(n=2 * half_n, d=d, seed=seed)
    g1, g2 = compute_gamma_constants(ds)
    assert g2 / 2.0 - 1e-12 <= g1 <= g2 + 1e-12


def _gamma_by_fsum(ds):
    """(gamma1, gamma2) as two ``math.fsum`` sums over the boxed same-class terms."""
    n = ds.n
    vals = np.clip(ds.inputs @ ds.inputs.T, -1.0, 1.0)[np.outer(ds.labels, ds.labels) > 0]
    weighted = vals * (1.0 - np.arccos(vals) / np.pi)
    return math.fsum(weighted.tolist()) / (n * n), math.fsum(vals.tolist()) / (n * n)


@pytest.mark.parametrize("n,d,seed", [(40, 30, 0), (100, 20, 3)])
def test_gamma_constants_equal_the_fsum_formulas(small_binary_ds, n, d, seed):
    for ds in (small_binary_ds, gen_orthant_separable(n=n, d=d, seed=seed)):
        assert compute_gamma_constants(ds) == _gamma_by_fsum(ds)


# ---------------------------------------------------------------------------
# Correctly rounded array sum
# ---------------------------------------------------------------------------

def _sum_outcome(total, x):
    """The bytes of ``total(x)``, so that the sign of zero counts, or the
    type of the exception it raises."""
    try:
        return struct.pack("<d", total(x))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_sums_like_fsum(x):
    assert _sum_outcome(exact_sum, x) == _sum_outcome(lambda a: math.fsum(a.tolist()), x)


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1e16, -1e16,
                            1e308, -1e308, 1.7976931348623157e308])


@st.composite
def float_arrays(draw, special=_SPECIAL):
    """Up to 5000 float64 entries: random mantissas and signs at exponents
    drawn from a window of the whole range (subnormals and values near 1e308
    included), the last half optionally the negated first half (heavy
    cancellation), with a few drawn values planted at drawn positions."""
    size = draw(st.integers(0, 5000))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = draw(st.integers(-1080, 1024))
    high = draw(st.integers(low, 1024))
    x = np.ldexp(gen.uniform(0.5, 1.0, size) * gen.choice([-1.0, 1.0], size),
                 gen.integers(low, high, size, endpoint=True))
    if draw(st.booleans()):
        x[size - size // 2:] = -x[: size // 2]
    for _ in range(draw(st.integers(0, 8))):
        if x.size:
            x[draw(st.integers(0, x.size - 1))] = draw(special)
    return x


@given(float_arrays())
@example(np.array([1e16, 1.0, -1e16]))
@example(np.array([1.0, 2.0 ** -200, 2.0 ** -60, -(2.0 ** -200) * 3]))     # remainders left
@example(np.array([1e-310, -3e-312]))                                     # sigma below normal
@example(-np.zeros(0))
@example(-np.zeros(1))
@example(-np.zeros(4999))
@settings(max_examples=300, deadline=None)
def test_exact_sum_returns_the_bits_of_fsum(x):
    _assert_sums_like_fsum(x)


@given(float_arrays(special=st.sampled_from([math.nan, math.inf, -math.inf, 1e308])))
@example(np.array([math.nan]))
@example(np.array([math.inf, 1.0]))
@example(np.array([-math.inf, -math.inf]))
@example(np.array([math.inf, -math.inf]))                  # inf - inf: ValueError
@example(np.array([1e308, 1e308, -1e308]))                 # intermediate overflow
@example(np.array([1e308, -1e308, 1e308]))
@settings(max_examples=100, deadline=None)
def test_exact_sum_fails_like_fsum_on_non_finite_sums(x):
    _assert_sums_like_fsum(x)


def test_lambda_min_matches_power_iteration():
    gen = np.random.default_rng(0)
    A = gen.standard_normal((50, 50))
    G = A @ A.T
    lam = float(np.linalg.eigvalsh(G)[0])
    # Inverse power iteration recovers lambda_min independently of eigvalsh.
    lu = np.linalg.inv(G)
    v = gen.standard_normal(50)
    for _ in range(5_000):
        v = lu @ v
        v /= np.linalg.norm(v)
    lam_pi = float(v @ G @ v)
    assert lam_pi == pytest.approx(lam, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------------------
# Binary readers / writers
# ---------------------------------------------------------------------------

def test_idx_round_trip(tmp_path):
    gen = np.random.default_rng(1)
    imgs = gen.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    labels = gen.integers(0, 10, size=7).astype(np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    write_idx_images(ip, imgs.reshape(7, -1), rows=5, cols=4)
    write_idx_labels(lp, labels)
    back = load_idx_images(ip)
    assert back.shape == (7, 20)
    assert np.array_equal(back, imgs.reshape(7, -1))
    assert np.array_equal(load_idx_labels(lp), labels)


def test_idx_magic_mismatch_detected(tmp_path):
    gen = np.random.default_rng(2)
    lp = tmp_path / "labels.idx"
    write_idx_labels(lp, gen.integers(0, 10, size=3).astype(np.uint8))
    with pytest.raises(ValueError):
        load_idx_images(lp)  # labels file passed as images


def test_image_dataset_loading_and_determinism(tmp_path):
    gen = np.random.default_rng(3)
    imgs = gen.integers(1, 256, size=(9, 6, 6), dtype=np.uint8)
    labels = np.arange(9, dtype=np.uint8) % 10
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(ip, imgs.reshape(9, -1), rows=6, cols=6)
    write_idx_labels(lp, labels)
    ds1 = load_mnist(ip, lp, count=9, normalize=True)
    ds2 = load_mnist(ip, lp, count=9, normalize=True)
    assert ds1.digest() == ds2.digest()
    assert ds1.d == 36 and ds1.n == 9 and ds1.label_kind == "onehot"
    assert np.allclose(np.linalg.norm(ds1.inputs, axis=1), 1.0, atol=1e-12)
    single = load_mnist(ip, lp, count=1)
    assert int(np.argmax(single.labels[0])) == int(labels[0])
    with pytest.raises(ValueError):
        load_mnist(ip, lp, count=10)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_csv_export_layout_and_sidecar(tmp_path):
    ds = gen_orthant_separable(n=6, d=3, seed=4)
    csv_path, side = tmp_path / "d.csv", tmp_path / "d.json"
    export_dataset_csv(ds, csv_path, side)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "index,label,x_0,x_1,x_2"
    assert len(lines) == 7
    row0 = lines[1].split(",")
    assert row0[0] == "0" and float(row0[1]) == 1.0
    assert float(row0[2]) == ds.inputs[0, 0]
    sidecar = json.loads(side.read_text())
    assert sidecar["separable"] is True
    assert "gamma1" in sidecar and "gamma2" in sidecar
