import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locus import neural
from locus.neural import (
    CnnModel,
    MlpModel,
    RbfModel,
    TrainSpec,
    fit_rbf_output,
    gradient_check,
    kmeans,
    make_cnn,
    make_mlp,
    model_from_dict,
    model_to_dict,
    rbf_widths,
    train,
    _conv1d,
)
from locus.pipeline import NormStats, cell_seeds, load_config, split


def _data(n=24, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, d)), rng.uniform(0, 1, (n, 2))


# ---------------------------------------------------------------------------
# construction


def test_make_mlp_shapes_and_xavier_bounds():
    m = make_mlp(3, hidden=(32, 32), seed=1)
    shapes = {k: v.shape for k, v in m.arrays.items()}
    assert shapes == {
        "w0": (32, 3),
        "b0": (32,),
        "w1": (32, 32),
        "b1": (32,),
        "w2": (2, 32),
        "b2": (2,),
    }
    limit0 = math.sqrt(6.0 / (3 + 32))
    w0 = m.arrays["w0"]
    assert np.max(np.abs(w0)) <= limit0
    assert np.max(np.abs(w0)) > 0.5 * limit0  # actually fills the range
    assert np.all(m.arrays["b0"] == 0.0)


def test_make_mlp_seed_determinism():
    a = make_mlp(4, seed=7)
    b = make_mlp(4, seed=7)
    c = make_mlp(4, seed=8)
    assert all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)
    assert any(not np.array_equal(a.arrays[k], c.arrays[k]) for k in a.arrays)


def test_make_mlp_rejects_empty_hidden():
    with pytest.raises(ValueError):
        make_mlp(3, hidden=())


def test_make_cnn_shapes():
    m = make_cnn(6, filters=(16, 16), kernel_width=2, dense_width=32, seed=0)
    p = m.arrays
    assert p["cw0"].shape == (2, 1, 16)
    assert p["cw1"].shape == (2, 16, 16)
    # two convs of width 2 shrink length 6 to 4; flatten 4*16 = 64
    assert p["w0"].shape == (32, 64)
    assert p["w1"].shape == (2, 32)


def test_cnn_needs_min_input_length():
    with pytest.raises(ValueError):
        make_cnn(2)  # two width-2 convs need length >= 3
    with pytest.raises(ValueError, match="input length 2 too short"):
        make_cnn(6, channels=3)


def test_make_cnn_reads_channels():
    m = make_cnn(6, channels=2, seed=0)
    assert m.arrays["cw0"].shape == (2, 2, 16)
    assert m.arrays["w0"].shape == (32, 16)  # 3 steps shrink to 1; flatten 1*16
    assert m.input_dim == 6
    with pytest.raises(ValueError, match="input width 7 is not a multiple of 2 channels"):
        make_cnn(7, channels=2)
    with pytest.raises(ValueError, match="'cw0' must have at least one input channel"):
        CnnModel({**m.arrays, "cw0": np.ones((2, 0, 16))})


def test_build_reads_a_row_as_three_anchors():
    """An rssi row is 3 anchors of one channel, a hybrid row 3 anchors of
    (RSSI, angle); the rssi CNN is the 1-channel make_cnn, array for array."""
    x3, x6 = _data(10, 3)[0], _data(10, 6)[0]
    rssi, hybrid = neural.build("cnn", x3, seed=4, rbf_centers=4), neural.build("cnn", x6, seed=4, rbf_centers=4)
    assert rssi.arrays["cw0"].shape == (2, 1, 16) and hybrid.arrays["cw0"].shape == (2, 2, 16)
    plain = make_cnn(3, seed=4)
    assert all(np.array_equal(rssi.arrays[k], plain.arrays[k]) for k in plain.arrays)


# ---------------------------------------------------------------------------
# forward passes against independent oracles


def test_mlp_forward_hand_computed():
    """1-hidden-unit network evaluated by hand."""
    m = make_mlp(2, hidden=(1,), seed=0)
    m.arrays["w0"][:] = np.array([[0.5, -1.0]])
    m.arrays["b0"][:] = np.array([0.25])
    m.arrays["w1"][:] = np.array([[2.0], [-3.0]])
    m.arrays["b1"][:] = np.array([0.1, -0.2])
    x = np.array([[1.0, 0.5]])
    h = math.tanh(0.5 * 1.0 - 1.0 * 0.5 + 0.25)
    expect = np.array([2.0 * h + 0.1, -3.0 * h - 0.2])
    out = m.forward_batch(x)
    assert np.allclose(out[0], expect, atol=1e-12)


def test_conv1d_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 7, 3))
    w = rng.standard_normal((2, 3, 5))
    b = rng.standard_normal(5)
    u, got = _conv1d(x, w, b)
    assert np.array_equal(u.reshape(4, 6, 2 * 3)[1, 2], x[1, 2:4].ravel())  # row = one window
    ref = np.zeros((4, 6, 5))
    for n in range(4):
        for t in range(6):
            for o in range(5):
                acc = b[o]
                for dt in range(2):
                    for c in range(3):
                        acc += x[n, t + dt, c] * w[dt, c, o]
                ref[n, t, o] = acc
    assert np.allclose(got, ref, atol=1e-12)


def test_rbf_kernel_values():
    """Gaussian activations computed by hand for fixed centers."""
    model = RbfModel({
        "centers": np.array([[0.0, 0.0], [1.0, 0.0]]),
        "widths": np.array([1.0, 0.5]),
        "w_out": np.array([[1.0, 0.0], [0.0, 1.0]]),
        "b_out": np.zeros(2),
    })
    x = np.array([[0.0, 0.0]])
    phi0 = 1.0  # at its own center
    phi1 = math.exp(-1.0 / (2 * 0.25))
    out = model.forward_batch(x)
    assert out[0, 0] == pytest.approx(phi0, abs=1e-12)
    assert out[0, 1] == pytest.approx(phi1, abs=1e-12)


# ---------------------------------------------------------------------------
# k-means and widths


def test_kmeans_two_obvious_clusters():
    data = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0], [5.0, 5.1]])
    centers = kmeans(data, 2, seed=0)
    centers = centers[np.argsort(centers[:, 0])]
    assert np.allclose(centers[0], [1.0 / 30, 1.0 / 30], atol=1e-9)
    assert np.allclose(centers[1], [5.0 + 1.0 / 30, 5.0 + 1.0 / 30], atol=1e-9)


def test_kmeans_duplicate_rows_deduped():
    data = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
    centers = kmeans(data, 4, seed=0)
    assert centers.shape == (2, 2)  # only two distinct rows exist
    with pytest.raises(ValueError):
        kmeans(data, 6, seed=0)  # k above the row count


def test_kmeans_deterministic():
    rng = np.random.default_rng(0)
    data = rng.uniform(0, 1, (50, 3))
    assert np.array_equal(kmeans(data, 7, seed=3), kmeans(data, 7, seed=3))


def _kmeans_mask_loop(data, k, seed, iterations=neural.KMEANS_ITERATIONS):
    """k-means as first written: every iteration runs, and each center is
    updated from its own boolean mask."""
    unique = np.unique(data, axis=0)
    if k >= unique.shape[0]:
        return unique.copy()
    rng = np.random.default_rng(seed)
    centers = unique[rng.choice(unique.shape[0], size=k, replace=False)].copy()
    for _ in range(iterations):
        d2 = np.sum((data[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = data[mask].mean(axis=0)
    return centers


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 80),
    d=st.integers(2, 6),
    k_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    grid=st.booleans(),
)
def test_kmeans_matches_mask_loop_oracle(n, d, k_frac, seed, grid):
    """Bincount sums and the stop at repeated assignments give the bits of the
    fixed 50-iteration mask loop, ties and duplicate rows included. Rows have
    at least two features, as every feature layout does: numpy sums a single
    column pairwise, so with d = 1 the mask loop's means differ in the last bit."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    if grid:
        data = np.round(data)  # few distinct values: ties and duplicate rows
    k = 1 + int(k_frac * (n - 1))
    assert np.array_equal(kmeans(data, k, seed=seed), _kmeans_mask_loop(data, k, seed))


def test_kmeans_empty_cluster_keeps_its_center():
    """A case whose second assignment leaves one center without rows."""
    data = np.array(
        [[-2.0, 1.0], [0.0, -1.0], [-1.5, 0.0], [0.0, -2.5], [0.5, -0.5], [-0.5, -1.0],
         [1.5, 2.0], [0.0, -0.5], [0.5, 0.5]]
    )
    assert np.array_equal(kmeans(data, 6, seed=17522), _kmeans_mask_loop(data, 6, 17522))


@pytest.mark.parametrize("d", range(1, 8))
def test_sq_dists_has_the_bits_of_the_difference_tensor_sum(d):
    """For fewer than 8 features numpy sums the (n, k, d) squares left to right,
    as _sq_dists does feature by feature."""
    rng = np.random.default_rng(d)
    x, centers = rng.standard_normal((200, d)), rng.standard_normal((30, d))
    assert np.array_equal(neural._sq_dists(x, centers), np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2))


def test_kmeans_matches_mask_loop_oracle_at_seven_features():
    """The widest rows whose (n, k, d) squared distances numpy sums left to right."""
    rng = np.random.default_rng(7)
    for data in (rng.standard_normal((300, 7)), np.round(rng.standard_normal((300, 7)))):
        assert np.array_equal(kmeans(data, 25, seed=7), _kmeans_mask_loop(data, 25, 7))


@pytest.fixture(scope="module")
def reference_cell():
    """The hybrid training split, center count and RBF init seed of the first
    reference sweep cell (the first room at seed 0), drawn with the sweep's own seeds."""
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "paper_repro.json")
    dataset_seed, split_seed, model_seeds = cell_seeds(0, 0, len(config.models))
    train_ds, _ = split(config.dataset(config.envs[0], dataset_seed), config.train_fraction, seed=split_seed)
    return train_ds, config.rbf_centers, model_seeds[config.models.index("rbf")][0]


@pytest.mark.parametrize("layout", ["rssi", "hybrid"])
def test_kmeans_matches_mask_loop_oracle_on_a_reference_cell(reference_cell, layout):
    """The bits hold at the sweep's own size: n = 4000 normalised training rows
    of 3 or 6 features, k = 40 centers."""
    train_ds, k, seed = reference_cell
    train_ds = train_ds if layout == "hybrid" else train_ds.project_rssi()
    x = NormStats.fit(train_ds).normalize_features(train_ds.features)
    assert x.shape == (4000, 6 if layout == "hybrid" else 3) and k == 40
    assert np.array_equal(kmeans(x, k, seed=seed), _kmeans_mask_loop(x, k, seed))


def test_kmeans_matches_mask_loop_oracle_on_near_ties_and_order_dependent_sums():
    """Rows near 1e7 with noise of mixed magnitudes, 1e-3 to 1. At the oracle's
    centers some rows sit so near a tie that the expanded form
    |x|^2 - 2 x.c + |c|^2 labels them otherwise, and some cluster sums change
    with the order of their rows. So the labels and centers keep the oracle's
    bits only with its feature-order distances and row-order sums. With one
    center, the sum of all rows is a matrix-vector product's to reorder."""
    rng = np.random.default_rng(12)
    data = 1e7 + rng.standard_normal((30, 3)) * 10.0 ** rng.integers(-3, 1, size=(30, 1))
    centers = _kmeans_mask_loop(data, 4, 12)
    labels = np.argmin(np.sum((data[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
    expanded = (data * data).sum(axis=1)[:, None] - 2 * data @ centers.T + (centers * centers).sum(axis=1)
    assert np.any(np.argmin(expanded, axis=1) != labels)
    forward = [np.bincount(labels, weights=col, minlength=4) for col in data.T]
    backward = [np.bincount(labels[::-1], weights=col[::-1], minlength=4) for col in data.T]
    assert not np.array_equal(forward, backward)
    assert np.array_equal(kmeans(data, 4, seed=12), centers)
    assert np.array_equal(kmeans(data, 1, seed=12), _kmeans_mask_loop(data, 1, 12))


def test_rbf_widths_two_nearest_oracle():
    centers = np.array([[0.0], [1.0], [3.0]])
    w = rbf_widths(centers, centers)
    # center 0: nearest others at 1 and 3 -> mean 2
    assert w[0] == pytest.approx(2.0)
    # center 1: distances 1 and 2 -> 1.5
    assert w[1] == pytest.approx(1.5)
    # center 2: distances 2 and 3 -> 2.5
    assert w[2] == pytest.approx(2.5)


def _rbf_widths_loop(centers):
    """The per-center loop: mean distance to the two nearest other centers."""
    k = centers.shape[0]
    d = np.sqrt(np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=2))
    widths = np.empty(k)
    for j in range(k):
        widths[j] = np.sort(d[j][np.arange(k) != j])[: min(2, k - 1)].mean()
    return np.maximum(widths, 1e-6)


@pytest.mark.parametrize("k", [2, 3, 7, 40])
def test_rbf_widths_match_the_per_center_loop(k):
    rng = np.random.default_rng(k)
    centers = rng.normal(size=(k, 6))
    centers[-1] = centers[0]  # a repeated center: two zero distances in its rows
    assert np.array_equal(rbf_widths(centers, centers), _rbf_widths_loop(centers))


def test_rbf_widths_single_center_fallback():
    centers = np.array([[1.0, 1.0]])
    data = np.array([[0.0, 0.0], [2.0, 2.0]])
    w = rbf_widths(centers, data)
    assert w[0] == pytest.approx(math.sqrt(2.0))


# ---------------------------------------------------------------------------
# ridge output fit


def test_fit_rbf_output_matches_lstsq_oracle():
    x, y = _data(40, 4, seed=5)
    model = RbfModel.init(x, k=10, seed=1)
    fit_rbf_output(model, x, y, ridge=1e-6)
    # independent route: kernels by hand, ridge as augmented least squares
    d2 = np.sum((x[:, None, :] - model.arrays["centers"][None, :, :]) ** 2, axis=2)
    phi = np.exp(-d2 / (2.0 * model.arrays["widths"] ** 2))
    g = np.column_stack([phi, np.ones(len(x))])
    aug_a = np.vstack([g, math.sqrt(1e-6) * np.eye(11)])
    aug_b = np.vstack([y, np.zeros((11, 2))])
    coef = np.linalg.lstsq(aug_a, aug_b, rcond=None)[0]
    assert np.allclose(model.arrays["w_out"], coef[:10].T, atol=1e-8)
    assert np.allclose(model.arrays["b_out"], coef[10], atol=1e-8)


def test_fit_rbf_output_reduces_loss():
    x, y = _data(60, 6, seed=9)
    model = RbfModel.init(x, k=12, seed=2)
    before = model.loss_and_gradients(x, y)[0]
    after = fit_rbf_output(model, x, y)
    assert after < before


# ---------------------------------------------------------------------------
# gradients


def test_gradient_checks_all_families():
    x, y = _data(8, 6, seed=3)
    assert gradient_check(make_mlp(6, seed=0), x, y) < 1e-4
    assert gradient_check(make_cnn(6, seed=1), x, y) < 1e-4
    assert gradient_check(make_cnn(6, channels=2, seed=1), x, y) < 1e-4
    assert gradient_check(RbfModel.init(x, k=5, seed=2), x, y) < 1e-4


def test_gradient_check_random_configs():
    rng = np.random.default_rng(12)
    for i in range(3):
        d = int(rng.integers(3, 8))
        n = int(rng.integers(4, 12))
        x = rng.uniform(0, 1, (n, d))
        y = rng.uniform(0, 1, (n, 2))
        assert gradient_check(make_mlp(d, hidden=(5, 4), seed=i), x, y) < 1e-4
        assert gradient_check(make_cnn(d, filters=(3, 3), seed=i), x, y) < 1e-4
        assert gradient_check(RbfModel.init(x, k=min(4, n), seed=i), x, y) < 1e-4


def test_train_and_gradient_check_touch_only_the_rbf_output_layer():
    """The RBF gradients name w_out and b_out only, so SGD never moves the
    centers or widths and gradient_check perturbs nothing else."""
    x, y = _data(20, 3, seed=16)
    m = RbfModel.init(x, k=5, seed=0)
    before = {name: a.copy() for name, a in m.arrays.items()}
    train(m, x, y, TrainSpec(learning_rate=0.1, batch_size=8), steps=10, seeds=0)
    for name in ("centers", "widths"):
        assert np.array_equal(m.arrays[name], before[name]), name
    for name in ("w_out", "b_out"):
        assert np.all(m.arrays[name] != before[name]), name
    calls = []
    loss_and_gradients = m.loss_and_gradients
    m.loss_and_gradients = lambda *args: calls.append(args) or loss_and_gradients(*args)
    assert gradient_check(m, x, y) < 1e-4
    assert len(calls) == 1 + 2 * (m.arrays["w_out"].size + m.arrays["b_out"].size)


def _cnn_stacked_einsum(m, h, y):
    """CnnModel's prediction, loss and gradients as first written, on an input h
    of shape (n, L, C): per-tap shifted products for the convolutions and a
    stacked einsum per filter gradient."""

    def conv(a, w, b):
        lout = a.shape[1] - w.shape[0] + 1
        out = np.zeros((a.shape[0], lout, w.shape[2]))
        for k in range(w.shape[0]):
            out += a[:, k : k + lout, :] @ w[k]
        return out + b

    p = m.arrays
    a1 = np.tanh(conv(h, p["cw0"], p["cb0"]))
    a2 = np.tanh(conv(a1, p["cw1"], p["cb1"]))
    l1, l2 = a1.shape[1], a2.shape[1]
    f = a2.reshape(h.shape[0], -1)
    h1 = f @ p["w0"].T + p["b0"]
    out = h1 @ p["w1"].T + p["b1"]
    diff = out - y
    delta = 2.0 * diff / diff.size
    g = {"w1": delta.T @ h1, "b1": delta.sum(axis=0)}
    d_h1 = delta @ p["w1"]
    g["w0"] = d_h1.T @ f
    g["b0"] = d_h1.sum(axis=0)
    d_z2 = (d_h1 @ p["w0"]).reshape(a2.shape) * (1.0 - a2**2)
    kw1, kw0 = p["cw1"].shape[0], p["cw0"].shape[0]
    g["cw1"] = np.stack([np.einsum("ntc,nto->co", a1[:, k : k + l2, :], d_z2) for k in range(kw1)])
    g["cb1"] = d_z2.sum(axis=(0, 1))
    d_a1 = np.zeros_like(a1)
    for k in range(kw1):
        d_a1[:, k : k + l2, :] += d_z2 @ p["cw1"][k].T
    d_z1 = d_a1 * (1.0 - a1**2)
    g["cw0"] = np.stack([np.einsum("ntc,nto->co", h[:, k : k + l1, :], d_z1) for k in range(kw0)])
    g["cb0"] = d_z1.sum(axis=(0, 1))
    return out, float(np.mean(diff**2)), g


def _steps(x, channels):
    """(n, C * L) rows as (n, L, C) steps: channel c of step t is feature c * L + t."""
    length = x.shape[1] // channels
    return np.stack([x[:, c * length : (c + 1) * length] for c in range(channels)], axis=-1)


@settings(max_examples=60, deadline=None)
@given(
    extra=st.integers(0, 5),
    channels=st.integers(1, 3),
    n=st.integers(1, 40),
    kernel_width=st.integers(2, 3),
    filters=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    dense_width=st.integers(1, 32),
    seed=st.integers(0, 2**16),
)
@example(extra=0, channels=2, n=32, kernel_width=2, filters=(16, 16), dense_width=32, seed=0)  # hybrid: 3 x 2
@example(extra=0, channels=1, n=5, kernel_width=2, filters=(16, 16), dense_width=32, seed=1)  # rssi: 3 x 1
@example(extra=3, channels=1, n=32, kernel_width=2, filters=(16, 16), dense_width=32, seed=0)  # 1-channel hybrid
@example(extra=2, channels=3, n=9, kernel_width=3, filters=(3, 5), dense_width=4, seed=2)
def test_cnn_im2col_gradients_match_stacked_einsum(extra, channels, n, kernel_width, filters, dense_width, seed):
    length = 2 * (kernel_width - 1) + 1 + extra  # the shortest input two convolutions take, plus extra
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, length * channels))
    y = rng.standard_normal((n, 2))
    m = make_cnn(length * channels, channels=channels, filters=filters, kernel_width=kernel_width,
                 dense_width=dense_width, seed=seed)
    for name in ("cb0", "cb1", "b0", "b1"):
        m.arrays[name][:] = rng.standard_normal(m.arrays[name].shape)  # nonzero biases reach every term
    loss, grads = m.loss_and_gradients(x, y)
    ref_out, ref_loss, ref = _cnn_stacked_einsum(m, _steps(x, channels), y)
    np.testing.assert_allclose(m.forward_batch(x), ref_out, rtol=1e-12, atol=1e-12)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    assert grads.keys() == ref.keys() == m.arrays.keys()
    for name in ref:
        assert grads[name].shape == m.arrays[name].shape
        np.testing.assert_allclose(grads[name], ref[name], rtol=1e-12, atol=1e-12, err_msg=name)


def test_loss_is_mse_over_all_entries():
    m = make_mlp(3, seed=0)
    x, y = _data(10, 3, seed=4)
    pred = m.forward_batch(x)
    loss = m.loss_and_gradients(x, y)[0]
    assert loss == pytest.approx(np.mean((pred - y) ** 2), abs=1e-12)


@pytest.mark.parametrize("n", [5, 20, 45, 320])
@pytest.mark.parametrize("width", [3, 6])
@pytest.mark.parametrize("family,members", [("mlp", 0), ("rbf", 0), ("cnn", 0), ("mlp", 3), ("cnn", 3)])
def test_training_loss_has_the_bits_of_the_prediction_mse(family, members, width, n):
    """The loss that training records is the MSE of what forward_batch predicts,
    bit for bit, for a plain model and for each member of a stack."""
    data = [_data(n, width, seed=80 + i) for i in range(max(members, 1))]
    models = [neural.build(family, x, seed=90 + i, rbf_centers=4) for i, (x, _) in enumerate(data)]
    if members:
        model = neural.FAMILIES[family].stack(models)
        x, y = np.stack([x for x, _ in data]), np.stack([y for _, y in data])
    else:
        model, (x, y) = models[0], data[0]
    loss = np.atleast_1d(model.loss_and_gradients(x, y)[0])
    pred = model.forward_batch(x).reshape(-1, n, 2)
    want = np.array([np.mean((p - t) ** 2) for p, t in zip(pred, y.reshape(-1, n, 2))])
    assert loss.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# training loop


def test_train_loss_history_and_decrease():
    x, y = _data(48, 4, seed=6)
    m = make_mlp(4, seed=0)
    res = train(m, x, y, TrainSpec(learning_rate=0.05, batch_size=16), steps=200, seeds=1)
    assert len(res.loss_history) == 200
    assert res.loss_history[-1] < res.loss_history[0]


def test_train_spec_refuses_a_zero_learning_rate():
    """A zero rate would leave every model at its initialisation."""
    with pytest.raises(ValueError, match="^learning_rate must be above 0, got 0.0$"):
        TrainSpec(learning_rate=0.0, batch_size=8)


def test_train_deterministic():
    x, y = _data(30, 5, seed=8)
    spec = TrainSpec(learning_rate=0.02, batch_size=8)
    m1 = make_mlp(5, seed=3)
    m2 = make_mlp(5, seed=3)
    r1 = train(m1, x, y, spec, steps=100, seeds=5)
    r2 = train(m2, x, y, spec, steps=100, seeds=5)
    assert np.array_equal(r1.loss_history, r2.loss_history)
    assert all(np.array_equal(m1.arrays[k], m2.arrays[k]) for k in m1.arrays)


def test_train_records_pre_update_loss():
    """First history entry is the first batch's loss before any step."""
    x, y = _data(16, 3, seed=9)
    m = make_mlp(3, seed=4)
    # full-batch: the first batch is the whole (shuffled) set
    init_loss = m.loss_and_gradients(x, y)[0]
    res = train(m, x, y, TrainSpec(learning_rate=0.1, batch_size=16), steps=3, seeds=0)
    assert res.loss_history[0] == pytest.approx(init_loss, abs=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainSpec(learning_rate=-0.1, batch_size=8)
    with pytest.raises(ValueError):
        TrainSpec(learning_rate=0.1, batch_size=0)
    x, y = _data(8, 3, seed=0)
    with pytest.raises(ValueError):
        train(make_mlp(3, seed=0), x, y, TrainSpec(learning_rate=0.1, batch_size=8), steps=0, seeds=0)


def test_batch_size_larger_than_data_is_full_batch():
    x, y = _data(10, 3, seed=10)
    m = make_mlp(3, seed=5)
    res = train(m, x, y, TrainSpec(learning_rate=0.05, batch_size=64), steps=20, seeds=1)
    assert len(res.loss_history) == 20


def test_train_checks_shapes_before_the_first_step():
    x, y = _data(12, 4, seed=13)
    m = make_mlp(4, seed=0)

    def no_step(*args):
        raise AssertionError("a training step ran")

    m.loss_and_gradients = no_step
    spec = TrainSpec(learning_rate=0.1, batch_size=4)
    with pytest.raises(ValueError, match=r"expected batch shape \(n, 4\)"):
        train(m, x[:, :3], y, spec, steps=5, seeds=0)
    with pytest.raises(ValueError, match=r"expected targets shape \(12, 2\)"):
        train(m, x, y[:, :1], spec, steps=5, seeds=0)
    with pytest.raises(ValueError, match=r"expected targets shape \(12, 2\)"):
        train(m, x, y[:10], spec, steps=5, seeds=0)


def test_gradient_check_rejects_bad_shapes():
    x, y = _data(6, 4, seed=14)
    with pytest.raises(ValueError, match="expected batch shape"):
        gradient_check(make_mlp(3, seed=0), x, y)
    with pytest.raises(ValueError, match="expected targets shape"):
        gradient_check(make_cnn(4, seed=0), x, y[:, :1])


@pytest.mark.parametrize("family", ["mlp", "cnn"])
def test_train_stops_at_first_non_finite_loss(family):
    x, y = _data(24, 6, seed=15)
    spec = TrainSpec(learning_rate=1e3, batch_size=8)
    with pytest.raises(ValueError, match=rf"{family} training diverged: non-finite batch loss at step (\d+)") as e:
        train(neural.build(family, x, seed=0, rbf_centers=4), x, y, spec, steps=200, seeds=0)
    step = int(e.value.args[0].rsplit(" ", 1)[1])
    assert step >= 1
    # The same run cut just before that step has a finite history.
    res = train(neural.build(family, x, seed=0, rbf_centers=4), x, y, spec, steps=step, seeds=0)
    assert np.all(np.isfinite(res.loss_history))


def test_build_and_fit_recipes():
    """Each family's architecture and fit recipe as the sweep and the CLI use them."""
    x, y = _data(7, 6, seed=12)
    assert neural.build("mlp", x, seed=0, rbf_centers=40).arch["hidden"] == [32, 32]
    assert neural.build("cnn", x, seed=0, rbf_centers=40).arrays["w0"].shape[0] == 32
    rbf = neural.build("rbf", x, seed=0, rbf_centers=40)
    assert rbf.arrays["centers"].shape == (7, 6)  # k = min(centers, n)
    ref = RbfModel(rbf.arrays)
    [(_, history)] = neural.fit([(rbf, x, y, 0)], neural.TrainSpec(0.1, 2, 3), ridge=1e-3)
    assert history.tolist() == [fit_rbf_output(ref, x, y, ridge=1e-3)]
    assert np.array_equal(rbf.arrays["w_out"], ref.arrays["w_out"])
    mlp = neural.build("mlp", x, seed=0, rbf_centers=40)
    [(_, history)] = neural.fit([(mlp, x, y, 0)], neural.TrainSpec(0.1, 2, 3))
    assert history.size == 3 * math.ceil(7 / 2)
    with pytest.raises(ValueError, match="unknown model family"):
        neural.build("svm", x, seed=0, rbf_centers=40)


# ---------------------------------------------------------------------------
# lockstep training: a stack of models in one SGD run


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("width", [3, 6])
@pytest.mark.parametrize("family", ["mlp", "cnn"])
def test_stack_gives_the_bits_of_separate_runs(family, width, k):
    """Members with their own data, init and seeds; 20 rows at batch 8 leave a
    short last batch, and 12 steps cross three reshuffles."""
    spec = TrainSpec(learning_rate=0.05, batch_size=8)
    data = [_data(20, width, seed=30 + i) for i in range(k)]
    alone = []
    for i, (x, y) in enumerate(data):
        m = neural.build(family, x, seed=40 + i, rbf_centers=4)
        alone.append((train(m, x, y, spec, steps=12, seeds=50 + i).loss_history, m.arrays))
    stack = neural.FAMILIES[family].stack([neural.build(family, x, seed=40 + i, rbf_centers=4) for i, (x, _) in enumerate(data)])
    xs, ys = np.stack([x for x, _ in data]), np.stack([y for _, y in data])
    res = train(stack, xs, ys, spec, steps=12, seeds=[50 + i for i in range(k)])
    assert res.loss_history.shape == (12, k)
    for i, (history, arrays) in enumerate(alone):
        assert np.array_equal(res.loss_history[:, i], history)
        for name, a in arrays.items():
            assert np.array_equal(stack.arrays[name][i], a), name


def test_fit_trains_a_list_as_one_stack():
    spec = TrainSpec(learning_rate=0.05, batch_size=8, epochs=2)
    data = [_data(20, 6, seed=60 + i) for i in range(3)]
    alone = [neural.build("cnn", x, seed=i, rbf_centers=4) for i, (x, _) in enumerate(data)]
    want = [h for i, (m, (x, y)) in enumerate(zip(alone, data)) for _, h in neural.fit([(m, x, y, 70 + i)], spec)]
    models = [neural.build("cnn", x, seed=i, rbf_centers=4) for i, (x, _) in enumerate(data)]
    fitted = dict(neural.fit([(m, x, y, 70 + i) for i, (m, (x, y)) in enumerate(zip(models, data))], spec))
    got = [fitted[k] for k in range(len(models))]
    for m, ref, h, h_ref in zip(models, alone, got, want):
        assert h.shape == (2 * 3,) and np.array_equal(h, h_ref)
        assert model_to_dict(m) == model_to_dict(ref)


def _assert_one_fit_gives_each_model_its_own(jobs, spec):
    """Each built (model, x, y) of jobs() fitted alone, then all in one fit,
    gives every model the same history and model file."""
    alone = []
    for k, (m, x, y) in enumerate(jobs()):
        [(_, history)] = neural.fit([(m, x, y, 90 + k)], spec)
        alone.append((history, model_to_dict(m)))
    built = list(jobs())
    fitted = dict(neural.fit([(m, x, y, 90 + k) for k, (m, x, y) in enumerate(built)], spec))
    histories = [fitted[k] for k in range(len(built))]
    for (h_ref, doc_ref), h, (m, _, _) in zip(alone, histories, built, strict=True):
        assert np.array_equal(h, h_ref)
        assert model_to_dict(m) == doc_ref


def test_fit_gives_each_model_of_a_mixed_list_its_own_fit():
    """MLP, CNN and RBF models on rows of 3 and 6 features, interleaved."""

    def jobs():
        for k in range(12):
            family, width = ("mlp", "cnn", "rbf")[k % 3], (3, 6)[k // 3 % 2]
            x, y = _data(20, width, seed=80 + k)
            yield neural.build(family, x, seed=k, rbf_centers=4), x, y

    _assert_one_fit_gives_each_model_its_own(jobs, TrainSpec(learning_rate=0.05, batch_size=8, epochs=2))


def test_fit_trains_a_long_group_in_stacks_of_at_most_stack_limit(monkeypatch):
    def jobs():
        for k in range(neural.STACK_LIMIT + 2):
            x, y = _data(20, 6, seed=100 + k)
            yield neural.build("mlp", x, seed=k, rbf_centers=4), x, y

    stacks = []
    real_train = neural.train

    def recording_train(model, *args):
        stacks.append(model.lead)
        return real_train(model, *args)

    monkeypatch.setattr(neural, "train", recording_train)
    _assert_one_fit_gives_each_model_its_own(jobs, TrainSpec(learning_rate=0.05, batch_size=8, epochs=2))
    assert stacks == [(1,)] * (neural.STACK_LIMIT + 2) + [(neural.STACK_LIMIT,), (2,)]


def test_fit_trains_each_stack_once_full_before_drawing_later_jobs(monkeypatch):
    """Stacks of two: a group's stack trains as soon as its second job is
    drawn, and the group left when the jobs run out trains last."""
    monkeypatch.setattr(neural, "STACK_LIMIT", 2)
    drawn, stacks = [], []
    real_train = neural.train

    def recording_train(model, *args):
        stacks.append((len(drawn), model.lead))
        return real_train(model, *args)

    def jobs():
        for k in range(5):
            x, y = _data(20, 6, seed=110 + k)
            drawn.append(k)
            yield neural.build("mlp", x, seed=k, rbf_centers=4), x, y, k

    monkeypatch.setattr(neural, "train", recording_train)
    fitted = [k for k, _ in neural.fit(jobs(), TrainSpec(learning_rate=0.05, batch_size=8, epochs=1))]
    assert stacks == [(2, (2,)), (4, (2,)), (5, (1,))]
    assert fitted == [0, 1, 2, 3, 4]


def test_fit_names_the_list_index_of_a_model_diverging_in_a_later_stack():
    """Targets scaled by 1e4 diverge at this rate, and unscaled ones do not
    (see the stack divergence test below); the bad model is member 1 of the
    second stack."""
    spec = TrainSpec(learning_rate=0.2, batch_size=8, epochs=100)
    x, y = _data(24, 6, seed=15)
    n, bad = neural.STACK_LIMIT + 2, neural.STACK_LIMIT + 1
    models = [neural.build("mlp", x, seed=0, rbf_centers=4) for _ in range(n)]
    ys = [y * 1e4 if k == bad else y for k in range(n)]
    with pytest.raises(neural.Diverged, match="^mlp training diverged") as e:
        list(neural.fit([(m, x, t, 0) for m, t in zip(models, ys)], spec))
    assert e.value.member == bad


@pytest.mark.parametrize("family,lr", [("mlp", 0.2), ("cnn", 0.05)])
def test_stack_divergence_names_the_earliest_step_and_its_first_member(family, lr):
    """Targets scaled up diverge sooner; the stack stops where the first member
    to diverge alone would, naming the lowest member index among ties."""
    spec = TrainSpec(learning_rate=lr, batch_size=8)
    x, y = _data(24, 6, seed=15)
    scales = [1.0, 100.0, 1e3, 1e4]
    steps = []
    for s in scales:
        try:
            train(neural.build(family, x, seed=0, rbf_centers=4), x, y * s, spec, steps=300, seeds=0)
            steps.append(None)
        except neural.Diverged as e:
            assert e.member == 0
            steps.append(int(str(e).rsplit(" ", 1)[1]))
    assert steps[0] is None and len(set(steps[1:])) > 1
    first = min(t for t in steps if t is not None)
    stack = neural.FAMILIES[family].stack([neural.build(family, x, seed=0, rbf_centers=4) for _ in scales])
    xs, ys = np.stack([x] * 4), np.stack([y * s for s in scales])
    with pytest.raises(neural.Diverged, match=rf"{family} training diverged: non-finite batch loss at step {first}$") as e:
        train(stack, xs, ys, spec, steps=300, seeds=[0] * 4)
    assert e.value.member == steps.index(first)


def test_stack_checks_its_shapes_and_seeds():
    x, y = _data(12, 4, seed=13)
    stack = MlpModel.stack([make_mlp(4, seed=i) for i in range(2)])
    spec = TrainSpec(learning_rate=0.1, batch_size=4)
    with pytest.raises(ValueError, match=r"expected batch shape \(2, n, 4\)"):
        train(stack, x, y, spec, steps=5, seeds=[0, 1])
    with pytest.raises(ValueError, match=r"expected targets shape \(2, 12, 2\)"):
        train(stack, np.stack([x, x]), y, spec, steps=5, seeds=[0, 1])
    with pytest.raises(ValueError, match="one seed per stack member, got 3 for 2"):
        train(stack, np.stack([x, x]), np.stack([y, y]), spec, steps=5, seeds=[0, 1, 2])


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("family", ["mlp", "rbf", "cnn"])
def test_model_dict_roundtrip(family):
    x, y = _data(20, 6, seed=11)
    if family == "mlp":
        m = make_mlp(6, seed=0)
    elif family == "cnn":
        m = make_cnn(6, seed=0)
    else:
        m = RbfModel.init(x, k=7, seed=0)
    d = model_to_dict(m, norm={"feature_min": [0.0] * 6})
    assert d["format"] == "locus-model"
    assert d["family"] == family
    m2, norm = model_from_dict(d)
    assert norm == {"feature_min": [0.0] * 6}
    assert np.allclose(m.forward_batch(x), m2.forward_batch(x), atol=1e-15)
    for k in m.arrays:
        assert np.array_equal(m.arrays[k], m2.arrays[k])


def test_model_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        model_from_dict({"format": "other"})


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["mlp", "rbf", "cnn"]),
    extra=st.integers(0, 4),
    channels=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    kernel_width=st.integers(1, 3),
    filters=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    dense_width=st.integers(1, 9),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_model_file_round_trip_is_exact(family, extra, channels, hidden, kernel_width, filters, dense_width, k, seed):
    """model_to_dict -> JSON text -> model_from_dict keeps every bit."""
    d = (2 * (kernel_width - 1) + 1 + extra) * channels
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((12, d)), rng.standard_normal((12, 2))
    if family == "mlp":
        m = make_mlp(d, hidden=tuple(hidden), seed=seed)
    elif family == "cnn":
        m = make_cnn(d, channels=channels, filters=filters, kernel_width=kernel_width, dense_width=dense_width,
                     seed=seed)
    else:
        m = RbfModel.init(x, k=k, seed=seed)
        fit_rbf_output(m, x, y)
    text = json.dumps(model_to_dict(m, norm=None))
    m2, norm = model_from_dict(json.loads(text))
    assert type(m2) is type(m) and norm is None
    assert list(m2.arrays) == list(m.arrays)
    for name, a in m.arrays.items():
        assert np.array_equal(m2.arrays[name], a), name
    assert m2.forward_batch(x).tobytes() == m.forward_batch(x).tobytes()
    assert json.dumps(model_to_dict(m2, norm=None)) == text


def test_model_file_layout_is_pinned():
    """The key order and arch block of the file, as every version-1 model file has them."""
    rbf = RbfModel({"centers": [[0.0, 1.0]], "widths": [0.5], "w_out": [[1.0], [2.0]], "b_out": [3.0, 4.0]})
    assert json.dumps(model_to_dict(rbf, norm={"n": 1})) == (
        '{"format": "locus-model", "version": 1, "family": "rbf", "input_dim": 2, "arch": {"k": 1}, '
        '"params": {"centers": {"shape": [1, 2], "data": [0.0, 1.0]}, "widths": {"shape": [1], "data": [0.5]}, '
        '"w_out": {"shape": [2, 1], "data": [1.0, 2.0]}, "b_out": {"shape": [2], "data": [3.0, 4.0]}}, '
        '"norm": {"n": 1}}'
    )
    mlp = model_to_dict(make_mlp(3, hidden=(5, 4), seed=0))
    assert list(mlp) == ["format", "version", "family", "input_dim", "arch", "params", "norm"]
    assert list(mlp["params"]) == ["w0", "b0", "w1", "b1", "w2", "b2"]
    assert mlp["arch"] == {"hidden": [5, 4]} and mlp["input_dim"] == 3
    cnn = model_to_dict(make_cnn(7, filters=(3, 4), kernel_width=3, dense_width=5, seed=0))
    assert list(cnn["params"]) == ["cw0", "cb0", "cw1", "cb1", "w0", "b0", "w1", "b1"]
    assert cnn["arch"] == {"kernel_width": 3, "filters": [3, 4], "dense_width": 5}
    assert cnn["input_dim"] == 7 and cnn["params"]["w0"]["shape"] == [5, 12]


def test_a_one_channel_hybrid_cnn_file_still_loads():
    """A hybrid CNN file written while the CNN read a row as one 6-long
    channel: cw0 (2, 1, 16) and w0 (32, 64). Its shapes still say so, so it
    loads with input_dim 6 and predicts from the row as one sequence."""
    old = make_cnn(6, seed=11)
    rng = np.random.default_rng(11)
    for name in ("cb0", "cb1", "b0", "b1"):
        old.arrays[name][:] = rng.standard_normal(old.arrays[name].shape)
    doc = json.loads(json.dumps(model_to_dict(old)))
    assert doc["input_dim"] == 6 and doc["params"]["cw0"]["shape"] == [2, 1, 16]
    assert doc["params"]["w0"]["shape"] == [32, 64]
    m, _ = model_from_dict(doc)
    assert m.input_dim == 6
    x, y = rng.standard_normal((9, 6)), rng.standard_normal((9, 2))
    ref_out = _cnn_stacked_einsum(m, x[:, :, None], y)[0]
    np.testing.assert_allclose(m.forward_batch(x), ref_out, rtol=1e-12, atol=1e-12)


def test_model_arrays_are_read_in_file_order_whatever_the_dict_order():
    m = make_cnn(6, seed=3)
    d = model_to_dict(m)
    d["params"] = dict(reversed(list(d["params"].items())))
    m2, _ = model_from_dict(json.loads(json.dumps(d)))
    assert list(m2.arrays) == list(m.arrays)
    x = np.random.default_rng(0).standard_normal((5, 6))
    assert m2.forward_batch(x).tobytes() == m.forward_batch(x).tobytes()


@pytest.mark.parametrize(
    "family,arrays,words",
    [
        ("mlp", {"w0": np.ones((4, 3)), "b0": np.ones(4), "w1": np.ones((2, 5)), "b1": np.ones(2)},
         ["'w1'", "(2, 4)"]),
        ("mlp", {"w0": np.ones(3), "b0": np.ones(2)}, ["'w0'", "2-d"]),
        ("rbf", {"centers": np.ones((3, 2)), "widths": [1.0, 0.0, 1.0], "w_out": np.ones((2, 3)),
                 "b_out": np.ones(2)}, ["'widths'", "positive"]),
        ("rbf", {"centers": np.ones((3, 2)), "widths": np.ones(3), "w_out": np.ones((2, 3))},
         ["'b_out'", "missing"]),
        ("cnn", {**make_cnn(6, seed=0).arrays, "w0": np.ones((32, 60))}, ["'w0'", "60", "16"]),
        ("cnn", {**make_cnn(6, seed=0).arrays, "cw1": np.ones((3, 16, 16))}, ["'cw1'", "(2, 16, 16)"]),
        ("cnn", {**make_cnn(6, seed=0).arrays, "b1": [0.0, np.nan]}, ["'b1'", "non-finite"]),
    ],
)
def test_constructor_names_the_bad_array(family, arrays, words):
    with pytest.raises(ValueError) as e:
        neural.FAMILIES[family](arrays)
    for word in words:
        assert word in str(e.value), (word, str(e.value))
