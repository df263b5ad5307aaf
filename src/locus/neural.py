"""From-scratch neural regressors mapping feature vectors to 2-d positions.

Three families, all trained on mean squared error over both output
coordinates with plain mini-batch SGD:

  * MLP: tanh hidden layers, identity output.
  * RBF: Gaussian kernels on k-means centers; only the linear output layer
    is trainable (centers and widths stay fixed after init). The output
    layer can also be solved directly by ridge least squares.
  * CNN: the feature vector read as a sequence of 3 anchors with C channels
    each (C = 1 for RSSI rows, 2 for hybrid rows: an anchor's RSSI and
    angle); two width-2 valid convolutions with tanh, then a flatten and two
    dense layers.

Everything is numpy; gradients are hand-derived backprop, verifiable
against central finite differences via gradient_check().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import check_bound

RIDGE_DEFAULT = 1e-6
KMEANS_ITERATIONS = 50
WIDTH_FLOOR = 1e-6
# Models per SGD stack in fit. Past about ten, larger stacks buy little: at
# batch 32, a hybrid CNN (3 anchors x 2 channels) model-step took 38 us in a
# stack of 10 and 35 us in one of 30 (best of 3, one core of a shared 2-core x86 host).
STACK_LIMIT = 10


@dataclass(frozen=True)
class TrainSpec:
    """The SGD settings of `train` and `fit` (the experiment config's `train` section)."""

    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 200

    def __post_init__(self):
        check_bound(self, 0, "learning_rate", strict=True)
        check_bound(self, 1, "batch_size", "epochs")


@dataclass
class TrainResult:
    loss_history: np.ndarray


def _xavier(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Diverged(ValueError):
    """A non-finite batch loss in train(); `member` is the stack index of the
    first model at fault at the earliest such step (0 for a plain model), or
    its job index when raised by fit()."""

    member = 0


def _mse_and_delta(pred, y):
    """Per-member batch MSE and its gradient; pred and y are (..., n, 2)."""
    diff = pred - y
    n_out = diff.shape[-2] * diff.shape[-1]
    # Per member, the bits of np.mean(diff**2), without np.mean's per-call overhead.
    return (diff * diff).sum(axis=(-2, -1)) / n_out, 2.0 * diff / n_out


def _dims(arrays, name, ndim):
    """The shape of arrays[name], which must be there with ndim axes."""
    if name not in arrays:
        raise ValueError(f"model array {name!r} is missing")
    shape = arrays[name].shape
    if len(shape) != ndim:
        raise ValueError(f"model array {name!r} must be {ndim}-d, got shape {shape}")
    return shape


class Regressor:
    """A model is its named float arrays, kept in one store in file order.

    Each family declares its arrays once, in _layout(arrays): the input size,
    the `arch` block of the model file and the shape of every array, all
    derived from the shapes of a few of them. The constructor checks the
    arrays against that layout and for finiteness, naming the bad array.
    Its math is _forward(x), its cached activations with the output last, and
    _backward(cache, delta), a gradient per array that training moves (so never
    an RBF's centers or widths); prediction and the MSE loss are written here.

    Regressor.stack(models) holds S models of one shape as one, each array
    with a leading stack axis (lead = (S,)); its batches are (S, n, d) and its
    loss one per member. The layers are written for both, so a plain model
    (lead = ()) is the stack-less case.
    """

    family = "base"
    lead: tuple[int, ...] = ()

    def __init__(self, arrays: dict):
        arrays = {name: np.asarray(a, dtype=float) for name, a in arrays.items()}
        for name, a in arrays.items():
            if not np.isfinite(a).all():
                raise ValueError(f"model array {name!r} has a non-finite entry")
        self.input_dim, _, shapes = self._layout(arrays)
        extra = [name for name in arrays if name not in shapes]
        if extra:
            raise ValueError(f"unexpected model array {extra[0]!r}")
        for name, shape in shapes.items():
            if _dims(arrays, name, len(shape)) != shape:
                raise ValueError(f"model array {name!r} must have shape {shape}, got {arrays[name].shape}")
        self.arrays = {name: arrays[name] for name in shapes}

    @classmethod
    def stack(cls, models: list) -> "Regressor":
        """One model whose arrays stack those of `models`, which share one layout."""
        stacked = cls.__new__(cls)
        stacked.input_dim, stacked.lead = models[0].input_dim, (len(models),)
        stacked.arrays = {name: np.stack([m.arrays[name] for m in models]) for name in models[0].arrays}
        return stacked

    @property
    def arch(self) -> dict:
        """The `arch` block of the model file, derived afresh from the shapes."""
        return self._layout(self.arrays)[1]

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        return self._forward(self._check_batch(x))[-1]

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray):
        """(batch MSE, gradient per trainable array name) of a batch that
        train() or gradient_check() has already passed through _check_batch."""
        cache = self._forward(x)
        loss, delta = _mse_and_delta(cache[-1], y)
        return loss, self._backward(cache, delta)

    def _check_batch(self, x, y=None):
        x = np.asarray(x, dtype=float)
        if x.shape[:-2] != self.lead or x.ndim != len(self.lead) + 2 or x.shape[-1] != self.input_dim:
            want = ", ".join(map(str, (*self.lead, "n", self.input_dim)))
            raise ValueError(f"expected batch shape ({want}), got {x.shape}")
        if y is not None:
            y = np.asarray(y, dtype=float)
            if y.shape != (*x.shape[:-1], 2):
                raise ValueError(f"expected targets shape {(*x.shape[:-1], 2)}, got {y.shape}")
            return x, y
        return x


class MlpModel(Regressor):
    family = "mlp"

    @staticmethod
    def _layout(arrays):
        """w0, b0, w1, b1, ...: layer l maps widths[l] inputs to widths[l + 1]."""
        n = sum(name.startswith("w") for name in arrays)
        widths = [_dims(arrays, "w0", 2)[1]] + [_dims(arrays, f"w{l}", 2)[0] for l in range(n - 1)] + [2]
        shapes = {}
        for l in range(n):
            shapes[f"w{l}"] = (widths[l + 1], widths[l])
            shapes[f"b{l}"] = (widths[l + 1],)
        return widths[0], {"hidden": widths[1:-1]}, shapes

    def _layers(self):
        """The weight and bias lists, bound from the store on each call."""
        p = list(self.arrays.values())
        return p[0::2], p[1::2]

    def _forward(self, x):
        """The input and hidden activations, then the output."""
        weights, biases = self._layers()
        acts = [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            acts.append(np.tanh(acts[-1] @ w.swapaxes(-1, -2) + b[..., None, :]))
        acts.append(acts[-1] @ weights[-1].swapaxes(-1, -2) + biases[-1][..., None, :])
        return acts

    def _backward(self, acts, delta):
        weights = self._layers()[0]
        grads = {}
        for l in range(len(weights) - 1, -1, -1):
            grads[f"w{l}"] = delta.swapaxes(-1, -2) @ acts[l]
            grads[f"b{l}"] = delta.sum(axis=-2)
            if l > 0:
                delta = (delta @ weights[l]) * (1.0 - acts[l] ** 2)
        return grads


def make_mlp(input_dim: int, hidden=(32, 32), seed=0) -> MlpModel:
    """Xavier-uniform weights, zero biases. hidden must be non-empty."""
    if input_dim < 1:
        raise ValueError("input dimension must be positive")
    hidden = tuple(int(h) for h in hidden)
    if not hidden or any(h < 1 for h in hidden):
        raise ValueError("hidden layer widths must be a non-empty positive tuple")
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden, 2]
    arrays = {}
    for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        arrays[f"w{l}"] = _xavier(rng, fan_in, fan_out, (fan_out, fan_in))
        arrays[f"b{l}"] = np.zeros(fan_out)
    return MlpModel(arrays)


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (n, k) from the rows of x (n, d) to centers (k, d).

    The per-feature squares are summed in feature order. For d < 8 that is
    the bits of np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2),
    without its (n, k, d) temporary; numpy sums 8 or more terms pairwise.
    """
    d2 = np.zeros((x.shape[0], centers.shape[0]))
    diff = np.empty_like(d2)
    for j in range(x.shape[1]):
        np.subtract(x[:, j, None], centers[:, j], out=diff)
        diff *= diff
        d2 += diff
    return d2


def kmeans(data: np.ndarray, k: int, seed=0) -> np.ndarray:
    """Lloyd k-means with seeded init, stopping once the assignments repeat.

    Initial centers are drawn without replacement from the deduplicated rows;
    when k >= number of distinct rows the distinct rows themselves are
    returned. Assignment ties go to the lowest center index; empty clusters
    keep their previous center. Repeated assignments would recompute the
    same centers, so stopping there gives the centers of a full run of
    KMEANS_ITERATIONS steps.

    Each iteration works on (n, k) arrays: _sq_dists for the distances and
    one bincount per feature for the cluster sums. The distances are kept
    across iterations and only the columns of centers that moved are
    recomputed; a center whose cluster kept its rows gets the same bits.
    For rows of fewer than 8 features the distances have the bits of the
    (n, k, d) form np.sum((data[:, None, :] - centers[None, :, :]) ** 2,
    axis=2), so the labels and centers do too; every layout has 3 or 6.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("k-means needs a non-empty 2-d data array")
    if k < 1 or k > data.shape[0]:
        raise ValueError(f"need 1 <= k <= {data.shape[0]}, got {k}")
    unique = np.unique(data, axis=0)
    if k >= unique.shape[0]:
        return unique.copy()
    rng = np.random.default_rng(seed)
    centers = unique[rng.choice(unique.shape[0], size=k, replace=False)].copy()
    d2 = _sq_dists(data, centers)
    labels = None
    for _ in range(KMEANS_ITERATIONS):
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Row-order sums over counts: for rows of two or more features, the
        # bits of data[labels == j].mean(axis=0).
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=k) for col in data.T])
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        old = centers.copy()
        centers[filled] = sums[filled] / counts[filled, None]
        moved = np.flatnonzero((centers != old).any(axis=1))
        # Computed (m, n), along the rows: an (n, m) broadcast's inner loop is only m long.
        d2[:, moved] = _sq_dists(centers[moved], data).T
    return centers


def rbf_widths(centers: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Per-center width: mean distance to the 2 nearest other centers.

    A single center falls back to the mean distance of the data to it.
    Widths are floored at a small positive value.
    """
    k = centers.shape[0]
    if k == 1:
        w = float(np.mean(np.linalg.norm(data - centers[0], axis=1)))
        return np.array([max(w, WIDTH_FLOOR)])
    d = np.sqrt(_sq_dists(centers, centers))
    # Each sorted row starts with the center's zero distance to itself.
    return np.maximum(np.sort(d, axis=1)[:, 1 : 1 + min(2, k - 1)].mean(axis=1), WIDTH_FLOOR)


class RbfModel(Regressor):
    """Gaussian RBF network; centers/widths fixed, linear output trainable."""

    family = "rbf"

    @staticmethod
    def _layout(arrays):
        k, d = _dims(arrays, "centers", 2)
        if np.any(arrays.get("widths", 1.0) <= 0):
            raise ValueError("model array 'widths' must be positive")
        return d, {"k": k}, {"centers": (k, d), "widths": (k,), "w_out": (2, k), "b_out": (2,)}

    @classmethod
    def init(cls, data: np.ndarray, k: int, seed=0) -> "RbfModel":
        centers = kmeans(data, k, seed=seed)
        widths = rbf_widths(centers, data)
        rng = np.random.default_rng([seed, 1])
        k_eff = centers.shape[0]
        w_out = _xavier(rng, k_eff, 2, (2, k_eff))
        return cls({"centers": centers, "widths": widths, "w_out": w_out, "b_out": np.zeros(2)})

    def _kernels(self, x):
        d2 = _sq_dists(x, self.arrays["centers"])
        return np.exp(-d2 / (2.0 * self.arrays["widths"] ** 2))

    def _forward(self, x):
        phi = self._kernels(x)
        return phi, phi @ self.arrays["w_out"].T + self.arrays["b_out"]

    def _backward(self, cache, delta):
        return {"w_out": delta.T @ cache[0], "b_out": delta.sum(axis=0)}


def fit_rbf_output(model: RbfModel, x: np.ndarray, y: np.ndarray, ridge=RIDGE_DEFAULT) -> float:
    """Solve the RBF output layer by ridge least squares; returns the MSE."""
    x, y = model._check_batch(x, y)
    phi = model._kernels(x)
    g = np.column_stack([phi, np.ones(phi.shape[0])])
    gram = g.T @ g + ridge * np.eye(g.shape[1])
    w = np.linalg.solve(gram, g.T @ y)  # (k + 1, 2)
    model.arrays["w_out"] = w[:-1].T.copy()
    model.arrays["b_out"] = w[-1].copy()
    pred = g @ w
    return float(np.mean((pred - y) ** 2))


def _unfold(x, kw):
    """im2col for a valid 1-d convolution of width kw (Chellapilla et al. 2006):
    x (..., n, L, cin) -> (..., n * L', kw * cin) with L' = L - kw + 1, where
    row (i, t) holds the window x[..., i, t : t + kw, :] flattened tap by tap."""
    *lead, n, length, cin = x.shape
    lout = length - kw + 1
    return np.concatenate([x[..., k : k + lout, :] for k in range(kw)], axis=-1).reshape(*lead, n * lout, kw * cin)


def _conv1d(x, w, b):
    """Valid 1-d convolution as one matmul on the unfolded input.

    x: (..., n, L, cin), w: (..., kw, cin, cout) -> (unfold(x), output
    (..., n, L - kw + 1, cout)); backprop reuses the unfolded input.
    """
    kw, _, cout = w.shape[-3:]
    u = _unfold(x, kw)
    return u, (u @ w.reshape(*w.shape[:-3], -1, cout) + b[..., None, :]).reshape(*x.shape[:-2], -1, cout)


class CnnModel(Regressor):
    """1-d convolutional regressor over the feature sequence."""

    family = "cnn"

    @staticmethod
    def _layout(arrays):
        """Two width-kw convolutions with f0 and f1 filters (cw0, cb0, cw1, cb1), then dense layers
        (w0, b0, w1, b1) on the flattened (l2, f1) output of l2 + 2 (kw - 1) steps of c channels."""
        kw, c, f0 = _dims(arrays, "cw0", 3)
        if c < 1:
            raise ValueError("model array 'cw0' must have at least one input channel")
        f1 = _dims(arrays, "cw1", 3)[2]
        dense, flat = _dims(arrays, "w0", 2)
        l2 = flat // f1 if f1 else 0
        if l2 < 1 or l2 * f1 != flat:
            raise ValueError(f"model array 'w0' has {flat} inputs, not a positive multiple of {f1} filters")
        shapes = {"cw0": (kw, c, f0), "cb0": (f0,), "cw1": (kw, f0, f1), "cb1": (f1,),
                  "w0": (dense, flat), "b0": (dense,), "w1": (2, dense), "b1": (2,)}
        return (l2 + 2 * (kw - 1)) * c, {"kernel_width": kw, "filters": [f0, f1], "dense_width": dense}, shapes

    def _forward(self, x):
        cw0, cb0, cw1, cb1, w0, b0, w1, b1 = self.arrays.values()
        # (..., n, C * L) -> (..., n, L, C): feature j * L + t is channel j of step t.
        u0, z1 = _conv1d(x.reshape(*x.shape[:-1], cw0.shape[-2], -1).swapaxes(-1, -2), cw0, cb0)
        a1 = np.tanh(z1)
        u1, z2 = _conv1d(a1, cw1, cb1)
        a2 = np.tanh(z2)
        f = a2.reshape(*x.shape[:-1], -1)
        h1 = f @ w0.swapaxes(-1, -2) + b0[..., None, :]
        out = h1 @ w1.swapaxes(-1, -2) + b1[..., None, :]
        return u0, a1, u1, a2, f, h1, out

    def _backward(self, cache, delta):
        cw0, _, cw1, _, w0, _, w1, _ = self.arrays.values()
        u0, a1, u1, a2, f, h1, _ = cache
        d_h1 = delta @ w1
        d_f = d_h1 @ w0
        kw1, f0, f1 = cw1.shape[-3:]
        *lead, n, l2, _ = a2.shape
        d_z2 = (d_f.reshape(a2.shape) * (1.0 - a2**2)).reshape(*lead, -1, f1)
        # The input gradient of a convolution is dZ @ W^T on the unfolded
        # windows, folded back by summing each tap's slice where windows overlap.
        d_u1 = (d_z2 @ cw1.reshape(*lead, -1, f1).swapaxes(-1, -2)).reshape(*lead, n, l2, kw1, f0)
        d_a1 = np.empty_like(a1)
        d_a1[..., :l2, :] = d_u1[..., 0, :]
        d_a1[..., l2:, :] = 0.0
        for k in range(1, kw1):
            d_a1[..., k : k + l2, :] += d_u1[..., k, :]
        d_z1 = (d_a1 * (1.0 - a1**2)).reshape(*lead, -1, f0)
        return {
            "w1": delta.swapaxes(-1, -2) @ h1,
            "b1": delta.sum(axis=-2),
            "w0": d_h1.swapaxes(-1, -2) @ f,
            "b0": d_h1.sum(axis=-2),
            "cw1": (u1.swapaxes(-1, -2) @ d_z2).reshape(cw1.shape),
            "cb1": d_z2.sum(axis=-2),
            "cw0": (u0.swapaxes(-1, -2) @ d_z1).reshape(cw0.shape),
            "cb0": d_z1.sum(axis=-2),
        }


def make_cnn(input_dim: int, channels=1, filters=(16, 16), kernel_width=2, dense_width=32, seed=0) -> CnnModel:
    if channels < 1 or input_dim % channels:
        raise ValueError(f"input width {input_dim} is not a multiple of {channels} channels")
    length = input_dim // channels
    if length < 2 * (kernel_width - 1) + 1:
        raise ValueError(f"input length {length} too short for two width-{kernel_width} convolutions")
    if len(filters) != 2 or any(f < 1 for f in filters):
        raise ValueError("need two positive filter counts")
    if dense_width < 1:
        raise ValueError("dense width must be positive")
    rng = np.random.default_rng(seed)
    f0, f1 = filters
    cw0 = _xavier(rng, kernel_width * channels, kernel_width * f0, (kernel_width, channels, f0))
    cw1 = _xavier(rng, kernel_width * f0, kernel_width * f1, (kernel_width, f0, f1))
    l2 = length - 2 * (kernel_width - 1)
    flat = l2 * f1
    w0 = _xavier(rng, flat, dense_width, (dense_width, flat))
    w1 = _xavier(rng, dense_width, 2, (2, dense_width))
    return CnnModel({"cw0": cw0, "cb0": np.zeros(f0), "cw1": cw1, "cb1": np.zeros(f1),
                     "w0": w0, "b0": np.zeros(dense_width), "w1": w1, "b1": np.zeros(2)})


FAMILIES = {cls.family: cls for cls in (MlpModel, RbfModel, CnnModel)}


def train(model: Regressor, x, y, spec: TrainSpec, steps: int, seeds) -> TrainResult:
    """Mini-batch SGD for exactly `steps` steps, of one model or of a stack.

    A stack of S members (see Regressor.stack) trains on x (S, n, d) and
    y (S, n, 2) with one seed per member; a plain model takes one seed. Each
    member's sample order reshuffles at every epoch boundary from a generator
    seeded with its seed, so a member gets the bits it would get trained
    alone. The recorded loss is the batch loss before each update, one row per
    step. Shapes are checked once here; a non-finite batch loss raises
    Diverged naming the family and the step.
    """
    x, y = model._check_batch(x, y)
    n = x.shape[-2]
    if n < 1 or not steps >= 1:
        raise ValueError(f"training needs at least one row and one step, got {n} rows and {steps} steps")
    rngs = [np.random.default_rng(seed) for seed in (seeds if model.lead else [seeds])]
    if len(rngs) != math.prod(model.lead):
        raise ValueError(f"expected one seed per stack member, got {len(rngs)} for {math.prod(model.lead)}")
    lr = spec.learning_rate
    history = np.empty((steps, *model.lead))
    pos = n
    # Overflow on the way to a non-finite loss is reported by the Diverged below.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            if pos >= n:
                # One gather of every member's epoch order.
                order = np.array([rng.permutation(n) for rng in rngs]).reshape(*model.lead, n, 1)
                xs, ys = np.take_along_axis(x, order, -2), np.take_along_axis(y, order, -2)
                pos = 0
            end = pos + spec.batch_size
            loss, grads = model.loss_and_gradients(xs[..., pos:end, :], ys[..., pos:end, :])
            finite = np.isfinite(loss)
            if not finite.all():
                err = Diverged(f"{model.family} training diverged: non-finite batch loss at step {step}")
                err.member = int(np.argmin(finite))
                raise err
            pos = end
            for name, g in grads.items():
                g *= lr  # in place; the same bits as arrays[name] -= lr * g
                model.arrays[name] -= g
            history[step] = loss
    return TrainResult(history)


def build(family: str, x: np.ndarray, seed: int, rbf_centers: int) -> Regressor:
    """A fresh model of one family for the training features x, shape (n, input_dim).

    MLP and CNN take their constructors' default architectures; RBF places
    min(rbf_centers, n) k-means centers on x. The CNN reads a row as the 3
    anchors with one channel per quantity (RSSI, then angle in hybrid rows).
    """
    if family == "mlp":
        return make_mlp(x.shape[1], seed=seed)
    if family == "cnn":
        return make_cnn(x.shape[1], channels=x.shape[1] // 3, seed=seed)
    if family == "rbf":
        return RbfModel.init(x, k=min(rbf_centers, x.shape[0]), seed=seed)
    raise ValueError(f"unknown model family {family!r}")


def fit(jobs, spec: TrainSpec, ridge=RIDGE_DEFAULT):
    """Fit built models in place from one iterable of (model, x, y, seed) jobs;
    a generator of (job index, loss history), each yielded as soon as that model is fitted.

    An RBF's output layer is ridge-solved as its job arrives (the history is that
    one MSE). Every other model waits in its group of one family and row shape,
    which trains as one stack (see train) for spec.epochs * ceil(n / spec.batch_size)
    steps as soon as it holds STACK_LIMIT models; groups still waiting when the jobs
    run out train last, in first-seen order. Members keep views of their stack's
    arrays; its histories, views of one (steps, S) array, go before the next stack
    trains. A divergence raises Diverged with `member` set to the job index of the
    model at fault; a full stack trains before later jobs are drawn, so of two
    diverging models in different stacks, the one whose stack trains first is named.
    """
    groups = {}
    for k, (model, x, y, seed) in enumerate(jobs):
        if model.family == "rbf":
            yield k, np.array([fit_rbf_output(model, x, y, ridge=ridge)])
            continue
        group = groups.setdefault((model.family, np.shape(x)), [])
        group.append((k, model, x, y, seed))
        if len(group) == STACK_LIMIT:
            yield from _train_stack(group, spec)
            group.clear()
    for group in groups.values():
        if group:
            yield from _train_stack(group, spec)


def _train_stack(group: list, spec: TrainSpec):
    """Train fit's (job index, model, x, y, seed) jobs of one group as one stack; yield each (job index, history)."""
    ks, models, xs, ys, seeds = zip(*group)
    stack = type(models[0]).stack(models)
    steps = spec.epochs * math.ceil(len(xs[0]) / spec.batch_size)
    try:
        history = train(stack, np.stack(xs), np.stack(ys), spec, steps, seeds).loss_history
    except Diverged as e:
        e.member = ks[e.member]
        raise
    for j, (k, model) in enumerate(zip(ks, models)):
        model.arrays = {name: a[j] for name, a in stack.arrays.items()}
        yield k, history[:, j]


def gradient_check(model: Regressor, x, y, h=1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    Perturbs in place (restoring it afterwards) every entry of each array
    that has a gradient, and compares (L(p+h) - L(p-h)) / 2h against it.
    """
    x, y = model._check_batch(x, y)
    _, grads = model.loss_and_gradients(x, y)
    worst = 0.0
    for name in sorted(grads):
        p = model.arrays[name].reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(p.size):
            orig = p[i]
            p[i] = orig + h
            lp = model.loss_and_gradients(x, y)[0]
            p[i] = orig - h
            lm = model.loss_and_gradients(x, y)[0]
            p[i] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(fd - g[i]) / max(abs(fd) + abs(g[i]), 1e-8)
            worst = max(worst, rel)
    return worst


def model_to_dict(model: Regressor, norm: dict | None = None) -> dict:
    """Versioned JSON-ready form: family tag, shapes, the flat arrays of the store."""
    return {
        "format": "locus-model",
        "version": 1,
        "family": model.family,
        "input_dim": model.input_dim,
        "arch": model.arch,
        "params": {
            name: {"shape": list(a.shape), "data": [float(v) for v in a.reshape(-1)]}
            for name, a in model.arrays.items()
        },
        "norm": norm,
    }


def model_from_dict(d: dict):
    """Inverse of model_to_dict; returns (model, norm_or_None). A malformed
    document raises ValueError naming the bad field or array."""
    if not isinstance(d, dict) or d.get("format") != "locus-model":
        raise ValueError("not a model document")
    if d.get("version") != 1:
        raise ValueError(f"unsupported model version {d.get('version')}")
    if d.get("family") not in FAMILIES:
        raise ValueError(f"unknown model family {d.get('family')!r}")
    arrays = {}
    for name, entry in d.get("params", {}).items():
        try:
            arrays[name] = np.array(entry["data"], dtype=float).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"model array {name!r}: its 'data' does not match its 'shape'") from None
    model = FAMILIES[d["family"]](arrays)
    for key, derived in (("input_dim", model.input_dim), ("arch", model.arch)):
        if d.get(key) != derived:
            raise ValueError(f"model {key} {d.get(key)!r} does not match its arrays, which give {derived!r}")
    return model, d.get("norm")
