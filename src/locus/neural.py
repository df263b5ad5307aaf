"""From-scratch neural regressors mapping feature vectors to 2-d positions.

Three families, all trained on mean squared error over both output
coordinates with plain mini-batch SGD:

  * MLP: tanh hidden layers, identity output.
  * RBF: Gaussian kernels on k-means centers; only the linear output layer
    is trainable (centers and widths stay frozen after init). The output
    layer can also be solved directly by ridge least squares.
  * CNN: the feature vector treated as a length-L, 1-channel sequence;
    two width-2 valid convolutions with tanh, then a flatten and two
    dense layers.

Everything is numpy; gradients are hand-derived backprop, verifiable
against central finite differences via gradient_check().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RIDGE_DEFAULT = 1e-6
KMEANS_ITERATIONS = 50
WIDTH_FLOOR = 1e-6


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0 or not math.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be nonnegative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if self.iterations < 1:
            raise ValueError(f"iteration count must be positive, got {self.iterations}")


@dataclass
class TrainResult:
    model: "Regressor"
    loss_history: np.ndarray

    @property
    def final_loss(self) -> float:
        return float(self.loss_history[-1])


def _xavier(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _mse_and_delta(pred, y):
    diff = pred - y
    # The bits of np.mean(diff**2), without np.mean's per-call overhead.
    loss = float((diff * diff).sum()) / diff.size
    return loss, 2.0 * diff / diff.size


class Regressor:
    """Common interface: forward_batch, loss_and_gradients, params."""

    family = "base"
    input_dim = 0

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray):
        """(batch MSE, gradient per params() name) of a batch that train() or
        gradient_check() has already passed through _check_batch."""
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by name; SGD updates them in place."""
        raise NotImplementedError

    def _check_batch(self, x, y=None):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected batch shape (n, {self.input_dim}), got {x.shape}")
        if y is not None:
            y = np.asarray(y, dtype=float)
            if y.shape != (x.shape[0], 2):
                raise ValueError(f"expected targets shape ({x.shape[0]}, 2), got {y.shape}")
            return x, y
        return x


class MlpModel(Regressor):
    family = "mlp"

    def __init__(self, weights, biases):
        if not weights:
            raise ValueError("MLP needs at least one layer")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.input_dim = self.weights[0].shape[1]
        self.hidden = tuple(w.shape[0] for w in self.weights[:-1])

    def forward_batch(self, x):
        x = self._check_batch(x)
        a = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ w.T + b)
        return a @ self.weights[-1].T + self.biases[-1]

    def loss_and_gradients(self, x, y):
        acts = [x]
        a = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ w.T + b)
            acts.append(a)
        out = a @ self.weights[-1].T + self.biases[-1]
        loss, delta = _mse_and_delta(out, y)
        grads = {}
        n_layers = len(self.weights)
        for l in range(n_layers - 1, -1, -1):
            grads[f"w{l}"] = delta.T @ acts[l]
            grads[f"b{l}"] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ self.weights[l]) * (1.0 - acts[l] ** 2)
        return loss, grads

    def params(self):
        out = {}
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{l}"] = w
            out[f"b{l}"] = b
        return out


def make_mlp(input_dim: int, hidden=(32, 32), seed=0) -> MlpModel:
    """Xavier-uniform weights, zero biases. hidden must be non-empty."""
    if input_dim < 1:
        raise ValueError("input dimension must be positive")
    hidden = tuple(int(h) for h in hidden)
    if not hidden or any(h < 1 for h in hidden):
        raise ValueError("hidden layer widths must be a non-empty positive tuple")
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden, 2]
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(_xavier(rng, fan_in, fan_out, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def kmeans(data: np.ndarray, k: int, seed=0, iterations=KMEANS_ITERATIONS) -> np.ndarray:
    """Lloyd k-means with seeded init, stopping once the assignments repeat.

    Initial centers are drawn without replacement from the deduplicated rows;
    when k >= number of distinct rows the distinct rows themselves are
    returned. Assignment ties go to the lowest center index; empty clusters
    keep their previous center. Repeated assignments would recompute the
    same centers, so stopping there gives the centers of a full run of
    `iterations` steps.
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
    labels = None
    for _ in range(iterations):
        d2 = np.sum((data[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Row-order sums over counts: for rows of two or more features, the
        # bits of data[labels == j].mean(axis=0).
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, data)
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
    return centers


def rbf_widths(centers: np.ndarray, data: np.ndarray | None = None) -> np.ndarray:
    """Per-center width: mean distance to the 2 nearest other centers.

    A single center falls back to the mean distance of the data to it (1.0
    if no data is given). Widths are floored at a small positive value.
    """
    k = centers.shape[0]
    if k == 1:
        if data is not None and data.shape[0] > 0:
            w = float(np.mean(np.linalg.norm(data - centers[0], axis=1)))
        else:
            w = 1.0
        return np.array([max(w, WIDTH_FLOOR)])
    d = np.sqrt(np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=2))
    widths = np.empty(k)
    for j in range(k):
        others = np.sort(d[j][np.arange(k) != j])
        widths[j] = others[: min(2, k - 1)].mean()
    return np.maximum(widths, WIDTH_FLOOR)


class RbfModel(Regressor):
    """Gaussian RBF network; centers/widths frozen, linear output trainable."""

    family = "rbf"

    def __init__(self, centers, widths, w_out, b_out):
        self.centers = np.asarray(centers, dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.w_out = np.asarray(w_out, dtype=float)
        self.b_out = np.asarray(b_out, dtype=float)
        if self.centers.ndim != 2:
            raise ValueError("centers must be 2-d")
        k = self.centers.shape[0]
        if self.widths.shape != (k,) or np.any(self.widths <= 0):
            raise ValueError("need one positive width per center")
        if self.w_out.shape != (2, k) or self.b_out.shape != (2,):
            raise ValueError("output layer shape mismatch")
        self.input_dim = self.centers.shape[1]

    @classmethod
    def init(cls, data: np.ndarray, k: int = 40, seed=0) -> "RbfModel":
        centers = kmeans(data, k, seed=seed)
        widths = rbf_widths(centers, data)
        rng = np.random.default_rng([seed, 1])
        k_eff = centers.shape[0]
        w_out = _xavier(rng, k_eff, 2, (2, k_eff))
        return cls(centers, widths, w_out, np.zeros(2))

    def _kernels(self, x):
        d2 = np.sum((x[:, None, :] - self.centers[None, :, :]) ** 2, axis=2)
        return np.exp(-d2 / (2.0 * self.widths**2))

    def forward_batch(self, x):
        x = self._check_batch(x)
        return self._kernels(x) @ self.w_out.T + self.b_out

    def loss_and_gradients(self, x, y):
        phi = self._kernels(x)
        out = phi @ self.w_out.T + self.b_out
        loss, delta = _mse_and_delta(out, y)
        return loss, {"w_out": delta.T @ phi, "b_out": delta.sum(axis=0)}

    def params(self):
        # Centers and widths are deliberately absent: they are frozen.
        return {"w_out": self.w_out, "b_out": self.b_out}


def fit_rbf_output(model: RbfModel, x: np.ndarray, y: np.ndarray, ridge=RIDGE_DEFAULT) -> float:
    """Solve the RBF output layer by ridge least squares; returns the MSE."""
    x, y = model._check_batch(x, y)
    phi = model._kernels(x)
    g = np.column_stack([phi, np.ones(phi.shape[0])])
    gram = g.T @ g + ridge * np.eye(g.shape[1])
    w = np.linalg.solve(gram, g.T @ y)  # (k + 1, 2)
    model.w_out = w[:-1].T.copy()
    model.b_out = w[-1].copy()
    pred = g @ w
    return float(np.mean((pred - y) ** 2))


def _unfold(x, kw):
    """im2col for a valid 1-d convolution of width kw (Chellapilla et al. 2006):
    x (n, L, cin) -> (n * L', kw * cin) with L' = L - kw + 1, where row
    (i, t) holds the window x[i, t : t + kw, :] flattened tap by tap."""
    n, length, cin = x.shape
    lout = length - kw + 1
    return np.concatenate([x[:, k : k + lout, :] for k in range(kw)], axis=2).reshape(n * lout, kw * cin)


def _conv1d(x, w, b):
    """Valid 1-d convolution as one matmul on the unfolded input.

    x: (n, L, cin), w: (kw, cin, cout) -> (unfold(x), output (n, L - kw + 1, cout));
    backprop reuses the unfolded input.
    """
    kw, _, cout = w.shape
    u = _unfold(x, kw)
    return u, (u @ w.reshape(-1, cout) + b).reshape(x.shape[0], -1, cout)


class CnnModel(Regressor):
    """1-d convolutional regressor over the feature sequence."""

    family = "cnn"

    def __init__(self, cw0, cb0, cw1, cb1, w0, b0, w1, b1, input_dim):
        self.cw0 = np.asarray(cw0, dtype=float)
        self.cb0 = np.asarray(cb0, dtype=float)
        self.cw1 = np.asarray(cw1, dtype=float)
        self.cb1 = np.asarray(cb1, dtype=float)
        self.w0 = np.asarray(w0, dtype=float)
        self.b0 = np.asarray(b0, dtype=float)
        self.w1 = np.asarray(w1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.input_dim = int(input_dim)
        l2 = self.input_dim - self.cw0.shape[0] - self.cw1.shape[0] + 2
        if l2 < 1:
            raise ValueError(f"input length {self.input_dim} too short for the conv stack")
        flat = l2 * self.cw1.shape[2]
        if self.w0.shape[1] != flat:
            raise ValueError(f"dense input size {self.w0.shape[1]} != flattened {flat}")

    def _forward_cached(self, x):
        u0, z1 = _conv1d(x[:, :, None], self.cw0, self.cb0)
        a1 = np.tanh(z1)
        u1, z2 = _conv1d(a1, self.cw1, self.cb1)
        a2 = np.tanh(z2)
        f = a2.reshape(x.shape[0], -1)
        h1 = f @ self.w0.T + self.b0
        out = h1 @ self.w1.T + self.b1
        return u0, a1, u1, a2, f, h1, out

    def forward_batch(self, x):
        x = self._check_batch(x)
        return self._forward_cached(x)[-1]

    def loss_and_gradients(self, x, y):
        u0, a1, u1, a2, f, h1, out = self._forward_cached(x)
        loss, delta = _mse_and_delta(out, y)
        d_h1 = delta @ self.w1
        d_f = d_h1 @ self.w0
        kw1, f0, f1 = self.cw1.shape
        n, l2, _ = a2.shape
        d_z2 = (d_f.reshape(a2.shape) * (1.0 - a2**2)).reshape(-1, f1)
        # The input gradient of a convolution is dZ @ W^T on the unfolded
        # windows, folded back by summing each tap's slice where windows overlap.
        d_u1 = (d_z2 @ self.cw1.reshape(-1, f1).T).reshape(n, l2, kw1, f0)
        d_a1 = np.empty_like(a1)
        d_a1[:, :l2, :] = d_u1[:, :, 0, :]
        d_a1[:, l2:, :] = 0.0
        for k in range(1, kw1):
            d_a1[:, k : k + l2, :] += d_u1[:, :, k, :]
        d_z1 = (d_a1 * (1.0 - a1**2)).reshape(-1, f0)
        grads = {
            "w1": delta.T @ h1,
            "b1": delta.sum(axis=0),
            "w0": d_h1.T @ f,
            "b0": d_h1.sum(axis=0),
            "cw1": (u1.T @ d_z2).reshape(self.cw1.shape),
            "cb1": d_z2.sum(axis=0),
            "cw0": (u0.T @ d_z1).reshape(self.cw0.shape),
            "cb0": d_z1.sum(axis=0),
        }
        return loss, grads

    def params(self):
        return {
            "cw0": self.cw0,
            "cb0": self.cb0,
            "cw1": self.cw1,
            "cb1": self.cb1,
            "w0": self.w0,
            "b0": self.b0,
            "w1": self.w1,
            "b1": self.b1,
        }


def make_cnn(input_dim: int, filters=(16, 16), kernel_width=2, dense_width=32, seed=0) -> CnnModel:
    if input_dim < 2 * (kernel_width - 1) + 1:
        raise ValueError(f"input length {input_dim} too short for two width-{kernel_width} convolutions")
    if len(filters) != 2 or any(f < 1 for f in filters):
        raise ValueError("need two positive filter counts")
    if dense_width < 1:
        raise ValueError("dense width must be positive")
    rng = np.random.default_rng(seed)
    f0, f1 = filters
    cw0 = _xavier(rng, kernel_width * 1, kernel_width * f0, (kernel_width, 1, f0))
    cw1 = _xavier(rng, kernel_width * f0, kernel_width * f1, (kernel_width, f0, f1))
    l2 = input_dim - 2 * (kernel_width - 1)
    flat = l2 * f1
    w0 = _xavier(rng, flat, dense_width, (dense_width, flat))
    w1 = _xavier(rng, dense_width, 2, (2, dense_width))
    return CnnModel(cw0, np.zeros(f0), cw1, np.zeros(f1), w0, np.zeros(dense_width), w1, np.zeros(2), input_dim)


def train(model: Regressor, x, y, cfg: TrainConfig) -> TrainResult:
    """Mini-batch SGD for exactly cfg.iterations steps.

    Sample order reshuffles at every epoch boundary from one generator
    seeded with cfg.seed, so a fixed seed reproduces the loss history
    bit for bit. The recorded loss is the batch loss before each update.
    Shapes are checked once here; a non-finite batch loss raises ValueError
    naming the family and the step.
    """
    x, y = model._check_batch(x, y)
    if x.shape[0] < 1:
        raise ValueError("training data must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    lr = cfg.learning_rate
    params = model.params()
    history = np.empty(cfg.iterations)
    pos = n
    # Overflow on the way to a non-finite loss is reported by the ValueError below.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.iterations):
            if pos >= n:
                order = rng.permutation(n)
                xs, ys = x[order], y[order]
                pos = 0
            end = pos + cfg.batch_size
            loss, grads = model.loss_and_gradients(xs[pos:end], ys[pos:end])
            if not math.isfinite(loss):
                raise ValueError(f"{model.family} training diverged: non-finite batch loss at step {step}")
            pos = end
            for name, g in grads.items():
                g *= lr  # in place; the same bits as params[name] -= lr * g
                params[name] -= g
            history[step] = loss
    return TrainResult(model=model, loss_history=history)


def build(family: str, x: np.ndarray, seed: int, rbf_centers: int) -> Regressor:
    """A fresh model of one family for the training features x, shape (n, input_dim).

    MLP and CNN take their constructors' default architectures; RBF places
    min(rbf_centers, n) k-means centers on x.
    """
    if family == "mlp":
        return make_mlp(x.shape[1], seed=seed)
    if family == "cnn":
        return make_cnn(x.shape[1], seed=seed)
    if family == "rbf":
        return RbfModel.init(x, k=min(rbf_centers, x.shape[0]), seed=seed)
    raise ValueError(f"unknown model family {family!r}")


def fit(model: Regressor, x, y, epochs: int, batch_size: int, learning_rate: float, seed: int,
        ridge=RIDGE_DEFAULT) -> np.ndarray:
    """Fit a built model in place; returns the loss history. RBF solves its
    output layer by ridge least squares (the history is that one MSE); the
    other families run SGD for epochs * ceil(n / batch_size) steps."""
    if isinstance(model, RbfModel):
        return np.array([fit_rbf_output(model, x, y, ridge=ridge)])
    steps = epochs * math.ceil(len(x) / batch_size)
    cfg = TrainConfig(learning_rate=learning_rate, batch_size=batch_size, iterations=steps, seed=seed)
    return train(model, x, y, cfg).loss_history


def gradient_check(model: Regressor, x, y, h=1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    Perturbs every parameter entry in place (restoring it afterwards) and
    compares (L(p+h) - L(p-h)) / 2h against the analytic gradient.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
        y = y[None, :] if y.ndim == 1 else y
    x, y = model._check_batch(x, y)
    params = model.params()
    if not params:
        raise ValueError("model has no trainable parameters")
    _, grads = model.loss_and_gradients(x, y)
    worst = 0.0
    for name in sorted(params):
        p = params[name].reshape(-1)
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
    """Versioned JSON-ready form: family tag, shapes, flat parameter arrays."""
    if isinstance(model, MlpModel):
        arch = {"hidden": list(model.hidden)}
    elif isinstance(model, RbfModel):
        arch = {"k": int(model.centers.shape[0])}
    elif isinstance(model, CnnModel):
        arch = {
            "kernel_width": int(model.cw0.shape[0]),
            "filters": [int(model.cw0.shape[2]), int(model.cw1.shape[2])],
            "dense_width": int(model.w0.shape[0]),
        }
    else:
        raise ValueError(f"cannot serialize model family {model.family!r}")
    params = {}
    if isinstance(model, RbfModel):
        # centers/widths are frozen structure, but the file must rebuild them
        items = {"centers": model.centers, "widths": model.widths, **model.params()}
    else:
        items = model.params()
    for name, arr in items.items():
        params[name] = {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}
    return {
        "format": "locus-model",
        "version": 1,
        "family": model.family,
        "input_dim": int(model.input_dim),
        "arch": arch,
        "params": params,
        "norm": norm,
    }


def _unpack(params, name):
    entry = params[name]
    return np.array(entry["data"], dtype=float).reshape(entry["shape"])


def model_from_dict(d: dict):
    """Inverse of model_to_dict; returns (model, norm_or_None)."""
    if d.get("format") != "locus-model":
        raise ValueError("not a model document")
    if d.get("version") != 1:
        raise ValueError(f"unsupported model version {d.get('version')}")
    family = d["family"]
    p = d["params"]
    if family == "mlp":
        n_layers = len([k for k in p if k.startswith("w")])
        weights = [_unpack(p, f"w{l}") for l in range(n_layers)]
        biases = [_unpack(p, f"b{l}") for l in range(n_layers)]
        model = MlpModel(weights, biases)
    elif family == "rbf":
        model = RbfModel(
            _unpack(p, "centers"), _unpack(p, "widths"), _unpack(p, "w_out"), _unpack(p, "b_out")
        )
    elif family == "cnn":
        model = CnnModel(
            _unpack(p, "cw0"),
            _unpack(p, "cb0"),
            _unpack(p, "cw1"),
            _unpack(p, "cb1"),
            _unpack(p, "w0"),
            _unpack(p, "b0"),
            _unpack(p, "w1"),
            _unpack(p, "b1"),
            d["input_dim"],
        )
    else:
        raise ValueError(f"unknown model family {family!r}")
    if model.input_dim != d["input_dim"]:
        raise ValueError("input_dim does not match the stored parameters")
    return model, d.get("norm")
