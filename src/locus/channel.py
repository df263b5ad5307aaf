"""Radio channel simulation: log-distance path loss, shadowing, array snapshots.

Received power follows the log-distance model with log-normal shadowing:

    rssi(d) = p_r_d0 - 10 * gamma * log10(d / d0) - X,   X ~ Normal(0, sigma^2)

Antenna arrays are uniform and linear; snapshots are narrowband baseband
samples with per-snapshot random complex Gaussian symbols and additive
complex white Gaussian noise.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np


def check_bound(obj, bound, *names: str, strict: bool = False) -> None:
    """ValueError naming the first of obj's fields `names` that is NaN or below
    bound, or equal to it when strict."""
    for name in names:
        value = getattr(obj, name)
        if not (value > bound if strict else value >= bound):
            raise ValueError(f"{name} must be {'above' if strict else 'at least'} {bound}, got {value}")


def read_section(cls, doc, prefix: str, **built):
    """cls from the JSON object doc, whose keys are the fields of cls less those in built.

    Each value is cast to its field's type, a nested section is read the same
    way, and a field left out keeps its default. An unknown or missing key, a
    value of the wrong type, a non-finite number, or a value that cls rejects
    raises ValueError naming prefix + key: every config class's check starts
    its message with the field's name.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{prefix[:-1] or 'the config'} must be a JSON object, got {doc!r}")
    hints = typing.get_type_hints(cls)
    kwargs = dict(built)
    for key, value in doc.items():
        if key not in hints or key in built:
            raise ValueError(f"unknown config key {prefix}{key}")
        kwargs[key] = _cast(value, hints[key], prefix + key)
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING:
            raise ValueError(f"missing config key {prefix}{f.name}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"{prefix}{e}") from e


def _cast(value, hint, key: str):
    """value as the type hint of config key `key` (see read_section)."""
    if is_dataclass(hint):
        return read_section(hint, value, key + ".")
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {value!r}")
        return tuple(_cast(v, typing.get_args(hint)[0], f"{key}[{i}]") for i, v in enumerate(value))
    if hint is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
        ok = ok and (hint is float or value == int(value))
    if not ok:
        want = {float: "a finite number", int: "an integer", str: "a string"}[hint]
        raise ValueError(f"{key} must be {want}, got {value!r}")
    return hint(value)


def json_form(value):
    """A section as JSON data, the inverse of read_section: a section as the dict of its fields, a tuple as a list."""
    if is_dataclass(value):
        return {f.name: json_form(getattr(value, f.name)) for f in fields(value)}
    return [json_form(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss parameters.

    gamma: path loss exponent, > 0
    sigma: shadowing standard deviation in dB, >= 0
    p_r_d0: received power at the reference distance, dBm
    d0: reference distance in meters, > 0 (1 m by default)
    """

    gamma: float
    sigma: float
    p_r_d0: float
    d0: float = 1.0

    def __post_init__(self):
        check_bound(self, 0, "gamma", "d0", strict=True)
        check_bound(self, 0, "sigma")
        for v in (self.gamma, self.sigma, self.p_r_d0, self.d0):
            if not math.isfinite(v):
                raise ValueError("path loss parameters must be finite")


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array: m sensors, spacing in wavelengths, snapshot count."""

    m: int = 8
    spacing_wavelengths: float = 0.5
    snapshots: int = 256

    def __post_init__(self):
        check_bound(self, 2, "m")
        check_bound(self, 1, "snapshots")
        check_bound(self, 0, "spacing_wavelengths", strict=True)


@dataclass(frozen=True)
class SnapshotMatrix:
    """Complex m x T sample block from a ULA."""

    data: np.ndarray
    array: ArraySpec

    def __post_init__(self):
        expect = (self.array.m, self.array.snapshots)
        if self.data.shape != expect:
            raise ValueError(f"snapshot shape {self.data.shape} != {expect}")
        if not np.isfinite(self.data).all():
            raise ValueError("snapshot data must be finite")


@dataclass(frozen=True)
class NlosModel:
    """Non-line-of-sight degradation: fixed extra attenuation plus angle error.

    excess_loss_db: extra attenuation subtracted from the RSSI, >= 0
    aoa_bias_deg_sigma: std of the additive Gaussian angle perturbation, >= 0
    """

    excess_loss_db: float = 0.0
    aoa_bias_deg_sigma: float = 0.0

    def __post_init__(self):
        check_bound(self, 0, "excess_loss_db", "aoa_bias_deg_sigma")


def per_anchor_params(params) -> list[PathLossParams]:
    """One PathLossParams per anchor (ids 1, 2, 3) from a shared set or a list of three."""
    if isinstance(params, PathLossParams):
        return [params] * 3
    params = list(params)
    if len(params) != 3:
        raise ValueError("need one path loss parameter set per anchor")
    return params


def expected_rssi(params: PathLossParams, d: float) -> float:
    """Mean received power at distance d (meters), in dBm. Requires d >= d0."""
    if d < params.d0:
        raise ValueError(f"distance {d} below reference distance {params.d0}")
    return params.p_r_d0 - 10.0 * params.gamma * math.log10(d / params.d0)


def simulate_rssi(params: PathLossParams, d: float, rng: np.random.Generator) -> float:
    """One shadowed RSSI draw: expected value minus Normal(0, sigma^2)."""
    return expected_rssi(params, d) - rng.normal(0.0, params.sigma)


def steering_matrix(array: ArraySpec, thetas_deg: np.ndarray) -> np.ndarray:
    """ULA steering vectors as columns, shape (m, len(thetas)): first sensor as phase reference, broadside = 0 deg."""
    n = np.arange(array.m)[:, None]
    s = np.sin(np.radians(np.asarray(thetas_deg, dtype=float)))[None, :]
    return np.exp(-2j * np.pi * array.spacing_wavelengths * n * s)


def simulate_snapshots(
    array: ArraySpec,
    thetas_deg: list[float],
    noise_power_db: float,
    rng: np.random.Generator,
) -> SnapshotMatrix:
    """Simulate T narrowband snapshots of K far-field sources plus white noise.

    Each source, at a broadside angle in [-90, 90] degrees, emits an independent
    unit-power complex Gaussian symbol per snapshot. noise_power_db = -inf gives
    noiseless data; NaN is refused. Requires 1 <= K < m.
    """
    for theta in thetas_deg:
        if not -90.0 <= theta <= 90.0:
            raise ValueError(f"source angle must lie in [-90, 90] deg, got {theta}")
    if math.isnan(noise_power_db):
        raise ValueError("noise_power_db must be a number or -inf, got nan")
    k = len(thetas_deg)
    if k < 1 or k >= array.m:
        raise ValueError(f"need 1 <= sources < {array.m} sensors, got {k}")
    t = array.snapshots
    a = steering_matrix(array, thetas_deg)
    # -inf dB maps to exactly zero power (noiseless flag).
    npow = 10.0 ** (noise_power_db / 10.0)
    m = array.m if npow > 0.0 else 0
    # One draw in the order symbol re, symbol im, noise re, noise im: the
    # generator fills the block row by row, so the stream is that of four draws.
    z = rng.standard_normal((2 * k + 2 * m, t))
    symbols = z[:k] + 1j * z[k : 2 * k]
    symbols *= math.sqrt(0.5)
    x = a @ symbols
    if m:
        x = x + math.sqrt(npow / 2.0) * (z[2 * k : 2 * k + m] + 1j * z[2 * k + m :])
    return SnapshotMatrix(x, array)


def snapshots_to_csv(snap: SnapshotMatrix) -> str:
    """One row per sensor; each snapshot contributes a re,im value pair."""
    lines = []
    for row in snap.data:
        parts = []
        for v in row:
            parts.append(repr(float(v.real)))
            parts.append(repr(float(v.imag)))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def snapshots_from_csv(text: str, spacing_wavelengths: float) -> SnapshotMatrix:
    """Parse the snapshots_to_csv format. Spacing is not stored in the CSV."""
    rows = []
    for line in text.strip().splitlines():
        vals = [float(v) for v in line.split(",")]
        if len(vals) % 2 != 0:
            raise ValueError("each row needs an even number of values (re,im pairs)")
        arr = np.array(vals).reshape(-1, 2)
        rows.append(arr[:, 0] + 1j * arr[:, 1])
    data = np.array(rows)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("snapshot CSV must contain at least two sensor rows")
    array = ArraySpec(m=data.shape[0], spacing_wavelengths=spacing_wavelengths, snapshots=data.shape[1])
    return SnapshotMatrix(data, array)
