"""Learned per-pixel map from color change to indentation depth.

A small fully-connected network with three tanh hidden layers of 32 units
(5-32-32-32-1) regresses depth in mm from the per-pixel feature vector
(dH, dS, dV, u, v).  Training minimizes mean squared error with an
adaptive-moment optimizer at learning rate 0.001 and is fully deterministic
for a given seed: fixed initialization, seeded shuffling, single-threaded
update order.  Input standardization statistics live inside the model so
inference is self-contained.

Model files are versioned JSON with base64-embedded little-endian float32
weight blobs; identical training runs produce byte-identical files.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import MAX_DEPTH_MM, DeformationMap, RgbImage, SensorGeometry
from .imprint import disc_pixels, disc_rows
from .phantom import MembraneModel, capture_pixels, clean_pixels, rng_stream, sphere_press_truth

LAYER_SIZES = (5, 32, 32, 32, 1)

_MODEL_FORMAT = "phototact-calibration-model"
_MODEL_VERSION = 1

# Philox stream tags private to this module.
_STREAM_INIT = 10
_STREAM_SHUFFLE = 11
_STREAM_DEPTHS = 12
_STREAM_RENDER_SEEDS = 13

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 50
    batch_size: int = 4096
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise ValueError("learning rate must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass(frozen=True)
class CalibrationModel:
    """Weights, biases, and input standardization of the depth regressor.

    Parameters are stored as float32 (matching the file format) and promoted
    to float64 for computation, so in-memory and reloaded models predict
    identically.
    """

    weights: tuple
    biases: tuple
    feature_shift: np.ndarray
    feature_scale: np.ndarray
    max_depth: float = MAX_DEPTH_MM
    epoch_losses: tuple = ()

    def __post_init__(self):
        weights = tuple(np.asarray(w, dtype=np.float32) for w in self.weights)
        biases = tuple(np.asarray(b, dtype=np.float32) for b in self.biases)
        expected = [(LAYER_SIZES[i], LAYER_SIZES[i + 1]) for i in range(len(LAYER_SIZES) - 1)]
        if [w.shape for w in weights] != expected:
            raise ValueError(f"weight shapes must be {expected}")
        if [b.shape for b in biases] != [(n,) for _, n in expected]:
            raise ValueError("bias shapes must match layer widths")
        shift = np.asarray(self.feature_shift, dtype=np.float32)
        scale = np.asarray(self.feature_scale, dtype=np.float32)
        if shift.shape != (LAYER_SIZES[0],) or scale.shape != (LAYER_SIZES[0],):
            raise ValueError("standardization constants must have one entry per input")
        if np.any(scale <= 0):
            raise ValueError("feature scales must be positive")
        if not (math.isfinite(self.max_depth) and 0.0 < self.max_depth <= MAX_DEPTH_MM):
            raise ValueError(f"max depth must lie in (0, {MAX_DEPTH_MM}] mm")
        arrays = list(weights) + list(biases) + [shift, scale]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("model parameters must be finite")
        for a in arrays:
            a.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "feature_shift", shift)
        object.__setattr__(self, "feature_scale", scale)
        object.__setattr__(self, "epoch_losses", tuple(float(x) for x in self.epoch_losses))

    def standardize(self, features):
        x = np.asarray(features, dtype=np.float64)
        return (x - self.feature_shift.astype(np.float64)) / self.feature_scale.astype(np.float64)

    def forward(self, features, scratch=None):
        """Raw depth predictions (mm) for an (N, 5) feature matrix.

        The hidden layers alternate between the two buffers of ``scratch``
        (see :func:`forward_scratch`). A caller that runs many forwards
        passes the same pair each time, so the forwards allocate no
        activation memory and the heap does not grow and shrink by two
        activation matrices per call.
        """
        x = self.standardize(features)
        if scratch is None:
            scratch = forward_scratch(x.shape[0])
        for w, b, buf in zip(self.weights[:-1], self.biases[:-1], (scratch[0], scratch[1], scratch[0])):
            x = np.matmul(x, w.astype(np.float64), out=buf[: x.shape[0]])
            x += b.astype(np.float64)
            np.tanh(x, out=x)
        out = x @ self.weights[-1].astype(np.float64) + self.biases[-1].astype(np.float64)
        return out[:, 0]


def forward_scratch(rows: int):
    """Two (rows, 32) float64 buffers for :meth:`CalibrationModel.forward` on up to ``rows`` rows."""
    return np.empty((rows, LAYER_SIZES[1])), np.empty((rows, LAYER_SIZES[1]))


def mlp_forward(model: CalibrationModel, features):
    """Forward pass for a single 5-vector or an (N, 5) batch; raw mm output."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        return float(model.forward(x[None, :])[0])
    return model.forward(x)


def input_gradient(model: CalibrationModel, features):
    """Gradient of the scalar output w.r.t. each of the 5 raw inputs."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    z = model.standardize(x)
    activations = [z]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = np.tanh(z @ w.astype(np.float64) + b.astype(np.float64))
        activations.append(z)
    grad = np.repeat(model.weights[-1].astype(np.float64).T, z.shape[0], axis=0)  # (N, 32)
    for w, act in zip(reversed(model.weights[:-1]), reversed(activations[1:])):
        grad = (grad * (1.0 - act * act)) @ w.astype(np.float64).T
    grad = grad / model.feature_scale.astype(np.float64)  # chain through standardization
    return grad[0] if single else grad


# ---------------------------------------------------------------------------
# Training


def _init_params(seed: int):
    rng = rng_stream(seed, _STREAM_INIT)
    weights, biases = [], []
    for n_in, n_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return weights, biases


def _hidden_buffers(rows: int):
    """One (rows, width) float64 buffer per hidden layer."""
    return [np.empty((rows, width)) for width in LAYER_SIZES[1:-1]]


def _forward_pass(weights, biases, x, hidden):
    """Input plus hidden activations, and the output column.

    The hidden activations are written into the leading rows of the
    ``hidden`` buffers, which must have at least ``len(x)`` rows.
    """
    activations = [x]
    for w, b, buf in zip(weights[:-1], biases[:-1], hidden):
        a = np.matmul(activations[-1], w, out=buf[: x.shape[0]])
        a += b
        activations.append(np.tanh(a, out=a))
    out = activations[-1] @ weights[-1] + biases[-1]
    return activations, out[:, 0]


def loss_and_gradients(weights, biases, x, y, hidden=None):
    """MSE loss and its parameter gradients for one batch (float64).

    ``hidden`` optionally supplies the activation buffers (see
    :func:`_forward_pass`); training passes the same ones every step so the
    step allocates no activation memory.
    """
    if hidden is None:
        hidden = _hidden_buffers(x.shape[0])
    activations, pred = _forward_pass(weights, biases, x, hidden)
    residual = pred - y
    loss = float(np.mean(residual**2))
    n = x.shape[0]
    delta = (2.0 / n) * residual[:, None]  # (N, 1)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    grads_w[-1] = activations[-1].T @ delta
    grads_b[-1] = delta.sum(axis=0)
    upstream = delta @ weights[-1].T
    for i in range(len(weights) - 2, -1, -1):
        upstream = upstream * (1.0 - activations[i + 1] ** 2)
        grads_w[i] = activations[i].T @ upstream
        grads_b[i] = upstream.sum(axis=0)
        if i > 0:
            upstream = upstream @ weights[i].T
    return loss, grads_w, grads_b


def train_mlp(features, targets, cfg: TrainConfig | None = None) -> CalibrationModel:
    """Fit the depth regressor on (N, 5) features and (N,) depths in mm."""
    if cfg is None:
        cfg = TrainConfig()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0] or x.shape[0] == 0:
        raise ValueError(f"features must be a non-empty (N, {LAYER_SIZES[0]}) matrix")
    if y.shape != (x.shape[0],):
        raise ValueError("targets must be one depth per feature row")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("features and targets must be finite")

    shift = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0  # constant feature: pass through unscaled
    # Standardize once with the float32-rounded constants the model will carry.
    shift32 = shift.astype(np.float32).astype(np.float64)
    scale32 = scale.astype(np.float32).astype(np.float64)
    xs = (x - shift32) / scale32

    weights, biases = _init_params(cfg.seed)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]

    shuffle_rng = rng_stream(cfg.seed, _STREAM_SHUFFLE)
    n = xs.shape[0]
    hidden = _hidden_buffers(min(cfg.batch_size, n))
    step = 0
    epoch_losses = []
    # A diverging run overflows on its way to a non-finite loss; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(n)
            batch_losses = []
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss, grads_w, grads_b = loss_and_gradients(weights, biases, xs[batch], y[batch], hidden)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"loss is not finite at step {step}")
                batch_losses.append(loss)
                step += 1
                correct1 = 1.0 - _ADAM_BETA1**step
                correct2 = 1.0 - _ADAM_BETA2**step
                for params, grads, ms, vs in (
                    (weights, grads_w, m_w, v_w),
                    (biases, grads_b, m_b, v_b),
                ):
                    for i, g in enumerate(grads):
                        ms[i] = _ADAM_BETA1 * ms[i] + (1.0 - _ADAM_BETA1) * g
                        vs[i] = _ADAM_BETA2 * vs[i] + (1.0 - _ADAM_BETA2) * g * g
                        params[i] -= cfg.learning_rate * (ms[i] / correct1) / (np.sqrt(vs[i] / correct2) + _ADAM_EPS)
            epoch_losses.append(float(np.mean(batch_losses)))

    return CalibrationModel(
        weights=tuple(weights),
        biases=tuple(biases),
        feature_shift=shift32,
        feature_scale=scale32,
        epoch_losses=tuple(epoch_losses),
    )


# ---------------------------------------------------------------------------
# Calibration data and reconstruction


def build_calib_dataset(
    n_captures: int,
    sphere_radius_mm: float,
    geom: SensorGeometry,
    membrane: MembraneModel,
    seed: int,
):
    """Per-pixel training rows from simulated sphere presses.

    Each capture presses a known sphere to a depth drawn uniformly from
    (0, max_depth], renders a fresh no-contact/contact pair, and contributes
    one (dH, dS, dV, u, v) -> depth row per in-disc pixel.  Returns (features,
    depths).
    """
    if n_captures < 1:
        raise ValueError("need at least one capture")
    draws = rng_stream(seed, _STREAM_DEPTHS).random(n_captures)
    render_seeds = rng_stream(seed, _STREAM_RENDER_SEEDS).integers(0, 2**62, size=2 * n_captures)
    mask = geom.disc_mask
    rest = clean_pixels(geom.zero_map(), membrane, mask)
    rows_x, rows_y = [], []
    for i in range(n_captures):
        depth = membrane.max_depth * (1.0 - float(draws[i]))  # uniform in (0, max_depth]
        truth = sphere_press_truth(depth, sphere_radius_mm, geom)
        ref = capture_pixels(rest, membrane, int(render_seeds[2 * i]), mask)
        contact = capture_pixels(clean_pixels(truth, membrane, mask), membrane, int(render_seeds[2 * i + 1]), mask)
        rows_x.append(disc_rows(ref, contact, geom))
        rows_y.append(truth.depths[mask].astype(np.float64))
    return np.concatenate(rows_x, axis=0), np.concatenate(rows_y, axis=0)


def disc_depths(model: CalibrationModel, ref_px, contact_px, geom: SensorGeometry, scratch=None) -> np.ndarray:
    """Depths (mm) of the sensing-disc pixels from their readings (N, 3), in row-major order.

    One forward pass (``scratch`` as in :meth:`CalibrationModel.forward`),
    clamped to [0, max_depth] and rounded to float32 as a depth map stores
    them, returned as float64.
    """
    raw = model.forward(disc_rows(ref_px, contact_px, geom), scratch)
    return np.clip(raw, 0.0, model.max_depth).astype(np.float32).astype(np.float64)


def reconstruct(model: CalibrationModel, ref: RgbImage, contact: RgbImage, geom: SensorGeometry) -> DeformationMap:
    """Depth map from a reading pair: :func:`disc_depths` scattered into the frame.

    Depths are zero outside the sensing disc; the map carries the disc mask.
    """
    mask = geom.disc_mask
    depths = np.zeros((geom.height, geom.width), dtype=np.float32)
    depths[mask] = disc_depths(model, *disc_pixels(ref, contact, geom), geom)
    return DeformationMap(depths, mask)


# ---------------------------------------------------------------------------
# Model files


def _encode(arr) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f4").tobytes()).decode("ascii")


def _decode(blob: str, shape) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype="<f4").reshape(shape)


def save_model(path, model: CalibrationModel):
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "max_depth": model.max_depth,
        "feature_shift": _encode(model.feature_shift),
        "feature_scale": _encode(model.feature_scale),
        "weights": [_encode(w) for w in model.weights],
        "biases": [_encode(b) for b in model.biases],
        "epoch_losses": list(model.epoch_losses),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path) -> CalibrationModel:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != _MODEL_FORMAT:
        raise ValueError("not a calibration model file")
    if doc.get("version") != _MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    if doc.get("layer_sizes") != list(LAYER_SIZES):
        raise ValueError("unexpected layer sizes")
    shapes = [(LAYER_SIZES[i], LAYER_SIZES[i + 1]) for i in range(len(LAYER_SIZES) - 1)]
    return CalibrationModel(
        weights=tuple(_decode(blob, shape) for blob, shape in zip(doc["weights"], shapes)),
        biases=tuple(_decode(blob, (shape[1],)) for blob, shape in zip(doc["biases"], shapes)),
        feature_shift=_decode(doc["feature_shift"], (LAYER_SIZES[0],)),
        feature_scale=_decode(doc["feature_scale"], (LAYER_SIZES[0],)),
        max_depth=float(doc["max_depth"]),
        epoch_losses=tuple(doc.get("epoch_losses", ())),
    )
