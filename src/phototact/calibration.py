"""Learned per-pixel map from color change to indentation depth.

A small fully-connected network with three tanh hidden layers of 32 units
(5-32-32-32-1) regresses depth in mm from the per-pixel feature vector
(dH, dS, dV, u, v).  Training minimizes mean squared error with an
adaptive-moment optimizer at learning rate 0.001 and is fully deterministic
for a given seed: fixed initialization, seeded shuffling, single-threaded
update order.  Input standardization statistics live inside the model so
inference is self-contained, and :meth:`CalibrationModel.standardize` is the
one standardization: training, inference and the gradient API all take
their input through it.

Training and depth inference compute in float32, the precision that model
files and depth maps store: a training step's batch, activations, buffers,
parameters and Adam moments are float32.  A step runs in four batch-sized
buffers (see :func:`_step_buffers`), and Adam updates the parameters as one
flat vector, whose elementwise update gives each element the bits of a
per-array one.  The gradient API
(:func:`mlp_forward`, :func:`input_gradient`) computes in float64, which
finite differences at small steps need, and :func:`loss_and_gradients`
computes in the dtype it is given.

Every product that sums over rows has the same bits at any BLAS thread
count.  One threaded OpenBLAS product over all rows does not: its split
between threads moves the rounding.  Each parameter gradient ``a.T @ u`` is
therefore a sum over fixed 256-row blocks, each too small to be threaded,
and the output layer runs in 4,096-row blocks (see :func:`_block_sum` and
:func:`_forward_pass`).  A bias gradient adds its rows in row order and
calls no BLAS.

Model files are versioned JSON with base64-embedded little-endian float32
weight blobs; identical training runs produce byte-identical files.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .imaging import (
    MAX_DEPTH_MM,
    DeformationMap,
    RgbImage,
    SensorGeometry,
    frozen_array,
    json_number,
    read_json,
    write_json,
)
from .imprint import color_delta, disc_rows
from .phantom import MembraneModel, disc_captures, rng_stream, sphere_press_truth, sub_seeds

LAYER_SIZES = (5, 32, 32, 32, 1)
# (inputs, outputs) of each layer: the shape of its weight matrix.
_SHAPES = tuple(zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]))

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

# Row blocks of the two products whose one-call OpenBLAS form changes bits with the thread count.  A
# (32, 256) @ (256, 32) gradient block is at OpenBLAS's single-thread threshold (m * n * k = 262,144); a 4,096-row
# output product may be threaded, but at 1 and 2 threads it gives the single-thread bits (measured on OpenBLAS
# 0.3.31 at every row count from 1 to 4,096), which a 15,380-row one does not.
_GRADIENT_BLOCK = 256
_OUTPUT_BLOCK = 4096


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

    Parameters and standardization constants are stored as float32 (matching
    the file format), so in-memory and reloaded models predict identically;
    training standardizes its rows through the model it starts from, whose
    constants the trained model keeps.  :meth:`forward` computes with the
    parameters in float32; the gradient API (:func:`mlp_forward`,
    :func:`input_gradient`) promotes them to float64.
    """

    weights: tuple
    biases: tuple
    feature_shift: np.ndarray
    feature_scale: np.ndarray
    epoch_losses: tuple = ()
    _activations: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(frozen_array(w, np.float32) for w in self.weights)
        biases = tuple(frozen_array(b, np.float32) for b in self.biases)
        if tuple(w.shape for w in weights) != _SHAPES:
            raise ValueError(f"weight shapes must be {list(_SHAPES)}")
        if [b.shape for b in biases] != [(n,) for _, n in _SHAPES]:
            raise ValueError("bias shapes must match layer widths")
        shift = frozen_array(self.feature_shift, np.float32)
        scale = frozen_array(self.feature_scale, np.float32)
        if shift.shape != (LAYER_SIZES[0],) or scale.shape != (LAYER_SIZES[0],):
            raise ValueError("standardization constants must have one entry per input")
        if np.any(scale <= 0):
            raise ValueError("feature scales must be positive")
        if not all(np.all(np.isfinite(a)) for a in (*weights, *biases, shift, scale)):
            raise ValueError("model parameters must be finite")
        losses = tuple(float(x) for x in self.epoch_losses)
        if not all(map(math.isfinite, losses)):
            raise ValueError("epoch losses must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "feature_shift", shift)
        object.__setattr__(self, "feature_scale", scale)
        object.__setattr__(self, "epoch_losses", losses)

    def standardize(self, features, dtype):
        """``(features - shift) / scale`` of (N, 5) rows in float64, written one column at a time into ``dtype``.

        Each operation is elementwise, so the result has the bits of the whole-matrix expression cast to ``dtype``.
        """
        x = np.asarray(features, dtype=np.float64)
        out = np.empty(x.shape, dtype)
        for j, (shift, scale) in enumerate(zip(self.feature_shift.astype(np.float64),
                                               self.feature_scale.astype(np.float64))):
            np.divide(x[:, j] - shift, scale, out=out[:, j])
        return out

    def forward(self, features):
        """Raw depth predictions (mm) for an (N, 5) feature matrix, as float64.

        The features are standardized into float32, and the layers run in
        float32 with the stored parameters, since a depth map keeps float32
        depths.
        The hidden layers alternate between two float32 activation buffers
        that the model keeps: allocated on the first call and replaced only by
        a larger batch, so a run of forwards allocates no activation memory
        and the heap does not grow and shrink by two activation matrices per
        call.  The result is a fresh array, so no result aliases the buffers.
        """
        x = self.standardize(features, np.float32)
        if self._activations is None or self._activations[0].shape[0] < x.shape[0]:
            shape = (x.shape[0], LAYER_SIZES[1])
            object.__setattr__(self, "_activations", (np.empty(shape, np.float32), np.empty(shape, np.float32)))
        first, second = self._activations
        out = _forward_pass(self.weights, self.biases, x, (first, second, first))[1]
        return out.astype(np.float64)


def _float64_pass(model: CalibrationModel, features):
    """The float64 weights, activations and output column of the gradient API's pass over a 5-vector or (N, 5) rows."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    weights = [w.astype(np.float64) for w in model.weights]
    biases = [b.astype(np.float64) for b in model.biases]
    hidden = _hidden_buffers(len(x), np.float64)
    return (weights, *_forward_pass(weights, biases, model.standardize(x, np.float64), hidden))


def mlp_forward(model: CalibrationModel, features):
    """Float64 forward pass for a single 5-vector or an (N, 5) batch; raw mm output.

    The counterpart of :func:`input_gradient`: finite differences at small
    steps need the float64 that :meth:`CalibrationModel.forward` does not keep.
    """
    out = _float64_pass(model, features)[2]
    return float(out[0]) if np.ndim(features) == 1 else out


def input_gradient(model: CalibrationModel, features):
    """Gradient of the scalar output w.r.t. each of the 5 raw inputs."""
    weights, activations, _ = _float64_pass(model, features)
    grad = np.repeat(weights[-1].T, len(activations[0]), axis=0)  # (N, 32)
    for w, act in zip(reversed(weights[:-1]), reversed(activations[1:])):
        grad = (grad * (1.0 - act * act)) @ w.T
    grad = grad / model.feature_scale.astype(np.float64)  # chain through standardization
    return grad[0] if np.ndim(features) == 1 else grad


# ---------------------------------------------------------------------------
# Training


def _init_params(seed: int):
    """Glorot-uniform float32 weights and zero float32 biases, the parameters training starts from."""
    rng = rng_stream(seed, _STREAM_INIT)
    weights, biases = [], []
    for n_in, n_out in _SHAPES:
        limit = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)).astype(np.float32))
        biases.append(np.zeros(n_out, np.float32))
    return weights, biases


def _hidden_buffers(rows: int, dtype):
    """One (rows, width) buffer per hidden layer."""
    return [np.empty((rows, width), dtype) for width in LAYER_SIZES[1:-1]]


def _forward_pass(weights, biases, x, hidden):
    """Input plus hidden activations, and the output column: the one MLP layer loop.

    The hidden activations are written into the leading rows of the ``hidden``
    buffers (one per layer; inference reuses its first for the third), which
    must have at least ``len(x)`` rows.  ``x``, the parameters and the buffers
    share one dtype: float32 for inference and training, float64 for the
    gradient API.  The output layer runs in ``_OUTPUT_BLOCK``-row blocks, so
    its bits do not depend on the BLAS thread count.
    """
    n = x.shape[0]
    activations = [x]
    for w, b, buf in zip(weights[:-1], biases[:-1], hidden):
        a = np.matmul(activations[-1], w, out=buf[:n])
        a += b
        activations.append(np.tanh(a, out=a))
    out = np.empty((n, 1), x.dtype)
    for start in range(0, n, _OUTPUT_BLOCK):
        rows = slice(start, start + _OUTPUT_BLOCK)
        np.matmul(activations[-1][rows], weights[-1], out=out[rows])
    out += biases[-1]
    return activations, out[:, 0]


def _block_sum(a, u):
    """``a.T @ u`` over rows as a sum of fixed ``_GRADIENT_BLOCK``-row blocks, then the remainder rows.

    One stacked product forms the blocks; a block is too small for OpenBLAS
    to thread, so the result has the same bits at any thread count.
    """
    n = a.shape[0]
    if n <= _GRADIENT_BLOCK:
        return a.T @ u
    k = n // _GRADIENT_BLOCK
    head = k * _GRADIENT_BLOCK
    blocks = np.matmul(a[:head].reshape(k, _GRADIENT_BLOCK, -1).transpose(0, 2, 1),
                       u[:head].reshape(k, _GRADIENT_BLOCK, -1))
    total = blocks.sum(axis=0)
    if head < n:
        total += a[head:].T @ u[head:]
    return total


def _step_buffers(rows: int, dtype):
    """Buffers for a training step on up to ``rows`` rows: one per hidden layer, then one for the backward pass.

    The backward pass writes each layer's tanh slope over the activation it
    comes from, which nothing reads afterwards, and the next upstream gradient
    over that slope, so four (rows, 32) matrices hold the whole step.
    """
    return _hidden_buffers(rows, dtype) + [np.empty((rows, LAYER_SIZES[1]), dtype)]


def loss_and_gradients(weights, biases, x, y, hidden):
    """MSE loss and its parameter gradients for one batch, in the dtype of ``x``.

    ``hidden`` holds the step's buffers, of at least ``len(x)`` rows (see
    :func:`_step_buffers`); training passes the same ones every step so the
    step allocates no batch-sized matrix.  Every temporary of the backward
    pass is written into the leading rows of those buffers: the first
    upstream gradient into the backward buffer, and each layer's slope and
    the next upstream gradient over that layer's spent activation.  Each
    weight gradient is a :func:`_block_sum`.  Each hidden bias gradient is
    ``np.einsum("ij->j", upstream)``, which adds the rows in order as
    ``upstream.sum(axis=0)`` does, with the same bits, in one pass over the
    rows rather than one 32-wide loop per row.  The fold starts from +0.0, so
    a column of -0.0 sums to +0.0 (as ``sum`` does under numpy 2.4); a -0.0
    gradient would give Adam the moments and update of +0.0 anyway, short of
    a denormal moment that underflows to -0.0.
    """
    n = x.shape[0]
    activations, pred = _forward_pass(weights, biases, x, hidden)
    residual = pred - y
    loss = float(np.mean(residual**2))
    delta = (2.0 / n) * residual[:, None]  # (N, 1)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    grads_w[-1] = _block_sum(activations[-1], delta)
    grads_b[-1] = delta.sum(axis=0)
    upstream = hidden[-1][:n]
    # Each element of the outer product delta @ w.T is a single product, so einsum gives its bits,
    # faster than BLAS or a broadcast multiply.
    np.einsum("i,j->ij", delta[:, 0], weights[-1][:, 0], out=upstream)
    for i in range(len(weights) - 2, -1, -1):
        slope = np.square(activations[i + 1], out=activations[i + 1])
        np.subtract(1.0, slope, out=slope)
        upstream *= slope
        grads_w[i] = _block_sum(activations[i], upstream)
        grads_b[i] = np.einsum("ij->j", upstream)
        if i > 0:
            upstream = np.matmul(upstream, weights[i].T, out=slope)
    return loss, grads_w, grads_b


def train_mlp(features, targets, cfg: TrainConfig) -> CalibrationModel:
    """Fit the depth regressor on (N, 5) features and (N,) depths in mm.

    Training starts from a model holding the initial parameters and the rows' standardization constants, rounded
    to float32.  Its :meth:`~CalibrationModel.standardize` writes the rows into float32 once, every step runs in
    float32 (see the module docstring), and the result is that model with the trained parameters.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != LAYER_SIZES[0] or x.shape[0] == 0:
        raise ValueError(f"features must be a non-empty (N, {LAYER_SIZES[0]}) matrix")
    if y.shape != (x.shape[0],):
        raise ValueError("targets must be one depth per feature row")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("features and targets must be finite")

    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0  # constant feature: pass through unscaled
    initial = CalibrationModel(*_init_params(cfg.seed), x.mean(axis=0), scale)
    xs = initial.standardize(x, np.float32)
    ys = y.astype(np.float32)

    # The weights, then the biases, as views of one flat vector; Adam updates it and its moments m and v whole.
    layers = len(initial.weights)
    params = [*initial.weights, *initial.biases]
    flat = np.concatenate([p.ravel() for p in params])
    ends = np.cumsum([p.size for p in params])
    params = [part.reshape(p.shape) for part, p in zip(np.split(flat, ends[:-1]), params)]
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)

    shuffle_rng = rng_stream(cfg.seed, _STREAM_SHUFFLE)
    n = xs.shape[0]
    rows = min(cfg.batch_size, n)
    work = _step_buffers(rows, np.float32)
    batch_x, batch_y = np.empty((rows, LAYER_SIZES[0]), np.float32), np.empty(rows, np.float32)
    step = 0
    epoch_losses = []
    # A diverging run overflows on its way to a non-finite loss; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(n)
            batch_losses = []
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                # mode="clip" lets take write straight into ``out`` (it buffers under the default "raise");
                # a permutation's indices are all in range, so no index is clipped.
                bx = np.take(xs, batch, axis=0, out=batch_x[: len(batch)], mode="clip")
                by = np.take(ys, batch, out=batch_y[: len(batch)], mode="clip")
                loss, grads_w, grads_b = loss_and_gradients(params[:layers], params[layers:], bx, by, work)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"loss is not finite at step {step}")
                batch_losses.append(loss)
                step += 1
                correct1 = 1.0 - _ADAM_BETA1**step
                correct2 = 1.0 - _ADAM_BETA2**step
                grad = np.concatenate([g.ravel() for g in grads_w + grads_b])
                m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
                v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * grad * grad
                flat -= cfg.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)
            epoch_losses.append(float(np.mean(batch_losses)))

    return replace(initial, weights=tuple(params[:layers]), biases=tuple(params[layers:]),
                   epoch_losses=tuple(epoch_losses))


# ---------------------------------------------------------------------------
# Calibration data and reconstruction


def build_calib_dataset(n_captures: int, geom: SensorGeometry, membrane: MembraneModel, seed: int):
    """Per-pixel training rows from simulated sphere presses.

    Each capture presses the calibration sphere (:func:`~phototact.phantom.sphere_press_truth`,
    radius ``defaults.CALIBRATION_SPHERE_RADIUS_MM``) to a depth drawn uniformly from
    (0, MAX_DEPTH_MM], renders a fresh no-contact/contact pair, and contributes
    one (dH, dS, dV, u, v) -> depth row per in-disc pixel.  Returns (features,
    depths).
    """
    if n_captures < 1:
        raise ValueError("need at least one capture")
    depths = MAX_DEPTH_MM * (1.0 - rng_stream(seed, _STREAM_DEPTHS).random(n_captures))
    truths = (sphere_press_truth(depth, geom) for depth in depths)
    presses = [(truths, sub_seeds(seed, _STREAM_RENDER_SEEDS, (n_captures, 1, 2)))]
    pixels = geom.disc_pixel_count
    features = np.empty((n_captures * pixels, LAYER_SIZES[0]))
    targets = np.empty(n_captures * pixels)
    for k, (truth, ref, contact) in enumerate(disc_captures(presses, membrane, geom)):
        rows = slice(k * pixels, (k + 1) * pixels)
        features[rows] = disc_rows(ref, contact, geom)
        targets[rows] = np.take(truth.depths, geom.disc_index)
    return features, targets


def disc_depths(model: CalibrationModel, rows) -> np.ndarray:
    """Depths (mm) of the sensing-disc pixels from their (N, 5) rows (see :func:`~phototact.imprint.disc_rows`).

    One forward pass, clamped to [0, MAX_DEPTH_MM] and rounded to float32 as a
    depth map stores them, returned as float64.
    """
    raw = model.forward(rows)
    return np.clip(raw, 0.0, MAX_DEPTH_MM).astype(np.float32).astype(np.float64)


def reconstruct(model: CalibrationModel, ref: RgbImage, contact: RgbImage, geom: SensorGeometry) -> DeformationMap:
    """Depth map from a reading pair: the :func:`disc_depths` of its :func:`color_delta` scattered into the frame.

    Depths are zero outside the sensing disc; the map carries the disc mask.
    """
    mask = geom.disc_mask
    depths = np.zeros((geom.height, geom.width), dtype=np.float32)
    depths[mask] = disc_depths(model, color_delta(ref, contact, geom))
    return DeformationMap(depths, mask)


# ---------------------------------------------------------------------------
# Model files


def _encode(arr) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f4").tobytes()).decode("ascii")


def _decode(blob: str, shape) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype="<f4").reshape(shape)


def save_model(path, model: CalibrationModel):
    write_json(path, {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "max_depth": MAX_DEPTH_MM,
        "feature_shift": _encode(model.feature_shift),
        "feature_scale": _encode(model.feature_scale),
        "weights": [_encode(w) for w in model.weights],
        "biases": [_encode(b) for b in model.biases],
        "epoch_losses": list(model.epoch_losses),
    })


def load_model(path) -> CalibrationModel:
    doc = read_json(path, "calibration model", _MODEL_FORMAT, _MODEL_VERSION)
    if doc.get("layer_sizes") != list(LAYER_SIZES):
        raise ValueError("unexpected layer sizes")
    try:
        if len(doc["weights"]) != len(_SHAPES) or len(doc["biases"]) != len(_SHAPES):
            raise ValueError(f"malformed calibration model file: need {len(_SHAPES)} weight and bias blobs")
        if json_number(doc["max_depth"]) != MAX_DEPTH_MM:
            raise ValueError(f"max depth must be {MAX_DEPTH_MM} mm, the full scale")
        return CalibrationModel(
            weights=tuple(_decode(blob, shape) for blob, shape in zip(doc["weights"], _SHAPES)),
            biases=tuple(_decode(blob, (n_out,)) for blob, (_, n_out) in zip(doc["biases"], _SHAPES)),
            feature_shift=_decode(doc["feature_shift"], (LAYER_SIZES[0],)),
            feature_scale=_decode(doc["feature_scale"], (LAYER_SIZES[0],)),
            epoch_losses=tuple(map(json_number, doc.get("epoch_losses", ()))),
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed calibration model file: {err!r}") from None
