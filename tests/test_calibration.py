import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest

import phototact as pt
from phototact.calibration import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    _STREAM_SHUFFLE,
    LAYER_SIZES,
    CalibrationModel,
    TrainConfig,
    _init_params,
    _step_buffers,
    build_calib_dataset,
    disc_depths,
    input_gradient,
    load_model,
    loss_and_gradients,
    mlp_forward,
    reconstruct,
    save_model,
    train_mlp,
)
from phototact import defaults
from phototact.imprint import color_delta, disc_rows
from phototact.phantom import (
    PhantomConfig,
    contact_solve,
    render_reading,
    rng_stream,
    sphere_press_truth,
)
from conftest import linear_hue_model

# On low-noise renders the learned depths sit within 0.001 mm on average and
# 0.0025 mm RMS of the hue oracle over the disc, and inside the press
# footprint (oracle above 0.05 mm) their least-squares slope against it is
# 1.009-1.042.  The bounds leave about a fourfold margin on the gaps and
# twice the largest slope deviation.
ORACLE_MEAN_GAP_MM = 0.005
ORACLE_RMS_GAP_MM = 0.01
ORACLE_FOOTPRINT_MM = 0.05
ORACLE_SLOPE_TOLERANCE = 0.08


def random_model(rng) -> CalibrationModel:
    weights, biases = [], []
    for n_in, n_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        weights.append(rng.normal(0.0, 0.5, size=(n_in, n_out)))
        biases.append(rng.normal(0.0, 0.2, size=n_out))
    return CalibrationModel(
        weights=tuple(weights),
        biases=tuple(biases),
        feature_shift=np.zeros(5),
        feature_scale=np.ones(5),
    )


def reference_forward(weights, biases, x):
    """Input plus hidden activations, and the output column, each a fresh array.

    The output is one product over all rows, which is the blocked output of
    ``_forward_pass`` for the up to 4,096 rows these tests give it.
    """
    activations = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w + b))
    return activations, (activations[-1] @ weights[-1] + biases[-1])[:, 0]


def reference_block_sum(a, u):
    """``a.T @ u`` as the products of its 256-row blocks and remainder, each a fresh array, added in row order."""
    return functools.reduce(np.add, [a[s : s + 256].T @ u[s : s + 256] for s in range(0, len(a), 256)])


def reference_loss_and_gradients(weights, biases, x, y):
    """The training step as first written, with its weight gradients summed over row blocks: a fresh array for
    every temporary."""
    activations, pred = reference_forward(weights, biases, x)
    residual = pred - y
    loss = float(np.mean(residual**2))
    n = x.shape[0]
    delta = (2.0 / n) * residual[:, None]
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    grads_w[-1] = reference_block_sum(activations[-1], delta)
    grads_b[-1] = delta.sum(axis=0)
    upstream = delta @ weights[-1].T
    for i in range(len(weights) - 2, -1, -1):
        upstream = upstream * (1.0 - activations[i + 1] ** 2)
        grads_w[i] = reference_block_sum(activations[i], upstream)
        grads_b[i] = upstream.sum(axis=0)
        if i > 0:
            upstream = upstream @ weights[i].T
    return loss, grads_w, grads_b


def reference_train(x, y, cfg):
    """The training loop as first written, on float32 reference steps: float32 weights and biases, epoch losses."""
    shift32 = x.mean(axis=0).astype(np.float32).astype(np.float64)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xs = ((x - shift32) / scale.astype(np.float32).astype(np.float64)).astype(np.float32)
    y = y.astype(np.float32)
    weights, biases = _init_params(cfg.seed)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    shuffle_rng = rng_stream(cfg.seed, _STREAM_SHUFFLE)
    n = xs.shape[0]
    step = 0
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads_w, grads_b = reference_loss_and_gradients(weights, biases, xs[batch], y[batch])
            batch_losses.append(loss)
            step += 1
            correct1 = 1.0 - 0.9**step
            correct2 = 1.0 - 0.999**step
            for params, grads, ms, vs in ((weights, grads_w, m_w, v_w), (biases, grads_b, m_b, v_b)):
                for i, g in enumerate(grads):
                    ms[i] = 0.9 * ms[i] + (1.0 - 0.9) * g
                    vs[i] = 0.999 * vs[i] + (1.0 - 0.999) * g * g
                    params[i] -= cfg.learning_rate * (ms[i] / correct1) / (np.sqrt(vs[i] / correct2) + 1e-8)
        epoch_losses.append(float(np.mean(batch_losses)))
    return weights, biases, epoch_losses


def random_parameters(seed, dtype=np.float32):
    """Weights and biases with non-zero biases, in ``dtype``: float32 by default, as a training step sees them."""
    model = random_model(np.random.default_rng(seed))
    return [w.astype(dtype) for w in model.weights], [b.astype(dtype) for b in model.biases]


def relative_error(a, b):
    denom = np.abs(a) + np.abs(b)
    return np.abs(a - b).max() / max(denom.max(), 1e-12)


class TestCalibDataset:
    def test_row_count_matches_mask(self, small_geometry):
        features, depths = build_calib_dataset(3, small_geometry, seed=1)
        expected = 3 * int(small_geometry.disc_mask.sum())
        assert features.shape == (expected, 5)
        assert depths.shape == (expected,)

    def test_deterministic(self, small_geometry):
        a = build_calib_dataset(2, small_geometry, seed=9)
        b = build_calib_dataset(2, small_geometry, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = build_calib_dataset(2, small_geometry, seed=10)
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("which, captures", [
        pytest.param(which, captures, id=which if captures == 3 else f"{which}-one-capture")
        for captures in (3, 1) for which in ("geometry", "small_geometry")])
    def test_matches_full_frame_reference(self, request, which, captures):
        """Disc-pixel captures give the rows of full-frame readings through color_delta.

        One capture is the calibrate benchmark's ``--captures 1``: a stream of one pair.
        """
        geom = request.getfixturevalue(which)
        membrane = pt.default_membrane(geom)
        features, depths = build_calib_dataset(captures, geom, seed=31)
        draws = rng_stream(31, 12).random(captures)
        seeds = rng_stream(31, 13).integers(0, 2**62, size=2 * captures)
        rows_x, rows_y = [], []
        for i in range(captures):
            depth = pt.MAX_DEPTH_MM * (1.0 - float(draws[i]))
            truth = sphere_press_truth(depth, geom)
            ref = render_reading(geom.zero_map(), membrane, int(seeds[2 * i]))
            contact = render_reading(truth, membrane, int(seeds[2 * i + 1]))
            rows_x.append(color_delta(ref, contact, geom))
            rows_y.append(truth.depths[geom.disc_mask].astype(np.float64))
        assert np.array_equal(features, np.concatenate(rows_x))
        assert np.array_equal(depths, np.concatenate(rows_y))

    def test_tiny_press_contributes_near_null_rows(self, small_geometry, small_membrane):
        # continuity at zero press: targets ~0 and color deltas within quantization
        depth = 1e-4
        truth = sphere_press_truth(depth, small_geometry)
        ref = render_reading(small_geometry.zero_map(), small_membrane, seed=100)
        contact = render_reading(truth, small_membrane, seed=101)
        rows = color_delta(ref, contact, small_geometry)
        mask = small_geometry.disc_mask
        assert truth.depths[mask].max() <= depth
        noise_span = 8 * defaults.SENSOR_NOISE_STD + 1.0  # channel noise + quantization
        hue_per_count = 60.0 / (255 * 0.9 * 0.6)
        assert np.abs(rows[:, 0]).max() < noise_span * hue_per_count


class TestTrainMlp:
    def test_layer_shapes(self, fast_model):
        assert [w.shape for w in fast_model.weights] == [(5, 32), (32, 32), (32, 32), (32, 1)]
        assert [b.shape for b in fast_model.biases] == [(32,), (32,), (32,), (1,)]

    def test_constant_zero_fit(self):
        # Full-batch descent to a zero target. 5,000 epochs end the descent before Adam's fixed-step dither, whose
        # size at any one epoch is a draw: every init seed's mean squared output is 2e-7 to 1.4e-6 there.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 5))
        y = np.zeros(256)
        for seed in range(1, 7):
            model = train_mlp(x, y, TrainConfig(epochs=5000, batch_size=256, seed=seed))
            assert np.mean(model.forward(x) ** 2) < 1e-5, seed

    def test_synthetic_linear_ground_truth(self):
        # depth = 0.002 * dH over the working hue range
        rng = np.random.default_rng(1)
        def make(n):
            dh = rng.uniform(0.0, 60.0, size=n)
            rest = rng.uniform(-0.05, 0.05, size=(n, 2))
            uv = rng.uniform(0.0, 1.0, size=(n, 2))
            x = np.column_stack([dh, rest, uv])
            return x, 0.002 * dh
        x_train, y_train = make(20000)
        x_test, y_test = make(2000)
        model = train_mlp(x_train, y_train, TrainConfig(epochs=50, seed=2))
        rmse = np.sqrt(np.mean((model.forward(x_test) - y_test) ** 2))
        assert rmse < 0.01

    def test_deterministic_model_files(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4000, 5))
        y = rng.uniform(0.0, 0.5, size=4000)
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            model = train_mlp(x, y, TrainConfig(epochs=3, seed=seed))
            save_model(tmp_path / f"{name}.json", model)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.json").read_bytes() != (tmp_path / "c.json").read_bytes()

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_full_batch_loss_non_increasing(self, seed):
        # descent phase of full-batch training; the adaptive optimizer only
        # dithers once it reaches its noise floor, well past these epochs
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 5))
        y = 0.1 * x[:, 0] - 0.05 * x[:, 1] + 0.02 * x[:, 2]
        model = train_mlp(x, y, TrainConfig(learning_rate=5e-4, epochs=12, batch_size=500, seed=seed))
        losses = np.array(model.epoch_losses)
        assert np.all(np.diff(losses) <= 1e-12 + 1e-9 * losses[:-1])
        assert losses[-1] < 0.5 * losses[0]

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            train_mlp(np.zeros((0, 5)), np.zeros(0), TrainConfig())
        with pytest.raises(ValueError):
            train_mlp(np.full((4, 5), np.nan), np.zeros(4), TrainConfig())

    def test_rejects_rows_beyond_float32_range(self):
        """Rows whose mean overflows float32 give infinite standardization constants, which the model's finiteness
        check reports, not a cast warning."""
        x = np.linspace(1e39, 2e39, 40).reshape(8, 5)
        with pytest.raises(ValueError, match="model parameters must be finite"):
            train_mlp(x, np.zeros(8), TrainConfig(epochs=1, batch_size=8))

    def test_validation_of_config(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_epoch_holds_at_most_one_float64_copy_of_the_rows(self):
        """Beyond the caller's rows, an epoch holds at most 40 bytes a row (one float64 copy: the std's temporary,
        later the float32 rows, targets and shuffle order, 32) plus the step's four buffers.

        A float64 standardized copy beside the float32 one is 60 bytes a row: 18.0 MB at 300,000 rows, 3.4 MB over the
        bound.  At 60,000 rows the step's 2.1 MB of buffers would hide it: the epoch peaks at 4.3 MB either way.
        """
        rows = 300_000
        rng = np.random.default_rng(4)
        x = rng.normal(size=(rows, 5)) * [30.0, 0.1, 0.1, 0.3, 0.3]
        y = rng.uniform(0.0, 0.5, size=rows)
        buffers = sum(b.nbytes for b in _step_buffers(4096, np.float32))
        train_mlp(x[:64], y[:64], TrainConfig(epochs=1))  # numpy's first calls run slowly under tracemalloc
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_mlp(x, y, TrainConfig(epochs=1, batch_size=4096, seed=0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < rows * 5 * 8 + buffers + 2**19  # half a MB of slack for the small arrays


class TestForward:
    def test_zero_weight_model_outputs_bias(self):
        zero = CalibrationModel(
            weights=tuple(np.zeros((a, b)) for a, b in [(5, 32), (32, 32), (32, 32), (32, 1)]),
            biases=(np.zeros(32), np.zeros(32), np.zeros(32), np.array([0.123])),
            feature_shift=np.zeros(5),
            feature_scale=np.ones(5),
        )
        out = mlp_forward(zero, np.array([1.0, -2.0, 3.0, 0.5, 0.5]))
        assert out == pytest.approx(0.123, abs=1e-7)

    def test_repeated_calls_identical(self, fast_model):
        x = np.array([2.0, -0.1, 0.05, 0.3, 0.7])
        assert mlp_forward(fast_model, x) == mlp_forward(fast_model, x)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            model = random_model(rng)
            x = rng.normal(size=5)
            grad = input_gradient(model, x)
            h = 1e-6
            fd = np.empty(5)
            for i in range(5):
                up, down = x.copy(), x.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (mlp_forward(model, up) - mlp_forward(model, down)) / (2 * h)
            assert relative_error(grad, fd) < 1e-4

    def test_training_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        weights = [w.astype(np.float64) for w in model.weights]
        biases = [b.astype(np.float64) for b in model.biases]
        x = rng.normal(size=(12, 5))
        y = rng.uniform(0.0, 0.5, size=12)
        _, grads_w, grads_b = loss_and_gradients(weights, biases, x, y, _step_buffers(len(x), x.dtype))
        h = 1e-6
        for li in range(len(weights)):
            idx = (rng.integers(weights[li].shape[0]), rng.integers(weights[li].shape[1]))
            for sign in (1.0, -1.0):
                weights[li][idx] += sign * h
                if sign > 0:
                    up = loss_and_gradients(weights, biases, x, y, _step_buffers(len(x), x.dtype))[0]
                    weights[li][idx] -= h
                else:
                    down = loss_and_gradients(weights, biases, x, y, _step_buffers(len(x), x.dtype))[0]
                    weights[li][idx] += h
            fd = (up - down) / (2 * h)
            assert abs(grads_w[li][idx] - fd) / max(abs(fd), 1e-10) < 1e-4


class TestStandardize:
    """``CalibrationModel.standardize`` has the bits of the whole-matrix expression, cast to the dtype it is asked for."""

    @staticmethod
    def assert_matches_whole_matrix(model, x):
        whole = (x - model.feature_shift.astype(np.float64)) / model.feature_scale.astype(np.float64)
        assert model.standardize(x, np.float64).tobytes() == whole.tobytes()
        assert model.standardize(x, np.float32).tobytes() == whole.astype(np.float32).tobytes()

    def test_capture_rows(self, geometry):
        x, _ = build_calib_dataset(1, geometry, seed=3)
        self.assert_matches_whole_matrix(CalibrationModel(*_init_params(0), x.mean(axis=0), x.std(axis=0)), x)

    def test_extreme_rows(self):
        # +-1e30, float64 and float32 subnormals and both zeros, against constants that keep every result finite
        values = np.array([1e30, -1e30, 5e-324, -5e-324, 1e-310, 1e-40, -1e-42, 0.0, -0.0, 1.0, -3.75, 123.456])
        x = np.random.default_rng(7).choice(values, size=(500, 5))
        model = CalibrationModel(*_init_params(0), np.array([0.0, 1.5, -1e-40, 2.5e-3, 1e30]),
                                 np.array([1.0, 3.0, 1e-3, 0.7, 2e5]))
        self.assert_matches_whole_matrix(model, x)


class TestTrainingStepBits:
    """The training step and loop give the same bits as the reference that allocates every temporary."""

    @pytest.mark.parametrize("batch", [1, 37, 2088, 2648, 3092, 4096])
    def test_step_matches_reference(self, batch):
        # Training steps in float32; the gradient checks call the same step in float64.
        for dtype in (np.float32, np.float64):
            weights, biases = random_parameters(batch, dtype)
            rng = np.random.default_rng(batch + 1)
            x = rng.normal(size=(batch, 5)).astype(dtype)
            y = rng.uniform(0.0, 0.5, size=batch).astype(dtype)
            y[0] = reference_forward(weights, biases, x)[1][0]  # one row with a zero residual
            loss, grads_w, grads_b = reference_loss_and_gradients(weights, biases, x, y)
            work = _step_buffers(4096, dtype)  # a last batch runs in the leading rows of full-size buffers
            for got in (loss_and_gradients(weights, biases, x, y, _step_buffers(len(x), x.dtype)),
                        loss_and_gradients(weights, biases, x, y, work),
                        loss_and_gradients(weights, biases, x, y, work)):
                assert got[0] == loss
                for a, b in zip(got[1] + got[2], grads_w + grads_b):
                    assert a.dtype == dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows, cfg", [
        (5000, TrainConfig(epochs=2, seed=3)),  # one full batch and a 904-row remainder per epoch
        (2100, TrainConfig(epochs=3, batch_size=700, seed=4)),
        (37, TrainConfig(epochs=4, batch_size=4096, seed=5)),
    ])
    def test_train_mlp_matches_reference(self, rows, cfg):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 5)) * [30.0, 0.1, 0.1, 0.3, 0.3] + [10.0, 0.0, 0.0, 0.5, 0.5]
        y = rng.uniform(0.0, 0.5, size=rows)
        weights, biases, epoch_losses = reference_train(x, y, cfg)
        model = train_mlp(x, y, cfg)
        assert model.epoch_losses == tuple(epoch_losses)
        for a, b in zip(model.weights + model.biases, weights + biases):
            assert np.array_equal(a, b.astype(np.float32))

    def test_warm_step_allocates_less_than_one_activation_matrix(self):
        weights, biases = random_parameters(0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4096, 5)).astype(np.float32)
        y = rng.uniform(0.0, 0.5, size=4096).astype(np.float32)
        work = _step_buffers(len(x), np.float32)
        expected = loss_and_gradients(weights, biases, x, y, work)
        tracemalloc.start()
        try:
            got = loss_and_gradients(weights, biases, x, y, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == expected[0]
        assert peak < len(x) * LAYER_SIZES[1] * 4  # less than one float32 activation matrix


class TestBiasFold:
    """A hidden bias gradient, ``np.einsum("ij->j", u)``, adds the rows of ``u`` in order, as ``u.sum(axis=0)`` does."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 37, 3092, 4096])
    def test_fold_is_the_row_sum(self, rows, dtype):
        u = np.random.default_rng(rows).normal(size=(rows, LAYER_SIZES[1])).astype(dtype)
        # Column 0 mixes +-1e30 with 1.0, so a sum in any other order than row order reads otherwise.
        u[:, 0] = np.resize(np.array([1e30, 1.0, -1e30, 1.0, 1.0], dtype), rows)
        fold = np.einsum("ij->j", u)
        assert fold.dtype == dtype
        assert fold.tobytes() == u.sum(axis=0).tobytes()
        assert fold.tobytes() == functools.reduce(np.add, u).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_column_folds_to_positive_zero(self, dtype):
        fold = np.einsum("ij->j", np.full((37, LAYER_SIZES[1]), -0.0, dtype))
        assert not np.signbit(fold).any() and not fold.any()

    @pytest.mark.parametrize("warm", [False, True])
    def test_adam_maps_both_zeros_alike(self, warm):
        # train_mlp's update of its flat parameter vector, from fresh or warm moments, at step 3.
        rng = np.random.default_rng(8)
        size = 2337
        start = rng.normal(size=size).astype(np.float32)
        m0, v0 = np.zeros(size, np.float32), np.zeros(size, np.float32)  # as train_mlp starts them
        if warm:
            m0 = (rng.normal(size=size) * 1e-3).astype(np.float32)
            v0 = (rng.uniform(size=size) * 1e-6).astype(np.float32)
        results = []
        for zero in (0.0, -0.0):
            g = np.full(size, zero, np.float32)
            flat = start.copy()
            m = _ADAM_BETA1 * m0 + (1.0 - _ADAM_BETA1) * g
            v = _ADAM_BETA2 * v0 + (1.0 - _ADAM_BETA2) * g * g
            flat -= 0.001 * (m / (1.0 - _ADAM_BETA1**3)) / (np.sqrt(v / (1.0 - _ADAM_BETA2**3)) + _ADAM_EPS)
            results.append((m.tobytes(), v.tobytes(), flat.tobytes()))
        assert results[0] == results[1]


class TestModelFiles:
    def test_roundtrip_identical_predictions(self, tmp_path, fast_model):
        path = tmp_path / "model.json"
        save_model(path, fast_model)
        loaded = load_model(path)
        x = np.random.default_rng(0).normal(size=(100, 5))
        assert np.array_equal(fast_model.forward(x), loaded.forward(x))
        save_model(tmp_path / "again.json", loaded)
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a calibration model"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[]", '"model"', "3", "null"])
    def test_rejects_non_object(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="must hold a JSON object"):
            load_model(path)

    @pytest.mark.parametrize(
        "changes",
        [{"max_depth": [0.5]}, {"weights": 5}, {"biases": [1, 2, 3, 4]}, {"feature_shift": None},
         {"epoch_losses": 5}, {"epoch_losses": [[1.0]]}, {"epoch_losses": "12"}, {"epoch_losses": [True]},
         {"max_depth": "0.3"}, {"max_depth": True}],
    )
    def test_rejects_wrong_json_types(self, tmp_path, fast_model, changes):
        path = tmp_path / "model.json"
        save_model(path, fast_model)
        path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
        with pytest.raises(ValueError, match="malformed calibration model file"):
            load_model(path)


class TestModelMaxDepth:
    """A model file's ``max_depth`` is the 0.5 mm full scale, the clamp of every reconstructed depth."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0, 0.25, 5.0, 0.5000001])
    def test_out_of_range_rejected(self, tmp_path, fast_model, value):
        path = tmp_path / "model.json"
        save_model(path, fast_model)
        path.write_text(json.dumps({**json.loads(path.read_text()), "max_depth": value}))
        with pytest.raises(ValueError, match=r"max depth must be 0\.5 mm, the full scale"):
            load_model(path)

    def test_in_range_accepted(self, tmp_path, fast_model):
        path = tmp_path / "model.json"
        save_model(path, fast_model)
        assert json.loads(path.read_text())["max_depth"] == 0.5
        rows = np.random.default_rng(0).uniform(-30.0, 30.0, size=(64, 5))
        assert np.array_equal(disc_depths(load_model(path), rows), disc_depths(fast_model, rows))

    def test_hand_edited_file_rejected(self, tmp_path, fast_model):
        path = tmp_path / "model.json"
        save_model(path, fast_model)
        path.write_text(path.read_text().replace('"max_depth": 0.5', '"max_depth": NaN'))
        with pytest.raises(ValueError, match="max depth must be 0.5 mm"):
            load_model(path)


class TestDiscDepths:
    @pytest.mark.parametrize("which", ["geometry", "small_geometry"])
    def test_match_reconstruct(self, request, which, fast_model):
        geom = request.getfixturevalue(which)
        membrane = pt.default_membrane(geom)
        unclipped = random_model(np.random.default_rng(5))  # raw outputs fall below 0 and above max depth
        zero = geom.zero_map()
        cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
        for truth in (zero, sphere_press_truth(0.4, geom), contact_solve(cfg, geom)):
            ref = render_reading(zero, membrane, 40)
            contact = render_reading(truth, membrane, 41)
            for model in (fast_model, unclipped):
                rows = disc_rows(ref.pixels[geom.disc_mask], contact.pixels[geom.disc_mask], geom)
                depths = disc_depths(model, rows)
                recon = reconstruct(model, ref, contact, geom)
                assert depths.dtype == np.float64
                assert np.array_equal(depths, recon.depths[geom.disc_mask].astype(np.float64))
                assert np.all(recon.depths[~geom.disc_mask] == 0.0)

    def test_reused_buffers_give_the_same_bits(self, small_geometry, small_membrane, fast_model):
        ref = render_reading(small_geometry.zero_map(), small_membrane, 42)
        contact = render_reading(sphere_press_truth(0.3, small_geometry), small_membrane, 43)
        rows = color_delta(ref, contact, small_geometry)
        expected = disc_depths(dataclasses.replace(fast_model), rows)
        model = dataclasses.replace(fast_model)
        model.forward(np.random.default_rng(2).normal(size=(small_geometry.disc_pixel_count + 7, 5)))
        for _ in range(2):  # the buffers are reused as they are left
            assert np.array_equal(disc_depths(model, rows), expected)

    def test_repeated_forward_allocates_no_activations(self, fast_model):
        x = np.random.default_rng(1).normal(size=(20000, 5))
        model = dataclasses.replace(fast_model)
        expected = model.forward(x)
        tracemalloc.start()
        try:
            out = model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, expected)
        assert peak < len(x) * LAYER_SIZES[1] * 4  # less than one float32 hidden activation matrix

    def test_float32_forward_tracks_the_float64_forward(self, geometry, membrane, calib_model):
        # The float32 layers move the raw depths by float32 rounding only, a few 1e-7 mm on these presses.
        cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
        zero = geometry.zero_map()
        truths = (zero, sphere_press_truth(0.3, geometry), contact_solve(cfg, geometry))
        for seed, truth in enumerate(truths):
            rows = color_delta(render_reading(zero, membrane, 2 * seed), render_reading(truth, membrane, 2 * seed + 1),
                               geometry)
            out = calib_model.forward(rows)
            assert out.dtype == np.float64
            assert np.max(np.abs(out - mlp_forward(calib_model, rows))) <= 1e-6

    def test_pixel_rows_must_cover_the_disc(self, small_geometry, fast_model):
        px = np.zeros((int(small_geometry.disc_mask.sum()) - 1, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="sensing-disc pixel"):
            disc_rows(px, px, small_geometry)


class TestAnalyticOracle:
    """The simulated hue response is linear in depth, so dH / GAIN_H is a depth estimate the MLP never saw."""

    def test_reconstruction_tracks_hue_shift(self, geometry, calib_model, quiet_sensor):
        quiet_sensor(0.2)
        membrane = pt.default_membrane(geometry)
        mask = geometry.disc_mask
        for depth, seed in ((0.15, 3), (0.3, 5), (0.45, 7)):
            truth = sphere_press_truth(depth, geometry)
            ref = render_reading(geometry.zero_map(), membrane, 2 * seed)
            contact = render_reading(truth, membrane, 2 * seed + 1)
            recon = reconstruct(calib_model, ref, contact, geometry).depths[mask].astype(np.float64)
            oracle = color_delta(ref, contact, geometry)[:, 0] / defaults.GAIN_H_DEG_PER_MM
            gap = recon - oracle
            assert np.abs(np.mean(gap)) < ORACLE_MEAN_GAP_MM
            assert np.sqrt(np.mean(gap**2)) < ORACLE_RMS_GAP_MM
            inside = oracle > ORACLE_FOOTPRINT_MM
            slope = np.sum(recon[inside] * oracle[inside]) / np.sum(oracle[inside] ** 2)
            assert abs(slope - 1.0) < ORACLE_SLOPE_TOLERANCE


class TestReconstruct:
    def test_dimension_mismatch(self, small_geometry, fast_model):
        img = pt.RgbImage(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="does not match"):
            reconstruct(fast_model, img, img, small_geometry)

    def test_null_contact_is_quiet(self, small_geometry, small_membrane, fast_model):
        ref = render_reading(small_geometry.zero_map(), small_membrane, seed=51)
        recon = reconstruct(fast_model, ref, ref, small_geometry)
        mask = small_geometry.disc_mask
        # identical images: deltas are exactly zero, output is the model's null bias
        assert recon.depths[mask].mean() < 0.003

    def test_sphere_press_rmse(self, small_geometry, small_membrane, fast_model):
        rng = rng_stream(12, 60)
        mask = small_geometry.disc_mask
        zero = small_geometry.zero_map()
        for _ in range(3):
            depth = 0.5 * (1.0 - float(rng.random()))
            truth = sphere_press_truth(depth, small_geometry)
            ref = render_reading(zero, small_membrane, int(rng.integers(2**62)))
            contact = render_reading(truth, small_membrane, int(rng.integers(2**62)))
            recon = reconstruct(fast_model, ref, contact, small_geometry)
            err = recon.depths[mask].astype(np.float64) - truth.depths[mask].astype(np.float64)
            assert np.sqrt(np.mean(err**2)) <= 0.025

    def test_tumor_press_argmax_near_projection(self, small_geometry, small_membrane, fast_model):
        cfg = PhantomConfig(tumor_present=True, ball_diameter_mm=8.0, burial_depth_mm=2.0,
                            lateral_offset_mm=(1.0, -0.5))
        solution = contact_solve(cfg, small_geometry)
        ref = render_reading(small_geometry.zero_map(), small_membrane, seed=70)
        contact = render_reading(solution, small_membrane, seed=71)
        recon = reconstruct(fast_model, ref, contact, small_geometry)
        depths = np.where(small_geometry.disc_mask, recon.depths, -1.0)
        row, col = np.unravel_index(np.argmax(depths), depths.shape)
        gx, gy = small_geometry.coords_mm
        distance_px = np.hypot(gx[row, col] - 1.0, gy[row, col] + 0.5) / small_geometry.mm_per_pixel
        assert distance_px <= 5.0

    def test_mirror_equivariance_exact_for_position_free_model(self, small_geometry, small_membrane):
        model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
        truth = sphere_press_truth(0.3, small_geometry)
        ref = render_reading(small_geometry.zero_map(), small_membrane, seed=80)
        contact = render_reading(truth, small_membrane, seed=81)
        recon = reconstruct(model, ref, contact, small_geometry)
        mirrored = reconstruct(
            model,
            pt.RgbImage(ref.pixels[:, ::-1]),
            pt.RgbImage(contact.pixels[:, ::-1]),
            small_geometry,
        )
        assert np.array_equal(mirrored.depths, recon.depths[:, ::-1])

    def test_mirror_equivariance_with_augmented_training(self, small_geometry, small_membrane):
        features, depths = build_calib_dataset(6, small_geometry, seed=21)
        flipped = features.copy()
        flipped[:, 3] = 1.0 - flipped[:, 3]
        model = train_mlp(
            np.concatenate([features, flipped]),
            np.concatenate([depths, depths]),
            TrainConfig(epochs=25, seed=21),
        )
        truth = sphere_press_truth(0.35, small_geometry)
        ref = render_reading(small_geometry.zero_map(), small_membrane, seed=90)
        contact = render_reading(truth, small_membrane, seed=91)
        recon = reconstruct(model, ref, contact, small_geometry)
        mirrored = reconstruct(
            model,
            pt.RgbImage(ref.pixels[:, ::-1]),
            pt.RgbImage(contact.pixels[:, ::-1]),
            small_geometry,
        )
        gap = np.abs(mirrored.depths.astype(np.float64) - recon.depths[:, ::-1].astype(np.float64))
        mask = small_geometry.disc_mask
        # finite training leaves a small residual asymmetry, largest at the
        # steep cap edge
        assert gap[mask].mean() < 0.008
        assert np.percentile(gap[mask], 95) < 0.03

    def test_surrogate_model_tracks_linear_map(self, small_geometry):
        model = linear_hue_model(0.002)
        x = np.array([[30.0, 0.0, 0.0, 0.2, 0.8], [5.0, 0.01, -0.01, 0.9, 0.1]])
        assert np.allclose(model.forward(x), 0.002 * x[:, 0], rtol=1e-5)
