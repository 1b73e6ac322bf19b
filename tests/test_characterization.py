import math
import threading

import numpy as np
import pytest

import phototact as pt
from phototact import defaults
from phototact.characterization import (
    INDENTER_CAPACITY_N,
    characterize,
    force_to_depth,
    hysteresis,
    indenter_truth,
    moving_average,
    null_difference_stat,
    repeatability,
    run_force_sweep,
)
from phototact import characterization, phantom
from phototact.calibration import disc_depths, reconstruct
from phototact.imaging import hsv_to_rgb_real
from phototact.phantom import deformed_hsv, render_reading, rng_stream, spherical_cap_volume
from conftest import linear_hue_model


def predicted_null_std(geom):
    """The null-difference std that the device's noise constants predict, from no capture.

    With noise_std and speckle the ``defaults.SENSOR_NOISE_STD`` and ``defaults.SPECKLE_AMPLITUDE`` constants, a disc
    channel of clean value c reads c (1 + speckle n0) + noise_std n1, a normal of std
    sigma = sqrt(noise_std^2 + (speckle c)^2), rounded half up: level k has probability
    Phi((k + 1/2 - c) / sigma) - Phi((k - 1/2 - c) / sigma). The difference of two independent readings has twice
    a channel's variance, and the std over the disc is the root of the mean.
    """
    clean = hsv_to_rgb_real(*deformed_hsv(geom.zero_map(), geom.disc_index)).reshape(-1, 1)
    sigma = np.hypot(defaults.SENSOR_NOISE_STD, defaults.SPECKLE_AMPLITUDE * clean)
    levels = np.floor(clean) + np.arange(-10, 12)  # every level within 19 sigma of c, the widest sigma being 0.49
    edges = np.concatenate([levels - 0.5, levels[:, -1:] + 0.5], axis=1)
    cdf = 0.5 + 0.5 * np.frompyfunc(math.erf, 1, 1)((edges - clean) / (sigma * math.sqrt(2.0))).astype(np.float64)
    p = np.diff(cdf, axis=1)
    variance = (p * levels**2).sum(axis=1) - (p * levels).sum(axis=1) ** 2
    return math.sqrt(2.0 * variance.mean())


class TestRepeatability:
    def test_reference_numbers(self):
        # worst-step spread of exactly 0.11 mm at 0.5 mm full scale -> 22%
        assert repeatability(np.array([[0.1, 0.3, 0.0], [0.1, 0.3, 0.11]])) == 22.0

    def test_identical_trials(self):
        assert repeatability(np.array([[0.1, 0.2], [0.1, 0.2], [0.1, 0.2]])) == 0.0

    def test_constant_offset(self):
        assert repeatability(np.array([[0.1, 0.2, 0.3], [0.15, 0.25, 0.35]])) == pytest.approx(10.0, abs=1e-12)

    def test_full_scale_is_max_depth_for_any_step_schedule(self, small_geometry, fast_model):
        # steps ending below 0.5 mm still report the spread as a share of the 0.5 mm full scale
        report = characterize(small_geometry, fast_model, forces=(0.05, 0.08, 0.11), steps=(0.1, 0.2), seed=1)
        measured = report.trials.measurements
        spread = measured.max(axis=0) - measured.min(axis=0)
        assert report.repeatability_pct == float(spread.max() / pt.MAX_DEPTH_MM * 100.0)


class TestHysteresis:
    def test_reference_numbers(self):
        # worst loading/unloading gap 0.19 mm at 0.5 mm full scale -> 38%
        unloading = np.array([0.5, 0.49, 0.0])  # in decreasing force
        assert hysteresis(np.array([0.0, 0.3, 0.5]), unloading[::-1]) == 38.0

    def test_equal_curves(self):
        curve = np.array([0.0, 0.2, 0.4])
        assert hysteresis(curve, curve) == 0.0

    def test_single_point_gap(self):
        assert hysteresis(np.array([0.0, 0.3, 0.5]), np.array([0.0, 0.2, 0.5])) == pytest.approx(20.0, abs=1e-12)

    def test_characterize_smooths_each_sweep_in_its_own_order(self, small_geometry, fast_model):
        report = characterize(small_geometry, fast_model, forces=(0.05, 0.08, 0.11, 0.13), steps=(0.2,), seed=2)
        expected = hysteresis(moving_average(report.loading.max_depths),
                              moving_average(report.unloading.max_depths)[::-1])
        assert report.hysteresis_pct == expected


class TestSmoothing:
    def test_moving_average_window3(self):
        x = np.array([0.0, 3.0, 0.0, 3.0, 0.0])
        out = moving_average(x)
        assert np.allclose(out, [1.5, 1.0, 2.0, 1.0, 1.5])


class TestNullDifference:
    def test_identical_images(self, small_geometry):
        px = np.full((small_geometry.disc_pixel_count, 3), 60, dtype=np.uint8)
        assert null_difference_stat(px, px, small_geometry) == 0.0

    def test_dimension_mismatch(self, small_geometry):
        px = np.zeros((small_geometry.disc_pixel_count, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="sensing-disc pixel"):
            null_difference_stat(px, px[:, :2], small_geometry)

    def test_disc_pixels_match_readings(self, small_geometry):
        zero = small_geometry.zero_map()
        mask = small_geometry.disc_mask
        before, after = render_reading(zero, 4), render_reading(zero, 5)
        stat = null_difference_stat(before.pixels[mask], after.pixels[mask], small_geometry)
        assert stat > 0.0
        ((_, ref, contact),) = pt.disc_captures([([zero], [[(4, 5)]])], small_geometry)
        assert np.array_equal(ref, before.pixels[mask]) and np.array_equal(contact, after.pixels[mask])
        assert null_difference_stat(ref, contact, small_geometry) == stat

    def test_disc_pixel_count_mismatch(self, small_geometry):
        px = np.zeros((int(small_geometry.disc_mask.sum()) - 1, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="sensing-disc pixel"):
            null_difference_stat(px, px, small_geometry)

    def test_default_noise_matches_tuning_target(self, geometry):
        zero = geometry.zero_map()
        mask = geometry.disc_mask
        values = [
            null_difference_stat(
                render_reading(zero, 2 * s).pixels[mask],
                render_reading(zero, 2 * s + 1).pixels[mask],
                geometry,
            )
            for s in range(4)
        ]
        assert np.mean(values) == pytest.approx(0.7, abs=0.07)

    def test_default_noise_is_the_predicted_std(self, small_geometry):
        """40 null pairs read the std their constants predict: the mean within 0.3%, each pair within 2.5%."""
        zero = small_geometry.zero_map()
        captures = pt.disc_captures([([zero], [[(2 * s, 2 * s + 1) for s in range(40)]])], small_geometry)
        stats = np.array([null_difference_stat(ref, contact, small_geometry) for _, ref, contact in captures])
        predicted = predicted_null_std(small_geometry)
        assert predicted == pytest.approx(0.70, abs=0.01)
        assert stats.mean() == pytest.approx(predicted, rel=0.003)
        assert np.all(np.abs(stats / predicted - 1.0) < 0.025), stats / predicted

    def test_doubling_noise_roughly_doubles_stat(self, small_geometry, quiet_sensor):
        # Monte Carlo over seeds; quantization adds a floor, so compare after
        # removing it in quadrature
        zero = small_geometry.zero_map()
        mask = small_geometry.disc_mask
        def mean_stat(noise_std):
            quiet_sensor(noise_std)
            vals = [
                null_difference_stat(
                    render_reading(zero, 2 * s).pixels[mask],
                    render_reading(zero, 2 * s + 1).pixels[mask],
                    small_geometry,
                )
                for s in range(6)
            ]
            return float(np.mean(vals))
        quant = mean_stat(0.0)
        low = np.sqrt(mean_stat(1.0) ** 2 - quant**2)
        high = np.sqrt(mean_stat(2.0) ** 2 - quant**2)
        assert high / low == pytest.approx(2.0, rel=0.15)


# The force whose indenter cap reaches the full scale: the rig stiffness times the cap volume at MAX_DEPTH_MM.
SATURATION_FORCE_N = defaults.RIG_MEMBRANE_STIFFNESS * spherical_cap_volume(
    pt.MAX_DEPTH_MM, defaults.INDENTER_RADIUS_MM)


def saturation_onset(forces):
    """The closed-form saturation onset of a force grid: its first force at or above ``SATURATION_FORCE_N``."""
    return next((f for f in forces if f >= SATURATION_FORCE_N), None)


class TestIndenterRig:
    def test_force_depth_inversion(self):
        for force in (0.01, 0.05, 0.11):
            depth = force_to_depth(force)
            volume = spherical_cap_volume(depth, defaults.INDENTER_RADIUS_MM)
            assert defaults.RIG_MEMBRANE_STIFFNESS * volume == pytest.approx(force, rel=1e-9)

    def test_force_beyond_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            force_to_depth(10.0)

    def test_capacity_is_the_largest_force(self):
        assert force_to_depth(INDENTER_CAPACITY_N) == pytest.approx(defaults.INDENTER_RADIUS_MM, rel=1e-12)
        with pytest.raises(ValueError, match="capacity"):
            force_to_depth(np.nextafter(INDENTER_CAPACITY_N, np.inf))
        with pytest.raises(ValueError, match="positive"):
            force_to_depth(float("nan"))

    @pytest.mark.parametrize("which, tolerance", [("geometry", 0.0025), ("small_geometry", 0.011)])
    def test_in_disc_mean_is_force_over_stiffness_and_disc_area(self, request, which, tolerance):
        """Below saturation nothing clamps, so the cap's volume F / k spreads over the disc's area.

        The tolerance is the pixel discretisation of the cap: the worst force reads 0.19% off at 320x240 and
        1.02% off at 100x80.
        """
        geom = request.getfixturevalue(which)
        disc_area = geom.disc_pixel_count * geom.mm_per_pixel**2
        below = [f for f in defaults.CHAR_FORCES_N if f < SATURATION_FORCE_N]
        assert len(below) == 21
        for force in below:
            mean = indenter_truth(force_to_depth(force), geom).depths[geom.disc_mask].astype(np.float64).mean()
            assert mean == pytest.approx(force / (defaults.RIG_MEMBRANE_STIFFNESS * disc_area), rel=tolerance)

    @pytest.mark.parametrize("which", ["small_geometry", pytest.param("geometry", marks=pytest.mark.long)])
    def test_hue_oracle_reads_the_true_mean(self, request, which, quiet_sensor):
        """Render and reconstruct lose nothing on the quiet sensor and the hue oracle: below saturation each
        loading mean is the in-disc mean of its truth within 0.5% (worst 0.29% at 100x80, 0.18% at 320x240)."""
        geom = request.getfixturevalue(which)
        report = characterize(geom, linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM), seed=0)
        below = [(f, mean) for f, mean in zip(report.loading.forces, report.loading.mean_depths)
                 if f < SATURATION_FORCE_N]
        assert len(below) == 21
        for force, mean in below:
            truth = indenter_truth(force_to_depth(force), geom).depths[geom.disc_mask].astype(np.float64).mean()
            assert mean == pytest.approx(truth, rel=0.005), force

    def test_saturation_onset_is_the_first_grid_force_past_the_full_scale_cap(self):
        assert SATURATION_FORCE_N == pytest.approx(0.10794, abs=5e-6)
        assert saturation_onset(defaults.CHAR_FORCES_N) == 0.11

    def test_unloading_profile_is_scaled(self, small_geometry):
        load = indenter_truth(0.3, small_geometry).depths.astype(np.float64)
        unload = indenter_truth(0.3, small_geometry, unloading=True).depths.astype(np.float64)
        assert np.allclose(unload, (1.0 - defaults.UNLOADING_LAG_FRACTION) * load, atol=1e-7)


class TestSensitivity:
    def test_noise_free_threshold_is_first_force(self, small_geometry, quiet_sensor):
        model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
        result = characterize(small_geometry, model, [0.02, 0.04, 0.06], seed=0)
        assert result.noise_floor_mm == 0.0
        assert result.threshold_n == 0.02

    def test_all_forces_below_saturation(self, small_geometry):
        model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
        result = characterize(small_geometry, model, [0.005, 0.01, 0.015], seed=0)
        assert result.saturation_n is None

    def test_needs_three_forces(self, small_geometry):
        model = linear_hue_model(1.0)
        with pytest.raises(ValueError, match="three"):
            characterize(small_geometry, model, [0.01, 0.02], seed=0)

    @pytest.mark.parametrize("forces, steps, match", [
        pytest.param([0.01, 0.02, 0.02], (0.2,), "distinct", id="repeat"),
        pytest.param([0.01, 0.02, float("nan")], (0.2,), "the indenter capacity", id="nan-force"),
        pytest.param([0.01, 0.02, float("inf")], (0.2,), "the indenter capacity", id="infinite-force"),
        pytest.param([-1.0, 0.01, 0.02], (0.2,), "the indenter capacity", id="negative-force"),
        pytest.param([0.0, 0.01, 0.02], (0.2,), "the indenter capacity", id="zero-force"),
        pytest.param([0.01, 0.02, 5.0], (0.2,), "the indenter capacity", id="over-capacity-force"),
        pytest.param([0.01, 0.02, 0.03], (float("nan"),), "depth steps, each in", id="nan-step"),
        pytest.param([0.01, 0.02, 0.03], (0.2, float("inf")), "depth steps, each in", id="infinite-step"),
        pytest.param([0.01, 0.02, 0.03], (0.2, 0.0), "depth steps, each in", id="zero-step"),
        pytest.param([0.01, 0.02, 0.03], (0.2, defaults.INDENTER_RADIUS_MM + 0.01), "the indenter radius",
                     id="step-beyond-radius"),
        pytest.param([0.01, 0.02, 0.03], (), "need depth steps", id="no-step"),
    ])
    def test_repeated_force_rejected_before_any_capture(self, small_geometry, monkeypatch, forces, steps, match):
        """A repeated, non-finite, non-positive or over-capacity force and a bad depth step are refused before
        the capture stream opens."""
        captures = []
        monkeypatch.setattr(characterization, "disc_captures", lambda *args: captures.append(args) or iter(()))
        with pytest.raises(ValueError, match=match):
            characterize(small_geometry, linear_hue_model(1.0), forces, steps=steps, seed=0)
        assert captures == []

    def test_resolution_is_the_grid_step_as_written(self, small_geometry, quiet_sensor):
        """The float difference 0.11 - 0.09 is 0.020000000000000004; the grid step as written is 0.02."""
        model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
        result = characterize(small_geometry, model, [0.05, 0.09, 0.11], steps=(0.2,), seed=0)
        assert 0.11 - 0.09 != 0.02
        assert result.noise_floor_mm == 0.0
        assert result.resolution_n == 0.02

    def test_unknown_direction_rejected_before_any_capture(self):
        read = []
        measured = (read.append(force) or [np.zeros(3)] for force in (0.01, 0.02))
        with pytest.raises(ValueError, match="direction must be 'loading' or 'unloading'"):
            run_force_sweep([0.01, 0.02], measured, direction="sideways")
        assert read == []

    def test_threshold_non_increasing_in_noise(self, small_geometry, quiet_sensor):
        # Monte Carlo over seeds: quieter sensors detect at or below the
        # louder sensor's threshold
        forces = np.round(np.arange(0.002, 0.041, 0.002), 4).tolist()
        def mean_threshold(noise_std):
            quiet_sensor(noise_std)
            thresholds = []
            for seed in (0, 1, 2):
                model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
                result = characterize(small_geometry, model, forces, steps=(0.2,), seed=seed)
                thresholds.append(result.threshold_n if result.threshold_n is not None else forces[-1] * 2)
            return float(np.mean(thresholds))
        assert mean_threshold(0.2) <= mean_threshold(0.8)

    def test_noise_floor_positive_with_noise(self, small_geometry, fast_model):
        report = characterize(small_geometry, fast_model, forces=(0.01, 0.03, 0.05), steps=(0.2,), seed=0)
        assert report.noise_floor_mm > 0.0

    def test_sweep_directions(self, small_geometry, fast_model):
        report = characterize(small_geometry, fast_model, forces=(0.05, 0.01, 0.03), steps=(0.2,), seed=0)
        loading, unloading = report.loading, report.unloading
        assert loading.direction == "loading" and np.all(np.diff(loading.forces) > 0)
        assert unloading.direction == "unloading" and np.all(np.diff(unloading.forces) < 0)
        # the emulated viscoelastic lag leaves unloading depths lower
        assert np.all(unloading.max_depths[::-1] < loading.max_depths)


class TestMeasurementLoops:
    """One capture stream serves every phase; each capture must match a fresh render of its truth at its seed."""

    SEED = 4
    FORCES = (0.05, 0.08, 0.11)
    STEPS = (0.2, 0.5)

    @pytest.fixture(scope="class")
    def run(self, small_geometry, fast_model):
        """The report of one ``characterize`` run and the ``disc_captures`` streams it opened."""
        streams = []

        def recording(*args):
            streams.append(args)
            return pt.disc_captures(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(characterization, "disc_captures", recording)
            report = characterize(small_geometry, fast_model, forces=self.FORCES, steps=self.STEPS, seed=self.SEED)
        return report, streams

    @staticmethod
    def measure(geom, model, truth, seed_pair):
        ref = render_reading(geom.zero_map(), int(seed_pair[0]))
        contact = render_reading(truth, int(seed_pair[1]))
        depths = reconstruct(model, ref, contact, geom).depths[geom.disc_mask]
        return depths.astype(np.float64)

    def test_one_capture_stream(self, run):
        _, streams = run
        assert len(streams) == 1

    def test_saturation_is_the_closed_form_onset(self, run):
        report, _ = run
        assert report.saturation_n == saturation_onset(self.FORCES) == 0.11

    def test_trials_match_per_capture_reference(self, run, fast_model, small_geometry):
        """Every trial takes the reference seed of trial 0 of step 0 and its own contact seed."""
        report, _ = run
        n_trials = defaults.CHAR_TRIALS
        seeds = rng_stream(self.SEED + 2, characterization._STREAM_TRIALS).integers(
            0, 2**62, size=(n_trials, len(self.STEPS), 2))
        seeds[..., 0] = seeds[0, 0, 0]
        for t in range(n_trials):
            for j, depth in enumerate(self.STEPS):
                truth = indenter_truth(depth, small_geometry)
                expected = self.measure(small_geometry, fast_model, truth, seeds[t, j]).max()
                assert report.trials.measurements[t, j] == expected

    def test_noise_floor_matches_per_capture_reference(self, run, fast_model, small_geometry):
        """Every null pair takes the first pair's reference seed and its own contact seed."""
        report, _ = run
        pairs = defaults.CHAR_NULL_PAIRS
        seeds = rng_stream(self.SEED, characterization._STREAM_NULL).integers(0, 2**62, size=2 * pairs)
        zero = small_geometry.zero_map()
        stds = [float(self.measure(small_geometry, fast_model, zero, (seeds[0], contact)).std())
                for contact in seeds[1::2]]
        assert report.noise_floor_mm == float(np.mean(stds))

    def test_null_std_matches_full_readings(self, run, small_geometry):
        report, _ = run
        seeds = rng_stream(self.SEED + 3, characterization._STREAM_NULL).integers(0, 2**62, size=2)
        zero = small_geometry.zero_map()
        mask = small_geometry.disc_mask
        before, after = (render_reading(zero, int(s)).pixels[mask] for s in seeds)
        assert report.null_std == null_difference_stat(before, after, small_geometry)

    def test_sweep_matches_per_capture_reference(self, run, fast_model, small_geometry):
        """Every press of a sweep takes the reference seed of the sweep's first press and its own contact seed."""
        report, _ = run
        n_trials = defaults.CHAR_TRIALS
        for sweep, seed in ((report.loading, self.SEED), (report.unloading, self.SEED + 1)):
            unloading = sweep.direction == "unloading"
            seeds = rng_stream(seed, characterization._STREAM_SWEEP).integers(
                0, 2**62, size=(len(self.FORCES), n_trials, 2))
            seeds[..., 0] = seeds[0, 0, 0]
            for i, force in enumerate(sorted(self.FORCES, reverse=unloading)):
                assert sweep.forces[i] == force
                truth = indenter_truth(force_to_depth(force), small_geometry, unloading=unloading)
                depths = [self.measure(small_geometry, fast_model, truth, seeds[i, t])
                          for t in range(n_trials)]
                assert sweep.max_depths[i] == np.mean([d.max() for d in depths])
                assert sweep.mean_depths[i] == np.mean([d.mean() for d in depths])

    def test_one_reference_draw_per_phase(self, small_geometry, fast_model, monkeypatch):
        """The benchmark's grid draws its 45 contacts and one reference for each of the five phases."""
        made = []
        body = phantom._noisy_capture

        def draw(clean, seed, *args):
            made.append(seed)
            return body(clean, seed, *args)

        monkeypatch.setattr(phantom, "_noisy_capture", draw)
        characterize(small_geometry, fast_model, forces=self.FORCES, steps=self.STEPS, seed=self.SEED)
        contacts = defaults.CHAR_NULL_PAIRS + defaults.CHAR_TRIALS * (2 * len(self.FORCES) + len(self.STEPS)) + 1
        assert len(made) == contacts + 5 == 50

    def test_failure_mid_protocol_joins_the_noise_worker(self, small_geometry, fast_model, monkeypatch):
        """A reconstruction that raises inside a phase ends the one stream and joins its worker thread.

        The held traceback keeps ``characterize``'s frame, and so the stream, alive: only ``characterize`` itself
        can have closed it."""
        calls = []

        def failing(model, rows):
            calls.append(None)
            if len(calls) == 7:
                raise RuntimeError("seventh reconstruction")
            return disc_depths(model, rows)

        monkeypatch.setattr(characterization, "disc_depths", failing)
        with pytest.raises(RuntimeError, match="seventh reconstruction") as raised:
            characterize(small_geometry, fast_model, forces=self.FORCES, steps=self.STEPS, seed=self.SEED)
        assert len(calls) == 7
        assert not [thread for thread in threading.enumerate() if thread.name.startswith("phototact-noise")], raised
