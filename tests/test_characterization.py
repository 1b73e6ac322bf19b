import numpy as np
import pytest

import phototact as pt
from phototact import defaults
from phototact.characterization import (
    IndenterRig,
    characterize,
    hysteresis,
    moving_average,
    noise_floor,
    null_difference_stat,
    repeatability,
    repeatability_trials,
    run_force_sweep,
)
from phototact import characterization
from phototact.calibration import reconstruct
from phototact.phantom import render_reading, rng_stream
from conftest import linear_hue_model


def make_rig(geom, stiffness=defaults.RIG_MEMBRANE_STIFFNESS, **membrane_overrides):
    membrane = pt.default_membrane(geom, stiffness=stiffness, **membrane_overrides)
    return IndenterRig(geometry=geom, membrane=membrane)


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
        rig = make_rig(small_geometry)
        report = characterize(rig, fast_model, forces=(0.05, 0.08, 0.11), steps=(0.1, 0.2), seed=1)
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
        rig = make_rig(small_geometry)
        report = characterize(rig, fast_model, forces=(0.05, 0.08, 0.11, 0.13), steps=(0.2,), seed=2)
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

    def test_disc_pixels_match_readings(self, small_geometry, small_membrane):
        zero = small_geometry.zero_map()
        mask = small_geometry.disc_mask
        before, after = render_reading(zero, small_membrane, 4), render_reading(zero, small_membrane, 5)
        stat = null_difference_stat(before.pixels[mask], after.pixels[mask], small_geometry)
        assert stat > 0.0
        ((_, ref, contact),) = pt.disc_captures([zero], [[(4, 5)]], small_membrane, small_geometry)
        assert np.array_equal(ref, before.pixels[mask]) and np.array_equal(contact, after.pixels[mask])
        assert null_difference_stat(ref, contact, small_geometry) == stat

    def test_disc_pixel_count_mismatch(self, small_geometry):
        px = np.zeros((int(small_geometry.disc_mask.sum()) - 1, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="sensing-disc pixel"):
            null_difference_stat(px, px, small_geometry)

    def test_default_noise_matches_tuning_target(self, geometry, membrane):
        zero = geometry.zero_map()
        mask = geometry.disc_mask
        values = [
            null_difference_stat(
                render_reading(zero, membrane, 2 * s).pixels[mask],
                render_reading(zero, membrane, 2 * s + 1).pixels[mask],
                geometry,
            )
            for s in range(4)
        ]
        assert np.mean(values) == pytest.approx(0.7, abs=0.07)

    def test_doubling_noise_roughly_doubles_stat(self, small_geometry):
        # Monte Carlo over seeds; quantization adds a floor, so compare after
        # removing it in quadrature
        zero = small_geometry.zero_map()
        mask = small_geometry.disc_mask
        def mean_stat(noise_std):
            membrane = pt.default_membrane(small_geometry, noise_std=noise_std, speckle_amplitude=0.0)
            vals = [
                null_difference_stat(
                    render_reading(zero, membrane, 2 * s).pixels[mask],
                    render_reading(zero, membrane, 2 * s + 1).pixels[mask],
                    small_geometry,
                )
                for s in range(6)
            ]
            return float(np.mean(vals))
        quant = mean_stat(0.0)
        low = np.sqrt(mean_stat(1.0) ** 2 - quant**2)
        high = np.sqrt(mean_stat(2.0) ** 2 - quant**2)
        assert high / low == pytest.approx(2.0, rel=0.15)


class TestIndenterRig:
    def test_force_depth_inversion(self, small_geometry):
        rig = make_rig(small_geometry)
        from phototact.phantom import spherical_cap_volume

        for force in (0.01, 0.05, 0.11):
            depth = rig.force_to_depth(force)
            assert rig.membrane.stiffness * spherical_cap_volume(depth, defaults.INDENTER_RADIUS_MM) == pytest.approx(
                force, rel=1e-9
            )

    def test_force_beyond_capacity(self, small_geometry):
        rig = make_rig(small_geometry)
        with pytest.raises(ValueError, match="capacity"):
            rig.force_to_depth(10.0)

    def test_capacity_is_the_largest_force(self, small_geometry):
        rig = make_rig(small_geometry)
        assert rig.force_to_depth(rig.capacity_n) == pytest.approx(defaults.INDENTER_RADIUS_MM, rel=1e-12)
        with pytest.raises(ValueError, match="capacity"):
            rig.force_to_depth(np.nextafter(rig.capacity_n, np.inf))
        with pytest.raises(ValueError, match="positive"):
            rig.force_to_depth(float("nan"))

    def test_unloading_profile_is_scaled(self, small_geometry):
        rig = make_rig(small_geometry)
        load = rig.truth_profile(0.3).depths.astype(np.float64)
        unload = rig.truth_profile(0.3, unloading=True).depths.astype(np.float64)
        assert np.allclose(unload, (1.0 - defaults.UNLOADING_LAG_FRACTION) * load, atol=1e-7)


class TestSensitivity:
    def test_noise_free_threshold_is_first_force(self, small_geometry):
        rig = make_rig(small_geometry, noise_std=0.0, speckle_amplitude=0.0)
        model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
        result = characterize(rig, model, [0.02, 0.04, 0.06], seed=0)
        assert result.noise_floor_mm == 0.0
        assert result.threshold_n == 0.02

    def test_all_forces_below_saturation(self, small_geometry):
        rig = make_rig(small_geometry)
        model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
        result = characterize(rig, model, [0.005, 0.01, 0.015], seed=0)
        assert result.saturation_n is None

    def test_needs_three_forces(self, small_geometry):
        rig = make_rig(small_geometry)
        model = linear_hue_model(1.0)
        with pytest.raises(ValueError, match="three"):
            characterize(rig, model, [0.01, 0.02], seed=0)

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
        the first capture."""
        captures = []
        monkeypatch.setattr(characterization, "_measure", lambda *args: captures.append(args) or iter(()))
        rig = make_rig(small_geometry)
        with pytest.raises(ValueError, match=match):
            characterize(rig, linear_hue_model(1.0), forces, steps=steps, seed=0)
        assert captures == []

    def test_resolution_is_the_grid_step_as_written(self, small_geometry):
        """The float difference 0.11 - 0.09 is 0.020000000000000004; the grid step as written is 0.02."""
        rig = make_rig(small_geometry, noise_std=0.0, speckle_amplitude=0.0)
        model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
        result = characterize(rig, model, [0.05, 0.09, 0.11], steps=(0.2,), seed=0)
        assert 0.11 - 0.09 != 0.02
        assert result.noise_floor_mm == 0.0
        assert result.resolution_n == 0.02

    def test_unknown_direction_rejected_before_any_capture(self, small_geometry, monkeypatch):
        captures = []
        monkeypatch.setattr(characterization, "_measure", lambda *args: captures.append(args) or iter(()))
        rig = make_rig(small_geometry)
        with pytest.raises(ValueError, match="direction must be 'loading' or 'unloading'"):
            run_force_sweep(rig, linear_hue_model(1.0), [0.01, 0.02], seed=0, direction="sideways")
        assert captures == []

    def test_threshold_non_increasing_in_noise(self, small_geometry):
        # Monte Carlo over seeds: quieter sensors detect at or below the
        # louder sensor's threshold
        forces = np.round(np.arange(0.002, 0.041, 0.002), 4).tolist()
        def mean_threshold(noise_std):
            thresholds = []
            for seed in (0, 1, 2):
                rig = make_rig(small_geometry, noise_std=noise_std, speckle_amplitude=0.0)
                model = linear_hue_model(1.0 / defaults.GAIN_H_DEG_PER_MM)
                result = characterize(rig, model, forces, steps=(0.2,), seed=seed)
                thresholds.append(result.threshold_n if result.threshold_n is not None else forces[-1] * 2)
            return float(np.mean(thresholds))
        assert mean_threshold(0.2) <= mean_threshold(0.8)

    def test_noise_floor_positive_with_noise(self, small_geometry, fast_model):
        rig = make_rig(small_geometry)
        assert noise_floor(rig, fast_model, seed=0) > 0.0

    def test_sweep_directions(self, small_geometry, fast_model):
        rig = make_rig(small_geometry)
        forces = [0.01, 0.03, 0.05]
        loading = run_force_sweep(rig, fast_model, forces, seed=0, direction="loading")
        unloading = run_force_sweep(rig, fast_model, forces, seed=0, direction="unloading")
        assert loading.direction == "loading" and np.all(np.diff(loading.forces) > 0)
        assert unloading.direction == "unloading" and np.all(np.diff(unloading.forces) < 0)
        # the emulated viscoelastic lag leaves unloading depths lower
        assert np.all(unloading.max_depths[::-1] < loading.max_depths)


class TestMeasurementLoops:
    """The loops reuse one noise-free render per truth; each capture must match a fresh render."""

    @staticmethod
    def measure(rig, model, truth, seed_pair):
        ref = render_reading(rig.geometry.zero_map(), rig.membrane, int(seed_pair[0]))
        contact = render_reading(truth, rig.membrane, int(seed_pair[1]))
        depths = reconstruct(model, ref, contact, rig.geometry).depths[rig.geometry.disc_mask]
        return depths.astype(np.float64)

    def test_trials_match_per_capture_reference(self, small_geometry, fast_model):
        rig = make_rig(small_geometry)
        steps = (0.2, 0.5)
        trials = repeatability_trials(rig, fast_model, steps=steps, seed=4)
        n_trials = defaults.CHAR_TRIALS
        seeds = rng_stream(4, characterization._STREAM_TRIALS).integers(0, 2**62, size=(n_trials, len(steps), 2))
        for t in range(n_trials):
            for j, depth in enumerate(steps):
                expected = self.measure(rig, fast_model, rig.truth_profile(depth), seeds[t, j]).max()
                assert trials.measurements[t, j] == expected

    def test_noise_floor_matches_per_capture_reference(self, small_geometry, fast_model):
        rig = make_rig(small_geometry)
        pairs = defaults.CHAR_NULL_PAIRS
        seeds = rng_stream(8, characterization._STREAM_NULL).integers(0, 2**62, size=2 * pairs)
        zero = small_geometry.zero_map()
        stds = [float(self.measure(rig, fast_model, zero, seeds[2 * i : 2 * i + 2]).std()) for i in range(pairs)]
        assert noise_floor(rig, fast_model, seed=8) == float(np.mean(stds))

    def test_null_std_matches_full_readings(self, small_geometry, fast_model):
        rig = make_rig(small_geometry)
        report = characterization.characterize(rig, fast_model, forces=(0.05, 0.08, 0.11), steps=(0.2,), seed=3)
        seeds = rng_stream(3 + 3, characterization._STREAM_NULL).integers(0, 2**62, size=2)
        zero = small_geometry.zero_map()
        mask = small_geometry.disc_mask
        before, after = (render_reading(zero, rig.membrane, int(s)).pixels[mask] for s in seeds)
        assert report.null_std == null_difference_stat(before, after, small_geometry)

    def test_sweep_matches_per_capture_reference(self, small_geometry, fast_model):
        rig = make_rig(small_geometry)
        forces = (0.05, 0.11)
        sweep = run_force_sweep(rig, fast_model, forces, seed=6, direction="unloading")
        n_trials = defaults.CHAR_TRIALS
        seeds = rng_stream(6, characterization._STREAM_SWEEP).integers(0, 2**62, size=(len(forces), n_trials, 2))
        for i, force in enumerate(sorted(forces, reverse=True)):
            truth = rig.truth_profile(rig.force_to_depth(force), unloading=True)
            depths = [self.measure(rig, fast_model, truth, seeds[i, t]) for t in range(n_trials)]
            assert sweep.max_depths[i] == np.mean([d.max() for d in depths])
            assert sweep.mean_depths[i] == np.mean([d.mean() for d in depths])
