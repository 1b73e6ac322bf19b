import dataclasses
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

import phototact as pt
from phototact import cli, defaults, phantom
from phototact.imaging import hsv_to_rgb_real, quantize_channels
from phototact.phantom import (
    STREAM_RENDER,
    DatasetSpec,
    PhantomConfig,
    contact_solve,
    dataset_presses,
    deformed_hsv,
    reading_pair,
    render_reading,
    rng_stream,
    sphere_press_truth,
    spherical_cap_volume,
    stiffness_field,
)


def accepted(width, height, scale):
    try:
        pt.SensorGeometry(width=width, height=height, mm_per_pixel=scale)
    except ValueError:
        return False
    return True


def largest_scale(width, height):
    """The largest scale that the geometry accepts at ``width`` x ``height``, found by bisection on the constructor.

    Past the disc's smallest scale, acceptance only ends: where the disc loses its last pixel center, or where the
    frame's squared extent stops being a finite float.
    """
    lo = 2.0 * pt.SENSING_RADIUS_MM / (min(width, height) - 1)
    hi = sys.float_info.max
    assert accepted(width, height, lo) and not accepted(width, height, hi)
    while math.nextafter(lo, hi) < hi:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else lo + (hi - lo) / 2.0
        lo, hi = (mid, hi) if accepted(width, height, mid) else (lo, mid)
    return lo


def oracle_peak_depth(cfg, geom, factor=4):
    """Independent dense-quadrature evaluation of the closed-form field."""
    hi = pt.SensorGeometry(width=geom.width * factor, height=geom.height * factor,
                           mm_per_pixel=geom.mm_per_pixel / factor)
    k = stiffness_field(cfg, hi)
    mask = hi.disc_mask
    integral = k[mask].sum() * hi.mm_per_pixel**2
    displacement = cfg.force_n / integral
    return min(k[mask].max() * displacement / defaults.MEMBRANE_STIFFNESS, pt.MAX_DEPTH_MM)


class TestStiffnessField:
    def test_no_tumor_uniform(self, small_geometry):
        cfg = PhantomConfig(tumor_present=False)
        k = stiffness_field(cfg, small_geometry)
        assert np.all(k == defaults.TISSUE_STIFFNESS)

    def test_peak_at_tumor_projection(self):
        geom = pt.SensorGeometry(width=101, height=81, mm_per_pixel=0.1)  # centers on exact pixels
        cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
        k = stiffness_field(cfg, geom)
        row, col = np.unravel_index(np.argmax(k), k.shape)
        gx, gy = geom.coords_mm
        assert gx[row, col] == 1.0
        assert gy[row, col] == -0.5

    def test_shallower_burial_boosts_more(self, small_geometry):
        shallow = stiffness_field(
            PhantomConfig(tumor_present=True, ball_diameter_mm=10.0, burial_depth_mm=1.0), small_geometry
        )
        deep = stiffness_field(
            PhantomConfig(tumor_present=True, ball_diameter_mm=10.0, burial_depth_mm=7.0), small_geometry
        )
        assert shallow.max() > deep.max()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="diameter"):
            PhantomConfig(tumor_present=True, ball_diameter_mm=12.0)
        with pytest.raises(ValueError, match="burial"):
            PhantomConfig(tumor_present=True, burial_depth_mm=0.5)
        with pytest.raises(ValueError, match="mass"):
            PhantomConfig(tumor_present=False, applied_mass_g=0.0)


class TestContactSolve:
    def test_uniform_field_algebra(self, small_geometry):
        """Pressure is depth times membrane stiffness while nothing clamps: force/area in the disc, zero outside."""
        cfg = PhantomConfig(tumor_present=False, applied_mass_g=1000.0)
        dmap = contact_solve(cfg, small_geometry)
        pressure = dmap.depths.astype(np.float64) * defaults.MEMBRANE_STIFFNESS
        mask = small_geometry.disc_mask
        disc_area = mask.sum() * small_geometry.mm_per_pixel**2
        assert np.all(dmap.depths[mask] < pt.MAX_DEPTH_MM)
        assert np.allclose(pressure[mask], cfg.force_n / disc_area)
        assert np.allclose(dmap.depths[mask], cfg.force_n / (disc_area * defaults.MEMBRANE_STIFFNESS), atol=1e-7)
        assert np.all(pressure[~mask] == 0.0)

    def test_force_balance(self, small_geometry):
        for cfg in (
            PhantomConfig(tumor_present=False, applied_mass_g=700.0),
            PhantomConfig(tumor_present=True, ball_diameter_mm=8.0, burial_depth_mm=2.0),
        ):
            depths = contact_solve(cfg, small_geometry).depths[small_geometry.disc_mask]
            assert np.all(depths < pt.MAX_DEPTH_MM)  # no clamp, so depth times stiffness is the pressure
            integral = (depths.astype(np.float64) * defaults.MEMBRANE_STIFFNESS).sum() * small_geometry.mm_per_pixel**2
            assert abs(integral - cfg.force_n) <= 1e-3 * cfg.force_n

    def test_doubling_mass_doubles_depth(self, small_geometry):
        base = PhantomConfig(tumor_present=True, applied_mass_g=100.0)  # small: nothing clamps
        double = PhantomConfig(tumor_present=True, applied_mass_g=200.0)
        d1 = contact_solve(base, small_geometry).depths.astype(np.float64)
        d2 = contact_solve(double, small_geometry).depths.astype(np.float64)
        assert np.allclose(d2, 2.0 * d1, atol=1e-7)

    def test_reference_peak_against_dense_quadrature(self, geometry):
        cfg = PhantomConfig(tumor_present=True, ball_diameter_mm=6.0, burial_depth_mm=3.0, applied_mass_g=1000.0)
        sol = contact_solve(cfg, geometry)
        peak = float(sol.depths[geometry.disc_mask].max())
        assert peak == pytest.approx(0.3937202, rel=1e-3)  # frozen from the 4x oracle
        assert peak == pytest.approx(oracle_peak_depth(cfg, geometry), rel=1e-3)

    def test_monotone_in_mass(self, small_geometry):
        masses = [500.0, 1000.0, 2000.0, 8000.0]
        prev = None
        for mass in masses:
            cfg = PhantomConfig(tumor_present=True, applied_mass_g=mass)
            depths = contact_solve(cfg, small_geometry).depths
            if prev is not None:
                assert np.all(depths >= prev)
            prev = depths

    def test_rotation_symmetry_centered_tumor(self, small_geometry):
        cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(0.0, 0.0))
        depths = contact_solve(cfg, small_geometry).depths.astype(np.float64)
        rotated = depths[::-1, ::-1]
        assert np.abs(depths - rotated).max() <= 1e-9

    def test_clamp_never_exceeded(self, small_geometry):
        cfg = PhantomConfig(tumor_present=True, applied_mass_g=50000.0)
        sol = contact_solve(cfg, small_geometry)
        assert sol.depths.shape == (small_geometry.height, small_geometry.width)
        assert np.array_equal(sol.mask, small_geometry.disc_mask)
        assert sol.depths.max() <= pt.MAX_DEPTH_MM

    def test_tumor_raises_depth_spread(self, small_geometry):
        with_tumor = contact_solve(PhantomConfig(tumor_present=True), small_geometry)
        without = contact_solve(PhantomConfig(tumor_present=False), small_geometry)
        mask = small_geometry.disc_mask
        assert with_tumor.depths[mask].std() > without.depths[mask].std()

    @pytest.mark.parametrize("width, height", [(101, 81), (321, 241)])
    def test_foundation_sum_cannot_overflow(self, width, height):
        """The largest scale the geometry accepts sums the foundation finitely.

        Every k is at most ``TISSUE_STIFFNESS + TUMOR_STIFFNESS_BOOST`` and the
        geometry keeps the frame's squared extent finite, so no input overflows
        the sum. The sizes are odd, since at this scale only the center pixel's
        center lies in the disc, and an image with an even side has none there.
        """
        scale = largest_scale(width, height)
        with pytest.raises(ValueError, match="squared extent"):
            pt.SensorGeometry(width=width, height=height, mm_per_pixel=2.0 * scale)
        geom = pt.SensorGeometry(width=width, height=height, mm_per_pixel=scale)
        with np.errstate(over="raise"):
            for tumor in (False, True):
                depths = contact_solve(PhantomConfig(tumor_present=tumor), geom).depths
                assert np.all(np.isfinite(depths))

    @pytest.mark.parametrize("width, height", [(3, 3), (4, 4), (5, 4), (101, 81)])
    def test_extreme_scales_give_finite_depths(self, width, height):
        """At the smallest scale whose disc fits, 1.37 times it and the largest accepted scale, the foundation
        integral is finite and positive, so the depths are finite with and without a tumor.

        The disc's pixels cover at least 6.1 mm^2 at any scale and at most the
        frame's squared extent; the exp of the Gaussian kernel underflows far
        from the inclusion, which is benign, so underflow is left unraised.
        """
        smallest = 2.0 * pt.SENSING_RADIUS_MM / (min(width, height) - 1)
        for scale in (smallest, 1.37 * smallest, largest_scale(width, height)):
            geom = pt.SensorGeometry(width=width, height=height, mm_per_pixel=scale)
            assert geom.disc_pixel_count * scale * scale >= pt.SENSING_RADIUS_MM**2 / 2.0
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                for tumor in (False, True):
                    depths = contact_solve(PhantomConfig(tumor_present=tumor), geom).depths
                    assert np.all(np.isfinite(depths))


class TestSpherePress:
    def test_center_depth(self, small_geometry):
        truth = sphere_press_truth(0.3, small_geometry)
        mid = truth.depths[small_geometry.height // 2, small_geometry.width // 2]
        # grid center sits half a pixel off the geometric center
        assert mid == pytest.approx(0.3, abs=1e-3)

    def test_profile_formula(self):
        # direct evaluation at r = 1 mm: 0.3 - 3 + sqrt(8)
        geom = pt.SensorGeometry(width=101, height=81, mm_per_pixel=0.1)  # has pixels at exactly r=1
        gx, gy = geom.coords_mm
        truth = sphere_press_truth(0.3, geom).depths.astype(np.float64)
        r = np.sqrt(gx**2 + gy**2)
        sel = np.isclose(r, 1.0, atol=1e-9)
        assert sel.any()
        assert np.allclose(truth[sel], 0.1284271247, atol=1e-7)

    def test_zero_outside_contact_radius(self, small_geometry):
        delta, radius = 0.3, defaults.CALIBRATION_SPHERE_RADIUS_MM
        truth = sphere_press_truth(delta, small_geometry).depths
        gx, gy = small_geometry.coords_mm
        contact_radius = math.sqrt(radius**2 - (radius - delta) ** 2)
        outside = gx**2 + gy**2 > contact_radius**2 * (1 + 1e-12)
        assert np.all(truth[outside] == 0.0)

    def test_depth_validation(self, small_geometry):
        with pytest.raises(ValueError):
            sphere_press_truth(math.nan, small_geometry)
        with pytest.raises(ValueError):
            sphere_press_truth(0.6, small_geometry)  # deeper than full scale
        with pytest.raises(ValueError):
            sphere_press_truth(0.0, small_geometry)

    def test_cap_volume_matches_quadrature(self, small_geometry):
        profile = pt.phantom.spherical_cap_profile(0.4, 2.0, small_geometry)
        quad = profile.sum() * small_geometry.mm_per_pixel**2
        assert quad == pytest.approx(spherical_cap_volume(0.4, 2.0), rel=2e-3)


def uncached_clean(dmap, membrane):
    """Reference noise-free render: deformed HSV -> real RGB over the full frame."""
    return hsv_to_rgb_real(*deformed_hsv(dmap, membrane))


def uncached_render(dmap, membrane, seed):
    """Reference render: :func:`uncached_clean` -> full-frame Philox speckle and noise -> 8 bits."""
    real = uncached_clean(dmap, membrane)
    noise = rng_stream(seed, STREAM_RENDER).standard_normal(real.shape[:2] + (4,))
    speckle = 1.0 + membrane.speckle_amplitude * noise[..., 0]
    noisy = real * speckle[..., None] + membrane.noise_std * noise[..., 1:4]
    return np.floor(np.clip(noisy, 0.0, 255.0) + 0.5).astype(np.uint8)


class TestRenderReading:
    @pytest.mark.parametrize("seed", [0, 5, 2**62])
    def test_matches_uncached_render_bit_for_bit(self, small_geometry, small_membrane, seed):
        geom = small_geometry
        cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
        everywhere = np.full((geom.height, geom.width), 0.2, dtype=np.float32)  # non-zero outside the disc too
        signed_zeros = sphere_press_truth(0.3, geom).depths.copy()
        signed_zeros[signed_zeros == 0.0] = -0.0
        signed_zeros[0, :] = 0.3  # outside the disc
        maps = (
            geom.zero_map(),
            sphere_press_truth(0.3, geom),
            contact_solve(cfg, geom),
            pt.DeformationMap(everywhere, geom.disc_mask),
            pt.DeformationMap(signed_zeros, geom.disc_mask),
            pt.DeformationMap(np.full_like(everywhere, -0.0), geom.disc_mask),
        )
        assert np.signbit(maps[4].depths).any() and np.signbit(maps[5].depths).all()
        for dmap in maps:
            rendered = render_reading(dmap, small_membrane, seed)
            assert np.array_equal(rendered.pixels, uncached_render(dmap, small_membrane, seed))

    @pytest.mark.parametrize("seed", [0, 2**62])
    def test_blocked_noise_is_one_fill(self, geometry, membrane, seed):
        """At 320x240 the noise is drawn in ten blocks, which continue one Philox fill: the full frame equals the
        one-fill reference, and the disc captures equal its disc."""
        assert geometry.width * geometry.height > 9 * phantom._NOISE_BLOCK_PX
        maps = press_maps(geometry)
        expected = [uncached_render(dmap, membrane, seed) for dmap in maps]
        for dmap, reference in zip(maps, expected):
            assert np.array_equal(render_reading(dmap, membrane, seed).pixels, reference)
        mask = geometry.disc_mask
        captured = pt.disc_captures([(maps, [[(seed, seed)]] * len(maps))], membrane, geometry)
        for (_, ref, contact), reference in zip(captured, expected, strict=True):
            assert np.array_equal(ref, expected[0][mask])  # maps[0] is the zero map
            assert np.array_equal(contact, reference[mask])

    def test_rest_render_cached_and_read_only(self, small_geometry, monkeypatch):
        membrane = pt.default_membrane(small_geometry)
        rest = membrane.rest_rgb
        assert membrane.rest_rgb is rest
        assert not rest.flags.writeable
        with pytest.raises(ValueError):
            rest[0, 0, 0] = 0.0
        expected = uncached_render(small_geometry.zero_map(), membrane, 4)

        def no_render(*args):
            raise AssertionError("the zero map must reuse the cached rest render")

        monkeypatch.setattr(pt.phantom, "_shifted_hsv", no_render)
        assert np.array_equal(render_reading(small_geometry.zero_map(), membrane, 4).pixels, expected)

    def test_zero_map_dimension_mismatch(self, small_geometry, membrane):
        with pytest.raises(ValueError, match="does not match"):
            render_reading(small_geometry.zero_map(), membrane, seed=0)

    def test_noise_free_zero_deformation_is_baseline(self, small_geometry):
        membrane = dataclasses.replace(pt.default_membrane(small_geometry), noise_std=0.0, speckle_amplitude=0.0)
        img = render_reading(small_geometry.zero_map(), membrane, seed=5)
        base = membrane.baseline
        assert np.array_equal(img.pixels, quantize_channels(hsv_to_rgb_real(base[..., 0], base[..., 1], base[..., 2])))

    def test_same_seed_bit_identical(self, small_geometry, small_membrane):
        dmap = sphere_press_truth(0.25, small_geometry)
        a = render_reading(dmap, small_membrane, seed=17)
        b = render_reading(dmap, small_membrane, seed=17)
        assert np.array_equal(a.pixels, b.pixels)
        c = render_reading(dmap, small_membrane, seed=18)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_uniform_press_shifts_hue_exactly(self, small_geometry):
        membrane = dataclasses.replace(pt.default_membrane(small_geometry), noise_std=0.0, speckle_amplitude=0.0)
        depths = np.full((small_geometry.height, small_geometry.width), 0.2, dtype=np.float32)
        dmap = pt.DeformationMap(depths, small_geometry.disc_mask)
        rendered = render_reading(dmap, membrane, seed=0)
        base = membrane.baseline
        hue = np.mod(base[..., 0] + 0.2 * defaults.GAIN_H_DEG_PER_MM, 360.0)
        assert np.all(hue < 360.0)
        sat = np.clip(base[..., 1] + 0.2 * defaults.GAIN_S_PER_MM, 0.0, 1.0)
        val = np.clip(base[..., 2] + 0.2 * defaults.GAIN_V_PER_MM, 0.0, 1.0)
        expected = quantize_channels(hsv_to_rgb_real(hue, sat, val))
        assert np.array_equal(rendered.pixels, expected)

    def test_dimension_mismatch(self, small_geometry, membrane):
        with pytest.raises(ValueError, match="does not match"):
            deformed_hsv(small_geometry.zero_map(), membrane)


def press_maps(geom):
    """A zero map, a centered sphere press and an off-center phantom contact, all on ``geom``."""
    cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
    return (geom.zero_map(), sphere_press_truth(0.4, geom), contact_solve(cfg, geom))


def bottom_row_mask(geom):
    """A mask whose last row is the frame's last row."""
    mask = np.zeros((geom.height, geom.width), dtype=bool)
    mask[-1, ::3] = True
    mask[geom.height // 2, 1] = True
    return mask


class TestDiscPixels:
    """The disc path computes exactly the masked pixels of the full-frame path."""

    @pytest.mark.parametrize("which", ["geometry", "small_geometry"])
    def test_clean_pixels_match_clean_rgb(self, request, which):
        geom = request.getfixturevalue(which)
        membrane = pt.default_membrane(geom)
        full = np.ones((geom.height, geom.width), dtype=bool)
        for dmap in press_maps(geom):
            for mask in (geom.disc_mask, bottom_row_mask(geom), full):
                clean = pt.clean_pixels(dmap, membrane, np.flatnonzero(mask))
                assert np.array_equal(clean, uncached_clean(dmap, membrane)[mask])

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**62 - 1])
    @pytest.mark.parametrize("which", ["geometry", "small_geometry"])
    def test_capture_pixels_match_render_reading(self, request, which, seed):
        """The disc captures, and the noise worker's body at any increasing index, give the masked pixels of the
        full-frame render."""
        geom = request.getfixturevalue(which)
        membrane = pt.default_membrane(geom)
        full = np.ones((geom.height, geom.width), dtype=bool)
        maps = press_maps(geom)
        readings = [render_reading(dmap, membrane, seed).pixels for dmap in maps]
        for dmap, reading in zip(maps, readings):
            clean = uncached_clean(dmap, membrane)
            for mask in (bottom_row_mask(geom), full):
                captured = phantom._noisy_capture(clean[mask], membrane, seed, np.flatnonzero(mask))
                assert captured.dtype == np.uint8
                assert np.array_equal(captured, reading[mask])
        mask = geom.disc_mask
        captured = pt.disc_captures([(maps, [[(seed, seed)]] * len(maps))], membrane, geom)
        for (truth, ref, contact), dmap, reading in zip(captured, maps, readings, strict=True):
            assert truth is dmap
            assert ref.dtype == contact.dtype == np.uint8
            assert np.array_equal(ref, readings[0][mask])  # maps[0] is the zero map
            assert np.array_equal(contact, reading[mask])

    def test_noise_drawn_only_through_the_last_masked_row(self, small_geometry):
        rows = int(np.flatnonzero(small_geometry.disc_mask.any(axis=1))[-1]) + 1
        assert rows < small_geometry.height
        shape = (small_geometry.height, small_geometry.width, 4)
        for seed in [*range(200), 2**62 - 1, 2**64 - 1]:
            prefix = rng_stream(seed, STREAM_RENDER).standard_normal((rows,) + shape[1:])
            assert np.array_equal(prefix, rng_stream(seed, STREAM_RENDER).standard_normal(shape)[:rows])

    def test_empty_mask_captures_nothing(self, small_geometry, small_membrane):
        index = np.flatnonzero(np.zeros((small_geometry.height, small_geometry.width), dtype=bool))
        assert phantom._noisy_capture(np.empty((0, 3)), small_membrane, 3, index).shape == (0, 3)

    def test_dimension_mismatch(self, small_geometry, membrane):
        with pytest.raises(ValueError, match="does not match"):
            pt.clean_pixels(small_geometry.zero_map(), membrane, small_geometry.disc_index)


def wait_until(condition, timeout=10.0):
    """Poll ``condition`` until it holds; False if it still does not after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestNoiseWorker:
    """disc_captures makes the capture noise on one worker thread, one pair ahead, with the serial bytes."""

    @pytest.mark.parametrize("which", ["geometry", "small_geometry"])
    def test_disc_captures_equal_the_serial_captures(self, request, which):
        """The prefetched captures equal the disc of the full-frame render, made serially at each seed."""
        geom = request.getfixturevalue(which)
        membrane = pt.default_membrane(geom)
        truths = press_maps(geom)
        seed_pairs = [[(1, 2), (3, 4)], [(5, 6)], [(2**62 - 1, 0), (7, 7)]]
        mask = geom.disc_mask
        zero = geom.zero_map()
        serial = [(truth, render_reading(zero, membrane, ref_seed).pixels[mask],
                   render_reading(truth, membrane, contact_seed).pixels[mask])
                  for truth, pairs in zip(truths, seed_pairs) for ref_seed, contact_seed in pairs]
        prefetched = list(pt.disc_captures([(truths, seed_pairs)], membrane, geom))
        assert len(prefetched) == len(serial) == 5
        for (truth, ref, contact), (serial_truth, serial_ref, serial_contact) in zip(prefetched, serial):
            assert truth is serial_truth
            assert ref.dtype == contact.dtype == np.uint8
            assert np.array_equal(ref, serial_ref) and np.array_equal(contact, serial_contact)

    def test_disc_captures_run_at_most_one_pair_ahead(self, small_geometry, small_membrane, monkeypatch):
        made = []  # the seed of each capture's noise, as it is drawn
        body = phantom._noisy_capture

        def draw(clean, model, seed, index=None):
            made.append(seed)
            return body(clean, model, seed, index)

        monkeypatch.setattr(phantom, "_noisy_capture", draw)
        truth = sphere_press_truth(0.3, small_geometry)
        seed_pairs = [[(1, 2), (3, 4)], [(5, 6)], [(7, 8)]]
        stream = pt.disc_captures([([truth] * 3, seed_pairs)], small_membrane, small_geometry)
        assert made == []
        for consumed in range(1, 5):
            _, ref, contact = next(stream)
            made_by_now = min(2 * consumed + 2, 8)  # the pairs consumed and the one after them
            assert wait_until(lambda: len(made) >= made_by_now)
            time.sleep(0.05)  # room for a pair beyond the bound to start
            assert made == list(range(1, made_by_now + 1))
        mask = small_geometry.disc_mask
        assert np.array_equal(ref, render_reading(small_geometry.zero_map(), small_membrane, 7).pixels[mask])
        assert np.array_equal(contact, render_reading(truth, small_membrane, 8).pixels[mask])
        assert next(stream, None) is None

    def test_a_repeated_reference_seed_is_drawn_once(self, small_geometry, small_membrane, monkeypatch):
        """Consecutive pairs naming one reference seed share one draw; a seed that comes back is drawn again."""
        made = []
        body = phantom._noisy_capture

        def draw(clean, model, seed, index=None):
            made.append(seed)
            return body(clean, model, seed, index)

        monkeypatch.setattr(phantom, "_noisy_capture", draw)
        truth = sphere_press_truth(0.3, small_geometry)
        seed_pairs = [[(1, 2), (1, 4)], [(3, 6), (1, 8)]]
        captured = list(pt.disc_captures([([truth] * 2, seed_pairs)], small_membrane, small_geometry))
        assert made == [1, 2, 4, 3, 6, 1, 8]
        monkeypatch.undo()
        mask = small_geometry.disc_mask
        zero = small_geometry.zero_map()
        assert captured[1][1] is captured[0][1]
        for (_, ref, contact), (ref_seed, contact_seed) in zip(captured, [p for pairs in seed_pairs for p in pairs]):
            assert np.array_equal(ref, render_reading(zero, small_membrane, ref_seed).pixels[mask])
            assert np.array_equal(contact, render_reading(truth, small_membrane, contact_seed).pixels[mask])

    def test_captures_are_yielded_read_only(self, small_geometry, small_membrane):
        """A consumer cannot change a shared reference under a later pair."""
        truth = sphere_press_truth(0.3, small_geometry)
        (_, ref, contact), (_, later_ref, _) = pt.disc_captures([([truth], [[(1, 2), (1, 4)]])], small_membrane,
                                                                small_geometry)
        assert later_ref is ref
        for capture in (ref, contact):
            with pytest.raises(ValueError, match="read-only"):
                capture[0, 0] = 0

    def test_stopped_streams_leave_no_thread(self, small_geometry, small_membrane):
        before = threading.enumerate()
        truth = sphere_press_truth(0.3, small_geometry)
        stream = pt.disc_captures([([truth] * 3, [[(1, 2)], [(3, 4)], [(5, 6)]])], small_membrane, small_geometry)
        next(stream)
        assert len(threading.enumerate()) == len(before) + 1
        stream.close()  # a consumer that stops early
        assert threading.enumerate() == before
        with pytest.raises(RuntimeError, match="consumer"):
            for _ in pt.disc_captures([([truth] * 3, [[(1, 2)], [(3, 4)], [(5, 6)]])], small_membrane, small_geometry):
                raise RuntimeError("consumer")
        assert threading.enumerate() == before

    @pytest.mark.parametrize("truths, rows", [(3, 2), (2, 3)], ids=["more-truths", "more-seed-rows"])
    def test_a_misaligned_phase_raises_and_leaves_no_thread(self, small_geometry, small_membrane, truths, rows):
        """A phase whose truths and seed rows differ in number is refused, not cut to the shorter of the two."""
        before = threading.enumerate()
        truth = sphere_press_truth(0.3, small_geometry)
        phases = [([truth], [[(7, 8)]]), ([truth] * truths, [[(1, 2)]] * rows)]
        captured = []
        with pytest.raises(ValueError, match="argument 2 is (shorter|longer) than argument 1"):
            captured.extend(pt.disc_captures(phases, small_membrane, small_geometry))
        assert len(captured) == 2  # the first phase's pair and the second phase's first pair come before the error
        assert threading.enumerate() == before

    def test_a_failed_draw_is_raised_and_leaves_no_thread(self, small_geometry, small_membrane, monkeypatch):
        before = threading.enumerate()
        body = phantom._noisy_capture

        def draw(clean, model, seed, index=None):
            if seed == 4:
                raise MemoryError("draw")
            return body(clean, model, seed, index)

        monkeypatch.setattr(phantom, "_noisy_capture", draw)
        truth = sphere_press_truth(0.3, small_geometry)
        stream = pt.disc_captures([([truth] * 3, [[(1, 2)], [(3, 4)], [(5, 6)]])], small_membrane, small_geometry)
        assert next(stream)[0] is truth
        with pytest.raises(MemoryError, match="draw"):
            next(stream)
        assert threading.enumerate() == before
        assert next(stream, None) is None


class TestReadingPair:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    def test_reading_pair_renders_at_twice_the_seed_and_the_next(self, small_geometry, small_membrane, seed):
        dmap = sphere_press_truth(0.3, small_geometry)
        ref, contact = reading_pair(dmap, small_membrane, seed)
        assert np.array_equal(ref.pixels, render_reading(small_geometry.zero_map(), small_membrane, 2 * seed).pixels)
        assert np.array_equal(contact.pixels, render_reading(dmap, small_membrane, 2 * seed + 1).pixels)


class TestPhantomConfigFromDict:
    def test_absent_keys_take_the_field_defaults(self):
        assert PhantomConfig.from_dict({"tumor_present": True}) == PhantomConfig(tumor_present=True)
        cfg = PhantomConfig.from_dict({"tumor_present": False, "applied_mass_g": 1200, "lateral_offset_mm": [1, 2]})
        assert cfg == PhantomConfig(tumor_present=False, applied_mass_g=1200.0, lateral_offset_mm=(1.0, 2.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown phantom config keys: ball_diameter"):
            PhantomConfig.from_dict({"tumor_present": True, "ball_diameter": 6.0})

    def test_missing_tumor_flag_rejected(self):
        with pytest.raises(ValueError, match="needs 'tumor_present'"):
            PhantomConfig.from_dict({"ball_diameter_mm": 6.0})

    @pytest.mark.parametrize(
        "data",
        [[], {"tumor_present": True, "lateral_offset_mm": [1.0]}, {"tumor_present": True, "lateral_offset_mm": 1.0},
         {"tumor_present": True, "applied_mass_g": [1000.0]}],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(ValueError):
            PhantomConfig.from_dict(data)

    @pytest.mark.parametrize(
        "changes",
        [{"applied_mass_g": True}, {"ball_diameter_mm": "6"}, {"burial_depth_mm": None},
         {"lateral_offset_mm": ["1", 0.0]}, {"lateral_offset_mm": [0.0, False]}, {"lateral_offset_mm": "12"}],
    )
    def test_values_must_be_json_numbers(self, changes):
        with pytest.raises(ValueError, match=r"malformed phantom config: TypeError\(.expected a number, got "):
            PhantomConfig.from_dict({"tumor_present": True, **changes})

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
    def test_tumor_flag_must_be_a_json_boolean(self, flag):
        with pytest.raises(ValueError, match="tumor_present must be true or false"):
            PhantomConfig.from_dict({"tumor_present": flag})
        with pytest.raises(ValueError, match="tumor_present must be true or false"):
            PhantomConfig(tumor_present=flag)


class TestDatasetSpecFromDict:
    def test_roundtrip(self):
        spec = DatasetSpec(diameters_mm=(4.0,), presses_per_positive=2)
        assert DatasetSpec.from_dict(dataclasses.asdict(spec)) == spec

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"diameter": 4.0}, "unknown dataset spec keys: diameter"),
            ({"diameters_mm": 5}, "malformed dataset spec"),
            ({"diameters_mm": [[4.0]]}, "malformed dataset spec"),
            ({"presses_per_positive": [2]}, "malformed dataset spec"),
            ({"presses_per_positive": 2.7}, "malformed dataset spec: .*press counts must be integers"),
            ({"presses_per_positive": 2.0}, "malformed dataset spec: .*press counts must be integers"),
            ({"presses_per_positive": True}, "malformed dataset spec: .*press counts must be integers"),
            ({"presses_per_negative_mass": "35"}, "malformed dataset spec: .*press counts must be integers"),
            ({"presses_per_negative_mass": False}, "malformed dataset spec: .*press counts must be integers"),
            ({"positive_mass_g": "1000"}, "malformed dataset spec: .*expected a number"),
            ({"positive_mass_g": True}, "malformed dataset spec: .*expected a number"),
            ({"burial_depths_mm": [True]}, "malformed dataset spec: .*expected a number"),
            ({"diameters_mm": ["4"]}, "malformed dataset spec: .*expected a number"),
            ({"negative_masses_g": [1000.0, None]}, "malformed dataset spec: .*expected a number"),
        ],
    )
    def test_malformed_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            DatasetSpec.from_dict({**dataclasses.asdict(DatasetSpec()), **changes})

    @pytest.mark.parametrize("count", [2.7, 2.0, True])
    def test_constructor_rejects_non_integer_counts(self, count):
        with pytest.raises(TypeError, match="press counts must be integers"):
            DatasetSpec(presses_per_negative_mass=count)
        assert DatasetSpec(presses_per_positive=np.int64(2)).n_positive == 70

    @pytest.mark.parametrize("data", [[], "spec", None, 3])
    def test_non_object_rejected(self, data):
        with pytest.raises(ValueError, match="must be a JSON object"):
            DatasetSpec.from_dict(data)

    def test_missing_key_rejected(self):
        data = dataclasses.asdict(DatasetSpec())
        del data["positive_mass_g"]
        with pytest.raises(ValueError, match="dataset spec needs 'positive_mass_g'"):
            DatasetSpec.from_dict(data)

    def test_integer_spelled_entries_write_the_float_manifest(self, tmp_path):
        """The ``dataset`` verb writes the same manifest.csv for a spec file that spells its sizes as integers."""
        def rows(number):
            spec = tmp_path / f"{number.__name__}.json"
            spec.write_text(json.dumps({"diameters_mm": [number(4)], "burial_depths_mm": [number(2)],
                                        "presses_per_positive": 1, "positive_mass_g": number(1000),
                                        "negative_masses_g": [number(1000)], "presses_per_negative_mass": 1}))
            out = tmp_path / number.__name__
            argv = ["dataset", "--width", "100", "--height", "80", "--mm-per-pixel", "0.1", "--spec", str(spec),
                    "--seed", "3", "--out", str(out)]
            assert cli.dispatch(argv) == 0
            return (out / "manifest.csv").read_text()

        integer_spelled = rows(int)
        assert integer_spelled == rows(float)
        assert "pos_d4_b2_p0,1,4.0,2.0,1000.0," in integer_spelled


class TestDataset:
    def test_default_spec_counts(self):
        spec = DatasetSpec()
        assert spec.n_positive == 140
        assert spec.n_negative == 140

    def test_generated_counts_and_masses(self):
        spec = DatasetSpec(presses_per_positive=1, presses_per_negative_mass=2)
        presses = dataset_presses(spec, seed=3)
        positives = [cfg for _, label, cfg, _ in presses if label == 1]
        negatives = [cfg for _, label, cfg, _ in presses if label == -1]
        assert len(positives) == 35 and len(negatives) == 8
        assert all(cfg.applied_mass_g == 1000.0 for cfg in positives)
        assert sorted({cfg.applied_mass_g for cfg in negatives}) == [1000.0, 1100.0, 1200.0, 1300.0]

    def test_full_protocol_counts(self):
        presses = dataset_presses(DatasetSpec(), seed=3)
        assert sum(1 for _, label, _, _ in presses if label == 1) == 140
        assert sum(1 for _, label, _, _ in presses if label == -1) == 140
        diam_depth = {(cfg.ball_diameter_mm, cfg.burial_depth_mm) for _, label, cfg, _ in presses if label == 1}
        assert len(diam_depth) == 35

    def test_deterministic_bytes(self, small_geometry, small_membrane):
        spec = DatasetSpec(diameters_mm=(4.0,), burial_depths_mm=(2.0,), presses_per_positive=2,
                           negative_masses_g=(1000.0,), presses_per_negative_mass=2)

        def rendered(seed):
            """(sample_id, reference, contact, truth) of each press of ``spec`` at dataset seed ``seed``."""
            presses = []
            for sample_id, _, cfg, press_seed in dataset_presses(spec, seed):
                truth = contact_solve(cfg, small_geometry)
                presses.append((sample_id, *reading_pair(truth, small_membrane, press_seed), truth))
            return presses

        first, second = rendered(11), rendered(11)
        for (id_a, ref_a, contact_a, truth_a), (id_b, ref_b, contact_b, truth_b) in zip(first, second):
            assert id_a == id_b
            assert np.array_equal(ref_a.pixels, ref_b.pixels)
            assert np.array_equal(contact_a.pixels, contact_b.pixels)
            assert np.array_equal(truth_a.depths, truth_b.depths)
        third = rendered(12)
        assert not np.array_equal(first[0][1].pixels, third[0][1].pixels)

    def test_tumor_sigma_exceeds_matched_negative(self, small_geometry):
        spec = DatasetSpec(diameters_mm=(6.0,), burial_depths_mm=(3.0,), presses_per_positive=1,
                           negative_masses_g=(1000.0,), presses_per_negative_mass=1)
        truths = {label: contact_solve(cfg, small_geometry)
                  for _, label, cfg, _ in dataset_presses(spec, seed=4)}
        mask = small_geometry.disc_mask
        sigma_pos = truths[1].depths[mask].std()
        sigma_neg = truths[-1].depths[mask].std()
        assert sigma_pos > sigma_neg

    @pytest.mark.parametrize("diameters", [(4.0, 4.0000001), (4.0, 6.0, 4.0)])
    def test_repeated_sample_id_rejected(self, diameters):
        spec = DatasetSpec(diameters_mm=diameters, burial_depths_mm=(2.0,), presses_per_positive=1)
        with pytest.raises(ValueError, match="two samples the id pos_d4_b2_p0$"):
            dataset_presses(spec, seed=3)

    def test_grams_to_newtons(self):
        assert PhantomConfig(tumor_present=False, applied_mass_g=1000.0).force_n == pytest.approx(9.80665)
