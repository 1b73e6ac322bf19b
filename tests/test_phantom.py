import dataclasses
import json
import math
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
    deformed_hsv,
    generate_phantom_dataset,
    reading_pair,
    render_reading,
    rng_stream,
    sphere_press_truth,
    spherical_cap_volume,
    stiffness_field,
)


def oracle_peak_depth(cfg, geom, membrane_stiffness, factor=4):
    """Independent dense-quadrature evaluation of the closed-form field."""
    hi = pt.SensorGeometry(
        width=geom.width * factor,
        height=geom.height * factor,
        sensing_radius_mm=geom.sensing_radius_mm,
        mm_per_pixel=geom.mm_per_pixel / factor,
    )
    k = stiffness_field(cfg, hi)
    mask = hi.disc_mask
    integral = k[mask].sum() * hi.mm_per_pixel**2
    displacement = cfg.force_n / integral
    return min(k[mask].max() * displacement / membrane_stiffness, pt.MAX_DEPTH_MM)


class TestStiffnessField:
    def test_no_tumor_uniform(self, small_geometry):
        cfg = PhantomConfig(tumor_present=False)
        k = stiffness_field(cfg, small_geometry)
        assert np.all(k == cfg.tissue_stiffness)

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
        with pytest.raises(ValueError, match="stiffness"):
            PhantomConfig(tumor_present=False, tissue_stiffness=0.0)
        with pytest.raises(ValueError, match="mass"):
            PhantomConfig(tumor_present=False, applied_mass_g=0.0)


class TestContactSolve:
    def test_uniform_field_algebra(self, small_geometry, small_membrane):
        """Pressure is depth times membrane stiffness while nothing clamps: force/area in the disc, zero outside."""
        cfg = PhantomConfig(tumor_present=False, applied_mass_g=1000.0)
        dmap = contact_solve(cfg, small_geometry, small_membrane)
        pressure = dmap.depths.astype(np.float64) * small_membrane.stiffness
        mask = small_geometry.disc_mask
        disc_area = mask.sum() * small_geometry.mm_per_pixel**2
        assert np.all(dmap.depths[mask] < pt.MAX_DEPTH_MM)
        assert np.allclose(pressure[mask], cfg.force_n / disc_area)
        assert np.allclose(dmap.depths[mask], cfg.force_n / (disc_area * small_membrane.stiffness), atol=1e-7)
        assert np.all(pressure[~mask] == 0.0)

    def test_force_balance(self, small_geometry, small_membrane):
        for cfg in (
            PhantomConfig(tumor_present=False, applied_mass_g=700.0),
            PhantomConfig(tumor_present=True, ball_diameter_mm=8.0, burial_depth_mm=2.0),
        ):
            depths = contact_solve(cfg, small_geometry, small_membrane).depths[small_geometry.disc_mask]
            assert np.all(depths < pt.MAX_DEPTH_MM)  # no clamp, so depth times stiffness is the pressure
            integral = (depths.astype(np.float64) * small_membrane.stiffness).sum() * small_geometry.mm_per_pixel**2
            assert abs(integral - cfg.force_n) <= 1e-3 * cfg.force_n

    def test_doubling_mass_doubles_depth(self, small_geometry, small_membrane):
        base = PhantomConfig(tumor_present=True, applied_mass_g=100.0)  # small: nothing clamps
        double = PhantomConfig(tumor_present=True, applied_mass_g=200.0)
        d1 = contact_solve(base, small_geometry, small_membrane).depths.astype(np.float64)
        d2 = contact_solve(double, small_geometry, small_membrane).depths.astype(np.float64)
        assert np.allclose(d2, 2.0 * d1, atol=1e-7)

    def test_reference_peak_against_dense_quadrature(self, geometry, membrane):
        cfg = PhantomConfig(tumor_present=True, ball_diameter_mm=6.0, burial_depth_mm=3.0, applied_mass_g=1000.0)
        sol = contact_solve(cfg, geometry, membrane)
        peak = float(sol.depths[geometry.disc_mask].max())
        assert peak == pytest.approx(0.3937202, rel=1e-3)  # frozen from the 4x oracle
        assert peak == pytest.approx(oracle_peak_depth(cfg, geometry, membrane.stiffness), rel=1e-3)

    def test_monotone_in_mass(self, small_geometry, small_membrane):
        masses = [500.0, 1000.0, 2000.0, 8000.0]
        prev = None
        for mass in masses:
            cfg = PhantomConfig(tumor_present=True, applied_mass_g=mass)
            depths = contact_solve(cfg, small_geometry, small_membrane).depths
            if prev is not None:
                assert np.all(depths >= prev)
            prev = depths

    def test_rotation_symmetry_centered_tumor(self, small_geometry, small_membrane):
        cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(0.0, 0.0))
        depths = contact_solve(cfg, small_geometry, small_membrane).depths.astype(np.float64)
        rotated = depths[::-1, ::-1]
        assert np.abs(depths - rotated).max() <= 1e-9

    def test_clamp_never_exceeded(self, small_geometry, small_membrane):
        cfg = PhantomConfig(tumor_present=True, applied_mass_g=50000.0)
        sol = contact_solve(cfg, small_geometry, small_membrane)
        assert sol.depths.shape == (small_geometry.height, small_geometry.width)
        assert np.array_equal(sol.mask, small_geometry.disc_mask)
        assert sol.depths.max() <= pt.MAX_DEPTH_MM

    def test_tumor_raises_depth_spread(self, small_geometry, small_membrane):
        with_tumor = contact_solve(PhantomConfig(tumor_present=True), small_geometry, small_membrane)
        without = contact_solve(PhantomConfig(tumor_present=False), small_geometry, small_membrane)
        mask = small_geometry.disc_mask
        assert with_tumor.depths[mask].std() > without.depths[mask].std()


class TestSpherePress:
    def test_center_depth(self, small_geometry):
        truth = sphere_press_truth(0.3, 3.0, small_geometry)
        mid = truth.depths[small_geometry.height // 2, small_geometry.width // 2]
        # grid center sits half a pixel off the geometric center
        assert mid == pytest.approx(0.3, abs=1e-3)

    def test_profile_formula(self):
        # direct evaluation at r = 1 mm: 0.3 - 3 + sqrt(8)
        geom = pt.SensorGeometry(width=101, height=81, mm_per_pixel=0.1)  # has pixels at exactly r=1
        gx, gy = geom.coords_mm
        truth = sphere_press_truth(0.3, 3.0, geom).depths.astype(np.float64)
        r = np.sqrt(gx**2 + gy**2)
        sel = np.isclose(r, 1.0, atol=1e-9)
        assert sel.any()
        assert np.allclose(truth[sel], 0.1284271247, atol=1e-7)

    def test_zero_outside_contact_radius(self, small_geometry):
        delta, radius = 0.3, 3.0
        truth = sphere_press_truth(delta, radius, small_geometry).depths
        gx, gy = small_geometry.coords_mm
        contact_radius = math.sqrt(radius**2 - (radius - delta) ** 2)
        outside = gx**2 + gy**2 > contact_radius**2 * (1 + 1e-12)
        assert np.all(truth[outside] == 0.0)

    def test_depth_validation(self, small_geometry):
        with pytest.raises(ValueError):
            sphere_press_truth(3.5, 3.0, small_geometry)  # deeper than the sphere
        with pytest.raises(ValueError):
            sphere_press_truth(0.6, 3.0, small_geometry)  # deeper than full scale
        with pytest.raises(ValueError):
            sphere_press_truth(0.0, 3.0, small_geometry)

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
        signed_zeros = sphere_press_truth(0.3, 3.0, geom).depths.copy()
        signed_zeros[signed_zeros == 0.0] = -0.0
        signed_zeros[0, :] = 0.3  # outside the disc
        maps = (
            geom.zero_map(),
            sphere_press_truth(0.3, 3.0, geom),
            contact_solve(cfg, geom, small_membrane),
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
        maps = press_maps(geometry, membrane)
        expected = [uncached_render(dmap, membrane, seed) for dmap in maps]
        for dmap, reference in zip(maps, expected):
            assert np.array_equal(render_reading(dmap, membrane, seed).pixels, reference)
        mask = geometry.disc_mask
        captured = pt.disc_captures(maps, [[(seed, seed)]] * len(maps), membrane, geometry)
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
        membrane = pt.default_membrane(small_geometry, noise_std=0.0, speckle_amplitude=0.0)
        img = render_reading(small_geometry.zero_map(), membrane, seed=5)
        base = membrane.baseline
        assert np.array_equal(img.pixels, quantize_channels(hsv_to_rgb_real(base[..., 0], base[..., 1], base[..., 2])))

    def test_same_seed_bit_identical(self, small_geometry, small_membrane):
        dmap = sphere_press_truth(0.25, 3.0, small_geometry)
        a = render_reading(dmap, small_membrane, seed=17)
        b = render_reading(dmap, small_membrane, seed=17)
        assert np.array_equal(a.pixels, b.pixels)
        c = render_reading(dmap, small_membrane, seed=18)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_uniform_press_shifts_hue_exactly(self, small_geometry):
        membrane = pt.default_membrane(small_geometry, noise_std=0.0, speckle_amplitude=0.0)
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


def press_maps(geom, membrane):
    """A zero map, a centered sphere press and an off-center phantom contact, all on ``geom``."""
    cfg = PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0, -0.5))
    return (geom.zero_map(), sphere_press_truth(0.4, 3.0, geom), contact_solve(cfg, geom, membrane))


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
        for dmap in press_maps(geom, membrane):
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
        maps = press_maps(geom, membrane)
        readings = [render_reading(dmap, membrane, seed).pixels for dmap in maps]
        for dmap, reading in zip(maps, readings):
            clean = uncached_clean(dmap, membrane)
            for mask in (bottom_row_mask(geom), full):
                captured = phantom._noisy_capture(clean[mask], membrane, seed, np.flatnonzero(mask))
                assert captured.dtype == np.uint8
                assert np.array_equal(captured, reading[mask])
        mask = geom.disc_mask
        captured = pt.disc_captures(maps, [[(seed, seed)]] * len(maps), membrane, geom)
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
        truths = press_maps(geom, membrane)
        seed_pairs = [[(1, 2), (3, 4)], [(5, 6)], [(2**62 - 1, 0), (7, 7)]]
        mask = geom.disc_mask
        zero = geom.zero_map()
        serial = [(truth, render_reading(zero, membrane, ref_seed).pixels[mask],
                   render_reading(truth, membrane, contact_seed).pixels[mask])
                  for truth, pairs in zip(truths, seed_pairs) for ref_seed, contact_seed in pairs]
        prefetched = list(pt.disc_captures(truths, seed_pairs, membrane, geom))
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
        truth = sphere_press_truth(0.3, 2.0, small_geometry)
        seed_pairs = [[(1, 2), (3, 4)], [(5, 6)], [(7, 8)]]
        stream = pt.disc_captures([truth] * 3, seed_pairs, small_membrane, small_geometry)
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

    def test_a_lone_pair_is_drawn_without_a_thread(self, small_geometry, small_membrane):
        before = threading.enumerate()
        truth = sphere_press_truth(0.3, 2.0, small_geometry)
        stream = pt.disc_captures([truth], [[(1, 2)]], small_membrane, small_geometry)
        _, ref, contact = next(stream)
        assert threading.enumerate() == before
        mask = small_geometry.disc_mask
        assert np.array_equal(ref, render_reading(small_geometry.zero_map(), small_membrane, 1).pixels[mask])
        assert np.array_equal(contact, render_reading(truth, small_membrane, 2).pixels[mask])
        assert next(stream, None) is None

    def test_stopped_streams_leave_no_thread(self, small_geometry, small_membrane):
        before = threading.enumerate()
        truth = sphere_press_truth(0.3, 2.0, small_geometry)
        stream = pt.disc_captures([truth] * 3, [[(1, 2)], [(3, 4)], [(5, 6)]], small_membrane, small_geometry)
        next(stream)
        assert len(threading.enumerate()) == len(before) + 1
        stream.close()  # a consumer that stops early
        assert threading.enumerate() == before
        with pytest.raises(RuntimeError, match="consumer"):
            for _ in pt.disc_captures([truth] * 3, [[(1, 2)], [(3, 4)], [(5, 6)]], small_membrane, small_geometry):
                raise RuntimeError("consumer")
        assert threading.enumerate() == before

    def test_a_failed_draw_is_raised_and_leaves_no_thread(self, small_geometry, small_membrane, monkeypatch):
        before = threading.enumerate()
        body = phantom._noisy_capture

        def draw(clean, model, seed, index=None):
            if seed == 4:
                raise MemoryError("draw")
            return body(clean, model, seed, index)

        monkeypatch.setattr(phantom, "_noisy_capture", draw)
        truth = sphere_press_truth(0.3, 2.0, small_geometry)
        stream = pt.disc_captures([truth] * 3, [[(1, 2)], [(3, 4)], [(5, 6)]], small_membrane, small_geometry)
        assert next(stream)[0] is truth
        with pytest.raises(MemoryError, match="draw"):
            next(stream)
        assert threading.enumerate() == before
        assert next(stream, None) is None


class TestReadingPair:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    def test_reading_pair_renders_at_twice_the_seed_and_the_next(self, small_geometry, small_membrane, seed):
        dmap = sphere_press_truth(0.3, 3.0, small_geometry)
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

    def test_generated_counts_and_masses(self, small_geometry, small_membrane):
        spec = DatasetSpec(presses_per_positive=1, presses_per_negative_mass=2)
        samples = list(generate_phantom_dataset(spec, small_geometry, small_membrane, seed=3))
        positives = [s for s in samples if s.label == 1]
        negatives = [s for s in samples if s.label == -1]
        assert len(positives) == 35 and len(negatives) == 8
        assert all(s.config.applied_mass_g == 1000.0 for s in positives)
        assert sorted({s.config.applied_mass_g for s in negatives}) == [1000.0, 1100.0, 1200.0, 1300.0]

    def test_full_protocol_counts(self, small_geometry, small_membrane):
        samples = list(generate_phantom_dataset(DatasetSpec(), small_geometry, small_membrane, seed=3))
        assert sum(1 for s in samples if s.label == 1) == 140
        assert sum(1 for s in samples if s.label == -1) == 140
        diam_depth = {(s.config.ball_diameter_mm, s.config.burial_depth_mm) for s in samples if s.label == 1}
        assert len(diam_depth) == 35

    def test_deterministic_bytes(self, small_geometry, small_membrane):
        spec = DatasetSpec(diameters_mm=(4.0,), burial_depths_mm=(2.0,), presses_per_positive=2,
                           negative_masses_g=(1000.0,), presses_per_negative_mass=2)
        first = list(generate_phantom_dataset(spec, small_geometry, small_membrane, seed=11))
        second = list(generate_phantom_dataset(spec, small_geometry, small_membrane, seed=11))
        for a, b in zip(first, second):
            assert a.sample_id == b.sample_id
            assert np.array_equal(a.reading_ref.pixels, b.reading_ref.pixels)
            assert np.array_equal(a.reading_contact.pixels, b.reading_contact.pixels)
            assert np.array_equal(a.truth.depths, b.truth.depths)
        third = list(generate_phantom_dataset(spec, small_geometry, small_membrane, seed=12))
        assert not np.array_equal(first[0].reading_ref.pixels, third[0].reading_ref.pixels)

    def test_tumor_sigma_exceeds_matched_negative(self, small_geometry, small_membrane):
        spec = DatasetSpec(diameters_mm=(6.0,), burial_depths_mm=(3.0,), presses_per_positive=1,
                           negative_masses_g=(1000.0,), presses_per_negative_mass=1)
        samples = {s.label: s for s in generate_phantom_dataset(spec, small_geometry, small_membrane, seed=4)}
        mask = small_geometry.disc_mask
        sigma_pos = samples[1].truth.depths[mask].std()
        sigma_neg = samples[-1].truth.depths[mask].std()
        assert sigma_pos > sigma_neg

    @pytest.mark.parametrize("diameters", [(4.0, 4.0000001), (4.0, 6.0, 4.0)])
    def test_repeated_sample_id_rejected(self, small_geometry, small_membrane, diameters):
        spec = DatasetSpec(diameters_mm=diameters, burial_depths_mm=(2.0,), presses_per_positive=1)
        with pytest.raises(ValueError, match="two samples the id pos_d4_b2_p0$"):
            generate_phantom_dataset(spec, small_geometry, small_membrane, seed=3)

    def test_grams_to_newtons(self):
        assert PhantomConfig(tumor_present=False, applied_mass_g=1000.0).force_n == pytest.approx(9.80665)
