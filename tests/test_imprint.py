import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phototact as pt
from phototact import defaults
from phototact.imaging import RgbImage
from phototact.imprint import ImprintParams, augmented_imprint, color_delta
from phototact.phantom import deformed_hsv, membrane_baseline


def imprint_oracle(ref, contact, alpha, beta):
    """Scalar reference: clip in real arithmetic, then round half up."""
    out = np.zeros_like(ref.pixels)
    for row in range(ref.height):
        for col in range(ref.width):
            for ch in range(3):
                value = alpha * (float(contact.pixels[row, col, ch]) - float(ref.pixels[row, col, ch])) + beta
                value = min(max(value, 0.0), 255.0)
                out[row, col, ch] = int(np.floor(value + 0.5))
    return out


class TestAugmentedImprint:
    def test_zero_difference_gives_offset(self):
        img = RgbImage(np.full((3, 4, 3), 90, dtype=np.uint8))
        out = augmented_imprint(img, img, ImprintParams(alpha=5.0))
        assert np.all(out.pixels == 128)  # round(127.5) half-up

    def test_clip_upper(self):
        ref = RgbImage(np.full((1, 1, 3), 100, dtype=np.uint8))
        contact = RgbImage(np.full((1, 1, 3), 130, dtype=np.uint8))  # delta +30
        out = augmented_imprint(ref, contact, ImprintParams(alpha=5.0))
        assert np.all(out.pixels == 255)  # 5*30 + 127.5 = 277.5

    def test_clip_lower(self):
        ref = RgbImage(np.full((1, 1, 3), 100, dtype=np.uint8))
        contact = RgbImage(np.full((1, 1, 3), 60, dtype=np.uint8))  # delta -40
        out = augmented_imprint(ref, contact, ImprintParams(alpha=5.0))
        assert np.all(out.pixels == 0)  # -72.5

    @pytest.mark.parametrize("alpha", [1.0, 5.0, 10.0])
    def test_matches_oracle(self, alpha):
        rng = np.random.default_rng(int(alpha))
        ref = RgbImage(rng.integers(0, 256, size=(6, 5, 3)).astype(np.uint8))
        contact = RgbImage(rng.integers(0, 256, size=(6, 5, 3)).astype(np.uint8))
        out = augmented_imprint(ref, contact, ImprintParams(alpha=alpha))
        assert np.array_equal(out.pixels, imprint_oracle(ref, contact, alpha, 127.5))

    def test_translation_covariance(self):
        rng = np.random.default_rng(9)
        ref = rng.integers(0, 256, size=(4, 6, 3)).astype(np.uint8)
        contact = rng.integers(0, 256, size=(4, 6, 3)).astype(np.uint8)
        perm = rng.permutation(24)
        out = augmented_imprint(RgbImage(ref), RgbImage(contact), ImprintParams()).pixels.reshape(24, 3)
        out_perm = augmented_imprint(
            RgbImage(ref.reshape(24, 3)[perm].reshape(4, 6, 3)),
            RgbImage(contact.reshape(24, 3)[perm].reshape(4, 6, 3)),
            ImprintParams(),
        ).pixels.reshape(24, 3)
        assert np.array_equal(out[perm], out_perm)

    def test_mean_identity_without_clipping(self):
        # alpha=1 and differences in [-60, 60] keep everything inside [67.5, 187.5]
        rng = np.random.default_rng(10)
        ref = rng.integers(100, 156, size=(8, 8, 3)).astype(np.uint8)
        contact = rng.integers(100, 156, size=(8, 8, 3)).astype(np.uint8)
        out = augmented_imprint(RgbImage(ref), RgbImage(contact), ImprintParams(alpha=1.0))
        # quantization averages out only approximately; compare in real arithmetic
        real = 1.0 * (contact.astype(float) - ref.astype(float)) + 127.5
        assert np.mean(real) - 127.5 == pytest.approx(contact.astype(float).mean() - ref.astype(float).mean(), abs=1e-12)
        assert np.mean(out.pixels) == pytest.approx(np.mean(np.floor(real + 0.5)), abs=1e-12)

    def test_dimension_mismatch(self):
        a = RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
        b = RgbImage(np.zeros((2, 3, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="differ in size"):
            augmented_imprint(a, b, ImprintParams())

    def test_alpha_beyond_the_float_range_saturates(self):
        ref = RgbImage(np.full((1, 1, 3), 100, dtype=np.uint8))
        contact = RgbImage(np.array([[[110, 100, 90]]], dtype=np.uint8))  # 1e308 * 10 overflows
        out = augmented_imprint(ref, contact, ImprintParams(alpha=1e308))
        assert out.pixels.tolist() == [[[255, 128, 0]]]

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            ImprintParams(alpha=0.0)

    @given(
        hnp.arrays(np.uint8, (3, 4, 3)),
        hnp.arrays(np.uint8, (3, 4, 3)),
        st.sampled_from([1.0, 5.0, 10.0]),
    )
    def test_oracle_property(self, ref, contact, alpha):
        out = augmented_imprint(RgbImage(ref), RgbImage(contact), ImprintParams(alpha=alpha))
        assert np.array_equal(out.pixels, imprint_oracle(RgbImage(ref), RgbImage(contact), alpha, 127.5))


def tiny_geometry(height, width):
    """Geometry of a tiny image at the scale whose sensing disc reaches the frame's edge on its shorter side."""
    scale = 2.0 * pt.SENSING_RADIUS_MM / (min(width, height) - 1)
    return pt.SensorGeometry(width=width, height=height, mm_per_pixel=scale)


def full_frame_rows(ref, contact, geom):
    """Reference feature rows: whole-image HSV delta and meshgrid (u, v), gathered by the disc mask."""
    h_ref, s_ref, v_ref = pt.rgb_to_hsv(ref.pixels)
    h_con, s_con, v_con = pt.rgb_to_hsv(contact.pixels)
    u, v = np.meshgrid(
        np.arange(geom.width, dtype=np.float64) / (geom.width - 1),
        np.arange(geom.height, dtype=np.float64) / (geom.height - 1),
    )
    full = np.stack(
        [
            pt.hue_delta(h_con, h_ref),
            s_con - s_ref,
            v_con - v_ref,
            u,
            v,
        ],
        axis=-1,
    )
    return full[geom.disc_mask]


class TestColorDelta:
    def test_identical_images_zero_field(self):
        rng = np.random.default_rng(2)
        img = RgbImage(rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8))
        rows = color_delta(img, img, tiny_geometry(5, 7))
        assert rows.shape[0] > 0
        assert np.all(rows[:, 0] == 0.0) and np.all(rows[:, 1] == 0.0) and np.all(rows[:, 2] == 0.0)

    def test_red_to_green_pixel(self):
        ref = RgbImage(np.tile(np.array([255, 0, 0], dtype=np.uint8), (3, 3, 1)))
        contact = RgbImage(np.tile(np.array([0, 255, 0], dtype=np.uint8), (3, 3, 1)))
        rows = color_delta(ref, contact, tiny_geometry(3, 3))
        assert np.all(rows[:, 0] == 120.0)

    def test_normalized_coordinates(self):
        geom = tiny_geometry(3, 5)
        ref = RgbImage(np.zeros((3, 5, 3), dtype=np.uint8))
        u, v = color_delta(ref, ref, geom)[:, 3:].T
        rows, cols = np.nonzero(geom.disc_mask)  # row-major, like the feature rows
        assert np.array_equal(u, cols / 4) and np.array_equal(v, rows / 2)
        assert v[0] == 0.0 and v[-1] == 1.0
        center = np.flatnonzero((rows == 1) & (cols == 2))[0]
        assert u[center] == 2 / 4 and v[center] == 1 / 2

    def test_simulated_uniform_press_hue_shift(self, small_geometry, quiet_sensor):
        # forward-model constants: 0.2 mm at GAIN_H_DEG_PER_MM deg/mm, checked both before
        # and after 8-bit quantization
        depths = np.full((small_geometry.height, small_geometry.width), 0.2, dtype=np.float32)
        dmap = pt.DeformationMap(depths, small_geometry.disc_mask)
        expected = 0.2 * defaults.GAIN_H_DEG_PER_MM

        hue, _, _ = deformed_hsv(dmap, np.arange(depths.size))
        exact = pt.hue_delta(hue, membrane_baseline(depths.shape)[..., 0].ravel())
        assert np.allclose(exact, expected, atol=1e-9)

        ref = pt.render_reading(small_geometry.zero_map(), seed=0)
        contact = pt.render_reading(dmap, seed=1)
        rows = color_delta(ref, contact, small_geometry)
        assert rows.shape[0] == small_geometry.disc_mask.sum()
        # 8-bit quantization bounds the per-pixel hue error
        assert np.abs(rows[:, 0] - expected).max() < 0.75

    def test_dimension_mismatch(self):
        a = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
        b = RgbImage(np.zeros((4, 3, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="differ in size"):
            color_delta(a, b, tiny_geometry(3, 3))

    def test_field_rows(self):
        geom = tiny_geometry(5, 5)
        rng = np.random.default_rng(4)
        ref = RgbImage(rng.integers(0, 256, size=(5, 5, 3)).astype(np.uint8))
        contact = RgbImage(rng.integers(0, 256, size=(5, 5, 3)).astype(np.uint8))
        rows = color_delta(ref, contact, geom)
        assert rows.shape == (geom.disc_mask.sum(), 5)
        assert np.array_equal(rows[:, 3:], np.stack(geom.disc_coords, axis=1))

    @pytest.mark.parametrize("geometry_name", ["small_geometry", "geometry"])
    def test_disc_rows_match_full_frame_reference(self, request, geometry_name):
        geom = request.getfixturevalue(geometry_name)
        pairs = [
            (
                pt.render_reading(geom.zero_map(), seed=3),
                pt.render_reading(pt.sphere_press_truth(0.4, geom), seed=4),
            )
        ]
        rng = np.random.default_rng(5)  # arbitrary colors reach every hue sector
        shape = (geom.height, geom.width, 3)
        pairs.append(tuple(RgbImage(rng.integers(0, 256, size=shape).astype(np.uint8)) for _ in range(2)))
        for ref, contact in pairs:
            assert np.array_equal(color_delta(ref, contact, geom), full_frame_rows(ref, contact, geom))
