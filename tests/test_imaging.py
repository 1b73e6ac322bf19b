import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phototact as pt
from phototact.imaging import (
    MAX_DEPTH_MM,
    DeformationMap,
    DmapFormatError,
    PpmFormatError,
    RgbImage,
    hsv_to_rgb_real,
    quantize_channels,
    rgb_to_hsv,
)


def one_pixel(r, g, b):
    return RgbImage(np.array([[[r, g, b]]], dtype=np.uint8))


def roundtrip(img):
    """8-bit pixels of ``img`` after the HSV conversion and the real-valued inverse, rounded."""
    return quantize_channels(hsv_to_rgb_real(*rgb_to_hsv(img.pixels)))


def hexcone_reference(rgb):
    """Hexcone conversion that evaluates every sector branch on every pixel, then selects."""
    rgb = rgb.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    chroma = maxc - rgb.min(axis=-1)
    s = np.where(maxc > 0.0, chroma / np.where(maxc > 0.0, maxc, 1.0), 0.0)
    nonzero = chroma > 0.0
    safe = np.where(nonzero, chroma, 1.0)
    r_max = nonzero & (maxc == r)
    g_max = nonzero & (maxc == g) & ~r_max
    b_max = nonzero & ~r_max & ~g_max
    sector = np.zeros_like(chroma)
    sector = np.where(r_max, np.mod((g - b) / safe, 6.0), sector)
    sector = np.where(g_max, (b - r) / safe + 2.0, sector)
    sector = np.where(b_max, (r - g) / safe + 4.0, sector)
    h = 60.0 * sector
    return np.where(h >= 360.0, h - 360.0, h), s, maxc


class TestRgbToHsv:
    def test_channels_match_reference_bitwise(self):
        # a step-3 lattice (every channel tie and the gray axis) plus random colors
        axis = np.append(np.arange(0, 256, 3), 255).astype(np.uint8)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        random = np.random.default_rng(8).integers(0, 256, size=(100_000, 3)).astype(np.uint8)
        pixels = np.concatenate([lattice, random])
        for got, want in zip(rgb_to_hsv(pixels), hexcone_reference(pixels)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # sign of zero included

    def test_pure_red(self):
        hsv = rgb_to_hsv(one_pixel(255, 0, 0).pixels[0, 0])
        assert tuple(hsv) == (0.0, 1.0, 1.0)

    def test_black_hue_convention(self):
        hsv = rgb_to_hsv(one_pixel(0, 0, 0).pixels[0, 0])
        assert tuple(hsv) == (0.0, 0.0, 0.0)

    def test_gray(self):
        hsv = rgb_to_hsv(one_pixel(128, 128, 128).pixels[0, 0])
        assert hsv[0] == 0.0 and hsv[1] == 0.0 and hsv[2] == 128 / 255

    def test_hue_range(self):
        rng = np.random.default_rng(3)
        img = RgbImage(rng.integers(0, 256, size=(40, 50, 3), dtype=np.uint8).astype(np.uint8))
        hue, _, _ = rgb_to_hsv(img.pixels)
        assert hue.min() >= 0.0 and hue.max() < 360.0


class TestHsvToRgb:
    def test_primary_red(self):
        assert tuple(quantize_channels(hsv_to_rgb_real(0.0, 1.0, 1.0))) == (255, 0, 0)

    def test_primary_green(self):
        assert tuple(quantize_channels(hsv_to_rgb_real(120.0, 1.0, 1.0))) == (0, 255, 0)

    def test_roundtrip_lattice(self):
        # independent oracle: exhaustive sweep over a 17^3 channel lattice
        axis = np.linspace(0, 255, 17).round().astype(np.uint8)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(17, 17 * 17, 3)
        img = RgbImage(grid)
        assert np.array_equal(img.pixels, roundtrip(img))

    @given(hnp.arrays(np.uint8, (7, 9, 3)))
    def test_roundtrip_random(self, pixels):
        img = RgbImage(pixels)
        assert np.array_equal(img.pixels, roundtrip(img))

    @pytest.mark.long
    def test_roundtrip_exhaustive(self):
        values = np.arange(256, dtype=np.uint8)
        for r in range(256):
            grid = np.stack(
                np.meshgrid(np.array([r], dtype=np.uint8), values, values, indexing="ij"), axis=-1
            ).reshape(1, 256 * 256, 3)
            img = RgbImage(grid)
            assert np.array_equal(img.pixels, roundtrip(img)), f"mismatch in r={r} plane"


class TestHueDelta:
    def test_wraparound(self):
        assert pt.hue_delta(10.0, 350.0) == 20.0

    def test_wraparound_negative(self):
        assert pt.hue_delta(350.0, 10.0) == -20.0

    def test_opposite_convention(self):
        assert pt.hue_delta(180.0, 0.0) == 180.0
        assert pt.hue_delta(0.0, 180.0) == 180.0

    @given(
        st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
        st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    )
    def test_antisymmetry_and_bound(self, a, b):
        d_ab = pt.hue_delta(a, b)
        d_ba = pt.hue_delta(b, a)
        assert abs(d_ab) <= 180.0 and abs(d_ba) <= 180.0
        if abs(d_ab) != 180.0:
            assert d_ab == pytest.approx(-d_ba, abs=1e-9)

    def test_vectorized(self):
        after = np.array([10.0, 350.0])
        before = np.array([350.0, 10.0])
        assert np.allclose(pt.hue_delta(after, before), [20.0, -20.0])


class TestPpm:
    def test_exact_bytes_and_roundtrip(self, tmp_path):
        img = RgbImage(np.array([[[255, 0, 0], [0, 0, 255]]], dtype=np.uint8))
        path = tmp_path / "two.ppm"
        pt.save_ppm(path, img)
        assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
        assert np.array_equal(pt.load_ppm(path).pixels, img.pixels)

    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(8)
        img = RgbImage(rng.integers(0, 256, size=(13, 7, 3)).astype(np.uint8))
        path = tmp_path / "r.ppm"
        pt.save_ppm(path, img)
        pt.save_ppm(tmp_path / "again.ppm", pt.load_ppm(path))
        assert path.read_bytes() == (tmp_path / "again.ppm").read_bytes()

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
        assert tuple(pt.load_ppm(path).pixels[0, 0]) == (1, 2, 3)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(PpmFormatError, match="unexpected end of pixel data"):
            pt.load_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(PpmFormatError, match="unsupported maxval"):
            pt.load_ppm(path)

    def test_malformed_magic(self, tmp_path):
        path = tmp_path / "b.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PpmFormatError, match="malformed header"):
            pt.load_ppm(path)

    def test_non_numeric_dimension(self, tmp_path):
        path = tmp_path / "n.ppm"
        path.write_bytes(b"P6\nfoo 1\n255\n\x00\x00\x00")
        with pytest.raises(PpmFormatError, match="malformed header"):
            pt.load_ppm(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "extra.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x01\x02\x03\n")
        with pytest.raises(PpmFormatError, match="trailing"):
            pt.load_ppm(path)


class TestDmap:
    def test_roundtrip_and_size(self, tmp_path):
        dmap = DeformationMap(np.array([[0.25]], dtype=np.float32), np.array([[True]]))
        path = tmp_path / "one.dmap"
        pt.save_dmap(path, dmap)
        # magic(4) + version(1) + dims(8) + one float32 depth(4) + one mask byte(1)
        assert path.stat().st_size == 18
        loaded = pt.load_dmap(path)
        assert np.array_equal(loaded.depths, dmap.depths)
        assert np.array_equal(loaded.mask, dmap.mask)

    def test_roundtrip_bit_exact(self, tmp_path, small_geometry):
        rng = np.random.default_rng(4)
        depths = (rng.random((small_geometry.height, small_geometry.width)) * MAX_DEPTH_MM).astype(np.float32)
        dmap = DeformationMap(depths, small_geometry.disc_mask)
        pt.save_dmap(tmp_path / "a.dmap", dmap)
        pt.save_dmap(tmp_path / "b.dmap", pt.load_dmap(tmp_path / "a.dmap"))
        assert (tmp_path / "a.dmap").read_bytes() == (tmp_path / "b.dmap").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.dmap"
        path.write_bytes(b"XMAP" + bytes(20))
        with pytest.raises(DmapFormatError, match="bad magic"):
            pt.load_dmap(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.dmap"
        path.write_bytes(b"DMAP\x02" + bytes(16))
        with pytest.raises(DmapFormatError, match="unsupported version"):
            pt.load_dmap(path)

    def test_truncated_depth_payload(self, tmp_path):
        import struct

        path = tmp_path / "trunc.dmap"
        path.write_bytes(b"DMAP\x01" + struct.pack("<II", 4, 4) + bytes(12))  # 3 floats, 16 declared
        with pytest.raises(DmapFormatError, match="truncated depth payload"):
            pt.load_dmap(path)

    def test_truncated_mask(self, tmp_path):
        import struct

        path = tmp_path / "tm.dmap"
        path.write_bytes(b"DMAP\x01" + struct.pack("<II", 2, 1) + bytes(8) + bytes(1))
        with pytest.raises(DmapFormatError, match="truncated mask payload"):
            pt.load_dmap(path)

    def test_trailing_bytes(self, tmp_path):
        import struct

        path = tmp_path / "extra.dmap"
        path.write_bytes(b"DMAP\x01" + struct.pack("<II", 1, 1) + bytes(4) + bytes(1) + b"junk")
        with pytest.raises(DmapFormatError, match="trailing"):
            pt.load_dmap(path)


def ppm_like_bytes():
    header = st.builds(
        lambda w, h, maxval, sep: f"P6{sep}{w} {h}{sep}{maxval}".encode() + sep.encode(),
        st.integers(-1, 3), st.integers(-1, 3), st.sampled_from([255, 0, 65535]), st.sampled_from(["\n", " ", "#"]),
    )
    return st.one_of(st.binary(max_size=48), st.builds(bytes.__add__, header, st.binary(max_size=48)))


def dmap_like_bytes():
    header = st.builds(
        lambda version, w, h: b"DMAP" + bytes([version]) + struct.pack("<II", w, h),
        st.integers(0, 2), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    )
    small = st.builds(lambda w, h: b"DMAP\x01" + struct.pack("<II", w, h), st.integers(0, 3), st.integers(0, 3))
    # Depth bytes of NaN, inf, negative or over-range floats and mask bytes other than 0/1.
    payload = st.lists(
        st.one_of(
            st.floats(width=32).map(lambda x: struct.pack("<f", x)),
            st.sampled_from([b"\x00", b"\x01", b"\x02"]),
        ),
        max_size=12,
    ).map(b"".join)
    return st.one_of(
        st.binary(max_size=48),
        st.builds(bytes.__add__, st.one_of(header, small), st.one_of(payload, st.binary(max_size=48))),
    )


@settings(max_examples=300)
@given(data=st.one_of(ppm_like_bytes(), dmap_like_bytes()))
def test_loaders_raise_only_format_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    for loader, error in ((pt.load_ppm, PpmFormatError), (pt.load_dmap, DmapFormatError)):
        try:
            loader(path)
        except error:
            pass


class TestDeformationMap:
    def test_rejects_negative_depths(self):
        with pytest.raises(ValueError, match="non-negative"):
            DeformationMap(np.array([[-0.01]], dtype=np.float32), np.array([[True]]))

    def test_rejects_overrange_in_mask(self):
        with pytest.raises(ValueError, match="exceed"):
            DeformationMap(np.array([[0.6]], dtype=np.float32), np.array([[True]]))

    @pytest.mark.parametrize("inside", [True, False])
    def test_rejects_depths_beyond_float32_range(self, inside):
        """A float64 depth past float32's range casts to inf, which the finiteness check reports, not a cast warning."""
        with pytest.raises(ValueError, match="depths must be finite"):
            DeformationMap(np.array([[1e39]]), np.array([[inside]]))

    def test_allows_overrange_outside_mask(self):
        dmap = DeformationMap(np.array([[0.6]], dtype=np.float32), np.array([[False]]))
        assert dmap.depths.shape == (1, 1) and not dmap.mask.any()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("inside", [True, False])
    def test_rejects_non_finite_depths(self, value, inside):
        with pytest.raises(ValueError, match="finite"):
            DeformationMap(np.array([[value]], dtype=np.float32), np.array([[inside]]))

    def test_loader_reports_invalid_depths_as_format_error(self, tmp_path):
        path = tmp_path / "inf.dmap"
        path.write_bytes(b"DMAP\x01" + struct.pack("<II", 1, 1) + struct.pack("<f", np.inf) + b"\x00")
        with pytest.raises(DmapFormatError, match="finite"):
            pt.load_dmap(path)

    def test_validator_checks_geometry_mask(self, small_geometry):
        dmap = small_geometry.zero_map()
        assert dmap.depths.shape == (small_geometry.height, small_geometry.width)
        assert np.array_equal(dmap.mask, small_geometry.disc_mask)
        wrong = DeformationMap(dmap.depths, ~small_geometry.disc_mask)
        assert not np.array_equal(wrong.mask, small_geometry.disc_mask)


class TestSensorGeometry:
    def test_disc_must_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            pt.SensorGeometry(width=60, height=60, mm_per_pixel=0.1)

    @pytest.mark.parametrize("width, height", [(100, 80), (101, 80), (2, 2)])
    def test_disc_must_hold_a_pixel(self, width, height):
        # No pixel center of an image with an even side lies on that side's center line, so at 8 mm per pixel every
        # center lies at least 4 mm from the image center, outside the 3.5 mm disc, though the disc fits.
        with pytest.raises(ValueError, match="sensing disc holds no pixel center"):
            pt.SensorGeometry(width=width, height=height, mm_per_pixel=8.0)
        odd = pt.SensorGeometry(width=101, height=81, mm_per_pixel=8.0)
        assert odd.disc_pixel_count == 1

    def test_disc_mask_geometry(self, small_geometry):
        mask = small_geometry.disc_mask
        gx, gy = small_geometry.coords_mm
        inside = gx**2 + gy**2 <= pt.SENSING_RADIUS_MM**2
        assert np.array_equal(mask, inside)
        assert mask.any() and not mask.all()

    @pytest.mark.parametrize("which", ["geometry", "small_geometry"])
    def test_disc_index_lists_the_disc_pixels(self, request, which):
        geom = request.getfixturevalue(which)
        index = geom.disc_index
        assert geom.disc_index is index
        assert np.array_equal(index, np.flatnonzero(geom.disc_mask))
        assert index.shape == (geom.disc_pixel_count,)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 0

    def test_default_disc_pixel_count(self, geometry):
        # frozen: 3.5 mm radius at 0.05 mm/pixel on 320x240
        assert int(geometry.disc_mask.sum()) == 15380
