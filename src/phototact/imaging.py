"""Pixel-grid containers, color-space conversion, and bit-exact file I/O.

Images are row-major with the origin at the top-left pixel. RGB channels are
8-bit. HSV pixels travel as a (hue, saturation, value) triple of channel
arrays: hue in degrees [0, 360), saturation and value in [0, 1].
:func:`rgb_to_hsv` converts any (..., 3) RGB pixels, a frame or a gathered
set, and :func:`hsv_to_rgb_real` converts back. Depth maps carry the
sensing-disc mask so every downstream statistic runs over the same pixel set.

On-disk formats:

* images: binary PPM (``P6``, maxval 255)
* depth maps: ``DMAP`` magic, one version byte, width and height as 32-bit
  little-endian unsigned, ``width*height`` 32-bit little-endian IEEE-754
  depths in mm, then one mask byte (0/1) per pixel
* JSON documents: sorted keys, two-space indent, a final newline
  (:func:`write_json`); :func:`read_json` checks the ``format`` and
  ``version`` that a calibration model or detector file names
* CSV tables: a header row, then one row per record, comma-separated with
  ``\n`` line ends (:func:`write_csv`)
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

MAX_DEPTH_MM = 0.5  # full-scale membrane indentation used throughout the study
SENSING_RADIUS_MM = 3.5  # mm, radius of the sensing disc inside the sensor's 8 mm face

_DMAP_MAGIC = b"DMAP"
_DMAP_VERSION = 1


class PpmFormatError(ValueError):
    """Malformed or unsupported PPM data."""


class DmapFormatError(ValueError):
    """Malformed or unsupported depth-map data."""


def frozen_array(values, dtype):
    """A read-only copy of ``values`` as ``dtype``, so the caller's array stays writable."""
    with np.errstate(over="ignore"):  # a float beyond dtype's range becomes inf, for the caller's finiteness check
        arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def json_number(value) -> float:
    """``value`` as a float when it is a JSON number (an int or a float, never a bool); TypeError otherwise.

    An integer beyond the float range becomes the infinity of its sign, which
    every reader's finiteness check rejects.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def quantize_channels(values):
    """Real-valued channels -> uint8 with clipping and round-half-up ties."""
    out = np.clip(values, 0.0, 255.0)  # a new array, so it is rounded in place
    out += 0.5
    return np.floor(out, out=out).astype(np.uint8)


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB image, ``pixels`` shaped (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("RGB pixels must be shaped (height, width, 3) and non-empty")
        if px.dtype != np.uint8:
            raise ValueError("RGB channels must be uint8")
        object.__setattr__(self, "pixels", frozen_array(px, np.uint8))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class DeformationMap:
    """Per-pixel indentation depths (mm, float32) plus the sensing-disc mask.

    Depths are non-negative everywhere and never exceed ``MAX_DEPTH_MM``
    inside the mask; both bounds are enforced on construction.
    """

    depths: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        depths = frozen_array(self.depths, np.float32)
        mask = frozen_array(self.mask, bool)
        if depths.ndim != 2 or depths.shape[0] < 1 or depths.shape[1] < 1:
            raise ValueError("depths must be a non-empty 2-D grid")
        if mask.shape != depths.shape:
            raise ValueError("mask shape must match depths shape")
        if not np.all(np.isfinite(depths)):
            raise ValueError("depths must be finite")
        if not np.all(depths >= 0.0):
            raise ValueError("depths must be non-negative")
        if mask.any() and float(depths[mask].max()) > MAX_DEPTH_MM:
            raise ValueError(f"masked depths must not exceed {MAX_DEPTH_MM} mm")
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "mask", mask)

    @property
    def width(self) -> int:
        return self.depths.shape[1]

    @property
    def height(self) -> int:
        return self.depths.shape[0]


def normalized_grid(shape):
    """(u, v) grids in [0, 1] over a frame of ``shape`` (height, width): u = col/(width-1), v = row/(height-1)."""
    height, width = shape
    u = np.arange(width, dtype=np.float64) / max(width - 1, 1)
    v = np.arange(height, dtype=np.float64) / max(height - 1, 1)
    return np.meshgrid(u, v)


@dataclass(frozen=True)
class SensorGeometry:
    """Image dimensions plus the physical scale of the sensing face.

    The sensing disc is centered on the image; a pixel belongs to the disc
    when its center lies within ``SENSING_RADIUS_MM`` of the image center.
    The disc must fit inside the image and hold at least one pixel center.
    """

    width: int = 320
    height: int = 240
    mm_per_pixel: float = 0.05

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if not (math.isfinite(self.mm_per_pixel) and self.mm_per_pixel > 0):
            raise ValueError("scale must be finite and positive")
        extent = self.mm_per_pixel * max(self.width, self.height)
        if not math.isfinite(extent * extent):  # a float ** raises OverflowError where * gives inf
            raise ValueError("scale too large: the frame's squared extent in mm^2 is not a finite float")
        half_extent = self.mm_per_pixel * (min(self.width, self.height) - 1) / 2.0
        if SENSING_RADIUS_MM > half_extent:
            raise ValueError("sensing disc does not fit inside the image")
        if self.disc_pixel_count == 0:
            raise ValueError("sensing disc holds no pixel center")

    @cached_property
    def coords_mm(self):
        """(x, y) pixel-center coordinate grids in mm, origin at image center."""
        x = (np.arange(self.width, dtype=np.float64) - (self.width - 1) / 2.0) * self.mm_per_pixel
        y = (np.arange(self.height, dtype=np.float64) - (self.height - 1) / 2.0) * self.mm_per_pixel
        gx, gy = np.meshgrid(x, y)
        gx.setflags(write=False)
        gy.setflags(write=False)
        return gx, gy

    @cached_property
    def disc_mask(self):
        gx, gy = self.coords_mm
        mask = gx * gx + gy * gy <= SENSING_RADIUS_MM**2
        mask.setflags(write=False)
        return mask

    @cached_property
    def disc_pixel_count(self) -> int:
        return int(np.count_nonzero(self.disc_mask))

    @cached_property
    def disc_index(self):
        """Flat row-major indices of the sensing-disc pixels, increasing (read-only).

        ``np.take`` on these gives the bits of a ``disc_mask`` gather, in a
        fraction of its time.
        """
        index = np.flatnonzero(self.disc_mask)
        index.setflags(write=False)
        return index

    @cached_property
    def disc_coords(self):
        """(u, v) of the sensing-disc pixels in row-major order (see :func:`normalized_grid`)."""
        gu, gv = normalized_grid((self.height, self.width))
        u, v = gu[self.disc_mask], gv[self.disc_mask]
        u.setflags(write=False)
        v.setflags(write=False)
        return u, v

    def zero_map(self) -> DeformationMap:
        return DeformationMap(np.zeros((self.height, self.width), dtype=np.float32), self.disc_mask)


def rgb_to_hsv(rgb):
    """Hexcone conversion of 8-bit RGB triples shaped (..., 3) -> (hue, saturation, value).

    Each channel has the input's leading shape; achromatic pixels get hue 0.
    Every output element depends on its own pixel only, so converting a
    gathered subset of pixels gives the same bits as converting the frame.
    """
    rgb = np.asarray(rgb)
    r, g, b = (rgb[..., i] / 255.0 for i in range(3))
    value = np.maximum(np.maximum(r, g), b)
    chroma = value - np.minimum(np.minimum(r, g), b)
    saturation = np.divide(chroma, value, out=np.zeros_like(value), where=value > 0.0)
    # Sector offset 0/2/4 by the first channel holding the maximum, in r, g, b
    # order; achromatic pixels take the red branch with a zero quotient.
    r_max = value == r
    g_max = ~r_max & (value == g)
    quotient = np.divide(
        np.where(r_max, g - b, np.where(g_max, b - r, r - g)),
        chroma,
        out=np.zeros_like(chroma),
        where=chroma > 0.0,
    )
    sector = np.where(r_max, np.mod(quotient, 6.0), quotient + np.where(g_max, 2.0, 4.0))
    hue = 60.0 * sector
    hue = np.where(hue >= 360.0, hue - 360.0, hue)
    return hue, saturation, value


def hsv_to_rgb_real(hue, saturation, value):
    """HSV channel grids -> real-valued RGB channels in [0, 255] (no rounding)."""
    sector = np.asarray(hue, dtype=np.float64) / 60.0
    i = np.floor(sector).astype(np.int64) % 6
    f = sector - np.floor(sector)
    p = value * (1.0 - saturation)
    q = value * (1.0 - saturation * f)
    t = value * (1.0 - saturation * (1.0 - f))
    r = np.choose(i, [value, q, p, p, t, value])
    g = np.choose(i, [t, value, value, q, p, p])
    b = np.choose(i, [p, p, t, value, value, q])
    return np.stack([r, g, b], axis=-1) * 255.0


def hue_delta(h_after, h_before):
    """Minimal signed hue difference in (-180, 180]; +180 for opposite hues.

    Accepts scalars or arrays of degrees in [0, 360); returns a float64 array, 0-d for scalars.
    """
    diff = np.mod(np.asarray(h_after, dtype=np.float64) - np.asarray(h_before, dtype=np.float64), 360.0)
    return np.where(diff > 180.0, diff - 360.0, diff)


# ---------------------------------------------------------------------------
# PPM (P6) files


def save_ppm(path, img: RgbImage):
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


def _next_ppm_token(data: bytes, pos: int):
    while pos < len(data):
        ch = data[pos]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == ord("#"):
            while pos < len(data) and data[pos] != ord("\n"):
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise PpmFormatError("malformed header: unexpected end of header")
    return data[start:pos], pos


def load_ppm(path) -> RgbImage:
    data = Path(path).read_bytes()
    magic, pos = _next_ppm_token(data, 0)
    if magic != b"P6":
        raise PpmFormatError(f"malformed header: expected P6, got {magic!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_ppm_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PpmFormatError(f"malformed header: non-numeric {name} {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PpmFormatError("malformed header: non-positive dimensions")
    if maxval != 255:
        raise PpmFormatError(f"unsupported maxval {maxval}")
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise PpmFormatError("malformed header: missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header and payload
    size = width * height * 3
    payload = data[pos : pos + size]
    if len(payload) < size:
        raise PpmFormatError("unexpected end of pixel data")
    if len(data) > pos + size:
        raise PpmFormatError("unexpected trailing bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(pixels)


# ---------------------------------------------------------------------------
# DMAP depth-map files


def save_dmap(path, dmap: DeformationMap):
    head = _DMAP_MAGIC + bytes([_DMAP_VERSION]) + struct.pack("<II", dmap.width, dmap.height)
    body = dmap.depths.astype("<f4").tobytes() + dmap.mask.astype(np.uint8).tobytes()
    Path(path).write_bytes(head + body)


def load_dmap(path) -> DeformationMap:
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != _DMAP_MAGIC:
        raise DmapFormatError("bad magic")
    if len(data) < 13:
        raise DmapFormatError("truncated header")
    version = data[4]
    if version != _DMAP_VERSION:
        raise DmapFormatError(f"unsupported version {version}")
    width, height = struct.unpack("<II", data[5:13])
    if width < 1 or height < 1:
        raise DmapFormatError("invalid dimensions")
    n = width * height
    depth_bytes = data[13 : 13 + 4 * n]
    if len(depth_bytes) < 4 * n:
        raise DmapFormatError("truncated depth payload")
    mask_bytes = data[13 + 4 * n : 13 + 5 * n]
    if len(mask_bytes) < n:
        raise DmapFormatError("truncated mask payload")
    if len(data) > 13 + 5 * n:
        raise DmapFormatError("unexpected trailing bytes")
    mask_vals = np.frombuffer(mask_bytes, dtype=np.uint8)
    if not np.all((mask_vals == 0) | (mask_vals == 1)):
        raise DmapFormatError("invalid mask byte")
    depths = np.frombuffer(depth_bytes, dtype="<f4").reshape(height, width)
    try:
        return DeformationMap(depths, mask_vals.reshape(height, width).astype(bool))
    except ValueError as err:
        raise DmapFormatError(f"invalid depths: {err}") from None


# ---------------------------------------------------------------------------
# JSON documents and CSV tables


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    """The table ``header`` then ``rows`` at ``path``; ``rows`` is consumed one row at a time as it is written."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_json(path):
    """The JSON document in the file at ``path``; nesting too deep to parse is a ValueError, like any other fault."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nesting too deep to parse") from None


def read_json(path, kind: str, format_name: str, version: int) -> dict:
    """The JSON object in the ``kind`` file at ``path``, once its ``format`` and ``version`` are checked."""
    doc = parse_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"a {kind} file must hold a JSON object")
    if doc.get("format") != format_name:
        raise ValueError(f"not a {kind} file")
    if doc.get("version") != version:
        raise ValueError(f"unsupported {kind} version {doc.get('version')}")
    return doc
