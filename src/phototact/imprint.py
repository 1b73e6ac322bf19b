"""Raw-reading differencing: amplified difference images and HSV delta rows.

The amplified difference image ("imprint") is computed on raw RGB channel
values in real arithmetic, clipped to [0, 255], then rounded half-up to
8 bits.  The HSV delta rows are the per-pixel feature bundle consumed by
depth calibration; they cover the sensing disc only, the pixels every depth
map carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import RgbImage, SensorGeometry, hue_delta, quantize_channels, rgb_to_hsv_channels


@dataclass(frozen=True)
class ImprintParams:
    """Amplification ``alpha`` and offset ``beta`` (default 255/2)."""

    alpha: float = 5.0
    beta: float = 127.5

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def augmented_imprint(ref: RgbImage, contact: RgbImage, params: ImprintParams | None = None) -> RgbImage:
    """Per channel: clip(alpha * (contact - ref) + beta, 0, 255), rounded half-up."""
    if params is None:
        params = ImprintParams()
    if (ref.height, ref.width) != (contact.height, contact.width):
        raise ValueError("reference and contact images differ in size")
    diff = contact.pixels.astype(np.float64) - ref.pixels.astype(np.float64)
    return RgbImage(quantize_channels(params.alpha * diff + params.beta))


@dataclass(frozen=True)
class ColorDeltaField:
    """Feature rows (dH, dS, dV, u, v) between two readings, one per sensing-disc pixel.

    Rows run in row-major pixel order.  ``dh`` is the minimal signed hue
    difference in degrees, ``ds``/``dv`` are plain differences; ``u``/``v``
    are column/row positions normalized to [0, 1].
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 5:
            raise ValueError("delta rows must be shaped (N, 5)")
        object.__setattr__(self, "rows", rows)
        if np.abs(self.dh).max(initial=0.0) > 180.0:
            raise ValueError("hue deltas must lie in [-180, 180]")
        if np.abs(self.ds).max(initial=0.0) > 1.0 or np.abs(self.dv).max(initial=0.0) > 1.0:
            raise ValueError("saturation/value deltas must lie in [-1, 1]")

    @property
    def dh(self):
        return self.rows[:, 0]

    @property
    def ds(self):
        return self.rows[:, 1]

    @property
    def dv(self):
        return self.rows[:, 2]

    @property
    def u(self):
        return self.rows[:, 3]

    @property
    def v(self):
        return self.rows[:, 4]


def disc_pixels(ref: RgbImage, contact: RgbImage, geom: SensorGeometry):
    """The sensing-disc pixels (N, 3) of a reading pair, after checking both match ``geom``."""
    if (ref.height, ref.width) != (contact.height, contact.width):
        raise ValueError("reference and contact images differ in size")
    if (ref.height, ref.width) != (geom.height, geom.width):
        raise ValueError("reading pair does not match geometry")
    mask = geom.disc_mask
    return ref.pixels[mask], contact.pixels[mask]


def disc_rows(ref_px, contact_px, geom: SensorGeometry) -> np.ndarray:
    """(N, 5) rows (dH, dS, dV, u, v) from the sensing-disc pixels (N, 3) of a reading pair.

    Rows follow the disc's row-major pixel order, as ``pixels[geom.disc_mask]``
    gathers them; hue wrap is handled.
    """
    n = geom.disc_pixel_count
    if np.shape(ref_px) != (n, 3) or np.shape(contact_px) != (n, 3):
        raise ValueError("disc pixels must be one RGB row per sensing-disc pixel")
    h_ref, s_ref, v_ref = rgb_to_hsv_channels(ref_px)
    h_con, s_con, v_con = rgb_to_hsv_channels(contact_px)
    u, v = geom.disc_coords
    rows = np.empty((n, 5))
    rows[:, 0] = hue_delta(h_con, h_ref)
    rows[:, 1] = s_con - s_ref
    rows[:, 2] = v_con - v_ref
    rows[:, 3] = u
    rows[:, 4] = v
    return rows


def color_delta(ref: RgbImage, contact: RgbImage, geom: SensorGeometry) -> ColorDeltaField:
    """HSV change from ``ref`` to ``contact`` over the sensing disc, hue wrap handled."""
    return ColorDeltaField(disc_rows(*disc_pixels(ref, contact, geom), geom))
