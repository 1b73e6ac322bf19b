"""Raw-reading differencing: amplified difference images and HSV delta rows.

The amplified difference image ("imprint") is computed on raw RGB channel
values in real arithmetic, clipped to [0, 255], then rounded half-up to
8 bits.  The HSV delta rows are the per-pixel feature bundle consumed by
depth calibration; they cover the sensing disc only, the pixels every depth
map carries.  :func:`disc_rows` forms them from the disc pixels of a capture
pair and :func:`color_delta` from a whole reading pair, by gathering its
disc pixels first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import RgbImage, SensorGeometry, hue_delta, quantize_channels, rgb_to_hsv


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
    with np.errstate(over="ignore"):  # a product beyond the float range is infinite, which the clip maps to 0 or 255
        imprint = params.alpha * diff + params.beta
    return RgbImage(quantize_channels(imprint))


def disc_rows(ref_px, contact_px, geom: SensorGeometry) -> np.ndarray:
    """(N, 5) rows (dH, dS, dV, u, v) from the sensing-disc pixels (N, 3) of a reading pair.

    Rows follow the disc's row-major pixel order, as ``pixels[geom.disc_mask]``
    gathers them; hue wrap is handled.
    """
    n = geom.disc_pixel_count
    if np.shape(ref_px) != (n, 3) or np.shape(contact_px) != (n, 3):
        raise ValueError("disc pixels must be one RGB row per sensing-disc pixel")
    h_ref, s_ref, v_ref = rgb_to_hsv(ref_px)
    h_con, s_con, v_con = rgb_to_hsv(contact_px)
    u, v = geom.disc_coords
    rows = np.empty((n, 5))
    rows[:, 0] = hue_delta(h_con, h_ref)
    rows[:, 1] = s_con - s_ref
    rows[:, 2] = v_con - v_ref
    rows[:, 3] = u
    rows[:, 4] = v
    return rows


def color_delta(ref: RgbImage, contact: RgbImage, geom: SensorGeometry) -> np.ndarray:
    """:func:`disc_rows` of a whole reading pair: the HSV change from ``ref`` to ``contact`` over the sensing disc."""
    if (ref.height, ref.width) != (contact.height, contact.width):
        raise ValueError("reference and contact images differ in size")
    if (ref.height, ref.width) != (geom.height, geom.width):
        raise ValueError("reading pair does not match geometry")
    index = geom.disc_index
    return disc_rows(np.take(ref.pixels.reshape(-1, 3), index, axis=0),
                     np.take(contact.pixels.reshape(-1, 3), index, axis=0), geom)
