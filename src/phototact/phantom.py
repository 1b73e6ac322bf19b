"""Forward simulator standing in for the hardware.

Contact between the flat sensor face and a phantom is modeled as a rigid
punch on a Winkler (independent-spring) foundation: the punch settles until
the integrated foundation pressure balances the applied force, and the
membrane indentation at each pixel is the local pressure divided by the
membrane stiffness, clamped to full scale.  A buried stiff inclusion raises
the local foundation modulus through a Gaussian lateral kernel with
exponential depth attenuation, which produces the localized bump signature
the detector feeds on.

Rendering maps indentation depth to an HSV shift of the membrane's baseline
color, converts to RGB, and applies seed-deterministic speckle and channel
noise of the sensor's constant amplitudes (``defaults``).  The sensor has one
membrane, so its baseline is a function of the frame's shape alone
(:func:`membrane_baseline`); the baseline and the noise-free unloaded render
are cached for the last two frame shapes.  All randomness is
drawn from counter-based (Philox) streams keyed by (seed, stream), so outputs
never depend on evaluation order.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import defaults
from .imaging import (
    MAX_DEPTH_MM,
    DeformationMap,
    RgbImage,
    SensorGeometry,
    hsv_to_rgb_real,
    json_number,
    normalized_grid,
    quantize_channels,
)

# Philox stream tags; each (seed, stream) pair is an independent noise source.
STREAM_RENDER = 0
STREAM_BASELINE = 1
STREAM_SAMPLE_SEEDS = 3


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream) pair."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sub_seeds(seed: int, stream: int, shape) -> np.ndarray:
    """Child seeds in [0, 2**62), an int64 array of ``shape`` drawn from the (seed, stream) generator."""
    return rng_stream(seed, stream).integers(0, 2**62, size=shape)


def grams_to_newtons(mass_g: float) -> float:
    return mass_g * defaults.GRAVITY_M_S2 / 1000.0


def _json_field(value, default):
    """JSON ``value`` of the field whose default is ``default``; a float or float-tuple field's numbers as floats."""
    if isinstance(default, tuple) and all(isinstance(x, float) for x in default):
        return tuple(map(json_number, value))
    return json_number(value) if isinstance(default, float) else value


def _from_json_object(cls, kind: str, data, required):
    """The config dataclass ``cls`` built from the JSON object ``data``, which must hold every key in ``required``.

    Absent keys take the field defaults. Each error is a ValueError whose
    message names the config's ``kind``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{kind} must be a JSON object")
    field_defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(data) - set(field_defaults))
    if unknown:
        raise ValueError(f"unknown {kind} keys: {', '.join(unknown)}")
    for key in required:
        if key not in data:
            raise ValueError(f"{kind} needs '{key}'")
    try:
        return cls(**{key: _json_field(value, field_defaults[key]) for key, value in data.items()})
    except TypeError as err:
        raise ValueError(f"malformed {kind}: {err!r}") from None


@dataclass(frozen=True)
class PhantomConfig:
    """Phantom geometry and press parameters for one contact."""

    tumor_present: bool
    ball_diameter_mm: float = 6.0
    burial_depth_mm: float = 3.0
    lateral_offset_mm: tuple[float, float] = (0.0, 0.0)
    applied_mass_g: float = 1000.0

    def __post_init__(self):
        if not isinstance(self.tumor_present, bool):
            raise ValueError("tumor_present must be true or false")
        if len(self.lateral_offset_mm) != 2:
            raise ValueError("lateral offset must be an (x, y) pair")
        values = (self.ball_diameter_mm, self.burial_depth_mm, *self.lateral_offset_mm, self.applied_mass_g)
        if not all(math.isfinite(json_number(x)) for x in values):
            raise ValueError("phantom parameters must be finite")
        if self.applied_mass_g <= 0:
            raise ValueError("applied mass must be positive")
        if self.tumor_present:
            if not 2.0 <= self.ball_diameter_mm <= 10.0:
                raise ValueError("ball diameter must lie in [2, 10] mm")
            if not 1.0 <= self.burial_depth_mm <= 7.0:
                raise ValueError("burial depth must lie in [1, 7] mm")

    @property
    def force_n(self) -> float:
        return grams_to_newtons(self.applied_mass_g)

    @classmethod
    def from_dict(cls, data: dict) -> "PhantomConfig":
        """Config from a JSON object; absent keys other than ``tumor_present`` take the field defaults."""
        return _from_json_object(cls, "phantom config", data, required=("tumor_present",))


def _smooth_field(u, v, rng):
    """Low-frequency field in [-1, 1] from three seeded cosine modes over (u, v)."""
    total = np.zeros_like(u)
    weight = 0.0
    for _ in range(3):
        amp = rng.uniform(0.4, 1.0)
        fu = rng.integers(1, 4)
        fv = rng.integers(1, 4)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        total += amp * np.cos(2.0 * math.pi * (fu * u + fv * v) + phase)
        weight += amp
    return total / weight


@lru_cache(maxsize=2)
def membrane_baseline(shape) -> np.ndarray:
    """The sensor's membrane color over a frame of ``shape`` (height, width): a smooth red-ish baseline from
    ``defaults.MEMBRANE_SEED``.

    The result is read-only float64 HSV pixels shaped (height, width, 3): hue
    in degrees [0, 360), saturation and value in [0, 1]. The baseline varies
    in normalized coordinates, so different resolutions sample the same
    underlying membrane.
    """
    rng = rng_stream(defaults.MEMBRANE_SEED, STREAM_BASELINE)
    u, v = normalized_grid(shape)
    hue = np.mod(defaults.BASELINE_HUE_SPAN_DEG * _smooth_field(u, v, rng), 360.0)
    sat = defaults.BASELINE_SATURATION + defaults.BASELINE_SV_SPAN * _smooth_field(u, v, rng)
    val = defaults.BASELINE_VALUE + defaults.BASELINE_SV_SPAN * _smooth_field(u, v, rng)
    baseline = np.stack([hue, sat, val], axis=-1)
    baseline.setflags(write=False)
    return baseline


def stiffness_field(cfg: PhantomConfig, geom: SensorGeometry) -> np.ndarray:
    """Foundation modulus k(x, y) in N/mm^3 over the pixel grid."""
    k = np.full((geom.height, geom.width), defaults.TISSUE_STIFFNESS, dtype=np.float64)
    if cfg.tumor_present:
        gx, gy = geom.coords_mm
        ox, oy = cfg.lateral_offset_mm
        spread = cfg.ball_diameter_mm / (2.0 * math.sqrt(2.0))
        attenuation = math.exp(-cfg.burial_depth_mm / defaults.DEPTH_ATTENUATION_MM)
        # An infinite squared distance adds no inclusion stiffness.
        with np.errstate(over="ignore"):
            r_sq = (gx - ox) ** 2 + (gy - oy) ** 2
            k = k + defaults.TUMOR_STIFFNESS_BOOST * attenuation * np.exp(-r_sq / (2.0 * spread**2))
    return k


def contact_solve(cfg: PhantomConfig, geom: SensorGeometry) -> DeformationMap:
    """Indentation map of a rigid flat punch pressed with cfg's force onto the Winkler foundation.

    Every geometry gives a finite, positive foundation integral: the disc's pixels cover at least 6.1 mm^2 (a quarter
    of the square inscribed in the disc) and at most the frame's squared extent, which the geometry keeps finite.
    """
    k = stiffness_field(cfg, geom)
    mask = geom.disc_mask
    stiffness_integral = float(k[mask].sum()) * geom.mm_per_pixel**2
    displacement = cfg.force_n / stiffness_integral
    pressure = np.where(mask, k * displacement, 0.0)
    return DeformationMap(np.clip(pressure / defaults.MEMBRANE_STIFFNESS, 0.0, MAX_DEPTH_MM).astype(np.float32), mask)


def spherical_cap_profile(press_depth: float, sphere_radius: float, geom: SensorGeometry) -> np.ndarray:
    """Raw indentation profile of a sphere pressed ``press_depth`` into the face.

    No validation or full-scale clamping; callers bound the inputs.
    """
    gx, gy = geom.coords_mm
    r_sq = gx * gx + gy * gy
    inside = r_sq <= sphere_radius**2
    bump = press_depth - sphere_radius + np.sqrt(np.where(inside, sphere_radius**2 - r_sq, 0.0))
    return np.where(inside, np.maximum(bump, 0.0), 0.0)


def spherical_cap_volume(press_depth: float, sphere_radius: float) -> float:
    """Displaced volume (mm^3) of a spherical cap of the given depth."""
    return math.pi * press_depth**2 * (sphere_radius - press_depth / 3.0)


def sphere_press_truth(press_depth: float, geom: SensorGeometry) -> DeformationMap:
    """Ground-truth indentation map of the calibration sphere pressed ``press_depth`` into the center of the face.

    The sphere's radius is ``defaults.CALIBRATION_SPHERE_RADIUS_MM``; ``press_depth`` must lie in (0, MAX_DEPTH_MM].
    """
    if not 0 < press_depth <= MAX_DEPTH_MM:
        raise ValueError(f"press depth must lie in (0, {MAX_DEPTH_MM}] mm")
    profile = spherical_cap_profile(press_depth, defaults.CALIBRATION_SPHERE_RADIUS_MM, geom)
    return DeformationMap(profile.astype(np.float32), geom.disc_mask)


def _shifted_hsv(base, depth):
    """(hue, saturation, value) of the HSV pixels ``base`` (..., 3) shifted by the response to ``depth`` (...), in mm.

    For a baseline in range and a finite depth, each channel is in range too.
    """
    hue = np.mod(base[..., 0] + defaults.GAIN_H_DEG_PER_MM * depth, 360.0)
    hue = np.where(hue >= 360.0, 0.0, hue)
    sat = np.clip(base[..., 1] + defaults.GAIN_S_PER_MM * depth, 0.0, 1.0)
    val = np.clip(base[..., 2] + defaults.GAIN_V_PER_MM * depth, 0.0, 1.0)
    return hue, sat, val


def deformed_hsv(dmap: DeformationMap):
    """Noise-free (hue, saturation, value) response of the membrane to the given indentation."""
    return _shifted_hsv(membrane_baseline(dmap.depths.shape), dmap.depths.astype(np.float64))


@lru_cache(maxsize=2)
def _rest_rgb(shape) -> np.ndarray:
    """Noise-free real RGB of the unloaded membrane over a frame of ``shape`` (read-only)."""
    unloaded = DeformationMap(np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=bool))
    real = hsv_to_rgb_real(*deformed_hsv(unloaded))
    real.setflags(write=False)
    return real


def clean_pixels(dmap: DeformationMap, index) -> np.ndarray:
    """Noise-free real RGB (N, 3) of the pixels at the flat row-major ``index``, in its order.

    Every pixel's color depends on that pixel only, so this is the indexed
    part of the noise-free full-frame render.
    """
    base = np.take(membrane_baseline(dmap.depths.shape).reshape(-1, 3), index, axis=0)
    depth = np.take(dmap.depths, index).astype(np.float64)
    return hsv_to_rgb_real(*_shifted_hsv(base, depth))


def _noisy_channels(clean, noise) -> np.ndarray:
    """8-bit channels of ``clean`` (..., 3) under speckle ``noise[..., 0]`` and channel noise ``noise[..., 1:4]``."""
    speckle = 1.0 + defaults.SPECKLE_AMPLITUDE * noise[..., 0]
    noisy = clean * speckle[..., None]
    noisy += defaults.SENSOR_NOISE_STD * noise[..., 1:4]
    return quantize_channels(noisy)


# Frame pixels whose noise is drawn and applied at once: about 0.7 MB of float64 scratch where a 320x240 frame at
# once takes 6.7 MB. Larger blocks draw a little faster, but the noise worker's heap, which the process keeps, grows
# with them: 16,384 raised the calibrate benchmark's peak RSS by 0.7 MB (2-vCPU x86-64 host).
_NOISE_BLOCK_PX = 8192


def _noisy_capture(clean, seed: int, index=None) -> np.ndarray:
    """uint8 channels of the noise-free real RGB ``clean`` under the ``(seed, STREAM_RENDER)`` noise.

    Without ``index``, ``clean`` is the whole (height, width, 3) frame. With
    the non-empty increasing flat row-major ``index`` into a frame, ``clean``
    holds the (N, 3) pixels at it, and the normals are drawn only through the
    last indexed pixel: a Philox normal fill is a prefix of any longer fill
    from the same stream. The fill runs in blocks of frame pixels, each
    continuing the stream where the last ended, so the normals are those of
    one fill. This is the body :func:`render_reading`
    and the noise worker of :func:`disc_captures` share; it calls no function
    the benchmark's tracer wraps, since the tracer keeps one span stack.
    """
    rng = rng_stream(seed, STREAM_RENDER)
    clean_px = clean.reshape(-1, 3)
    out = np.empty(clean_px.shape, dtype=np.uint8)
    if index is None:
        frame_px = clean_px.shape[0]
    else:
        frame_px = int(index[-1]) + 1
    for start in range(0, frame_px, _NOISE_BLOCK_PX):
        stop = min(start + _NOISE_BLOCK_PX, frame_px)
        noise = rng.standard_normal((stop - start, 4))
        if index is None:
            lo, hi = start, stop
        else:
            lo, hi = np.searchsorted(index, (start, stop))
            noise = np.take(noise, index[lo:hi] - start, axis=0)
        out[lo:hi] = _noisy_channels(clean_px[lo:hi], noise)
    return out.reshape(clean.shape)


def disc_captures(phases, geom: SensorGeometry):
    """``(truth, ref_px, contact_px)`` for each seed pair of each truth of each phase of ``phases``, in order.

    ``phases`` is the press table: each phase is a ``(truths, seed_pairs)``
    pair, where ``seed_pairs[k]`` lists the (reference, contact) seed pairs of
    ``truths[k]``, and a phase whose two lengths differ raises a ValueError.
    ``ref_px`` is the unloaded disc captured at the reference seed and
    ``contact_px`` the truth's disc at the contact seed, each the
    ``geom.disc_mask`` pixels of :func:`render_reading` at its seed. The
    noise-free unloaded disc is rendered once and each truth's disc once, on
    the consumer's thread. A pair that names the previous pair's reference seed
    takes the previous pair's reference, drawn once: a capture is a function of
    its seed alone. Every capture is yielded read-only, since one reference can
    reach several pairs. One worker thread makes the noise at most one pair
    ahead of the consumer: pair k + 1 is submitted just before pair k is
    yielded. numpy releases the interpreter lock while it draws and scales the
    noise, so the draw runs beside the consumer's work. The thread is joined
    when the stream ends, is closed or raises.
    """
    index = geom.disc_index
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="phototact-noise")

    def finished(truth, *futures):
        captures = [future.result() for future in futures]
        for capture in captures:
            capture.setflags(write=False)
        return truth, *captures

    try:
        rest = clean_pixels(geom.zero_map(), index)
        ahead = None
        held_seed = ref = None  # the last reference seed and its capture's future
        for truths, seed_pairs in phases:
            for truth, pairs in zip(truths, seed_pairs, strict=True):
                clean = clean_pixels(truth, index)
                for ref_seed, contact_seed in pairs:
                    if int(ref_seed) != held_seed:
                        held_seed = int(ref_seed)
                        ref = pool.submit(_noisy_capture, rest, held_seed, index)
                    submitted = (truth, ref, pool.submit(_noisy_capture, clean, int(contact_seed), index))
                    if ahead is not None:
                        yield finished(*ahead)
                    ahead = submitted
        if ahead is not None:
            yield finished(*ahead)
    finally:
        pool.shutdown(cancel_futures=True)


def render_reading(dmap: DeformationMap, seed: int) -> RgbImage:
    """Camera reading of the deformed membrane with seeded speckle and noise.

    The render starts from the cached noise-free unloaded render of the
    frame's shape and re-renders only the pixels of non-zero depth, so an
    all-zero map renders nothing. The noise is drawn over the full frame in
    row-major pixel order, four normals per pixel.
    """
    clean = _rest_rgb(dmap.depths.shape)
    pressed = np.flatnonzero(dmap.depths)
    if pressed.size:
        clean = clean.copy()
        clean.reshape(-1, 3)[pressed] = clean_pixels(dmap, pressed)
    return RgbImage(_noisy_capture(clean, seed))


def reading_pair(dmap: DeformationMap, seed: int):
    """The (reference, contact) readings of one press.

    The reference is the unloaded membrane rendered at seed ``2 * seed``, the
    contact is ``dmap`` rendered at the seed after it.
    """
    zero = DeformationMap(np.zeros_like(dmap.depths), dmap.mask)
    return render_reading(zero, 2 * seed), render_reading(dmap, 2 * seed + 1)


# ---------------------------------------------------------------------------
# Dataset generation


@dataclass(frozen=True)
class DatasetSpec:
    """Sampling protocol for the labeled phantom dataset."""

    diameters_mm: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)
    burial_depths_mm: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    presses_per_positive: int = 4
    positive_mass_g: float = 1000.0
    negative_masses_g: tuple[float, ...] = (1000.0, 1100.0, 1200.0, 1300.0)
    presses_per_negative_mass: int = 35

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   for n in (self.presses_per_positive, self.presses_per_negative_mass)):
            raise TypeError("press counts must be integers")
        values = (*self.diameters_mm, *self.burial_depths_mm, self.positive_mass_g, *self.negative_masses_g)
        if not all(math.isfinite(json_number(x)) for x in values):
            raise ValueError("dataset spec sizes and masses must be finite")
        if self.presses_per_positive < 1 or self.presses_per_negative_mass < 1:
            raise ValueError("press counts must be positive")

    @property
    def n_positive(self) -> int:
        return len(self.diameters_mm) * len(self.burial_depths_mm) * self.presses_per_positive

    @property
    def n_negative(self) -> int:
        return len(self.negative_masses_g) * self.presses_per_negative_mass

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSpec":
        """Spec from a JSON object holding every field."""
        return _from_json_object(cls, "dataset spec", data, required=tuple(f.name for f in fields(cls)))


def _sample_configs(spec: DatasetSpec):
    for d in spec.diameters_mm:
        for depth in spec.burial_depths_mm:
            for press in range(spec.presses_per_positive):
                cfg = PhantomConfig(
                    tumor_present=True,
                    ball_diameter_mm=d,
                    burial_depth_mm=depth,
                    applied_mass_g=spec.positive_mass_g,
                )
                yield f"pos_d{d:g}_b{depth:g}_p{press}", 1, cfg
    for mass in spec.negative_masses_g:
        for press in range(spec.presses_per_negative_mass):
            cfg = PhantomConfig(tumor_present=False, applied_mass_g=mass)
            yield f"neg_m{mass:g}_p{press}", -1, cfg


def dataset_presses(spec: DatasetSpec, seed: int):
    """The protocol's presses in order, each a ``(sample_id, label, config, press_seed)`` tuple; label +1 is a tumor.

    Every phantom config is built, and so validated, and a sample id that two
    configs share is rejected, since the second press's files would overwrite
    the first's. Nothing is rendered: a press is the ``phantom`` verb's press
    of its config at its seed. The press seeds derive from ``seed`` and the
    press index only.
    """
    configs = list(_sample_configs(spec))
    seen = set()
    for sample_id, _, _ in configs:
        if sample_id in seen:
            raise ValueError(f"dataset spec gives two samples the id {sample_id}")
        seen.add(sample_id)
    press_seeds = sub_seeds(seed, STREAM_SAMPLE_SEEDS, len(configs))
    return [(*press, int(press_seed)) for press, press_seed in zip(configs, press_seeds)]
