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
noise.  All randomness is drawn from counter-based (Philox) streams keyed by
(seed, stream), so outputs never depend on evaluation order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import defaults
from .imaging import (
    MAX_DEPTH_MM,
    DeformationMap,
    HsvImage,
    RgbImage,
    SensorGeometry,
    hsv_to_rgb_real,
    quantize_channels,
)

# Philox stream tags; each (seed, stream) pair is an independent noise source.
STREAM_RENDER = 0
STREAM_BASELINE = 1
STREAM_CAPTURE = 2
STREAM_SAMPLE_SEEDS = 3


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream) pair."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def grams_to_newtons(mass_g: float) -> float:
    return mass_g * defaults.GRAVITY_M_S2 / 1000.0


@dataclass(frozen=True)
class PhantomConfig:
    """Phantom geometry and press parameters for one contact."""

    tumor_present: bool
    ball_diameter_mm: float = 6.0
    burial_depth_mm: float = 3.0
    lateral_offset_mm: tuple[float, float] = (0.0, 0.0)
    tissue_stiffness: float = defaults.TISSUE_STIFFNESS
    tumor_stiffness_boost: float = defaults.TUMOR_STIFFNESS_BOOST
    applied_mass_g: float = 1000.0

    def __post_init__(self):
        values = (
            self.ball_diameter_mm,
            self.burial_depth_mm,
            *self.lateral_offset_mm,
            self.tissue_stiffness,
            self.tumor_stiffness_boost,
            self.applied_mass_g,
        )
        if not all(math.isfinite(float(x)) for x in values):
            raise ValueError("phantom parameters must be finite")
        if self.applied_mass_g <= 0:
            raise ValueError("applied mass must be positive")
        if self.tissue_stiffness <= 0 or self.tumor_stiffness_boost <= 0:
            raise ValueError("stiffnesses must be positive")
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
        """Config from a JSON object; absent optional keys take the field defaults."""
        if not isinstance(data, dict):
            raise ValueError("phantom config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown phantom config keys: {', '.join(unknown)}")
        if "tumor_present" not in data:
            raise ValueError("phantom config needs 'tumor_present'")
        try:
            values = {k: float(v) for k, v in data.items() if k not in ("tumor_present", "lateral_offset_mm")}
            if "lateral_offset_mm" in data:
                values["lateral_offset_mm"] = tuple(float(x) for x in data["lateral_offset_mm"])
        except TypeError:
            raise ValueError("phantom config values must be numbers") from None
        if len(values.get("lateral_offset_mm", (0.0, 0.0))) != 2:
            raise ValueError("lateral offset must be an (x, y) pair")
        return cls(tumor_present=bool(data["tumor_present"]), **values)


@dataclass(frozen=True)
class MembraneModel:
    """Baseline membrane color plus its depth response and noise parameters."""

    baseline: HsvImage
    gain_h: float = defaults.GAIN_H_DEG_PER_MM      # degrees per mm
    gain_s: float = defaults.GAIN_S_PER_MM          # per mm
    gain_v: float = defaults.GAIN_V_PER_MM          # per mm
    noise_std: float = defaults.SENSOR_NOISE_STD    # 8-bit channel units
    speckle_amplitude: float = defaults.SPECKLE_AMPLITUDE
    stiffness: float = defaults.MEMBRANE_STIFFNESS  # N/mm^3
    max_depth: float = MAX_DEPTH_MM                 # mm

    def __post_init__(self):
        if self.stiffness <= 0:
            raise ValueError("membrane stiffness must be positive")
        if self.max_depth <= 0:
            raise ValueError("max depth must be positive")
        if self.noise_std < 0 or self.speckle_amplitude < 0:
            raise ValueError("noise parameters must be non-negative")

    def with_stiffness(self, stiffness: float) -> "MembraneModel":
        return replace(self, stiffness=stiffness)

    @cached_property
    def rest_rgb(self) -> np.ndarray:
        """Noise-free real RGB of the unloaded membrane (read-only), computed once per model."""
        shape = self.baseline.pixels.shape[:2]
        unloaded = DeformationMap(np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=bool))
        real = _hsv_rgb(deformed_hsv(unloaded, self))
        real.setflags(write=False)
        return real


def _smooth_field(u, v, rng, modes=3):
    """Low-frequency field in [-1, 1] from seeded cosine modes over (u, v)."""
    total = np.zeros_like(u)
    weight = 0.0
    for _ in range(modes):
        amp = rng.uniform(0.4, 1.0)
        fu = rng.integers(1, 4)
        fv = rng.integers(1, 4)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        total += amp * np.cos(2.0 * math.pi * (fu * u + fv * v) + phase)
        weight += amp
    return total / weight


def default_membrane(geom: SensorGeometry, seed: int = defaults.MEMBRANE_SEED, **overrides) -> MembraneModel:
    """Membrane with a smooth red-ish baseline generated from ``seed``.

    The baseline varies in normalized coordinates, so different resolutions
    sample the same underlying membrane.
    """
    rng = rng_stream(seed, STREAM_BASELINE)
    u, v = geom.normalized_coords
    hue = np.mod(defaults.BASELINE_HUE_SPAN_DEG * _smooth_field(u, v, rng), 360.0)
    sat = defaults.BASELINE_SATURATION + defaults.BASELINE_SV_SPAN * _smooth_field(u, v, rng)
    val = defaults.BASELINE_VALUE + defaults.BASELINE_SV_SPAN * _smooth_field(u, v, rng)
    baseline = HsvImage(np.stack([hue, sat, val], axis=-1))
    return MembraneModel(baseline=baseline, **overrides)


@dataclass(frozen=True)
class ContactSolution:
    """Foundation pressure, punch settlement, and resulting indentation map."""

    pressure: np.ndarray          # N/mm^2, zero outside the sensing disc
    rigid_displacement: float     # mm
    deformation: DeformationMap


def stiffness_field(cfg: PhantomConfig, geom: SensorGeometry) -> np.ndarray:
    """Foundation modulus k(x, y) in N/mm^3 over the pixel grid."""
    k = np.full((geom.height, geom.width), cfg.tissue_stiffness, dtype=np.float64)
    if cfg.tumor_present:
        gx, gy = geom.coords_mm
        ox, oy = cfg.lateral_offset_mm
        r_sq = (gx - ox) ** 2 + (gy - oy) ** 2
        spread = cfg.ball_diameter_mm / (2.0 * math.sqrt(2.0))
        attenuation = math.exp(-cfg.burial_depth_mm / defaults.DEPTH_ATTENUATION_MM)
        k = k + cfg.tumor_stiffness_boost * attenuation * np.exp(-r_sq / (2.0 * spread**2))
    return k


def contact_solve(cfg: PhantomConfig, geom: SensorGeometry, model: MembraneModel) -> ContactSolution:
    """Rigid flat punch pressed with cfg's force onto the Winkler foundation."""
    k = stiffness_field(cfg, geom)
    mask = geom.disc_mask
    area_element = geom.mm_per_pixel**2
    stiffness_integral = float(k[mask].sum()) * area_element
    if stiffness_integral <= 0.0:
        raise ValueError("degenerate foundation")
    displacement = cfg.force_n / stiffness_integral
    pressure = np.where(mask, k * displacement, 0.0)
    depths = np.clip(pressure / model.stiffness, 0.0, model.max_depth)
    deformation = DeformationMap(np.where(mask, depths, 0.0).astype(np.float32), mask)
    return ContactSolution(pressure=pressure, rigid_displacement=displacement, deformation=deformation)


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


def sphere_press_truth(press_depth: float, sphere_radius: float, geom: SensorGeometry) -> DeformationMap:
    """Ground-truth indentation map for a centered sphere press.

    ``press_depth`` must lie in (0, min(sphere_radius, MAX_DEPTH_MM)].
    """
    if sphere_radius <= 0:
        raise ValueError("sphere radius must be positive")
    if press_depth <= 0 or press_depth > min(sphere_radius, MAX_DEPTH_MM):
        raise ValueError("press depth must lie in (0, min(radius, max depth)]")
    return DeformationMap(spherical_cap_profile(press_depth, sphere_radius, geom).astype(np.float32), geom.disc_mask)


def _shifted_hsv(base, depth, model: MembraneModel) -> HsvImage:
    """Baseline HSV pixels ``base`` (h, w, 3) shifted by the response to ``depth`` (h, w), in mm."""
    hue = np.mod(base[..., 0] + model.gain_h * depth, 360.0)
    hue = np.where(hue >= 360.0, 0.0, hue)
    sat = np.clip(base[..., 1] + model.gain_s * depth, 0.0, 1.0)
    val = np.clip(base[..., 2] + model.gain_v * depth, 0.0, 1.0)
    return HsvImage(np.stack([hue, sat, val], axis=-1))


def deformed_hsv(dmap: DeformationMap, model: MembraneModel) -> HsvImage:
    """Noise-free HSV response of the membrane to the given indentation."""
    if model.baseline.pixels.shape[:2] != dmap.depths.shape:
        raise ValueError("deformation map does not match membrane baseline size")
    return _shifted_hsv(model.baseline.pixels, dmap.depths.astype(np.float64), model)


def _hsv_rgb(hsv: HsvImage) -> np.ndarray:
    return hsv_to_rgb_real(hsv.hue, hsv.saturation, hsv.value)


def clean_rgb(dmap: DeformationMap, model: MembraneModel) -> np.ndarray:
    """Noise-free real-valued RGB (height, width, 3) of the membrane under ``dmap``.

    It does not depend on any seed, so a caller that captures one deformation
    several times computes it once; an all-zero map returns the membrane's
    cached :attr:`MembraneModel.rest_rgb`.
    """
    if model.baseline.pixels.shape[:2] != dmap.depths.shape:
        raise ValueError("deformation map does not match membrane baseline size")
    if not dmap.depths.any():
        return model.rest_rgb
    return _hsv_rgb(deformed_hsv(dmap, model))


def clean_pixels(dmap: DeformationMap, model: MembraneModel, mask) -> np.ndarray:
    """Noise-free real RGB (N, 3) of the ``mask`` pixels, in row-major order.

    Every pixel's color depends on that pixel only, so this is
    ``clean_rgb(dmap, model)[mask]`` computed on the masked pixels alone.
    """
    if model.baseline.pixels.shape[:2] != dmap.depths.shape or mask.shape != dmap.depths.shape:
        raise ValueError("deformation map does not match membrane baseline size")
    # A one-row image of the masked pixels keeps the HsvImage range checks.
    hsv = _shifted_hsv(model.baseline.pixels[mask][None], dmap.depths[mask].astype(np.float64)[None], model)
    return _hsv_rgb(hsv)[0]


def _noisy_channels(clean, noise, model: MembraneModel) -> np.ndarray:
    """8-bit channels of ``clean`` (..., 3) under speckle ``noise[..., 0]`` and channel noise ``noise[..., 1:4]``."""
    speckle = 1.0 + model.speckle_amplitude * noise[..., 0]
    noisy = clean * speckle[..., None]
    noisy += model.noise_std * noise[..., 1:4]
    return quantize_channels(noisy)


def capture_reading(clean: np.ndarray, model: MembraneModel, seed: int) -> RgbImage:
    """8-bit camera reading of a noise-free render with seeded speckle and channel noise.

    The noise is drawn over the full frame in row-major pixel order, four
    normals per pixel, so a reading depends only on (clean, seed) and not on
    which pixels a consumer reads.
    """
    noise = rng_stream(seed, STREAM_RENDER).standard_normal(clean.shape[:2] + (4,))
    return RgbImage(_noisy_channels(clean, noise, model))


def capture_pixels(clean_px: np.ndarray, model: MembraneModel, seed: int, mask) -> np.ndarray:
    """uint8 (N, 3) of ``capture_reading(clean, model, seed).pixels[mask]``, from ``clean_px = clean[mask]``.

    The normals are drawn only through the last row the mask touches: a
    Philox normal fill is a prefix of any longer fill from the same stream.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or clean_px.shape != (np.count_nonzero(mask), 3):
        raise ValueError("clean pixels must be one RGB row per mask pixel")
    touched = np.flatnonzero(mask.any(axis=1))
    rows = int(touched[-1]) + 1 if touched.size else 0
    noise = rng_stream(seed, STREAM_RENDER).standard_normal((rows, mask.shape[1], 4))
    return _noisy_channels(clean_px, noise[mask[:rows]], model)


def render_reading(dmap: DeformationMap, model: MembraneModel, seed: int) -> RgbImage:
    """Camera reading of the deformed membrane with seeded speckle and noise."""
    return capture_reading(clean_rgb(dmap, model), model, seed)


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
        if self.presses_per_positive < 1 or self.presses_per_negative_mass < 1:
            raise ValueError("press counts must be positive")

    @property
    def n_positive(self) -> int:
        return len(self.diameters_mm) * len(self.burial_depths_mm) * self.presses_per_positive

    @property
    def n_negative(self) -> int:
        return len(self.negative_masses_g) * self.presses_per_negative_mass

    def to_dict(self) -> dict:
        return {
            "diameters_mm": list(self.diameters_mm),
            "burial_depths_mm": list(self.burial_depths_mm),
            "presses_per_positive": self.presses_per_positive,
            "positive_mass_g": self.positive_mass_g,
            "negative_masses_g": list(self.negative_masses_g),
            "presses_per_negative_mass": self.presses_per_negative_mass,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSpec":
        return cls(
            diameters_mm=tuple(data["diameters_mm"]),
            burial_depths_mm=tuple(data["burial_depths_mm"]),
            presses_per_positive=int(data["presses_per_positive"]),
            positive_mass_g=float(data["positive_mass_g"]),
            negative_masses_g=tuple(data["negative_masses_g"]),
            presses_per_negative_mass=int(data["presses_per_negative_mass"]),
        )


@dataclass(frozen=True)
class PhantomSample:
    """One labeled press: capture pair, ground truth, and its provenance."""

    sample_id: str
    label: int                      # +1 tumor, -1 no tumor
    config: PhantomConfig
    reading_ref: RgbImage
    reading_contact: RgbImage
    truth: DeformationMap
    sample_seed: int


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


def generate_phantom_dataset(spec: DatasetSpec, geom: SensorGeometry, model: MembraneModel, seed: int):
    """Yield :class:`PhantomSample` objects for the full protocol, in order.

    Sample seeds derive from ``seed`` and the sample index only, so the
    stream is reproducible and independent of consumption pattern.
    """
    configs = list(_sample_configs(spec))
    sample_seeds = rng_stream(seed, STREAM_SAMPLE_SEEDS).integers(0, 2**62, size=len(configs))
    zero = geom.zero_map()
    for (sample_id, label, cfg), sample_seed in zip(configs, sample_seeds):
        sample_seed = int(sample_seed)
        solution = contact_solve(cfg, geom, model)
        yield PhantomSample(
            sample_id=sample_id,
            label=label,
            config=cfg,
            reading_ref=render_reading(zero, model, 2 * sample_seed),
            reading_contact=render_reading(solution.deformation, model, 2 * sample_seed + 1),
            truth=solution.deformation,
            sample_seed=sample_seed,
        )


DATASET_CSV_FIELDS = ("sample_id", "label", "ball_diameter_mm", "burial_depth_mm", "applied_mass_g", "seed")


def dataset_manifest_rows(samples) -> str:
    """CSV manifest text (one row per sample) for a dataset directory."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATASET_CSV_FIELDS)
    for s in samples:
        writer.writerow(
            [
                s.sample_id,
                s.label,
                s.config.ball_diameter_mm if s.config.tumor_present else "",
                s.config.burial_depth_mm if s.config.tumor_present else "",
                s.config.applied_mass_g,
                s.sample_seed,
            ]
        )
    return buf.getvalue()
