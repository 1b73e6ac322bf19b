"""Sensor-metrology harness: sensitivity, repeatability, and hysteresis.

The simulated rig presses a small spherical indenter straight into the bare
membrane.  Force maps to cap depth through the membrane's spring response
(force = stiffness * displaced cap volume), the resulting truth profile is
rendered and reconstructed with the calibration model, and the measured
depths drive the metrics:

* detection threshold: least force whose mean in-disc reconstructed depth
  exceeds three times the null-reading noise floor
* resolution: least force gap between adjacent sweep points whose mean-depth
  difference exceeds the noise floor
* saturation: least force at which the full-scale clamp engages, if any
* repeatability r: worst spread across trials at the same ground-truth step,
  as a percentage of the 0.5 mm full scale (``MAX_DEPTH_MM``)
* hysteresis h: worst loading/unloading gap on a shared force grid, as a
  percentage of the same full scale (inputs are smoothed trial averages)

Viscoelastic lag is emulated by scaling the unloading-phase indentation by a
fixed residual fraction.  The rig constants live in ``defaults`` and
are tuned so the harness reproduces the target threshold/saturation/
hysteresis numbers; this checks harness-plus-tuning consistency, not
hardware physics.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import defaults
from .calibration import CalibrationModel, disc_depths
from .imaging import MAX_DEPTH_MM, DeformationMap, SensorGeometry, frozen_array
from .imprint import disc_rows
from .phantom import (
    MembraneModel,
    disc_captures,
    spherical_cap_profile,
    spherical_cap_volume,
    sub_seeds,
)

# Philox stream tags private to this module.
_STREAM_NULL = 20
_STREAM_SWEEP = 21
_STREAM_TRIALS = 22


@dataclass(frozen=True)
class ForceSweep:
    """Measured depths over an ordered force grid, tagged by direction."""

    forces: np.ndarray       # N, increasing when loading, decreasing when unloading
    max_depths: np.ndarray   # mm, peak in-disc reconstructed depth
    mean_depths: np.ndarray  # mm, mean in-disc reconstructed depth
    direction: str           # "loading" | "unloading"

    def __post_init__(self):
        for name in ("forces", "max_depths", "mean_depths"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), np.float64))


@dataclass(frozen=True)
class TrialSet:
    """k repeated measurements over one ordered schedule of true depth steps."""

    step_depths: np.ndarray    # (n,) ground-truth depths, mm
    measurements: np.ndarray   # (k, n) measured depths, mm

    def __post_init__(self):
        object.__setattr__(self, "step_depths", frozen_array(self.step_depths, np.float64))
        object.__setattr__(self, "measurements", frozen_array(self.measurements, np.float64))


def repeatability(measurements) -> float:
    """Worst per-step spread across the trials (rows) of ``measurements``, percent of ``MAX_DEPTH_MM``."""
    m = np.asarray(measurements, dtype=np.float64)
    spread = m.max(axis=0) - m.min(axis=0)
    return float(spread.max() / MAX_DEPTH_MM * 100.0)


def hysteresis(loading_depths, unloading_depths) -> float:
    """Worst |loading - unloading| gap between two depth curves on one force grid, percent of ``MAX_DEPTH_MM``."""
    gap = np.abs(np.asarray(loading_depths, dtype=np.float64) - np.asarray(unloading_depths, dtype=np.float64))
    return float(gap.max() / MAX_DEPTH_MM * 100.0)


def moving_average(values):
    """Centered 3-point moving average; the window truncates at the ends."""
    x = np.asarray(values, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        out[i] = x[max(0, i - 1) : i + 2].mean()
    return out


def null_difference_stat(before, after, geom: SensorGeometry) -> float:
    """Population std of in-disc channel differences, in 8-bit units.

    ``before`` and ``after`` are the sensing-disc pixels (N, 3) of two
    readings, as :func:`disc_captures` yields them.
    """
    if np.shape(before) != (geom.disc_pixel_count, 3) or np.shape(after) != np.shape(before):
        raise ValueError("disc pixels must be one RGB row per sensing-disc pixel")
    diff = np.asarray(after).astype(np.float64) - np.asarray(before).astype(np.float64)
    return float(diff.std())


# ---------------------------------------------------------------------------
# Simulated indenter rig


@dataclass(frozen=True)
class IndenterRig:
    """Geometry, rig-tuned membrane, and indenter of the metrology setup."""

    geometry: SensorGeometry
    membrane: MembraneModel

    @property
    def capacity_n(self) -> float:
        """Largest force the indenter applies: the membrane stiffness times the volume of its hemisphere."""
        return self.membrane.stiffness * spherical_cap_volume(defaults.INDENTER_RADIUS_MM, defaults.INDENTER_RADIUS_MM)

    def force_to_depth(self, force_n: float) -> float:
        """Invert force = stiffness * cap_volume(depth) by bisection."""
        if not force_n > 0:  # NaN too
            raise ValueError("force must be positive")
        if force_n > self.capacity_n:
            raise ValueError(f"force {force_n} N exceeds indenter capacity {self.capacity_n:.4g} N")
        radius = defaults.INDENTER_RADIUS_MM
        lo, hi = 0.0, radius
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.membrane.stiffness * spherical_cap_volume(mid, radius) < force_n:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def truth_profile(self, depth_mm: float, unloading: bool = False) -> DeformationMap:
        """Clamped indentation map for a press of the given cap depth."""
        profile = spherical_cap_profile(depth_mm, defaults.INDENTER_RADIUS_MM, self.geometry)
        if unloading:
            profile = profile * (1.0 - defaults.UNLOADING_LAG_FRACTION)
        clamped = np.minimum(profile, MAX_DEPTH_MM)
        return DeformationMap(clamped.astype(np.float32), self.geometry.disc_mask)


def _measure(rig: IndenterRig, model: CalibrationModel, truths, seed_pairs):
    """For each truth, the disc depths of its captures (see :func:`disc_captures`), one array per seed pair."""
    geom = rig.geometry
    with contextlib.closing(disc_captures(truths, seed_pairs, rig.membrane, geom)) as captures:
        depths = (disc_depths(model, disc_rows(ref, contact, geom)) for _, ref, contact in captures)
        for pairs in seed_pairs:
            yield [next(depths) for _ in pairs]


def noise_floor(rig: IndenterRig, model: CalibrationModel, seed: int) -> float:
    """Mean in-disc std of reconstructions from no-contact reading pairs."""
    seeds = sub_seeds(seed, _STREAM_NULL, (defaults.CHAR_NULL_PAIRS, 2))
    (measured,) = _measure(rig, model, [rig.geometry.zero_map()], [seeds])
    return float(np.mean([float(depths.std()) for depths in measured]))


def run_force_sweep(
    rig: IndenterRig,
    model: CalibrationModel,
    forces,
    seed: int,
    direction: str = "loading",
) -> ForceSweep:
    """Average measured depths over ``defaults.CHAR_TRIALS`` presses per force point, in increasing force when
    ``direction`` is "loading" and in decreasing force when it is "unloading"."""
    if direction not in ("loading", "unloading"):
        raise ValueError(f"direction must be 'loading' or 'unloading', got {direction!r}")
    unloading = direction == "unloading"
    forces = np.asarray(sorted(forces, reverse=unloading), dtype=np.float64)
    seeds = sub_seeds(seed, _STREAM_SWEEP, (len(forces), defaults.CHAR_TRIALS, 2))
    truths = (rig.truth_profile(rig.force_to_depth(float(force)), unloading=unloading) for force in forces)
    max_depths = np.empty(len(forces))
    mean_depths = np.empty(len(forces))
    for i, measured in enumerate(_measure(rig, model, truths, seeds)):
        max_depths[i] = np.mean([depths.max() for depths in measured])
        mean_depths[i] = np.mean([depths.mean() for depths in measured])
    return ForceSweep(forces=forces, max_depths=max_depths, mean_depths=mean_depths, direction=direction)


def repeatability_trials(
    rig: IndenterRig,
    model: CalibrationModel,
    steps=defaults.CHAR_DEPTH_STEPS_MM,
    seed: int = 0,
) -> TrialSet:
    """``defaults.CHAR_TRIALS`` repeated depth-step presses; the measurement is the peak in-disc depth.

    Trial t of step j uses seed pair ``[t, j]``; the loop runs step-major so
    one step's noise-free render serves all its trials.
    """
    steps = np.asarray(steps, dtype=np.float64)
    seeds = sub_seeds(seed, _STREAM_TRIALS, (defaults.CHAR_TRIALS, len(steps), 2))
    truths = (rig.truth_profile(float(depth)) for depth in steps)
    measurements = np.empty((defaults.CHAR_TRIALS, len(steps)))
    for j, measured in enumerate(_measure(rig, model, truths, seeds.transpose(1, 0, 2))):
        measurements[:, j] = [depths.max() for depths in measured]
    return TrialSet(step_depths=steps, measurements=measurements)


@dataclass(frozen=True)
class CharacterizationReport:
    threshold_n: float | None
    resolution_n: float | None
    saturation_n: float | None
    repeatability_pct: float
    hysteresis_pct: float
    null_std: float
    noise_floor_mm: float
    loading: ForceSweep
    unloading: ForceSweep
    trials: TrialSet

    def summary(self) -> dict:
        return {
            "threshold_N": self.threshold_n,
            "resolution_N": self.resolution_n,
            "saturation_N": self.saturation_n,
            "r_pct": self.repeatability_pct,
            "h_pct": self.hysteresis_pct,
            "null_std": self.null_std,
            "noise_floor_mm": self.noise_floor_mm,
        }


def characterize(
    rig: IndenterRig,
    model: CalibrationModel,
    forces=defaults.CHAR_FORCES_N,
    steps=defaults.CHAR_DEPTH_STEPS_MM,
    seed: int = 0,
) -> CharacterizationReport:
    """Run the full metrology protocol on the simulated rig.

    The threshold, force resolution and saturation onset come from the noise
    floor and the loading sweep, the hysteresis from both sweeps.
    """
    forces = sorted(float(f) for f in forces)
    steps = [float(s) for s in steps]
    if len(forces) < 3:
        raise ValueError("need at least three sweep forces")
    if not all(0.0 < f <= rig.capacity_n for f in forces):  # NaN and infinities fail the comparison too
        raise ValueError(f"sweep forces must be in (0, {rig.capacity_n:.4g}] N, the indenter capacity")
    if len(set(forces)) < len(forces):
        raise ValueError("sweep forces must be distinct")
    if not steps or not all(0.0 < s <= defaults.INDENTER_RADIUS_MM for s in steps):
        raise ValueError(f"need depth steps, each in (0, {defaults.INDENTER_RADIUS_MM}] mm, the indenter radius")
    floor = noise_floor(rig, model, seed)
    loading = run_force_sweep(rig, model, forces, seed, direction="loading")

    threshold = None
    for force, mean_depth in zip(loading.forces, loading.mean_depths):
        if mean_depth > 3.0 * floor:
            threshold = float(force)
            break

    resolution = None
    from decimal import Decimal  # here, not at the top: the import adds about 0.3 MB of RSS to every verb
    # Each gap is the step between the forces as written: a 0.005 N step reads 0.005, not 0.0049999999999999975.
    gaps = np.array([float(Decimal(repr(b)) - Decimal(repr(a))) for a, b in zip(forces, forces[1:])])
    depth_diffs = np.diff(loading.max_depths)
    eligible = gaps[depth_diffs > floor]
    if eligible.size:
        resolution = float(eligible.min())

    saturation = None
    for force in loading.forces:
        if rig.force_to_depth(float(force)) >= MAX_DEPTH_MM:
            saturation = float(force)
            break

    unloading = run_force_sweep(rig, model, forces, seed + 1, direction="unloading")
    # Each curve is smoothed in its sweep order (a mean over a reversed window can round differently).
    h = hysteresis(moving_average(loading.max_depths), moving_average(unloading.max_depths)[::-1])
    trials = repeatability_trials(rig, model, steps=steps, seed=seed + 2)
    r = repeatability(trials.measurements)

    null_seeds = sub_seeds(seed + 3, _STREAM_NULL, (1, 1, 2))
    ((_, before, after),) = disc_captures([rig.geometry.zero_map()], null_seeds, rig.membrane, rig.geometry)
    null_std = null_difference_stat(before, after, rig.geometry)

    return CharacterizationReport(
        threshold_n=threshold,
        resolution_n=resolution,
        saturation_n=saturation,
        repeatability_pct=r,
        hysteresis_pct=h,
        null_std=null_std,
        noise_floor_mm=floor,
        loading=loading,
        unloading=unloading,
        trials=trials,
    )
