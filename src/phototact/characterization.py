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
  as a percentage of full scale
* hysteresis h: worst loading/unloading gap on a shared force grid, as a
  percentage of full scale (inputs are smoothed trial averages)

Viscoelastic lag is emulated by scaling the unloading-phase indentation by a
fixed residual fraction.  The rig constants live in ``defaults`` and
are tuned so the harness reproduces the target threshold/saturation/
hysteresis numbers; this checks harness-plus-tuning consistency, not
hardware physics.
"""

from __future__ import annotations

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

    forces: np.ndarray       # N
    max_depths: np.ndarray   # mm, peak in-disc reconstructed depth
    mean_depths: np.ndarray  # mm, mean in-disc reconstructed depth
    direction: str           # "loading" | "unloading"

    def __post_init__(self):
        forces = frozen_array(self.forces, np.float64)
        max_depths = frozen_array(self.max_depths, np.float64)
        mean_depths = frozen_array(self.mean_depths, np.float64)
        if forces.ndim != 1 or forces.shape != max_depths.shape or forces.shape != mean_depths.shape:
            raise ValueError("sweep columns must be matching 1-D arrays")
        if self.direction not in ("loading", "unloading"):
            raise ValueError("direction must be 'loading' or 'unloading'")
        steps = np.diff(forces)
        if self.direction == "loading" and not np.all(steps > 0):
            raise ValueError("loading forces must be strictly increasing")
        if self.direction == "unloading" and not np.all(steps < 0):
            raise ValueError("unloading forces must be strictly decreasing")
        object.__setattr__(self, "forces", forces)
        object.__setattr__(self, "max_depths", max_depths)
        object.__setattr__(self, "mean_depths", mean_depths)


@dataclass(frozen=True)
class TrialSet:
    """k repeated measurements over one ordered schedule of true depth steps."""

    step_depths: np.ndarray    # (n,) ground-truth depths, mm
    measurements: np.ndarray   # (k, n) measured depths, mm
    max_depth: float

    def __post_init__(self):
        steps = frozen_array(self.step_depths, np.float64)
        meas = frozen_array(self.measurements, np.float64)
        if steps.ndim != 1 or meas.ndim != 2 or meas.shape[1] != steps.shape[0]:
            raise ValueError("measurements must be (trials, steps)")
        if meas.shape[0] < 2:
            raise ValueError("need at least two trials")
        if self.max_depth <= 0:
            raise ValueError("max depth must be positive")
        object.__setattr__(self, "step_depths", steps)
        object.__setattr__(self, "measurements", meas)


def repeatability(trials: TrialSet) -> float:
    """Worst per-step spread across trials, as a percentage of full scale."""
    spread = trials.measurements.max(axis=0) - trials.measurements.min(axis=0)
    return float(spread.max() / trials.max_depth * 100.0)


def hysteresis(loading: ForceSweep, unloading: ForceSweep, max_depth: float) -> float:
    """Worst |loading - unloading| gap over the shared grid, percent of full scale.

    Callers smooth the curves first (see :func:`smooth_sweep`); this function
    only evaluates the gap.
    """
    if max_depth <= 0:
        raise ValueError("max depth must be positive")
    if loading.forces.shape != unloading.forces.shape or not np.allclose(
        loading.forces, unloading.forces[::-1] if unloading.direction == "unloading" else unloading.forces
    ):
        raise ValueError("sweeps must share one force grid")
    unload_depths = unloading.max_depths[::-1] if unloading.direction == "unloading" else unloading.max_depths
    gap = np.abs(loading.max_depths - unload_depths)
    return float(gap.max() / max_depth * 100.0)


def moving_average(values):
    """Centered 3-point moving average; the window truncates at the ends."""
    x = np.asarray(values, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        out[i] = x[max(0, i - 1) : i + 2].mean()
    return out


def smooth_sweep(sweep: ForceSweep) -> ForceSweep:
    return ForceSweep(
        forces=sweep.forces,
        max_depths=moving_average(sweep.max_depths),
        mean_depths=moving_average(sweep.mean_depths),
        direction=sweep.direction,
    )


def null_difference_stat(before, after, geom: SensorGeometry) -> float:
    """Population std of in-disc channel differences, in 8-bit units.

    ``before`` and ``after`` are the sensing-disc pixels (N, 3) of two
    readings, as :func:`capture_pixels` returns them.
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

    def force_to_depth(self, force_n: float) -> float:
        """Invert force = stiffness * cap_volume(depth) by bisection."""
        if force_n <= 0:
            raise ValueError("force must be positive")
        radius = defaults.INDENTER_RADIUS_MM
        capacity = self.membrane.stiffness * spherical_cap_volume(radius, radius)
        if force_n > capacity:
            raise ValueError(f"force {force_n} N exceeds indenter capacity {capacity:.4g} N")
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
    for _, captures in disc_captures(truths, seed_pairs, rig.membrane, geom):
        yield [disc_depths(model, disc_rows(ref, contact, geom)) for ref, contact in captures]


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
    """Average measured depths over ``defaults.CHAR_TRIALS`` presses per force point."""
    forces = np.asarray(sorted(forces) if direction == "loading" else sorted(forces, reverse=True), dtype=np.float64)
    unloading = direction == "unloading"
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
    return TrialSet(step_depths=steps, measurements=measurements, max_depth=float(steps.max()))


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
    if len(forces) < 3:
        raise ValueError("need at least three sweep forces")
    floor = noise_floor(rig, model, seed)
    loading = run_force_sweep(rig, model, forces, seed, direction="loading")

    threshold = None
    for force, mean_depth in zip(loading.forces, loading.mean_depths):
        if mean_depth > 3.0 * floor:
            threshold = float(force)
            break

    resolution = None
    gaps = np.diff(loading.forces)
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
    h = hysteresis(smooth_sweep(loading), smooth_sweep(unloading), MAX_DEPTH_MM)
    trials = repeatability_trials(rig, model, steps=steps, seed=seed + 2)
    r = repeatability(trials)

    null_seeds = sub_seeds(seed + 3, _STREAM_NULL, (1, 1, 2))
    ((_, captures),) = disc_captures([rig.geometry.zero_map()], null_seeds, rig.membrane, rig.geometry)
    ((before, after),) = captures
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
