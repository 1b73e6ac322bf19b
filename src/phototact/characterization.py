"""Sensor-metrology harness: sensitivity, repeatability, and hysteresis.

The simulated rig presses a small spherical indenter straight into the bare
membrane.  Force maps to cap depth through the membrane's spring response
(force = stiffness * displaced cap volume), the resulting truth profile is
rendered and reconstructed with the calibration model, and the measured
depths drive the metrics:

* detection threshold: least force whose mean in-disc reconstructed depth
  exceeds three times the null-reading noise floor
* resolution: least force gap between adjacent loading-sweep points whose
  peak-depth difference (``ForceSweep.max_depths``) exceeds the noise floor
* saturation: first grid force whose commanded cap depth (``force_to_depth``)
  reaches the 0.5 mm full scale (``MAX_DEPTH_MM``), if any; no reconstruction
  enters it
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
import itertools
from dataclasses import dataclass

import numpy as np

from . import defaults
from .calibration import CalibrationModel, disc_depths
from .imaging import MAX_DEPTH_MM, DeformationMap, SensorGeometry, frozen_array
from .imprint import disc_rows
from .phantom import (
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

# Largest force the indenter applies: the rig membrane's stiffness times the volume of the indenter's hemisphere.
INDENTER_CAPACITY_N = defaults.RIG_MEMBRANE_STIFFNESS * spherical_cap_volume(
    defaults.INDENTER_RADIUS_MM, defaults.INDENTER_RADIUS_MM)


def force_to_depth(force_n: float) -> float:
    """Cap depth (mm) of the indenter at ``force_n``: invert force = rig stiffness * cap_volume(depth) by bisection."""
    if not force_n > 0:  # NaN too
        raise ValueError("force must be positive")
    if force_n > INDENTER_CAPACITY_N:
        raise ValueError(f"force {force_n} N exceeds indenter capacity {INDENTER_CAPACITY_N:.4g} N")
    radius = defaults.INDENTER_RADIUS_MM
    lo, hi = 0.0, radius
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if defaults.RIG_MEMBRANE_STIFFNESS * spherical_cap_volume(mid, radius) < force_n:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def indenter_truth(depth_mm: float, geom: SensorGeometry, unloading: bool = False) -> DeformationMap:
    """Clamped indentation map of the indenter pressed to the given cap depth."""
    profile = spherical_cap_profile(depth_mm, defaults.INDENTER_RADIUS_MM, geom)
    if unloading:
        profile = profile * (1.0 - defaults.UNLOADING_LAG_FRACTION)
    clamped = np.minimum(profile, MAX_DEPTH_MM)
    return DeformationMap(clamped.astype(np.float32), geom.disc_mask)


def noise_floor(measured) -> float:
    """Mean in-disc std of reconstructions from no-contact reading pairs.

    ``measured`` yields, for each no-contact map, the disc depths of each of
    its pairs (see :func:`characterize`). There, every pair shares one
    reference capture, and each pair's contact capture is a fresh draw.
    """
    return float(np.mean([float(depths.std()) for pairs in measured for depths in pairs]))


def run_force_sweep(forces, measured, direction: str) -> ForceSweep:
    """Mean peak and mean in-disc depth of each force point's presses.

    ``forces`` run in increasing force when ``direction`` is "loading" and in
    decreasing force when it is "unloading"; ``measured`` yields the disc
    depths of each force's presses in that order.
    """
    if direction not in ("loading", "unloading"):
        raise ValueError(f"direction must be 'loading' or 'unloading', got {direction!r}")
    max_depths, mean_depths = [], []
    for pressed in measured:
        peaks, means = zip(*[(depths.max(), depths.mean()) for depths in pressed])
        max_depths.append(np.mean(peaks))
        mean_depths.append(np.mean(means))
    return ForceSweep(forces=forces, max_depths=max_depths, mean_depths=mean_depths, direction=direction)


def repeatability_trials(steps, measured) -> TrialSet:
    """Peak in-disc depth of each repeated press of each depth step.

    ``measured`` yields, step by step, the disc depths of the step's trials;
    row t of the measurements is trial t.
    """
    peaks = [[depths.max() for depths in trials] for trials in measured]
    return TrialSet(step_depths=steps, measurements=np.transpose(peaks))


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
    geom: SensorGeometry,
    model: CalibrationModel,
    forces=defaults.CHAR_FORCES_N,
    steps=defaults.CHAR_DEPTH_STEPS_MM,
    *,
    seed: int,
) -> CharacterizationReport:
    """Run the full metrology protocol on the simulated rig: the indenter pressed into the sensor's one membrane.

    The protocol is the press table of one :func:`disc_captures` stream: phases in capture order, each with its
    truths, each map built only when the stream reaches it, and their seed pairs from :func:`sub_seeds`:

    * noise floor: ``CHAR_NULL_PAIRS`` no-contact pairs, from (``seed``, ``_STREAM_NULL``);
    * loading sweep: ``CHAR_TRIALS`` presses per force in increasing force, from (``seed``, ``_STREAM_SWEEP``);
    * unloading sweep: the same in decreasing force with the unloading lag, from (``seed + 1``, ``_STREAM_SWEEP``);
    * trials: ``CHAR_TRIALS`` presses per depth step, step by step; trial t of step j takes pair [t, j] of
      (``seed + 2``, ``_STREAM_TRIALS``);
    * null pair: one no-contact pair, from (``seed + 3``, ``_STREAM_NULL``).

    Each phase is compared against one no-contact reference, as a rig tares once: every pair of the phase takes
    the reference seed of its first pair (trial 0 of step 0 for the trials), so the stream draws it once. Every
    contact seed keeps its draw.

    :func:`noise_floor`, :func:`run_force_sweep` and :func:`repeatability_trials` reduce their phase's disc depths
    as the stream hands them over, and :func:`null_difference_stat` the disc pixels of its last pair. The threshold,
    force resolution and saturation onset come from the noise floor and the loading sweep, the hysteresis from both
    sweeps.
    """
    forces = sorted(float(f) for f in forces)
    steps = [float(s) for s in steps]
    if len(forces) < 3:
        raise ValueError("need at least three sweep forces")
    if not all(0.0 < f <= INDENTER_CAPACITY_N for f in forces):  # NaN and infinities fail the comparison too
        raise ValueError(f"sweep forces must be in (0, {INDENTER_CAPACITY_N:.4g}] N, the indenter capacity")
    if len(set(forces)) < len(forces):
        raise ValueError("sweep forces must be distinct")
    if not steps or not all(0.0 < s <= defaults.INDENTER_RADIUS_MM for s in steps):
        raise ValueError(f"need depth steps, each in (0, {defaults.INDENTER_RADIUS_MM}] mm, the indenter radius")
    depths = [force_to_depth(force) for force in forces]
    sweep = (len(forces), defaults.CHAR_TRIALS, 2)
    protocol = {  # phase: (truths, the seed pairs of each truth), in capture order
        "noise floor": (map(SensorGeometry.zero_map, [geom]),
                        sub_seeds(seed, _STREAM_NULL, (1, defaults.CHAR_NULL_PAIRS, 2))),
        "loading": ((indenter_truth(d, geom) for d in depths), sub_seeds(seed, _STREAM_SWEEP, sweep)),
        "unloading": ((indenter_truth(d, geom, unloading=True) for d in depths[::-1]),
                      sub_seeds(seed + 1, _STREAM_SWEEP, sweep)),
        "trials": ((indenter_truth(s, geom) for s in steps),
                   sub_seeds(seed + 2, _STREAM_TRIALS, (defaults.CHAR_TRIALS, len(steps), 2)).transpose(1, 0, 2)),
        "null pair": (map(SensorGeometry.zero_map, [geom]), sub_seeds(seed + 3, _STREAM_NULL, (1, 1, 2))),
    }
    for _, pairs in protocol.values():  # one reference per phase: its first pair's
        pairs[..., 0] = pairs[0, 0, 0]
    with contextlib.closing(disc_captures(protocol.values(), geom)) as captures:

        def measured(phase):
            """For each truth of ``phase``, the disc depths of its captures, reconstructed as they are read."""
            for pairs in protocol[phase][1]:
                yield (disc_depths(model, disc_rows(ref, contact, geom)) for _, ref, contact in
                       itertools.islice(captures, len(pairs)))

        floor = noise_floor(measured("noise floor"))
        loading = run_force_sweep(forces, measured("loading"), direction="loading")
        unloading = run_force_sweep(forces[::-1], measured("unloading"), direction="unloading")
        trials = repeatability_trials(steps, measured("trials"))
        ((_, before, after),) = captures
        null_std = null_difference_stat(before, after, geom)

    threshold = next((f for f, mean_depth in zip(forces, loading.mean_depths) if mean_depth > 3.0 * floor), None)
    from decimal import Decimal  # here, not at the top: the import adds about 0.3 MB of RSS to every verb
    # Each gap is the step between the forces as written: a 0.005 N step reads 0.005, not 0.0049999999999999975.
    gaps = np.array([float(Decimal(repr(b)) - Decimal(repr(a))) for a, b in zip(forces, forces[1:])])
    eligible = gaps[np.diff(loading.max_depths) > floor]
    resolution = float(eligible.min()) if eligible.size else None
    saturation = next((f for f, depth in zip(forces, depths) if depth >= MAX_DEPTH_MM), None)
    # Each curve is smoothed in its sweep order (a mean over a reversed window can round differently).
    h = hysteresis(moving_average(loading.max_depths), moving_average(unloading.max_depths)[::-1])
    r = repeatability(trials.measurements)

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
