import math

import numpy as np
import pytest

import phototact as pt
from phototact.calibration import LAYER_SIZES, TrainConfig
from phototact.imprint import ImprintParams
from phototact.phantom import PhantomConfig

NON_FINITE = [math.nan, math.inf, -math.inf]
BASELINE = np.full((2, 2, 3), [10.0, 0.5, 0.5])

CASES = [
    (PhantomConfig, {"tumor_present": True}, "applied_mass_g"),
    (PhantomConfig, {"tumor_present": True}, "ball_diameter_mm"),
    (PhantomConfig, {"tumor_present": False}, "burial_depth_mm"),
    (ImprintParams, {}, "alpha"),
    (ImprintParams, {}, "beta"),
    (pt.SensorGeometry, {}, "mm_per_pixel"),
    (TrainConfig, {}, "learning_rate"),
    (pt.MembraneModel, {"baseline": BASELINE}, "noise_std"),
    (pt.MembraneModel, {"baseline": BASELINE}, "speckle_amplitude"),
    (pt.DatasetSpec, {}, "positive_mass_g"),
]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("cls, base, field", CASES, ids=[f"{c.__name__}.{f}" for c, _, f in CASES])
def test_non_finite_rejected(cls, base, field, value):
    cls(**base)  # the base configuration itself is valid
    with pytest.raises(ValueError, match="finite"):
        cls(**base, **{field: value})


@pytest.mark.parametrize("field", ["diameters_mm", "burial_depths_mm", "negative_masses_g"])
def test_non_finite_dataset_spec_entry_rejected(field):
    with pytest.raises(ValueError, match="finite"):
        pt.DatasetSpec(**{field: (4.0, math.nan)})


@pytest.mark.parametrize("offset", [(math.nan, 0.0), (0.0, math.inf)])
def test_non_finite_lateral_offset_rejected(offset):
    with pytest.raises(ValueError, match="finite"):
        PhantomConfig(tumor_present=True, lateral_offset_mm=offset)


def test_lateral_offset_must_be_a_pair():
    with pytest.raises(ValueError, match=r"lateral offset must be an \(x, y\) pair"):
        PhantomConfig(tumor_present=True, lateral_offset_mm=(1.0,))


def test_phantom_parameters_must_be_numbers():
    with pytest.raises(TypeError, match="expected a number, got '6'"):
        PhantomConfig(tumor_present=True, ball_diameter_mm="6")


@pytest.mark.parametrize(
    "baseline, message",
    [
        (np.full((2, 2), 0.5), "shaped"),
        (np.full((2, 2, 4), 0.5), "shaped"),
        (np.full((0, 2, 3), 0.5), "shaped"),
        (np.full((2, 2, 3), [360.0, 0.5, 0.5]), "hue"),
        (np.full((2, 2, 3), [-1.0, 0.5, 0.5]), "hue"),
        (np.full((2, 2, 3), [10.0, 1.5, 0.5]), "saturation"),
        (np.full((2, 2, 3), [10.0, 0.5, -0.1]), "value"),
        (np.full((2, 2, 3), [math.nan, 0.5, 0.5]), "hue"),
    ],
    ids=["2-d", "4-channels", "empty", "hue-360", "hue-negative", "saturation-1.5", "value-negative", "hue-nan"],
)
def test_membrane_baseline_rejected(baseline, message):
    with pytest.raises(ValueError, match=message):
        pt.MembraneModel(baseline=baseline)


@pytest.mark.parametrize("field", ["noise_std", "speckle_amplitude"])
def test_membrane_noise_ceiling(field):
    """0 to 255 is the amplitude's range: past 255 every channel is already clipped noise, and near 1e308 the render
    overflows."""
    assert getattr(pt.MembraneModel(baseline=BASELINE, **{field: 255.0}), field) == 255.0
    for value in (-1.0, 255.5, 1e308):
        with pytest.raises(ValueError, match="noise parameters must be non-negative and at most 255"):
            pt.MembraneModel(baseline=BASELINE, **{field: value})


def test_membrane_baseline_is_a_frozen_float64_copy():
    given = np.full((2, 3, 3), [359.5, 1.0, 0.0], dtype=np.float32)
    model = pt.MembraneModel(baseline=given)
    assert model.baseline.dtype == np.float64 and model.baseline.shape == (2, 3, 3)
    assert np.array_equal(model.baseline, given)
    with pytest.raises(ValueError, match="read-only"):
        model.baseline[0, 0, 0] = 1.0
    given[0, 0, 0] = 1.0
    assert model.baseline[0, 0, 0] == 359.5


# Each class that stores arrays, with a factory of constructor arguments whose arrays need no conversion.
ARRAY_OWNERS = {
    "CalibrationModel": (pt.CalibrationModel, lambda: {
        "weights": tuple(np.ones((m, n), np.float32) for m, n in zip(LAYER_SIZES, LAYER_SIZES[1:])),
        "biases": tuple(np.zeros(n, np.float32) for n in LAYER_SIZES[1:]),
        "feature_shift": np.zeros(LAYER_SIZES[0], np.float32),
        "feature_scale": np.ones(LAYER_SIZES[0], np.float32),
    }),
    "DetectorModel": (pt.DetectorModel, lambda: {"mean": np.zeros(2), "std": np.ones(2),
                                                 "weights": np.array([1.0, 0.5]), "bias": 0.0}),
    "ForceSweep": (pt.ForceSweep, lambda: {"forces": np.array([0.1, 0.2]), "max_depths": np.zeros(2),
                                           "mean_depths": np.zeros(2), "direction": "loading"}),
    "TrialSet": (pt.TrialSet, lambda: {"step_depths": np.array([0.1, 0.2]), "measurements": np.zeros((2, 2))}),
    "MembraneModel": (pt.MembraneModel, lambda: {"baseline": BASELINE.copy()}),
    "RgbImage": (pt.RgbImage, lambda: {"pixels": np.zeros((2, 2, 3), np.uint8)}),
}


def _arrays(values):
    """The arrays among ``values``, also those inside a tuple."""
    flat = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
    return [x for x in flat if isinstance(x, np.ndarray)]


@pytest.mark.parametrize("name", ARRAY_OWNERS)
def test_construction_keeps_a_read_only_copy_and_leaves_the_callers_arrays_writable(name):
    cls, arguments = ARRAY_OWNERS[name]
    given = arguments()
    stored = _arrays(vars(cls(**given)).values())
    assert stored and not any(a.flags.writeable for a in stored)
    assert all(a.flags.writeable for a in _arrays(given.values()))
