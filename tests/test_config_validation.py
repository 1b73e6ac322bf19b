import math

import numpy as np
import pytest

import phototact as pt
from phototact.calibration import TrainConfig
from phototact.imprint import ImprintParams
from phototact.phantom import PhantomConfig

NON_FINITE = [math.nan, math.inf, -math.inf]
BASELINE = pt.HsvImage(np.full((2, 2, 3), [10.0, 0.5, 0.5]))

CASES = [
    (PhantomConfig, {"tumor_present": True}, "applied_mass_g"),
    (PhantomConfig, {"tumor_present": True}, "ball_diameter_mm"),
    (PhantomConfig, {"tumor_present": False}, "burial_depth_mm"),
    (PhantomConfig, {"tumor_present": True}, "tissue_stiffness"),
    (PhantomConfig, {"tumor_present": True}, "tumor_stiffness_boost"),
    (ImprintParams, {}, "alpha"),
    (ImprintParams, {}, "beta"),
    (pt.SensorGeometry, {}, "sensing_radius_mm"),
    (pt.SensorGeometry, {}, "mm_per_pixel"),
    (TrainConfig, {}, "learning_rate"),
    (pt.MembraneModel, {"baseline": BASELINE}, "noise_std"),
    (pt.MembraneModel, {"baseline": BASELINE}, "speckle_amplitude"),
    (pt.MembraneModel, {"baseline": BASELINE}, "stiffness"),
    (pt.DatasetSpec, {}, "positive_mass_g"),
]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("cls, base, field", CASES, ids=[f"{c.__name__}.{f}" for c, _, f in CASES])
def test_non_finite_rejected(cls, base, field, value):
    cls(**base)  # the base configuration itself is valid
    with pytest.raises(ValueError, match="finite"):
        cls(**base, **{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_sphere_radius_rejected(small_geometry, value):
    with pytest.raises(ValueError, match="sphere radius must be positive and finite"):
        pt.sphere_press_truth(0.3, value, small_geometry)


@pytest.mark.parametrize("field", ["diameters_mm", "burial_depths_mm", "negative_masses_g"])
def test_non_finite_dataset_spec_entry_rejected(field):
    with pytest.raises(ValueError, match="finite"):
        pt.DatasetSpec(**{field: (4.0, math.nan)})


@pytest.mark.parametrize("offset", [(math.nan, 0.0), (0.0, math.inf)])
def test_non_finite_lateral_offset_rejected(offset):
    with pytest.raises(ValueError, match="finite"):
        PhantomConfig(tumor_present=True, lateral_offset_mm=offset)
