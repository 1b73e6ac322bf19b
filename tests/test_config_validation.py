import math

import pytest

import phototact as pt
from phototact.calibration import TrainConfig
from phototact.imprint import ImprintParams
from phototact.phantom import PhantomConfig

NON_FINITE = [math.nan, math.inf, -math.inf]

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
]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("cls, base, field", CASES, ids=[f"{c.__name__}.{f}" for c, _, f in CASES])
def test_non_finite_rejected(cls, base, field, value):
    cls(**base)  # the base configuration itself is valid
    with pytest.raises(ValueError, match="finite"):
        cls(**base, **{field: value})


@pytest.mark.parametrize("offset", [(math.nan, 0.0), (0.0, math.inf)])
def test_non_finite_lateral_offset_rejected(offset):
    with pytest.raises(ValueError, match="finite"):
        PhantomConfig(tumor_present=True, lateral_offset_mm=offset)
