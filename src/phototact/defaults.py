"""Reference constants for the simulation stack, collected in one place.

Everything here is a tuning knob, not a measurement.  The phantom-side
constants are chosen so that the standard 1000 g press on a homogeneous
phantom produces roughly 0.3 mm of uniform membrane indentation, safely
below full scale.  The indenter-rig constants are tuned so the metrology
harness reproduces the target detection threshold (0.02 N), saturation
onset (0.11 N), and hysteresis (38%); they validate harness-plus-tuning
consistency, not hardware physics.
"""

import numpy as np

# phantom mechanics ---------------------------------------------------------
GRAVITY_M_S2 = 9.80665                 # grams-force -> N conversion
TISSUE_STIFFNESS = 0.02                # N/mm^3, foundation modulus of plain phantom
TUMOR_STIFFNESS_BOOST = 0.06           # N/mm^3, peak increase over tissue stiffness
DEPTH_ATTENUATION_MM = 3.0             # e-folding of the buried-inclusion influence
MEMBRANE_STIFFNESS = 0.8494            # N/mm^3; 1000 g flat press -> ~0.30 mm depth

# membrane color response ---------------------------------------------------
MEMBRANE_SEED = 7                      # fixed: one physical membrane per sensor
BASELINE_HUE_SPAN_DEG = 10.0
BASELINE_SATURATION = 0.88
BASELINE_VALUE = 0.74
BASELINE_SV_SPAN = 0.04
GAIN_H_DEG_PER_MM = 120.0
GAIN_S_PER_MM = -0.20
GAIN_V_PER_MM = 0.30
SENSOR_NOISE_STD = 0.38                # 8-bit units; tuned for null-difference std ~= 0.7
SPECKLE_AMPLITUDE = 0.0012

# calibration ---------------------------------------------------------------
CALIBRATION_CAPTURES = 30
CALIBRATION_SPHERE_RADIUS_MM = 3.0

# indenter rig (characterization) ------------------------------------------
INDENTER_RADIUS_MM = 0.895             # tip radius of the metrology indenter
RIG_MEMBRANE_STIFFNESS = 0.1887        # N/mm^3; full-scale cap engages just below 0.11 N
UNLOADING_LAG_FRACTION = 0.41          # unloading-phase depth deficit; lands h near 38%
CHAR_FORCES_N = tuple(np.round(np.arange(0.005, 0.1301, 0.005), 4).tolist())
CHAR_DEPTH_STEPS_MM = tuple(np.round(np.arange(0.05, 0.501, 0.05), 4).tolist())
CHAR_TRIALS = 5
CHAR_NULL_PAIRS = 4                    # no-contact reading pairs behind the noise floor
