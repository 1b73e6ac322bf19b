"""Software stack for a color-shifting membrane tactile sensor.

Forward simulation of membrane/phantom contact, amplified difference
imaging, learned per-pixel depth calibration, sensor metrology, and linear
classification of stiff inclusions from depth statistics.
"""

__version__ = "0.1.0"

from .imaging import (
    MAX_DEPTH_MM,
    SENSING_RADIUS_MM,
    DeformationMap,
    DmapFormatError,
    PpmFormatError,
    RgbImage,
    SensorGeometry,
    hue_delta,
    load_dmap,
    load_ppm,
    rgb_to_hsv,
    save_dmap,
    save_ppm,
)
from .imprint import ImprintParams, augmented_imprint, color_delta, disc_rows
from .phantom import (
    DatasetSpec,
    MembraneModel,
    PhantomConfig,
    clean_pixels,
    contact_solve,
    dataset_presses,
    default_membrane,
    disc_captures,
    render_reading,
    sphere_press_truth,
    stiffness_field,
)
from .calibration import (
    CalibrationModel,
    TrainConfig,
    TrainingDivergedError,
    build_calib_dataset,
    disc_depths,
    input_gradient,
    load_model,
    mlp_forward,
    reconstruct,
    save_model,
    train_mlp,
)
from .detection import (
    DetectorModel,
    EvalReport,
    classify,
    decision_value,
    depth_features,
    evaluate,
    extract_features,
    fit_detector,
    load_detector,
    save_detector,
    stratified_split,
    train_svm,
)
from .characterization import (
    CharacterizationReport,
    ForceSweep,
    TrialSet,
    characterize,
    hysteresis,
    noise_floor,
    null_difference_stat,
    repeatability,
    repeatability_trials,
    run_force_sweep,
)
