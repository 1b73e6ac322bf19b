import os
import threading
import time

import numpy as np
import pytest
from hypothesis import settings

import phototact as pt
from phototact import defaults
from phototact.calibration import CalibrationModel, TrainConfig, build_calib_dataset, train_mlp

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def pytest_report_header(config):
    """numpy, its BLAS build and the BLAS thread count: the thread-count test covers only the build it ran on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", f"unset ({os.cpu_count()} CPUs)")
    return f"numpy {np.__version__}; BLAS {build}; OPENBLAS_NUM_THREADS={threads}"


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q hides the header, so the log states the build at its end
        terminalreporter.write_line(pytest_report_header(config))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """A test fails when it leaves a thread alive that was not alive before it ran.

    The capture streams make their noise on a worker thread; one left running
    keeps the interpreter from exiting.
    """
    before = set(threading.enumerate())
    result = yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        raise AssertionError(f"the test left threads alive: {', '.join(left)}")
    return result


def pytest_addoption(parser):
    parser.addoption("--run-long", action="store_true", default=False, help="run exhaustive sweep tests")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="needs --run-long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def geometry():
    return pt.SensorGeometry()


@pytest.fixture(scope="session")
def membrane(geometry):
    return pt.default_membrane(geometry)


@pytest.fixture(scope="session")
def small_geometry():
    return pt.SensorGeometry(width=100, height=80, mm_per_pixel=0.1)


@pytest.fixture(scope="session")
def small_membrane(small_geometry):
    return pt.default_membrane(small_geometry)


@pytest.fixture(scope="session")
def fixture_durations():
    return {}


@pytest.fixture(scope="session")
def fast_model(small_geometry, small_membrane):
    """Quick calibration model on the small geometry, for unit tests."""
    features, depths = build_calib_dataset(10, small_geometry, small_membrane, seed=11)
    return train_mlp(features, depths, TrainConfig(epochs=15, seed=11))


def acceptance_model(geometry, membrane, seed: int = 123) -> CalibrationModel:
    """The acceptance recipe: 30 sphere captures from calibration-data ``seed``, default training."""
    features, depths = build_calib_dataset(defaults.CALIBRATION_CAPTURES, geometry, membrane, seed=seed)
    return train_mlp(features, depths, TrainConfig(seed=0))


@pytest.fixture(scope="session")
def calib_model(geometry, membrane, fixture_durations):
    """Full acceptance-grade calibration model, at calibration-data seed 123."""
    started = time.monotonic()
    model = acceptance_model(geometry, membrane)
    fixture_durations["calib_model"] = time.monotonic() - started
    return model


def linear_hue_model(coefficient: float) -> CalibrationModel:
    """Hand-built model computing ~coefficient * dH through near-linear tanh layers."""
    eps = 1e-5
    shapes = [(5, 32), (32, 32), (32, 32), (32, 1)]
    weights = [np.zeros(s) for s in shapes]
    weights[0][0, 0] = eps
    weights[1][0, 0] = 1.0
    weights[2][0, 0] = 1.0
    weights[3][0, 0] = coefficient / eps
    biases = [np.zeros(s[1]) for s in shapes]
    return CalibrationModel(
        weights=tuple(weights),
        biases=tuple(biases),
        feature_shift=np.zeros(5),
        feature_scale=np.ones(5),
    )
