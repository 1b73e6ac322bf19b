"""The benchmark's layer trace (``perfbench/tracer.py``) binds phototact functions by name.

Deleting or renaming a traced function, or a parameter its counters read,
makes every traced benchmark run raise; these tests read the tracer's tables
and check each entry against the package.
"""

import importlib
import importlib.util
import inspect
import threading
from pathlib import Path

import pytest

import phototact as pt
from phototact import defaults
from conftest import linear_hue_model

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
TARGET_NAMES = [f"{module}.{function}" for module, function in tracer.TARGETS]
# Each span namer and counter reads the traced call's bound arguments.
READERS = [(name, namer) for name, namer in tracer._SPAN_NAMES.items()]
READERS += [(name, amount) for name, (_, amount) in tracer._COUNTERS.items()]


def resolve(name):
    """The object a dotted ``module.function`` or ``module.Class.method`` target names in phototact."""
    module, *path = name.split(".")
    target = importlib.import_module(f"phototact.{module}")
    for attr in path:
        target = getattr(target, attr)
    return target


def arguments_read(reader):
    """The argument names ``reader`` looks up, found by handing it a mapping that records each lookup."""
    read = []

    class Recorder(dict):
        def __missing__(self, key):
            read.append(key)
            raise LookupError(key)

    with pytest.raises(LookupError):
        reader(Recorder())
    return read


@pytest.mark.parametrize("name", TARGET_NAMES)
def test_target_resolves(name):
    assert callable(resolve(name))


@pytest.mark.parametrize("name, reader", READERS, ids=[name for name, _ in READERS])
def test_arguments_read_are_parameters(name, reader):
    assert name in TARGET_NAMES
    parameters = inspect.signature(resolve(name)).parameters
    read = arguments_read(reader)
    assert read and all(arg in parameters for arg in read), (name, read, list(parameters))


def test_every_argument_read_is_known():
    assert {arg for _, reader in READERS for arg in arguments_read(reader)} == {"features", "x", "path", "direction"}


def test_reconstruct_runs_the_traced_color_path(small_geometry):
    """A reconstruction converts its pixels through the traced ``rgb_to_hsv`` and ``color_delta``, so their spans
    measure the color path the pipeline runs."""
    truth = pt.sphere_press_truth(0.3, small_geometry)
    ref, contact = pt.phantom.reading_pair(truth, 1)
    with tracer.installed(tracer.Tracer()) as traced:
        pt.reconstruct(linear_hue_model(1.0), ref, contact, small_geometry)
    layers = traced.layers()
    assert layers["imaging.rgb_to_hsv"]["calls"] == 2
    assert layers["imprint.color_delta"]["calls"] == 1


def test_the_noise_thread_calls_no_traced_function(small_geometry):
    """The tracer keeps one span stack, so every traced call of the disc-capture paths runs on the main thread."""
    threads = set()

    class ThreadRecorder(tracer.Tracer):
        def span(self, name):
            threads.add(threading.current_thread())
            return super().span(name)

    with tracer.installed(ThreadRecorder()) as traced:
        pt.characterize(small_geometry, linear_hue_model(1.0), forces=(0.05, 0.09, 0.11), steps=(0.2, 0.5), seed=1)
        pt.build_calib_dataset(2, small_geometry, seed=1)
    assert threads == {threading.main_thread()}
    layers = traced.layers()
    assert layers["imaging.hsv_to_rgb_real"]["calls"] > 0
    # Each characterize phase's span holds the forward passes of its own captures, so the benchmark's
    # per-phase layers measure them: one per pair on this grid of 3 forces and 2 steps; the null pair has none.
    phases = {
        "characterization.noise_floor": defaults.CHAR_NULL_PAIRS,
        "characterization.run_force_sweep.loading": 3 * defaults.CHAR_TRIALS,
        "characterization.run_force_sweep.unloading": 3 * defaults.CHAR_TRIALS,
        "characterization.repeatability_trials": 2 * defaults.CHAR_TRIALS,
        "characterization.null_difference_stat": 0,
    }
    assert {name: layers[name]["calls"] for name in phases} == dict.fromkeys(phases, 1)
    forwards = dict.fromkeys(phases, 0)
    for name, parent, _, _ in traced.spans:
        if name == "calibration.CalibrationModel.forward" and parent is not None and traced.spans[parent][0] in phases:
            forwards[traced.spans[parent][0]] += 1
    assert forwards == phases
