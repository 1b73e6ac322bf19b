"""The benchmark's layer trace (``perfbench/tracer.py``) binds phototact functions by name.

Deleting or renaming a traced function, or a parameter its counters read,
makes every traced benchmark run raise; these tests read the tracer's tables
and check each entry against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
