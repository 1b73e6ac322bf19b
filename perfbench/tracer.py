"""Outside-in tracer: spans and counters around phototact's public functions.

The tracer changes nothing in the package.  While ``installed`` is active,
each traced function is replaced by a wrapper on every phototact module that
binds it by name (``from .phantom import render_reading`` gives ``calibration``,
``characterization``, ``cli`` and the package their own binding), and the
originals come back on exit.  Stages inside a traced function, such as the
Philox draw in ``render_reading`` or Adam inside ``train_mlp``, show only in
that function's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from unittest import mock

# (module, function) pairs in phototact; a dotted name is a method.
TARGETS = (
    ("phantom", "render_reading"),
    ("phantom", "deformed_hsv"),
    ("phantom", "contact_solve"),
    ("imaging", "hsv_to_rgb_real"),
    ("imaging", "rgb_to_hsv"),
    ("imaging", "save_ppm"),
    ("imaging", "load_ppm"),
    ("imaging", "save_dmap"),
    ("imprint", "color_delta"),
    ("calibration", "build_calib_dataset"),
    ("calibration", "train_mlp"),
    ("calibration", "loss_and_gradients"),
    ("calibration", "CalibrationModel.forward"),
    ("calibration", "reconstruct"),
    ("detection", "extract_features"),
    ("detection", "fit_detector"),
    ("detection", "evaluate"),
    ("characterization", "noise_floor"),
    ("characterization", "run_force_sweep"),
    ("characterization", "repeatability_trials"),
    ("characterization", "null_difference_stat"),
)

# Span names that depend on an argument: the two sweep directions are reported apart.
_SPAN_NAMES = {
    "characterization.run_force_sweep": lambda args: f"characterization.run_force_sweep.{args['direction']}",
}

# Counters recorded after a traced call: (counter name, amount from the bound arguments).
_COUNTERS = {
    "calibration.CalibrationModel.forward": ("calibration.forward.rows", lambda args: len(args["features"])),
    "calibration.loss_and_gradients": ("calibration.loss_and_gradients.rows", lambda args: len(args["x"])),
    "imaging.save_ppm": ("imaging.bytes_written", lambda args: os.path.getsize(args["path"])),
    "imaging.save_dmap": ("imaging.bytes_written", lambda args: os.path.getsize(args["path"])),
    "imaging.load_ppm": ("imaging.bytes_read", lambda args: os.path.getsize(args["path"])),
}

COUNTER_NAMES = tuple(sorted({name for name, _ in _COUNTERS.values()}))


def span_names() -> tuple:
    """Every span name the targets can produce, in TARGETS order."""
    names = []
    for module, function in TARGETS:
        name = f"{module}.{function}"
        if name in _SPAN_NAMES:
            names += [f"{name}.loading", f"{name}.unloading"]
        else:
            names.append(name)
    return tuple(names)


class Tracer:
    """In-memory spans (name, parent index, start, end) and named counters."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        namer = _SPAN_NAMES.get(name)
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if namer or counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            with self.span(namer(arguments) if namer else name):
                result = fn(*args, **kwargs)
            if counter:
                self.counters[counter[0]] += counter[1](arguments)
            return result

        return traced

    def layers(self) -> dict:
        """{span name: {"calls", "self_s", "total_s"}}; self time excludes direct child spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for index, (name, parent, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out


def _bindings(function):
    """Every (namespace, attribute) in loaded phototact modules that binds ``function``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "phototact" and not module_name.startswith("phototact."):
            continue
        found += [(module, attr) for attr, value in vars(module).items() if value is function]
    return found


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every binding of every target with a traced wrapper; restore all on exit."""
    with contextlib.ExitStack() as stack:
        for module_name, function in TARGETS:
            module = importlib.import_module(f"phototact.{module_name}")
            name = f"{module_name}.{function}"
            if "." in function:
                owner_name, attr = function.split(".")
                owner = getattr(module, owner_name)
                sites = [(owner, attr)]
                original = vars(owner)[attr]
            else:
                original = getattr(module, function)
                sites = _bindings(original)
            wrapper = tracer.wrap(name, original)
            for namespace, attr in sites:
                stack.enter_context(mock.patch.object(namespace, attr, wrapper))
        yield tracer
