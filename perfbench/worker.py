"""One workload in its own process: set-up, timed runs, then the traced run.

run.py starts this script with the checkout's ``src`` first on PYTHONPATH and
reads the single JSON object it prints on stdout.  The verbs' own stdout is
captured, so nothing else reaches it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import phototact
from phototact import cli

import tracer as tracing
from workloads import SCALES, SETUP, WORKLOADS, Context

SETUP_REPEATS = 5
MIN_TIMED_RUNS = 2  # the byte-identity check needs a second run to compare with

# Self time of these spans is the training path and the measurement path; the
# record gives each as a share of the traced run's wall time.
TRAINING_SPANS = ("calibration.train_mlp", "calibration.loss_and_gradients")
MEASURE_SPANS = (
    "phantom.render_reading",
    "phantom.deformed_hsv",
    "imaging.hsv_to_rgb_real",
    "imaging.rgb_to_hsv",
    "imprint.color_delta",
    "calibration.CalibrationModel.forward",
)


def blas_threads():
    """Thread count of the OpenBLAS that numpy bundles, or None when it is not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        get.argtypes = []
        get.restype = ctypes.c_int
        return get()
    return None


def machine() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": blas_threads(),
    }


def artifact_hashes(directory: Path, output: str) -> dict:
    """sha256 of every file of one output, skipping run manifests (they carry duration_s)."""
    target = directory / output
    files = [target] if target.is_file() else sorted(p for p in target.rglob("*") if p.is_file())
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
        if not p.name.endswith(".manifest.json")
    }


def verify(step, directory: Path, stdout: str, ctx: Context, reference: dict) -> tuple:
    """(problems, facts) for one finished invocation.

    The first invocation of an output sets its reference hashes; every later one
    must reproduce them byte for byte.
    """
    hashes = artifact_hashes(directory, step.output)
    expected = reference.setdefault(step.output, hashes)
    changed = sorted(set(hashes) ^ set(expected) | {k for k in hashes if hashes[k] != expected.get(k)})
    problems = [f"artifacts differ from the first run: {', '.join(changed[:5])}"] if changed else []
    try:
        found, facts = step.check(directory, stdout, ctx)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as err:
        found, facts = [f"output check raised {type(err).__name__}: {err}"], {}
    return problems + found, facts


class Runner:
    """Runs the verbs of one workload and tallies invocations and failures."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.tracer = None  # a tracing.Tracer while the traced run goes on
        self.reference = {}
        self.facts = {}
        self.attempted = 0
        self.problems = []

    def invoke(self, step, directory: Path) -> float:
        """Run one verb; returns its wall time.  Checks run outside the timed region."""
        argv = step.argv(directory, self.ctx)
        span = self.tracer.span(f"verb.{step.verb}") if self.tracer else contextlib.nullcontext()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), step.bindings(self.ctx):
            start = time.perf_counter()
            try:
                with span:
                    code = cli.dispatch(argv)
            except Exception:  # a verb that raises is one failed invocation, not a crashed benchmark
                traceback.print_exc()
                code = "exception"
            seconds = time.perf_counter() - start
        self.attempted += 1
        if code == 0:
            problems, facts = verify(step, directory, captured.getvalue(), self.ctx, self.reference)
            self.facts.setdefault(step.output, facts)
        else:
            problems = [f"exit {code}"]
        if problems:
            self.problems.append(f"{step.verb} ({directory.name}): {'; '.join(problems)}")
        return seconds

    def run(self, steps, directory: Path) -> dict:
        """All steps in a fresh directory, which is removed afterwards; {verb: seconds}."""
        directory.mkdir(parents=True)
        try:
            return {step.verb: self.invoke(step, directory) for step in steps}
        finally:
            shutil.rmtree(directory)

    @property
    def failed(self) -> int:
        return len(self.problems)


def set_up(runner: Runner, directory: Path) -> float:
    """Write the dataset spec and make the calibration model in ``directory``; returns the time in s."""
    start = time.perf_counter()
    directory.mkdir(parents=True)
    (directory / "spec.json").write_text(json.dumps(runner.ctx.scale.spec))
    runner.invoke(SETUP, directory)
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str, work: Path) -> dict:
    ctx = Context(scale=SCALES[scale], seed=seed, model=work / "setup0" / "model.json", spec=work / "setup0" / "spec.json")
    steps = WORKLOADS[workload]
    runner = Runner(ctx)
    setup_times = [set_up(runner, work / "setup0")]

    verb_times = {step.verb: [] for step in steps}
    walls = []
    started = time.perf_counter()
    while True:
        times = runner.run(steps, work / f"run{len(walls)}")
        for verb, t in times.items():
            verb_times[verb].append(t)
        walls.append(sum(times.values()))
        # On a shared host, other tenants cause slow spells of seconds to
        # minutes; the set-up repeats are spread over the run so that they do
        # not all fall into one.
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - started >= due:
            setup_times.append(set_up(runner, work / f"setup{len(setup_times)}"))
        if len(walls) >= MIN_TIMED_RUNS and time.perf_counter() - started + statistics.median(walls) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(runner, work / f"setup{len(setup_times)}"))
    wall_s = statistics.median(walls)
    values = {"wall_s": wall_s, "setup_s": statistics.median(setup_times)}
    record = {
        "machine": machine(),
        "verb_seeds": {verb: ctx.verb_seed(verb) for verb in ("calibrate", "dataset", "train-detector", "characterize")},
        "samples": {"setup_s": setup_times, "wall_s": walls, **{f"{v}_s": t for v, t in verb_times.items()}},
    }
    if trace:
        runner.tracer = tracing.Tracer()
        with tracing.installed(runner.tracer):
            traced = runner.run(steps, work / "traced")
        traced_wall = sum(traced.values())
        layers = runner.tracer.layers()
        for name in tracing.span_names():
            entry = layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key, value in entry.items():
                values[f"{name}.{key}"] = value
        values.update(runner.tracer.counters)
        values["detection.train_svm.iterations"] = runner.facts.get("detector.json", {}).get("train_svm_iterations", 0)
        values["trace.overhead_pct"] = (traced_wall / wall_s - 1.0) * 100.0
        for verb in ("dataset", "train-detector", "evaluate"):
            values[f"{verb.replace('-', '_')}_s"] = statistics.median(verb_times[verb]) if verb in verb_times else 0.0
        record["traced_wall_s"] = traced_wall
        record["split"] = {
            "training_self_share": sum(layers.get(n, {}).get("self_s", 0.0) for n in TRAINING_SPANS) / traced_wall,
            "measure_self_share": sum(layers.get(n, {}).get("self_s", 0.0) for n in MEASURE_SPANS) / traced_wall,
            "loss_and_gradients_calls": layers.get("calibration.loss_and_gradients", {}).get("calls", 0),
        }
        record["spans"] = runner.tracer.spans
    values["failed_ops"] = runner.failed / runner.attempted
    record.update(artifacts=runner.reference, facts=runner.facts, problems=runner.problems)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "values": values,
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True, help="the src directory phototact must come from")
    args = parser.parse_args(argv)
    if Path(phototact.__file__).resolve().parent.parent != args.src.resolve():
        print(f"error: phototact imported from {phototact.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.work)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
