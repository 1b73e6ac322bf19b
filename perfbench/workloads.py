"""The benchmark's workloads: which CLI verbs each runs, at what size, and how outputs are checked.

Every verb runs through ``phototact.cli.dispatch`` exactly as the command line
would run it.  The counts are cut from the README's full-size runs so that one
run of a workload takes seconds, not a minute; the geometry stays at the CLI
default (320x240, 0.05 mm/px) unless a scale says otherwise.  See README.md for
why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

from phototact import cli, defaults
from phototact.calibration import load_model
from phototact.characterization import characterize
from phototact.phantom import DatasetSpec


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    geometry: tuple             # extra CLI geometry flags; () is the CLI default
    captures: int               # calibrate workload: sphere captures
    epochs: int                 # calibrate workload: training epochs
    setup_captures: int         # set-up model consumed by characterize and detection
    setup_epochs: int
    spec: dict                  # DatasetSpec of the detection workload
    forces: tuple               # characterize force grid, N
    steps: tuple                # characterize depth steps, mm


SCALES = {
    # Each repetition is kept to a few seconds, so that a short run holds at
    # least two and a set of runs stays inside one stretch of host speed
    # (see README.md, "Baseline and steadiness").  50 epochs keep
    # training's share of calibrate near the full-size value (about 92%); one
    # capture instead of 30 cuts the rows per epoch.  The force grid ends at the
    # saturation onset so saturation_N stays checkable.
    "full": Scale(
        geometry=(),
        captures=1,
        epochs=50,
        setup_captures=2,
        setup_epochs=10,
        spec={
            "diameters_mm": [4.0, 8.0],
            "burial_depths_mm": [2.0, 5.0],
            "presses_per_positive": 2,
            "positive_mass_g": 1000.0,
            "negative_masses_g": [1000.0, 1200.0],
            "presses_per_negative_mass": 4,
        },
        forces=(0.05, 0.08, 0.11),
        steps=(0.2, 0.5),
    ),
    # The harness self-test: acceptance criterion 9's small geometry and counts.
    "tiny": Scale(
        geometry=("--width", "100", "--height", "80", "--mm-per-pixel", "0.1"),
        captures=1,
        epochs=2,
        setup_captures=3,
        setup_epochs=4,
        spec={
            "diameters_mm": [6.0],
            "burial_depths_mm": [3.0],
            "presses_per_positive": 3,
            "positive_mass_g": 1000.0,
            "negative_masses_g": [1000.0],
            "presses_per_negative_mass": 3,
        },
        forces=(0.05, 0.09, 0.11),
        steps=(0.2, 0.5),
    ),
}

# Offsets from --seed that give the README's seeds at --seed 0.
SEED_OFFSETS = {"calibrate": 0, "dataset": 7, "train-detector": 5, "characterize": 0}

EXPECTED_SATURATION_N = 0.11
EXPECTED_NULL_STD = 0.70
NULL_STD_TOLERANCE = 0.05


@dataclass(frozen=True)
class Context:
    """What the verbs of one run share: sizes, seeds and the set-up files."""

    scale: Scale
    seed: int
    model: Path       # calibration model made in set-up
    spec: Path        # DatasetSpec JSON written in set-up

    def verb_seed(self, verb: str) -> str:
        return str(self.seed % 2**31 + SEED_OFFSETS[verb])

    @property
    def n_samples(self) -> int:
        spec = DatasetSpec.from_dict(self.scale.spec)
        return spec.n_positive + spec.n_negative


@dataclass(frozen=True)
class Step:
    """One verb invocation: its argv, its primary output and its output check.

    ``check`` returns (problems, facts): problems make the invocation fail;
    facts are measured outputs kept in the run record.
    """

    verb: str
    output: str                                   # file or directory, relative to the run directory
    argv: Callable[[Path, Context], list]
    check: Callable[[Path, str, Context], tuple]
    bindings: Callable[[Context], contextlib.AbstractContextManager] = lambda ctx: contextlib.nullcontext()


def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _check_model(path: Path, epochs: int) -> tuple:
    losses = load_model(path).epoch_losses
    problems = []
    if len(losses) != epochs:
        problems.append(f"{len(losses)} epoch losses, expected {epochs}")
    if not all(math.isfinite(x) for x in losses):
        problems.append("non-finite epoch loss")
    return problems, {"final_loss": losses[-1] if losses else None}


def _calibrate_argv(out: Path, captures: int, epochs: int, ctx: Context) -> list:
    return [
        "calibrate", *ctx.scale.geometry, "--captures", str(captures), "--epochs", str(epochs),
        "--batch-size", "4096", "--seed", ctx.verb_seed("calibrate"), "--out", str(out),
    ]


SETUP = Step(
    verb="calibrate",
    output="model.json",
    argv=lambda d, ctx: _calibrate_argv(d / "model.json", ctx.scale.setup_captures, ctx.scale.setup_epochs, ctx),
    check=lambda d, stdout, ctx: _check_model(d / "model.json", ctx.scale.setup_epochs),
)


def _check_characterize(d: Path, stdout: str, ctx: Context) -> tuple:
    summary = json.loads((d / "char" / "summary.json").read_text())
    problems = []
    if summary["saturation_N"] is None or abs(summary["saturation_N"] - EXPECTED_SATURATION_N) > 1e-9:
        problems.append(f"saturation_N {summary['saturation_N']}, expected {EXPECTED_SATURATION_N}")
    if abs(summary["null_std"] - EXPECTED_NULL_STD) > NULL_STD_TOLERANCE:
        problems.append(f"null_std {summary['null_std']}, expected {EXPECTED_NULL_STD} +- {NULL_STD_TOLERANCE}")
    n_sweep = len(_read_csv(d / "char" / "sweeps.csv"))
    if n_sweep != 2 * len(ctx.scale.forces):
        problems.append(f"{n_sweep} sweep rows, expected {2 * len(ctx.scale.forces)}")
    n_trials = len(_read_csv(d / "char" / "trials.csv"))
    if n_trials != defaults.CHAR_TRIALS * len(ctx.scale.steps):
        problems.append(f"{n_trials} trial rows, expected {defaults.CHAR_TRIALS * len(ctx.scale.steps)}")
    return problems, {"summary": summary}


def _check_dataset(d: Path, stdout: str, ctx: Context) -> tuple:
    n = ctx.n_samples
    rows = _read_csv(d / "data" / "manifest.csv")
    problems = []
    if len(rows) != n:
        problems.append(f"{len(rows)} manifest rows, expected {n}")
    for suffix, count in (("_ref.ppm", n), ("_contact.ppm", n), ("_truth.dmap", n)):
        found = len(list((d / "data").glob(f"*{suffix}")))
        if found != count:
            problems.append(f"{found} *{suffix} files, expected {count}")
    return problems, {"samples": len(rows)}


def _check_train_detector(d: Path, stdout: str, ctx: Context) -> tuple:
    scores = json.loads(stdout)
    training = json.loads((d / "detector.json").read_text())["training"]
    problems = []
    if scores["n_train"] + scores["n_test"] != ctx.n_samples:
        problems.append(f"split covers {scores['n_train'] + scores['n_test']} samples, expected {ctx.n_samples}")
    return problems, {"scores": scores, "train_svm_iterations": training["iterations"]}


def _check_evaluate(d: Path, stdout: str, ctx: Context) -> tuple:
    report = json.loads((d / "report.json").read_text())
    counted = sum(report[k] for k in ("true_positive", "true_negative", "false_positive", "false_negative"))
    problems = []
    if len(report["samples"]) != ctx.n_samples or counted != ctx.n_samples:
        problems.append(f"report covers {len(report['samples'])} samples ({counted} counted), expected {ctx.n_samples}")
    return problems, {"accuracy": report["accuracy"]}


def _bound_characterize(ctx: Context):
    """Run the verb on the scale's force grid and depth steps instead of the defaults."""
    return mock.patch.object(
        cli, "characterize", functools.partial(characterize, forces=ctx.scale.forces, steps=ctx.scale.steps)
    )


def _with_model(verb: str, d: Path, ctx: Context, *rest) -> list:
    return [verb, *ctx.scale.geometry, "--dataset", str(d / "data"), "--calibration", str(ctx.model), *rest]


WORKLOADS = {
    "calibrate": (
        Step(
            verb="calibrate",
            output="calib.json",
            argv=lambda d, ctx: _calibrate_argv(d / "calib.json", ctx.scale.captures, ctx.scale.epochs, ctx),
            check=lambda d, stdout, ctx: _check_model(d / "calib.json", ctx.scale.epochs),
        ),
    ),
    "characterize": (
        Step(
            verb="characterize",
            output="char",
            argv=lambda d, ctx: [
                "characterize", *ctx.scale.geometry, "--calibration", str(ctx.model),
                "--seed", ctx.verb_seed("characterize"), "--out", str(d / "char"),
            ],
            check=_check_characterize,
            bindings=_bound_characterize,
        ),
    ),
    "detection": (
        Step(
            verb="dataset",
            output="data",
            argv=lambda d, ctx: [
                "dataset", *ctx.scale.geometry, "--spec", str(ctx.spec),
                "--seed", ctx.verb_seed("dataset"), "--out", str(d / "data"),
            ],
            check=_check_dataset,
        ),
        Step(
            verb="train-detector",
            output="detector.json",
            argv=lambda d, ctx: _with_model(
                "train-detector", d, ctx, "--seed", ctx.verb_seed("train-detector"), "--out", str(d / "detector.json")
            ),
            check=_check_train_detector,
        ),
        Step(
            verb="evaluate",
            output="report.json",
            argv=lambda d, ctx: [
                *_with_model("evaluate", d, ctx, "--out", str(d / "report.json")),
                "--detector", str(d / "detector.json"),
            ],
            check=_check_evaluate,
        ),
    ),
}
