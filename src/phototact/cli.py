"""Command-line entry point wiring the modules into reproducible pipelines.

Every artifact-producing verb writes a run manifest next to its primary
output (``<output>.manifest.json``) recording the command, the fully
resolved configuration, the seed, the tool version, and input/output paths.
Re-running the recorded ``argv`` reproduces the outputs byte for byte; the
manifest sits beside the outputs so reruns stay byte-identical.

Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, defaults
from .calibration import (
    TrainConfig,
    TrainingDivergedError,
    build_calib_dataset,
    disc_depths,
    forward_scratch,
    load_model,
    reconstruct,
    save_model,
    train_mlp,
)
from .characterization import IndenterRig, characterize
from .detection import (
    FeatureVector,
    classify,
    decision_value,
    evaluate,
    extract_features,
    fit_detector,
    load_detector,
    save_detector,
    stratified_split,
)
from .imaging import DmapFormatError, PpmFormatError, SensorGeometry, load_dmap, load_ppm, save_dmap, save_ppm
from .imprint import ImprintParams, augmented_imprint, disc_pixels
from .phantom import (
    DatasetSpec,
    PhantomConfig,
    contact_solve,
    dataset_manifest_rows,
    default_membrane,
    generate_phantom_dataset,
    reading_pair,
)

# Seeds key uint64 Philox streams, and a phantom's reading pair doubles the seed (see phantom.reading_pair).
SEED_LIMIT = 2**63


class UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


def _shared_flags():
    """Parent parsers of the geometry flags, and of the geometry plus membrane flags of the rendering verbs."""
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument("--width", type=int, default=defaults.DEFAULT_WIDTH)
    geometry.add_argument("--height", type=int, default=defaults.DEFAULT_HEIGHT)
    geometry.add_argument("--mm-per-pixel", type=float, default=defaults.MM_PER_PIXEL)
    geometry.add_argument("--sensing-radius", type=float, default=defaults.SENSING_RADIUS_MM)
    membrane = argparse.ArgumentParser(add_help=False, parents=[geometry])
    membrane.add_argument("--membrane-seed", type=int, default=defaults.MEMBRANE_SEED)
    membrane.add_argument("--noise-std", type=float, default=defaults.SENSOR_NOISE_STD)
    membrane.add_argument("--speckle", type=float, default=defaults.SPECKLE_AMPLITUDE)
    return geometry, membrane


def _geometry(args) -> SensorGeometry:
    return SensorGeometry(
        width=args.width,
        height=args.height,
        sensing_radius_mm=args.sensing_radius,
        mm_per_pixel=args.mm_per_pixel,
    )


def _membrane(args, geom, stiffness=None):
    overrides = {"noise_std": args.noise_std, "speckle_amplitude": args.speckle}
    if stiffness is not None:
        overrides["stiffness"] = stiffness
    return default_membrane(geom, seed=args.membrane_seed, **overrides)


def build_parser() -> _Parser:
    parser = _Parser(prog="phototact", description=__doc__)
    parser.add_argument("--version", action="version", version=f"phototact {__version__}")
    sub = parser.add_subparsers(dest="verb", metavar="|".join(VERBS))
    geometry, membrane = _shared_flags()

    p = sub.add_parser("phantom", parents=[membrane], help="simulate one press and write the capture pair + truth map")
    p.add_argument("--config", help="PhantomConfig JSON file (overrides the flags below)")
    p.add_argument("--tumor", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--diameter", type=float, default=6.0, help="ball diameter, mm")
    p.add_argument("--burial", type=float, default=3.0, help="burial depth, mm")
    p.add_argument("--offset-x", type=float, default=0.0)
    p.add_argument("--offset-y", type=float, default=0.0)
    p.add_argument("--mass", type=float, default=1000.0, help="applied mass, grams")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--manifest")

    p = sub.add_parser("imprint", help="amplified difference image of a reading pair")
    p.add_argument("--ref", required=True)
    p.add_argument("--contact", required=True)
    p.add_argument("--alpha", type=float, default=5.0)
    p.add_argument("--beta", type=float, default=127.5)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")

    p = sub.add_parser(
        "calibrate", parents=[membrane], help="train the color-to-depth model on simulated sphere presses"
    )
    p.add_argument("--captures", type=int, default=defaults.CALIBRATION_CAPTURES)
    p.add_argument("--sphere-radius", type=float, default=defaults.CALIBRATION_SPHERE_RADIUS_MM)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=4096)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")

    p = sub.add_parser("reconstruct", parents=[geometry], help="depth map from a reading pair")
    p.add_argument("--model", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--contact", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")

    p = sub.add_parser("dataset", parents=[membrane], help="generate the labeled phantom dataset directory")
    p.add_argument("--spec", default="default", help="'default' or a DatasetSpec JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")

    p = sub.add_parser("train-detector", parents=[geometry], help="fit the linear detector on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")

    p = sub.add_parser("detect", help="classify one depth map; prints JSON to stdout")
    p.add_argument("--detector", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--report", help="also write the JSON result to this path")
    p.add_argument("--manifest")

    p = sub.add_parser("evaluate", parents=[geometry], help="score the detector over a dataset directory")
    p.add_argument("--detector", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--csv", help="optional per-sample CSV path")
    p.add_argument("--manifest")

    p = sub.add_parser("characterize", parents=[membrane], help="run the metrology harness on the simulated rig")
    p.add_argument("--calibration", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory (summary.json, sweeps.csv, trials.csv)")
    p.add_argument("--manifest")

    return parser


def _write_manifest(args, inputs, outputs, started):
    """Run manifest of ``args.verb``, at ``--manifest`` or beside the first output."""
    config = {k: v for k, v in vars(args).items() if k not in ("verb", "manifest")}
    target = args.manifest
    if target is None:
        primary = outputs[0].rstrip("/")
        target = f"{primary}.manifest.json"
    doc = {
        "command": args.verb,
        "argv": [args.verb] + _config_argv(config),
        "config": config,
        "seed": config.get("seed"),
        "tool_version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "duration_s": round(time.monotonic() - started, 6),
    }
    Path(target).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _config_argv(config):
    argv = []
    for key, value in sorted(config.items()):
        if value is None or isinstance(value, bool):
            if value:
                argv.append(f"--{key.replace('_', '-')}")
            elif value is False and key == "tumor":
                argv.append("--no-tumor")
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


def _load_phantom_config(args) -> PhantomConfig:
    if args.config:
        return PhantomConfig.from_dict(json.loads(Path(args.config).read_text()))
    return PhantomConfig(
        tumor_present=args.tumor,
        ball_diameter_mm=args.diameter,
        burial_depth_mm=args.burial,
        lateral_offset_mm=(args.offset_x, args.offset_y),
        applied_mass_g=args.mass,
    )


def _cmd_phantom(args):
    geom = _geometry(args)
    membrane = _membrane(args, geom)
    cfg = _load_phantom_config(args)
    solution = contact_solve(cfg, geom, membrane)
    ref, contact = reading_pair(solution.deformation, membrane, args.seed)
    prefix = args.out_prefix
    paths = [f"{prefix}_ref.ppm", f"{prefix}_contact.ppm", f"{prefix}_truth.dmap"]
    save_ppm(paths[0], ref)
    save_ppm(paths[1], contact)
    save_dmap(paths[2], solution.deformation)
    return [], paths


def _cmd_imprint(args):
    ref = load_ppm(args.ref)
    contact = load_ppm(args.contact)
    result = augmented_imprint(ref, contact, ImprintParams(alpha=args.alpha, beta=args.beta))
    save_ppm(args.out, result)
    return [args.ref, args.contact], [args.out]


def _cmd_calibrate(args):
    geom = _geometry(args)
    membrane = _membrane(args, geom)
    features, depths = build_calib_dataset(args.captures, args.sphere_radius, geom, membrane, args.seed)
    cfg = TrainConfig(
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    model = train_mlp(features, depths, cfg)
    save_model(args.out, model)
    return [], [args.out]


def _cmd_reconstruct(args):
    geom = _geometry(args)
    model = load_model(args.model)
    dmap = reconstruct(model, load_ppm(args.ref), load_ppm(args.contact), geom)
    save_dmap(args.out, dmap)
    return [args.model, args.ref, args.contact], [args.out]


def _load_spec(value) -> DatasetSpec:
    if value == "default":
        return DatasetSpec()
    return DatasetSpec.from_dict(json.loads(Path(value).read_text()))


def _written(samples, out_dir):
    """Write each sample's capture pair and truth map as the sample is yielded.

    The manifest is built from this stream, so no sample's arrays outlive
    their own write.
    """
    for sample in samples:
        save_ppm(out_dir / f"{sample.sample_id}_ref.ppm", sample.reading_ref)
        save_ppm(out_dir / f"{sample.sample_id}_contact.ppm", sample.reading_contact)
        save_dmap(out_dir / f"{sample.sample_id}_truth.dmap", sample.truth)
        yield sample


def _cmd_dataset(args):
    geom = _geometry(args)
    membrane = _membrane(args, geom)
    samples = generate_phantom_dataset(_load_spec(args.spec), geom, membrane, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.csv").write_text(dataset_manifest_rows(_written(samples, out_dir)))
    return [], [str(out_dir)]


def _read_dataset_features(dataset_dir, calib_model, geom):
    """(features, labels, sample_ids) from a dataset directory, via reconstruction."""
    dataset_dir = Path(dataset_dir)
    manifest = dataset_dir / "manifest.csv"
    if not manifest.exists():
        raise ValueError(f"missing dataset manifest {manifest}")
    features, labels, ids = [], [], []
    scratch = forward_scratch(geom.disc_pixel_count)
    with manifest.open(newline="") as fh:
        for row in csv.DictReader(fh):
            sample_id = row["sample_id"]
            ref = load_ppm(dataset_dir / f"{sample_id}_ref.ppm")
            contact = load_ppm(dataset_dir / f"{sample_id}_contact.ppm")
            fv = FeatureVector.of(disc_depths(calib_model, *disc_pixels(ref, contact, geom), geom, scratch))
            features.append([fv.mu, fv.sigma])
            labels.append(int(row["label"]))
            ids.append(sample_id)
    return np.array(features), np.array(labels), ids


def _cmd_train_detector(args):
    geom = _geometry(args)
    calib = load_model(args.calibration)
    features, labels, _ = _read_dataset_features(args.dataset, calib, geom)
    train_idx, test_idx = stratified_split(labels, train_fraction=args.train_fraction, seed=args.seed)
    detector = fit_detector(features[train_idx], labels[train_idx], c=args.c)
    save_detector(args.out, detector)
    train_report = evaluate(detector, features[train_idx], labels[train_idx])
    test_report = evaluate(detector, features[test_idx], labels[test_idx])
    print(
        json.dumps(
            {
                "train_accuracy": train_report.accuracy,
                "test_accuracy": test_report.accuracy,
                "n_train": int(train_idx.size),
                "n_test": int(test_idx.size),
            },
            sort_keys=True,
        )
    )
    return [args.dataset, args.calibration], [args.out]


def _cmd_detect(args):
    detector = load_detector(args.detector)
    dmap = load_dmap(args.map)
    fv = extract_features(dmap)
    result = {
        "label": classify(detector, fv),
        "decision_value": decision_value(detector, fv),
        "mu": fv.mu,
        "sigma": fv.sigma,
        "manifest": {
            "command": "detect",
            "inputs": [args.detector, args.map],
            "tool_version": __version__,
        },
    }
    print(json.dumps(result, sort_keys=True))
    if not args.report:
        return None
    Path(args.report).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return [args.detector, args.map], [args.report]


def _cmd_evaluate(args):
    geom = _geometry(args)
    calib = load_model(args.calibration)
    detector = load_detector(args.detector)
    features, labels, ids = _read_dataset_features(args.dataset, calib, geom)
    report = evaluate(detector, features, labels)
    doc = report.to_dict()
    doc["samples"] = [
        {"sample_id": sid, "label": int(lab), "mu": float(f[0]), "sigma": float(f[1]), "decision_value": dv}
        for sid, lab, f, dv in zip(ids, labels, features, report.decision_values)
    ]
    texts = {args.out: json.dumps(doc, indent=2, sort_keys=True) + "\n"}
    if args.csv:
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        writer.writerow(["sample_id", "label", "mu", "sigma", "decision_value"])
        for sample in doc["samples"]:
            writer.writerow(
                [sample["sample_id"], sample["label"], sample["mu"], sample["sigma"], sample["decision_value"]]
            )
        texts[args.csv] = table.getvalue()
    _write_all(texts)
    print(json.dumps({"accuracy": report.accuracy, "n": len(ids)}, sort_keys=True))
    return [args.detector, args.dataset, args.calibration], list(texts)


def _write_all(texts):
    """Write every ``{path: text}`` or none: each text goes to a ``.partial`` file beside its path, and the
    files are renamed into place only once all are written. On an error the partial files are removed."""
    staged = []
    try:
        for path, text in texts.items():
            partial = f"{path}.partial"
            with open(partial, "w", newline="") as fh:
                staged.append(partial)
                fh.write(text)
        for partial, path in zip(staged, texts):
            os.replace(partial, path)
    finally:
        for partial in staged:
            if os.path.exists(partial):
                os.remove(partial)


def _cmd_characterize(args):
    geom = _geometry(args)
    rig = IndenterRig(
        geometry=geom,
        membrane=_membrane(args, geom, stiffness=defaults.RIG_MEMBRANE_STIFFNESS),
    )
    model = load_model(args.calibration)
    report = characterize(rig, model, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(report.summary(), indent=2, sort_keys=True) + "\n")
    with (out_dir / "sweeps.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["direction", "force_n", "max_depth_mm", "mean_depth_mm"])
        for sweep in (report.loading, report.unloading):
            for force, dmax, dmean in zip(sweep.forces, sweep.max_depths, sweep.mean_depths):
                writer.writerow([sweep.direction, force, dmax, dmean])
    with (out_dir / "trials.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "step_depth_mm", "measured_depth_mm"])
        for t in range(report.trials.measurements.shape[0]):
            for step, measured in zip(report.trials.step_depths, report.trials.measurements[t]):
                writer.writerow([t, step, measured])
    print(json.dumps(report.summary(), sort_keys=True))
    return [args.calibration], [str(out_dir)]


# Each handler returns the (inputs, outputs) its run manifest records, or None when it writes no file.
_HANDLERS = {
    "phantom": _cmd_phantom,
    "imprint": _cmd_imprint,
    "calibrate": _cmd_calibrate,
    "reconstruct": _cmd_reconstruct,
    "dataset": _cmd_dataset,
    "train-detector": _cmd_train_detector,
    "detect": _cmd_detect,
    "evaluate": _cmd_evaluate,
    "characterize": _cmd_characterize,
}
VERBS = tuple(_HANDLERS)


def _usage(parser) -> str:
    """The parser's usage text on one line."""
    return " ".join(parser.format_usage().split())


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}; {_usage(err.parser)}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help/--version paths
        return 0 if err.code in (0, None) else 1
    if args.verb is None:
        print(f"error: no verb given; {_usage(parser)}", file=sys.stderr)
        return 1
    for name in ("seed", "membrane_seed"):
        value = getattr(args, name, None)
        if value is not None and not 0 <= value < SEED_LIMIT:
            print(f"error: --{name.replace('_', '-')} must lie in [0, 2^63), got {value}", file=sys.stderr)
            return 2
    started = time.monotonic()
    try:
        written = _HANDLERS[args.verb](args)
        if written is not None:
            _write_manifest(args, *written, started)
    except (
        ValueError,
        PpmFormatError,
        DmapFormatError,
        KeyError,
        OSError,
        json.JSONDecodeError,
        TrainingDivergedError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
