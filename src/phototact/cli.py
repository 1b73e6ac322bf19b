"""Command-line entry point wiring the modules into reproducible pipelines.

Every artifact-producing verb writes a run manifest next to its primary
output (``<output>.manifest.json``) recording the command, the fully
resolved configuration, the seed, the tool version, input/output paths, the
BLAS thread count the verb ran at, the BLAS kernel and numpy's SIMD targets.
Re-running the recorded ``argv`` reproduces the outputs byte for byte; the
manifest sits beside the outputs so reruns stay byte-identical.

A verb publishes its outputs, its manifest and its stdout only when it
succeeds: one that exits non-zero leaves every output path and stdout as it
found them.  Each output's parent directory must already exist, and an
existing output directory keeps every file the run does not write.

Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import errno
import functools
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, defaults
from .calibration import (
    TrainConfig,
    TrainingDivergedError,
    build_calib_dataset,
    disc_depths,
    load_model,
    reconstruct,
    save_model,
    train_mlp,
)
from .characterization import characterize
from .detection import (
    check_regularization,
    classify,
    decision_value,
    depth_features,
    evaluate,
    extract_features,
    fit_detector,
    load_detector,
    save_detector,
    stratified_split,
)
from .imaging import SensorGeometry, load_dmap, load_ppm, parse_json, save_dmap, save_ppm, write_csv, write_json
from .imprint import ImprintParams, augmented_imprint, color_delta
from .phantom import DatasetSpec, PhantomConfig, contact_solve, dataset_presses, reading_pair

# Seeds key uint64 Philox streams, and a phantom's reading pair doubles the seed (see phantom.reading_pair).
SEED_LIMIT = 2**63


class UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self)


def _geometry(args) -> SensorGeometry:
    return SensorGeometry(width=args.width, height=args.height, mm_per_pixel=args.mm_per_pixel)


def build_parser() -> _Parser:
    parser = _Parser(prog="phototact", description=__doc__)
    parser.add_argument("--version", action="version", version=f"phototact {__version__}")
    sub = parser.add_subparsers(dest="verb", metavar="|".join(VERBS))
    geometry = argparse.ArgumentParser(add_help=False)  # the image geometry flags, a parent of the verbs that take them
    geometry.add_argument("--width", type=int, default=SensorGeometry.width)
    geometry.add_argument("--height", type=int, default=SensorGeometry.height)
    geometry.add_argument("--mm-per-pixel", type=float, default=SensorGeometry.mm_per_pixel)

    p = sub.add_parser("phantom", parents=[geometry], help="simulate one press and write the capture pair + truth map")
    p.add_argument("--config", help="PhantomConfig JSON file (overrides the flags below)")
    p.add_argument("--tumor", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--diameter", type=float, default=PhantomConfig.ball_diameter_mm, help="ball diameter, mm")
    p.add_argument("--burial", type=float, default=PhantomConfig.burial_depth_mm, help="burial depth, mm")
    p.add_argument("--offset-x", type=float, default=PhantomConfig.lateral_offset_mm[0])
    p.add_argument("--offset-y", type=float, default=PhantomConfig.lateral_offset_mm[1])
    p.add_argument("--mass", type=float, default=PhantomConfig.applied_mass_g, help="applied mass, grams")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("imprint", help="amplified difference image of a reading pair")
    p.add_argument("--ref", required=True)
    p.add_argument("--contact", required=True)
    p.add_argument("--alpha", type=float, default=ImprintParams.alpha)
    p.add_argument("--beta", type=float, default=ImprintParams.beta)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "calibrate", parents=[geometry], help="train the color-to-depth model on simulated sphere presses"
    )
    p.add_argument("--captures", type=int, default=defaults.CALIBRATION_CAPTURES)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", parents=[geometry], help="depth map from a reading pair")
    p.add_argument("--model", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--contact", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("dataset", parents=[geometry], help="generate the labeled phantom dataset directory")
    p.add_argument("--spec", default="default", help="'default' or a DatasetSpec JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-detector", parents=[geometry], help="fit the linear detector on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("detect", help="classify one depth map; prints JSON to stdout")
    p.add_argument("--detector", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--report", help="also write the JSON result to this path")

    p = sub.add_parser("evaluate", parents=[geometry], help="score the detector over a dataset directory")
    p.add_argument("--detector", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--csv", help="optional per-sample CSV path")

    p = sub.add_parser("characterize", parents=[geometry], help="run the metrology harness on the simulated rig")
    p.add_argument("--calibration", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory (summary.json, sweeps.csv, trials.csv)")

    for p in sub.choices.values():
        p.add_argument("--manifest")
    return parser


class _Publication:
    """The outputs of one run, staged and then renamed into place together.

    Each output is staged in a fresh directory of this run, made beside it or, for an existing output
    directory, inside it, so every rename stays on one filesystem.
    """

    def __init__(self):
        self.staged = {}  # final path -> staged path, in publication order
        self.staging = []

    def stage(self, path, directory=False):
        """The path to write in place of ``path``; with ``directory``, an empty directory whose files
        are published into ``path``, file by file when ``path`` is an existing directory.

        A path staged twice, or a file the run already wrote inside a staged directory, is refused: the
        second write would replace the first output."""
        final = Path(os.path.abspath(path))
        inside = final.parent in self.staged  # a file inside an output directory is published with that directory
        if final in self.staged or inside and (self.staged[final.parent] / final.name).exists():
            raise ValueError(f"{final} is named as two outputs of this run")
        if inside:
            return self.staged[final.parent] / final.name
        merge = directory and final.is_dir()
        home = final if merge else final.parent
        try:
            self.staging.append(Path(tempfile.mkdtemp(prefix=".phototact-", suffix=".partial", dir=home)))
        except OSError as err:
            raise OSError(err.errno, err.strerror, str(home)) from None
        self.staged[final] = self.staging[-1] if merge else self.staging[-1] / final.name
        if directory and not merge:
            self.staged[final].mkdir()
        return self.staged[final]

    def publish(self):
        """Rename every staged file into place, once none would replace a directory or the reverse."""
        moves = []
        for final, staged in self.staged.items():
            merge = staged.is_dir() and final.is_dir()
            moves += [(path, final / path.name) for path in sorted(staged.iterdir())] if merge else [(staged, final)]
        for staged, final in moves:
            if final.exists() and final.is_dir() != staged.is_dir():
                code = errno.ENOTDIR if staged.is_dir() else errno.EISDIR
                raise OSError(code, os.strerror(code), str(final))
        for staged, final in moves:
            os.replace(staged, final)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas64) through ctypes, or None when numpy bundles none."""
    libs = Path(os.path.dirname(os.path.dirname(np.__file__))) / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_corename64_.argtypes = []
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        return lib
    return None


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None without one."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def blas_core():
    """Name of the CPU kernel numpy's bundled OpenBLAS selected, or None without one."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode()


def simd_targets():
    """numpy's dispatch targets that this CPU runs, in numpy's order, or None where numpy exposes none."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        try:
            from numpy.core import _multiarray_umath
        except ImportError:
            return None
    features = _multiarray_umath.__cpu_features__
    return tuple(target for target in _multiarray_umath.__cpu_dispatch__ if features.get(target))


# The verbs whose captures take their noise from the worker thread of ``phantom.disc_captures``.
NOISE_THREAD_VERBS = ("calibrate", "characterize")


@contextlib.contextmanager
def _one_blas_thread_fewer():
    """Run the block with numpy's bundled OpenBLAS at one thread fewer (at least one), then restore the count.

    An OpenBLAS worker spin-waits on a core after each call, so a verb of ``NOISE_THREAD_VERBS`` gives BLAS's
    core to its noise thread for the whole verb: pinned only around its captures, the first BLAS call after them
    would wake the spinning worker again. The other verbs keep the caller's count, which their MLP forwards use.
    The artifact bytes do not depend on the BLAS thread count.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    caller = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(max(1, caller - 1))
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(caller)


def _write_manifest(stage, args, inputs, outputs, started):
    """Run manifest of ``args.verb``, at ``--manifest`` or beside the first output."""
    config = {k: v for k, v in vars(args).items() if k not in ("verb", "manifest")}
    target = args.manifest
    if target is None:  # beside the first output, also when that is a directory given as "." or with a "/"
        target = f"{os.path.abspath(outputs[0])}.manifest.json"
    doc = {
        "command": args.verb,
        "argv": [args.verb] + _config_argv(config),
        "config": config,
        "seed": config.get("seed"),
        "tool_version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "duration_s": round(time.monotonic() - started, 6),
        "blas_threads": blas_threads(),
        "blas_core": blas_core(),
        "simd_targets": simd_targets(),
    }
    write_json(stage(target), doc)


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


def _read_config(cls, path):
    """The config dataclass ``cls`` from the JSON file at ``path``."""
    return cls.from_dict(parse_json(path))


def _load_phantom_config(args) -> PhantomConfig:
    if args.config:
        return _read_config(PhantomConfig, args.config)
    return PhantomConfig(
        tumor_present=args.tumor,
        ball_diameter_mm=args.diameter,
        burial_depth_mm=args.burial,
        lateral_offset_mm=(args.offset_x, args.offset_y),
        applied_mass_g=args.mass,
    )


def _press_files(stem):
    """The files of the press at path ``stem``: its reference capture, its contact capture and its truth map."""
    return [f"{stem}_ref.ppm", f"{stem}_contact.ppm", f"{stem}_truth.dmap"]


def _save_press(paths, cfg, seed, geom):
    """Write the press of ``cfg`` at ``seed`` to the three ``_press_files`` paths ``paths``: its reading pair, then
    its truth map. The captures are freed when this returns."""
    truth = contact_solve(cfg, geom)
    ref, contact = reading_pair(truth, seed)
    save_ppm(paths[0], ref)
    save_ppm(paths[1], contact)
    save_dmap(paths[2], truth)


def _cmd_phantom(args, stage):
    geom = _geometry(args)
    cfg = _load_phantom_config(args)
    paths = _press_files(args.out_prefix)
    _save_press([stage(path) for path in paths], cfg, args.seed, geom)
    return [args.config] if args.config else [], paths


def _cmd_imprint(args, stage):
    ref = load_ppm(args.ref)
    contact = load_ppm(args.contact)
    result = augmented_imprint(ref, contact, ImprintParams(alpha=args.alpha, beta=args.beta))
    save_ppm(stage(args.out), result)
    return [args.ref, args.contact], [args.out]


def _cmd_calibrate(args, stage):
    cfg = TrainConfig(
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    geom = _geometry(args)
    features, depths = build_calib_dataset(args.captures, geom, args.seed)
    model = train_mlp(features, depths, cfg)
    save_model(stage(args.out), model)
    return [], [args.out]


def _cmd_reconstruct(args, stage):
    geom = _geometry(args)
    model = load_model(args.model)
    dmap = reconstruct(model, load_ppm(args.ref), load_ppm(args.contact), geom)
    save_dmap(stage(args.out), dmap)
    return [args.model, args.ref, args.contact], [args.out]


# A dataset directory holds each sample's press files and manifest.csv, one row per sample with these columns.
DATASET_CSV_FIELDS = ("sample_id", "label", "ball_diameter_mm", "burial_depth_mm", "applied_mass_g", "seed")


def _cmd_dataset(args, stage):
    geom = _geometry(args)
    spec = DatasetSpec() if args.spec == "default" else _read_config(DatasetSpec, args.spec)
    presses = dataset_presses(spec, args.seed)
    out_dir = stage(args.out, directory=True)
    write_csv(out_dir / "manifest.csv", DATASET_CSV_FIELDS, _dataset_rows(presses, out_dir, geom))
    return [] if args.spec == "default" else [args.spec], [str(Path(args.out))]


def _dataset_rows(presses, out_dir, geom):
    """Each press's manifest.csv row, yielded once its press files are saved in ``out_dir``."""
    for sample_id, label, cfg, seed in presses:
        _save_press(_press_files(out_dir / sample_id), cfg, seed, geom)
        tumor = cfg.tumor_present
        yield [sample_id, label, cfg.ball_diameter_mm if tumor else "", cfg.burial_depth_mm if tumor else "",
               cfg.applied_mass_g, seed]


def _read_dataset_manifest(dataset_dir):
    """(sample_ids, labels) of a dataset directory, from its manifest.csv."""
    manifest = Path(dataset_dir) / "manifest.csv"
    if not manifest.exists():
        raise ValueError(f"missing dataset manifest {manifest}")
    try:
        with manifest.open(newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = tuple(reader.fieldnames or ()), list(reader)
    except csv.Error as err:
        raise ValueError(f"dataset manifest {manifest} is not a readable CSV table: {err}") from None
    if header != DATASET_CSV_FIELDS:
        raise ValueError(f"dataset manifest {manifest} must have the header {','.join(DATASET_CSV_FIELDS)}")
    labels, ids = [], []
    for row in rows:
        sample_id = row["sample_id"]
        if sample_id in ("", ".", "..") or "/" in sample_id or "\\" in sample_id or not sample_id.isprintable():
            raise ValueError(f"dataset manifest {manifest}: sample id {sample_id!r} is not a file name stem")
        if row["label"] not in ("1", "-1"):
            raise ValueError(f"dataset manifest {manifest}: label {row['label']!r} of {sample_id!r} is not 1 or -1")
        if sample_id in ids:
            raise ValueError(f"dataset manifest {manifest} lists the sample id {sample_id!r} twice")
        labels.append(int(row["label"]))
        ids.append(sample_id)
    if not ids:
        raise ValueError(f"dataset manifest {manifest} lists no sample")
    return ids, np.array(labels)


def _dataset_features(dataset_dir, sample_ids, calib_model, geom):
    """The (mu, sigma) row of each sample of a dataset directory, from its reconstructed depths.

    A missing capture of any sample is reported before the first sample is reconstructed."""
    pairs = [_press_files(Path(dataset_dir) / sample_id)[:2] for sample_id in sample_ids]
    for path in (path for pair in pairs for path in pair):
        if not os.path.exists(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    return np.array([depth_features(disc_depths(calib_model, color_delta(load_ppm(ref), load_ppm(contact), geom)))
                     for ref, contact in pairs])


def _cmd_train_detector(args, stage):
    geom = _geometry(args)
    calib = load_model(args.calibration)
    ids, labels = _read_dataset_manifest(args.dataset)
    train_idx, test_idx = stratified_split(labels, train_fraction=args.train_fraction, seed=args.seed)
    check_regularization(args.c)
    features = _dataset_features(args.dataset, ids, calib, geom)
    detector = fit_detector(features[train_idx], labels[train_idx], c=args.c)
    save_detector(stage(args.out), detector)
    train_report = evaluate(detector, features[train_idx], labels[train_idx])
    test_report = evaluate(detector, features[test_idx], labels[test_idx])
    scores = {
        "train_accuracy": train_report.accuracy,
        "test_accuracy": test_report.accuracy,
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
    }
    meta = detector.training_meta
    warning = [] if meta["converged"] else [
        f"the SVM solve stopped at its step cap of {meta['iterations']} steps with a duality gap of "
        f"{meta['duality_gap']:.6g}, so {args.out} is not the exact optimum"]
    return [args.dataset, args.calibration], [args.out], scores, *warning


def _cmd_detect(args, stage):
    detector = load_detector(args.detector)
    row = extract_features(load_dmap(args.map))
    result = {"label": classify(detector, row), "decision_value": decision_value(detector, row),
              "mu": float(row[0]), "sigma": float(row[1])}
    if args.report:
        write_json(stage(args.report), result)
    return [args.detector, args.map], [args.report] if args.report else [], result


# The per-sample columns of evaluate: the keys of each object in the report's "samples" and the --csv header.
EVALUATE_SAMPLE_FIELDS = ("sample_id", "label", "mu", "sigma", "decision_value")


def _cmd_evaluate(args, stage):
    geom = _geometry(args)
    calib = load_model(args.calibration)
    detector = load_detector(args.detector)
    ids, labels = _read_dataset_manifest(args.dataset)
    features = _dataset_features(args.dataset, ids, calib, geom)
    report = evaluate(detector, features, labels)
    rows = [(sid, int(lab), float(f[0]), float(f[1]), dv)
            for sid, lab, f, dv in zip(ids, labels, features, report.decision_values)]
    write_json(stage(args.out), {**asdict(report), "samples": [dict(zip(EVALUATE_SAMPLE_FIELDS, r)) for r in rows]})
    if args.csv:
        write_csv(stage(args.csv), EVALUATE_SAMPLE_FIELDS, rows)
    outputs = [args.out, args.csv] if args.csv else [args.out]
    return [args.detector, args.dataset, args.calibration], outputs, {"accuracy": report.accuracy, "n": len(ids)}


def _cmd_characterize(args, stage):
    geom = _geometry(args)
    model = load_model(args.calibration)
    report = characterize(geom, model, seed=args.seed)
    out_dir = stage(args.out, directory=True)
    summary = report.summary()
    write_json(out_dir / "summary.json", summary)
    write_csv(out_dir / "sweeps.csv", ("direction", "force_n", "max_depth_mm", "mean_depth_mm"),
              ((sweep.direction, *row) for sweep in (report.loading, report.unloading)
               for row in zip(sweep.forces, sweep.max_depths, sweep.mean_depths)))
    write_csv(out_dir / "trials.csv", ("trial", "step_depth_mm", "measured_depth_mm"),
              ((t, *row) for t, measured in enumerate(report.trials.measurements)
               for row in zip(report.trials.step_depths, measured)))
    return [args.calibration], [str(Path(args.out))], summary


# Each handler writes every output to the path ``stage(output)`` gives and returns the (inputs, outputs) its
# run manifest records, then the document it prints, if any, then the text of a warning for stderr, if any.  A
# run with no outputs writes a manifest only at ``--manifest``.
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
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < SEED_LIMIT:
        print(f"error: --seed must lie in [0, 2^63), got {seed}", file=sys.stderr)
        return 2
    started = time.monotonic()
    publication = _Publication()
    try:
        with _one_blas_thread_fewer() if args.verb in NOISE_THREAD_VERBS else contextlib.nullcontext():
            inputs, outputs, *stdout = _HANDLERS[args.verb](args, publication.stage)
            if outputs or args.manifest:
                _write_manifest(publication.stage, args, inputs, outputs, started)
        publication.publish()
    except (ValueError, KeyError, OSError, MemoryError, TrainingDivergedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        for staging in publication.staging:
            shutil.rmtree(staging, ignore_errors=True)
    for doc in stdout:
        if isinstance(doc, str):
            print(f"warning: {doc}", file=sys.stderr)
        else:
            print(json.dumps(doc, sort_keys=True))
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
