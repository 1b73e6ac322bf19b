import argparse
import ast
import csv
import gc
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import phototact as pt
from phototact import calibration, characterization, cli, phantom
from phototact.cli import dispatch
from phototact.detection import DetectorModel, save_detector

SMALL = ["--width", "100", "--height", "80", "--mm-per-pixel", "0.1"]
# A 2x2 image at 10 mm per pixel: its pixel centers lie 7.07 mm from the image center, outside the 3.5 mm disc.
EMPTY_DISC = ["--width", "2", "--height", "2", "--mm-per-pixel", "10"]
# An odd-sized image keeps its center pixel in the disc at any scale; at 1e160 mm per pixel the frame's squared
# extent overflows a float.
HUGE_SCALE = ["--width", "101", "--height", "81", "--mm-per-pixel", "1e160"]


def run(argv):
    """``dispatch`` on ``argv``, checking that the verb gave back the BLAS thread count and left no thread alive."""
    threads, blas = set(threading.enumerate()), cli.blas_threads()
    code = dispatch([str(a) for a in argv])
    assert (cli.blas_threads(), set(threading.enumerate())) == (blas, threads)
    return code


def verb_blas_threads(verb):
    """The BLAS thread count ``verb`` runs at: one fewer than the caller's in a verb with a noise thread."""
    caller = cli.blas_threads()
    return max(1, caller - 1) if caller is not None and verb in cli.NOISE_THREAD_VERBS else caller


def tree_bytes(root):
    """Every path under ``root``, relative to it, with a file's bytes and None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.fixture()
def tiny_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "calib.json"
    code = run(
        ["calibrate", *SMALL, "--captures", 4, "--epochs", 6, "--seed", 3, "--out", path]
    )
    assert code == 0
    return path


class TestExitCodes:
    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_verb(self, capsys):
        assert run([]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["imprint", "--bogus", "x"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        out = tmp_path / "o.ppm"
        assert run(["imprint", "--ref", tmp_path / "none.ppm", "--contact", tmp_path / "none.ppm", "--out", out]) == 2

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n2 2\n255\n\x00")
        assert run(["imprint", "--ref", bad, "--contact", bad, "--out", tmp_path / "o.ppm"]) == 2
        assert "unexpected end of pixel data" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_input_too_large_to_allocate_exits_2(self, tmp_path):
        """A child process whose address space is capped at 2 GiB fails the 7 TiB allocation at once, whatever the
        machine's overcommit setting; the verb reports it like any data error."""
        script = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
                  "from phototact.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["calibrate", *SMALL, "--captures", 10**12, "--out", tmp_path / "c.json"]
        done = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        assert "allocate" in done.stderr and done.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", -1],
            ["--seed", 2**63],
            ["--seed", 2**64],
        ],
    )
    def test_seed_out_of_range(self, tmp_path, capsys, flags):
        assert run(["phantom", *SMALL, *flags, "--out-prefix", tmp_path / "press"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{flags[0]} must lie in [0, 2^63)" in err
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_accepted(self, tmp_path):
        assert run(["phantom", *SMALL, "--seed", 2**63 - 1, "--out-prefix", tmp_path / "press"]) == 0

    def test_non_finite_mass(self, tmp_path, capsys):
        assert run(["phantom", *SMALL, "--mass", "nan", "--out-prefix", tmp_path / "press"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_divergence(self, tmp_path, capsys):
        out = tmp_path / "calib.json"
        argv = ["calibrate", *SMALL, "--captures", 1, "--epochs", 1, "--batch-size", 256, "--learning-rate", 1e300]
        # pytest records warnings instead of printing them, so they are checked apart from stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "loss is not finite" in err
        assert len(err.splitlines()) == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


class TestPhantomVerb:
    def test_writes_pair_truth_and_manifest(self, tmp_path):
        prefix = tmp_path / "press"
        assert run(["phantom", *SMALL, "--seed", 5, "--out-prefix", prefix]) == 0
        ref = pt.load_ppm(tmp_path / "press_ref.ppm")
        contact = pt.load_ppm(tmp_path / "press_contact.ppm")
        truth = pt.load_dmap(tmp_path / "press_truth.dmap")
        assert ref.width == 100 and contact.height == 80
        assert truth.mask.sum() > 0
        manifest = json.loads((tmp_path / "press_ref.ppm.manifest.json").read_text())
        assert manifest["command"] == "phantom"
        assert manifest["seed"] == 5
        assert manifest["tool_version"] == pt.__version__
        assert "duration_s" in manifest

    def test_no_tumor_flag(self, tmp_path):
        prefix = tmp_path / "flat"
        assert run(["phantom", *SMALL, "--no-tumor", "--out-prefix", prefix]) == 0
        truth = pt.load_dmap(tmp_path / "flat_truth.dmap")
        depths = truth.depths[truth.mask]
        assert depths.std() < 1e-6

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tumor_present": True, "ball_diameter_mm": 8.0, "burial_depth_mm": 2.0}))
        assert run(["phantom", *SMALL, "--config", cfg, "--out-prefix", tmp_path / "c"]) == 0

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"tumor_present": True, "diameter_mm": 8.0}, "unknown phantom config keys: diameter_mm"),
            ({"ball_diameter_mm": 8.0}, "needs 'tumor_present'"),
        ],
    )
    def test_bad_config_file(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["phantom", *SMALL, "--config", cfg, "--out-prefix", tmp_path / "c"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_offset_whose_square_overflows_adds_no_inclusion(self, tmp_path):
        names = ("_ref.ppm", "_contact.ppm", "_truth.dmap")
        outputs = {}
        for offset in ("1e100", "1e200"):  # (1e200 mm)^2 overflows a float
            prefix = tmp_path / offset
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(["phantom", *SMALL, "--offset-x", offset, "--out-prefix", prefix]) == 0
            assert [str(w.message) for w in caught] == []
            outputs[offset] = [Path(f"{prefix}{name}").read_bytes() for name in names]
        assert outputs["1e200"] == outputs["1e100"]


class TestImprintVerb:
    def test_applies_amplified_difference(self, tmp_path):
        ref = pt.RgbImage(np.full((2, 2, 3), 100, dtype=np.uint8))
        contact_px = np.full((2, 2, 3), 100, dtype=np.uint8)
        contact_px[0, 0] = (130, 100, 60)  # deltas +30, 0, -40
        pt.save_ppm(tmp_path / "a.ppm", ref)
        pt.save_ppm(tmp_path / "b.ppm", pt.RgbImage(contact_px))
        out = tmp_path / "c.ppm"
        assert run(["imprint", "--ref", tmp_path / "a.ppm", "--contact", tmp_path / "b.ppm",
                    "--alpha", 5, "--out", out]) == 0
        result = pt.load_ppm(out)
        assert tuple(result.pixels[0, 0]) == (255, 128, 0)
        assert tuple(result.pixels[1, 1]) == (128, 128, 128)


class TestCalibrateReconstruct:
    def test_pipeline(self, tmp_path, tiny_model_path):
        prefix = tmp_path / "press"
        assert run(["phantom", *SMALL, "--seed", 9, "--out-prefix", prefix]) == 0
        out = tmp_path / "recon.dmap"
        assert run(["reconstruct", *SMALL, "--model", tiny_model_path,
                    "--ref", tmp_path / "press_ref.ppm", "--contact", tmp_path / "press_contact.ppm",
                    "--out", out]) == 0
        recon = pt.load_dmap(out)
        truth = pt.load_dmap(tmp_path / "press_truth.dmap")
        assert recon.depths.shape == truth.depths.shape
        assert recon.depths[recon.mask].mean() > 0.1  # a 1000 g press is far above noise


class TestModelFile:
    @pytest.mark.parametrize("value", ["NaN", "-1.0", "0.25", "5.0"])
    def test_hand_edited_max_depth(self, tmp_path, tiny_model_path, capsys, value):
        model = tmp_path / "edited.json"
        text = tiny_model_path.read_text()
        assert '"max_depth": 0.5' in text
        model.write_text(text.replace('"max_depth": 0.5', f'"max_depth": {value}'))
        assert run(["phantom", *SMALL, "--seed", 9, "--out-prefix", tmp_path / "press"]) == 0
        assert run(["reconstruct", *SMALL, "--model", model, "--ref", tmp_path / "press_ref.ppm",
                    "--contact", tmp_path / "press_contact.ppm", "--out", tmp_path / "recon.dmap"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max depth must be 0.5 mm, the full scale" in err
        assert not (tmp_path / "recon.dmap").exists()


def reference_dataset_features(dataset_dir, calib_model, geom):
    """Per-sample reconstruction of full depth maps, then feature extraction."""
    features, labels, ids = [], [], []
    for line in (dataset_dir / "manifest.csv").read_text().splitlines()[1:]:
        sample_id, label = line.split(",")[:2]
        ref = pt.load_ppm(dataset_dir / f"{sample_id}_ref.ppm")
        contact = pt.load_ppm(dataset_dir / f"{sample_id}_contact.ppm")
        features.append(pt.extract_features(pt.reconstruct(calib_model, ref, contact, geom)))
        labels.append(int(label))
        ids.append(sample_id)
    return np.array(features), np.array(labels), ids


class TestDatasetVerbs:
    @pytest.fixture()
    def tiny_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "diameters_mm": [4.0, 8.0],
                    "burial_depths_mm": [2.0],
                    "presses_per_positive": 2,
                    "positive_mass_g": 1000.0,
                    "negative_masses_g": [1000.0, 1200.0],
                    "presses_per_negative_mass": 2,
                }
            )
        )
        return spec

    def test_dataset_inventory_and_determinism(self, tmp_path, tiny_spec):
        out_a = tmp_path / "da"
        out_b = tmp_path / "db"
        for out in (out_a, out_b):
            assert run(["dataset", *SMALL, "--spec", tiny_spec, "--seed", 7, "--out", out]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)
        manifest = (out_a / "manifest.csv").read_text().strip().splitlines()
        assert manifest[0] == "sample_id,label,ball_diameter_mm,burial_depth_mm,applied_mass_g,seed"
        assert len(manifest) == 1 + 8  # 4 positives + 4 negatives
        files = list(out_a.glob("*.ppm"))
        assert len(files) == 16

    def test_existing_output_directory_keeps_other_files(self, tmp_path, tiny_spec):
        out = tmp_path / "data"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / "manifest.csv").write_text("stale")
        assert run(["dataset", *SMALL, "--spec", tiny_spec, "--seed", 7, "--out", f"{out}/"]) == 0
        fresh = tmp_path / "fresh"  # made by the run, with the run manifest inside it
        assert run(["dataset", *SMALL, "--spec", tiny_spec, "--seed", 7, "--out", fresh,
                    "--manifest", fresh / "run.json"]) == 0
        assert json.loads((fresh / "run.json").read_text())["outputs"] == [str(fresh)]
        (fresh / "run.json").unlink()
        assert tree_bytes(out) == {**tree_bytes(fresh), Path("notes.txt"): b"kept"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "data.manifest.json", "fresh", "spec.json"]

    @pytest.mark.parametrize("geometry_flags", [SMALL, []], ids=["small", "default"])
    def test_dataset_features_match_full_map_reference(self, tmp_path, tiny_spec, tiny_model_path, geometry_flags):
        data = tmp_path / "data"
        assert run(["dataset", *geometry_flags, "--spec", tiny_spec, "--seed", 7, "--out", data]) == 0
        args = cli.build_parser().parse_args(["evaluate", *geometry_flags, "--detector", "d", "--dataset", "d",
                                              "--calibration", "c", "--out", "o"])
        geom = cli._geometry(args)
        model = pt.load_model(tiny_model_path)
        ids, labels = cli._read_dataset_manifest(data)
        features = cli._dataset_features(data, ids, model, geom)
        expected = reference_dataset_features(data, model, geom)
        assert np.array_equal(features, expected[0])
        assert np.array_equal(labels, expected[1]) and ids == expected[2]

    def test_dataset_memory_does_not_grow_with_sample_count(self, tmp_path):
        def spec_path(presses):
            spec = tmp_path / f"spec{presses}.json"
            spec.write_text(json.dumps({"diameters_mm": [6.0], "burial_depths_mm": [3.0],
                                        "presses_per_positive": presses, "positive_mass_g": 1000.0,
                                        "negative_masses_g": [1000.0], "presses_per_negative_mass": presses}))
            return spec

        def peak(presses):
            tracemalloc.start()
            try:
                assert run(["dataset", *SMALL, "--spec", spec_path(presses), "--out", tmp_path / f"d{presses}"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: first-use allocations are not per-sample costs
        small, large = peak(2), peak(8)  # 4 and 16 samples
        sample = pt.load_ppm(tmp_path / "d8" / "pos_d6_b3_p0_ref.ppm").pixels.nbytes * 2
        sample += pt.load_dmap(tmp_path / "d8" / "pos_d6_b3_p0_truth.dmap").depths.nbytes
        assert large - small < sample

    def test_dataset_holds_one_sample_at_a_time(self, tmp_path, tiny_spec, monkeypatch):
        """No earlier sample is alive while the next one renders: its captures are freed once they are written."""
        alive = []
        render = cli.reading_pair

        def counting(*args):
            alive.append(sum(isinstance(o, pt.RgbImage) for o in gc.get_objects()))
            return render(*args)

        monkeypatch.setattr(cli, "reading_pair", counting)
        assert run(["dataset", *SMALL, "--spec", tiny_spec, "--out", tmp_path / "data"]) == 0
        assert len(alive) == 8 and max(alive) == 0

    def test_dataset_press_is_the_phantom_press(self, tmp_path, tiny_spec):
        """A dataset sample's three files are the bytes ``phantom`` writes for its config at its manifest seed."""
        data = tmp_path / "data"
        assert run(["dataset", *SMALL, "--spec", tiny_spec, "--seed", 7, "--out", data]) == 0
        with (data / "manifest.csv").open(newline="") as fh:
            rows = {row["sample_id"]: row for row in csv.DictReader(fh)}
        presses = {"pos_d8_b2_p1": ["--diameter", rows["pos_d8_b2_p1"]["ball_diameter_mm"],
                                    "--burial", rows["pos_d8_b2_p1"]["burial_depth_mm"]],
                   "neg_m1200_p0": ["--no-tumor"]}
        for sample_id, flags in presses.items():
            row, prefix = rows[sample_id], tmp_path / "phantom" / sample_id
            prefix.parent.mkdir(exist_ok=True)
            assert run(["phantom", *SMALL, *flags, "--mass", row["applied_mass_g"], "--seed", row["seed"],
                        "--out-prefix", prefix]) == 0
            for written, pressed in zip(cli._press_files(data / sample_id), cli._press_files(prefix)):
                assert Path(written).read_bytes() == Path(pressed).read_bytes(), written

    def test_two_verbs_build_the_membrane_once(self, tmp_path, tiny_spec, monkeypatch):
        """``phantom`` then ``dataset`` in one process, at a frame shape no other test renders, build the membrane's
        baseline (its three cosine fields) once and its noise-free rest render (the one ``deformed_hsv`` whose index
        covers the frame) once."""
        fields, frames = [], []
        smooth_field, deformed_hsv = phantom._smooth_field, phantom.deformed_hsv

        def recorded(dmap, index):
            if len(index) == dmap.depths.size:
                frames.append(dmap.depths.shape)
            return deformed_hsv(dmap, index)

        monkeypatch.setattr(phantom, "_smooth_field", lambda *args: fields.append(1) or smooth_field(*args))
        monkeypatch.setattr(phantom, "deformed_hsv", recorded)
        flags = ["--width", "110", "--height", "90", "--mm-per-pixel", "0.1"]
        assert run(["phantom", *flags, "--no-tumor", "--seed", 3, "--out-prefix", tmp_path / "press"]) == 0
        assert run(["dataset", *flags, "--spec", tiny_spec, "--seed", 7, "--out", tmp_path / "data"]) == 0
        assert len(fields) == 3 and frames == [(90, 110)]

    def test_detector_training_and_evaluate(self, tmp_path, tiny_spec, tiny_model_path, capsys):
        data = tmp_path / "data"
        assert run(["dataset", *SMALL, "--spec", tiny_spec, "--seed", 7, "--out", data]) == 0
        detector = tmp_path / "detector.json"
        assert run(["train-detector", *SMALL, "--dataset", data, "--calibration", tiny_model_path,
                    "--train-fraction", "0.5", "--seed", 1, "--out", detector]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(summary) == {"train_accuracy", "test_accuracy", "n_train", "n_test"}
        assert detector.exists()

        report = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert run(["evaluate", *SMALL, "--detector", detector, "--dataset", data,
                    "--calibration", tiny_model_path, "--out", report, "--csv", csv_path]) == 0
        doc = json.loads(report.read_text())
        assert "accuracy" in doc and len(doc["samples"]) == 8
        assert csv_path.read_text().startswith("sample_id,label,mu,sigma,decision_value")

    def test_step_cap_warns_once_after_success(self, tmp_path, tiny_spec, tiny_model_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert run(["dataset", *SMALL, "--spec", tiny_spec, "--seed", 7, "--out", data]) == 0

        def train(out, *extra):
            code = run(["train-detector", *SMALL, "--dataset", data, "--calibration", tiny_model_path,
                        "--train-fraction", "0.5", "--seed", 1, "--out", out, *extra])
            return code, *capsys.readouterr()

        capsys.readouterr()
        code, out, err = train(tmp_path / "converged.json")
        assert code == 0 and err == "" and len(out.splitlines()) == 1
        assert json.loads((tmp_path / "converged.json").read_text())["training"]["converged"] is True

        monkeypatch.setattr(pt.detection, "_SMO_MAX_STEPS", 1)
        code, out, err = train(tmp_path / "capped.json")
        assert code == 0 and len(out.splitlines()) == 1
        assert set(json.loads(out)) == {"train_accuracy", "test_accuracy", "n_train", "n_test"}
        training = json.loads((tmp_path / "capped.json").read_text())["training"]
        assert training["converged"] is False and training["iterations"] == 1
        (line,) = err.splitlines()
        assert line.startswith("warning: the SVM solve stopped at its step cap of 1 steps")
        assert f"duality gap of {training['duality_gap']:.6g}" in line

        # A run that fails after the fit publishes nothing and warns of nothing.
        code, out, err = train(tmp_path / "failed.json", "--manifest", tmp_path / "none" / "m.json")
        assert code == 2 and out == "" and err.startswith("error: ") and "warning" not in err
        assert not (tmp_path / "failed.json").exists()


class TestDetectVerb:
    def test_json_output(self, tmp_path, capsys):
        detector = tmp_path / "det.json"
        save_detector(
            detector,
            DetectorModel(
                mean=np.array([0.3, 0.02]),
                std=np.array([0.05, 0.01]),
                weights=np.array([0.33, 4.80]),
                bias=4.53,
            ),
        )
        geom = pt.SensorGeometry(width=100, height=80, mm_per_pixel=0.1)
        depths = np.where(geom.disc_mask, 0.3, 0.0).astype(np.float32)
        dmap = pt.DeformationMap(depths, geom.disc_mask)
        pt.save_dmap(tmp_path / "x.dmap", dmap)
        assert run(["detect", "--detector", detector, "--map", tmp_path / "x.dmap"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"label", "decision_value", "mu", "sigma"}
        assert doc["label"] in ("tumor", "no-tumor")
        assert doc["mu"] == pytest.approx(0.3, abs=1e-6)
        assert doc["sigma"] == pytest.approx(0.0, abs=1e-6)


class TestCharacterizeVerb:
    def test_outputs(self, tmp_path, tiny_model_path, capsys):
        out = tmp_path / "char"
        assert run(["characterize", *SMALL, "--calibration", tiny_model_path, "--seed", 2, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "threshold_N", "resolution_N", "saturation_N", "r_pct", "h_pct", "null_std", "noise_floor_mm",
        }
        sweeps = (out / "sweeps.csv").read_text().splitlines()
        assert sweeps[0] == "direction,force_n,max_depth_mm,mean_depth_mm"
        assert any(line.startswith("unloading") for line in sweeps[1:])
        assert (out / "trials.csv").exists()


def failing_after(calls, error, function):
    """``function``, raising ``error`` from its call number ``calls`` on."""
    count = [0]

    def failing(*args, **kwargs):
        count[0] += 1
        if count[0] >= calls:
            raise error
        return function(*args, **kwargs)

    return failing


# Where a disc-capture verb can fail while its noise thread runs: in the noise draw on that thread, or in the
# consumer of the captures on the main thread.
FAILURE_SITES = {
    "calibrate-draw": (phantom, "_noisy_capture"),
    "calibrate-consumer": (calibration, "disc_rows"),
    "characterize-draw": (phantom, "_noisy_capture"),
    "characterize-consumer": (characterization, "disc_depths"),
}


class TestVerbThreads:
    """A capture verb runs BLAS at one thread fewer and gives the count back, and its noise thread ends with it.

    ``run`` checks the count and the live threads after every verb of this module.
    """

    def test_a_noise_thread_verb_runs_at_one_blas_thread_fewer(self, tmp_path, tiny_model_path, monkeypatch):
        seen = []
        measure = cli.characterize
        monkeypatch.setattr(cli, "characterize", lambda *args, **kwargs: seen.append(cli.blas_threads()) or
                            measure(*args, **kwargs))
        assert run(["characterize", *SMALL, "--calibration", tiny_model_path, "--out", tmp_path / "char"]) == 0
        assert seen == [None if cli.blas_threads() is None else max(1, cli.blas_threads() - 1)]

    def test_without_a_bundled_openblas_nothing_is_pinned(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_openblas", lambda: None)
        assert run(["calibrate", *SMALL, "--captures", 1, "--epochs", 1, "--out", tmp_path / "calib.json"]) == 0
        manifest = json.loads((tmp_path / "calib.json.manifest.json").read_text())
        assert (manifest["blas_threads"], manifest["blas_core"]) == (None, None)

    @pytest.mark.parametrize("site", sorted(FAILURE_SITES))
    def test_a_failure_ends_the_noise_thread(self, tmp_path, tiny_model_path, monkeypatch, capsys, site):
        module, name = FAILURE_SITES[site]
        verbs = {"calibrate": ["calibrate", *SMALL, "--captures", 4, "--epochs", 1, "--out", tmp_path / "calib.json"],
                 "characterize": ["characterize", *SMALL, "--calibration", tiny_model_path, "--out", tmp_path / "c"]}
        argv = verbs[site.split("-")[0]]
        function = getattr(module, name)
        monkeypatch.setattr(module, name, failing_after(3, MemoryError("no room"), function))
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: no room\n"
        # An exception that dispatch does not catch leaves it with the count given back and no thread alive.
        threads, blas = set(threading.enumerate()), cli.blas_threads()
        monkeypatch.setattr(module, name, failing_after(3, RuntimeError("a fault"), function))
        with pytest.raises(RuntimeError, match="a fault"):
            dispatch([str(a) for a in argv])
        assert (cli.blas_threads(), set(threading.enumerate())) == (blas, threads)


# The resolved geometry flags of a run with SMALL.
SMALL_CONFIG = {
    "width": 100,
    "height": 80,
    "mm_per_pixel": 0.1,
}


def config_argv(config):
    """The replay flags of a resolved config: sorted keys, ``None`` dropped, ``True`` as a bare flag."""
    argv = []
    for key, value in sorted(config.items()):
        flag = f"--{key.replace('_', '-')}"
        if value is True:
            argv.append(flag)
        elif value is False:
            argv.append(f"--no-{key}")
        elif value is not None:
            argv.extend([flag, str(value)])
    return argv


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Every verb run once at 100x80 in one directory: (directory, {verb: (manifest, expected manifest)})."""
    d = tmp_path_factory.mktemp("pipeline")

    def p(name):
        return str(d / name)

    spec = d / "spec.json"
    spec.write_text(json.dumps({"diameters_mm": [4.0, 8.0], "burial_depths_mm": [2.0], "presses_per_positive": 2,
                                "positive_mass_g": 1000.0, "negative_masses_g": [1000.0, 1200.0],
                                "presses_per_negative_mass": 2}))
    verbs = {
        "phantom": (
            ["--seed", 5, "--out-prefix", p("press")],
            {**SMALL_CONFIG, "config": None, "tumor": True, "diameter": 6.0, "burial": 3.0, "offset_x": 0.0,
             "offset_y": 0.0, "mass": 1000.0, "seed": 5, "out_prefix": p("press")},
            [],
            [p("press_ref.ppm"), p("press_contact.ppm"), p("press_truth.dmap")],
        ),
        "imprint": (
            ["--ref", p("press_ref.ppm"), "--contact", p("press_contact.ppm"), "--out", p("imprint.ppm")],
            {"ref": p("press_ref.ppm"), "contact": p("press_contact.ppm"), "alpha": 5.0, "beta": 127.5,
             "out": p("imprint.ppm")},
            [p("press_ref.ppm"), p("press_contact.ppm")],
            [p("imprint.ppm")],
        ),
        "calibrate": (
            ["--captures", 4, "--epochs", 6, "--seed", 3, "--out", p("calib.json")],
            {**SMALL_CONFIG, "captures": 4, "epochs": 6, "batch_size": 4096, "learning_rate": 0.001, "seed": 3,
             "out": p("calib.json")},
            [],
            [p("calib.json")],
        ),
        "reconstruct": (
            ["--model", p("calib.json"), "--ref", p("press_ref.ppm"), "--contact", p("press_contact.ppm"),
             "--out", p("recon.dmap")],
            {**SMALL_CONFIG, "model": p("calib.json"), "ref": p("press_ref.ppm"), "contact": p("press_contact.ppm"),
             "out": p("recon.dmap")},
            [p("calib.json"), p("press_ref.ppm"), p("press_contact.ppm")],
            [p("recon.dmap")],
        ),
        "dataset": (
            ["--spec", str(spec), "--seed", 7, "--out", p("data")],
            {**SMALL_CONFIG, "spec": str(spec), "seed": 7, "out": p("data")},
            [str(spec)],
            [p("data")],
        ),
        "train-detector": (
            ["--dataset", p("data"), "--calibration", p("calib.json"), "--train-fraction", 0.5, "--seed", 1,
             "--out", p("detector.json")],
            {**SMALL_CONFIG, "dataset": p("data"), "calibration": p("calib.json"), "c": 1.0, "train_fraction": 0.5,
             "seed": 1, "out": p("detector.json")},
            [p("data"), p("calib.json")],
            [p("detector.json")],
        ),
        "detect": (
            ["--detector", p("detector.json"), "--map", p("recon.dmap"), "--report", p("detect.json")],
            {"detector": p("detector.json"), "map": p("recon.dmap"), "report": p("detect.json")},
            [p("detector.json"), p("recon.dmap")],
            [p("detect.json")],
        ),
        "evaluate": (
            ["--detector", p("detector.json"), "--dataset", p("data"), "--calibration", p("calib.json"),
             "--out", p("report.json"), "--csv", p("report.csv")],
            {**SMALL_CONFIG, "detector": p("detector.json"), "dataset": p("data"), "calibration": p("calib.json"),
             "out": p("report.json"), "csv": p("report.csv")},
            [p("detector.json"), p("data"), p("calib.json")],
            [p("report.json"), p("report.csv")],
        ),
        "characterize": (
            ["--calibration", p("calib.json"), "--seed", 2, "--out", p("char")],
            {**SMALL_CONFIG, "calibration": p("calib.json"), "seed": 2, "out": p("char")},
            [p("calib.json")],
            [p("char")],
        ),
    }
    documents = {}
    for verb, (flags, config, inputs, outputs) in verbs.items():
        geometry_flags = SMALL if "width" in config else []
        assert run([verb, *geometry_flags, *flags]) == 0
        manifest = Path(f"{outputs[0]}.manifest.json")
        expected = {"command": verb, "argv": [verb, *config_argv(config)], "config": config,
                    "seed": config.get("seed"), "tool_version": pt.__version__, "inputs": inputs,
                    "outputs": outputs, "blas_threads": verb_blas_threads(verb), "blas_core": cli.blas_core(),
                    "simd_targets": None if cli.simd_targets() is None else list(cli.simd_targets())}
        documents[verb] = (json.loads(manifest.read_text()), expected)
    return d, documents


class TestManifests:
    """Each verb's manifest, field by field (``duration_s`` aside), at its default path."""

    @pytest.mark.parametrize("verb", cli.VERBS)
    def test_manifest_fields(self, pipeline, verb):
        manifest, expected = pipeline[1][verb]
        assert isinstance(manifest.pop("duration_s"), float)
        assert manifest == expected

    def test_blas_fields(self, pipeline):
        """The manifest names the BLAS thread count the verb ran at and the kernel numpy's bundled OpenBLAS chose."""
        if cli.blas_threads() is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        for verb, (manifest, _) in pipeline[1].items():
            pinned = verb in ("calibrate", "characterize")
            assert manifest["blas_threads"] == (max(1, cli.blas_threads() - 1) if pinned else cli.blas_threads()), verb
            assert isinstance(manifest["blas_core"], str) and manifest["blas_core"], verb

    def test_phantom_argv_literal(self, pipeline):
        d = pipeline[0]
        assert pipeline[1]["phantom"][0]["argv"] == [
            "phantom", "--burial", "3.0", "--diameter", "6.0", "--height", "80", "--mass", "1000.0",
            "--mm-per-pixel", "0.1", "--offset-x", "0.0", "--offset-y", "0.0", "--out-prefix", str(d / "press"),
            "--seed", "5", "--tumor", "--width", "100",
        ]

    def test_detect_without_report_writes_nothing(self, pipeline, capsys):
        d = pipeline[0]
        before = sorted(d.rglob("*"))
        assert run(["detect", "--detector", d / "detector.json", "--map", d / "recon.dmap"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"label", "decision_value", "mu", "sigma"}
        assert sorted(d.rglob("*")) == before

    def test_detect_manifest_without_report(self, pipeline, tmp_path, capsys):
        d = pipeline[0]
        argv = ["detect", "--detector", d / "detector.json", "--map", d / "recon.dmap"]
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        assert run([*argv, "--manifest", tmp_path / "m.json"]) == 0
        assert capsys.readouterr().out == stdout
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["outputs"] == []
        assert manifest["inputs"] == [str(d / "detector.json"), str(d / "recon.dmap")]
        assert sorted(tmp_path.iterdir()) == [tmp_path / "m.json"]

    def test_json_inputs_are_recorded(self, tmp_path):
        """A ``--config`` or ``--spec`` file is an input of the run; ``--spec default`` names no file."""
        cfg = json_file(tmp_path, {"tumor_present": False})
        assert run(["phantom", *SMALL, "--config", cfg, "--out-prefix", tmp_path / "p"]) == 0
        assert json.loads((tmp_path / "p_ref.ppm.manifest.json").read_text())["inputs"] == [str(cfg)]
        assert run(["dataset", *SMALL, "--spec", "default", "--out", tmp_path / "data",
                    "--manifest", tmp_path / "m.json"]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["inputs"] == []

    def test_default_manifest_of_the_current_directory(self, pipeline, tmp_path, monkeypatch):
        """``--out .`` names the working directory, so its manifest lands beside that directory."""
        out = tmp_path / "data"
        out.mkdir()
        monkeypatch.chdir(out)
        assert run(["dataset", *SMALL, "--spec", pipeline[0] / "spec.json", "--seed", 7, "--out", "."]) == 0
        assert json.loads((tmp_path / "data.manifest.json").read_text())["outputs"] == ["."]
        assert sorted(tmp_path.iterdir()) == [out, tmp_path / "data.manifest.json"]
        assert (out / "manifest.csv").read_bytes() == (pipeline[0] / "data" / "manifest.csv").read_bytes()


def json_file(t, doc):
    path = t / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def edited(source, t, **changes):
    """A copy of the JSON file ``source`` in ``t`` with some top-level values replaced."""
    return json_file(t, {**json.loads(Path(source).read_text()), **changes})


def without(source, t, key):
    """A copy of the JSON file ``source`` in ``t`` without its top-level ``key``."""
    doc = json.loads(Path(source).read_text())
    del doc[key]
    return json_file(t, doc)


def zero_depth_model(source, t):
    """A copy of the calibration model file ``source`` whose output bias clamps every depth to 0."""
    biases = json.loads(Path(source).read_text())["biases"]
    return edited(source, t, biases=biases[:-1] + [pt.calibration._encode([-10.0])])


def extra_layer(source, t):
    """A copy of the calibration model file ``source`` with a fifth weight blob and a fifth bias blob."""
    doc = json.loads(Path(source).read_text())
    return edited(source, t, weights=doc["weights"] + doc["weights"][-1:], biases=doc["biases"] + doc["biases"][-1:])


def short_ppm(t):
    path = t / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\x00")
    return path


def bytes_file(t, name, data):
    path = t / name
    path.write_bytes(data)
    return path


def occupied(t, name):
    """``t``, after making ``t / name`` a directory."""
    (t / name).mkdir(parents=True)
    return t


def deep_json(t):
    """A JSON file of 200,000 nested arrays, too deep for the parser's recursion."""
    path = t / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    return path


def dataset_with_manifest(d, t, edit):
    """A copy of the pipeline dataset in ``t`` whose manifest.csv has ``edit`` applied to its text."""
    shutil.copytree(d / "data", t / "data")
    (t / "data" / "manifest.csv").write_text(edit((d / "data" / "manifest.csv").read_text()))
    return t / "data"


def one_sample_both_ways(d, t):
    """A dataset in ``t`` that holds the press of neg_m1000_p0 twice as -1 and twice as +1, and that of pos_d8_b2_p0
    twice as +1, each copy under its own sample id.

    A half split that holds both presses has as many +1 as -1 rows on neg_m1000_p0, so the SVM optimum is w = 0.
    """
    (t / "data").mkdir()
    rows = {line.split(",")[0]: line for line in (d / "data" / "manifest.csv").read_text().splitlines()}
    lines = [rows["sample_id"]]
    for n, (source, label) in enumerate([("neg_m1000_p0", "-1"), ("neg_m1000_p0", "-1"), ("neg_m1000_p0", "1"),
                                         ("pos_d8_b2_p0", "1"), ("neg_m1000_p0", "1"), ("pos_d8_b2_p0", "1")]):
        for name, copy in zip(cli._press_files(d / "data" / source), cli._press_files(t / "data" / f"copy{n}")):
            shutil.copyfile(name, copy)
        lines.append(",".join([f"copy{n}", label, *rows[source].split(",")[2:]]))
    (t / "data" / "manifest.csv").write_text("\n".join(lines) + "\n")
    return t / "data"


# Each verb once, reading the pipeline's files: (argv from (pipeline directory, output directory), its outputs).
WRITING_RUNS = {
    "phantom": (lambda d, t: ["phantom", *SMALL, "--seed", 1, "--out-prefix", t / "press"],
                ["press_ref.ppm", "press_contact.ppm", "press_truth.dmap"]),
    "imprint": (lambda d, t: ["imprint", "--ref", d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                              "--out", t / "imprint.ppm"], ["imprint.ppm"]),
    "calibrate": (lambda d, t: ["calibrate", *SMALL, "--captures", 1, "--epochs", 1, "--out", t / "calib.json"],
                  ["calib.json"]),
    "reconstruct": (lambda d, t: ["reconstruct", *SMALL, "--model", d / "calib.json", "--ref", d / "press_ref.ppm",
                                  "--contact", d / "press_contact.ppm", "--out", t / "recon.dmap"], ["recon.dmap"]),
    "dataset": (lambda d, t: ["dataset", *SMALL, "--spec", d / "spec.json", "--out", t / "data"], ["data"]),
    "train-detector": (lambda d, t: ["train-detector", *SMALL, "--dataset", d / "data", "--calibration",
                                     d / "calib.json", "--train-fraction", 0.5, "--out", t / "detector.json"],
                       ["detector.json"]),
    "detect": (lambda d, t: ["detect", "--detector", d / "detector.json", "--map", d / "recon.dmap",
                             "--report", t / "detect.json"], ["detect.json"]),
    "evaluate": (lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json", "--dataset", d / "data",
                               "--calibration", d / "calib.json", "--out", t / "report.json",
                               "--csv", t / "report.csv"], ["report.json", "report.csv"]),
    "characterize": (lambda d, t: ["characterize", *SMALL, "--calibration", d / "calib.json", "--out", t / "char"],
                     ["char"]),
}


# (verb, case, argv from (pipeline directory, scratch directory), exit code, stderr fragment)
EXIT_CODE_TABLE = [
    ("phantom", "unknown-flag", lambda d, t: ["phantom", "--out-prefix", t / "p", "--bogus"], 1,
     "unrecognized arguments: --bogus"),
    ("phantom", "missing-config", lambda d, t: ["phantom", *SMALL, "--config", t / "none.json", "--out-prefix", t / "p"],
     2, "No such file"),
    ("phantom", "config-not-an-object", lambda d, t: ["phantom", *SMALL, "--config", json_file(t, [1, 2]),
                                                      "--out-prefix", t / "p"], 2, "must be a JSON object"),
    ("phantom", "config-tumor-flag-a-string", lambda d, t: ["phantom", *SMALL, "--config",
                                                            json_file(t, {"tumor_present": "false"}),
                                                            "--out-prefix", t / "p"], 2,
     "tumor_present must be true or false"),
    ("phantom", "config-tumor-flag-a-number", lambda d, t: ["phantom", *SMALL, "--config",
                                                            json_file(t, {"tumor_present": 0}),
                                                            "--out-prefix", t / "p"], 2,
     "tumor_present must be true or false"),
    ("phantom", "config-mass-a-bool", lambda d, t: ["phantom", *SMALL, "--config",
                                                    json_file(t, {"tumor_present": True, "applied_mass_g": True}),
                                                    "--out-prefix", t / "p"], 2,
     "malformed phantom config: TypeError('expected a number, got True')"),
    ("phantom", "config-mass-beyond-float", lambda d, t: ["phantom", *SMALL, "--config",
                                                          json_file(t, {"tumor_present": True,
                                                                        "applied_mass_g": 10**400}),
                                                          "--out-prefix", t / "p"], 2,
     "phantom parameters must be finite"),
    # The phantom's stiffnesses are constants, so a config that names one, at any value, is refused.
    ("phantom", "config-boost-overflows-the-disc-sum",
     lambda d, t: ["phantom", *SMALL, "--config", json_file(t, {"tumor_present": True, "tumor_stiffness_boost": 1e308}),
                   "--out-prefix", t / "p"], 2, "unknown phantom config keys: tumor_stiffness_boost"),
    ("phantom", "config-stiffnesses-overflow-the-field",
     lambda d, t: ["phantom", *SMALL, "--config", json_file(t, {"tumor_present": True, "tissue_stiffness": 1.7e308,
                                                                "tumor_stiffness_boost": 1.7e308}),
                   "--out-prefix", t / "p"], 2, "unknown phantom config keys: tissue_stiffness, tumor_stiffness_boost"),
    ("phantom", "noise-std-flag", lambda d, t: ["phantom", *SMALL, "--noise-std", 1, "--out-prefix", t / "p"], 1,
     "unrecognized arguments: --noise-std 1"),
    ("imprint", "missing-out", lambda d, t: ["imprint", "--ref", d / "press_ref.ppm", "--contact", d / "press_ref.ppm"],
     1, "required: --out"),
    ("imprint", "short-ppm", lambda d, t: ["imprint", "--ref", short_ppm(t), "--contact", d / "press_ref.ppm",
                                           "--out", t / "i.ppm"], 2, "unexpected end of pixel data"),
    ("imprint", "ppm-ends-at-maxval", lambda d, t: ["imprint", "--ref", bytes_file(t, "r.ppm", b"P6\n1 1\n255"),
                                                    "--contact", d / "press_ref.ppm", "--out", t / "i.ppm"], 2,
     "missing whitespace after maxval"),
    ("imprint", "alpha-nan", lambda d, t: ["imprint", "--ref", d / "press_ref.ppm", "--contact", d / "press_ref.ppm",
                                           "--alpha", "nan", "--out", t / "i.ppm"], 2, "must be finite"),
    ("calibrate", "epochs-not-an-int", lambda d, t: ["calibrate", "--epochs", "x", "--out", t / "c.json"], 1,
     "invalid int value"),
    ("calibrate", "out-in-missing-directory", lambda d, t: ["calibrate", *SMALL, "--captures", 1, "--epochs", 1,
                                                            "--out", t / "none" / "c.json"], 2, "No such file"),
    ("calibrate", "captures-zero", lambda d, t: ["calibrate", *SMALL, "--captures", 0, "--epochs", 1,
                                                 "--out", t / "c.json"], 2, "need at least one capture"),
    ("calibrate", "sphere-radius-nan", lambda d, t: ["calibrate", *SMALL, "--sphere-radius", "nan",
                                                     "--out", t / "c.json"], 1,
     "unrecognized arguments: --sphere-radius nan"),
    ("reconstruct", "missing-model-flag", lambda d, t: ["reconstruct", "--ref", d / "press_ref.ppm", "--contact",
                                                        d / "press_contact.ppm", "--out", t / "r.dmap"], 1,
     "required: --model"),
    ("reconstruct", "noise-std-flag", lambda d, t: ["reconstruct", *SMALL, "--noise-std", 1, "--model",
                                                    d / "calib.json", "--ref", d / "press_ref.ppm", "--contact",
                                                    d / "press_contact.ppm", "--out", t / "r.dmap"], 1,
     "unrecognized arguments: --noise-std 1"),
    ("reconstruct", "missing-model", lambda d, t: ["reconstruct", *SMALL, "--model", t / "none.json", "--ref",
                                                   d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                   "--out", t / "r.dmap"], 2, "No such file"),
    ("reconstruct", "model-not-json", lambda d, t: ["reconstruct", *SMALL, "--model", short_ppm(t), "--ref",
                                                    d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                    "--out", t / "r.dmap"], 2, "error: "),
    ("reconstruct", "model-not-an-object", lambda d, t: ["reconstruct", *SMALL, "--model", json_file(t, []), "--ref",
                                                         d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                         "--out", t / "r.dmap"], 2, "must hold a JSON object"),
    ("reconstruct", "model-wrong-format", lambda d, t: ["reconstruct", *SMALL, "--model",
                                                        edited(d / "calib.json", t, format="phototact-detector"),
                                                        "--ref", d / "press_ref.ppm", "--contact",
                                                        d / "press_contact.ppm", "--out", t / "r.dmap"], 2,
     "error: not a calibration model file\n"),
    ("reconstruct", "model-wrong-version", lambda d, t: ["reconstruct", *SMALL, "--model",
                                                         edited(d / "calib.json", t, version=2), "--ref",
                                                         d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                         "--out", t / "r.dmap"], 2,
     "error: unsupported calibration model version 2\n"),
    ("reconstruct", "max-depth-a-list", lambda d, t: ["reconstruct", *SMALL, "--model",
                                                      edited(d / "calib.json", t, max_depth=[0.5]), "--ref",
                                                      d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                      "--out", t / "r.dmap"], 2, "malformed calibration model file"),
    ("reconstruct", "max-depth-beyond-float", lambda d, t: ["reconstruct", *SMALL, "--model",
                                                            edited(d / "calib.json", t, max_depth=10**400), "--ref",
                                                            d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                            "--out", t / "r.dmap"], 2,
     "max depth must be 0.5 mm, the full scale"),
    ("reconstruct", "epoch-loss-beyond-float", lambda d, t: ["reconstruct", *SMALL, "--model",
                                                             edited(d / "calib.json", t, epoch_losses=[0.1, 10**400]),
                                                             "--ref", d / "press_ref.ppm", "--contact",
                                                             d / "press_contact.ppm", "--out", t / "r.dmap"], 2,
     "epoch losses must be finite"),
    ("reconstruct", "fifth-layer-blobs", lambda d, t: ["reconstruct", *SMALL, "--model", extra_layer(d / "calib.json", t),
                                                       "--ref", d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                       "--out", t / "r.dmap"], 2, "malformed calibration model file"),
    ("reconstruct", "layer-sizes-changed", lambda d, t: ["reconstruct", *SMALL, "--model",
                                                         edited(d / "calib.json", t, layer_sizes=[5, 8, 1]),
                                                         "--ref", d / "press_ref.ppm", "--contact",
                                                         d / "press_contact.ppm", "--out", t / "r.dmap"], 2,
     "unexpected layer sizes"),
    ("reconstruct", "scale-nan", lambda d, t: ["reconstruct", "--width", 100, "--height", 80, "--mm-per-pixel", "nan",
                                               "--model", d / "calib.json", "--ref", d / "press_ref.ppm", "--contact",
                                               d / "press_contact.ppm", "--out", t / "r.dmap"], 2, "must be finite"),
    ("dataset", "seed-not-an-int", lambda d, t: ["dataset", "--seed", "x", "--out", t / "data"], 1,
     "invalid int value"),
    ("dataset", "missing-spec", lambda d, t: ["dataset", *SMALL, "--spec", t / "none.json", "--out", t / "data"], 2,
     "No such file"),
    ("dataset", "spec-not-an-object", lambda d, t: ["dataset", *SMALL, "--spec", json_file(t, []), "--out", t / "data"],
     2, "dataset spec must be a JSON object"),
    ("dataset", "spec-missing-key", lambda d, t: ["dataset", *SMALL, "--spec",
                                                  without(d / "spec.json", t, "positive_mass_g"), "--out", t / "data"],
     2, "dataset spec needs 'positive_mass_g'"),
    ("dataset", "diameters-a-number", lambda d, t: ["dataset", *SMALL, "--spec",
                                                    edited(d / "spec.json", t, diameters_mm=5), "--out", t / "data"],
     2, "malformed dataset spec"),
    ("dataset", "diameters-nested", lambda d, t: ["dataset", *SMALL, "--spec",
                                                  edited(d / "spec.json", t, diameters_mm=[[4.0]]), "--out", t / "data"],
     2, "malformed dataset spec"),
    ("dataset", "unknown-spec-key", lambda d, t: ["dataset", *SMALL, "--spec",
                                                  edited(d / "spec.json", t, diameter=4.0), "--out", t / "data"],
     2, "unknown dataset spec keys: diameter"),
    ("dataset", "diameter-out-of-range", lambda d, t: ["dataset", *SMALL, "--spec",
                                                       edited(d / "spec.json", t, diameters_mm=[12.0]),
                                                       "--out", t / "data"], 2, "ball diameter must lie in [2, 10] mm"),
    ("dataset", "presses-a-fraction", lambda d, t: ["dataset", *SMALL, "--spec",
                                                    edited(d / "spec.json", t, presses_per_positive=2.7),
                                                    "--out", t / "data"], 2,
     "press counts must be integers"),
    ("dataset", "presses-a-bool", lambda d, t: ["dataset", *SMALL, "--spec",
                                                edited(d / "spec.json", t, presses_per_negative_mass=True),
                                                "--out", t / "data"], 2,
     "press counts must be integers"),
    ("dataset", "positive-mass-a-string", lambda d, t: ["dataset", *SMALL, "--spec",
                                                        edited(d / "spec.json", t, positive_mass_g="1000"),
                                                        "--out", t / "data"], 2, "malformed dataset spec"),
    ("dataset", "negative-mass-beyond-float", lambda d, t: ["dataset", *SMALL, "--spec",
                                                            edited(d / "spec.json", t,
                                                                   negative_masses_g=[1000.0, 10**400]),
                                                            "--out", t / "data"], 2,
     "dataset spec sizes and masses must be finite"),
    ("dataset", "repeated-sample-id", lambda d, t: ["dataset", *SMALL, "--spec",
                                                    edited(d / "spec.json", t, diameters_mm=[4.0, 4.0000001]),
                                                    "--out", t / "data"], 2, "two samples the id pos_d4_b2_p0"),
    ("dataset", "presses-zero", lambda d, t: ["dataset", *SMALL, "--spec",
                                              edited(d / "spec.json", t, presses_per_positive=0),
                                              "--out", t / "data"], 2, "press counts must be positive"),
    ("dataset", "no-press", lambda d, t: ["dataset", *SMALL, "--spec",
                                          edited(d / "spec.json", t, diameters_mm=[], negative_masses_g=[]),
                                          "--out", t / "data"], 2, "dataset spec gives no press"),
    ("train-detector", "unknown-flag", lambda d, t: ["train-detector", "--dataset", d / "data", "--calibration",
                                                     d / "calib.json", "--out", t / "det.json", "--gamma", 1], 1,
     "unrecognized arguments: --gamma"),
    ("train-detector", "speckle-flag", lambda d, t: ["train-detector", *SMALL, "--speckle", 0, "--dataset",
                                                     d / "data", "--calibration", d / "calib.json",
                                                     "--out", t / "det.json"], 1,
     "unrecognized arguments: --speckle 0"),
    ("train-detector", "missing-dataset", lambda d, t: ["train-detector", *SMALL, "--dataset", t / "none",
                                                        "--calibration", d / "calib.json", "--out", t / "det.json"], 2,
     "missing dataset manifest"),
    ("train-detector", "model-not-an-object", lambda d, t: ["train-detector", *SMALL, "--dataset", d / "data",
                                                            "--calibration", json_file(t, "model"),
                                                            "--out", t / "det.json"], 2, "must hold a JSON object"),
    ("train-detector", "c-nan", lambda d, t: ["train-detector", *SMALL, "--dataset", d / "data", "--calibration",
                                              d / "calib.json", "--train-fraction", 0.5, "--c", "nan",
                                              "--out", t / "det.json"], 2,
     "regularization parameter must be positive and finite"),
    ("train-detector", "zero-depth-model", lambda d, t: ["train-detector", *SMALL, "--dataset", d / "data",
                                                         "--calibration", zero_depth_model(d / "calib.json", t),
                                                         "--train-fraction", 0.5, "--out", t / "det.json"], 2,
     "reconstructs zero depth for every sample"),
    ("train-detector", "zero-weight-optimum", lambda d, t: ["train-detector", *SMALL, "--dataset",
                                                            one_sample_both_ways(d, t),
                                                            "--calibration", d / "calib.json", "--train-fraction",
                                                            0.5, "--seed", 1, "--out", t / "det.json"], 2,
     "no linear boundary beats a constant label at c=1.0"),
    ("detect", "missing-map-flag", lambda d, t: ["detect", "--detector", d / "detector.json"], 1, "required: --map"),
    ("detect", "missing-detector", lambda d, t: ["detect", "--detector", t / "none.json", "--map", d / "recon.dmap"], 2,
     "No such file"),
    ("detect", "detector-not-an-object", lambda d, t: ["detect", "--detector", json_file(t, [0.3, 4.8]),
                                                       "--map", d / "recon.dmap"], 2, "must hold a JSON object"),
    ("detect", "detector-wrong-format", lambda d, t: ["detect", "--detector",
                                                      edited(d / "detector.json", t,
                                                             format="phototact-calibration-model"),
                                                      "--map", d / "recon.dmap"], 2, "error: not a detector file\n"),
    ("detect", "detector-wrong-version", lambda d, t: ["detect", "--detector",
                                                       edited(d / "detector.json", t, version="1"),
                                                       "--map", d / "recon.dmap"], 2,
     "error: unsupported detector version 1\n"),
    ("detect", "bias-a-list", lambda d, t: ["detect", "--detector", edited(d / "detector.json", t, bias=[1.0]),
                                            "--map", d / "recon.dmap"], 2, "malformed detector file"),
    ("detect", "bias-nan", lambda d, t: ["detect", "--detector", edited(d / "detector.json", t, bias=math.nan),
                                         "--map", d / "recon.dmap"], 2, "weights and bias must be finite"),
    ("detect", "bias-beyond-float", lambda d, t: ["detect", "--detector", edited(d / "detector.json", t, bias=10**400),
                                                  "--map", d / "recon.dmap"], 2, "weights and bias must be finite"),
    ("detect", "std-beyond-float", lambda d, t: ["detect", "--detector",
                                                 edited(d / "detector.json", t,
                                                        standardizer={"mean": [0.1, 0.2], "std": [0.3, -10**400]}),
                                                 "--map", d / "recon.dmap"], 2,
     "standardization constants must be finite"),
    ("detect", "standardizer-one-entry", lambda d, t: ["detect", "--detector",
                                                       edited(d / "detector.json", t,
                                                              standardizer={"mean": [0.1], "std": [0.2]}),
                                                       "--map", d / "recon.dmap"], 2,
     "one mean and one std per feature"),
    ("detect", "map-not-a-dmap", lambda d, t: ["detect", "--detector", d / "detector.json", "--map", short_ppm(t)], 2,
     "error: "),
    # The last mask byte of the reconstruction, 2 in place of 0 or 1.
    ("detect", "map-mask-byte-two",
     lambda d, t: ["detect", "--detector", d / "detector.json", "--map",
                   bytes_file(t, "m.dmap", (d / "recon.dmap").read_bytes()[:-1] + b"\x02")], 2, "invalid mask byte"),
    ("detect", "weights-zero", lambda d, t: ["detect", "--detector",
                                             edited(d / "detector.json", t, weights={"mu": 0.0, "sigma": 0.0}),
                                             "--map", d / "recon.dmap"], 2, "weights must not both be zero"),
    ("evaluate", "missing-out-flag", lambda d, t: ["evaluate", "--detector", d / "detector.json", "--dataset",
                                                   d / "data", "--calibration", d / "calib.json"], 1,
     "required: --out"),
    ("evaluate", "membrane-seed-flag", lambda d, t: ["evaluate", *SMALL, "--membrane-seed", 7, "--detector",
                                                     d / "detector.json", "--dataset", d / "data", "--calibration",
                                                     d / "calib.json", "--out", t / "r.json"], 1,
     "unrecognized arguments: --membrane-seed 7"),
    ("evaluate", "missing-detector", lambda d, t: ["evaluate", *SMALL, "--detector", t / "none.json", "--dataset",
                                                   d / "data", "--calibration", d / "calib.json",
                                                   "--out", t / "r.json"], 2, "No such file"),
    ("evaluate", "model-not-an-object", lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json",
                                                      "--dataset", d / "data", "--calibration", json_file(t, None),
                                                      "--out", t / "r.json"], 2, "must hold a JSON object"),
    ("evaluate", "width-zero", lambda d, t: ["evaluate", "--width", 0, "--detector", d / "detector.json", "--dataset",
                                             d / "data", "--calibration", d / "calib.json", "--out", t / "r.json"], 2,
     "image dimensions must be positive"),
    ("evaluate", "csv-directory-missing", lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json",
                                                       "--dataset", d / "data", "--calibration", d / "calib.json",
                                                       "--out", t / "r.json", "--csv", t / "nodir" / "r.csv"], 2,
     "No such file or directory"),
    ("characterize", "seed-not-an-int", lambda d, t: ["characterize", "--calibration", d / "calib.json", "--seed",
                                                      "1.5", "--out", t / "char"], 1, "invalid int value"),
    ("characterize", "model-not-an-object", lambda d, t: ["characterize", *SMALL, "--calibration", json_file(t, 3),
                                                          "--out", t / "char"], 2, "must hold a JSON object"),
    ("characterize", "max-depth-a-list", lambda d, t: ["characterize", *SMALL, "--calibration",
                                                       edited(d / "calib.json", t, max_depth=[0.5]),
                                                       "--out", t / "char"], 2, "malformed calibration model file"),
    ("train-detector", "split-leaves-no-test", lambda d, t: ["train-detector", *SMALL, "--dataset", d / "data",
                                                             "--calibration", d / "calib.json",
                                                             "--train-fraction", 0.9, "--out", t / "det.json"], 2,
     "train fraction 0.9 leaves class -1 no train or no test sample"),
    # Every verb with geometry flags rejects an empty sensing disc before it reads or renders anything.
    ("phantom", "empty-disc", lambda d, t: ["phantom", *EMPTY_DISC, "--out-prefix", t / "p"], 2,
     "sensing disc holds no pixel center"),
    ("calibrate", "empty-disc", lambda d, t: ["calibrate", *EMPTY_DISC, "--captures", 1, "--epochs", 1,
                                              "--out", t / "c.json"], 2, "sensing disc holds no pixel center"),
    ("reconstruct", "empty-disc", lambda d, t: ["reconstruct", *EMPTY_DISC, "--model", d / "calib.json", "--ref",
                                                d / "press_ref.ppm", "--contact", d / "press_contact.ppm",
                                                "--out", t / "r.dmap"], 2, "sensing disc holds no pixel center"),
    ("dataset", "empty-disc", lambda d, t: ["dataset", *EMPTY_DISC, "--spec", d / "spec.json", "--out", t / "data"],
     2, "sensing disc holds no pixel center"),
    ("train-detector", "empty-disc", lambda d, t: ["train-detector", *EMPTY_DISC, "--dataset", d / "data",
                                                   "--calibration", d / "calib.json", "--out", t / "det.json"], 2,
     "sensing disc holds no pixel center"),
    ("evaluate", "empty-disc", lambda d, t: ["evaluate", *EMPTY_DISC, "--detector", d / "detector.json", "--dataset",
                                             d / "data", "--calibration", d / "calib.json", "--out", t / "r.json"], 2,
     "sensing disc holds no pixel center"),
    ("characterize", "empty-disc", lambda d, t: ["characterize", *EMPTY_DISC, "--calibration", d / "calib.json",
                                                 "--out", t / "char"], 2, "sensing disc holds no pixel center"),
    ("phantom", "squared-extent-overflows", lambda d, t: ["phantom", *HUGE_SCALE, "--seed", 1, "--out-prefix", t / "p"],
     2, "the frame's squared extent in mm^2 is not a finite float"),
    ("reconstruct", "squared-extent-overflows", lambda d, t: ["reconstruct", *HUGE_SCALE, "--model", d / "calib.json",
                                                              "--ref", d / "press_ref.ppm", "--contact",
                                                              d / "press_contact.ppm", "--out", t / "r.dmap"], 2,
     "the frame's squared extent in mm^2 is not a finite float"),
    # A failed run publishes none of its outputs, even those it made before the failure.
    ("detect", "report-directory-missing", lambda d, t: ["detect", "--detector", d / "detector.json",
                                                         "--map", d / "recon.dmap", "--report", t / "nodir" / "r.json"],
     2, "No such file or directory"),
    ("phantom", "output-is-a-directory", lambda d, t: ["phantom", *SMALL, "--out-prefix",
                                                       occupied(t, "p_truth.dmap") / "p"], 2, "Is a directory"),
    ("dataset", "out-parent-missing", lambda d, t: ["dataset", *SMALL, "--spec", d / "spec.json",
                                                    "--out", t / "nodir" / "data"], 2, "No such file or directory"),
    ("dataset", "out-is-a-file", lambda d, t: ["dataset", *SMALL, "--spec", d / "spec.json", "--out", short_ppm(t)],
     2, "Not a directory"),
    ("dataset", "output-file-is-a-directory", lambda d, t: ["dataset", *SMALL, "--spec", d / "spec.json", "--out",
                                                            occupied(t, "data/manifest.csv") / "data"], 2,
     "Is a directory"),
    # Two outputs at one path: the later write would replace the earlier output.
    ("calibrate", "manifest-is-the-model", lambda d, t: ["calibrate", *SMALL, "--captures", 1, "--epochs", 1,
                                                         "--out", t / "c.json", "--manifest", t / "c.json"], 2,
     "is named as two outputs of this run"),
    ("dataset", "manifest-is-the-sample-list", lambda d, t: ["dataset", *SMALL, "--spec", d / "spec.json",
                                                             "--out", t / "data",
                                                             "--manifest", t / "data" / "manifest.csv"], 2,
     "is named as two outputs of this run"),
    ("characterize", "manifest-is-the-summary", lambda d, t: ["characterize", *SMALL, "--calibration",
                                                              d / "calib.json", "--out", t / "char",
                                                              "--manifest", t / "char" / "summary.json"], 2,
     "is named as two outputs of this run"),
    ("evaluate", "csv-is-the-report", lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json",
                                                    "--dataset", d / "data", "--calibration", d / "calib.json",
                                                    "--out", t / "r.json", "--csv", t / "r.json"], 2,
     "is named as two outputs of this run"),
    # A dataset's manifest.csv is checked where it is read.
    ("train-detector", "manifest-header-only",
     lambda d, t: ["train-detector", *SMALL, "--dataset", dataset_with_manifest(d, t, lambda text: text.split("\n")[0]),
                   "--calibration", d / "calib.json", "--out", t / "det.json"], 2, "lists no sample"),
    ("train-detector", "manifest-column-renamed",
     lambda d, t: ["train-detector", *SMALL, "--dataset",
                   dataset_with_manifest(d, t, lambda text: text.replace("sample_id", "id")),
                   "--calibration", d / "calib.json", "--out", t / "det.json"], 2,
     "must have the header sample_id,label,ball_diameter_mm,burial_depth_mm,applied_mass_g,seed"),
    ("train-detector", "manifest-sample-id-twice",
     lambda d, t: ["train-detector", *SMALL, "--dataset",
                   dataset_with_manifest(d, t, lambda text: text + text.splitlines()[1] + "\n"),
                   "--calibration", d / "calib.json", "--train-fraction", 0.5, "--out", t / "det.json"], 2,
     "lists the sample id 'pos_d4_b2_p0' twice"),
    ("evaluate", "manifest-label-two",
     lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json", "--dataset",
                   dataset_with_manifest(d, t, lambda text: text.replace(",1,", ",2,")),
                   "--calibration", d / "calib.json", "--out", t / "r.json"], 2,
     "label '2' of 'pos_d4_b2_p0' is not 1 or -1"),
    ("evaluate", "manifest-sample-id-outside",
     lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json", "--dataset",
                   dataset_with_manifest(d, t, lambda text: text.replace("\npos", "\n../data/pos")
                                         .replace("\nneg", "\n../data/neg")),
                   "--calibration", d / "calib.json", "--out", t / "r.json"], 2,
     "sample id '../data/pos_d4_b2_p0' is not a file name stem"),
    ("evaluate", "manifest-sample-id-line-break",
     lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json", "--dataset",
                   dataset_with_manifest(d, t, lambda text: text.replace("\npos_d4_b2_p0,", '\n"pos_d4\nb2_p0",', 1)),
                   "--calibration", d / "calib.json", "--out", t / "r.json"], 2,
     "sample id 'pos_d4\\nb2_p0' is not a file name stem"),
    ("evaluate", "manifest-field-over-csv-limit",
     lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json", "--dataset",
                   dataset_with_manifest(d, t, lambda text: text.replace("pos_d4_b2_p0", "p" * 200_000, 1)),
                   "--calibration", d / "calib.json", "--out", t / "r.json"], 2,
     "is not a readable CSV table: field larger than field limit"),
    ("evaluate", "manifest-unterminated-quote",
     lambda d, t: ["evaluate", *SMALL, "--detector", d / "detector.json", "--dataset",
                   dataset_with_manifest(d, t, lambda text: text.replace("\npos_d4_b2_p0", '\n"pos_d4_b2_p0', 1)),
                   "--calibration", d / "calib.json", "--out", t / "r.json"], 2,
     "sample id 'pos_d4_b2_p0,1,"),
    # JSON nested too deep for the parser is bad data like any other malformed file.
    ("phantom", "config-nested-too-deep", lambda d, t: ["phantom", *SMALL, "--config", deep_json(t),
                                                        "--out-prefix", t / "p"], 2, "JSON nesting too deep"),
    ("dataset", "spec-nested-too-deep", lambda d, t: ["dataset", *SMALL, "--spec", deep_json(t), "--out", t / "data"],
     2, "JSON nesting too deep"),
    ("reconstruct", "model-nested-too-deep", lambda d, t: ["reconstruct", *SMALL, "--model", deep_json(t),
                                                           "--ref", d / "press_ref.ppm", "--contact",
                                                           d / "press_contact.ppm", "--out", t / "r.dmap"], 2,
     "JSON nesting too deep"),
    ("detect", "detector-nested-too-deep", lambda d, t: ["detect", "--detector", deep_json(t), "--map",
                                                         d / "recon.dmap"], 2, "JSON nesting too deep"),
]
# Every verb's successful run fails when its manifest cannot be written, and then writes and prints nothing.
EXIT_CODE_TABLE += [
    (verb, "manifest-directory-missing", lambda d, t, argv=argv: [*argv(d, t), "--manifest", t / "nodir" / "m.json"],
     2, "No such file or directory")
    for verb, (argv, _) in WRITING_RUNS.items()
]


class TestExitCodeTable:
    """Bad flags exit 1, bad files and values exit 2; either way with one stderr line, no warning and no output.

    No output means an empty stdout and the scratch directory as it was: the same paths, each file with the same bytes.
    """

    def test_every_verb_is_covered(self):
        for verb in cli.VERBS:
            codes = {code for v, _, _, code, _ in EXIT_CODE_TABLE if v == verb}
            assert codes == {1, 2}, verb

    def test_device_flags_are_unrecognized(self, tmp_path, capsys):
        """The sensor is one device: no verb takes a sensing radius, a membrane seed, a noise or a speckle."""
        for verb, (argv, _) in WRITING_RUNS.items():
            for flag in ("--sensing-radius", "--membrane-seed", "--noise-std", "--speckle"):
                assert run([*argv(tmp_path, tmp_path), flag, 1]) == 1, (verb, flag)
                assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err, (verb, flag)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb, case, argv, code, fragment", EXIT_CODE_TABLE,
                             ids=[f"{verb}-{case}" for verb, case, *_ in EXIT_CODE_TABLE])
    def test_exit_code(self, pipeline, tmp_path, capsys, verb, case, argv, code, fragment):
        argv = argv(pipeline[0], tmp_path)
        before = tree_bytes(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert fragment in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert [str(w.message) for w in caught] == []
        assert tree_bytes(tmp_path) == before


class TestFlagsCheckedBeforeWork:
    """A bad training flag or a missing press file exits 2 before the verb renders a capture or reconstructs a
    sample."""

    @pytest.mark.parametrize("flags, fragment", [(["--epochs", 0], "epochs must be >= 1"),
                                                 (["--batch-size", 0], "batch size must be >= 1"),
                                                 (["--learning-rate", "nan"], "learning rate must be finite")],
                             ids=["epochs-zero", "batch-size-zero", "learning-rate-nan"])
    def test_calibrate_renders_nothing(self, tmp_path, monkeypatch, capsys, flags, fragment):
        calls, draw = [], phantom._noisy_capture
        monkeypatch.setattr(phantom, "_noisy_capture", lambda *args: calls.append(args) or draw(*args))
        assert run(["calibrate", *SMALL, "--seed", 1, *flags, "--out", tmp_path / "calib.json"]) == 2
        assert fragment in capsys.readouterr().err and calls == []

    @pytest.mark.parametrize("flags, fragment", [
        (["--c", -1], "regularization parameter must be positive and finite"),
        (["--c", "nan"], "regularization parameter must be positive and finite"),
        (["--train-fraction", 1.5], "train fraction must lie in (0, 1)"),
        (["--train-fraction", 0.01], "train fraction 0.01 leaves class -1 no train or no test sample"),
    ], ids=["c-negative", "c-nan", "train-fraction-above-one", "train-fraction-too-small"])
    def test_train_detector_reconstructs_nothing(self, pipeline, tmp_path, monkeypatch, capsys, flags, fragment):
        d = pipeline[0]
        calls, depths = [], cli.disc_depths
        monkeypatch.setattr(cli, "disc_depths", lambda *args: calls.append(args) or depths(*args))
        assert run(["train-detector", *SMALL, "--dataset", d / "data", "--calibration", d / "calib.json",
                    *flags, "--out", tmp_path / "det.json"]) == 2
        assert fragment in capsys.readouterr().err and calls == []

    @pytest.mark.parametrize("verb", ["train-detector", "evaluate"])
    def test_missing_press_file_reconstructs_nothing(self, pipeline, tmp_path, monkeypatch, capsys, verb):
        """The last sample's missing contact capture is named before the first sample is reconstructed."""
        d = pipeline[0]
        data = tmp_path / "data"
        shutil.copytree(d / "data", data)
        last = (data / "manifest.csv").read_text().splitlines()[-1].split(",")[0]
        missing = Path(cli._press_files(data / last)[1])
        missing.unlink()
        calls, depths = [], cli.disc_depths
        monkeypatch.setattr(cli, "disc_depths", lambda *args: calls.append(args) or depths(*args))
        flags = {"train-detector": ["--train-fraction", 0.5, "--out", tmp_path / "det.json"],
                 "evaluate": ["--detector", d / "detector.json", "--out", tmp_path / "report.json"]}[verb]
        assert run([verb, *SMALL, "--dataset", data, "--calibration", d / "calib.json", *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"No such file or directory: '{missing}'" in err
        assert calls == []


class TestReproducibility:
    def test_rerun_manifest_argv_is_byte_identical(self, tmp_path):
        prefix = tmp_path / "p1" / "press"
        prefix.parent.mkdir()
        assert run(["phantom", *SMALL, "--seed", 21, "--out-prefix", prefix]) == 0
        manifest = json.loads((tmp_path / "p1" / "press_ref.ppm.manifest.json").read_text())
        argv = manifest["argv"]
        # replay in a second directory
        replay = [a.replace(str(tmp_path / "p1"), str(tmp_path / "p2")) for a in argv]
        (tmp_path / "p2").mkdir()
        assert run(replay) == 0
        for name in ("press_ref.ppm", "press_contact.ppm", "press_truth.dmap"):
            assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()

    def test_no_writes_outside_declared_paths(self, pipeline, tmp_path):
        """Each verb's run leaves its declared outputs and its manifest, and no other path, staged or not."""
        d = pipeline[0]
        inputs = tree_bytes(d)
        for verb, (argv, outputs) in WRITING_RUNS.items():
            out = tmp_path / verb
            out.mkdir()
            assert run(argv(d, out)) == 0, verb
            manifest = json.loads((out / f"{outputs[0]}.manifest.json").read_text())
            assert manifest["outputs"] == [str(out / name) for name in outputs], verb
            declared = {out / name for name in outputs} | {out / f"{outputs[0]}.manifest.json"}
            written = set(out.rglob("*"))
            assert {p for p in written if p.parent == out} == declared, verb
            assert all(p.is_file() and p.parent in declared for p in written if p.parent != out), verb
        assert sorted(tmp_path.iterdir()) == sorted(tmp_path / verb for verb in WRITING_RUNS)
        assert tree_bytes(d) == inputs


def verb_flags(verb):
    """The dests of ``verb``'s flags, ``--help`` and ``--manifest`` aside: ``dispatch`` reads the manifest path."""
    parser = cli.build_parser()
    verbs = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {action.dest for action in verbs.choices[verb]._actions} - {"help", "manifest"}


def args_reads(function, functions, name):
    """The attributes that ``function`` reads of its parameter ``name``, and those that every function of
    ``functions`` it passes that parameter to reads of it, by position or keyword."""
    reads = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == name:
            reads.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
            callee = functions[node.func.id]
            params = [arg.arg for arg in callee.args.args]
            passed = [params[i] for i, arg in enumerate(node.args) if isinstance(arg, ast.Name) and arg.id == name]
            passed += [kw.arg for kw in node.keywords if isinstance(kw.value, ast.Name) and kw.value.id == name]
            for param in passed:
                reads |= args_reads(callee, functions, param)
    return reads


def unread_flags():
    """``{verb: [dest, ...]}`` of the flags that a verb takes but whose handler, and the helpers it passes ``args``
    to, never read: a flag that is recorded in the manifest and changes nothing."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = {}
    for verb, handler in cli._HANDLERS.items():
        node = functions[handler.__name__]
        unread = verb_flags(verb) - args_reads(node, functions, node.args.args[0].arg)
        if unread:
            found[verb] = sorted(unread)
    return found


class TestFlagReads:
    def test_every_flag_is_read_by_its_verb(self):
        assert all(verb_flags(verb) for verb in cli.VERBS)
        assert unread_flags() == {}


def readme_commands():
    """The ``phototact ...`` lines of the README's code blocks."""
    blocks = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```")[1::2]
    return [line for block in blocks for line in block.splitlines() if line.startswith("phototact ")]


class TestReadme:
    def test_command_examples_parse(self):
        commands = [shlex.split(line)[1:] for line in readme_commands()]
        assert {argv[0] for argv in commands} == set(cli.VERBS)
        parser = cli.build_parser()
        for argv in commands:
            assert parser.parse_args(argv).verb == argv[0]
