import json
import tracemalloc
import warnings

import numpy as np
import pytest

import phototact as pt
from phototact import cli
from phototact.cli import dispatch
from phototact.detection import DetectorModel, Standardizer, save_detector

SMALL = ["--width", "100", "--height", "80", "--mm-per-pixel", "0.1"]


def run(argv):
    return dispatch([str(a) for a in argv])


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", -1],
            ["--seed", 2**63],
            ["--seed", 2**64],
            ["--membrane-seed", -1],
            ["--membrane-seed", 2**64],
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
    @pytest.mark.parametrize("value", ["NaN", "-1.0", "5.0"])
    def test_hand_edited_max_depth(self, tmp_path, tiny_model_path, capsys, value):
        model = tmp_path / "edited.json"
        text = tiny_model_path.read_text()
        assert '"max_depth": 0.5' in text
        model.write_text(text.replace('"max_depth": 0.5', f'"max_depth": {value}'))
        assert run(["phantom", *SMALL, "--seed", 9, "--out-prefix", tmp_path / "press"]) == 0
        assert run(["reconstruct", *SMALL, "--model", model, "--ref", tmp_path / "press_ref.ppm",
                    "--contact", tmp_path / "press_contact.ppm", "--out", tmp_path / "recon.dmap"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max depth must lie in (0, 0.5] mm" in err
        assert not (tmp_path / "recon.dmap").exists()


def reference_dataset_features(dataset_dir, calib_model, geom):
    """Per-sample reconstruction of full depth maps, then feature extraction."""
    features, labels, ids = [], [], []
    for line in (dataset_dir / "manifest.csv").read_text().splitlines()[1:]:
        sample_id, label = line.split(",")[:2]
        ref = pt.load_ppm(dataset_dir / f"{sample_id}_ref.ppm")
        contact = pt.load_ppm(dataset_dir / f"{sample_id}_contact.ppm")
        fv = pt.extract_features(pt.reconstruct(calib_model, ref, contact, geom))
        features.append([fv.mu, fv.sigma])
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

    @pytest.mark.parametrize("geometry_flags", [SMALL, []], ids=["small", "default"])
    def test_dataset_features_match_full_map_reference(self, tmp_path, tiny_spec, tiny_model_path, geometry_flags):
        data = tmp_path / "data"
        assert run(["dataset", *geometry_flags, "--spec", tiny_spec, "--seed", 7, "--out", data]) == 0
        args = cli.build_parser().parse_args(["evaluate", *geometry_flags, "--detector", "d", "--dataset", "d",
                                              "--calibration", "c", "--out", "o"])
        geom = cli._geometry(args)
        model = pt.load_model(tiny_model_path)
        features, labels, ids = cli._read_dataset_features(data, model, geom)
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


class TestDetectVerb:
    def test_json_output(self, tmp_path, capsys):
        detector = tmp_path / "det.json"
        save_detector(
            detector,
            DetectorModel(
                standardizer=Standardizer(mean=np.array([0.3, 0.02]), std=np.array([0.05, 0.01])),
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
        assert set(doc) == {"label", "decision_value", "mu", "sigma", "manifest"}
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

    def test_no_writes_outside_declared_paths(self, tmp_path):
        before = set(tmp_path.rglob("*"))
        prefix = tmp_path / "out" / "press"
        prefix.parent.mkdir()
        assert run(["phantom", *SMALL, "--seed", 1, "--out-prefix", prefix]) == 0
        new_files = {p for p in tmp_path.rglob("*") if p.is_file()} - before
        expected = {
            prefix.parent / "press_ref.ppm",
            prefix.parent / "press_contact.ppm",
            prefix.parent / "press_truth.dmap",
            prefix.parent / "press_ref.ppm.manifest.json",
        }
        assert new_files == expected
