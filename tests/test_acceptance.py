"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The trained calibration
model and the full labeled dataset are session fixtures shared by the
criteria that need them; their build times are charged against the stated
runtime budgets where the criterion includes them.
"""

import json
import math
import time

import numpy as np
import pytest

import phototact as pt
from phototact.calibration import (
    LAYER_SIZES,
    CalibrationModel,
    _step_buffers,
    input_gradient,
    loss_and_gradients,
    mlp_forward,
    reconstruct,
)
from phototact.characterization import characterize, hysteresis, repeatability
from phototact.cli import dispatch
from phototact.detection import (
    DetectorModel,
    classify,
    decision_value,
    evaluate,
    extract_features,
    fit_detector,
    stratified_split,
)
from phototact.imaging import RgbImage
from phototact.imprint import ImprintParams, augmented_imprint
from phototact.phantom import (
    DatasetSpec,
    PhantomConfig,
    contact_solve,
    dataset_presses,
    reading_pair,
    render_reading,
    rng_stream,
    sphere_press_truth,
)

from conftest import acceptance_model
from test_imprint import imprint_oracle


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# The dataset seed of criterion 5's protocol.
PHANTOM_SEED = 2024


@pytest.fixture(scope="session")
def phantom_features(geometry, membrane, calib_model, fixture_durations):
    """Features of the full 140+140 protocol, via the calibrated pipeline."""
    started = time.monotonic()
    features, labels = [], []
    for _, label, cfg, press_seed in dataset_presses(DatasetSpec(), seed=PHANTOM_SEED):
        ref, contact = reading_pair(contact_solve(cfg, geometry), membrane, press_seed)
        features.append(extract_features(reconstruct(calib_model, ref, contact, geometry)))
        labels.append(label)
    fixture_durations["phantom_features"] = time.monotonic() - started
    return np.array(features), np.array(labels)


@pytest.fixture(scope="session")
def detector(phantom_features):
    features, labels = phantom_features
    train_idx, test_idx = stratified_split(labels, 0.8, seed=5)
    model = fit_detector(features[train_idx], labels[train_idx], c=1.0)
    return model, train_idx, test_idx


class TestCriterion1Imprint:
    def test_imprint_arithmetic(self):
        started = time.monotonic()
        rng = np.random.default_rng(42)
        exact = True
        for alpha in (1.0, 5.0, 10.0):
            for _ in range(4):
                ref = RgbImage(rng.integers(0, 256, size=(5, 6, 3)).astype(np.uint8))
                contact = RgbImage(rng.integers(0, 256, size=(5, 6, 3)).astype(np.uint8))
                got = augmented_imprint(ref, contact, ImprintParams(alpha=alpha)).pixels
                exact &= np.array_equal(got, imprint_oracle(ref, contact, alpha, 127.5))
        flat = RgbImage(np.full((2, 2, 3), 70, dtype=np.uint8))
        exact &= bool(np.all(augmented_imprint(flat, flat, ImprintParams()).pixels == 128))
        up = RgbImage(np.full((2, 2, 3), 100, dtype=np.uint8))
        exact &= bool(np.all(augmented_imprint(up, RgbImage(np.full((2, 2, 3), 130, dtype=np.uint8)), ImprintParams()).pixels == 255))
        exact &= bool(np.all(augmented_imprint(up, RgbImage(np.full((2, 2, 3), 60, dtype=np.uint8)), ImprintParams()).pixels == 0))
        elapsed = time.monotonic() - started
        report(1, "imprint arithmetic", exact and elapsed < 1.0, f"bit-exact for alpha in (1, 5, 10), {elapsed:.2f}s")


class TestCriterion2Formulas:
    def test_repeatability_and_hysteresis_values(self):
        started = time.monotonic()
        r = repeatability(np.array([[0.25, 0.0], [0.25, 0.11]]))
        same = np.array([[0.2, 0.4], [0.2, 0.4]])
        loading = np.array([0.0, 0.19, 0.5])
        h = hysteresis(loading, np.array([0.0, 0.0, 0.5]))
        zero_h = hysteresis(loading, loading)
        elapsed = time.monotonic() - started
        ok = r == 22.0 and h == 38.0 and repeatability(same) == 0.0 and zero_h == 0.0 and elapsed < 1.0
        report(2, "repeatability/hysteresis formulas", ok, f"r={r}%, h={h}%, identities 0%, {elapsed:.2f}s")


def held_out_rmses(model, geometry, membrane):
    """Criterion 3's in-disc RMSE, mm, on each of 10 held-out sphere presses."""
    rng = rng_stream(999, 50)
    mask = geometry.disc_mask
    zero = geometry.zero_map()
    rmses = []
    for _ in range(10):
        depth = pt.MAX_DEPTH_MM * (1.0 - float(rng.random()))
        truth = sphere_press_truth(depth, geometry)
        ref = render_reading(zero, membrane, int(rng.integers(2**62)))
        contact = render_reading(truth, membrane, int(rng.integers(2**62)))
        recon = reconstruct(model, ref, contact, geometry)
        err = recon.depths[mask].astype(np.float64) - truth.depths[mask].astype(np.float64)
        rmses.append(float(np.sqrt(np.mean(err**2))))
    return rmses


class TestCriterion3Calibration:
    def test_held_out_sphere_presses(self, geometry, membrane, calib_model, fixture_durations):
        started = time.monotonic()
        rmses = held_out_rmses(calib_model, geometry, membrane)
        elapsed = time.monotonic() - started + fixture_durations["calib_model"]
        ok = max(rmses) <= 0.025 and elapsed <= 300.0
        report(3, "calibration quality", ok,
               f"10 held-out presses, worst in-disc RMSE {max(rmses):.4f} mm (<= 0.025), "
               f"{elapsed:.0f}s incl. training")


class TestCriterion4Gradients:
    def test_gradient_check_100_pairs(self):
        started = time.monotonic()
        rng = np.random.default_rng(77)
        shapes = list(zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]))
        worst = 0.0
        for _ in range(100):
            weights = [rng.normal(0.0, 0.5, size=s) for s in shapes]
            biases = [rng.normal(0.0, 0.2, size=s[1]) for s in shapes]
            x = rng.normal(size=(8, 5))
            y = rng.uniform(0.0, 0.5, size=8)
            _, grads_w, grads_b = loss_and_gradients(weights, biases, x, y, _step_buffers(len(x), x.dtype))
            h = 1e-6

            def loss_at():
                return loss_and_gradients(weights, biases, x, y, _step_buffers(len(x), x.dtype))[0]

            for li in range(len(weights)):
                idx = (int(rng.integers(shapes[li][0])), int(rng.integers(shapes[li][1])))
                weights[li][idx] += h
                up = loss_at()
                weights[li][idx] -= 2 * h
                down = loss_at()
                weights[li][idx] += h
                fd = (up - down) / (2 * h)
                analytic = grads_w[li][idx]
                if max(abs(analytic), abs(fd)) > 1e-7:
                    worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd)))
                bi = int(rng.integers(shapes[li][1]))
                biases[li][bi] += h
                up = loss_at()
                biases[li][bi] -= 2 * h
                down = loss_at()
                biases[li][bi] += h
                fd = (up - down) / (2 * h)
                analytic = grads_b[li][bi]
                if max(abs(analytic), abs(fd)) > 1e-7:
                    worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd)))

            model = CalibrationModel(
                weights=tuple(weights), biases=tuple(biases),
                feature_shift=np.zeros(5), feature_scale=np.ones(5),
            )
            xi = rng.normal(size=5)
            grad_in = input_gradient(model, xi)
            for i in range(5):
                up_x, down_x = xi.copy(), xi.copy()
                up_x[i] += h
                down_x[i] -= h
                fd = (mlp_forward(model, up_x) - mlp_forward(model, down_x)) / (2 * h)
                if max(abs(grad_in[i]), abs(fd)) > 1e-7:
                    worst = max(worst, abs(grad_in[i] - fd) / max(abs(grad_in[i]), abs(fd)))
        elapsed = time.monotonic() - started
        ok = worst < 1e-4 and elapsed < 30.0
        report(4, "gradient check", ok, f"100 pairs, worst relative error {worst:.2e} (< 1e-4), {elapsed:.1f}s")


class TestCriterion5Detection:
    def test_detection_accuracy(self, phantom_features, detector, fixture_durations):
        started = time.monotonic()
        features, labels = phantom_features
        model, train_idx, test_idx = detector
        n_pos = int((labels > 0).sum())
        n_neg = int((labels < 0).sum())
        train_acc = evaluate(model, features[train_idx], labels[train_idx]).accuracy
        test_acc = evaluate(model, features[test_idx], labels[test_idx]).accuracy
        w_mu, w_sigma = model.weights
        elapsed = time.monotonic() - started + fixture_durations["phantom_features"]
        ok = (
            n_pos == 140
            and n_neg == 140
            and len(train_idx) == 224
            and train_acc == 1.0
            and test_acc == 1.0
            and abs(w_sigma) > abs(w_mu)
            and elapsed <= 600.0
        )
        print_cell_margins(labels * np.array(evaluate(model, features, labels).decision_values))
        report(5, "detection accuracy", ok,
               f"140+140 samples, train {train_acc:.0%}, test {test_acc:.0%}, "
               f"|w_sigma|={abs(w_sigma):.2f} > |w_mu|={abs(w_mu):.2f}, {elapsed:.0f}s incl. dataset")


def print_cell_margins(margins):
    """Print the least y * f(x) of criterion 5's presses in each (diameter, burial) cell, one line per diameter, and
    the least over the negatives; ``margins`` holds each press's y * f(x) under criterion 5's detector, in protocol
    order, and 1 is the SVM margin. A report, not a gate: its bound waits for ROADMAP item 8's sweep over the nine
    calibration seeds."""
    cells, negatives = {}, []
    for (_, label, cfg, _), margin in zip(dataset_presses(DatasetSpec(), seed=PHANTOM_SEED), margins):
        if label == 1:
            cell = (cfg.ball_diameter_mm, cfg.burial_depth_mm)
            cells[cell] = min(cells.get(cell, math.inf), margin)
        else:
            negatives.append(margin)
    burials = sorted({burial for _, burial in cells})
    print(f"\ncriterion 5, least y*f(x) per cell; columns: burial {', '.join(f'{b:g}' for b in burials)} mm")
    for diameter in sorted({diameter for diameter, _ in cells}):
        print(f"  {diameter:>2g} mm inclusion: {' '.join(f'{cells[diameter, b]:+7.2f}' for b in burials)}")
    print(f"  negatives: {min(negatives):+.2f}")


class TestCriterion6Decision:
    def test_stored_boundary_arithmetic(self):
        model = DetectorModel(
            mean=np.zeros(2),
            std=np.ones(2),
            weights=np.array([0.33, 4.80]),
            bias=4.53,
        )
        at_origin = decision_value(model, np.array([0.0, 0.0]))
        at_corner = decision_value(model, np.array([-1.0, -1.0]))
        ok = (
            at_origin == 4.53
            and classify(model, np.array([0.0, 0.0])) == "tumor"
            and abs(at_corner - (-0.60)) < 1e-12
            and classify(model, np.array([-1.0, -1.0])) == "no-tumor"
        )
        report(6, "decision arithmetic", ok, f"z=(0,0) -> {at_origin} tumor; z=(-1,-1) -> {at_corner:.2f} no-tumor")


def meets_rig_targets(result):
    """Criterion 7's targets: threshold 0.02 N and saturation 0.11 N, each +- 10%, hysteresis 38 +- 5%."""
    return (
        result.threshold_n is not None
        and abs(result.threshold_n - 0.02) <= 0.1 * 0.02
        and result.saturation_n is not None
        and abs(result.saturation_n - 0.11) <= 0.1 * 0.11
        and abs(result.hysteresis_pct - 38.0) <= 5.0
    )


class TestCriterion7Characterization:
    def test_reference_rig_targets(self, geometry, calib_model):
        started = time.monotonic()
        result = characterize(geometry, calib_model, seed=0)
        elapsed = time.monotonic() - started
        ok = meets_rig_targets(result) and elapsed <= 120.0
        report(7, "characterization consistency", ok,
               f"threshold {result.threshold_n} N (0.02 +- 10%), saturation {result.saturation_n} N (0.11 +- 10%), "
               f"hysteresis {result.hysteresis_pct:.1f}% (38 +- 5), null std {result.null_std:.2f}, {elapsed:.0f}s")


# Calibration-data seeds of the sweep below: the fixture's (123) and the eight after it. Fixed before any change
# that moves criterion 7; never edit them to make a result pass.
SWEEP_CALIBRATION_SEEDS = tuple(range(123, 132))


@pytest.mark.long
class TestCriterion7CalibrationSeedSweep:
    """Criterion 7 at characterize seed 0 for the fixture's recipe trained on each calibration-data seed.

    Criterion 7 sees one draw of the calibration model, so this sweep tells a
    change that moves it from the luck of that draw. One line per seed.
    """

    def test_rig_targets_at_every_calibration_seed(self, geometry, membrane):
        passed = []
        for seed in SWEEP_CALIBRATION_SEEDS:
            model = acceptance_model(geometry, seed)
            worst_rmse = max(held_out_rmses(model, geometry, membrane))
            result = characterize(geometry, model, seed=0)
            ok = meets_rig_targets(result)
            passed.append(ok)
            mean_at = dict(zip(np.round(result.loading.forces, 4), result.loading.mean_depths))
            print(f"\nSWEEP calibration seed {seed} [{'PASS' if ok else 'FAIL'}]: "
                  f"threshold {result.threshold_n} N, 3 x floor {3.0 * result.noise_floor_mm:.5f} mm, "
                  f"mean at 0.015 N {mean_at[0.015]:.5f} mm, mean at 0.02 N {mean_at[0.02]:.5f} mm, "
                  f"saturation {result.saturation_n} N, hysteresis {result.hysteresis_pct:.1f}%, "
                  f"criterion 3 worst RMSE {worst_rmse:.4f} mm")
        print(f"\nSWEEP {sum(passed)} of {len(passed)} calibration seeds meet criterion 7")
        assert all(passed)


class TestCriterion8ExVivoProxy:
    def test_fifty_random_presses(self, geometry, membrane, calib_model, detector):
        started = time.monotonic()
        model, _, _ = detector
        rng = rng_stream(4242, 70)
        zero = geometry.zero_map()
        correct = 0
        for _ in range(50):
            has_tumor = bool(rng.random() < 0.5)
            if has_tumor:
                cfg = PhantomConfig(
                    tumor_present=True,
                    ball_diameter_mm=float(rng.choice([4.0, 6.0, 8.0, 10.0])),
                    burial_depth_mm=float(rng.integers(1, 6)),
                    lateral_offset_mm=(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))),
                    applied_mass_g=1000.0,
                )
            else:
                cfg = PhantomConfig(
                    tumor_present=False,
                    applied_mass_g=float(rng.choice([1000.0, 1100.0, 1200.0, 1300.0])),
                )
            solution = contact_solve(cfg, geometry)
            seed = int(rng.integers(2**62))
            ref = render_reading(zero, membrane, 2 * seed)
            contact = render_reading(solution, membrane, 2 * seed + 1)
            fv = extract_features(reconstruct(calib_model, ref, contact, geometry))
            predicted = classify(model, fv)
            correct += predicted == ("tumor" if has_tumor else "no-tumor")
        elapsed = time.monotonic() - started
        accuracy = correct / 50
        ok = accuracy == 1.0 and elapsed <= 120.0
        report(8, "ex-vivo proxy", ok, f"50 offset presses, accuracy {accuracy:.0%}, {elapsed:.0f}s")


# Criterion 9's pipeline at 100x80: every verb once, into one directory.
SMALL = ["--width", "100", "--height", "80", "--mm-per-pixel", "0.1"]
PIPELINE_SPEC = {
    "diameters_mm": [6.0], "burial_depths_mm": [3.0], "presses_per_positive": 2,
    "positive_mass_g": 1000.0, "negative_masses_g": [1000.0], "presses_per_negative_mass": 2,
}


def run_pipeline(root, spec):
    """Run criterion 9's nine verbs into ``root`` (created here); ``spec`` is a file holding PIPELINE_SPEC."""
    root.mkdir()
    argvs = [
        ["phantom", *SMALL, "--seed", "3", "--out-prefix", str(root / "press")],
        ["imprint", "--ref", str(root / "press_ref.ppm"), "--contact", str(root / "press_contact.ppm"),
         "--out", str(root / "imprint.ppm")],
        ["calibrate", *SMALL, "--captures", "3", "--epochs", "4", "--seed", "3",
         "--out", str(root / "calib.json")],
        ["reconstruct", *SMALL, "--model", str(root / "calib.json"),
         "--ref", str(root / "press_ref.ppm"), "--contact", str(root / "press_contact.ppm"),
         "--out", str(root / "recon.dmap")],
        ["dataset", *SMALL, "--spec", str(spec), "--seed", "3", "--out", str(root / "data")],
        ["train-detector", *SMALL, "--dataset", str(root / "data"),
         "--calibration", str(root / "calib.json"), "--train-fraction", "0.5", "--seed", "3",
         "--out", str(root / "detector.json")],
        ["detect", "--detector", str(root / "detector.json"), "--map", str(root / "recon.dmap"),
         "--report", str(root / "detect.json")],
        ["evaluate", *SMALL, "--detector", str(root / "detector.json"),
         "--dataset", str(root / "data"), "--calibration", str(root / "calib.json"),
         "--out", str(root / "report.json"), "--csv", str(root / "report.csv")],
        ["characterize", *SMALL, "--calibration", str(root / "calib.json"), "--seed", "3",
         "--out", str(root / "char")],
    ]
    for argv in argvs:
        assert dispatch(argv) == 0


class TestCriterion9Determinism:
    def test_pipeline_artifacts_byte_identical(self, tmp_path):
        started = time.monotonic()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(PIPELINE_SPEC))
        run_pipeline(tmp_path / "a", spec)
        run_pipeline(tmp_path / "b", spec)
        mismatched = []
        for path_a in sorted((tmp_path / "a").rglob("*")):
            if not path_a.is_file() or path_a.name.endswith(".manifest.json"):
                continue  # manifests carry wall-clock durations
            path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
            if path_a.read_bytes() != path_b.read_bytes():
                mismatched.append(str(path_a.relative_to(tmp_path / "a")))
        n_checked = sum(
            1 for p in (tmp_path / "a").rglob("*") if p.is_file() and not p.name.endswith(".manifest.json")
        )
        elapsed = time.monotonic() - started
        ok = not mismatched and n_checked >= 15
        report(9, "determinism", ok,
               f"{n_checked} artifacts byte-identical across reruns (images, dmaps, models, reports), {elapsed:.0f}s")
