import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import phototact as pt
from phototact import detection
from phototact.detection import (
    NO_TUMOR,
    TUMOR,
    DetectorModel,
    FeatureVector,
    Standardizer,
    classify,
    decision_value,
    evaluate,
    extract_features,
    fit_detector,
    fit_standardizer,
    load_detector,
    save_detector,
    stratified_split,
    train_svm,
)
from phototact.imaging import DeformationMap
from phototact.phantom import DatasetSpec, generate_phantom_dataset


def paper_boundary_model():
    # stored coefficients of the published decision boundary, tumor side positive
    return DetectorModel(
        standardizer=Standardizer(mean=np.zeros(2), std=np.ones(2)),
        weights=np.array([0.33, 4.80]),
        bias=4.53,
    )


class TestExtractFeatures:
    def test_uniform_map(self):
        dmap = DeformationMap(np.full((4, 4), 0.3, dtype=np.float32), np.ones((4, 4), dtype=bool))
        fv = extract_features(dmap)
        assert fv.mu == pytest.approx(0.3, abs=1e-7)
        assert fv.sigma == pytest.approx(0.0, abs=1e-7)

    def test_two_point_distribution(self):
        depths = np.array([[0.2, 0.4], [0.4, 0.2]], dtype=np.float32)
        fv = extract_features(DeformationMap(depths, np.ones((2, 2), dtype=bool)))
        assert fv.mu == pytest.approx(0.3, abs=1e-7)
        assert fv.sigma == pytest.approx(0.1, abs=1e-7)

    def test_statistics_masked_only(self):
        depths = np.array([[0.1, 0.9]], dtype=np.float32)
        mask = np.array([[True, False]])
        fv = extract_features(DeformationMap(depths, mask))
        assert fv.mu == pytest.approx(0.1, abs=1e-7) and fv.sigma == 0.0

    def test_empty_mask(self):
        dmap = DeformationMap(np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="empty mask"):
            extract_features(dmap)

    def test_tumor_sigma_exceeds_matched_negative(self, small_geometry, small_membrane):
        spec = DatasetSpec(diameters_mm=(6.0,), burial_depths_mm=(3.0,), presses_per_positive=1,
                           negative_masses_g=(1000.0,), presses_per_negative_mass=1)
        samples = {s.label: s for s in generate_phantom_dataset(spec, small_geometry, small_membrane, seed=6)}
        assert extract_features(samples[1].truth).sigma > extract_features(samples[-1].truth).sigma


class TestStandardizer:
    def test_two_values(self):
        std = fit_standardizer(np.array([[1.0, 1.0], [3.0, 3.0]]))
        assert np.allclose(std.mean, [2.0, 2.0]) and np.allclose(std.std, [1.0, 1.0])
        assert np.allclose(std.apply(np.array([1.0, 3.0])), [-1.0, 1.0])

    def test_train_set_becomes_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(200, 2))
        std = fit_standardizer(x)
        z = std.apply(x)
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9

    def test_mean_sample_maps_to_zero(self):
        x = np.array([[1.0, 5.0], [2.0, 7.0], [3.0, 9.0]])
        std = fit_standardizer(x)
        assert np.allclose(std.apply(x.mean(axis=0)), [0.0, 0.0], atol=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_standardizer(np.array([[1.0, 2.0], [1.0, 3.0]]))

    def test_all_zero_features_name_the_calibration_model(self):
        # a calibration model that clamps every depth to 0 gives (0, 0) for every press
        with pytest.raises(ValueError, match="zero variance feature: .*reconstructs zero depth for every sample"):
            fit_detector(np.zeros((6, 2)), np.array([1, -1] * 3))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            fit_standardizer(np.array([[1.0, 2.0]]))


class TestTrainSvm:
    def test_two_separable_points(self):
        z = np.array([[1.0, 1.0], [-1.0, -1.0]])
        y = np.array([1, -1])
        model = train_svm(z, y, c=1.0)
        assert decision_value(model, z[0]) > 0
        assert decision_value(model, z[1]) < 0
        assert evaluate(model, z, y).accuracy == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train_svm(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1, 1]))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            train_svm(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1, 0]))

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("fit", [train_svm, fit_detector])
    def test_bad_regularization_rejected(self, fit, c):
        x = np.array([[0.1, 0.02], [0.2, 0.05], [0.05, 0.01], [0.3, 0.07]])
        with pytest.raises(ValueError, match="regularization parameter must be positive and finite"):
            fit(x, np.array([-1, 1, -1, 1]), c=c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fit", [train_svm, fit_detector])
    def test_non_finite_features_rejected(self, fit, bad):
        x = np.array([[0.1, 0.02], [0.2, 0.05], [0.05, 0.01], [0.3, 0.07]])
        y = np.array([-1, 1, -1, 1])
        x[2, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            fit(x, y)

    @given(
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=0, max_value=2**31),
    )
    # Two free rows of each class on the margin, whose lines are nearly parallel: plain SMO alternated between the
    # pairs (0, 2) and (3, 5), or (6, 2) and (11, 14), and stopped at its step cap with a duality gap of 0.0017
    # and 0.0048.
    @example(angle=0.0, n_per_class=3, seed=3891)
    @example(angle=0.0, n_per_class=9, seed=5915)
    def test_zero_hinge_on_separable_sets(self, angle, n_per_class, seed):
        # random separable set: points pushed away from a hyperplane through 0
        normal = np.array([np.cos(angle), np.sin(angle)])
        rng = np.random.default_rng(seed)
        margins = rng.uniform(0.5, 2.0, size=2 * n_per_class)
        along = rng.uniform(-2.0, 2.0, size=2 * n_per_class)
        labels = np.array([1] * n_per_class + [-1] * n_per_class)
        tangent = np.array([-normal[1], normal[0]])
        points = (margins * labels)[:, None] * normal + along[:, None] * tangent
        std = np.asarray(points).std(axis=0)
        assume(np.all(std > 1e-6))
        z = (points - points.mean(axis=0)) / std
        # standardization keeps the classes linearly separable here only if
        # the shifted data still has a margin; verify before asserting
        assume(_separable_with_margin(z, labels, 0.05))
        model = train_svm(z, labels, c=1000.0)
        assert model.training_meta["converged"]
        margins_final = labels * (z @ model.weights + model.bias)
        assert np.all(margins_final >= 1.0 - 1e-9)  # the support vectors sit on margin 1, up to rounding


def _svm_problem(n, separable, seed):
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    angle = rng.uniform(0.0, 2 * np.pi)
    normal = np.array([np.cos(angle), np.sin(angle)])
    tangent = np.array([-normal[1], normal[0]])
    along = rng.uniform(-2.0, 2.0, size=n)
    if separable:
        offset = y * rng.uniform(1.5, 3.0, size=n)
    else:
        offset = y * 0.3 + rng.normal(0.0, 1.0, size=n)
    z = offset[:, None] * normal + along[:, None] * tangent + rng.normal(0.0, 0.5, size=2)
    if not separable:
        # one point of each class at the same place: no hyperplane separates them, at any n
        z[np.flatnonzero(y < 0)[0]] = z[np.flatnonzero(y > 0)[0]]
    return z, y


def _assert_solves_the_svm(z, y, c, model):
    """KKT conditions and primal - dual gap of (w, b), from a dual point rebuilt in numpy alone.

    Rows strictly inside the margin carry alpha = c and rows beyond it alpha = 0; the multipliers of the rows
    on the margin are the least-squares solution of w = sum(alpha y z) and sum(alpha y) = 0, and must lie in
    [0, c].  That dual point bounds the optimum from below, so a small gap proves (w, b) optimal.
    """
    w, b = model.weights, model.bias
    margins = y * (z @ w + b)
    inside = margins < 1.0 - 1e-6
    on = np.abs(margins - 1.0) <= 1e-6
    alpha = np.where(inside, c, 0.0)
    lhs = np.vstack([(y[on, None] * z[on]).T, y[on]])
    rhs = np.append(w, 0.0) - np.append(alpha @ (y[:, None] * z), alpha @ y)
    alpha[on] = np.linalg.lstsq(lhs, rhs, rcond=None)[0] if on.any() else []
    scale = max(1.0, c)
    assert np.abs(lhs @ alpha[on] - rhs).max() <= 1e-7 * scale
    assert alpha.min() >= -1e-7 * scale and alpha.max() <= c * (1.0 + 1e-7)
    alpha = np.clip(alpha, 0.0, c)
    primal = w @ w / 2.0 + c * np.maximum(0.0, 1.0 - margins).sum()
    dual_w = alpha @ (y[:, None] * z)
    dual = alpha.sum() - dual_w @ dual_w / 2.0
    assert primal - dual <= 1e-6 * max(1.0, primal)
    assert model.training_meta["duality_gap"] <= 1e-6 * max(1.0, primal)


# Every (separable, n, c) set converges but the 3-row overlapping sets, which have a zero-weight optimum (tested
# below).
_KKT_CASES = [(True, n, c) for n in (3, 4, 7, 20, 60, 224) for c in (1.0, 1000.0)]
_KKT_CASES += [(False, n, c) for n in (4, 7, 20, 60, 224) for c in (1.0, 1000.0)]


class TestTrainSvmSolvesTheDual:
    @pytest.mark.parametrize("separable, n, c", _KKT_CASES,
                             ids=[f"{'separable' if s else 'overlapping'}-{n}-{c}" for s, n, c in _KKT_CASES])
    def test_kkt_and_duality_gap(self, separable, n, c):
        z, y = _svm_problem(n, separable, seed=1000 * n + int(c) + separable)
        model = train_svm(z, y, c=c)
        assert model.training_meta["converged"]
        assert model.training_meta["iterations"] < detection._SMO_MAX_STEPS
        _assert_solves_the_svm(z, y, c, model)

    @pytest.mark.parametrize("c", [1.0, 1000.0])
    def test_hand_solvable_set(self, c):
        # the rows at +-1 lie on the margin and the rows at +-2 beyond it: w = (1, 0), b = 0
        z = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]])
        model = train_svm(z, np.array([1, 1, -1, -1]), c=c)
        assert model.weights == pytest.approx([1.0, 0.0], abs=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)
        assert model.training_meta["converged"]

    def test_step_cap_returns_a_finite_unconverged_model(self, monkeypatch):
        monkeypatch.setattr(detection, "_SMO_MAX_STEPS", 20)  # the set takes 146 steps
        z, y = _svm_problem(60, False, seed=61000)
        model = train_svm(z, y, c=1000.0)
        assert model.training_meta["converged"] is False
        assert model.training_meta["iterations"] == detection._SMO_MAX_STEPS
        assert np.all(np.isfinite(model.weights)) and math.isfinite(model.bias)
        assert math.isfinite(model.training_meta["duality_gap"])

    @pytest.mark.parametrize("seed, c", [(3000, 1.0), (3001, 1.0), (4000, 1000.0)])
    def test_zero_weight_optimum_names_its_cause(self, seed, c):
        z, y = _svm_problem(3, False, seed=seed)
        with pytest.raises(ValueError, match=rf"^no linear boundary beats a constant label at c={c}: "):
            train_svm(z, y, c=c)

    def test_zero_weight_optimum_found_up_to_rounding(self):
        # (0.1, 0.1) three times in each class and (1, 0) once in class +1: no point holds more -1 than +1 rows,
        # so w = 0 is optimal, yet the sum that forms w rounds to 2.8e-17
        z = np.array([[0.1, 0.1]] * 3 + [[1.0, 0.0]] + [[0.1, 0.1]] * 3)
        with pytest.raises(ValueError, match="no linear boundary beats a constant label at c=1.0"):
            train_svm(z, np.array([1, 1, 1, 1, -1, -1, -1]), c=1.0)


def _separable_with_margin(z, labels, margin):
    # exhaustive-direction scan oracle, independent of the trainer
    for theta in np.linspace(0.0, np.pi, 720, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = z @ w
        lo = proj[labels == 1]
        hi = proj[labels == -1]
        if lo.min() - hi.max() > 2 * margin or hi.min() - lo.max() > 2 * margin:
            return True
    return False


class TestDecision:
    def test_paper_boundary_origin_is_tumor(self):
        model = paper_boundary_model()
        value = decision_value(model, np.array([0.0, 0.0]))
        assert value == 4.53
        assert classify(model, np.array([0.0, 0.0])) == TUMOR

    def test_paper_boundary_negative_point(self):
        model = paper_boundary_model()
        value = decision_value(model, np.array([-1.0, -1.0]))
        assert value == pytest.approx(-0.60, abs=1e-12)
        assert classify(model, np.array([-1.0, -1.0])) == NO_TUMOR

    def test_tie_is_no_tumor(self):
        model = DetectorModel(
            standardizer=Standardizer(mean=np.zeros(2), std=np.ones(2)),
            weights=np.array([1.0, 0.0]),
            bias=0.0,
        )
        assert decision_value(model, np.array([0.0, 5.0])) == 0.0
        assert classify(model, np.array([0.0, 5.0])) == NO_TUMOR

    def test_monotone_in_sigma_when_weight_positive(self):
        model = paper_boundary_model()
        sigmas = np.linspace(0.0, 2.0, 9)
        values = [decision_value(model, np.array([0.3, s])) for s in sigmas]
        assert np.all(np.diff(values) > 0)

    def test_feature_vector_accepted(self):
        model = paper_boundary_model()
        assert decision_value(model, FeatureVector(mu=0.0, sigma=0.0)) == 4.53


class TestEvaluate:
    def test_all_tumor_set_with_always_tumor_model(self):
        model = DetectorModel(
            standardizer=Standardizer(mean=np.zeros(2), std=np.ones(2)),
            weights=np.array([0.0, 1.0]),
            bias=100.0,
        )
        x = np.random.default_rng(1).normal(size=(20, 2))
        report = evaluate(model, x, np.ones(20))
        assert report.accuracy == 1.0
        assert report.true_positive == 20 and report.false_negative == 0

    def test_order_independent_metrics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        y = np.where(x[:, 1] > 0, 1, -1)
        model = fit_detector(x, y)
        base = evaluate(model, x, y)
        perm = rng.permutation(30)
        shuffled = evaluate(model, x[perm], y[perm])
        assert shuffled.accuracy == base.accuracy
        assert (shuffled.true_positive, shuffled.true_negative) == (base.true_positive, base.true_negative)

    def test_scaling_invariance_after_refit(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2)) + np.array([0.3, 0.05])
        y = np.where(x[:, 1] > 0.05, 1, -1)
        if len(set(y)) < 2:
            y[0] = -y[0]
        base = fit_detector(x, y, c=10.0)
        scaled = fit_detector(x * np.array([1000.0, 25.4]), y, c=10.0)
        for row, srow in zip(x, x * np.array([1000.0, 25.4])):
            assert classify(base, row) == classify(scaled, srow)


class TestSplit:
    def test_stratified_counts(self):
        labels = np.array([1] * 140 + [-1] * 140)
        train_idx, test_idx = stratified_split(labels, 0.8, seed=0)
        assert len(train_idx) == 224 and len(test_idx) == 56
        assert (labels[train_idx] == 1).sum() == 112
        assert (labels[test_idx] == 1).sum() == 28
        assert set(train_idx) | set(test_idx) == set(range(280))

    def test_deterministic(self):
        labels = np.array([1] * 10 + [-1] * 10)
        a = stratified_split(labels, 0.8, seed=3)
        b = stratified_split(labels, 0.8, seed=3)
        c = stratified_split(labels, 0.8, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("fraction", [0.9, 0.1])
    def test_every_class_keeps_a_train_and_a_test_sample(self, fraction):
        labels = np.array([1] * 3 + [-1] * 3)  # 0.9 rounds to all 3 in train, 0.1 to none
        with pytest.raises(ValueError, match=f"train fraction {fraction} leaves class -1 no train or no test"):
            stratified_split(labels, fraction, seed=0)

    @pytest.mark.parametrize("seed", [0, 5, 2**62])
    def test_split_stream_is_the_philox_key_seed_91(self, seed):
        # the split drew from a hand-built Philox key (seed, 91) before it moved onto rng_stream
        labels = np.array([1] * 13 + [-1] * 9)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 91], dtype=np.uint64)))
        train_idx = []
        for value in (-1, 1):
            idx = np.flatnonzero(labels == value)
            train_idx.append(idx[rng.permutation(len(idx))][: int(round(0.8 * len(idx)))])
        assert np.array_equal(stratified_split(labels, 0.8, seed=seed)[0], np.sort(np.concatenate(train_idx)))


class TestDetectorFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2)) * np.array([0.05, 0.02]) + np.array([0.3, 0.03])
        y = np.where(x[:, 1] > 0.03, 1, -1)
        if len(set(y)) < 2:
            y[0] = -y[0]
        model = fit_detector(x, y)
        path = tmp_path / "detector.json"
        save_detector(path, model)
        loaded = load_detector(path)
        for row in x:
            assert decision_value(loaded, row) == decision_value(model, row)
        save_detector(tmp_path / "again.json", loaded)
        assert path.read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="not a detector"):
            load_detector(path)

    @pytest.mark.parametrize("text", ["[]", '"detector"', "3", "null"])
    def test_rejects_non_object(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="must hold a JSON object"):
            load_detector(path)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"bias": [1.0]}, "malformed detector file"),
            ({"weights": [0.3, 4.8]}, "malformed detector file"),
            ({"standardizer": {"mean": [0.3, 0.02], "std": [{}, 0.01]}}, "malformed detector file"),
            ({"bias": math.nan}, "weights and bias must be finite"),
            ({"weights": {"mu": math.inf, "sigma": 4.8}}, "weights and bias must be finite"),
            ({"standardizer": {"mean": [0.3, math.nan], "std": [0.05, 0.01]}}, "standardization constants must be finite"),
            ({"bias": "4.53"}, "malformed detector file"),
            ({"bias": True}, "malformed detector file"),
            ({"weights": {"mu": "0.33", "sigma": 4.8}}, "malformed detector file"),
            ({"standardizer": {"mean": ["0.3", 0.02], "std": [0.05, 0.01]}}, "malformed detector file"),
            ({"standardizer": {"mean": [0.3, 0.02], "std": "12"}}, "malformed detector file"),
            ({"standardizer": {"mean": [0.1], "std": [0.2]}}, "one mean and one std per feature"),
            ({"standardizer": {"mean": [0.3, 0.02, 0.1], "std": [0.05, 0.01, 0.2]}},
             "one mean and one std per feature"),
        ],
    )
    def test_rejects_bad_values(self, tmp_path, changes, message):
        model = DetectorModel(standardizer=Standardizer(mean=np.array([0.3, 0.02]), std=np.array([0.05, 0.01])),
                              weights=np.array([0.33, 4.80]), bias=4.53)
        path = tmp_path / "x.json"
        save_detector(path, model)
        path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
        with pytest.raises(ValueError, match=message):
            load_detector(path)
