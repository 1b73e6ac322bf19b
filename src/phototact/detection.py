"""Stiff-inclusion detection from depth-map statistics.

Each press is summarized by the mean and population standard deviation of
the in-disc depths.  Features are standardized with training-set statistics
and separated by a linear soft-margin SVM, solved exactly on its dual by
deterministic SMO.  A press is labeled "tumor" when the decision value is
strictly positive; exact ties fall on the "no-tumor" side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import DeformationMap, frozen_array, json_number, read_json, write_json
from .phantom import rng_stream

TUMOR = "tumor"
NO_TUMOR = "no-tumor"

_DETECTOR_FORMAT = "phototact-detector"
_DETECTOR_VERSION = 1

_STREAM_SPLIT = 91

_SMO_TOLERANCE = 1e-10  # largest violating-pair gap at which the dual solve stops
_SMO_MAX_STEPS = 20000  # then training_meta says converged: false; about 1 s at 280 rows
_SMO_MIN_CURVATURE = 1e-12  # LIBSVM's TAU: the curvature used for a pair of coincident points


@dataclass(frozen=True)
class FeatureVector:
    """Mean and population standard deviation of in-disc depth, in mm."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise ValueError("features must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def as_array(self):
        return np.array([self.mu, self.sigma], dtype=np.float64)

    @classmethod
    def of(cls, depths) -> "FeatureVector":
        """Mean and population std of a non-empty float64 vector of in-disc depths."""
        return cls(mu=float(depths.mean()), sigma=float(depths.std()))


def extract_features(dmap: DeformationMap) -> FeatureVector:
    if not dmap.mask.any():
        raise ValueError("empty mask")
    return FeatureVector.of(dmap.depths[dmap.mask].astype(np.float64))


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine transform to zero mean, unit variance."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = frozen_array(self.mean, np.float64)
        std = frozen_array(self.std, np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be matching 1-D vectors")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("standardization constants must be finite")
        if np.any(std <= 0):
            raise ValueError("zero variance feature")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def apply(self, features):
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


def fit_standardizer(features) -> Standardizer:
    """Fit on an (N, F) matrix using population (divide-by-N) variance."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two samples to standardize")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return Standardizer(mean=x.mean(axis=0), std=x.std(axis=0))


@dataclass(frozen=True)
class DetectorModel:
    """Linear decision function over standardized (mu, sigma) features."""

    standardizer: Standardizer
    weights: np.ndarray            # (w_mu, w_sigma), standardized space
    bias: float
    training_meta: dict | None = None

    def __post_init__(self):
        w = frozen_array(self.weights, np.float64)
        if w.shape != (2,):
            raise ValueError("weights must be (w_mu, w_sigma)")
        if self.standardizer.mean.shape != (2,):
            raise ValueError("the standardizer must hold one mean and one std per feature (mu, sigma)")
        if not (np.all(np.isfinite(w)) and math.isfinite(self.bias)):
            raise ValueError("weights and bias must be finite")
        if not np.any(w != 0):
            raise ValueError("weights must not both be zero")
        object.__setattr__(self, "weights", w)


def _label_array(labels):
    y = np.asarray(labels, dtype=np.float64)
    if not np.all(np.abs(y) == 1):
        raise ValueError("labels must be +1 (tumor) or -1 (no tumor)")
    return y


def train_svm(standardized, labels, c: float = 1.0, standardizer: Standardizer | None = None) -> DetectorModel:
    """Linear soft-margin SVM, solved exactly by SMO on its dual (Platt 1998).

    Minimizes ||w||^2/2 + c * sum(hinge) with an unregularized bias.  Each step
    moves the most violating i and the j of largest second-order gain (Fan, Chen
    & Lin 2005), ties going to the lowest index, until the largest violating-pair
    gap is ``_SMO_TOLERANCE`` or less, first moving free rows that outnumber their
    constraints to a bound along directions that keep w.  The bias is the mean
    score of the free support vectors, or LIBSVM's midpoint when none is free.
    """
    z = np.asarray(standardized, dtype=np.float64)
    y = _label_array(labels)
    if z.ndim != 2 or z.shape[0] != y.shape[0]:
        raise ValueError("features and labels must align")
    if not np.all(np.isfinite(z)):
        raise ValueError("features must be finite")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes must be present")
    if not 0 < c < math.inf:
        raise ValueError("regularization parameter must be positive and finite")
    if standardizer is None:
        standardizer = Standardizer(mean=np.zeros(z.shape[1]), std=np.ones(z.shape[1]))

    gram = sum(np.multiply.outer(column, column) for column in z.T)  # no BLAS call, so no thread-count dependence
    # The dual variables as beta = y * alpha, which lies in [0, c] on a tumor row and in [-c, 0] on the others.
    lower, upper = np.where(y > 0, 0.0, -c), np.where(y > 0, c, 0.0)
    beta = np.zeros(y.shape[0])
    score = y.copy()  # -y times the dual gradient Q alpha - 1, with Q = (y y') * gram
    for steps in range(_SMO_MAX_STEPS + 1):
        free = np.flatnonzero((beta > lower) & (beta < upper))
        if free.size > z.shape[1] + 1:
            # The free rows outnumber their constraints (one per feature, plus the sum), so a direction d keeps w
            # and the sum.  The dual is linear along d, with slope score . d, and pair steps cross a nearly flat d
            # only by tiny alternating steps: move uphill along d until a free row meets its bound.
            d = np.linalg.svd(np.vstack([z[free].T, np.ones(free.size)]))[2][-1]
            d = d if score[free] @ d >= 0.0 else -d
            bound = np.where(d > 0.0, upper[free], lower[free])
            room = np.divide(bound - beta[free], d, out=np.full(free.size, np.inf), where=d != 0.0)
            k = int(np.argmin(room))
            beta[free] += room[k] * d
            beta[free[k]] = bound[k]
        up, low = beta < upper, beta > lower
        i = int(np.argmax(np.where(up, score, -np.inf)))
        top, bottom = score[i], score[low].min()
        converged = top - bottom <= _SMO_TOLERANCE
        if converged or steps == _SMO_MAX_STEPS:
            break
        rise = top - score
        curvature = np.maximum(gram[i, i] + gram.diagonal() - 2.0 * gram[i], _SMO_MIN_CURVATURE)
        j = int(np.argmax(np.where(low & (rise > 0.0), rise * rise / curvature, -np.inf)))
        room_i, room_j = upper[i] - beta[i], beta[j] - lower[j]
        step = min(rise[j] / curvature[j], room_i, room_j)
        beta[i] = beta[i] + step if step < room_i else upper[i]
        beta[j] = beta[j] - step if step < room_j else lower[j]
        score -= step * (gram[i] - gram[j])

    w = (beta[:, None] * z).sum(axis=0)
    free = up & low
    b = float(score[free].mean()) if free.any() else float(top + bottom) / 2.0
    primal = float(w @ w) / 2.0 + c * float(np.maximum(0.0, 1.0 - y * ((z * w).sum(axis=1) + b)).sum())
    # w = 0 with the best bias labels every row as the larger class: objective 2c * (size of the smaller class)
    if converged and primal >= 2.0 * c * min(np.sum(y > 0), np.sum(y < 0)) * (1.0 - 1e-9):  # up to rounding
        raise ValueError(f"no linear boundary beats a constant label at c={c}: the SVM optimum has zero weights")
    dual = float(np.abs(beta).sum()) - float(w @ w) / 2.0
    meta = {"c": c, "iterations": steps, "converged": bool(converged), "duality_gap": primal - dual}
    return DetectorModel(standardizer=standardizer, weights=w, bias=b, training_meta=meta)


def fit_detector(features, labels, c: float = 1.0) -> DetectorModel:
    """Standardize raw (mu, sigma) features, then train the classifier."""
    x = np.asarray(features, dtype=np.float64)
    if x.size and not x.any():
        raise ValueError(
            "zero variance feature: every (mu, sigma) is (0, 0), so the calibration model"
            " reconstructs zero depth for every sample"
        )
    standardizer = fit_standardizer(x)
    return train_svm(standardizer.apply(x), labels, c=c, standardizer=standardizer)


def decision_value(model: DetectorModel, features) -> float:
    """Signed distance-like score; positive means tumor."""
    fv = features.as_array() if isinstance(features, FeatureVector) else np.asarray(features, dtype=np.float64)
    z = model.standardizer.apply(fv)
    return float(model.weights @ z + model.bias)


def classify(model: DetectorModel, features) -> str:
    return TUMOR if decision_value(model, features) > 0.0 else NO_TUMOR


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    true_positive: int
    true_negative: int
    false_positive: int
    false_negative: int
    decision_values: tuple

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "true_positive": self.true_positive,
            "true_negative": self.true_negative,
            "false_positive": self.false_positive,
            "false_negative": self.false_negative,
            "decision_values": list(self.decision_values),
        }


def evaluate(model: DetectorModel, features, labels) -> EvalReport:
    """Accuracy, confusion counts, and per-sample decision values."""
    x = np.asarray(features, dtype=np.float64)
    y = _label_array(labels)
    if x.shape[0] == 0:
        raise ValueError("evaluation set must be non-empty")
    values = np.array([decision_value(model, row) for row in x])
    predicted = np.where(values > 0.0, 1.0, -1.0)
    tp = int(np.sum((predicted > 0) & (y > 0)))
    tn = int(np.sum((predicted < 0) & (y < 0)))
    fp = int(np.sum((predicted > 0) & (y < 0)))
    fn = int(np.sum((predicted < 0) & (y > 0)))
    return EvalReport(
        accuracy=float((tp + tn) / y.shape[0]),
        true_positive=tp,
        true_negative=tn,
        false_positive=fp,
        false_negative=fn,
        decision_values=tuple(float(v) for v in values),
    )


def stratified_split(labels, train_fraction: float = 0.8, seed: int = 0):
    """Seed-deterministic per-class split; returns (train_idx, test_idx)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie in (0, 1)")
    y = np.asarray(labels)
    rng = rng_stream(seed, _STREAM_SPLIT)
    train_idx, test_idx = [], []
    for value in np.unique(y):
        idx = np.flatnonzero(y == value)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(round(train_fraction * len(idx)))
        if not 0 < n_train < len(idx):
            raise ValueError(f"train fraction {train_fraction} leaves class {value} no train or no test sample")
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


# ---------------------------------------------------------------------------
# Detector files


def save_detector(path, model: DetectorModel):
    write_json(path, {
        "format": _DETECTOR_FORMAT,
        "version": _DETECTOR_VERSION,
        "weights": {"mu": model.weights[0], "sigma": model.weights[1]},
        "bias": model.bias,
        "standardizer": {"mean": model.standardizer.mean.tolist(), "std": model.standardizer.std.tolist()},
        "label_convention": "decision_value > 0 => tumor",
        "training": model.training_meta or {},
    })


def load_detector(path) -> DetectorModel:
    doc = read_json(path, "detector", _DETECTOR_FORMAT, _DETECTOR_VERSION)
    try:
        standardizer = Standardizer(
            mean=[json_number(x) for x in doc["standardizer"]["mean"]],
            std=[json_number(x) for x in doc["standardizer"]["std"]],
        )
        return DetectorModel(
            standardizer=standardizer,
            weights=[json_number(doc["weights"][k]) for k in ("mu", "sigma")],
            bias=json_number(doc["bias"]),
            training_meta=doc.get("training") or None,
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed detector file: {err!r}") from None
