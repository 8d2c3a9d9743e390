"""Regression baselines: predict a calibration threshold from unlabeled scores.

A linear model is fit on a corpus of (feature vector, calibrated tau) pairs,
one pair per shifted copy of the source. Shifted copies come from a
synthetic family: temperature scaling of the score rows followed by a
label-preserving Dirichlet jitter. Feature extractors:

* ``acr``: mean top confidence (d = 1).
* ``chr``: normalized histogram of top confidence over ``bins`` equal bins
  of [0, 1]; a value exactly on an interior edge counts toward the upper
  bin and the last bin is closed at 1 (d = bins).
* ``chr-minus``: ``chr`` with the last bin dropped (d = bins - 1).
* ``pcr``: per-class mean of the top score over rows predicted as that
  class; a class never predicted contributes 1/L with a warning (d = L).

The model is ``tau = x . w + b`` over features ``x`` standardized per
coordinate, fit by minimum-norm least squares in one solve; the
standardization statistics are stored in the model. OpenBLAS may split
a large solve over threads, which sums in another order, so its last bits
depend on the thread count. The ``cshift`` command loads numpy with one
OpenBLAS thread (:mod:`cshift.cli`); a library caller that wants the
command's bits sets ``OPENBLAS_NUM_THREADS=1`` before importing numpy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import util
from .conformal import PredictorSpec, calibrate, max_tau
from .qtc import top_confidences
from .scores import Dataset, LabeledDataset, ScoreMatrix
from .util import derive_seed, format_kv, format_row

# The file is laid out as an MLP with no hidden layer (``layers=d,1``) and
# keeps the ``offset_base=none`` line of that layout, so readers of it read
# the file unchanged.
MODEL_MAGIC = b"CSHIFTMLP1"


def _confidence_histogram(confidences: np.ndarray, bins: int) -> np.ndarray:
    """Normalized histogram of confidences over equal bins of [0, 1].

    Interior edges belong to the upper bin; the last bin includes 1.
    """
    idx = np.minimum(np.floor(confidences * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return counts / confidences.size


def extract_features(data: Dataset, extractor: str, bins: int = 10) -> np.ndarray:
    """Summarize a dataset's scores for threshold regression, as a 1-D
    float64 array of the extractor's d entries. Labels are never consulted.
    """
    if extractor not in util.EXTRACTORS:
        raise ValueError(f"extractor must be one of {util.EXTRACTORS}, got {extractor!r}")
    conf = top_confidences(data)
    if extractor == "acr":
        values = np.array([conf.mean()])
    elif extractor in ("chr", "chr-minus"):
        if bins < 2:
            raise ValueError(f"{extractor} needs bins >= 2, got {bins}")
        values = _confidence_histogram(conf, bins)
        if extractor == "chr-minus":
            values = values[:-1]
    else:  # pcr
        scores = data.scores.values
        L = scores.shape[1]
        predicted = np.argmax(scores, axis=1)
        values = np.empty(L)
        empty = []
        for j in range(L):
            mask = predicted == j
            if mask.any():
                values[j] = conf[mask].mean()
            else:
                values[j] = 1.0 / L
                empty.append(j)
        if empty:
            warnings.warn(
                f"pcr: classes {empty} never predicted; using 1/L for them",
                stacklevel=2,
            )
    return values


# --- synthetic shift family ---


def temperature_scale(values: np.ndarray, temperature: float) -> np.ndarray:
    """Raise each row to 1/temperature and renormalize."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    powered = values ** (1.0 / temperature)
    return powered / powered.sum(axis=1, keepdims=True)


def _dirichlet_jitter(
    values: np.ndarray, concentration: float, rng: np.random.Generator
) -> np.ndarray:
    """Resample each row from a Dirichlet centered on it.

    Larger concentration means less noise. Rows whose draw underflows to
    zero fall back to the unjittered row.
    """
    if concentration <= 0.0:
        raise ValueError(f"concentration must be > 0, got {concentration}")
    shapes = np.maximum(concentration * values, 1e-6)
    draws = rng.standard_gamma(shapes)
    sums = draws.sum(axis=1)
    dead = sums <= 0.0
    if dead.any():
        draws[dead] = values[dead]
        sums[dead] = values[dead].sum(axis=1)
    return draws / sums[:, None]


def synthetic_shift(
    source: LabeledDataset, log_temperature: float, concentration: float, seed: int
) -> LabeledDataset:
    """One shifted copy: temperature scaling then Dirichlet jitter."""
    rng = np.random.default_rng(seed)
    shifted = temperature_scale(source.scores.values, float(np.exp(log_temperature)))
    shifted = _dirichlet_jitter(shifted, concentration, rng)
    return LabeledDataset(ScoreMatrix._adopt(shifted), source.labels)


@dataclass(frozen=True, eq=False)
class RegressionCorpus:
    """Feature matrix and calibrated-threshold targets over a shift family."""

    features: np.ndarray
    targets: np.ndarray
    extractor_id: str
    spec: PredictorSpec
    alpha: float
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"features {self.features.shape} and targets {self.targets.shape} disagree"
            )

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def build_corpus(
    source: LabeledDataset,
    spec: PredictorSpec,
    alpha: float,
    n_shifts: int,
    extractor: str,
    bins: int = 10,
    seed: int = 0,
) -> RegressionCorpus:
    """Calibrate across a synthetic shift family and pair features with taus.

    Entry 0 is always the identity shift (temperature 1, no jitter), so its
    target is the source's own calibrated tau. Log-temperatures are uniform
    on [-1, 1] and Dirichlet concentrations uniform on [5, 100]. Whether a
    calibration saturates depends only on alpha and n, which every entry
    shares, so a saturated entry 0 means an empty corpus, an error raised
    before any shifted copy is made.
    """
    if n_shifts < 1:
        raise ValueError(f"empty corpus: n_shifts must be >= 1, got {n_shifts}")
    feature_rows = []
    targets = []
    for j in range(n_shifts):
        if j == 0:
            shifted = source
        else:
            rng = np.random.default_rng(derive_seed(seed, f"shift-{j}"))
            log_t = rng.uniform(-1.0, 1.0)
            kappa = rng.uniform(5.0, 100.0)
            shifted = synthetic_shift(source, log_t, kappa, derive_seed(seed, f"jitter-{j}"))
        threshold = calibrate(spec, shifted, alpha, derive_seed(seed, f"cal-{j}"))
        if threshold.saturated:
            raise ValueError(
                f"empty corpus: alpha={alpha:g} saturates every entry's calibration at n={source.n}"
            )
        feature_rows.append(extract_features(shifted, extractor, bins))
        targets.append(threshold.tau)
    return RegressionCorpus(
        features=np.array(feature_rows),
        targets=np.array(targets),
        extractor_id=extractor,
        spec=spec,
        alpha=alpha,
        n_classes=source.L,
    )


# --- the fit itself ---


@dataclass(eq=False)
class LinearRegressor:
    """Weight vector and bias over standardized features, with the
    standardization stats they apply to."""

    weights: np.ndarray
    bias: float
    feat_mean: np.ndarray
    feat_std: np.ndarray
    extractor_id: str
    spec: PredictorSpec
    alpha: float
    n_classes: int
    final_loss: float

    @property
    def d(self) -> int:
        return self.weights.size


def train(corpus: RegressionCorpus) -> LinearRegressor:
    """Minimum-norm least-squares fit of the targets on the standardized
    features and a constant.

    The design matrix is the standardized features with a column of ones
    appended, and the fit is one ``np.linalg.lstsq`` solve over it, so a
    rank-deficient design (a constant feature, or ``chr`` bins that sum to
    1) still gets finite weights. ``final_loss`` is the mean squared
    residual over the corpus.
    """
    if corpus.size < 1:
        raise ValueError("corpus is empty")
    feat_mean = corpus.features.mean(axis=0)
    feat_std = corpus.features.std(axis=0)
    feat_std = np.where(feat_std < 1e-12, 1.0, feat_std)
    design = np.empty((corpus.size, corpus.d + 1))
    x = design[:, :-1]
    np.subtract(corpus.features, feat_mean, out=x)
    x /= feat_std
    design[:, -1] = 1.0
    coef = np.linalg.lstsq(design, corpus.targets, rcond=None)[0]
    residual = design @ coef - corpus.targets
    return LinearRegressor(
        weights=coef[:-1],
        bias=float(coef[-1]),
        feat_mean=feat_mean,
        feat_std=feat_std,
        extractor_id=corpus.extractor_id,
        spec=corpus.spec,
        alpha=corpus.alpha,
        n_classes=corpus.n_classes,
        final_loss=float(np.mean(residual**2)),
    )


def predict_tau(model: LinearRegressor, target: Dataset) -> float:
    """Predicted threshold for a target's scores, clamped to the valid range.

    The features come from the model's own extractor; ``chr`` has the
    model's input size d as its bin count and ``chr-minus`` d + 1. The
    model and the target are all it needs: no extractor reads the source.
    A target whose features have another size than the model's input (a
    ``pcr`` model given another class count) is rejected.
    """
    bins = model.d + 1 if model.extractor_id == "chr-minus" else model.d
    feature = extract_features(target, model.extractor_id, bins)
    if feature.size != model.d:
        raise ValueError(f"feature dimension {feature.size} does not match model input {model.d}")
    x = (feature - model.feat_mean) / model.feat_std
    out = float(x @ model.weights) + model.bias
    return float(np.clip(out, 0.0, max_tau(model.spec, model.n_classes)))


# --- model file format (see FORMATS.md) ---


def write_model(model: LinearRegressor, fh) -> None:
    """The bytes of a model file, written to ``fh``, open for binary
    writing."""
    header = {
        "layers": f"{model.d},1",
        "extractor": model.extractor_id,
        **model.spec.to_kv(),
        "alpha": float(model.alpha),
        "n_classes": model.n_classes,
        "offset_base": "none",
        "final_loss": float(model.final_loss),
        "feat_mean": format_row(model.feat_mean),
        "feat_std": format_row(model.feat_std),
        "blob_bytes": 8 * (model.d + 1),
    }
    fh.write(MODEL_MAGIC + b"\n" + format_kv(header).encode())
    fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
    fh.write(np.array([model.bias], dtype="<f8").tobytes())
