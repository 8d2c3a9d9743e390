"""Regression baselines: predict a calibration threshold from unlabeled scores.

A small MLP is fit on a corpus of (feature vector, calibrated tau) pairs,
one pair per shifted copy of the source. Shifted copies come from a
synthetic family: temperature scaling of the score rows followed by a
label-preserving Dirichlet jitter. Feature extractors:

* ``acr``: mean top confidence (d = 1).
* ``dcr``: ``acr`` minus the source's ``acr``; the regression target is the
  threshold offset rather than the threshold (d = 1).
* ``chr``: normalized histogram of top confidence over ``bins`` equal bins
  of [0, 1]; a value exactly on an interior edge counts toward the upper
  bin and the last bin is closed at 1 (d = bins).
* ``chr-minus``: ``chr`` with the last bin dropped (d = bins - 1).
* ``pcr``: per-class mean of the top score over rows predicted as that
  class; a class never predicted contributes 1/L with a warning (d = L).

The network is fixed at [d, 64, 64, 64, 1] with ReLU hidden layers and is
trained by full-batch gradient descent on the mean squared error. Features
are standardized per coordinate; the statistics are stored in the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .conformal import PredictorSpec, calibrate, max_tau
from .qtc import top_confidences
from .scores import Dataset, LabeledDataset, ScoreMatrix
from .util import derive_seed, format_float, format_kv, parse_kv, reading

EXTRACTORS = ("acr", "dcr", "chr", "chr-minus", "pcr")

HIDDEN_SIZES = (64, 64, 64)

MODEL_MAGIC = b"CSHIFTMLP1"


def _check_extractor(name: str) -> None:
    if name not in EXTRACTORS:
        raise ValueError(f"extractor must be one of {EXTRACTORS}, got {name!r}")


class TrainingDivergedError(RuntimeError):
    """Gradient descent produced a non-finite loss."""


def confidence_histogram(confidences: np.ndarray, bins: int) -> np.ndarray:
    """Normalized histogram of confidences over equal bins of [0, 1].

    Interior edges belong to the upper bin; the last bin includes 1.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    idx = np.minimum(np.floor(confidences * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return counts / confidences.size


def extract_features(
    data: Dataset,
    extractor: str,
    bins: int = 10,
    source_ref: Dataset | None = None,
) -> np.ndarray:
    """Summarize a dataset's scores for threshold regression, as a 1-D
    float64 array of the extractor's d entries.

    ``source_ref`` is required for ``dcr`` and ignored otherwise. Labels
    are never consulted.
    """
    _check_extractor(extractor)
    conf = top_confidences(data)
    if extractor == "acr":
        values = np.array([conf.mean()])
    elif extractor == "dcr":
        if source_ref is None:
            raise ValueError("dcr requires a source reference dataset")
        values = np.array([conf.mean() - top_confidences(source_ref).mean()])
    elif extractor in ("chr", "chr-minus"):
        if bins < 2:
            raise ValueError(f"{extractor} needs bins >= 2, got {bins}")
        values = confidence_histogram(conf, bins)
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


def dirichlet_jitter(
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
    shifted = dirichlet_jitter(shifted, concentration, rng)
    return LabeledDataset(ScoreMatrix(shifted), source.labels)


@dataclass(frozen=True, eq=False)
class RegressionCorpus:
    """Feature matrix and calibrated-threshold targets over a shift family."""

    features: np.ndarray
    targets: np.ndarray
    extractor_id: str
    spec: PredictorSpec
    alpha: float
    n_classes: int
    offset_base: float | None = None

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
    on [-1, 1] and Dirichlet concentrations uniform on [5, 100]. Entries
    whose calibration saturates are dropped with a warning; an empty corpus
    is an error.
    """
    if n_shifts < 1:
        raise ValueError(f"empty corpus: n_shifts must be >= 1, got {n_shifts}")
    feature_rows = []
    targets = []
    offset_base = None
    for j in range(n_shifts):
        if j == 0:
            shifted = source
        else:
            rng = np.random.default_rng(derive_seed(seed, f"shift-{j}"))
            log_t = rng.uniform(-1.0, 1.0)
            kappa = rng.uniform(5.0, 100.0)
            shifted = synthetic_shift(source, log_t, kappa, derive_seed(seed, f"jitter-{j}"))
        threshold = calibrate(spec, shifted, alpha, derive_seed(seed, f"cal-{j}"))
        if threshold.is_saturated:
            warnings.warn(f"corpus entry {j}: calibration saturated; dropped", stacklevel=2)
            if j == 0 and extractor == "dcr":
                raise ValueError("dcr needs an unsaturated identity entry for its offset base")
            continue
        if j == 0:
            offset_base = threshold.tau
        feature = extract_features(shifted, extractor, bins, source_ref=source)
        target = threshold.tau
        if extractor == "dcr":
            target -= offset_base
        feature_rows.append(feature)
        targets.append(target)
    if not feature_rows:
        raise ValueError("empty corpus: every entry's calibration saturated")
    return RegressionCorpus(
        features=np.array(feature_rows),
        targets=np.array(targets),
        extractor_id=extractor,
        spec=spec,
        alpha=alpha,
        n_classes=source.L,
        offset_base=offset_base if extractor == "dcr" else None,
    )


# --- the MLP itself ---


@dataclass(eq=False)
class MlpRegressor:
    """Fully-connected ReLU regressor with stored standardization stats."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feat_mean: np.ndarray
    feat_std: np.ndarray
    extractor_id: str
    spec: PredictorSpec
    alpha: float
    n_classes: int
    offset_base: float | None = None
    final_loss: float | None = None

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    @property
    def d(self) -> int:
        return self.layer_sizes[0]


def init_parameters(
    layer_sizes: tuple[int, ...], seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform [-a, a] weights with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The input and each hidden layer's activations, and the (m,) outputs."""
    activations = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        activations.append(np.maximum(activations[-1] @ w + b, 0.0))
    return activations, (activations[-1] @ weights[-1] + biases[-1])[:, 0]


def mlp_forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Forward pass on already-standardized inputs; returns (m,) outputs."""
    return _forward(weights, biases, x)[1]


def loss_and_gradients(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared error and its gradients via backpropagation."""
    m = x.shape[0]
    activations, out = _forward(weights, biases, x)
    residual = out - targets
    loss = float(np.mean(residual**2))
    # d loss / d out
    delta = (2.0 / m) * residual[:, None]
    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)
    return loss, grads_w, grads_b


def train(
    corpus: RegressionCorpus,
    epochs: int = 5000,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> MlpRegressor:
    """Full-batch gradient descent on the corpus.

    Deterministic for a given seed. Raises ``TrainingDivergedError`` naming
    the epoch if the loss stops being finite.
    """
    if corpus.size < 1:
        raise ValueError("corpus is empty")
    feat_mean = corpus.features.mean(axis=0)
    feat_std = corpus.features.std(axis=0)
    feat_std = np.where(feat_std < 1e-12, 1.0, feat_std)
    x = (corpus.features - feat_mean) / feat_std
    layer_sizes = (corpus.d, *HIDDEN_SIZES, 1)
    weights, biases = init_parameters(layer_sizes, seed)
    for epoch in range(epochs):
        loss, grads_w, grads_b = loss_and_gradients(weights, biases, x, corpus.targets)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        for w, gw in zip(weights, grads_w):
            w -= learning_rate * gw
        for b, gb in zip(biases, grads_b):
            b -= learning_rate * gb
    final_loss = float(np.mean((mlp_forward(weights, biases, x) - corpus.targets) ** 2))
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(f"non-finite loss at epoch {epochs}")
    return MlpRegressor(
        weights=weights,
        biases=biases,
        feat_mean=feat_mean,
        feat_std=feat_std,
        extractor_id=corpus.extractor_id,
        spec=corpus.spec,
        alpha=corpus.alpha,
        n_classes=corpus.n_classes,
        offset_base=corpus.offset_base,
        final_loss=final_loss,
    )


def predict_tau(model: MlpRegressor, target: Dataset, source_ref: Dataset | None = None) -> float:
    """Predicted threshold for a target's scores, clamped to the valid range.

    The features come from the model's own extractor; ``chr`` has the
    model's input size d as its bin count and ``chr-minus`` d + 1.
    ``source_ref`` is required for ``dcr`` models, whose stored offset base
    is added back before clamping. A target whose features have another
    size than the model's input (a ``pcr`` model given another class count)
    is rejected.
    """
    bins = model.d + 1 if model.extractor_id == "chr-minus" else model.d
    feature = extract_features(target, model.extractor_id, bins, source_ref)
    if feature.size != model.d:
        raise ValueError(f"feature dimension {feature.size} does not match model input {model.d}")
    x = ((feature - model.feat_mean) / model.feat_std)[None, :]
    out = float(mlp_forward(model.weights, model.biases, x)[0])
    if model.offset_base is not None:
        out += model.offset_base
    return float(np.clip(out, 0.0, max_tau(model.spec, model.n_classes)))


# --- model file format (see FORMATS.md) ---


def _floats(values) -> str:
    return ",".join(format_float(v) for v in values)


def _optional(text: str) -> float | None:
    return None if text == "none" else float(text)


def save_model(model: MlpRegressor, path) -> None:
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for w, b in zip(model.weights, model.biases)
        for arr in (w, b)
    )
    header = {
        "layers": ",".join(map(str, model.layer_sizes)),
        "extractor": model.extractor_id,
        **model.spec.to_kv(),
        "alpha": float(model.alpha),
        "n_classes": model.n_classes,
        "offset_base": "none" if model.offset_base is None else float(model.offset_base),
        "final_loss": "none" if model.final_loss is None else float(model.final_loss),
        "feat_mean": _floats(model.feat_mean),
        "feat_std": _floats(model.feat_std),
        "blob_bytes": len(blob),
    }
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + b"\n" + format_kv(header).encode() + blob)


def load_model(path) -> MlpRegressor:
    """Read a model file; every error names the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    with reading(path):
        # the header ends with its first "blob_bytes=" line; the blob follows
        pos = raw.find(b"\nblob_bytes=")
        end = raw.find(b"\n", pos + 1) if pos >= 0 else -1
        if not raw.startswith(MODEL_MAGIC + b"\n") or end < 0:
            raise ValueError("not a model file")
        kv = parse_kv(raw[len(MODEL_MAGIC) + 1 : end].decode().split("\n"), first_lineno=2)
        blob = raw[end + 1 :]
        _check_extractor(kv["extractor"])
        if len(blob) != int(kv["blob_bytes"]):
            raise ValueError(f"blob has {len(blob)} bytes, header says {kv['blob_bytes']}")
        layer_sizes = tuple(int(s) for s in kv["layers"].split(","))
        if len(layer_sizes) < 2 or min(layer_sizes) < 1:
            raise ValueError(f"layers must be two or more positive sizes, got {kv['layers']}")
        feat_mean = np.array([float(s) for s in kv["feat_mean"].split(",")])
        feat_std = np.array([float(s) for s in kv["feat_std"].split(",")])
        if feat_mean.size != layer_sizes[0] or feat_std.size != layer_sizes[0]:
            raise ValueError(
                f"feat_mean has {feat_mean.size} and feat_std {feat_std.size} entries "
                f"for {layer_sizes[0]} inputs"
            )
        flat = np.frombuffer(blob, dtype="<f8")
        weights, biases, offset = [], [], 0
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out).copy())
            offset += fan_in * fan_out
            biases.append(flat[offset : offset + fan_out].copy())
            offset += fan_out
        if offset != flat.size:
            raise ValueError("weight blob size does not match layer sizes")
        return MlpRegressor(
            weights=weights,
            biases=biases,
            feat_mean=feat_mean,
            feat_std=feat_std,
            extractor_id=kv["extractor"],
            spec=PredictorSpec.from_kv(kv),
            alpha=float(kv["alpha"]),
            n_classes=int(kv["n_classes"]),
            offset_base=_optional(kv["offset_base"]),
            final_loss=_optional(kv["final_loss"]),
        )
