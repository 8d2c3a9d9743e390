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
trained by full-batch gradient descent on the mean squared error, over one
flat parameter vector and layer buffers allocated once per call. Features
are standardized per coordinate; the statistics are stored in the model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import util
from .conformal import PredictorSpec, calibrate, max_tau
from .qtc import top_confidences
from .scores import Dataset, LabeledDataset, ScoreMatrix
from .util import derive_seed, format_float, format_kv, parse_kv, reading, replacing

EXTRACTORS = util.EXTRACTORS

HIDDEN_SIZES = (64, 64, 64)

MODEL_MAGIC = b"CSHIFTMLP1"


def _check_extractor(name: str) -> None:
    if name not in EXTRACTORS:
        raise ValueError(f"extractor must be one of {EXTRACTORS}, got {name!r}")


class TrainingDivergedError(util.CodedError, RuntimeError):
    """Gradient descent produced a non-finite loss."""

    exit_code = 4


def _confidence_histogram(confidences: np.ndarray, bins: int) -> np.ndarray:
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


def _n_parameters(layer_sizes: tuple[int, ...]) -> int:
    pairs = zip(layer_sizes[:-1], layer_sizes[1:])
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in pairs)


def _layer_views(flat: np.ndarray, layer_sizes: tuple[int, ...]):
    """Each layer's weight matrix and bias as views of ``flat``, laid out
    as in the model file: layer by layer, W (fan_in x fan_out) then b."""
    if flat.size != _n_parameters(layer_sizes):
        raise ValueError("weight blob size does not match layer sizes")
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


class _Network:
    """The MLP's parameters, gradients and layer buffers for one batch of
    inputs, each allocated once.

    ``theta`` holds every weight and bias in the model file's layout and
    ``grad`` their gradients in the same layout; ``weights``/``biases`` and
    ``grad_w``/``grad_b`` are per-layer views of them. A forward or
    backward pass only writes into these arrays, so a training loop
    allocates no array of its own.
    """

    def __init__(self, layer_sizes: tuple[int, ...], x: np.ndarray):
        m = x.shape[0]
        self.m = m
        self.theta = np.empty(_n_parameters(layer_sizes))
        self.grad = np.empty_like(self.theta)
        self.weights, self.biases = _layer_views(self.theta, layer_sizes)
        self.grad_w, self.grad_b = _layer_views(self.grad, layer_sizes)
        self.weights_t = [w.T for w in self.weights]
        hidden = layer_sizes[1:-1]
        # each hidden layer's activations: the pre-activation, rectified
        # in place
        self.acts = [np.empty((m, k)) for k in hidden]
        # 1.0/0.0 masks, so backprop applies them with a plain float multiply
        self.masks = [np.empty((m, k)) for k in hidden]
        self.inputs = [x, *self.acts]
        self.inputs_t = [a.T for a in self.inputs]
        # d loss / d pre-activation of each layer, the output layer's last
        self.deltas = [np.empty((m, k)) for k in layer_sizes[1:]]
        self.out = np.empty((m, layer_sizes[-1]))
        self.residual = np.empty(m)
        self.square = np.empty(m)
        # (m,) views of the single-output columns
        self.out_column = self.out[:, 0]
        self.delta_column = self.deltas[-1][:, 0]

    def forward(self) -> np.ndarray:
        """The (m,) outputs; fills each hidden layer's activations and its
        ReLU mask, 1.0 where ``a > 0`` and 0.0 elsewhere."""
        for a, w, b, h, mask in zip(self.inputs, self.weights, self.biases, self.acts, self.masks):
            np.matmul(a, w, out=h)
            h += b
            np.maximum(h, 0.0, out=h)
            np.greater(h, 0.0, out=mask)
        np.matmul(self.inputs[-1], self.weights[-1], out=self.out)
        self.out += self.biases[-1]
        return self.out_column

    def loss(self, targets: np.ndarray) -> float:
        """Mean squared error of a forward pass; leaves the residual."""
        np.subtract(self.forward(), targets, out=self.residual)
        # np.mean's own arithmetic: a pairwise sum, then one division
        return float(np.add.reduce(np.square(self.residual, out=self.square))) / self.m

    def backprop(self, targets: np.ndarray) -> float:
        """The loss, with its gradient written into ``grad``."""
        loss = self.loss(targets)
        deltas, masks = self.deltas, self.masks
        # d loss / d out
        np.multiply(self.residual, 2.0 / self.m, out=self.delta_column)
        for layer in range(len(deltas) - 1, -1, -1):
            delta = deltas[layer]
            np.matmul(self.inputs_t[layer], delta, out=self.grad_w[layer])
            np.add.reduce(delta, axis=0, out=self.grad_b[layer])
            if layer > 0:
                below = deltas[layer - 1]
                np.matmul(delta, self.weights_t[layer], out=below)
                # a multiply, not a masked store, so -0.0 and NaN keep their bits
                below *= masks[layer - 1]
        return loss


def _init_parameters(net: _Network, seed: int) -> None:
    """Uniform [-a, a] weights with a = sqrt(6 / (fan_in + fan_out)), drawn
    layer by layer; zero biases."""
    rng = np.random.default_rng(seed)
    for w, b in zip(net.weights, net.biases):
        fan_in, fan_out = w.shape
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-a, a, size=(fan_in, fan_out))
        b[...] = 0.0


def _mlp_forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Forward pass on already-standardized inputs; returns (m,) outputs."""
    layer_sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
    net = _Network(layer_sizes, np.ascontiguousarray(x, dtype=np.float64))
    for dst, src in zip(net.weights + net.biases, weights + biases):
        dst[...] = src
    return net.forward()


def train(
    corpus: RegressionCorpus,
    epochs: int = 5000,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> MlpRegressor:
    """Full-batch gradient descent on the corpus.

    Deterministic for a given seed. Raises ``TrainingDivergedError`` naming
    the epoch if the loss stops being finite. The parameters are one flat
    vector and each step is ``theta -= learning_rate * grad``.
    """
    if corpus.size < 1:
        raise ValueError("corpus is empty")
    feat_mean = corpus.features.mean(axis=0)
    feat_std = corpus.features.std(axis=0)
    feat_std = np.where(feat_std < 1e-12, 1.0, feat_std)
    x = (corpus.features - feat_mean) / feat_std
    net = _Network((corpus.d, *HIDDEN_SIZES, 1), x)
    _init_parameters(net, seed)
    targets, theta, grad = corpus.targets, net.theta, net.grad
    # a step size too large for the data overflows the activations to inf
    # and then NaN; the finite-loss checks report that as divergence, so
    # numpy's own overflow and invalid-value warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            if not math.isfinite(net.backprop(targets)):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            # the multiply, then the subtract, of w -= learning_rate * gw
            grad *= learning_rate
            theta -= grad
        final_loss = net.loss(targets)
    if not math.isfinite(final_loss):
        raise TrainingDivergedError(f"non-finite loss at epoch {epochs}")
    return MlpRegressor(
        weights=net.weights,
        biases=net.biases,
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
    out = float(_mlp_forward(model.weights, model.biases, x)[0])
    if model.offset_base is not None:
        out += model.offset_base
    return float(np.clip(out, 0.0, max_tau(model.spec, model.n_classes)))


# --- model file format (see FORMATS.md) ---


def _floats(values) -> str:
    return ",".join(format_float(v) for v in values)


def _optional(text: str) -> float | None:
    return None if text == "none" else float(text)


def save_model(model: MlpRegressor, path) -> None:
    """Write a model file. As for datasets, the bytes go to a new sibling
    file that then replaces ``path``, so a failed save leaves an existing
    file as it was."""
    with replacing(path) as fh:
        write_model(model, fh)


def write_model(model: MlpRegressor, fh) -> None:
    """The bytes of a model file, written to ``fh``, open for binary
    writing."""
    arrays = [arr for w, b in zip(model.weights, model.biases) for arr in (w, b)]
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
        "blob_bytes": 8 * sum(arr.size for arr in arrays),
    }
    fh.write(MODEL_MAGIC + b"\n" + format_kv(header).encode())
    for arr in arrays:
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
        flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        weights, biases = _layer_views(flat, layer_sizes)
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
