"""A two-feature binary model where miscoverage under shift is computable.

Labels are uniform on {-1, +1}. The invariant feature is drawn uniformly
from [gamma, c] on the label's side of the origin, so it always agrees with
the label; the spurious feature equals the label with probability p and its
negation otherwise. Source and target share everything except p.

A fixed logistic classifier ``f(x) = [sigma(-z), sigma(z)]`` with
``z = w_inv * x_inv + w_sp * x_sp`` scores each sample; index 0 is class
y = -1 and index 1 is class y = +1. The miscoverage event of a
top-score predictor at threshold tau is: the classifier is wrong AND its
top confidence reaches tau. The oracles are closed forms in the margin
y * z = w_inv * |x_inv| + w_sp * s, where s = y * x_sp is +1 with
probability p, else -1. With q the probability that s points the wrong
way (1 - p when w_sp > 0, else p), the error rate P[y * z < 0] is
q * clip((|w_sp| / w_inv - gamma) / (c - gamma), 0, 1). A ``tps``
threshold tau covers the rows with sigma(y * z) >= 1 - tau, a share of
1 - P[y * z < -logit(tau)]. The source miscoverage at the target
threshold of level alpha is beta = alpha * q_source / q_target, the
ground truth for the deviation bound

    |beta_qtc - beta| <= sqrt(2 * log(16 / delta) / (n * c_sp)),

where c_sp = q_target * q_source^2. :func:`oracle_beta` also checks that
alpha is reachable: it must lie below 0.9 of each error rate, or it
raises :class:`PreconditionError`. A trial only measures; its caller
judges it against beta and the bound, once per run (:func:`run_theorem_trial`).

Draws and scores are built in place: :func:`sample` holds three arrays of
n entries (y, x_inv, x_sp), and :func:`classify` writes into its (n, 2)
result and leaves the batch as it was. A logit that overflows to +-inf
is a saturated score, exactly 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import Calibrator, PredictorSpec
from .qtc import recalibrate
from .scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from .util import CodedError, derive_seed


class PreconditionError(CodedError, ValueError):
    """A requested level is unreachable for the given model configuration."""

    exit_code = 5


@dataclass(frozen=True)
class ToyModelParams:
    """Distribution parameters: invariant-feature support and spurious rate."""

    gamma: float
    c: float
    p: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < self.c and math.isfinite(self.c)):
            raise ValueError(f"need finite c > gamma >= 0, got gamma={self.gamma} c={self.c}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ToyClassifier:
    """Fixed logistic classifier weights over (x_inv, x_sp)."""

    w_inv: float
    w_sp: float

    def __post_init__(self):
        if not (math.isfinite(self.w_inv) and self.w_inv > 0.0):
            raise ValueError(f"w_inv must be finite and > 0, got {self.w_inv}")
        if not math.isfinite(self.w_sp) or self.w_sp == 0.0:
            raise ValueError(f"w_sp must be finite and nonzero, got {self.w_sp}")


@dataclass(frozen=True, eq=False)
class ToySampleBatch:
    """Sampled draws as parallel arrays; y is in {-1, +1}."""

    x_inv: np.ndarray
    x_sp: np.ndarray
    y: np.ndarray


def sample(params: ToyModelParams, n: int, seed: int) -> ToySampleBatch:
    """Draw n labeled samples from the model. ``default_rng(seed)`` gives
    the n labels, then the n invariant uniforms, then the n uniforms that
    decide agreement. A disagreeing spurious feature is the label times
    -1.0, which is exact."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y *= 2
    y -= 1
    x_inv = rng.uniform(params.gamma, params.c, size=n)
    x_inv *= y
    # the uniforms that decide agreement (u < p), then the feature, share
    # one buffer
    x_sp = rng.random(n)
    flip = x_sp >= params.p
    np.copyto(x_sp, y)
    x_sp *= np.where(flip, -1.0, 1.0)
    return ToySampleBatch(x_inv=x_inv, x_sp=x_sp, y=y)


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma(z) into ``out``, which does not overlap ``z``; ``z`` is
    overwritten. With e = exp(-|z|) this is 1/(1+e) for z >= 0 and
    e/(1+e) otherwise: the same bits as 1/(1+exp(-z)) and
    exp(z)/(1+exp(z)), since -z and z are then both exactly -|z|. Both
    branches are one unmasked divide. Its numerator is max(e, z >= 0),
    which is exactly 1 or e since e lies in [0, 1], and is written over e,
    so no temporary of n floats is made."""
    pos = z >= 0
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    denom = np.add(e, 1.0, out=out)
    return np.divide(np.maximum(e, pos, out=e), denom, out=out)


def classify(clf: ToyClassifier, batch: ToySampleBatch) -> np.ndarray:
    """(n, 2) score rows [P(y=-1), P(y=+1)] under the logistic classifier."""
    scores = np.empty((batch.x_inv.size, 2))
    # z is contiguous: some numpy versions take another exp kernel, with
    # other last bits, for a strided output
    # a huge finite weight or c overflows w_inv * x_inv to +-inf: a saturated
    # logit, whose sigmoid is exactly 0 or 1. No NaN can arise, since
    # w_sp * x_sp is finite, so the overflow is not an error.
    with np.errstate(over="ignore"):
        z = np.multiply(batch.x_inv, clf.w_inv)
        z += np.multiply(batch.x_sp, clf.w_sp, out=scores[:, 0])
    _sigmoid(z, out=scores[:, 1])
    np.subtract(1.0, scores[:, 1], out=scores[:, 0])
    return scores


def to_dataset(batch: ToySampleBatch, clf: ToyClassifier) -> LabeledDataset:
    """Score the batch and map labels y=-1 -> 0, y=+1 -> 1. The dataset
    takes over both fresh arrays instead of copying them."""
    scores = ScoreMatrix._adopt(classify(clf, batch))
    labels = batch.y + 1
    labels //= 2
    return LabeledDataset._adopt(scores, labels)


def _wrong_way_rate(params: ToyModelParams, clf: ToyClassifier) -> float:
    """P[the spurious feature points away from the label under clf's sign]."""
    return 1.0 - params.p if clf.w_sp > 0 else params.p


def _margin_cdf(params: ToyModelParams, clf: ToyClassifier, t: float) -> float:
    """P[y * z < t]: the CDF of the margin that the module docstring defines."""
    def below(x):
        return min(max((x / clf.w_inv - params.gamma) / (params.c - params.gamma), 0.0), 1.0)
    return params.p * below(t - clf.w_sp) + (1.0 - params.p) * below(t + clf.w_sp)


def classifier_error_rate(params: ToyModelParams, clf: ToyClassifier) -> float:
    """P[argmax f(x) != y]: the spurious feature points the wrong way and
    outweighs the invariant one, w_inv * |x_inv| < |w_sp|."""
    return _margin_cdf(params, clf, 0.0)


def oracle_beta(
    params_source: ToyModelParams,
    params_target: ToyModelParams,
    clf: ToyClassifier,
    alpha: float,
) -> float:
    """Source probability of the miscoverage event at the target threshold
    whose wrong-and-confident rate is alpha.

    A draw that is wrong has top confidence sigma(|w_sp| - w_inv * |x_inv|),
    so the event at threshold t has probability q * a((|w_sp| - logit t) /
    w_inv), where q is the wrong-way rate of :func:`_wrong_way_rate` and
    a(x) = clip((x - gamma) / (c - gamma), 0, 1). Setting it to alpha on
    the target gives beta = alpha * q_source / q_target while the clip is
    inactive, which the precondition ensures: alpha must lie below 0.9 of
    the error rate of the target and then of the source, or
    :class:`PreconditionError` is raised.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    for params, name in ((params_target, "target"), (params_source, "source")):
        eps = classifier_error_rate(params, clf)
        if alpha >= 0.9 * eps:
            raise PreconditionError(
                f"alpha={alpha:g} must be below 0.9 * {name} error rate {eps:g}"
            )
    return alpha * _wrong_way_rate(params_source, clf) / _wrong_way_rate(params_target, clf)


def spurious_mass(
    params_source: ToyModelParams, params_target: ToyModelParams, clf: ToyClassifier
) -> float:
    """The c_sp constant entering the deviation bound."""
    return _wrong_way_rate(params_target, clf) * _wrong_way_rate(params_source, clf) ** 2


def theorem_bound(
    params_source: ToyModelParams,
    params_target: ToyModelParams,
    clf: ToyClassifier,
    n: int,
    delta: float,
) -> float:
    """High-probability bound on |beta_qtc - beta| at sample size n."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    c_sp = spurious_mass(params_source, params_target, clf)
    if c_sp <= 0.0:
        return math.inf
    return math.sqrt(2.0 * math.log(16.0 / delta) / (n * c_sp))


@dataclass(frozen=True)
class TheoremTrialReport:
    """What one trial measures: the QTC estimate of beta and the exact
    target coverage of the threshold recalibrated with it."""

    beta_qtc: float
    achieved_target_coverage: float


def run_theorem_trial(
    params_source: ToyModelParams,
    params_target: ToyModelParams,
    clf: ToyClassifier,
    alpha: float,
    n: int,
    seed: int,
) -> TheoremTrialReport:
    """Draw fresh source/target sets of size n and estimate beta with QTC.

    Also recalibrates a top-score predictor on the source with the
    estimated beta and reports the exact target coverage of its threshold
    (1.0 for tau >= 1, 0.0 for tau <= 0). The caller judges the estimate
    against :func:`oracle_beta` (which also checks alpha against the error
    rates) and :func:`theorem_bound`, each computed once for all trials.
    """
    source_ds = to_dataset(sample(params_source, n, derive_seed(seed, "trial-source")), clf)
    # the target is unlabeled: no labels are built, and its draw is freed
    # once scored
    target_ds = UnlabeledDataset(
        ScoreMatrix._adopt(
            classify(clf, sample(params_target, n, derive_seed(seed, "trial-target")))
        )
    )
    calibrator = Calibrator(PredictorSpec("tps"), source_ds)
    threshold, est = recalibrate(calibrator, target_ds, alpha, "qtc")
    tau = threshold.tau
    if 0.0 < tau < 1.0:
        coverage = 1.0 - _margin_cdf(params_target, clf, math.log1p(-tau) - math.log(tau))
    else:
        coverage = float(tau >= 1.0)
    return TheoremTrialReport(beta_qtc=est.value, achieved_target_coverage=coverage)
