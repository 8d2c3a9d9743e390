"""A two-feature binary model where miscoverage under shift is computable.

Labels are uniform on {-1, +1}. The invariant feature is drawn uniformly
from [gamma, c] on the label's side of the origin, so it always agrees with
the label; the spurious feature equals the label with probability p and its
negation otherwise. Source and target share everything except p.

A fixed logistic classifier ``f(x) = [sigma(-z), sigma(z)]`` with
``z = w_inv * x_inv + w_sp * x_sp`` scores each sample; index 0 is class
y = -1 and index 1 is class y = +1. The miscoverage event of a
top-score predictor at threshold tau is: the classifier is wrong AND its
top confidence reaches tau. Monte Carlo oracles pin down the target
threshold tau_alpha and the induced source miscoverage beta, giving ground
truth for the deviation bound

    |beta_qtc - beta| <= sqrt(2 * log(16 / delta) / (n * c_sp)),

where c_sp = (1 - p_target) * (1 - p_source)^2 when w_sp > 0 and
c_sp = p_target * p_source^2 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import Calibrator, PredictorSpec, evaluate
from .qtc import recalibrate
from .scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from .util import ceil_count, derive_seed


class PreconditionError(ValueError):
    """A requested level is unreachable for the given model configuration."""


@dataclass(frozen=True)
class ToyModelParams:
    """Distribution parameters: invariant-feature support and spurious rate."""

    gamma: float
    c: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < self.c:
            raise ValueError(f"need c > gamma >= 0, got gamma={self.gamma} c={self.c}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ToyClassifier:
    """Fixed logistic classifier weights over (x_inv, x_sp)."""

    w_inv: float
    w_sp: float

    def __post_init__(self):
        if self.w_inv <= 0.0:
            raise ValueError(f"w_inv must be > 0, got {self.w_inv}")
        if self.w_sp == 0.0:
            raise ValueError("w_sp must be nonzero")


@dataclass(frozen=True, eq=False)
class ToySampleBatch:
    """Sampled draws as parallel arrays; y is in {-1, +1}."""

    x_inv: np.ndarray
    x_sp: np.ndarray
    y: np.ndarray


def sample(params: ToyModelParams, n: int, seed: int) -> ToySampleBatch:
    """Draw n labeled samples from the model."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n) * 2 - 1
    x_inv = y * rng.uniform(params.gamma, params.c, size=n)
    agree = rng.random(n) < params.p
    x_sp = np.where(agree, y, -y).astype(np.float64)
    return ToySampleBatch(x_inv=x_inv, x_sp=x_sp, y=y)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def classify(clf: ToyClassifier, batch: ToySampleBatch) -> np.ndarray:
    """(n, 2) score rows [P(y=-1), P(y=+1)] under the logistic classifier."""
    z = clf.w_inv * batch.x_inv + clf.w_sp * batch.x_sp
    p1 = _sigmoid(z)
    return np.column_stack([1.0 - p1, p1])


def to_dataset(batch: ToySampleBatch, clf: ToyClassifier) -> LabeledDataset:
    """Score the batch and map labels y=-1 -> 0, y=+1 -> 1."""
    return LabeledDataset(ScoreMatrix(classify(clf, batch)), (batch.y + 1) // 2)


def _mc_events(
    params: ToyModelParams, clf: ToyClassifier, n_mc: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(misclassified, top_confidence) arrays for a Monte Carlo draw."""
    batch = sample(params, n_mc, seed)
    z = clf.w_inv * batch.x_inv + clf.w_sp * batch.x_sp
    predicted = np.where(z > 0, 1, -1)
    miss = predicted != batch.y
    confidence = _sigmoid(np.abs(z))
    return miss, confidence


def classifier_error_rate(
    params: ToyModelParams, clf: ToyClassifier, n_mc: int = 10**6, seed: int = 0
) -> float:
    """Monte Carlo estimate of P[argmax f(x) != y]."""
    miss, _ = _mc_events(params, clf, n_mc, seed)
    return float(np.count_nonzero(miss) / n_mc)


def check_error_rates(
    params_source: ToyModelParams,
    params_target: ToyModelParams,
    clf: ToyClassifier,
    alpha: float,
    n_mc: int = 10**6,
    seed: int = 0,
) -> None:
    """Raise :class:`PreconditionError` unless alpha lies below 0.9 of the
    Monte Carlo error rate on both source and target (10% safety margin)."""
    for name, params in (("source", params_source), ("target", params_target)):
        eps = classifier_error_rate(params, clf, n_mc, derive_seed(seed, f"eps-{name}"))
        if alpha >= 0.9 * eps:
            raise PreconditionError(
                f"alpha={alpha:g} must be below 0.9 * estimated {name} error rate {eps:g}"
            )


def oracle_tau(
    params_target: ToyModelParams,
    clf: ToyClassifier,
    alpha: float,
    n_mc: int = 10**7,
    seed: int = 0,
) -> float:
    """Threshold at which the wrong-and-confident rate on the target is alpha.

    Monte Carlo realization: the ceil(alpha * n_mc)-th largest top
    confidence among misclassified draws. Requires alpha below 0.9 of
    the estimated error rate; as alpha approaches it, the threshold
    falls toward 1/2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    miss, confidence = _mc_events(params_target, clf, n_mc, seed)
    wrong_conf = confidence[miss]
    eps_hat = wrong_conf.size / n_mc
    # 10% safety margin on the Monte Carlo error-rate estimate
    if alpha >= 0.9 * eps_hat:
        raise PreconditionError(
            f"alpha={alpha:g} is not below 0.9 of the estimated error rate {eps_hat:g}"
        )
    k = max(1, ceil_count(alpha * n_mc))
    return float(np.partition(wrong_conf, wrong_conf.size - k)[wrong_conf.size - k])


def oracle_beta(
    params_source: ToyModelParams,
    params_target: ToyModelParams,
    clf: ToyClassifier,
    alpha: float,
    n_mc: int = 10**7,
    seed: int = 0,
) -> float:
    """Source probability of the miscoverage event at the target's oracle tau."""
    tau = oracle_tau(params_target, clf, alpha, n_mc, derive_seed(seed, "oracle-tau"))
    miss, confidence = _mc_events(
        params_source, clf, n_mc, derive_seed(seed, "oracle-beta")
    )
    return float(np.count_nonzero(miss & (confidence >= tau)) / n_mc)


def spurious_mass(
    params_source: ToyModelParams, params_target: ToyModelParams, clf: ToyClassifier
) -> float:
    """The c_sp constant entering the deviation bound."""
    if clf.w_sp > 0:
        return (1.0 - params_target.p) * (1.0 - params_source.p) ** 2
    return params_target.p * params_source.p**2


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
    """One finite-sample check of the deviation bound."""

    beta_true: float
    beta_qtc: float
    bound: float
    violated: bool
    achieved_target_coverage: float


def run_theorem_trial(
    params_source: ToyModelParams,
    params_target: ToyModelParams,
    clf: ToyClassifier,
    alpha: float,
    n: int,
    delta: float,
    seed: int,
    beta_oracle: float,
) -> TheoremTrialReport:
    """Draw fresh source/target sets of size n, estimate beta, check the
    bound against the ground-truth ``beta_oracle`` (from
    :func:`oracle_beta`, computed once for all trials).

    Also recalibrates a top-score predictor on the source with the
    estimated beta and reports its coverage on a fresh target evaluation
    set of size n. The caller checks alpha against the error rates once,
    with :func:`check_error_rates`.
    """
    source_ds = to_dataset(sample(params_source, n, derive_seed(seed, "trial-source")), clf)
    target_ds = UnlabeledDataset(
        to_dataset(sample(params_target, n, derive_seed(seed, "trial-target")), clf).scores
    )
    spec = PredictorSpec.tps()
    threshold, est = recalibrate(
        Calibrator(spec, source_ds, derive_seed(seed, "recal")), target_ds, alpha, "qtc"
    )
    bound = theorem_bound(params_source, params_target, clf, n, delta)
    eval_ds = to_dataset(sample(params_target, n, derive_seed(seed, "trial-eval")), clf)
    report = evaluate(spec, threshold, eval_ds, derive_seed(seed, "eval"))
    return TheoremTrialReport(
        beta_true=float(beta_oracle),
        beta_qtc=est.value,
        bound=bound,
        violated=bool(abs(est.value - beta_oracle) > bound),
        achieved_target_coverage=report.coverage,
    )

