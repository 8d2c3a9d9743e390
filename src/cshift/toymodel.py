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
c_sp = p_target * p_source^2 otherwise. The oracles also check that alpha
is reachable: it must lie below 0.9 of the error rate of each of their
draws, or they raise :class:`PreconditionError`.

Draws and scores are built in place: :func:`sample` holds three arrays of
n entries (y, x_inv, x_sp), and :func:`classify` writes into its (n, 2)
result and leaves the batch as it was. An oracle draws its n_mc draws in
chunks of 2^16 (``util.BLOCK_ENTRIES // 4``) and consumes each in place:
the logit overwrites x_inv, and only the misclassified draws get a top
confidence. It keeps running counts, and ``oracle_tau`` the confidences
of the misclassified draws, so it holds about 2 MB plus 8 bytes per
misclassified draw at any n_mc. The chunks read the one random stream of
:func:`sample`, and the float operations are those of the direct
formulas, so every value keeps its bits. A logit that overflows to +-inf
is a saturated score, exactly 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import Calibrator, PredictorSpec, evaluate
from .qtc import recalibrate
from .scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from .util import BLOCK_ENTRIES, ceil_count, derive_seed


# Draws per oracle chunk, read at each call. A chunk's label, two features
# and masks take about 4 x 8 bytes a draw, so a chunk holds about
# util.BLOCK_ENTRIES entries, 2 MB.
_MC_CHUNK = BLOCK_ENTRIES // 4


class PreconditionError(ValueError):
    """A requested level is unreachable for the given model configuration."""


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


def _draws(params: ToyModelParams, n: int, seed: int, chunk: int):
    """Batches of at most ``chunk`` draws that concatenate to the n draws
    of :func:`sample`.

    ``default_rng(seed)`` gives the n labels, then the n invariant
    uniforms, then the n agreement uniforms. ``integers(0, 2)`` takes one
    32-bit half of a 64-bit output per label, so the uniforms start at
    outputs (n + 1) // 2 and (n + 1) // 2 + n; a second and a third
    generator advanced there read those parts chunk by chunk."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labels, uniforms, agreement = (np.random.default_rng(seed) for _ in range(3))
    uniforms.bit_generator.advance((n + 1) // 2)
    agreement.bit_generator.advance((n + 1) // 2 + n)
    for start in range(0, n, chunk):
        yield _draw(params, labels, uniforms, agreement, min(chunk, n - start))


def _draw(params, labels, uniforms, agreement, m: int) -> ToySampleBatch:
    """The next m draws of each of the three streams of :func:`_draws`; a
    function of its own, so that a suspended :func:`_draws` holds no chunk."""
    y = labels.integers(0, 2, size=m)
    y *= 2
    y -= 1
    x_inv = uniforms.uniform(params.gamma, params.c, size=m)
    x_inv *= y
    # the uniforms that decide agreement (u < p), then the feature, share
    # one buffer
    x_sp = agreement.random(m)
    flip = x_sp >= params.p
    np.copyto(x_sp, y)
    np.negative(x_sp, out=x_sp, where=flip)
    return ToySampleBatch(x_inv=x_inv, x_sp=x_sp, y=y)


def sample(params: ToyModelParams, n: int, seed: int) -> ToySampleBatch:
    """Draw n labeled samples from the model: :func:`_draws` in one chunk."""
    return next(_draws(params, n, seed, n))


def _logit(
    clf: ToyClassifier, batch: ToySampleBatch, out: np.ndarray, spare: np.ndarray
) -> np.ndarray:
    """z = w_inv * x_inv + w_sp * x_sp into ``out``; ``spare`` receives
    w_sp * x_sp. Either may be the batch's own array of that feature."""
    # a huge finite weight or c overflows w_inv * x_inv to +-inf: a saturated
    # logit, whose sigmoid is exactly 0 or 1. No NaN can arise, since
    # w_sp * x_sp is finite, so the overflow is not an error.
    with np.errstate(over="ignore"):
        np.multiply(batch.x_inv, clf.w_inv, out=out)
        return np.add(out, np.multiply(batch.x_sp, clf.w_sp, out=spare), out=out)


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma(z) into ``out``, which is ``z`` itself or does not overlap it;
    ``z`` is overwritten. With e = exp(-|z|) this is 1/(1+e) for z >= 0
    and e/(1+e) otherwise: the same bits as 1/(1+exp(-z)) and
    exp(z)/(1+exp(z)), since -z and z are then both exactly -|z|."""
    pos = z >= 0
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    denom = np.add(e, 1.0, out=None if out is z else out)
    np.divide(1.0, denom, out=out, where=pos)
    np.divide(e, denom, out=out, where=np.logical_not(pos, out=pos))
    return out


def classify(clf: ToyClassifier, batch: ToySampleBatch) -> np.ndarray:
    """(n, 2) score rows [P(y=-1), P(y=+1)] under the logistic classifier."""
    scores = np.empty((batch.x_inv.size, 2))
    # z is contiguous: some numpy versions take another exp kernel, with
    # other last bits, for a strided output
    z = _logit(clf, batch, np.empty(batch.x_inv.size), scores[:, 0])
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


def _wrong_confidences(params: ToyModelParams, clf: ToyClassifier, n_mc: int, seed: int):
    """For each chunk of :data:`_MC_CHUNK` draws of a Monte Carlo draw,
    the top confidences of its misclassified draws, in draw order.

    The chunks are private, so each is consumed in place, its logit going
    into its x_inv buffer; only the misclassified draws are scored."""
    for batch in _draws(params, n_mc, seed, _MC_CHUNK):
        z = _logit(clf, batch, batch.x_inv, batch.x_sp)
        # the prediction is +1 exactly where z > 0
        wrong = z[(z > 0) != (batch.y > 0)]
        del batch, z
        yield _sigmoid(np.abs(wrong, out=wrong), out=wrong)


def classifier_error_rate(
    params: ToyModelParams, clf: ToyClassifier, n_mc: int = 10**6, seed: int = 0
) -> float:
    """Monte Carlo estimate of P[argmax f(x) != y]."""
    wrong = sum(conf.size for conf in _wrong_confidences(params, clf, n_mc, seed))
    return float(wrong / n_mc)


def _check_error_rate(alpha: float, wrong: int, n: int, name: str) -> None:
    """Raise :class:`PreconditionError` unless alpha lies below 0.9 of the
    error rate ``wrong / n`` of a Monte Carlo draw (10% safety margin on
    the estimate)."""
    eps = wrong / n
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
    the draw's error rate; as alpha approaches it, the threshold falls
    toward 1/2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    wrong_conf = np.empty(0)
    for conf in _wrong_confidences(params_target, clf, n_mc, seed):
        held = wrong_conf.size
        # grows by realloc, not by joining a list of chunk arrays, which
        # would hold every confidence twice
        wrong_conf.resize(held + conf.size, refcheck=False)
        wrong_conf[held:] = conf
    _check_error_rate(alpha, wrong_conf.size, n_mc, "target")
    k = max(1, ceil_count(alpha * n_mc))
    wrong_conf.partition(wrong_conf.size - k)
    return float(wrong_conf[wrong_conf.size - k])


def oracle_beta(
    params_source: ToyModelParams,
    params_target: ToyModelParams,
    clf: ToyClassifier,
    alpha: float,
    n_mc: int = 10**7,
    seed: int = 0,
) -> float:
    """Source probability of the miscoverage event at the target's oracle tau.

    Raises :class:`PreconditionError` unless alpha lies below 0.9 of the
    error rate of the target draw and then of the source draw.
    """
    tau = oracle_tau(params_target, clf, alpha, n_mc, derive_seed(seed, "oracle-tau"))
    wrong = confident = 0
    for conf in _wrong_confidences(params_source, clf, n_mc, derive_seed(seed, "oracle-beta")):
        wrong += conf.size
        confident += np.count_nonzero(conf >= tau)
    _check_error_rate(alpha, wrong, n_mc, "source")
    return float(confident / n_mc)


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
    set of size n. The caller checks alpha against the error rates once:
    :func:`oracle_beta` does so on its own draws.
    """
    source_ds = to_dataset(sample(params_source, n, derive_seed(seed, "trial-source")), clf)
    # the target is unlabeled: no labels are built, and its draw is freed
    # once scored
    target_ds = UnlabeledDataset(
        ScoreMatrix._adopt(
            classify(clf, sample(params_target, n, derive_seed(seed, "trial-target")))
        )
    )
    calibrator = Calibrator(PredictorSpec.tps(), source_ds, derive_seed(seed, "recal"))
    threshold, est = recalibrate(calibrator, target_ds, alpha, "qtc")
    # only the threshold and the estimate are used from here on: free the
    # source and target sets before the evaluation set is drawn
    del source_ds, target_ds, calibrator
    bound = theorem_bound(params_source, params_target, clf, n, delta)
    eval_ds = to_dataset(sample(params_target, n, derive_seed(seed, "trial-eval")), clf)
    report = evaluate(threshold, eval_ds, derive_seed(seed, "eval"))
    return TheoremTrialReport(
        beta_true=float(beta_oracle),
        beta_qtc=est.value,
        bound=bound,
        violated=bool(abs(est.value - beta_oracle) > bound),
        achieved_target_coverage=report.coverage,
    )

