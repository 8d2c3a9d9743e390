"""Recalibrating a conformal predictor for a shifted target distribution.

Given labeled source scores and unlabeled target scores, the estimators here
translate a desired target miscoverage level alpha into a level beta to
calibrate at on the source (``qtc``, ``qtc-sc``) or directly into a
threshold (``qtc-st``). All three work from top confidences only: the
maximum score of each row. They read them sorted, from
:attr:`~cshift.scores.ScoreMatrix.sorted_top`, which each matrix computes
once however many levels a grid asks for.

Quantiles are order statistics: the level-c quantile of a dataset is its
``ceil(c * n)``-th smallest top confidence, and all comparisons against a
quantile are strict (``<``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .conformal import Calibrator, SaturationError, Threshold, max_tau
from .scores import Dataset
from .util import ceil_count, format_float, row_reduce

METHODS = ("qtc", "qtc-sc", "qtc-st")


@dataclass(frozen=True)
class QtcEstimate:
    """Output of one estimator: a beta for qtc/qtc-sc, a tau for qtc-st.

    ``q_threshold`` is the confidence quantile the estimate was computed
    against; it is always an attained top confidence of the dataset it was
    taken from.
    """

    method: str
    q_threshold: float
    value: float
    alpha: float

    def to_kv(self) -> dict:
        """The pairs of a ``.qtc`` sidecar, in file order (see FORMATS.md)."""
        return {
            "method": self.method,
            "q": self.q_threshold,
            "value": self.value,
            "alpha": self.alpha,
        }


def top_confidences(data: Dataset) -> np.ndarray:
    """Top confidence of every row of a dataset, in row order."""
    return row_reduce(np.maximum, data.scores.values)


def _count_below(data: Dataset, q: float) -> int:
    """Rows whose top confidence is strictly below q. Validated scores hold
    no NaN, so this equals ``count_nonzero(top_confidences(data) < q)``."""
    return int(np.searchsorted(data.scores.sorted_top, q, side="left"))


def quantile_q(data: Dataset, c: float) -> float:
    """Level-c confidence quantile of a dataset: the ceil(c * n)-th smallest
    top confidence.

    ``c`` must lie in [0, 1]. Levels below 1/n, 0 included, fall back to the
    first order statistic with a warning.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {c}")
    s = data.scores.sorted_top
    n = s.size
    if c * n < 1.0 - 1e-9:
        warnings.warn(
            f"quantile level {c:g} is below 1/n for n={n}; using the first order statistic",
            stacklevel=2,
        )
    k = max(1, ceil_count(c * n))
    return float(s[k - 1])


def _check_compatible(source: Dataset, target: Dataset) -> None:
    if source.L != target.L:
        raise ValueError(
            f"source has {source.L} classes but target has {target.L}"
        )


def estimate_beta_qtc(source_cal: Dataset, target: Dataset, alpha: float) -> QtcEstimate:
    """Estimate the source-calibration level matching target miscoverage alpha.

    Takes the level-alpha confidence quantile on the target, then measures
    the fraction of source rows whose top confidence falls strictly below
    it. Labels are never consulted.
    """
    _check_compatible(source_cal, target)
    q = quantile_q(target, alpha)
    count = _count_below(source_cal, q)
    return QtcEstimate(method="qtc", q_threshold=q, value=count / source_cal.n, alpha=alpha)


def estimate_beta_qtc_sc(source_cal: Dataset, target: Dataset, alpha: float) -> QtcEstimate:
    """Source-calibrated variant: the quantile is taken on the source.

    The level-(1 - alpha) confidence quantile of the source is measured
    against the target: beta is one minus the fraction of target rows
    strictly below it. Labels are never consulted.
    """
    _check_compatible(source_cal, target)
    q = quantile_q(source_cal, 1.0 - alpha)
    below = _count_below(target, q)
    return QtcEstimate(
        method="qtc-sc",
        q_threshold=q,
        value=(target.n - below) / target.n,
        alpha=alpha,
    )


def estimate_tau_qtc_st(source: Calibrator, target: Dataset, alpha: float) -> QtcEstimate:
    """Self-trained variant: shift the calibrated threshold itself.

    The source threshold tau at alpha is read as a quantile level (for raps,
    divided by the maximal tau so it lands in [0, 1]), translated through
    the source confidence quantile, and re-measured on the target; the raps
    scale factor is applied back to the result. Saturated source
    calibrations are rejected: the shifted threshold is undefined there.
    """
    _check_compatible(source.cal, target)
    base = source.threshold(alpha)
    if base.is_saturated:
        raise SaturationError(
            f"source threshold saturated at tau={base.tau:g}; qtc-st is undefined"
        )
    scale = max_tau(source.spec, source.cal.L)
    q = quantile_q(source.cal, base.tau / scale)
    below = _count_below(target, q)
    return QtcEstimate(
        method="qtc-st",
        q_threshold=q,
        value=scale * (below / target.n),
        alpha=alpha,
    )


def recalibrate(
    source: Calibrator, target: Dataset, alpha: float, method: str = "qtc"
) -> tuple[Threshold, QtcEstimate]:
    """Produce a threshold aimed at miscoverage alpha on the target, and the
    estimate it was derived from.

    ``qtc`` and ``qtc-sc`` estimate a level beta, clamp it to
    [1/(n+1), 1 - 1/(n+1)] so the follow-up calibration cannot saturate,
    and calibrate on the source at beta. ``qtc-st`` returns the shifted
    threshold directly, with alpha recorded for provenance. The threshold
    carries the calibrator's predictor and ``method``. One
    :class:`~cshift.conformal.Calibrator` serves any number of levels.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "qtc-st":
        est = estimate_tau_qtc_st(source, target, alpha)
        tag = f"recalibrate:qtc-st:alpha={format_float(alpha)}"
        return Threshold(est.value, alpha, spec=source.spec, source_tag=tag, method=method), est
    if method == "qtc":
        est = estimate_beta_qtc(source.cal, target, alpha)
    else:
        est = estimate_beta_qtc_sc(source.cal, target, alpha)
    n = source.cal.n
    lo = 1.0 / (n + 1)
    beta = min(max(est.value, lo), 1.0 - lo)
    base = source.threshold(beta)
    tag = (
        f"recalibrate:{method}:alpha={format_float(alpha)}"
        f":beta={format_float(beta)}:{base.source_tag}"
    )
    return replace(base, source_tag=tag, method=method), est

