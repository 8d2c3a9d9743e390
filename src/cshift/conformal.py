"""Split conformal prediction for classifier score matrices.

Three prediction-set constructions are provided:

* ``tps``: thresholds the true-class score; the set at level tau is every
  class with 1 - score <= tau.
* ``aps``: ranks classes by descending score and admits a class when the
  cumulative score mass strictly above it, plus ``u`` times its own score,
  stays within tau. The smoothing variable ``u`` is shared by all classes
  of a row.
* ``raps``: ``aps`` plus the penalty ``lam * max(0, r - k_reg)``, where
  ``r`` is the class's 0-based rank (the top class has r = 0). The first
  charged class is therefore the one ranked ``k_reg + 2`` counting from 1.
  RAPS as published (Angelopoulos et al., arXiv 2009.14193) writes
  ``lam * (o(y) - k_reg)^+`` with the 1-based rank ``o(y)``, which charges
  one class earlier; this module keeps the 0-based convention.

Calibration picks the smallest tau whose calibration-set coverage count
reaches ``ceil((1 - alpha) * (n + 1))``, realized as that order statistic of
the per-row conformity scores. When the required count exceeds n the
threshold saturates at the maximal tau and is flagged ``saturated``.

All randomness is counter-based: row i of a dataset always receives the
same smoothing uniform for a given seed, so results do not depend on
evaluation order.

Scores and evaluation run over row blocks (:func:`cshift.util.map_row_blocks`):
a matrix of more than ``util.BLOCK_ENTRIES`` entries is cut into blocks that run
on every CPU of the process's affinity mask and share that one budget, so
the working memory stays a few MB at any n and any CPU count. Each row is
computed on its own and each block writes only its own rows, so the results
are the same bits as one pass over the whole matrix, whatever the blocks.

When only label scores are wanted (:func:`conformity_scores`, and through
it calibration), a row whose label is its unique maximum is not sorted:
the label has rank 0, and the rank-0 entry depends on the label's value
alone, so :func:`_rank_entry_values` on that one value gives the same bits
as on the sorted row. A block gathers only its other rows, ties at the top
included, and sorts those; the gathered copy is at most one block.
Evaluation sorts every row, since set sizes need every rank. A ``tps``
set size is a count of the classes with ``1 - score <= tau``, taken with
:func:`cshift.util.row_reduce`, so a matrix of fewer than
``util.NARROW_COLUMNS`` classes counts column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scores import LabeledDataset
from .util import (
    EXTRACTORS,
    METHODS,
    CodedError,
    ceil_count,
    map_row_blocks,
    read_kv,
    reading,
    row_reduce,
    row_uniforms,
)

KINDS = ("tps", "aps", "raps")


class SaturationError(CodedError, RuntimeError):
    """An operation that requires an unsaturated threshold met a saturated one."""

    exit_code = 3


@dataclass(frozen=True)
class PredictorSpec:
    """Which set construction to use, with raps regularization knobs.

    ``lam`` and ``k_reg`` must be present exactly when ``kind == "raps"``.
    """

    kind: str
    lam: float | None = None
    k_reg: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "raps":
            if self.lam is None or self.k_reg is None:
                raise ValueError("raps requires lambda and kreg")
            if not (math.isfinite(self.lam) and self.lam >= 0):
                raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
            if self.k_reg < 0 or int(self.k_reg) != self.k_reg:
                raise ValueError(f"k_reg must be a non-negative integer, got {self.k_reg}")
            object.__setattr__(self, "k_reg", int(self.k_reg))
        elif self.lam is not None or self.k_reg is not None:
            raise ValueError(f"lambda/kreg are only valid with raps, not {self.kind}")

    def to_kv(self) -> dict:
        """The ``predictor``, ``lambda`` and ``kreg`` pairs of a threshold or
        model file (see FORMATS.md)."""
        if self.kind != "raps":
            return {"predictor": self.kind}
        return {"predictor": self.kind, "lambda": float(self.lam), "kreg": self.k_reg}

    @classmethod
    def from_kv(cls, kv: dict) -> "PredictorSpec":
        """Inverse of :meth:`to_kv`; a missing key raises ``KeyError``."""
        if kv["predictor"] == "raps":
            return cls("raps", float(kv["lambda"]), int(kv["kreg"]))
        return cls(kv["predictor"])


def max_tau(spec: PredictorSpec, n_classes: int) -> float:
    """Largest meaningful threshold: every prediction set is the full label set."""
    if spec.kind == "raps":
        return 1.0 + spec.lam * max(0, n_classes - spec.k_reg)
    return 1.0


@dataclass(frozen=True)
class Threshold:
    """A threshold, the miscoverage level alpha it aims at and the predictor
    whose conformity score it thresholds: a threshold file.

    ``method`` is what produced it: ``none``, a recalibration method or
    ``baseline-<extractor>``. ``beta`` is the source level that ``qtc`` and
    ``qtc-sc`` calibrated at, and None for every other method.
    ``saturated`` marks a calibration whose order statistic lies beyond n.
    """

    tau: float
    alpha: float
    spec: PredictorSpec
    method: str = "none"
    beta: float | None = None
    saturated: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")

    def to_kv(self) -> dict:
        """The pairs of a threshold file, in file order (see FORMATS.md)."""
        beta = {} if self.beta is None else {"beta": self.beta}
        rest = {"saturated": "true" if self.saturated else "false", "method": self.method}
        return {"tau": self.tau, "alpha": self.alpha} | beta | rest | self.spec.to_kv()


@dataclass(frozen=True)
class CoverageReport:
    """Evaluation summary: coverage plus prediction-set size statistics."""

    coverage: float
    avg_set_size: float
    median_set_size: float
    n_eval: int


def _check_applicable(spec: PredictorSpec, n_classes: int) -> None:
    if spec.kind == "raps" and spec.k_reg > n_classes:
        raise ValueError(f"k_reg={spec.k_reg} exceeds the class count {n_classes}")
    # every entry is at most max_tau, so no penalty overflows once it is finite
    if not math.isfinite(max_tau(spec, n_classes)):
        raise ValueError(f"lambda={spec.lam:g} overflows the raps penalty at {n_classes} classes")


def _descending(values: np.ndarray) -> np.ndarray:
    """Each row's values sorted in descending order, as a new array."""
    sorted_vals = -values
    sorted_vals.sort(axis=1)
    return np.negative(sorted_vals, out=sorted_vals)


def _rank_entry_values(spec: PredictorSpec, sorted_vals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-rank admission scores from the :func:`_descending` values, which
    this overwrites: entry (i, r) is the conformity score of the class
    ranked r in row i. Non-decreasing along each row.

    Only the sorted values are needed, not the permutation: tied classes
    have equal scores, so their order does not change any entry.
    """
    entry = np.cumsum(sorted_vals, axis=1)
    entry -= sorted_vals
    sorted_vals *= u[:, None]
    entry += sorted_vals
    if spec.kind == "raps":
        ranks = np.arange(sorted_vals.shape[1])
        entry += spec.lam * np.maximum(0, ranks - spec.k_reg)[None, :]
    return entry


def _label_ranks(values: np.ndarray, labels: np.ndarray, sorted_vals: np.ndarray) -> np.ndarray:
    """0-based descending rank of each row's label, ties to the lower class
    index: the classes with a higher score plus the equal ones before it.

    ``sorted_vals`` are the :func:`_descending` values. Position ``above``
    of a descending row holds the label's value, so the label's value
    occurs again exactly when position ``above + 1`` equals it; only those
    rows need the count of equal classes before the label.
    """
    rows, L = np.arange(values.shape[0]), values.shape[1]
    label_vals = values[rows, labels]
    ranks = np.count_nonzero(values > label_vals[:, None], axis=1)
    nxt = np.minimum(ranks + 1, L - 1)
    tied = np.flatnonzero((ranks + 1 < L) & (sorted_vals[rows, nxt] == label_vals))
    if tied.size:
        before = np.arange(L) < labels[tied, None]
        ranks[tied] += np.count_nonzero((values[tied] == label_vals[tied, None]) & before, axis=1)
    return ranks


def _ranked_entries(
    spec: PredictorSpec, values: np.ndarray, labels: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every row's :func:`_rank_entry_values` and its label's
    :func:`_label_ranks`, from one sort of the rows."""
    sorted_vals = _descending(values)
    ranks = _label_ranks(values, labels, sorted_vals)
    return _rank_entry_values(spec, sorted_vals, u), ranks


def _block_scores(
    spec: PredictorSpec,
    values: np.ndarray,
    labels: np.ndarray,
    u: np.ndarray | None,
    tau: float | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One row block: each row's label score and, when ``tau`` is given, its
    set size at tau. The block's full-size temporaries are freed on return."""
    rows = np.arange(values.shape[0])
    if spec.kind == "tps":
        label_scores = 1.0 - values[rows, labels]
        if tau is None:
            return label_scores, None
        return label_scores, row_reduce(np.add, 1.0 - values <= tau, dtype=np.intp)
    if tau is not None:
        entry, ranks = _ranked_entries(spec, values, labels, u)
        return entry[rows, ranks], np.count_nonzero(entry <= tau, axis=1)
    # A label that is its row's unique maximum has rank 0, and the rank-0
    # entry depends on that value alone, so only the other rows are sorted.
    label_vals = values[rows, labels]
    top = np.count_nonzero(values >= label_vals[:, None], axis=1) == 1
    label_scores = np.empty(rows.size)
    label_scores[top] = _rank_entry_values(spec, label_vals[top][:, None], u[top])[:, 0]
    rest = np.flatnonzero(~top)
    if rest.size:
        entry, ranks = _ranked_entries(spec, values[rest], labels[rest], u[rest])
        label_scores[rest] = entry[np.arange(rest.size), ranks]
    return label_scores, None


def _blocked_scores(
    spec: PredictorSpec,
    values: np.ndarray,
    labels: np.ndarray,
    u: np.ndarray | None,
    tau: float | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_block_scores` over the row blocks of the whole matrix."""
    n, L = values.shape
    label_scores = np.empty(n)
    sizes = None if tau is None else np.empty(n, dtype=np.intp)

    def block(rows):
        got, got_sizes = _block_scores(
            spec, values[rows], labels[rows], None if u is None else u[rows], tau
        )
        label_scores[rows] = got
        if sizes is not None:
            sizes[rows] = got_sizes

    map_row_blocks(block, n, L)
    return label_scores, sizes


def conformity_scores(
    spec: PredictorSpec,
    values: np.ndarray,
    labels: np.ndarray,
    u: np.ndarray | None,
) -> np.ndarray:
    """Conformity score of each row's given label: the smallest tau at which
    the label enters the prediction set."""
    _check_applicable(spec, values.shape[1])
    if spec.kind != "tps" and u is None:
        raise ValueError(f"{spec.kind} conformity scores require smoothing uniforms")
    return _blocked_scores(spec, values, labels, u, None)[0]


def prediction_set(spec: PredictorSpec, row: np.ndarray, u: float, tau: float) -> np.ndarray:
    """Class indices admitted at threshold tau, ascending.

    These are the labels l whose conformity score (:func:`conformity_scores`
    of this row with label l and uniform u) is at most tau; the result is a
    set of classes, returned as a sorted index array.
    """
    row = np.asarray(row, dtype=np.float64)
    _check_applicable(spec, row.shape[0])
    if spec.kind == "tps":
        return np.flatnonzero(1.0 - row <= tau)
    entry = _rank_entry_values(spec, _descending(row[None, :]), np.array([u]))[0]
    # stable on the negated scores, so ties rank the lower class index first
    order = np.argsort(-row, kind="stable")
    return np.sort(order[entry <= tau])


def _smoothing(spec: PredictorSpec, n: int, seed: int) -> np.ndarray | None:
    if spec.kind == "tps":
        return None
    return row_uniforms(seed, n)


class Calibrator:
    """Calibration scores of one labeled dataset, sorted once for any level.

    Conformity scores do not depend on alpha, so a grid of levels costs one
    score pass and then one index per level. The scores are computed at the
    first unsaturated level; saturated levels never compute them.
    """

    def __init__(self, spec: PredictorSpec, cal: LabeledDataset, seed: int = 0):
        _check_applicable(spec, cal.L)
        self.spec = spec
        self.cal = cal
        self.seed = seed
        self._sorted_scores: np.ndarray | None = None

    def threshold(self, alpha: float) -> Threshold:
        """The k-th smallest calibration conformity score with
        k = ceil((1 - alpha) * (n + 1)); if k > n the threshold saturates at
        the maximal tau for the predictor and is flagged ``saturated``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        spec, n = self.spec, self.cal.n
        k = max(1, ceil_count((1.0 - alpha) * (n + 1)))
        if k > n:
            return Threshold(tau=max_tau(spec, self.cal.L), alpha=alpha, spec=spec, saturated=True)
        if self._sorted_scores is None:
            u = _smoothing(spec, n, self.seed)
            # the fresh score array is sorted where it lies, without a copy
            scores = conformity_scores(spec, self.cal.scores.values, self.cal.labels, u)
            scores.sort()
            self._sorted_scores = scores
        return Threshold(tau=float(self._sorted_scores[k - 1]), alpha=alpha, spec=spec)


def calibrate(spec: PredictorSpec, cal: LabeledDataset, alpha: float, seed: int = 0) -> Threshold:
    """Calibrate a threshold at miscoverage level alpha; see
    :meth:`Calibrator.threshold`."""
    return Calibrator(spec, cal, seed).threshold(alpha)


def evaluate(threshold: Threshold, test: LabeledDataset, seed: int = 0) -> CoverageReport:
    """Coverage and set-size statistics of a threshold, under its own
    predictor, on a labeled test set.

    Deterministic for a given seed; rows are aggregated in index order.
    Coverage and set sizes come from one set of per-rank scores, so a row's
    label is covered exactly when it is in the row's counted set.
    """
    spec, tau = threshold.spec, threshold.tau
    values = test.scores.values
    n, L = values.shape
    _check_applicable(spec, L)
    label_scores, sizes = _blocked_scores(
        spec, values, test.labels, _smoothing(spec, n, seed), tau
    )
    covered = label_scores <= tau
    return CoverageReport(
        coverage=float(np.count_nonzero(covered) / n),
        avg_set_size=float(sizes.mean()),
        median_set_size=float(np.median(sizes)),
        n_eval=n,
    )


# --- key-value serialization (consumed by the CLI; see FORMATS.md) ---


def load_threshold(path) -> Threshold:
    """The threshold a file records, its predictor, method, beta and
    saturation included. ``method`` must be ``none``, a recalibration
    method or ``baseline-<extractor>``. Every error, a missing
    ``predictor`` included, names the file. A file without ``saturated``
    is not saturated, and keys it does not know (an older file's
    provenance line) are ignored."""
    kv = read_kv(path)
    with reading(path):
        saturated = kv.get("saturated", "false")
        if saturated not in ("true", "false"):
            raise ValueError(f"saturated must be true or false, got {saturated!r}")
        method = kv.get("method", "none")
        if method not in ("none", *METHODS, *(f"baseline-{e}" for e in EXTRACTORS)):
            raise ValueError(f"method must be none, one of {METHODS} or baseline-<extractor>, "
                             f"got {method!r}")
        return Threshold(
            tau=float(kv["tau"]),
            alpha=float(kv["alpha"]),
            spec=PredictorSpec.from_kv(kv),
            method=method,
            beta=float(kv["beta"]) if "beta" in kv else None,
            saturated=saturated == "true",
        )
