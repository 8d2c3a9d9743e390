"""Classifier score matrices and their on-disk formats.

A score matrix holds one probability row per example: ``values[i, l]`` is the
classifier's score for class ``l`` on example ``i``. Rows must sum to 1 within
an absolute tolerance of 1e-4 (float32 export wobble); accepted rows are
renormalized so the invariant holds to 1e-12. Datasets are immutable after
construction.

Two file formats are supported (see FORMATS.md):

* CSV with header ``label,c0,...,c{L-1}``; a label of -1 marks an unlabeled
  row. A file must be entirely labeled or entirely unlabeled.
* A little-endian binary container with magic ``CSHIFT01``.

Memory: a binary load reads the file once and uses that buffer as the
matrix without a copy, since its memory cannot change. A CSV table or a
caller's array is copied once, so a matrix never shares memory a caller can
write, and the caller's array stays writable. Labels follow the same rule.
Validation finds the minimum, the maximum and the row sums in one pass over
row blocks (:func:`cshift.util.map_row_blocks`, on every CPU of the
process's affinity mask for a large matrix), with the same bits as a
whole-matrix pass, and adds no full-size temporaries unless an entry lies
outside [0, 1].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .util import BLOCK_ENTRIES, ceil_count, format_float, map_row_blocks

ROW_SUM_TOL = 1e-4
ENTRY_TOL = 1e-4
RENORM_TOL = 1e-12

BINARY_MAGIC = b"CSHIFT01"


class DataFormatError(ValueError):
    """A score file or matrix violates the documented format."""


def _immutable(values: np.ndarray) -> bool:
    """True when the array's memory belongs to an immutable ``bytes`` object,
    as for ``np.frombuffer`` over a file read; such memory cannot change."""
    base = values
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


def _scan(values: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Minimum, maximum and row sums of ``values`` in one pass over its row
    blocks. A NaN anywhere makes both the minimum and the maximum NaN."""
    sums = np.empty(values.shape[0])

    def block(rows):
        part = values[rows]
        part.sum(axis=1, out=sums[rows])
        return part.min(), part.max()

    lows, highs = zip(*map_row_blocks(block, *values.shape, BLOCK_ENTRIES))
    # numpy's reductions propagate a NaN from any block; Python's min/max
    # would keep whichever value comes first
    return np.min(lows), np.max(highs), sums


def _validated_scores(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 2:
        raise DataFormatError(
            f"score matrix must be 2-D with at least 1 row and 2 classes, got shape {values.shape}"
        )
    # The result is C-contiguous and no caller can write it: anything but
    # an immutable C-contiguous buffer is copied once, before the scan.
    if not (_immutable(values) and values.flags.c_contiguous):
        values = np.array(values, order="C")
    # NaN fails both comparisons, so the scan's min/max picks the path; the
    # clip (which keeps -0.0) only runs when it would change an entry.
    low, high, sums = _scan(values)
    if not (low >= 0.0 and high <= 1.0):
        if not np.all(np.isfinite(values)):
            row = int(np.argwhere(~np.all(np.isfinite(values), axis=1))[0, 0]) + 1
            raise DataFormatError(f"non-finite score at row {row}")
        bad = (values < -ENTRY_TOL) | (values > 1.0 + ENTRY_TOL)
        if bad.any():
            row = int(np.argwhere(bad.any(axis=1))[0, 0]) + 1
            raise DataFormatError(f"score outside [0, 1] beyond tolerance at row {row}")
        out = values if values.flags.writeable else np.empty(values.shape)
        values = np.clip(values, 0.0, 1.0, out=out)
        sums = values.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    if off.any():
        row = int(np.argmax(off)) + 1
        raise DataFormatError(
            f"row sum {sums[row - 1]:g} exceeds tolerance at row {row}"
        )
    # Renormalize only rows outside the strict tolerance so that matrices
    # which already satisfy it round-trip bit-exactly.
    loose = np.abs(sums - 1.0) > RENORM_TOL
    if loose.any():
        if not values.flags.writeable:
            values = values.copy()
        values[loose] /= sums[loose, None]
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Immutable (n, L) matrix of per-class scores with unit row sums."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_scores(self.values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def L(self) -> int:
        return self.values.shape[1]

    @cached_property
    def sorted_top(self) -> np.ndarray:
        """Row maxima (top confidences) in ascending order, read-only;
        computed once per matrix."""
        top = np.sort(self.values.max(axis=1))
        top.setflags(write=False)
        return top


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Score matrix plus one true class label per row."""

    scores: ScoreMatrix
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != self.scores.n:
            raise DataFormatError(
                f"labels must be 1-D of length {self.scores.n}, got shape {labels.shape}"
            )
        bad = (labels < 0) | (labels >= self.scores.L)
        if bad.any():
            row = int(np.argmax(bad)) + 1
            raise DataFormatError(
                f"label {labels[row - 1]} outside [0, {self.scores.L - 1}] at row {row}"
            )
        # as for scores: a binary load's immutable buffer is kept, anything
        # else is copied once, so the caller's array stays writable
        if not (_immutable(labels) and labels.flags.c_contiguous):
            labels = np.array(labels, order="C")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.scores.n

    @property
    def L(self) -> int:
        return self.scores.L


@dataclass(frozen=True, eq=False)
class UnlabeledDataset:
    """Score matrix without labels (e.g. scores on a shifted target)."""

    scores: ScoreMatrix

    @property
    def n(self) -> int:
        return self.scores.n

    @property
    def L(self) -> int:
        return self.scores.L


Dataset = LabeledDataset | UnlabeledDataset


def _sniff_format(path: Path) -> str:
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(BINARY_MAGIC))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    return "binary" if head == BINARY_MAGIC else "csv"


def load_dataset(path, format: str | None = None) -> Dataset:
    """Load a dataset from ``path``.

    Parameters
    ----------
    path : str or Path
        File to read.
    format : {"csv", "binary", None}
        ``None`` sniffs the binary magic and falls back to CSV.

    Returns
    -------
    LabeledDataset or UnlabeledDataset
        Labeled when the file carries labels; a CSV whose label column is
        all -1 loads as unlabeled. Mixing labeled and unlabeled rows in one
        CSV is an error.
    """
    path = Path(path)
    if format is None:
        format = _sniff_format(path)
    if format == "csv":
        return _load_csv(path)
    if format == "binary":
        return _load_binary(path)
    raise DataFormatError(f"unknown format {format!r}")


def _load_csv(path: Path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "label" or cols[1:] != [f"c{i}" for i in range(len(cols) - 1)]:
            raise DataFormatError(
                f"bad CSV header {header!r}: expected label,c0,...,c{{L-1}}"
            )
        L = len(cols) - 1
        try:
            table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"unparseable CSV body in {path}: {exc}") from exc
    if table.size == 0:
        raise DataFormatError(f"{path} has no data rows")
    if table.shape[1] != L + 1:
        raise DataFormatError(
            f"expected {L + 1} columns, found {table.shape[1]} at row 1"
        )
    raw_labels = table[:, 0]
    if not np.all(raw_labels == np.floor(raw_labels)):
        row = int(np.argmax(raw_labels != np.floor(raw_labels))) + 1
        raise DataFormatError(f"non-integer label at row {row}")
    labels = raw_labels.astype(np.int64)
    scores = ScoreMatrix(table[:, 1:])
    unlabeled = labels == -1
    if unlabeled.all():
        return UnlabeledDataset(scores)
    if unlabeled.any():
        row = int(np.argmax(unlabeled)) + 1
        raise DataFormatError(
            f"mixed labeled and unlabeled rows: first unlabeled at row {row}"
        )
    return LabeledDataset(scores, labels)


def _load_binary(path: Path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_fmt = "<8sQQB"
    head_size = struct.calcsize(head_fmt)
    if len(blob) < head_size:
        raise DataFormatError(f"{path} too short for binary header")
    magic, n, L, has_labels = struct.unpack_from(head_fmt, blob)
    if magic != BINARY_MAGIC:
        raise DataFormatError(f"bad magic {magic!r} in {path}")
    if has_labels not in (0, 1):
        raise DataFormatError(f"bad has_labels byte {has_labels} in {path}")
    need = head_size + 8 * n * L + (8 * n if has_labels else 0)
    if len(blob) != need:
        raise DataFormatError(
            f"{path} has {len(blob)} bytes, expected {need} for n={n} L={L}"
        )
    values = np.frombuffer(
        blob, dtype="<f8", count=n * L, offset=head_size
    ).reshape(n, L)
    scores = ScoreMatrix(values)
    if not has_labels:
        return UnlabeledDataset(scores)
    labels = np.frombuffer(blob, dtype="<i8", count=n, offset=head_size + 8 * n * L)
    return LabeledDataset(scores, labels)


def save_dataset(dataset: Dataset, path, format: str | None = None) -> None:
    """Write ``dataset`` to ``path`` in CSV or binary form.

    ``format=None`` picks binary for a ``.bin`` suffix and CSV otherwise.
    Binary round-trips bit-exactly; CSV round-trips within 1e-12.
    """
    path = Path(path)
    if format is None:
        format = "binary" if path.suffix == ".bin" else "csv"
    if format == "csv":
        _save_csv(dataset, path)
    elif format == "binary":
        _save_binary(dataset, path)
    else:
        raise DataFormatError(f"unknown format {format!r}")


def _save_csv(dataset: Dataset, path: Path) -> None:
    values = dataset.scores.values
    labels = (
        dataset.labels
        if isinstance(dataset, LabeledDataset)
        else np.full(dataset.n, -1, dtype=np.int64)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"c{i}" for i in range(dataset.L)) + "\n")
        for i in range(dataset.n):
            fh.write(str(labels[i]) + "," + ",".join(format_float(v) for v in values[i]) + "\n")


def _save_binary(dataset: Dataset, path: Path) -> None:
    has_labels = isinstance(dataset, LabeledDataset)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sQQB", BINARY_MAGIC, dataset.n, dataset.L, int(has_labels)))
        fh.write(np.ascontiguousarray(dataset.scores.values, dtype="<f8").tobytes())
        if has_labels:
            fh.write(np.ascontiguousarray(dataset.labels, dtype="<i8").tobytes())


def split(dataset: LabeledDataset, fraction: float, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic uniform partition into two non-empty labeled parts.

    The first part receives ``ceil(fraction * n)`` rows. Raises
    ``ValueError`` when either part would be empty.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n = dataset.n
    k = ceil_count(fraction * n)
    if k < 1 or n - k < 1:
        raise ValueError(
            f"split of {n} rows at fraction {fraction} leaves an empty part"
        )
    perm = np.random.default_rng(seed).permutation(n)
    first = np.sort(perm[:k])
    second = np.sort(perm[k:])
    return (
        LabeledDataset(ScoreMatrix(dataset.scores.values[first]), dataset.labels[first]),
        LabeledDataset(ScoreMatrix(dataset.scores.values[second]), dataset.labels[second]),
    )
