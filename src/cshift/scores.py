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

Memory: a caller's array is copied once, into a C-ordered float64 matrix
(int64 labels), so a matrix never shares memory with a caller. An array
that the library has just built for a dataset (``ScoreMatrix._adopt``,
``LabeledDataset._adopt``) is validated the same way and kept as it is
when it already has that layout and dtype. A binary load maps the file
read-only and adopts two views of the mapping as the matrix and the
labels. :func:`save_dataset` never rewrites a file in place: it writes a
sibling file and renames it over the destination, so a live dataset keeps
the old file's bytes. Another program must not rewrite a binary file in
place while a dataset maps it: a truncated mapping kills the process with
SIGBUS, and changed bytes change the matrix. Each live binary dataset
holds one file descriptor, that of its mapping. A CSV load adopts its own
table: the labels are taken out of the parsed ``(n, L + 1)`` table, the
score columns are moved to the front of the table's buffer, and that
buffer becomes the matrix, so the load holds the matrix about once. A
CSV save formats about :data:`CSV_BLOCK_ENTRIES` entries at a time, so
its memory does not grow with the dataset.
Validation finds the minimum, the maximum, the row sums and the largest
row-sum deviation in one pass over row blocks, and again after a clip
(:func:`cshift.util.map_row_blocks`, on every CPU of the process's
affinity mask for a large matrix), with the same bits as a whole-matrix
pass, and adds no full-size temporaries unless an entry lies outside
[0, 1] or a row sum is off by more than 1e-12. The row sums, and the row
maxima of :attr:`ScoreMatrix.sorted_top`, go through
:func:`cshift.util.row_reduce`, which reduces a matrix of fewer than
``util.NARROW_COLUMNS`` columns column by column, with numpy's bits.
"""

from __future__ import annotations

import mmap
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from . import util
from .util import format_float, map_row_blocks, replacing

ROW_SUM_TOL = 1e-4
ENTRY_TOL = 1e-4
RENORM_TOL = 1e-12

BINARY_MAGIC = b"CSHIFT01"

# Entries formatted per write of a CSV body, read at each save. The text of
# one block is all that a save adds to the process's memory.
CSV_BLOCK_ENTRIES = 1024


class DataFormatError(ValueError):
    """A score file or matrix violates the documented format."""


def _scan(values: np.ndarray) -> tuple[float, float, np.ndarray, float]:
    """Minimum, maximum, row sums and largest ``|row sum - 1|`` of
    ``values`` in one pass over its row blocks. A NaN anywhere makes both
    the minimum and the maximum NaN."""
    sums = np.empty(values.shape[0])

    def block(rows):
        part = values[rows]
        part_sums = util.row_reduce(np.add, part, out=sums[rows])
        return part.min(), part.max(), np.abs(part_sums - 1.0).max()

    lows, highs, offs = zip(*map_row_blocks(block, *values.shape))
    # numpy's reductions propagate a NaN from any block; Python's min/max
    # would keep whichever value comes first
    return np.min(lows), np.max(highs), sums, np.max(offs)


def _validated_scores(values: np.ndarray, adopt: bool = False) -> np.ndarray:
    # a caller's array is copied once; an adopted one is kept when it is
    # already C-ordered float64
    values = (np.asarray if adopt else np.array)(values, dtype=np.float64, order="C")
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 2:
        raise DataFormatError(
            f"score matrix must be 2-D with at least 1 row and 2 classes, got shape {values.shape}"
        )
    # NaN fails both comparisons, so the scan's min/max picks the path; the
    # clip (which keeps -0.0) only runs when it would change an entry.
    low, high, sums, worst = _scan(values)
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
        _, _, sums, worst = _scan(values)
    # Row deviations are only materialized when some row is off by more
    # than the strict tolerance. Only those rows are renormalized, so
    # matrices which already satisfy it round-trip bit-exactly.
    if worst > RENORM_TOL:
        deviation = np.abs(sums - 1.0)
        off = deviation > ROW_SUM_TOL
        if off.any():
            row = int(np.argmax(off)) + 1
            raise DataFormatError(
                f"row sum {sums[row - 1]:g} exceeds tolerance at row {row}"
            )
        loose = deviation > RENORM_TOL
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

    @classmethod
    def _adopt(cls, values: np.ndarray) -> ScoreMatrix:
        """A matrix over ``values``, an array that the library has just
        built and no one else holds: validated like any other, and kept
        without a copy when it is C-ordered float64. ``values`` becomes
        read-only."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "values", _validated_scores(values, adopt=True))
        return matrix

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
        top = util.row_reduce(np.maximum, self.values)
        top.sort()
        top.setflags(write=False)
        return top


def _validated_labels(labels: np.ndarray, scores: ScoreMatrix, adopt: bool = False) -> np.ndarray:
    # as for scores
    labels = (np.asarray if adopt else np.array)(labels, dtype=np.int64, order="C")
    if labels.ndim != 1 or labels.shape[0] != scores.n:
        raise DataFormatError(
            f"labels must be 1-D of length {scores.n}, got shape {labels.shape}"
        )
    bad = (labels < 0) | (labels >= scores.L)
    if bad.any():
        row = int(np.argmax(bad)) + 1
        raise DataFormatError(
            f"label {labels[row - 1]} outside [0, {scores.L - 1}] at row {row}"
        )
    labels.setflags(write=False)
    return labels


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Score matrix plus one true class label per row."""

    scores: ScoreMatrix
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _validated_labels(self.labels, self.scores))

    @classmethod
    def _adopt(cls, scores: ScoreMatrix, labels: np.ndarray) -> LabeledDataset:
        """A dataset over ``labels``, an array that the library has just
        built and no one else holds: validated like any other, and kept
        without a copy when it is C-ordered int64. ``labels`` becomes
        read-only."""
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "scores", scores)
        object.__setattr__(dataset, "labels", _validated_labels(labels, scores, adopt=True))
        return dataset

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


def load_dataset(path) -> Dataset:
    """Load a dataset from ``path``: binary when the file starts with the
    binary magic, CSV otherwise.

    Labeled when the file carries labels; a CSV whose label column is all
    -1 loads as unlabeled. Mixing labeled and unlabeled rows in one CSV is
    an error. Every format error, a byte that is not UTF-8 in a CSV
    included, raises :class:`DataFormatError` with a message that starts
    with ``<path>: ``.
    """
    try:
        with open(path, "rb") as fh:
            binary = fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        return _load_binary(path) if binary else _load_csv(path)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # DataFormatError and UnicodeDecodeError too
        raise DataFormatError(f"{path}: {exc}") from exc


def _load_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "label" or cols[1:] != [f"c{i}" for i in range(len(cols) - 1)]:
            raise DataFormatError(
                f"bad CSV header {header!r}: expected label,c0,...,c{{L-1}}"
            )
        L = len(cols) - 1
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as an error
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataFormatError(f"unparseable CSV body: {exc}") from exc
    if table.size == 0:
        raise DataFormatError("no data rows")
    if table.shape[1] != L + 1:
        raise DataFormatError(
            f"expected {L + 1} columns, found {table.shape[1]} at row 1"
        )
    raw_labels = table[:, 0]
    if not np.all(raw_labels == np.floor(raw_labels)):
        row = int(np.argmax(raw_labels != np.floor(raw_labels))) + 1
        raise DataFormatError(f"non-integer label at row {row}")
    # before the cast, which would turn 1e300 or inf into an unrelated int
    bad = (raw_labels < -1) | (raw_labels > L - 1)
    if bad.any():
        row = int(np.argmax(bad)) + 1
        label = format_float(raw_labels[row - 1]).removesuffix(".0")
        raise DataFormatError(f"label {label} outside [0, {L - 1}] at row {row}")
    # a copy, taken before the move below overwrites the label column
    labels = raw_labels.astype(np.int64)
    scores = ScoreMatrix._adopt(_score_columns(table))
    unlabeled = labels == -1
    if unlabeled.all():
        return UnlabeledDataset(scores)
    if unlabeled.any():
        row = int(np.argmax(unlabeled)) + 1
        raise DataFormatError(
            f"mixed labeled and unlabeled rows: first unlabeled at row {row}"
        )
    return LabeledDataset._adopt(scores, labels)


def _score_columns(table: np.ndarray) -> np.ndarray:
    """Columns ``1:`` of a C-contiguous ``(n, L + 1)`` table, moved to the
    front of the table's own buffer as a C-contiguous ``(n, L)`` view, one
    row block of about ``util.BLOCK_ENTRIES`` entries at a time. Each row's
    destination lies at or before its source, so no block overwrites a row
    that a later block has yet to move; within a block numpy buffers the
    overlapping copy."""
    n, width = table.shape
    out = table.reshape(-1)[: n * (width - 1)].reshape(n, width - 1)
    step = max(1, util.BLOCK_ENTRIES // width)
    for start in range(0, n, step):
        out[start : start + step] = table[start : start + step, 1:]
    return out


def _load_binary(path) -> Dataset:
    """Map a file whose first bytes are :data:`BINARY_MAGIC`; the matrix and
    labels are read-only views of the mapping."""
    with open(path, "rb") as fh:
        blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    head_fmt = "<8sQQB"
    head_size = struct.calcsize(head_fmt)
    if len(blob) < head_size:
        raise DataFormatError("too short for binary header")
    _, n, L, has_labels = struct.unpack_from(head_fmt, blob)
    if has_labels not in (0, 1):
        raise DataFormatError(f"bad has_labels byte {has_labels}")
    need = head_size + 8 * n * L + (8 * n if has_labels else 0)
    if len(blob) != need:
        raise DataFormatError(f"has {len(blob)} bytes, expected {need} for n={n} L={L}")
    values = np.frombuffer(
        blob, dtype="<f8", count=n * L, offset=head_size
    ).reshape(n, L)
    scores = ScoreMatrix._adopt(values)
    if not has_labels:
        return UnlabeledDataset(scores)
    labels = np.frombuffer(blob, dtype="<i8", count=n, offset=head_size + 8 * n * L)
    return LabeledDataset._adopt(scores, labels)


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path``: binary for a ``.bin`` suffix, CSV
    otherwise. Both round-trip bit-exactly: the CSV writes each entry in
    its shortest round-trip decimal form, and a saved matrix's rows already
    sum to 1 within 1e-12, so loading it renormalizes nothing.

    The bytes go to a new sibling file, which then replaces ``path`` in one
    rename, so a dataset that maps the old file keeps its values and a
    failed save leaves the old file as it was.
    """
    write = _save_binary if Path(path).suffix == ".bin" else _save_csv
    with replacing(path) as fh:
        write(dataset, fh)


def _save_csv(dataset: Dataset, fh) -> None:
    # repr of a Python float is format_float's form; tolist() converts a
    # whole block of entries to Python floats at once
    values = dataset.scores.values
    n, L = values.shape
    labels = dataset.labels if isinstance(dataset, LabeledDataset) else None
    fh.write(("label," + ",".join(f"c{i}" for i in range(L)) + "\n").encode())
    step = max(1, CSV_BLOCK_ENTRIES // L)
    for start in range(0, n, step):
        rows = values[start : start + step].tolist()
        tags = repeat(-1, len(rows)) if labels is None else labels[start : start + step].tolist()
        text = "".join([f"{tag},{','.join(map(repr, row))}\n" for tag, row in zip(tags, rows)])
        fh.write(text.encode())


def _save_binary(dataset: Dataset, fh) -> None:
    has_labels = isinstance(dataset, LabeledDataset)
    fh.write(struct.pack("<8sQQB", BINARY_MAGIC, dataset.n, dataset.L, int(has_labels)))
    # the arrays' own buffers, without a bytes copy
    fh.write(memoryview(np.ascontiguousarray(dataset.scores.values, dtype="<f8")).cast("B"))
    if has_labels:
        fh.write(memoryview(np.ascontiguousarray(dataset.labels, dtype="<i8")).cast("B"))

