import io
import mmap
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import labeled, sample_labels, softmax_rows, write_csv
from cshift import scores, util
from cshift.scores import (
    DataFormatError,
    LabeledDataset,
    ScoreMatrix,
    UnlabeledDataset,
    load_dataset,
    save_dataset,
)


def _write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_labeled_csv(tmp_path):
    d = load_dataset(_write(tmp_path, "label,c0,c1\n1,0.3,0.7\n"))
    assert isinstance(d, LabeledDataset)
    assert (d.n, d.L) == (1, 2)
    assert d.labels.tolist() == [1]
    np.testing.assert_allclose(d.scores.values, [[0.3, 0.7]])


def test_sentinel_row_forces_unlabeled(tmp_path):
    d = load_dataset(_write(tmp_path, "label,c0,c1\n-1,0.3,0.7\n"))
    assert isinstance(d, UnlabeledDataset)
    assert (d.n, d.L) == (1, 2)


def test_row_sum_error_names_row(tmp_path):
    with pytest.raises(DataFormatError, match=r"row sum 1\.1 exceeds tolerance at row 1"):
        load_dataset(_write(tmp_path, "label,c0,c1\n0,0.5,0.6\n"))


def test_row_sum_error_reports_first_bad_row(tmp_path):
    text = "label,c0,c1\n0,0.5,0.5\n1,0.2,0.2\n"
    with pytest.raises(DataFormatError, match="at row 2"):
        load_dataset(_write(tmp_path, text))


def test_mixed_labels_error(tmp_path):
    text = "label,c0,c1\n0,0.5,0.5\n-1,0.4,0.6\n"
    with pytest.raises(DataFormatError, match="mixed labeled and unlabeled rows: first unlabeled at row 2"):
        load_dataset(_write(tmp_path, text))


def test_entry_out_of_range_error(tmp_path):
    with pytest.raises(DataFormatError, match=r"outside \[0, 1\] beyond tolerance at row 1"):
        load_dataset(_write(tmp_path, "label,c0,c1\n0,-0.2,1.2\n"))


def test_label_out_of_range_error(tmp_path):
    with pytest.raises(DataFormatError, match=r"label 2 outside \[0, 1\] at row 1"):
        load_dataset(_write(tmp_path, "label,c0,c1\n2,0.5,0.5\n"))


def test_non_integer_label_error(tmp_path):
    with pytest.raises(DataFormatError, match="non-integer label at row 1"):
        load_dataset(_write(tmp_path, "label,c0,c1\n0.5,0.5,0.5\n"))


@pytest.mark.parametrize(
    "row, found", [("0,0.5", 2), ("0,0.5,0.25,0.25", 4)]
)
def test_a_body_of_another_width_names_both_column_counts(tmp_path, row, found):
    path = _write(tmp_path, f"label,c0,c1\n{row}\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: expected 3 columns, found {found} at row 1"


def test_non_integer_label_names_its_row(tmp_path):
    path = _write(tmp_path, "label,c0,c1\n0,0.5,0.5\n1,0.5,0.5\n1.5,0.5,0.5\n0,0.5,0.5\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: non-integer label at row 3"


@pytest.mark.parametrize(
    "head, message",
    [
        # the 25-byte header alone, for a matrix it does not hold
        (struct.pack("<8sQQB", scores.BINARY_MAGIC, 2, 3, 1), "has 25 bytes, expected 89 for n=2 L=3"),
        # the 25-byte header alone, for no rows: complete, but not a matrix
        (struct.pack("<8sQQB", scores.BINARY_MAGIC, 0, 3, 1),
         "score matrix must be 2-D with at least 1 row and 2 classes, got shape (0, 3)"),
        (struct.pack("<8sQQB", scores.BINARY_MAGIC, 2, 3, 1)[:24], "too short for binary header"),
    ],
)
def test_a_binary_file_cut_at_its_header(tmp_path, head, message):
    path = tmp_path / "head.bin"
    path.write_bytes(head)
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: {message}"


def test_bad_header_error(tmp_path):
    with pytest.raises(DataFormatError, match="bad CSV header"):
        load_dataset(_write(tmp_path, "c0,c1\n0.5,0.5\n"))


def test_missing_file_error(tmp_path):
    with pytest.raises(DataFormatError, match="nope.csv"):
        load_dataset(tmp_path / "nope.csv")


@pytest.mark.parametrize("name, reason", [("nope.csv", "No such file or directory"), ("", "Is a directory")])
def test_unreadable_file_error_starts_with_the_path_once(tmp_path, name, reason):
    path = tmp_path / name
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: {reason}"


@pytest.mark.parametrize(
    "label, shown",
    [("1e300", "1e+300"), ("inf", "inf"), ("-inf", "-inf"), ("-2", "-2")],
)
def test_label_outside_the_classes_quotes_the_file(tmp_path, label, shown):
    path = _write(tmp_path, f"label,c0,c1\n0,0.5,0.5\n{label},0.5,0.5\n", "big.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
    assert str(err.value) == f"{path}: label {shown} outside [0, 1] at row 2"


def test_tolerated_deviations_are_repaired(tmp_path):
    # entry -5e-5 is clipped, row sums off by <= 1e-4 are renormalized
    d = load_dataset(_write(tmp_path, "label,c0,c1,c2\n1,-0.00005,0.5,0.50004\n"))
    assert np.all(d.scores.values >= 0.0)
    assert abs(d.scores.values[0].sum() - 1.0) <= 1e-12


def test_exact_rows_are_left_untouched():
    v = np.array([[0.25, 0.75], [0.5, 0.5]])
    m = ScoreMatrix(v)
    assert m.values.tolist() == v.tolist()


def test_matrix_is_immutable():
    m = ScoreMatrix(np.array([[0.4, 0.6]]))
    with pytest.raises(ValueError):
        m.values[0, 0] = 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_names_row(bad):
    v = np.full((3, 2), 0.5)
    v[1, 0] = bad
    with pytest.raises(DataFormatError, match=r"^non-finite score at row 2$"):
        ScoreMatrix(v)


@pytest.mark.parametrize("entry", [-2e-4, 1.0 + 2e-4])
def test_entry_beyond_tolerance_names_row(entry):
    v = np.full((3, 2), 0.5)
    v[2, 0] = entry
    with pytest.raises(DataFormatError, match=r"^score outside \[0, 1\] beyond tolerance at row 3$"):
        ScoreMatrix(v)


def test_non_finite_is_reported_before_an_earlier_range_error():
    v = np.full((4, 2), 0.5)
    v[0, 0] = 1.5
    v[2, 1] = np.nan
    with pytest.raises(DataFormatError, match=r"^non-finite score at row 3$"):
        ScoreMatrix(v)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "non-finite score"),
        (np.inf, "non-finite score"),
        (1.5, r"score outside \[0, 1\] beyond tolerance"),
        (-0.5, r"score outside \[0, 1\] beyond tolerance"),
    ],
)
def test_bad_entry_in_the_last_block_names_its_row(monkeypatch, workers, bad, message):
    monkeypatch.setattr(util, "worker_count", lambda: workers)
    # 160 entries in blocks of 16 rows for one worker, 5 rows for three
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 64)
    v = softmax_rows(40, 4, seed=3)
    v[39, 2] = bad
    with pytest.raises(DataFormatError, match=rf"^{message} at row 40$"):
        ScoreMatrix(v)


@pytest.mark.parametrize("workers", [1, 3])
def test_validation_gives_the_same_bits_in_any_blocks(monkeypatch, workers):
    v = softmax_rows(40, 4, seed=5)
    v[::3] *= 1.0 + 5e-5  # rows to renormalize
    clipped = v.copy()
    clipped[1] = [-5e-5, 0.5, 0.25, 0.25 + 5e-5]
    arrays = [v, np.asfortranarray(v), v.astype(np.float32), clipped]
    whole = [ScoreMatrix(a).values.tobytes() for a in arrays]
    # the clip path renormalizes by the row sums of one numpy sum over the
    # clipped matrix
    want = np.clip(clipped, 0.0, 1.0)
    sums = want.sum(axis=1)
    loose = np.abs(sums - 1.0) > 1e-12
    want[loose] /= sums[loose, None]
    assert whole[3] == want.tobytes()
    monkeypatch.setattr(util, "worker_count", lambda: workers)
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 64)
    assert [ScoreMatrix(a).values.tobytes() for a in arrays] == whole


def test_caller_array_stays_writable_and_unshared():
    v = softmax_rows(4, 3, seed=2)
    m = ScoreMatrix(v)
    assert v.flags.writeable
    before = m.values.copy()
    v[:] = 0.0
    np.testing.assert_array_equal(m.values, before)


def test_caller_labels_stay_writable_and_unshared():
    lab = np.array([0, 1, 2, 1], dtype=np.int64)
    ds = LabeledDataset(ScoreMatrix(softmax_rows(4, 3, seed=2)), lab)
    assert lab.flags.writeable
    assert not ds.labels.flags.writeable
    lab[:] = 0
    np.testing.assert_array_equal(ds.labels, [0, 1, 2, 1])


def test_an_adopted_array_is_validated_in_full_but_not_copied():
    v = softmax_rows(6, 3, seed=4)
    v[2] *= 1.0 + 5e-5  # a row to renormalize
    expected = ScoreMatrix(v).values.tobytes()
    m = ScoreMatrix._adopt(v)
    assert m.values is v
    assert not v.flags.writeable
    assert m.values.tobytes() == expected
    lab = np.array([0, 2, 1, 1, 0, 2], dtype=np.int64)
    ds = LabeledDataset._adopt(m, lab)
    assert ds.labels is lab and not lab.flags.writeable
    # a strided array is still copied into C order
    f = np.asfortranarray(softmax_rows(6, 3, seed=5))
    assert ScoreMatrix._adopt(f).values.flags.c_contiguous


@pytest.mark.parametrize(
    "row, message",
    [
        ([np.nan, 0.5, 0.5], "non-finite score at row 2"),
        ([1.5, 0.0, 0.0], r"score outside \[0, 1\] beyond tolerance at row 2"),
        ([0.9, 0.3, 0.3], r"row sum 1.5 exceeds tolerance at row 2"),
    ],
)
def test_an_adopted_array_is_rejected_like_any_other(row, message):
    v = softmax_rows(3, 3, seed=6)
    v[1] = row
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        ScoreMatrix(v)
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        ScoreMatrix._adopt(v)
    with pytest.raises(DataFormatError, match=r"^label 3 outside \[0, 2\] at row 2$"):
        LabeledDataset._adopt(ScoreMatrix(softmax_rows(3, 3, seed=6)), np.array([0, 3, 1]))


def test_binary_load_keeps_the_label_buffer(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(labeled(6, 3, seed=4), path)
    ds = load_dataset(path)
    # the labels are a view of the file's mapping, not a copy of it
    assert isinstance(ds.labels.base.obj, mmap.mmap)
    assert not ds.labels.flags.writeable


def _mapping(array):
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base


def test_binary_load_is_a_read_only_view_of_a_read_only_mapping(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(labeled(2000, 200, seed=6), path)
    size = path.stat().st_size
    load_dataset(path)  # imports and first-call caches stay out of the peak
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for array in (ds.scores.values, ds.labels):
        assert not array.flags.writeable
        view = _mapping(array)
        assert isinstance(view, memoryview) and view.readonly
        assert isinstance(view.obj, mmap.mmap)
        with memoryview(view.obj) as whole:
            assert whole.readonly
    # validation's row sums and their masks are all that grow with the file
    assert peak <= 0.1 * size


@pytest.mark.parametrize(
    "access",
    [mmap.ACCESS_WRITE, mmap.ACCESS_COPY, mmap.ACCESS_READ, pytest.param(None, id="bytes")],
)
@pytest.mark.parametrize("read_only_view", [False, True])
def test_a_writable_mapping_is_copied(tmp_path, access, read_only_view):
    # a read-only mapping and a bytes buffer are a caller's arrays too
    v = softmax_rows(4, 3, seed=8)
    path = tmp_path / "raw"
    path.write_bytes(v.tobytes())
    if access is None:
        mapping = v.tobytes()
    else:
        with open(path, "r+b") as fh:
            mapping = mmap.mmap(fh.fileno(), 0, access=access)
    buffer = memoryview(mapping).toreadonly() if read_only_view else mapping
    source = np.frombuffer(buffer).reshape(v.shape)
    m = ScoreMatrix(source)
    assert not np.shares_memory(m.values, source)
    if access in (mmap.ACCESS_WRITE, mmap.ACCESS_COPY):
        mapping[:8] = np.float64(0.0).tobytes()
    np.testing.assert_array_equal(m.values, v)


def test_saving_over_a_mapped_file_keeps_the_live_dataset(tmp_path):
    # a file rewritten in place under its mapping kills the process with
    # SIGBUS, so the check runs in a child
    code = """
import sys
import numpy as np
from conftest import labeled
from cshift.scores import load_dataset, save_dataset

path = sys.argv[1]
save_dataset(labeled(300, 7, seed=1), path)
live = load_dataset(path)
before = (live.scores.values.tobytes(), live.labels.tobytes())
save_dataset(labeled(20, 3, seed=2), path)
assert (live.scores.values.tobytes(), live.labels.tobytes()) == before
assert load_dataset(path).n == 20
print("kept")
"""
    here = Path(__file__).resolve().parent
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "d.bin")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])},
        capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stdout) == (0, "kept\n"), run.stderr


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
def test_a_failed_save_keeps_the_old_file_and_leaves_no_temporary(monkeypatch, tmp_path, suffix, error):
    path = tmp_path / f"d{suffix}"
    save_dataset(labeled(5, 3, seed=1), path)
    old = path.read_bytes()

    def fail(dataset, fh):
        fh.write(b"partial")
        raise error

    monkeypatch.setattr(scores, "_save_binary" if suffix == ".bin" else "_save_csv", fail)
    with pytest.raises(type(error)):
        save_dataset(labeled(9, 3, seed=2), path)
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == [path]


def test_a_save_into_a_missing_directory_names_the_destination(tmp_path):
    path = tmp_path / "nodir" / "d.bin"
    with pytest.raises(FileNotFoundError) as err:
        save_dataset(labeled(3, 2, seed=1), path)
    assert err.value.filename == str(path)


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
def test_a_saved_file_has_the_mode_of_a_plain_open(tmp_path, suffix):
    old = os.umask(0o022)
    try:
        save_dataset(labeled(3, 2, seed=1), tmp_path / f"d{suffix}")
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / f"d{suffix}").stat().st_mode == (tmp_path / "plain").stat().st_mode


@pytest.mark.parametrize("clipped_row", [False, True])
def test_negative_zero_entries_survive_bitwise(clipped_row):
    v = np.array([[-0.0, 1.0], [0.25, 0.75]])
    if clipped_row:
        # an entry within tolerance below 0 sends validation through the clip
        v[1] = [-5e-5, 1.0]
    m = ScoreMatrix(v)
    assert np.signbit(m.values[0, 0])
    assert m.values[0].tobytes() == v[0].tobytes()


def test_binary_round_trip_bit_exact(tmp_path):
    d = labeled(17, 4, seed=3)
    path = tmp_path / "d.bin"
    save_dataset(d, path)
    back = load_dataset(path)
    assert isinstance(back, LabeledDataset)
    assert back.scores.values.tobytes() == d.scores.values.tobytes()
    np.testing.assert_array_equal(back.labels, d.labels)


def test_binary_unlabeled_round_trip(tmp_path):
    v = softmax_rows(5, 3, seed=9)
    d = UnlabeledDataset(ScoreMatrix(v))
    path = tmp_path / "d.bin"
    save_dataset(d, path)
    back = load_dataset(path)
    assert isinstance(back, UnlabeledDataset)
    assert back.scores.values.tobytes() == d.scores.values.tobytes()


def test_binary_magic_and_truncation(tmp_path):
    bad = tmp_path / "x.bin"
    bad.write_bytes(b"NOTMAGIC" + b"\0" * 24)
    # without the magic a file is read as CSV, whatever its suffix
    with pytest.raises(DataFormatError, match="bad CSV header"):
        load_dataset(bad)
    d = labeled(4, 3, seed=1)
    path = tmp_path / "d.bin"
    save_dataset(d, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataFormatError, match="expected"):
        load_dataset(path)


def test_csv_round_trip_exact(tmp_path):
    d = labeled(11, 5, seed=21)
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.scores.values, d.scores.values)
    np.testing.assert_array_equal(back.labels, d.labels)


def test_format_sniffing_ignores_suffix(tmp_path):
    d = labeled(3, 2, seed=5)
    path = tmp_path / "weird.csv"
    save_dataset(d, tmp_path / "d.bin")
    (tmp_path / "d.bin").rename(path)
    back = load_dataset(path)
    assert back.scores.values.tobytes() == d.scores.values.tobytes()


@given(
    n=st.integers(1, 25),
    n_classes=st.integers(2, 50),
    seed=st.integers(0, 10**6),
    block=st.sampled_from([1, 7, 64, util.BLOCK_ENTRIES]),
)
def test_csv_save_load_round_trip_property(n, n_classes, seed, block, tmp_path_factory):
    d = labeled(n, n_classes, seed=seed % 997)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    save_dataset(d, path)
    saved = util.BLOCK_ENTRIES
    util.BLOCK_ENTRIES = block  # the load moves its score columns in row blocks
    try:
        back = load_dataset(path)
    finally:
        util.BLOCK_ENTRIES = saved
    # shortest round-trip decimals, and rows that already sum to 1 within
    # 1e-12, so the load renormalizes nothing
    assert back.scores.values.tobytes() == d.scores.values.tobytes()
    assert back.labels.tobytes() == d.labels.tobytes()


def _save_csv_reference(dataset, fh):
    """The per-entry CSV writer that the block writer replaced."""
    values = dataset.scores.values
    labels = (
        dataset.labels
        if isinstance(dataset, LabeledDataset)
        else np.full(dataset.n, -1, dtype=np.int64)
    )
    text = io.TextIOWrapper(fh, encoding="utf-8")
    text.write("label," + ",".join(f"c{i}" for i in range(dataset.L)) + "\n")
    for i in range(dataset.n):
        text.write(str(labels[i]) + "," + ",".join(util.format_float(v) for v in values[i]) + "\n")
    text.detach()


def _edge_rows(n_classes):
    """Valid rows that hold the entries 0.0, -0.0, 5e-324, 1e-05 and 1.0."""
    pad = n_classes - 2
    return [
        [1.0, 0.0] + [0.0] * pad,
        [-0.0] * (n_classes - 1) + [1.0],
        [5e-324, 1.0] + [-0.0] * pad,
        [1e-05, 1.0 - 1e-05] + [5e-324] * pad,
    ]


@example(n_classes=3, block=7, rows="at", blocks=2, is_labeled=False,
         edges=[(0, 0), (1, 1), (2, 2), (3, 3)], seed=0)
@given(
    n_classes=st.integers(2, 64),
    block=st.integers(1, 200),
    rows=st.sampled_from(["one", "one below", "at", "one above"]),
    blocks=st.integers(1, 2),
    is_labeled=st.booleans(),
    edges=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), max_size=6),
    seed=st.integers(0, 10**6),
)
def test_csv_writer_bytes_equal_the_per_entry_writer(
    n_classes, block, rows, blocks, is_labeled, edges, seed, tmp_path_factory
):
    step = max(1, block // n_classes)  # rows per written block
    n = {"one": 1, "one below": blocks * step - 1, "at": blocks * step,
         "one above": blocks * step + 1}[rows]
    n = max(n, 1)
    v = softmax_rows(n, n_classes, seed % 997)
    for row, kind in edges:
        v[row % n] = _edge_rows(n_classes)[kind]
    matrix = ScoreMatrix(v)
    d = LabeledDataset(matrix, sample_labels(v, seed)) if is_labeled else UnlabeledDataset(matrix)
    expected = io.BytesIO()
    _save_csv_reference(d, expected)
    path = tmp_path_factory.mktemp("w") / "d.csv"
    saved = scores.CSV_BLOCK_ENTRIES
    scores.CSV_BLOCK_ENTRIES = block
    try:
        save_dataset(d, path)
    finally:
        scores.CSV_BLOCK_ENTRIES = saved
    assert path.read_bytes() == expected.getvalue()


def test_csv_writer_memory_does_not_grow_with_the_rows(tmp_path):
    path = tmp_path / "d.csv"
    peaks = []
    for n in (2_000, 20_000):
        d = labeled(n, 10, seed=4)
        save_dataset(d, path)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            save_dataset(d, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one block's text and Python floats, whatever the row count
    assert peaks[1] <= peaks[0] + 8192
    assert peaks[1] <= 256 * scores.CSV_BLOCK_ENTRIES


def test_csv_load_holds_the_matrix_about_once(tmp_path):
    n, n_classes = 2000, 1000
    row = ",".join(["0.001"] * n_classes)
    header = "label," + ",".join(f"c{i}" for i in range(n_classes))
    path = _write(tmp_path, header + "\n" + "".join(f"{i % n_classes},{row}\n" for i in range(n)))
    load_dataset(_write(tmp_path, "label,c0,c1\n0,0.5,0.5\n", "small.csv"))
    tracemalloc.start()
    try:
        d = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.n == n and d.L == n_classes
    assert d.scores.values.tobytes() == np.full((n, n_classes), 0.001).tobytes()
    # the parsed table, whose score columns become the matrix in place, and
    # one row block of the move; a copy of the columns would add 1x
    assert peak <= 1.3 * 8 * n * n_classes


def test_csv_from_helper_loads(tmp_path):
    v = softmax_rows(6, 3, seed=13)
    path = tmp_path / "h.csv"
    write_csv(path, v)
    d = load_dataset(path)
    assert isinstance(d, UnlabeledDataset)
    np.testing.assert_array_equal(d.scores.values, v)
