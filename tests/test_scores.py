import mmap
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import labeled, softmax_rows, write_csv
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


@pytest.mark.parametrize("access", [mmap.ACCESS_WRITE, mmap.ACCESS_COPY])
@pytest.mark.parametrize("read_only_view", [False, True])
def test_a_writable_mapping_is_copied(tmp_path, access, read_only_view):
    v = softmax_rows(4, 3, seed=8)
    path = tmp_path / "raw"
    path.write_bytes(v.tobytes())
    with open(path, "r+b") as fh:
        mapping = mmap.mmap(fh.fileno(), 0, access=access)
    buffer = memoryview(mapping).toreadonly() if read_only_view else mapping
    m = ScoreMatrix(np.frombuffer(buffer).reshape(v.shape))
    assert _mapping(m.values) is not buffer
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


@given(n=st.integers(1, 25), n_classes=st.integers(2, 5), seed=st.integers(0, 10**6))
def test_csv_save_load_round_trip_property(n, n_classes, seed, tmp_path_factory):
    d = labeled(n, n_classes, seed=seed % 997)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    save_dataset(d, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.scores.values, d.scores.values)


def test_csv_from_helper_loads(tmp_path):
    v = softmax_rows(6, 3, seed=13)
    path = tmp_path / "h.csv"
    write_csv(path, v)
    d = load_dataset(path)
    assert isinstance(d, UnlabeledDataset)
    np.testing.assert_array_equal(d.scores.values, v)
