import functools
import math
import multiprocessing
import operator
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cshift.conformal import PredictorSpec, Threshold, load_threshold
from cshift import util
from cshift.util import (
    ceil_count,
    derive_seed,
    format_float,
    format_kv,
    read_kv,
    row_uniforms,
)


def test_ceil_count_plain_values():
    assert ceil_count(2.3) == 3
    assert ceil_count(2.0) == 2
    assert ceil_count(0.0) == 0


def test_ceil_count_snaps_float_noise():
    # (1 - 0.2) * 10 and 0.4 * 5 land a few ulp away from integers;
    # a raw ceil would jump a whole count
    assert ceil_count((1 - 0.2) * 10) == 8
    assert ceil_count(0.4 * 5) == 2
    assert ceil_count(3 * 0.1 * 10) == 3


def test_ceil_count_does_not_snap_real_gaps():
    assert ceil_count(2.0 + 1e-6) == 3
    assert ceil_count(2.0 - 1e-6) == 2


@given(st.integers(0, 10**6))
def test_ceil_count_matches_ceil_on_exact_integers(k):
    assert ceil_count(float(k)) == k


# signed zeros, the smallest subnormals and normal, and exact 0 and 1
_EDGE_ENTRIES = [0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2250738585072014e-308]


@given(
    width=st.integers(2, 12),
    rows=st.integers(0, 12),
    data=st.data(),
)
def test_row_reduce_gives_the_bits_of_numpy_reduce(width, rows, data):
    # widths on both sides of util.NARROW_COLUMNS; every example holds a
    # row of -0.0, one of mixed signed zeros, and one of each edge entry
    entries = st.one_of(st.sampled_from(_EDGE_ENTRIES), st.floats(-1.0, 1.0))
    drawn = data.draw(st.lists(entries, min_size=rows * width, max_size=rows * width))
    fixed = [np.full(width, -0.0), np.resize([0.0, -0.0, -0.0], width)]
    fixed += [np.full(width, edge) for edge in _EDGE_ENTRIES]
    values = np.vstack([*fixed, np.reshape(drawn, (rows, width))])
    if data.draw(st.booleans()):  # tied columns
        values[:, data.draw(st.integers(1, width - 1))] = values[:, 0]
    cut = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    cases = [
        (np.add, values, None),
        (np.maximum, values, None),
        (np.add, values <= cut, np.intp),
    ]
    for ufunc, operand, dtype in cases:
        expected = ufunc.reduce(operand, axis=1, dtype=dtype)
        got = util.row_reduce(ufunc, operand, dtype=dtype)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        out = np.full(values.shape[0], 7, dtype=expected.dtype)
        assert util.row_reduce(ufunc, operand, dtype=dtype, out=out) is out
        assert out.tobytes() == expected.tobytes()


# numpy adds a row of 8 as ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)),
# which gives this row another sum than adding it left to right
_ORDER_DEPENDENT_ROW = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]


def test_the_eight_column_example_sums_differently_left_to_right():
    pairwise = np.add.reduce(np.array([_ORDER_DEPENDENT_ROW]), axis=1)[0]
    assert functools.reduce(operator.add, _ORDER_DEPENDENT_ROW) != pairwise


@example(row=_ORDER_DEPENDENT_ROW)
@given(row=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_row_reduce_sums_eight_columns_as_numpy_does(row):
    assert util.NARROW_COLUMNS == 8
    values = np.array([row, row[::-1]])
    expected = np.add.reduce(values, axis=1)
    assert util.row_reduce(np.add, values).tobytes() == expected.tobytes()


def test_derive_seed_is_stable_and_role_separated():
    a = derive_seed(7, "calibrate")
    assert a == derive_seed(7, "calibrate")
    assert a != derive_seed(7, "evaluate")
    assert a != derive_seed(8, "calibrate")
    assert 0 <= a < 2**64


def test_row_uniforms_prefix_stable():
    full = row_uniforms(123, 50)
    head = row_uniforms(123, 10)
    np.testing.assert_array_equal(full[:10], head)
    assert np.all((full >= 0) & (full < 1))


def test_row_uniforms_negative_seed():
    u = row_uniforms(-5, 4)
    assert u.shape == (4,)
    np.testing.assert_array_equal(u, row_uniforms(-5, 4))


def test_kv_round_trip(tmp_path):
    path = tmp_path / "kv.txt"
    tag = "calibrate:tps:n=4:alpha=0.1"
    path.write_text(format_kv({"tau": 0.4, "alpha": np.float64(0.1), "source_tag": tag}))
    back = read_kv(path)
    assert back["tau"] == "0.4"
    assert back["alpha"] == "0.1"
    assert back["source_tag"] == tag


def test_kv_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("# header\n\ntau=0.5\n# trailing\n")
    assert read_kv(path) == {"tau": "0.5"}


def test_kv_refuses_a_last_line_without_its_newline(tmp_path):
    # a .qtc sidecar cut inside its last value still parses
    path = tmp_path / "thr.txt.qtc"
    path.write_text("method=qtc\nvalue=0.0625")
    message = f"{path} does not end with a newline"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_kv(path)


def test_format_float_round_trips_exactly():
    for v in [0.1, 1 / 3, 0.99991, math.pi, 1e-300]:
        assert float(format_float(v)) == v


def test_kv_rejects_missing_separator(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("just a line\n")
    message = f"{path}: malformed key=value line 1: 'just a line'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_kv(path)


@pytest.fixture(scope="module")
def intact_files(tmp_path_factory):
    """Bytes of one threshold and one config file, each with its reader."""
    d = tmp_path_factory.mktemp("intact")
    threshold = Threshold(0.93, 0.1, PredictorSpec.raps(0.1, 2), "qtc-st")
    (d / "thr").write_text(format_kv(threshold.to_kv()))
    (d / "cfg").write_text("# run\ncal=cal.csv\npredictor=raps\nlambda=0.1\nkreg=2\nalpha=0.1\n")
    readers = {"thr": load_threshold, "cfg": read_kv}
    return d, {name: ((d / name).read_bytes(), read) for name, read in readers.items()}


@pytest.mark.parametrize("name", ["thr", "cfg"])
@settings(max_examples=150)
@given(data=st.data())
def test_corrupted_files_load_or_fail_naming_the_file(intact_files, name, data):
    d, files = intact_files
    raw, read = files[name]
    read(d / name)
    pos = data.draw(st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        mutated = raw[:pos]
    else:
        mutated = raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1 :]
    path = d / f"{name}.mutated"
    path.write_bytes(mutated)
    try:
        read(path)
    except ValueError as exc:
        assert str(path) in str(exc)


def test_importing_the_cli_loads_no_thread_pool():
    # the pool module is imported only when a matrix spans several blocks
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, cshift.cli; print('concurrent.futures' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_row_blocks_cover_the_rows_in_order(monkeypatch, workers):
    monkeypatch.setattr(util, "worker_count", lambda: workers)
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 12)
    span = lambda rows: (rows.start, rows.stop)  # noqa: E731
    # at most BLOCK_ENTRIES entries: one block
    assert util.map_row_blocks(span, 3, 4) == [(0, 3)]
    # more: blocks of BLOCK_ENTRIES // workers entries, at least one row
    step = max(1, 12 // workers // 4)
    want = [(start, min(start + step, 10)) for start in range(0, 10, step)]
    assert util.map_row_blocks(span, 10, 4) == want


def _pid_of_job(i):
    return i, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_jobs", [1, 3, 4, 7])
def test_jobs_yield_in_order_from_at_least_two_jobs_per_worker(monkeypatch, workers, n_jobs):
    monkeypatch.setattr(util, "worker_count", lambda: workers)
    results = list(util.map_jobs(_pid_of_job, n_jobs, max_workers=workers))
    assert [i for i, _ in results] == list(range(n_jobs))
    pids = {pid for _, pid in results}
    # this process runs jobs too
    assert os.getpid() in pids
    assert len(pids) == max(1, min(workers, n_jobs // 2))
    assert multiprocessing.active_children() == []


def test_jobs_run_in_this_process_up_to_max_workers_of_one(monkeypatch):
    monkeypatch.setattr(util, "worker_count", lambda: 4)
    assert {pid for _, pid in util.map_jobs(_pid_of_job, 8, max_workers=1)} == {os.getpid()}
    assert len({pid for _, pid in util.map_jobs(_pid_of_job, 8, max_workers=3)}) == 3


def _fail_slowly_at_1_and_quickly_at_2(i):
    if i == 1:
        time.sleep(0.5)
    if i in (1, 2):
        raise ValueError(f"job {i} failed")
    return i


def test_the_first_failing_job_in_job_order_raises(monkeypatch):
    # jobs 1 and 2 run in different workers, and job 2 fails first in time
    monkeypatch.setattr(util, "worker_count", lambda: 3)
    seen = []
    with pytest.raises(ValueError, match="^job 1 failed$"):
        for value in util.map_jobs(_fail_slowly_at_1_and_quickly_at_2, 6, max_workers=3):
            seen.append(value)
    assert seen == [0]
    assert multiprocessing.active_children() == []


def test_closing_the_jobs_early_stops_the_workers(monkeypatch):
    monkeypatch.setattr(util, "worker_count", lambda: 2)
    jobs = util.map_jobs(_pid_of_job, 10_000, max_workers=2)
    assert next(jobs)[0] == 0
    assert len(multiprocessing.active_children()) == 1
    jobs.close()
    assert multiprocessing.active_children() == []


_TEST_PROCESS = os.getpid()


def _exit_at_3(i):
    if i == 3 and os.getpid() != _TEST_PROCESS:
        os._exit(9)
    return i


def test_a_worker_that_dies_ends_the_jobs_with_an_error(monkeypatch):
    monkeypatch.setattr(util, "worker_count", lambda: 2)
    seen = []
    # job 3 runs in the one worker
    with pytest.raises(ChildProcessError, match="exited with code 9 before job 3$"):
        for value in util.map_jobs(_exit_at_3, 6, max_workers=2):
            seen.append(value)
    assert seen == [0, 1, 2]
    assert multiprocessing.active_children() == []


def _warn_off_multiples_of_3(i):
    if i % 3:
        warnings.warn(f"job {i} is not a multiple of 3")
    return i


@pytest.mark.parametrize("workers", [1, 2])
def test_job_warnings_pass_through_the_callers_filters_in_job_order(monkeypatch, workers):
    monkeypatch.setattr(util, "worker_count", lambda: workers)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert list(util.map_jobs(_warn_off_multiples_of_3, 6, max_workers=2)) == list(range(6))
    # jobs 2 and 4 run in this process, 1 and 5 in the worker
    assert [str(w.message).split()[1] for w in caught] == ["1", "2", "4", "5"]
    assert {(w.category, w.filename) for w in caught} == {(UserWarning, __file__)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="job 1 is not a multiple of 3"):
            list(util.map_jobs(_warn_off_multiples_of_3, 6, max_workers=2))


def test_the_fork_warning_filter_matches_cpythons_message():
    # the text of os.fork()'s DeprecationWarning on CPython 3.12 and 3.13
    text = "This process (pid=4242) is multi-threaded, use of fork() may lead to deadlocks in the child."
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", util._FORK_WARNING, DeprecationWarning)
        warnings.warn(text, DeprecationWarning)
        warnings.warn(text, UserWarning)
    assert [w.category for w in caught] == [UserWarning]
