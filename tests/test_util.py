import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import labeled
from cshift.conformal import PredictorSpec, Threshold, load_threshold, save_threshold
from cshift.regression import build_corpus, load_model, save_model, train
from cshift import util
from cshift.util import ceil_count, derive_seed, format_float, read_kv, row_uniforms, write_kv


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
    write_kv(path, {"tau": 0.4, "alpha": np.float64(0.1), "source_tag": tag})
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
    """Bytes of one threshold, config and model file, each with its reader."""
    d = tmp_path_factory.mktemp("intact")
    save_threshold(
        Threshold(0.93, 0.1, PredictorSpec.raps(0.1, 2), "calibrate:raps:n=100:alpha=0.1"), d / "thr"
    )
    (d / "cfg").write_text("# run\ncal=cal.csv\npredictor=raps\nlambda=0.1\nkreg=2\nalpha=0.1\n")
    corpus = build_corpus(labeled(100, 3, seed=22), PredictorSpec.tps(), 0.2, 2, "acr", seed=1)
    save_model(train(corpus, epochs=10, seed=1), d / "model")
    readers = {"thr": load_threshold, "cfg": read_kv, "model": load_model}
    return d, {name: ((d / name).read_bytes(), read) for name, read in readers.items()}


@pytest.mark.parametrize("name", ["thr", "cfg", "model"])
@settings(max_examples=150)
@given(data=st.data())
def test_corrupted_files_load_or_fail_naming_the_file(intact_files, name, data):
    d, files = intact_files
    raw, read = files[name]
    read(d / name)
    header = raw.index(b"\n", raw.find(b"\nblob_bytes=") + 1) + 1 if name == "model" else len(raw)
    # half the positions fall in the model's header, where the parser works
    pos = data.draw(st.one_of(st.integers(0, header - 1), st.integers(0, len(raw) - 1)))
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
