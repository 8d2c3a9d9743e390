"""Shared helpers: guarded order-statistic indices, seeded streams, the row
blocks that every full-matrix pass runs over, row reductions that keep
numpy's bits on narrow matrices, the one codec of every
``key=value`` record (threshold, sidecar, config, model header), and the
sibling-and-rename write of every file that is written whole."""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

# Entries per pass over row blocks, shared by the blocks in flight at once:
# 2 MB of float64 per block-sized temporary in all.
BLOCK_ENTRIES = 1 << 18

# Widths below which :func:`row_reduce` loops over columns. Below 8 entries
# numpy's pairwise sum adds a row left to right; from 8 on it keeps 8
# partial sums, so a column loop would change the bits of a sum.
NARROW_COLUMNS = 8

# Absolute snap tolerance for products like (1 - alpha) * (n + 1) that are
# integers in exact arithmetic but may land a few ulp above one in floats.
_CEIL_SNAP = 1e-9


def ceil_count(v: float) -> int:
    """Ceiling of ``v`` that snaps to the nearest integer when within 1e-9.

    Order-statistic indices are defined through expressions such as
    ``ceil(c * n)``; without the snap, float rounding can push an exact
    integer product infinitesimally high and shift the index by one.
    """
    r = round(v)
    if abs(v - r) < _CEIL_SNAP:
        return int(r)
    return int(math.ceil(v))


def derive_seed(seed: int, role: str) -> int:
    """Stable 64-bit sub-seed for (seed, role), independent of platform."""
    digest = hashlib.blake2b(f"{seed}:{role}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def row_uniforms(seed: int, n: int) -> np.ndarray:
    """Per-row uniforms u_0..u_{n-1} on [0, 1).

    Counter-based: u_i is the i-th output of a Philox stream keyed by the
    seed, so each value depends only on (seed, row index) and not on n or
    on evaluation order.
    """
    gen = np.random.Generator(np.random.Philox(key=seed % (1 << 128)))
    return gen.random(n)


def worker_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_row_blocks(fn, n: int, n_cols: int) -> list:
    """``fn(rows)`` for consecutive row slices that cover ``range(n)``, with
    the results in row order.

    The budget is :data:`BLOCK_ENTRIES`, read at each call. An ``n`` by
    ``n_cols`` matrix of at most that many entries is one block, run in this
    thread. A larger one is cut into blocks of about ``BLOCK_ENTRIES // W``
    entries (at least one row each), run on ``W = worker_count()`` threads,
    so the blocks in flight at once hold about ``BLOCK_ENTRIES`` entries
    together. ``fn`` must write only its own rows; blocks overlap where
    ``fn`` runs numpy code that releases the interpreter lock.
    """
    if n * n_cols <= BLOCK_ENTRIES:
        return [fn(slice(0, n))]
    workers = worker_count()
    step = max(1, BLOCK_ENTRIES // workers // n_cols)
    blocks = [slice(start, min(start + step, n)) for start in range(0, n, step)]
    if workers == 1 or len(blocks) == 1:
        return [fn(rows) for rows in blocks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(workers, len(blocks))) as pool:
        return list(pool.map(fn, blocks))


def row_reduce(ufunc, values: np.ndarray, dtype=None, out=None) -> np.ndarray:
    """The bits of ``ufunc.reduce(values, axis=1, dtype=dtype, out=out)``
    for a 2-D ``values``.

    numpy reduces each row in its own inner loop, whose per-row overhead
    dwarfs the arithmetic of a row of a few entries. Below
    :data:`NARROW_COLUMNS` columns this reduces column by column instead,
    from ``ufunc.identity`` where the ufunc has one (numpy's start: a row
    of ``-0.0`` sums to ``+0.0``) and from column 0 otherwise. Wider
    matrices take numpy's reduce itself.
    """
    n, width = values.shape
    if width >= NARROW_COLUMNS:
        return ufunc.reduce(values, axis=1, dtype=dtype, out=out)
    if out is None:
        # numpy's own result type, which upcasts a boolean sum, for one
        out = np.empty(n, dtype=ufunc.reduce(values[:0], axis=1, dtype=dtype).dtype)
    start = 0
    if ufunc.identity is None:
        np.copyto(out, values[:, 0])
        start = 1
    else:
        out.fill(ufunc.identity)
    for column in range(start, width):
        ufunc(out, values[:, column], out=out)
    return out


def format_kv(pairs: dict) -> str:
    """One ``key=value`` line per pair, in dict order; floats in
    :func:`format_float` form, anything else through ``str``."""
    return "".join(
        f"{key}={format_float(value) if isinstance(value, float) else value}\n"
        for key, value in pairs.items()
    )


def parse_kv(lines, first_lineno: int = 1) -> dict:
    """Pairs of ``key=value`` lines. Blank and ``#`` lines are skipped and
    whitespace around key and value is stripped."""
    pairs = {}
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed key=value line {lineno}: {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


@contextmanager
def reading(path):
    """Re-raise a ``KeyError`` or ``ValueError`` raised while reading ``path``
    as a ``ValueError`` whose message starts with the path."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path} missing key {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@contextmanager
def replacing(path):
    """A new sibling file of ``path``, open for binary writing, that
    replaces ``path`` in one rename when the block ends without an error.
    On an error it is deleted, and ``path`` keeps its old bytes; a reader
    that maps the old file keeps them too. Blocks nest: an error in an
    inner block, its failed rename included, deletes the files of the
    enclosing blocks as well. So a command that writes all of its files
    before the innermost block ends renames none of them unless all are
    complete."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_kv(path, pairs: dict) -> None:
    """Write a flat key=value text file (see :func:`format_kv`) through
    :func:`replacing`."""
    with replacing(path) as fh:
        fh.write(format_kv(pairs).encode())


def read_kv(path) -> dict:
    """Read a flat key=value text file; every parse error names the file.
    A last line without its newline is refused, since a cut file can
    still parse (``kreg=12`` cut to ``kreg=1``)."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        raise ValueError(f"{path} does not end with a newline")
    with reading(path):
        return parse_kv(lines)


def format_float(v: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(v))
