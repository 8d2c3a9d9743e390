"""Shared helpers: guarded order-statistic indices, seeded streams, the row
blocks that every full-matrix pass runs over, independent jobs run in
forked worker processes in job order, row reductions that keep
numpy's bits on narrow matrices, the one codec of every
``key=value`` record (threshold, sidecar, config, model header), the
sibling-and-rename write of every file that is written whole, and the
base class of the errors that carry their own CLI exit code."""

from __future__ import annotations

import errno
import hashlib
import math
import os
import sys
import warnings
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

# The recalibration methods of cshift.qtc and the feature extractors of
# cshift.regression, named here so that the CLI and the threshold-file
# reader can list them without importing those modules.
METHODS = ("qtc", "qtc-sc", "qtc-st")
EXTRACTORS = ("acr", "chr", "chr-minus", "pcr")


class CodedError(Exception):
    """An error that ends a CLI command with its class's ``exit_code``."""

    exit_code: int


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


def map_jobs(job, n_jobs: int, max_workers: int):
    """``job(i)`` for ``i`` in ``range(n_jobs)``, yielded in that order.

    On Linux ``W = min(worker_count(), n_jobs // 2, max_workers)`` jobs
    run at once: this process runs jobs 0, W, 2W, ... itself, and worker
    ``k`` of ``W - 1`` processes forked from it runs jobs ``k``,
    ``k + W``, ... Each of the W runs at least two jobs, since starting a
    worker costs about as much as a small job. ``job`` may be any
    callable and is not pickled, but the results, exceptions and warnings
    of the workers' jobs are. A worker sends each result over its own
    pipe, whose capacity bounds how far it runs ahead, so this process
    holds one result at a time at any ``n_jobs``. With ``W < 2``, or on
    another platform, this process runs every job.

    Either way the caller sees what a loop over the jobs would show: the
    warnings of each job pass through this process's filters before its
    result is yielded, and the first job that raises, in job order, ends
    the iteration with its exception. No worker outlives the iteration,
    whether it ends, fails or is closed early.
    """
    workers = min(worker_count(), n_jobs // 2, max_workers)
    if workers < 2 or not sys.platform.startswith("linux"):
        yield from map(job, range(n_jobs))
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    readers, procs = [], []  # of workers 1 to W - 1
    try:
        # a worker flushes the standard streams when it exits, so anything
        # they buffered at its fork would be written twice
        sys.stdout.flush()
        sys.stderr.flush()
        # Forking a process that has other threads can deadlock a child that
        # takes a lock one of them held. No Python thread of ours runs now,
        # and the only other threads can be BLAS's: OpenBLAS starts them at
        # import numpy unless told to use one, as the cshift command does.
        # The workers never call BLAS, so the warning that CPython 3.12+
        # gives for any fork of a multi-threaded process is silenced for
        # these forks only.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            for k in range(1, workers):
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(
                    target=_run_jobs, args=(job, range(k, n_jobs, workers), writer), daemon=True
                )
                proc.start()
                procs.append(proc)
                # the worker holds the only write end, so its death reads as EOF
                writer.close()
                readers.append(reader)
        for i in range(n_jobs):
            k = i % workers
            if k == 0:
                yield job(i)
                continue
            try:
                value, caught, error = readers[k - 1].recv()
            except EOFError:
                proc = procs[k - 1]
                proc.join()
                raise ChildProcessError(
                    f"worker process {proc.pid} exited with code {proc.exitcode} before job {i}"
                ) from None
            for message, filename, lineno in caught:
                _warn_again(message, filename, lineno)
            if error is not None:
                raise error
            yield value
    finally:
        for proc in procs:
            proc.terminate()  # a no-op once the worker has exited
            proc.join()
        for reader in readers:
            reader.close()


# The start of the DeprecationWarning that os.fork() gives on CPython 3.12+
# when the process has other threads.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def _run_jobs(job, indices, writer) -> None:
    """The body of a :func:`map_jobs` worker: for each index in order, send
    ``(result, warnings, exception)`` up to the first job that raises."""
    import signal

    # Ctrl-C reaches the whole process group; the parent alone handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for i in indices:
        value = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = job(i)
            except Exception as exc:
                error = exc
        writer.send((value, [(w.message, w.filename, w.lineno) for w in caught], error))
        if error is not None:
            return


def _warn_again(message: Warning, filename: str, lineno: int) -> None:
    """Issue a warning recorded in a worker through this process's filters,
    as ``warnings.warn`` would have: under the name and registry of the
    module whose code it names, so a ``default`` filter shows it once."""
    module = next(
        (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None
    )
    if module is None:
        warnings.warn_explicit(message, type(message), filename, lineno)
    else:
        registry = vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(
            message, type(message), filename, lineno, module.__name__, registry
        )


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
    enclosing blocks as well. The CLI enters one block per output of a
    command on one ``contextlib.ExitStack`` (see :mod:`cshift.cli`), so
    that a failed command renames none of its files. A ``path`` that is a
    directory is refused as the block starts: its rename would fail only
    after the blocks nested in it had renamed their files."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
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
