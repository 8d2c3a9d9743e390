"""Command-line interface.

Subcommands: ``calibrate``, ``recalibrate``, ``evaluate``, ``baseline``,
``simulate``. Each option is declared once, in :func:`build_parser`, with
its default, type and choices. ``--config FILE`` names a flat ``key=value``
file whose keys are the long flag names; each pair is parsed as the flag
``--key=value``, placed before the explicit flags so that those win; a
bad pair is reported with the file and its line.

Exit codes: 0 success, 2 usage, I/O or parse error (a bad flag and a bad
config line alike), 3 saturation, 5 unreachable precondition.

Each ``cmd_*(args, output)`` writes only through ``output(path)``, a binary
handle on a new sibling of ``path`` (:func:`util.replacing`). After the
command returns, whatever its code (``calibrate``'s 3 too), :func:`main`
flushes stdout and renames every staged file into place; any exception, a
failed flush included, deletes them all: a failed command writes nothing.

Every command takes one ``--seed``; internal randomness is derived from it
per role, so identical invocations produce byte-identical output files.
``baseline`` and ``simulate`` import ``regression`` and ``toymodel`` when
they run; no other command loads them.

``simulate`` runs its trials through :func:`util.map_jobs`: on Linux one
per CPU of the affinity mask at once, in this process and in workers
forked from it, as many at once as hold at most ``MAX_DRAWS`` draws
together; elsewhere all in this process. It writes the same rows,
summary, warnings and errors as one loop over the trials would.

The process entry :func:`run` keeps freed memory in the process: under
glibc it raises the heap-trim threshold to 128 MiB and the mmap
threshold to 32 MiB (:func:`keep_freed_memory`) before the command runs,
and the forked ``simulate`` workers inherit it. Otherwise glibc hands the
freed top of each heap back to the kernel, and the next ``simulate``
trial or ``evaluate`` row block faults the same pages in again. An
environment that sets either threshold itself keeps its values, and
:func:`main` leaves malloc as it finds it.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` before numpy
loads, whatever the environment says. OpenBLAS would otherwise start its
threads at ``import numpy`` in every command, and no command gains from
them: the only BLAS calls are the baseline's least-squares solve and
prediction, whose bits would then depend on the CPU count. A process that
loaded numpy before this module keeps numpy's own thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import math
import os
import re
import sys
from contextlib import ExitStack, closing
from functools import partial
from pathlib import Path

# before numpy loads, which starts OpenBLAS's threads (see the docstring)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import util
from .conformal import (
    KINDS,
    Calibrator,
    PredictorSpec,
    Threshold,
    calibrate,
    evaluate,
    load_threshold,
)
from .qtc import recalibrate
from .scores import DataFormatError, LabeledDataset, load_dataset
from .util import derive_seed, format_float, format_kv, parse_kv, reading, replacing

EVAL_CSV_HEADER = "method,predictor,alpha,tau,coverage,avg_set_size,median_set_size,n_eval,seed"

# a grid is materialised as a list and recalibrated point by point
MAX_ALPHA_GRID_POINTS = 10_000

# Largest --n, which sizes every draw: at 10**7 one trial peaks near
# 0.75 GB (see README). Also the most draws that the trials running at
# once hold together.
MAX_DRAWS = 10**7
# Largest --bins, the width of each corpus histogram and so of the
# least-squares design matrix
MAX_BINS = 10**4
# Largest --shifts, the corpus size and so the row count of the design
# matrix
MAX_SHIFTS = 10**3


def parse_alpha_grid(text: str) -> list[float]:
    """Parse an inclusive grid ``start:stop:step``.

    The stop endpoint is included when it lies within 1e-12 of a grid
    point. Grids of more than ``MAX_ALPHA_GRID_POINTS`` points are
    rejected before any point is built.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"alpha grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"alpha grid bounds must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"alpha grid step must be > 0, got {step}")
    if stop < start:
        raise ValueError(f"alpha grid stop {stop} is below start {start}")
    steps = (stop - start + 1e-12) // step
    if steps >= MAX_ALPHA_GRID_POINTS:
        raise ValueError(
            f"alpha grid {text!r} has more than {MAX_ALPHA_GRID_POINTS} points"
        )
    count = int(steps) + 1
    values = []
    for i in range(count):
        v = start + i * step
        # snap float-step noise (0.7999999999999999 for 0.7 + 0.1) to the
        # nearest short decimal so grid labels round-trip cleanly
        snapped = round(v, 10)
        values.append(snapped if abs(snapped - v) < 1e-12 else v)
    return [level(format_float(v)) for v in values]


def alpha_grid(text: str) -> float | list[float]:
    """One level, or the inclusive grid ``start:stop:step`` as a list
    (:func:`parse_alpha_grid`), as an argparse ``type=``: the syntax, not
    the point count, tells a grid, and a bad one is a usage error."""
    try:
        return parse_alpha_grid(text) if ":" in text else level(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def level(text: str) -> float:
    """One miscoverage level in (0, 1). As an argparse ``type=``, its name
    is what a rejection says: ``invalid level value: '0'``."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {value}")
    return value


def positive_int(text: str, limit: float = math.inf) -> int:
    """An integer from 1 to ``limit``, as an argparse ``type=`` (bind
    ``limit`` with :func:`functools.partial`). A non-integer gets the
    message of ``type=int``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    if value > limit:
        raise argparse.ArgumentTypeError(f"must be an integer <= {limit}, got {value}")
    return value


def _finite(text: str) -> float:
    """A finite number, as an argparse ``type=``. A non-number gets the
    message of ``type=float``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _probability(text: str) -> float:
    """A number in [0, 1], as an argparse ``type=``. A non-number or a
    non-finite one gets the message of :func:`_finite`."""
    value = _finite(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text}")
    return value


def _load_labeled(path) -> LabeledDataset:
    ds = load_dataset(path)
    if not isinstance(ds, LabeledDataset):
        raise DataFormatError(f"{path} must be labeled")
    return ds


# --- commands ---


def cmd_calibrate(args, output) -> int:
    spec = PredictorSpec(args.predictor, args.lam, args.kreg)
    cal = _load_labeled(args.cal)
    threshold = calibrate(spec, cal, args.alpha, derive_seed(args.seed, "calibrate"))
    output(args.out).write(format_kv(threshold.to_kv()).encode())
    print(f"tau={format_float(threshold.tau)} alpha={format_float(threshold.alpha)}")
    if threshold.saturated:
        print("warning: calibration saturated", file=sys.stderr)
        return 3
    return 0


def cmd_recalibrate(args, output) -> int:
    spec = PredictorSpec(args.predictor, args.lam, args.kreg)
    source = _load_labeled(args.source)
    target = load_dataset(args.target)
    calibrator = Calibrator(spec, source, derive_seed(args.seed, "recalibrate"))
    if not isinstance(args.alpha, list):
        threshold, est = recalibrate(calibrator, target, args.alpha, args.method)
        output(args.out).write(format_kv(threshold.to_kv()).encode())
        output(f"{args.out}.qtc").write(format_kv(est.to_kv()).encode())
        print(f"tau={format_float(threshold.tau)} alpha={format_float(threshold.alpha)}")
        return 0
    fh = output(args.out)
    fh.write(b"method,predictor,alpha,tau,q,estimate,seed\n")
    for alpha in args.alpha:
        threshold, est = recalibrate(calibrator, target, alpha, args.method)
        fields = map(format_float, [alpha, threshold.tau, est.q_threshold, est.value])
        fh.write((",".join([args.method, spec.kind, *fields, str(args.seed)]) + "\n").encode())
    print(f"wrote {len(args.alpha)} rows to {args.out}")
    return 0


def cmd_evaluate(args, output) -> int:
    out = Path(args.out)
    rows = out.read_bytes() if out.exists() else b""
    if not rows:
        rows = (EVAL_CSV_HEADER + "\n").encode()
    elif rows.splitlines()[0] != EVAL_CSV_HEADER.encode():
        raise DataFormatError(f"{out} exists but its first line is not the report header")
    elif not rows.endswith(b"\n"):
        # a row added after a last line without its newline would join it
        raise DataFormatError(f"{out} does not end with a newline")
    threshold = load_threshold(args.threshold)
    test = _load_labeled(args.test)
    report = evaluate(threshold, test, derive_seed(args.seed, "evaluate"))
    stats = [threshold.alpha, threshold.tau, report.coverage, report.avg_set_size]
    fields = map(format_float, [*stats, report.median_set_size])
    labels = [threshold.method, threshold.spec.kind]
    row = ",".join([*labels, *fields, str(report.n_eval), str(args.seed)])
    output(out).write(rows + (row + "\n").encode())
    print(f"coverage={format_float(report.coverage)} avg_set_size={format_float(report.avg_set_size)}")
    return 0


def cmd_baseline(args, output) -> int:
    from .regression import build_corpus, predict_tau, train, write_model
    spec = PredictorSpec(args.predictor, args.lam, args.kreg)
    cal = _load_labeled(args.cal)
    seed = derive_seed(args.seed, "corpus")
    corpus = build_corpus(cal, spec, args.alpha, args.shifts, args.extractor, args.bins, seed)
    model = train(corpus)
    print(f"corpus_size={corpus.size} final_loss={format_float(model.final_loss)}")
    write_model(model, output(args.model_out))
    if args.target is not None:
        target = load_dataset(args.target)
        method = f"baseline-{args.extractor}"
        threshold = Threshold(predict_tau(model, target), args.alpha, spec, method)
        output(f"{args.model_out}.tau").write(format_kv(threshold.to_kv()).encode())
        print(f"predicted_tau={format_float(threshold.tau)}")
    return 0


def cmd_simulate(args, output) -> int:
    """Judge each trial's ``|beta_qtc - beta|`` against the run's bound."""
    from .toymodel import (ToyClassifier, ToyModelParams, oracle_beta, run_theorem_trial,
                           theorem_bound)
    src = ToyModelParams(gamma=args.gamma, c=args.c, p=args.psrc)
    tgt = ToyModelParams(gamma=args.gamma, c=args.c, p=args.ptgt)
    clf = ToyClassifier(w_inv=args.winv, w_sp=args.wsp)
    beta = oracle_beta(src, tgt, clf, args.alpha)
    bound = theorem_bound(src, tgt, clf, args.n, args.delta)
    fixed = [args.alpha, args.delta, args.psrc, args.ptgt, args.winv, args.wsp]
    setting = ",".join([str(args.n), *map(format_float, fixed)])
    violations = 0
    coverage_err = 0.0
    max_share = 0.0

    def trial_report(trial):
        seed = derive_seed(args.seed, f"trial-{trial}")
        return run_theorem_trial(src, tgt, clf, args.alpha, args.n, seed)

    # concurrent trials hold at most MAX_DRAWS draws together
    reports = util.map_jobs(trial_report, args.trials, max_workers=MAX_DRAWS // args.n)
    fh = output(args.out)
    fh.write(b"trial_id,n,alpha,delta,p_src,p_tgt,w_inv,w_sp,"
             b"beta_true,beta_qtc,bound,violated,coverage\n")
    with closing(reports):
        for trial, report in enumerate(reports):
            deviation = abs(report.beta_qtc - beta)
            violated = deviation > bound
            violations += violated
            coverage_err += abs(report.achieved_target_coverage - (1.0 - args.alpha))
            max_share = max(max_share, deviation / bound)
            found = [beta, report.beta_qtc, bound]
            row = [str(trial), setting, *map(format_float, found), str(int(violated))]
            row.append(format_float(report.achieved_target_coverage))
            fh.write((",".join(row) + "\n").encode())
    print(
        f"trials={args.trials} violation_fraction={format_float(violations / args.trials)} "
        f"mean_coverage_error={format_float(coverage_err / args.trials)} "
        f"max_bound_share={format_float(max_share)}"
    )
    return 0


# --- parser ---


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` on a usage error, so that ``main`` reports a bad
    flag or config line like any other bad input and returns 2. Unlike
    argparse's, its negative numbers include ``-1e-3``, a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValueError(message)

    def _print_message(self, message, file=None):
        # argparse's own drops an OSError from the write, which is where an
        # unbuffered stdout fails (a buffered one fails at exit's flush)
        if message:
            (file or sys.stderr).write(message)

    def exit(self, status=0, message=None):
        # --help's text is flushed here, inside main, so that a stdout that
        # cannot be written fails like any other command
        sys.stdout.flush()
        super().exit(status, message)


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Insert each pair of ``--config FILE`` as the token ``--key=value``
    right after the subcommand. Explicit flags come later and so win; the
    single-token form keeps values that start with ``-`` intact."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv[1:])[0].config
    command = parser.commands.get(argv[0]) if argv else None
    if config is None or command is None:
        return argv
    return argv[:1] + _config_tokens(command, config) + argv[1:]


def _config_tokens(command: argparse.ArgumentParser, path) -> list[str]:
    """The pairs of a config file as ``--key=value`` tokens, in file order.
    Each value first goes through its option's type and choices on its own,
    so that a bad pair is reported as ``FILE:LINE: <argparse's message>``.
    argparse has no public call that parses one option without checking
    for the required ones, hence its two private names here."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        pairs = [
            (lineno, key, value)
            for lineno, line in enumerate(fh, start=1)
            for key, value in parse_kv([line], lineno).items()
        ]
    tokens = []
    for lineno, key, value in pairs:
        token = f"--{key}={value}"
        action = command._option_string_actions.get(f"--{key}")
        try:
            if key == "config":
                raise ValueError("a config file may not set config")
            if action is None:
                raise ValueError(f"unrecognized arguments: {token}")
            if action.nargs == 0:  # --help takes no value
                raise argparse.ArgumentError(action, f"ignored explicit argument {value!r}")
            command._get_values(action, [value])
        except (argparse.ArgumentError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        tokens.append(token)
    return tokens


def build_parser() -> argparse.ArgumentParser:
    # abbreviations are off, so that a flag and a config key each name one
    # option exactly and --config has a single spelling
    parser = _Parser(
        prog="cshift",
        description="Conformal prediction with quantile-based recalibration under shift.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's parser by name, which checks the pairs of --config
    parser.commands = sub.choices

    def add_defaulted(p, table):
        for flag, kind, default, text in table:
            p.add_argument(flag, type=kind, default=default, help=text + " (default %(default)s)")

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", metavar="FILE", help="key=value file read as --key=value flags")
        add_defaulted(p, [("--seed", int, 0, "master seed")])
        return p

    def add_predictor(p):
        p.add_argument("--predictor", required=True, choices=KINDS, help="conformity score")
        p.add_argument("--lambda", dest="lam", type=float, metavar="LAMBDA", help="raps penalty")
        p.add_argument("--kreg", type=int, help="raps penalty-free set size")

    p = add("calibrate", cmd_calibrate, "calibrate a threshold on labeled scores")
    p.add_argument("--cal", required=True, help="labeled calibration scores (csv or binary)")
    add_predictor(p)
    p.add_argument("--alpha", required=True, type=level, help="miscoverage level in (0, 1)")
    p.add_argument("--out", required=True, help="threshold file to write")

    p = add("recalibrate", cmd_recalibrate, "recalibrate for a shifted target")
    p.add_argument("--source", required=True, help="labeled source calibration scores")
    p.add_argument("--target", required=True, help="unlabeled target scores")
    add_predictor(p)
    p.add_argument("--alpha", required=True, type=alpha_grid,
                   help="level or inclusive grid start:stop:step")
    p.add_argument("--method", choices=util.METHODS, default="qtc", help="default %(default)s")
    p.add_argument("--out", required=True, help="threshold file (single alpha) or csv (grid)")

    p = add("evaluate", cmd_evaluate, "evaluate a threshold on labeled scores")
    p.add_argument("--test", required=True, help="labeled test scores")
    p.add_argument("--threshold", required=True, help="threshold file to evaluate")
    p.add_argument("--out", required=True, help="csv report to append to")

    p = add("baseline", cmd_baseline, "fit a threshold-regression baseline")
    p.add_argument("--cal", required=True, help="labeled source scores")
    add_predictor(p)
    p.add_argument("--alpha", required=True, type=level, help="miscoverage level in (0, 1)")
    p.add_argument("--extractor", required=True, choices=util.EXTRACTORS, help="corpus feature")
    add_defaulted(
        p,
        [
            ("--bins", partial(positive_int, limit=MAX_BINS), 10, "chr/chr-minus histogram bins"),
            ("--shifts", partial(positive_int, limit=MAX_SHIFTS), 90,
             "synthetic shift count incl. identity"),
        ],
    )
    p.add_argument("--model-out", required=True, help="model file to write")
    p.add_argument("--target", help="optional target scores to predict a threshold for, "
                                    "written to MODEL_OUT.tau")

    p = add("simulate", cmd_simulate, "run deviation-bound trials on the two-feature model")
    add_defaulted(
        p,
        [
            ("--trials", positive_int, 100, "trial count"),
            ("--n", partial(positive_int, limit=MAX_DRAWS), 10000, "rows per trial"),
            ("--alpha", level, "0.02", "target miscoverage level"),
            ("--delta", level, 0.1, "failure probability of the bound"),
            ("--psrc", _probability, 0.9, "source spurious agreement rate"),
            ("--ptgt", _probability, 0.7, "target spurious agreement rate"),
            ("--winv", _finite, 1.0, "invariant-feature weight"),
            ("--wsp", _finite, 0.5, "spurious-feature weight"),
            ("--gamma", _finite, 0.05, "lower end of the invariant feature's magnitude"),
            ("--c", _finite, 1.0, "upper end of the invariant feature's magnitude"),
        ],
    )
    p.add_argument("--out", required=True, help="trial csv to write")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_with_config(parser, argv))
        with ExitStack() as stack:
            code = args.func(args, lambda path: stack.enter_context(replacing(path)))
            sys.stdout.flush()
        return code
    except (util.CodedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


# mallopt's parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> bool:
    """Under glibc, set ``M_TRIM_THRESHOLD`` to 128 MiB and
    ``M_MMAP_THRESHOLD`` to 32 MiB, so that freed trial arrays and row-block
    temporaries stay in the heap for the next trial or block instead of
    being trimmed and faulted in again. True if it set them; False off
    glibc, or where the environment sets either threshold."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not this name
        glibc = None
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if (not glibc or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "MALLOC_MMAP_THRESHOLD_" in os.environ
            or "glibc.malloc.trim_threshold" in tunables
            or "glibc.malloc.mmap_threshold" in tunables):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    return True


def run() -> None:
    """Exit with :func:`main`'s code: the entry point of ``python -m
    cshift.cli`` and of the ``cshift`` script. It sets the malloc policy of
    :func:`keep_freed_memory` first; freezing the collector at the end
    spares the interpreter's final sweeps numpy's objects."""
    keep_freed_memory()
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # else the interpreter's flush at exit fails again, reports it and exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
