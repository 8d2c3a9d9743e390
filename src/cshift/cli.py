"""Command-line interface.

Subcommands: ``calibrate``, ``recalibrate``, ``evaluate``, ``baseline``,
``simulate``. Flags may also be supplied through ``--config FILE``, a flat
``key=value`` file whose keys are the long flag names; explicit flags win.

Exit codes: 0 success, 2 I/O or parse error, 3 saturation (``calibrate``
still writes its threshold file first), 4 numeric failure during training,
5 unreachable precondition.

Every command takes one ``--seed``; internal randomness is derived from it
per role, so identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .conformal import (
    Calibrator,
    PredictorSpec,
    SaturationError,
    Threshold,
    calibrate,
    evaluate,
    load_threshold,
    save_threshold,
)
from .qtc import METHODS, recalibrate, save_estimate
from .regression import (
    EXTRACTORS,
    TrainingDivergedError,
    build_corpus,
    extract_features,
    predict_tau,
    save_model,
    train,
)
from .scores import DataFormatError, LabeledDataset, load_dataset
from .toymodel import (
    TRIAL_CSV_HEADER,
    PreconditionError,
    ToyClassifier,
    ToyModelParams,
    check_error_rates,
    oracle_beta,
    run_theorem_trial,
    trial_csv_row,
)
from .util import derive_seed, format_float, read_kv

EVAL_CSV_HEADER = "method,predictor,alpha,tau,coverage,avg_set_size,median_set_size,n_eval,seed"

# a grid is materialised as a list and recalibrated point by point
MAX_ALPHA_GRID_POINTS = 10_000

_REQUIRED = object()


def parse_alpha_grid(text: str) -> list[float]:
    """Parse ``0.1`` or an inclusive grid ``start:stop:step``.

    The stop endpoint is included when it lies within 1e-12 of a grid
    point. Grids of more than ``MAX_ALPHA_GRID_POINTS`` points are
    rejected before any point is built.
    """
    if ":" not in text:
        return [_parse_alpha(text)]
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
    return [_parse_alpha(format_float(v)) for v in values]


def _parse_alpha(text) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {value}")
    return value


def _predictor_from_args(args) -> PredictorSpec:
    if args.predictor == "raps":
        if args.lam is None or args.kreg is None:
            raise ValueError("raps requires --lambda and --kreg")
        return PredictorSpec.raps(args.lam, args.kreg)
    if args.lam is not None or args.kreg is not None:
        raise ValueError(f"--lambda/--kreg are only valid with raps, not {args.predictor}")
    return PredictorSpec(args.predictor)


def _load_labeled(path) -> LabeledDataset:
    ds = load_dataset(path)
    if not isinstance(ds, LabeledDataset):
        raise DataFormatError(f"{path} must be labeled")
    return ds


def _merge_config(args, defaults: dict) -> None:
    cfg = {}
    if getattr(args, "config", None):
        cfg = {k.replace("-", "_"): v for k, v in read_kv(args.config).items()}
        # config keys mirror the long flag names; --lambda stores to lam
        if "lambda" in cfg:
            cfg["lam"] = cfg.pop("lambda")
    missing = []
    for dest, default in defaults.items():
        if getattr(args, dest, None) is not None:
            continue
        if dest in cfg:
            caster = _CASTS.get(dest, str)
            setattr(args, dest, caster(cfg[dest]))
        elif default is _REQUIRED:
            missing.append(dest)
        else:
            setattr(args, dest, default)
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise ValueError(f"missing required option(s): {flags}")


_CASTS = {
    "alpha": str,
    "seed": int,
    "kreg": int,
    "bins": int,
    "shifts": int,
    "epochs": int,
    "trials": int,
    "n": int,
    "nmc": int,
    "lam": float,
    "lr": float,
    "delta": float,
    "psrc": float,
    "ptgt": float,
    "winv": float,
    "wsp": float,
    "gamma": float,
    "c": float,
}


# --- commands ---


def cmd_calibrate(args) -> int:
    _merge_config(
        args,
        {
            "cal": _REQUIRED,
            "predictor": _REQUIRED,
            "alpha": _REQUIRED,
            "out": _REQUIRED,
            "seed": 0,
            "lam": None,
            "kreg": None,
        },
    )
    spec = _predictor_from_args(args)
    (alpha,) = parse_alpha_grid(args.alpha)
    cal = _load_labeled(args.cal)
    threshold = calibrate(spec, cal, alpha, derive_seed(args.seed, "calibrate"))
    save_threshold(threshold, args.out, spec=spec, method="none")
    print(f"tau={format_float(threshold.tau)} alpha={format_float(threshold.alpha)}")
    if threshold.is_saturated:
        print("warning: calibration saturated", file=sys.stderr)
        return 3
    return 0


def cmd_recalibrate(args) -> int:
    _merge_config(
        args,
        {
            "source": _REQUIRED,
            "target": _REQUIRED,
            "predictor": _REQUIRED,
            "alpha": _REQUIRED,
            "method": "qtc",
            "out": _REQUIRED,
            "seed": 0,
            "lam": None,
            "kreg": None,
        },
    )
    if args.method not in METHODS:
        raise ValueError(f"--method must be one of {METHODS}, got {args.method!r}")
    spec = _predictor_from_args(args)
    alphas = parse_alpha_grid(args.alpha)
    source = _load_labeled(args.source)
    target = load_dataset(args.target)
    calibrator = Calibrator(spec, source, derive_seed(args.seed, "recalibrate"))
    if len(alphas) == 1:
        threshold, est = recalibrate(calibrator, target, alphas[0], args.method)
        save_threshold(threshold, args.out, spec=spec, method=args.method)
        save_estimate(est, str(args.out) + ".qtc")
        print(f"tau={format_float(threshold.tau)} alpha={format_float(threshold.alpha)}")
        return 0
    lines = ["method,predictor,alpha,tau,q,estimate,seed"]
    for alpha in alphas:
        threshold, est = recalibrate(calibrator, target, alpha, args.method)
        lines.append(
            ",".join(
                [
                    args.method,
                    spec.kind,
                    format_float(alpha),
                    format_float(threshold.tau),
                    format_float(est.q_threshold),
                    format_float(est.value),
                    str(args.seed),
                ]
            )
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(alphas)} rows to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _merge_config(
        args,
        {"test": _REQUIRED, "threshold": _REQUIRED, "out": _REQUIRED, "seed": 0},
    )
    threshold, spec, method = load_threshold(args.threshold)
    if spec is None:
        raise ValueError(f"{args.threshold} does not record its predictor")
    test = _load_labeled(args.test)
    report = evaluate(spec, threshold, test, derive_seed(args.seed, "evaluate"))
    row = ",".join(
        [
            method,
            spec.kind,
            format_float(threshold.alpha),
            format_float(threshold.tau),
            format_float(report.coverage),
            format_float(report.avg_set_size),
            format_float(report.median_set_size),
            str(report.n_eval),
            str(args.seed),
        ]
    )
    out = Path(args.out)
    fresh = not out.exists()
    with open(out, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(EVAL_CSV_HEADER + "\n")
        fh.write(row + "\n")
    print(f"coverage={format_float(report.coverage)} avg_set_size={format_float(report.avg_set_size)}")
    return 0


def cmd_baseline(args) -> int:
    _merge_config(
        args,
        {
            "cal": _REQUIRED,
            "predictor": _REQUIRED,
            "alpha": _REQUIRED,
            "extractor": _REQUIRED,
            "model_out": _REQUIRED,
            "bins": 10,
            "shifts": 90,
            "epochs": 5000,
            "lr": 1e-3,
            "target": None,
            "pred_out": None,
            "seed": 0,
            "lam": None,
            "kreg": None,
        },
    )
    spec = _predictor_from_args(args)
    if args.extractor not in EXTRACTORS:
        raise ValueError(f"--extractor must be one of {EXTRACTORS}, got {args.extractor!r}")
    (alpha,) = parse_alpha_grid(args.alpha)
    cal = _load_labeled(args.cal)
    corpus = build_corpus(
        cal, spec, alpha, args.shifts, args.extractor, args.bins, derive_seed(args.seed, "corpus")
    )
    model = train(corpus, args.epochs, args.lr, derive_seed(args.seed, "train"))
    save_model(model, args.model_out)
    print(f"corpus_size={corpus.size} final_loss={format_float(model.final_loss)}")
    if args.target is not None:
        target = load_dataset(args.target)
        feature = extract_features(target, args.extractor, args.bins, source_ref=cal)
        tau = predict_tau(model, feature)
        threshold = Threshold(
            tau=tau, alpha=alpha, source_tag=f"baseline:{args.extractor}:alpha={format_float(alpha)}"
        )
        out = args.pred_out or str(args.model_out) + ".tau"
        save_threshold(threshold, out, spec=spec, method=f"baseline-{args.extractor}")
        print(f"predicted_tau={format_float(tau)}")
    return 0


def cmd_simulate(args) -> int:
    _merge_config(
        args,
        {
            "trials": 100,
            "n": 10000,
            "alpha": "0.02",
            "delta": 0.1,
            "psrc": 0.9,
            "ptgt": 0.7,
            "winv": 1.0,
            "wsp": 0.5,
            "gamma": 0.05,
            "c": 1.0,
            "nmc": 10**6,
            "out": _REQUIRED,
            "seed": 0,
        },
    )
    (alpha,) = parse_alpha_grid(args.alpha)
    src = ToyModelParams(gamma=args.gamma, c=args.c, p=args.psrc)
    tgt = ToyModelParams(gamma=args.gamma, c=args.c, p=args.ptgt)
    clf = ToyClassifier(w_inv=args.winv, w_sp=args.wsp)
    check_error_rates(src, tgt, clf, alpha, args.nmc, args.seed)
    beta = oracle_beta(src, tgt, clf, alpha, args.nmc, derive_seed(args.seed, "oracle"))
    lines = [TRIAL_CSV_HEADER]
    violations = 0
    coverage_err = 0.0
    for trial in range(args.trials):
        report = run_theorem_trial(
            src,
            tgt,
            clf,
            alpha,
            args.n,
            args.delta,
            derive_seed(args.seed, f"trial-{trial}"),
            beta_oracle=beta,
        )
        violations += report.violated
        coverage_err += abs(report.achieved_target_coverage - (1.0 - alpha))
        lines.append(trial_csv_row(trial, src, tgt, clf, alpha, args.n, args.delta, report))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(
        f"trials={args.trials} violation_fraction={format_float(violations / args.trials)} "
        f"mean_coverage_error={format_float(coverage_err / args.trials)}"
    )
    return 0


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cshift",
        description="Conformal prediction with quantile-based recalibration under shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value file of defaults for this command")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        return p

    p = add("calibrate", cmd_calibrate, "calibrate a threshold on labeled scores")
    p.add_argument("--cal", help="labeled calibration scores (csv or binary)")
    p.add_argument("--predictor", choices=["tps", "aps", "raps"])
    p.add_argument("--alpha", help="miscoverage level in (0, 1)")
    p.add_argument("--lambda", dest="lam", type=float, help="raps penalty")
    p.add_argument("--kreg", type=int, help="raps penalty-free set size")
    p.add_argument("--out", help="threshold file to write")

    p = add("recalibrate", cmd_recalibrate, "recalibrate for a shifted target")
    p.add_argument("--source", help="labeled source calibration scores")
    p.add_argument("--target", help="unlabeled target scores")
    p.add_argument("--predictor", choices=["tps", "aps", "raps"])
    p.add_argument("--alpha", help="level or inclusive grid start:stop:step")
    p.add_argument("--method", choices=list(METHODS))
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--kreg", type=int)
    p.add_argument("--out", help="threshold file (single alpha) or csv (grid)")

    p = add("evaluate", cmd_evaluate, "evaluate a threshold on labeled scores")
    p.add_argument("--test", help="labeled test scores")
    p.add_argument("--threshold", help="threshold file from calibrate/recalibrate/baseline")
    p.add_argument("--out", help="csv report to append to")

    p = add("baseline", cmd_baseline, "train a threshold-regression baseline")
    p.add_argument("--cal", help="labeled source scores")
    p.add_argument("--predictor", choices=["tps", "aps", "raps"])
    p.add_argument("--alpha")
    p.add_argument("--extractor", choices=list(EXTRACTORS))
    p.add_argument("--bins", type=int, help="chr/chr-minus histogram bins (default 10)")
    p.add_argument("--shifts", type=int, help="synthetic shift count incl. identity (default 90)")
    p.add_argument("--epochs", type=int, help="training epochs (default 5000)")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--kreg", type=int)
    p.add_argument("--model-out", dest="model_out", help="model file to write")
    p.add_argument("--target", help="optional target scores to predict a threshold for")
    p.add_argument("--pred-out", dest="pred_out", help="threshold file for the prediction")

    p = add("simulate", cmd_simulate, "run deviation-bound trials on the two-feature model")
    p.add_argument("--trials", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha")
    p.add_argument("--delta", type=float)
    p.add_argument("--psrc", type=float, help="source spurious agreement rate")
    p.add_argument("--ptgt", type=float, help="target spurious agreement rate")
    p.add_argument("--winv", type=float, help="invariant-feature weight")
    p.add_argument("--wsp", type=float, help="spurious-feature weight")
    p.add_argument("--gamma", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--nmc", type=int, help="Monte Carlo draws for oracle quantities")
    p.add_argument("--out", help="trial csv to write")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except SaturationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
