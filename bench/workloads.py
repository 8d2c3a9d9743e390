"""Seeded inputs and the fixed command list of each benchmark workload.

Shifted score matrices come from a true-class-margin model: every class
gets a standard normal logit, the true class gets an extra margin drawn
from N(mu, sd^2), and the logits are scaled and softmaxed. The target
distribution has a smaller mean margin than the source, so it is less
confident and less accurate, and its errors sit on its least-confident
rows, which is the condition QTC needs.

Inputs depend on the workload seed only. Every command also receives
that seed as ``--seed``, so one seed fixes every output byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cshift import scores

# (n, L, source margin mean, target margin mean, margin sd, logit scale)
WIDE_SHAPE = dict(n=10_000, L=1000, mu_src=5.0, mu_tgt=4.2, sd=2.0, scale=1.6)
NARROW_SHAPE = dict(n=20_000, L=10, mu_src=3.0, mu_tgt=2.2, sd=1.5, scale=1.0)
EXPERIMENT_SHAPE = dict(n=2_000, L=10, mu_src=3.0, mu_tgt=2.2, sd=1.5, scale=1.0)

ALPHA = "0.1"
RAPS_FLAGS = ["--lambda", "0.01", "--kreg", "5"]
WIDE_ST_GRID = "0.05:0.15:0.05"
NARROW_GRID = "0.01:0.3:0.01"
SIM_TRIALS = 200
SIM_N = 10_000

# Shapes that were tried and left out, with the reason; recorded with
# every result.
LEFT_OUT = [
    "n=50k x L=1000 as CSV: writing the CSV alone took ~10 s at n=10k, so one "
    "set-up would exceed the per-run time budget",
    "n=50k x L=1000 binary: 400 MB per matrix and ~5x that in aps sort "
    "temporaries per command, too much for a shared 8 GB machine",
]


def margin_scores(rng, n, L, mu, sd, scale):
    """(n, L) softmax rows and the true label of each row."""
    labels = rng.integers(0, L, size=n)
    logits = rng.standard_normal((n, L))
    logits[np.arange(n), labels] += mu + sd * rng.standard_normal(n)
    logits *= scale
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits, labels


def write_shifted_sets(seed, shape, out_dir: Path, names, suffix):
    """Write the labeled source, unlabeled target and labeled test files.

    ``names`` lists which of ("source", "target", "test") to write. Each
    set draws from its own stream, so a set's bytes do not depend on which
    other sets are written.
    """
    roles = {"source": (0, shape["mu_src"], True), "target": (1, shape["mu_tgt"], False),
             "test": (2, shape["mu_tgt"], True)}
    paths = {}
    for name in names:
        role, mu, labeled = roles[name]
        rng = np.random.default_rng([seed, role])
        values, labels = margin_scores(rng, shape["n"], shape["L"], mu, shape["sd"], shape["scale"])
        matrix = scores.ScoreMatrix(values)
        data = scores.LabeledDataset(matrix, labels) if labeled else scores.UnlabeledDataset(matrix)
        paths[name] = out_dir / f"{name}{suffix}"
        scores.save_dataset(data, paths[name])
    return paths


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a short name, its argv after ``cshift``, the
    output files it writes (relative to the pass directory)."""

    name: str
    argv: list
    outputs: tuple


@dataclass
class Workload:
    name: str
    why: str
    input_names: tuple
    suffix: str
    shape: dict
    commands: callable = field(repr=False)

    def make_inputs(self, seed, in_dir: Path):
        return write_shifted_sets(seed, self.shape, in_dir, self.input_names, self.suffix)


def _wide_commands(seed, inp, out):
    s = ["--seed", str(seed)]
    src, tgt, test = str(inp["source"]), str(inp["target"]), str(inp["test"])
    o = lambda f: str(out / f)  # noqa: E731
    return [
        Command("calibrate-aps", ["calibrate", "--cal", src, "--predictor", "aps",
                                  "--alpha", ALPHA, "--out", o("cal_aps.thr"), *s], ("cal_aps.thr",)),
        Command("calibrate-raps", ["calibrate", "--cal", src, "--predictor", "raps", *RAPS_FLAGS,
                                   "--alpha", ALPHA, "--out", o("cal_raps.thr"), *s], ("cal_raps.thr",)),
        Command("recalibrate-aps-qtc", ["recalibrate", "--source", src, "--target", tgt,
                                        "--predictor", "aps", "--alpha", ALPHA, "--method", "qtc",
                                        "--out", o("rec_aps_qtc.thr"), *s],
                ("rec_aps_qtc.thr", "rec_aps_qtc.thr.qtc")),
        Command("recalibrate-raps-qtc-sc", ["recalibrate", "--source", src, "--target", tgt,
                                            "--predictor", "raps", *RAPS_FLAGS, "--alpha", ALPHA,
                                            "--method", "qtc-sc", "--out", o("rec_raps_qtcsc.thr"), *s],
                ("rec_raps_qtcsc.thr", "rec_raps_qtcsc.thr.qtc")),
        Command("recalibrate-aps-qtc-st-grid", ["recalibrate", "--source", src, "--target", tgt,
                                                "--predictor", "aps", "--alpha", WIDE_ST_GRID,
                                                "--method", "qtc-st", "--out", o("grid_aps_qtcst.csv"), *s],
                ("grid_aps_qtcst.csv",)),
        Command("evaluate-aps", ["evaluate", "--test", test, "--threshold", o("cal_aps.thr"),
                                 "--out", o("report.csv"), *s], ("report.csv",)),
        Command("evaluate-aps-qtc", ["evaluate", "--test", test, "--threshold", o("rec_aps_qtc.thr"),
                                     "--out", o("report.csv"), *s], ("report.csv",)),
    ]


def _narrow_commands(seed, inp, out):
    s = ["--seed", str(seed)]
    src, tgt, test = str(inp["source"]), str(inp["target"]), str(inp["test"])
    o = lambda f: str(out / f)  # noqa: E731
    return [
        Command("calibrate-tps", ["calibrate", "--cal", src, "--predictor", "tps",
                                  "--alpha", ALPHA, "--out", o("cal_tps.thr"), *s], ("cal_tps.thr",)),
        Command("calibrate-aps", ["calibrate", "--cal", src, "--predictor", "aps",
                                  "--alpha", ALPHA, "--out", o("cal_aps.thr"), *s], ("cal_aps.thr",)),
        Command("recalibrate-tps-qtc", ["recalibrate", "--source", src, "--target", tgt,
                                        "--predictor", "tps", "--alpha", ALPHA, "--method", "qtc",
                                        "--out", o("rec_tps_qtc.thr"), *s],
                ("rec_tps_qtc.thr", "rec_tps_qtc.thr.qtc")),
        Command("recalibrate-tps-qtc-sc-grid", ["recalibrate", "--source", src, "--target", tgt,
                                                "--predictor", "tps", "--alpha", NARROW_GRID,
                                                "--method", "qtc-sc", "--out", o("grid_tps_qtcsc.csv"), *s],
                ("grid_tps_qtcsc.csv",)),
        Command("recalibrate-aps-qtc-st-grid", ["recalibrate", "--source", src, "--target", tgt,
                                                "--predictor", "aps", "--alpha", NARROW_GRID,
                                                "--method", "qtc-st", "--out", o("grid_aps_qtcst.csv"), *s],
                ("grid_aps_qtcst.csv",)),
        Command("evaluate-tps", ["evaluate", "--test", test, "--threshold", o("cal_tps.thr"),
                                 "--out", o("report.csv"), *s], ("report.csv",)),
        Command("evaluate-tps-qtc", ["evaluate", "--test", test, "--threshold", o("rec_tps_qtc.thr"),
                                     "--out", o("report.csv"), *s], ("report.csv",)),
        Command("evaluate-aps", ["evaluate", "--test", test, "--threshold", o("cal_aps.thr"),
                                 "--out", o("report.csv"), *s], ("report.csv",)),
    ]


def _experiment_commands(seed, inp, out):
    s = ["--seed", str(seed)]
    cal, tgt = str(inp["source"]), str(inp["target"])
    o = lambda f: str(out / f)  # noqa: E731
    return [
        Command("baseline-chr", ["baseline", "--cal", cal, "--predictor", "tps", "--alpha", ALPHA,
                                 "--extractor", "chr", "--model-out", o("chr.model"),
                                 "--target", tgt, *s], ("chr.model", "chr.model.tau")),
        Command("baseline-pcr", ["baseline", "--cal", cal, "--predictor", "aps", "--alpha", ALPHA,
                                 "--extractor", "pcr", "--model-out", o("pcr.model"),
                                 "--target", tgt, *s], ("pcr.model", "pcr.model.tau")),
        Command("simulate", ["simulate", "--trials", str(SIM_TRIALS), "--n", str(SIM_N),
                             "--out", o("trials.csv"), *s], ("trials.csv",)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-aps", "ImageNet-like n=10k, L=1000 binary files: the aps/raps sort and "
                 "evaluate's second sort take almost all the time",
                 ("source", "target", "test"), ".bin", WIDE_SHAPE, _wide_commands),
        Workload("narrow-csv", "CIFAR-like n=20k, L=10 CSV files: process start, imports, CSV "
                 "parsing and the per-alpha loop dominate; the sort kernel does not",
                 ("source", "target", "test"), ".csv", NARROW_SHAPE, _narrow_commands),
        Workload("experiments", "regression baseline training and toy-model Monte Carlo, which "
                 "the other two workloads never run",
                 ("source", "target"), ".csv", EXPERIMENT_SHAPE, _experiment_commands),
    )
}
