"""Acceptance checks, one test per numbered criterion.

Each criterion is a single test so the verbose run shows one pass/fail
line apiece. Tolerances and budgets sit as literals next to the
assertions they guard; shared toy-model constants come from the frozen
fixture in test_toymodel.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import labeled, sample_labels, softmax_rows, write_csv
from cshift.cli import main
from cshift.conformal import Calibrator, PredictorSpec, calibrate, evaluate
from cshift.qtc import estimate_beta_qtc, estimate_beta_qtc_sc, recalibrate
from cshift.regression import build_corpus, extract_features, temperature_scale, train
from cshift.scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from cshift.toymodel import run_theorem_trial, theorem_bound
from cshift.util import derive_seed
from test_toymodel import CLF, FIXTURE_BETA, SRC, TGT


def test_criterion_1_split_coverage_mean_lands_in_sandwich():
    started = time.monotonic()
    pool_values = softmax_rows(4000, 10, seed=101)
    pool_labels = sample_labels(pool_values, seed=102)
    specs = [PredictorSpec.tps(), PredictorSpec.aps(), PredictorSpec.raps(0.1, 2)]
    totals = [0.0 for _ in specs]
    n_splits = 200
    for split in range(n_splits):
        rng = np.random.default_rng(derive_seed(split, "split"))
        perm = rng.permutation(4000)
        cal = LabeledDataset(ScoreMatrix(pool_values[perm[:2000]]), pool_labels[perm[:2000]])
        test = LabeledDataset(ScoreMatrix(pool_values[perm[2000:]]), pool_labels[perm[2000:]])
        for i, spec in enumerate(specs):
            threshold = calibrate(spec, cal, 0.1, derive_seed(split, "cal"))
            report = evaluate(threshold, test, derive_seed(split, "eval"))
            totals[i] += report.coverage
    elapsed = time.monotonic() - started
    for spec, total in zip(specs, totals):
        mean = total / n_splits
        assert 0.89 <= mean <= 0.9105, f"{spec.kind}: mean coverage {mean}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_2_self_consistency_is_exact_within_one_over_n():
    for n in (10, 100, 1000):
        source = labeled(n, 6, seed=200 + n)
        tops = np.max(source.scores.values, axis=1)
        assert len(np.unique(tops)) == n  # the premise: distinct confidences
        target = UnlabeledDataset(source.scores)
        for alpha in (0.05, 0.1, 0.2):
            for estimator in (estimate_beta_qtc, estimate_beta_qtc_sc):
                value = estimator(source, target, alpha).value
                # the estimate is a count ratio; recover the integer count
                # and compare as rationals so no float tolerance sneaks in
                m = round(value * n)
                assert math.isclose(value, m / n, rel_tol=0.0, abs_tol=1e-12)
                assert abs(Fraction(m, n) - Fraction(str(alpha))) <= Fraction(1, n)


def test_criterion_3_deviation_bound_violation_fraction():
    started = time.monotonic()
    trials = 100
    bound = theorem_bound(SRC, TGT, CLF, 10**4, 0.1)
    violations = 0
    for t in range(trials):
        report = run_theorem_trial(SRC, TGT, CLF, 0.02, 10**4, derive_seed(3000, f"trial-{t}"))
        violations += abs(report.beta_qtc - FIXTURE_BETA) > bound
    assert violations / trials <= 0.15, f"{violations} of {trials} trials broke the bound"
    assert time.monotonic() - started < 300.0


def test_criterion_4_recalibrated_coverage_converges():
    target_level = 1.0 - 0.02
    errors_large, errors_small, coverages = [], [], []
    for k in range(20):
        seed = derive_seed(4000, f"pair-{k}")
        big = run_theorem_trial(SRC, TGT, CLF, 0.02, 50_000, seed)
        small = run_theorem_trial(SRC, TGT, CLF, 0.02, 1_000, seed)
        coverages.append(big.achieved_target_coverage)
        errors_large.append(abs(big.achieved_target_coverage - target_level))
        errors_small.append(abs(small.achieved_target_coverage - target_level))
    mean_coverage = sum(coverages) / len(coverages)
    assert abs(mean_coverage - target_level) <= 0.02
    assert sum(errors_large) / 20 < sum(errors_small) / 20


def test_criterion_5_temperature_shift_gap_is_at_least_halved():
    n = 20000
    alpha = 0.1
    temperature = math.exp(0.5)
    # labels come from power-sharpened rows, so accuracy rises steeply
    # with confidence and mistakes concentrate on the least confident
    # examples; quantile transfer overcorrects when labels instead follow
    # each row verbatim, because misses then spread over all confidence
    # levels
    sharpen = 1.0 / 4.0
    source_values = softmax_rows(n, 10, seed=501, scale=3.0)
    source = LabeledDataset(
        ScoreMatrix(source_values),
        sample_labels(temperature_scale(source_values, sharpen), seed=502),
    )
    target_values = temperature_scale(softmax_rows(n, 10, seed=503, scale=3.0), temperature)
    target_labeled = LabeledDataset(
        ScoreMatrix(target_values),
        sample_labels(temperature_scale(target_values, sharpen), seed=504),
    )
    target_unlabeled = UnlabeledDataset(ScoreMatrix(target_values))
    spec = PredictorSpec.tps()
    plain = calibrate(spec, source, alpha, seed=1)
    shifted, _ = recalibrate(Calibrator(spec, source, seed=2), target_unlabeled, alpha, "qtc")
    gap_plain = abs(evaluate(plain, target_labeled, seed=3).coverage - (1 - alpha))
    gap_qtc = abs(evaluate(shifted, target_labeled, seed=3).coverage - (1 - alpha))
    # the flattened scores must open a real gap for the ratio to mean anything
    assert gap_plain >= 0.02, f"shift produced no gap to close: {gap_plain}"
    assert gap_qtc <= 0.5 * gap_plain, f"gap {gap_plain} only reduced to {gap_qtc}"


def test_criterion_6_interpolation_and_histogram_features():
    # a single-entry corpus must be fit exactly
    d = labeled(120, 4, seed=62)
    corpus = build_corpus(d, PredictorSpec.tps(), 0.2, n_shifts=1, extractor="acr", seed=63)
    model = train(corpus)
    assert model.final_loss <= 1e-6

    # confidence histograms are distributions on every random input
    rng = np.random.default_rng(65)
    for _ in range(1000):
        rows = int(rng.integers(1, 40))
        classes = int(rng.integers(2, 12))
        values = softmax_rows(rows, classes, seed=int(rng.integers(2**31)))
        feat = extract_features(
            UnlabeledDataset(ScoreMatrix(values)), "chr", bins=int(rng.integers(2, 16))
        )
        assert feat.sum() == pytest.approx(1.0, abs=1e-12)


def test_criterion_7_imagenet_scores_pass_through(tmp_path):
    val_path = os.environ.get("CSHIFT_IMAGENET_VAL")
    sketch_path = os.environ.get("CSHIFT_IMAGENET_SKETCH")
    if not val_path or not sketch_path:
        pytest.skip(
            "SKIPPED: set CSHIFT_IMAGENET_VAL and CSHIFT_IMAGENET_SKETCH "
            "to labeled score CSVs to run this check"
        )
    for path in (val_path, sketch_path):
        if not os.path.exists(path):
            pytest.skip(f"SKIPPED: score file {path} not found")
    expected = {"aps": 0.64, "tps": 0.38}
    for kind, known_coverage in expected.items():
        threshold_file = tmp_path / f"{kind}.thr"
        report_file = tmp_path / f"{kind}.csv"
        rc = main(
            [
                "calibrate",
                "--predictor",
                kind,
                "--alpha",
                "0.1",
                "--cal",
                val_path,
                "--out",
                str(threshold_file),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "evaluate",
                "--test",
                sketch_path,
                "--threshold",
                str(threshold_file),
                "--out",
                str(report_file),
            ]
        )
        assert rc == 0
        coverage = float(report_file.read_text().splitlines()[1].split(",")[4])
        assert abs(coverage - known_coverage) <= 0.02, f"{kind}: coverage {coverage}"


OUT = object()  # placeholder swapped for a per-run path below


def test_criterion_8_every_command_reruns_byte_identical(tmp_path):
    cal = tmp_path / "cal.csv"
    values = softmax_rows(120, 5, seed=801)
    write_csv(cal, values, sample_labels(values, seed=802))
    tgt = tmp_path / "tgt.csv"
    write_csv(tgt, softmax_rows(80, 5, seed=803))
    test_file = tmp_path / "test.csv"
    test_values = softmax_rows(90, 5, seed=804)
    write_csv(test_file, test_values, sample_labels(test_values, seed=805))

    thr = tmp_path / "fixed.thr"
    rc = main(
        ["calibrate", "--predictor", "aps", "--alpha", "0.1", "--cal", str(cal), "--out", str(thr)]
    )
    assert rc == 0

    cases = [
        (
            "calibrate",
            ["calibrate", "--predictor", "aps", "--alpha", "0.1", "--cal", str(cal), "--seed", "3", "--out", OUT],
            [""],
        ),
        (
            "recalibrate",
            ["recalibrate", "--predictor", "tps", "--alpha", "0.1", "--method", "qtc", "--source", str(cal), "--target", str(tgt), "--seed", "3", "--out", OUT],
            ["", ".qtc"],
        ),
        (
            "recalibrate-grid",
            ["recalibrate", "--predictor", "tps", "--alpha", "0.05:0.15:0.05", "--method", "qtc-sc", "--source", str(cal), "--target", str(tgt), "--seed", "3", "--out", OUT],
            [""],
        ),
        (
            "evaluate",
            ["evaluate", "--test", str(test_file), "--threshold", str(thr), "--seed", "4", "--out", OUT],
            [""],
        ),
        (
            "baseline",
            ["baseline", "--predictor", "tps", "--alpha", "0.1", "--extractor", "chr", "--bins", "4", "--shifts", "5", "--cal", str(cal), "--target", str(tgt), "--seed", "5", "--model-out", OUT],
            ["", ".tau"],
        ),
        (
            "simulate",
            ["simulate", "--trials", "2", "--n", "1500", "--alpha", "0.02", "--seed", "6", "--out", OUT],
            [""],
        ),
    ]
    for label, template, suffixes in cases:
        runs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{label}-{tag}-out"
            argv = [str(out) if a is OUT else a for a in template]
            assert main(argv) == 0, label
            runs.append([Path(f"{out}{suffix}").read_bytes() for suffix in suffixes])
        assert runs[0] == runs[1], f"{label} rerun changed its output bytes"
