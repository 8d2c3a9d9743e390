#!/usr/bin/env python3
"""Coverage collapse under a confidence shift, and what recovers it.

The target family is the source family with temperature-flattened
scores: the classifier becomes both less confident and less accurate.
A threshold calibrated on the source then undercovers badly. The three
quantile-matching recalibrations only see UNLABELED target scores, yet
close most of the gap. Target labels are used here solely to measure
what each method achieved.
"""

import math

import numpy as np

from cshift.conformal import Calibrator, PredictorSpec, calibrate, evaluate
from cshift.qtc import METHODS, recalibrate
from cshift.regression import temperature_scale
from cshift.scores import LabeledDataset, ScoreMatrix, UnlabeledDataset

N = 20000
ALPHA = 0.1
LOG_TEMPERATURE = 0.5
SHARPEN = 0.25  # labels come from row^4 renormalized: accuracy tracks confidence


def family(n, n_classes, seed, scale=3.0):
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal((n, n_classes))
    v = np.exp(logits - logits.max(axis=1, keepdims=True))
    return v / v.sum(axis=1, keepdims=True)


def draw_labels(values, seed):
    sharp = temperature_scale(values, SHARPEN)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(sharp, axis=1)
    r = rng.random((values.shape[0], 1))
    return np.minimum((cum < r).sum(axis=1), values.shape[1] - 1)


def main():
    source_values = family(N, 10, seed=11)
    source = LabeledDataset(ScoreMatrix(source_values), draw_labels(source_values, seed=12))

    target_values = temperature_scale(family(N, 10, seed=13), math.exp(LOG_TEMPERATURE))
    target_labels = draw_labels(target_values, seed=14)
    target_hidden = UnlabeledDataset(ScoreMatrix(target_values))
    target_revealed = LabeledDataset(ScoreMatrix(target_values), target_labels)

    spec = PredictorSpec("tps")
    acc_src = float(np.mean(np.argmax(source_values, 1) == source.labels))
    acc_tgt = float(np.mean(np.argmax(target_values, 1) == target_labels))
    print(f"source accuracy {acc_src:.3f}, target accuracy {acc_tgt:.3f} "
          f"(log-temperature {LOG_TEMPERATURE})")
    print(f"aiming for coverage {1 - ALPHA} on the target\n")

    plain = calibrate(spec, source, ALPHA, seed=1)
    base = evaluate(plain, target_revealed, seed=3)
    print(f"{'method':<8} {'tau':>8} {'coverage':>9} {'gap':>8} {'avg |set|':>10}")
    print(f"{'none':<8} {plain.tau:>8.4f} {base.coverage:>9.4f} "
          f"{abs(base.coverage - (1 - ALPHA)):>8.4f} {base.avg_set_size:>10.2f}")
    source_cal = Calibrator(spec, source, seed=2)
    for method in METHODS:
        threshold, _ = recalibrate(source_cal, target_hidden, ALPHA, method)
        report = evaluate(threshold, target_revealed, seed=3)
        gap = abs(report.coverage - (1 - ALPHA))
        print(f"{method:<8} {threshold.tau:>8.4f} {report.coverage:>9.4f} "
              f"{gap:>8.4f} {report.avg_set_size:>10.2f}")
    print()
    print("every method pays for the recovered coverage with larger sets;")
    print("that is the honest price of a harder target distribution.")


if __name__ == "__main__":
    main()
