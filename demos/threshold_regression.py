#!/usr/bin/env python3
"""Predict calibration thresholds for unseen shifts with a linear fit.

Builds a corpus of synthetically shifted copies of one labeled source,
each summarized by a confidence histogram and paired with the threshold
its labels would have produced. One least-squares solve fits a linear
map from histogram to threshold. On fresh shifted targets the
prediction is compared against the threshold an oracle with labels
would have computed.
"""

import math

import numpy as np

from cshift.conformal import PredictorSpec, calibrate
from cshift.regression import (
    build_corpus,
    predict_tau,
    temperature_scale,
    train,
)
from cshift.scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from cshift.util import derive_seed

ALPHA = 0.1
N = 3000
N_CLASSES = 10
EXTRACTOR = "chr"
BINS = 10
SHIFTS = 60
SEED = 21


def family(n, seed, scale=2.5):
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal((n, N_CLASSES))
    v = np.exp(logits - logits.max(axis=1, keepdims=True))
    return v / v.sum(axis=1, keepdims=True)


def labels_from(values, seed):
    rng = np.random.default_rng(seed)
    cum = np.cumsum(values, axis=1)
    r = rng.random((values.shape[0], 1))
    return np.minimum((cum < r).sum(axis=1), values.shape[1] - 1)


def main():
    spec = PredictorSpec.tps()
    source_values = family(N, seed=derive_seed(SEED, "source"))
    source = LabeledDataset(
        ScoreMatrix(source_values), labels_from(source_values, derive_seed(SEED, "labels"))
    )

    print(f"corpus: {SHIFTS} synthetic shifts of one source, extractor={EXTRACTOR}")
    corpus = build_corpus(
        source, spec, ALPHA, SHIFTS, EXTRACTOR, BINS, derive_seed(SEED, "corpus")
    )
    model = train(corpus)
    print(f"least-squares fit, corpus loss {model.final_loss:.2e}\n")

    # deployment story: the population stays put, the classifier's
    # confidence drifts; labels persist while reported scores change
    print(f"{'target':<22} {'predicted tau':>13} {'oracle tau':>11} {'abs err':>8}")
    errors = []
    for log_t in (-0.6, -0.2, 0.2, 0.5, 0.9):
        shifted = temperature_scale(source_values, math.exp(log_t))
        target = UnlabeledDataset(ScoreMatrix(shifted))
        tau_hat = predict_tau(model, target, source_ref=source)
        # the oracle cheats: it uses the labels deployment would not have
        revealed = LabeledDataset(ScoreMatrix(shifted), source.labels)
        tau_star = calibrate(spec, revealed, ALPHA, seed=0).tau
        errors.append(abs(tau_hat - tau_star))
        print(f"log-temperature {log_t:>5.1f}  {tau_hat:>13.4f} {tau_star:>11.4f} {errors[-1]:>8.4f}")
    print(f"{'mean':<22} {'':>13} {'':>11} {np.mean(errors):>8.4f}\n")
    print("the regressor generalizes across the shift family it was trained")
    print("on; expect it to degrade on shifts of a genuinely different kind.")


if __name__ == "__main__":
    main()
