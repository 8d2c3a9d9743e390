#!/usr/bin/env python3
"""Walk through split calibration on synthetic 10-class scores.

Draws a calibration/test pool from a softmaxed-Gaussian family, fits the
three set constructions at alpha=0.1, and prints achieved coverage and
set sizes side by side. Repeated over a handful of splits to show the
coverage guarantee is a statement about the average, not a single draw.
"""

import numpy as np

from cshift.conformal import PredictorSpec, calibrate, evaluate
from cshift.scores import LabeledDataset, ScoreMatrix
from cshift.util import derive_seed

ALPHA = 0.1
N_POOL = 4000
N_CLASSES = 10
SPLITS = 20
MASTER_SEED = 7


def make_pool(seed):
    rng = np.random.default_rng(seed)
    logits = 2.0 * rng.standard_normal((N_POOL, N_CLASSES))
    v = np.exp(logits - logits.max(axis=1, keepdims=True))
    v /= v.sum(axis=1, keepdims=True)
    # labels follow each row's own distribution, so calibration and test
    # halves are exchangeable by construction
    cum = np.cumsum(v, axis=1)
    r = rng.random((N_POOL, 1))
    labels = np.minimum((cum < r).sum(axis=1), N_CLASSES - 1)
    return v, labels


def main():
    values, labels = make_pool(derive_seed(MASTER_SEED, "pool"))
    specs = [
        ("tps", PredictorSpec.tps()),
        ("aps", PredictorSpec.aps()),
        ("raps(0.1, 2)", PredictorSpec.raps(0.1, 2)),
    ]
    print(f"pool of {N_POOL} examples, {N_CLASSES} classes, alpha={ALPHA}")
    print(f"guarantee: mean coverage in [{1 - ALPHA}, {1 - ALPHA} + 1/(n_cal+1)]")
    print()
    header = f"{'predictor':<14} {'tau (1st split)':>16} {'mean cov':>9} {'avg |set|':>10}"
    print(header)
    print("-" * len(header))
    for name, spec in specs:
        coverages = []
        sizes = []
        first_tau = None
        for split in range(SPLITS):
            rng = np.random.default_rng(derive_seed(MASTER_SEED, f"split-{split}"))
            perm = rng.permutation(N_POOL)
            half = N_POOL // 2
            cal = LabeledDataset(ScoreMatrix(values[perm[:half]]), labels[perm[:half]])
            test = LabeledDataset(ScoreMatrix(values[perm[half:]]), labels[perm[half:]])
            threshold = calibrate(spec, cal, ALPHA, derive_seed(split, "cal"))
            report = evaluate(threshold, test, derive_seed(split, "eval"))
            if first_tau is None:
                first_tau = threshold.tau
            coverages.append(report.coverage)
            sizes.append(report.avg_set_size)
        print(
            f"{name:<14} {first_tau:>16.4f} {np.mean(coverages):>9.4f} {np.mean(sizes):>10.2f}"
        )
    print()
    print("raps trades a slightly different tau scale for smaller spread in")
    print("set sizes; all three land on the same coverage by design.")


if __name__ == "__main__":
    main()
