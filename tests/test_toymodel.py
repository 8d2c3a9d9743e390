import math

import numpy as np
import pytest

from cshift.toymodel import (
    PreconditionError,
    ToyClassifier,
    ToyModelParams,
    ToySampleBatch,
    check_error_rates,
    classifier_error_rate,
    classify,
    oracle_beta,
    oracle_tau,
    run_theorem_trial,
    sample,
    spurious_mass,
    theorem_bound,
    to_dataset,
)
from cshift.util import derive_seed

SRC = ToyModelParams(gamma=0.05, c=1.0, p=0.9)
TGT = ToyModelParams(gamma=0.05, c=1.0, p=0.7)
CLF = ToyClassifier(w_inv=1.0, w_sp=0.5)

# frozen Monte Carlo fixture: n_mc=10**7 draws under this seed; the
# analytic values for the default regime are tau = sigmoid(29/75) and
# beta = alpha (1 - p_src) / (1 - p_tgt) = 1/150
FIXTURE_SEED = 1234
FIXTURE_N_MC = 10**7
FIXTURE_TAU = 0.5955051333603529
FIXTURE_BETA = 0.0066267


def _batch(x_inv, x_sp, y):
    return ToySampleBatch(
        np.asarray(x_inv, dtype=np.float64),
        np.asarray(x_sp, dtype=np.float64),
        np.asarray(y, dtype=np.int64),
    )


def test_param_validation():
    with pytest.raises(ValueError):
        ToyModelParams(gamma=0.5, c=0.5, p=0.9)
    with pytest.raises(ValueError):
        ToyModelParams(gamma=-0.1, c=1.0, p=0.9)
    with pytest.raises(ValueError):
        ToyModelParams(gamma=0.1, c=1.0, p=1.2)
    with pytest.raises(ValueError):
        ToyClassifier(w_inv=0.0, w_sp=0.5)
    with pytest.raises(ValueError):
        ToyClassifier(w_inv=1.0, w_sp=0.0)


def test_sample_degenerate_agreement():
    b1 = sample(ToyModelParams(0.05, 1.0, 1.0), 500, seed=0)
    np.testing.assert_array_equal(b1.x_sp, b1.y)
    b0 = sample(ToyModelParams(0.05, 1.0, 0.0), 500, seed=0)
    np.testing.assert_array_equal(b0.x_sp, -b0.y)


def test_sample_agreement_rate_concentrates():
    b = sample(SRC, 10**5, seed=3)
    rate = float(np.mean(b.x_sp == b.y))
    assert abs(rate - 0.9) <= 0.01


def test_sample_conditional_support():
    b = sample(SRC, 2000, seed=5)
    pos = b.y == 1
    assert np.all((b.x_inv[pos] >= SRC.gamma) & (b.x_inv[pos] <= SRC.c))
    assert np.all((b.x_inv[~pos] <= -SRC.gamma) & (b.x_inv[~pos] >= -SRC.c))
    assert set(np.unique(b.y)) <= {-1, 1}
    assert set(np.unique(b.x_sp)) <= {-1.0, 1.0}


def test_sample_deterministic():
    a = sample(SRC, 100, seed=9)
    b = sample(SRC, 100, seed=9)
    np.testing.assert_array_equal(a.x_inv, b.x_inv)
    np.testing.assert_array_equal(a.x_sp, b.x_sp)


def test_classify_at_zero_logit():
    batch = _batch([-0.5], [1.0], [1])
    np.testing.assert_allclose(classify(CLF, batch), [[0.5, 0.5]])


def test_classify_hand_value():
    clf = ToyClassifier(w_inv=1.0, w_sp=1.0)
    batch = _batch([2.0], [1.0], [1])
    row = classify(clf, batch)[0]
    assert row[1] == pytest.approx(math.exp(3) / (1 + math.exp(3)), abs=1e-12)
    assert row[0] == pytest.approx(1 / (1 + math.exp(3)), abs=1e-12)
    assert row[1] == pytest.approx(0.9526, abs=1e-4)


def test_classify_negation_swaps_pair():
    batch = _batch([0.3, -0.3], [1.0, -1.0], [1, -1])
    rows = classify(CLF, batch)
    np.testing.assert_allclose(rows[0], rows[1][::-1], atol=1e-15)


def test_classify_monotone_in_invariant_feature():
    x = np.linspace(0.05, 1.0, 25)
    batch = _batch(x, np.ones_like(x), np.ones(25, dtype=np.int64))
    p1 = classify(CLF, batch)[:, 1]
    assert np.all(np.diff(p1) > 0)


def test_to_dataset_mapping():
    batch = _batch([-0.5], [1.0], [1])
    d = to_dataset(batch, CLF)
    assert (d.n, d.L) == (1, 2)
    assert d.labels.tolist() == [1]
    np.testing.assert_allclose(d.scores.values, [[0.5, 0.5]])


def test_to_dataset_argmax_matches_sign():
    b = sample(TGT, 3000, seed=11)
    d = to_dataset(b, CLF)
    z = CLF.w_inv * b.x_inv + CLF.w_sp * b.x_sp
    predicted = np.where(z > 0, 1, 0)
    np.testing.assert_array_equal(d.scores.values.argmax(axis=1), predicted)


def test_error_rate_matches_analytic():
    # misclassification happens iff the spurious feature disagrees and
    # |x_inv| < w_sp / w_inv, an interval of mass (w_sp/w_inv - gamma)/(c - gamma)
    analytic = (1 - SRC.p) * (CLF.w_sp / CLF.w_inv - SRC.gamma) / (SRC.c - SRC.gamma)
    eps = classifier_error_rate(SRC, CLF, n_mc=10**6, seed=2)
    assert abs(eps - analytic) <= 2e-3


def test_oracle_tau_frozen_fixture():
    tau = oracle_tau(TGT, CLF, alpha=0.02, n_mc=FIXTURE_N_MC, seed=FIXTURE_SEED)
    assert tau == FIXTURE_TAU
    logit = 0.5 - 0.02 * 0.95 / 0.3 - 0.05
    analytic = 1 / (1 + math.exp(-logit))
    assert abs(tau - analytic) <= 5e-4


def test_oracle_tau_decreases_toward_half():
    eps = classifier_error_rate(TGT, CLF, n_mc=10**6, seed=7)
    taus = [oracle_tau(TGT, CLF, a * eps, n_mc=10**6, seed=7) for a in (0.1, 0.5, 0.85)]
    assert taus[0] > taus[1] > taus[2] >= 0.5
    assert taus[2] < 0.53


def test_oracle_tau_precondition():
    with pytest.raises(PreconditionError):
        oracle_tau(TGT, CLF, alpha=0.2, n_mc=10**5, seed=0)


def test_oracle_beta_frozen_fixture():
    beta = oracle_beta(SRC, TGT, CLF, alpha=0.02, n_mc=FIXTURE_N_MC, seed=FIXTURE_SEED)
    assert beta == FIXTURE_BETA
    assert abs(beta - 0.02 * (1 - SRC.p) / (1 - TGT.p)) <= 1e-4


def test_oracle_beta_no_shift_equals_alpha():
    beta = oracle_beta(SRC, SRC, CLF, alpha=0.02, n_mc=10**6, seed=4)
    assert abs(beta - 0.02) <= 3 * math.sqrt(0.02 / 10**6)


def test_oracle_beta_shrinks_under_target_shift():
    beta = oracle_beta(SRC, TGT, CLF, alpha=0.02, n_mc=10**6, seed=4)
    assert beta < 0.02


def test_spurious_mass_sign_branches():
    assert spurious_mass(SRC, TGT, CLF) == pytest.approx((1 - 0.7) * (1 - 0.9) ** 2)
    flipped = ToyClassifier(w_inv=1.0, w_sp=-0.5)
    assert spurious_mass(SRC, TGT, flipped) == pytest.approx(0.7 * 0.9**2)


def test_theorem_bound_formula():
    b = theorem_bound(SRC, TGT, CLF, n=10**4, delta=0.1)
    c_sp = (1 - 0.7) * (1 - 0.9) ** 2
    assert b == pytest.approx(math.sqrt(2 * math.log(16 / 0.1) / (10**4 * c_sp)))
    with pytest.raises(ValueError):
        theorem_bound(SRC, TGT, CLF, n=100, delta=0.0)


def test_trial_no_shift():
    # ground truth as `cshift simulate --seed 0` computes it
    beta = oracle_beta(SRC, SRC, CLF, 0.02, 10**6, derive_seed(0, "oracle"))
    rep = run_theorem_trial(SRC, SRC, CLF, alpha=0.02, n=5000, delta=0.1, seed=0, beta_oracle=beta)
    assert abs(rep.beta_qtc - 0.02) <= 0.02
    assert not rep.violated
    assert abs(rep.beta_qtc - rep.beta_true) <= rep.bound
    assert 0.0 <= rep.achieved_target_coverage <= 1.0


def test_trial_uses_supplied_oracle_and_is_deterministic():
    a = run_theorem_trial(SRC, TGT, CLF, 0.02, n=4000, delta=0.1, seed=5, beta_oracle=FIXTURE_BETA)
    b = run_theorem_trial(SRC, TGT, CLF, 0.02, n=4000, delta=0.1, seed=5, beta_oracle=FIXTURE_BETA)
    assert a == b
    assert a.beta_true == FIXTURE_BETA
    assert a.violated == (abs(a.beta_qtc - FIXTURE_BETA) > a.bound)


def test_trial_precondition_rejects_large_alpha():
    with pytest.raises(PreconditionError):
        check_error_rates(SRC, TGT, CLF, alpha=0.045, n_mc=10**5, seed=0)

