import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cshift.toymodel as toymodel
from cshift.conformal import PredictorSpec, Threshold, evaluate
from cshift.qtc import recalibrate
from cshift.toymodel import (
    PreconditionError,
    _margin_cdf,
    _sigmoid,
    ToyClassifier,
    ToyModelParams,
    ToySampleBatch,
    classifier_error_rate,
    classify,
    oracle_beta,
    run_theorem_trial,
    sample,
    spurious_mass,
    theorem_bound,
    to_dataset,
)
from cshift.scores import LabeledDataset, ScoreMatrix
from cshift.util import BLOCK_ENTRIES, ceil_count, derive_seed

SRC = ToyModelParams(gamma=0.05, c=1.0, p=0.9)
TGT = ToyModelParams(gamma=0.05, c=1.0, p=0.7)
CLF = ToyClassifier(w_inv=1.0, w_sp=0.5)

# the oracle beta at alpha = 0.02: alpha (1 - p_src) / (1 - p_tgt), 1/150
# up to rounding
FIXTURE_BETA = 0.02 * (1 - 0.9) / (1 - 0.7)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ToyModelParams(gamma=0.05, c=bad, p=0.9)
    with pytest.raises(ValueError, match="finite"):
        ToyClassifier(w_inv=bad, w_sp=0.5)
    with pytest.raises(ValueError, match="finite"):
        ToyClassifier(w_inv=1.0, w_sp=bad)


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


def test_to_dataset_keeps_its_fresh_arrays_without_a_copy():
    n = 10**6
    batch = sample(TGT, n, seed=12)
    to_dataset(sample(TGT, 10, seed=0), CLF)  # lazy imports stay out of it
    tracemalloc.start()
    try:
        d = to_dataset(batch, CLF)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n, 2) scores and the labels, 3 x 8n bytes, plus validation's
    # row sums and block temporaries; copying both arrays peaked at about
    # 7.2 x 8n, so this is at least 3 x 8n lower
    assert held <= 3.1 * 8 * n
    assert peak <= 4.2 * 8 * n
    assert not d.scores.values.flags.writeable and not d.labels.flags.writeable
    copied = LabeledDataset(ScoreMatrix(classify(CLF, batch)), (batch.y + 1) // 2)
    assert d.scores.values.tobytes() == copied.scores.values.tobytes()
    assert d.labels.tobytes() == copied.labels.tobytes()


def test_error_rate_matches_analytic():
    # misclassification happens iff the spurious feature disagrees and
    # |x_inv| < w_sp / w_inv, an interval of mass (w_sp/w_inv - gamma)/(c - gamma)
    analytic = (1 - SRC.p) * (CLF.w_sp / CLF.w_inv - SRC.gamma) / (SRC.c - SRC.gamma)
    assert classifier_error_rate(SRC, CLF) == pytest.approx(analytic, rel=1e-12)
    # the interval is cut to the support: empty below gamma, all of it past c
    assert classifier_error_rate(SRC, ToyClassifier(w_inv=20.0, w_sp=0.5)) == 0.0
    assert classifier_error_rate(SRC, ToyClassifier(w_inv=0.1, w_sp=-0.5)) == SRC.p


def test_oracle_beta_frozen_fixture():
    assert oracle_beta(SRC, TGT, CLF, alpha=0.02) == FIXTURE_BETA
    assert FIXTURE_BETA == pytest.approx(1 / 150, rel=1e-12)


def test_oracle_beta_no_shift_equals_alpha():
    assert oracle_beta(SRC, SRC, CLF, alpha=0.02) == 0.02


def test_oracle_beta_shrinks_under_target_shift():
    assert oracle_beta(SRC, TGT, CLF, alpha=0.02) < 0.02


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
    beta = oracle_beta(SRC, SRC, CLF, 0.02)
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


def test_trial_memory_peaks_at_recalibration():
    n = 2 * 10**5
    # the untraced run imports what the row-block threads lazily load
    run_theorem_trial(SRC, TGT, CLF, 0.02, n=n, delta=0.1, seed=5, beta_oracle=FIXTURE_BETA)
    tracemalloc.start()
    try:
        run_theorem_trial(SRC, TGT, CLF, 0.02, n=n, delta=0.1, seed=5, beta_oracle=FIXTURE_BETA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the peak is at recalibration: the source (3 x 8n bytes) and target
    # (2 x 8n) sets, their sorted top confidences and the calibration scores
    # with their sorted copy (4 x 8n), and one row-block budget; the
    # coverage is read off the closed form, with no further draw
    assert peak <= 9 * 8 * n + 8 * BLOCK_ENTRIES


def _logit_of_miss(tau):
    """-logit(tau): a label is covered at tau when its margin y * z reaches it."""
    return math.log1p(-tau) - math.log(tau)


def test_trial_draws_two_sets_and_reads_its_coverage_off_the_closed_form(monkeypatch):
    roles, draws, thresholds = [], [], []

    def derive(seed, role):
        roles.append(role)
        return derive_seed(seed, role)

    def draw(params, n, seed):
        draws.append(params)
        return sample(params, n, seed)

    def recal(*args):
        result = recalibrate(*args)
        thresholds.append(result[0])
        return result

    for name, fn in (("derive_seed", derive), ("sample", draw), ("recalibrate", recal)):
        monkeypatch.setattr(toymodel, name, fn)
    rep = run_theorem_trial(SRC, TGT, CLF, 0.02, n=4000, delta=0.1, seed=5, beta_oracle=FIXTURE_BETA)
    assert roles == ["trial-source", "trial-target"]
    assert draws == [SRC, TGT]
    tau = thresholds[0].tau
    assert 0.5 < tau < 1.0
    exact = 1 - _margin_cdf_reference(TGT, CLF, _logit_of_miss(tau))
    assert math.isclose(rep.achieved_target_coverage, float(exact), rel_tol=2.0**-40)


@pytest.mark.parametrize("tau, coverage", [(0.0, 0.0), (1.0, 1.0)])
def test_trial_coverage_at_the_edges_of_tau(monkeypatch, tau, coverage):
    # a tps threshold of 1 admits every class; one of 0 admits a class only
    # at a score of exactly 1, which a finite margin never reaches
    def recal(*args):
        threshold, est = recalibrate(*args)
        return Threshold(tau, threshold.alpha, threshold.spec), est

    monkeypatch.setattr(toymodel, "recalibrate", recal)
    rep = run_theorem_trial(SRC, TGT, CLF, 0.02, n=500, delta=0.1, seed=5, beta_oracle=FIXTURE_BETA)
    assert rep.achieved_target_coverage == coverage


def test_trial_precondition_rejects_large_alpha():
    with pytest.raises(PreconditionError):
        oracle_beta(SRC, TGT, CLF, alpha=0.045)


@pytest.mark.parametrize("alpha, name", [(0.045, "source"), (0.2, "target")])
def test_oracle_beta_names_the_distribution_whose_error_rate_is_too_low(alpha, name):
    with pytest.raises(PreconditionError, match=f"must be below 0.9 \\* {name} error rate"):
        oracle_beta(SRC, TGT, CLF, alpha=alpha)



# --- the in-place draw and score path against today's direct formulas ---


def _sample_reference(params, n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n) * 2 - 1
    x_inv = y * rng.uniform(params.gamma, params.c, size=n)
    agree = rng.random(n) < params.p
    x_sp = np.where(agree, y, -y).astype(np.float64)
    return x_inv, x_sp, y


def _sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logit_reference(clf, x_inv, x_sp):
    with np.errstate(over="ignore"):
        return clf.w_inv * x_inv + clf.w_sp * x_sp


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# magnitudes from subnormal to near overflow, signed zeros and both signs
_reals = st.floats(allow_nan=False, allow_infinity=False)
_weights = st.one_of(
    st.floats(1e-300, 1e300), st.sampled_from([1e-320, 0.5, 1.0, 3.0, 1e308])
)
_params = st.builds(
    lambda gamma, width, p: ToyModelParams(gamma, gamma + width, p),
    st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    st.one_of(st.floats(1e-6, 1e3), st.just(1e308)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
_classifiers = st.builds(
    lambda w_inv, w_sp, negate: ToyClassifier(w_inv, -w_sp if negate else w_sp),
    _weights,
    _weights,
    st.booleans(),
)


@given(z=st.lists(st.one_of(_reals, st.sampled_from([0.0, -0.0, np.inf, -np.inf])), min_size=1))
def test_sigmoid_matches_the_two_branch_formula(z):
    z = np.array(z)
    expected = _sigmoid_reference(z)
    assert _same_bits(_sigmoid(z, out=np.empty_like(z)), expected)


@given(params=_params, n=st.integers(1, 300), seed=st.integers(0, 2**32))
@example(params=SRC, n=1001, seed=3)
@example(params=SRC, n=65537, seed=3)
def test_sample_matches_the_direct_draw(params, n, seed):
    batch = sample(params, n, seed)
    x_inv, x_sp, y = _sample_reference(params, n, seed)
    assert _same_bits(batch.x_inv, x_inv)
    assert _same_bits(batch.x_sp, x_sp)
    assert _same_bits(batch.y, y)


@given(
    clf=_classifiers,
    rows=st.lists(st.tuples(_reals, st.sampled_from([-1.0, 1.0])), min_size=1, max_size=60),
)
def test_classify_matches_the_direct_formula_and_keeps_its_batch(clf, rows):
    x_inv, x_sp = (np.array(col) for col in zip(*rows))
    batch = _batch(x_inv, x_sp, x_sp.astype(np.int64))
    before = [a.copy() for a in (batch.x_inv, batch.x_sp, batch.y)]
    p1 = _sigmoid_reference(_logit_reference(clf, x_inv, x_sp))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = classify(clf, batch)
    assert _same_bits(scores, np.column_stack([1.0 - p1, p1]))
    for kept, now in zip(before, (batch.x_inv, batch.x_sp, batch.y)):
        assert _same_bits(kept, now)




# --- the closed-form oracles against a one-shot Monte Carlo draw ---


def _wrong_confidences_reference(params, clf, n, seed):
    """Top confidences of the misclassified draws among n direct draws."""
    x_inv, x_sp, y = _sample_reference(params, n, seed)
    z = _logit_reference(clf, x_inv, x_sp)
    miss = np.where(z > 0, 1, -1) != y
    return _sigmoid_reference(np.abs(z[miss]))


def _monte_carlo_reference(source, target, clf, alpha, n, seed):
    """(source error rate, target error rate, beta) from n draws of each:
    tau is the ceil(alpha n)-th largest target confidence among the
    misclassified draws, and beta the source rate of wrong draws at or
    above it."""
    wrong_target = _wrong_confidences_reference(target, clf, n, derive_seed(seed, "target"))
    k = ceil_count(alpha * n)
    tau = np.partition(wrong_target, wrong_target.size - k)[wrong_target.size - k]
    wrong_source = _wrong_confidences_reference(source, clf, n, derive_seed(seed, "source"))
    beta = np.count_nonzero(wrong_source >= tau) / n
    return wrong_source.size / n, wrong_target.size / n, beta


ONE_SHOT_SETTINGS = pytest.mark.parametrize(
    "source, target, clf, alpha",
    [
        (SRC, TGT, CLF, 0.02),
        (ToyModelParams(0.05, 1.0, 0.1), ToyModelParams(0.05, 1.0, 0.3), ToyClassifier(1.0, -0.5), 0.02),
        (ToyModelParams(0.1, 1.5, 0.4), ToyModelParams(0.1, 1.5, 0.6), ToyClassifier(2.0, -0.8), 0.05),
        # the spurious feature outweighs the invariant one everywhere
        (ToyModelParams(0.0, 1.0, 0.8), ToyModelParams(0.0, 1.0, 0.5), ToyClassifier(1.0, 2.0), 0.1),
    ],
    ids=["defaults", "negative-w_sp", "negative-w_sp-wide", "spurious-outweighs"],
)


@ONE_SHOT_SETTINGS
def test_oracles_agree_with_a_one_shot_monte_carlo_draw(source, target, clf, alpha):
    n = 10**6
    eps_source, eps_target, beta = _monte_carlo_reference(source, target, clf, alpha, n, seed=8)
    for found, params in ((eps_source, source), (eps_target, target)):
        exact = classifier_error_rate(params, clf)
        assert abs(found - exact) <= 5 * math.sqrt(exact * (1 - exact) / n)
    exact = oracle_beta(source, target, clf, alpha)
    # the source draw's own error, and the target draw's error in alpha
    # carried to the source through the ratio beta / alpha
    ratio = exact / alpha
    se = math.sqrt(exact * (1 - exact) / n + ratio**2 * alpha * (1 - alpha) / n)
    assert abs(beta - exact) <= 5 * se


@ONE_SHOT_SETTINGS
@pytest.mark.parametrize("tau", [0.3, 0.9])
def test_closed_form_coverage_agrees_with_evaluate_on_one_draw(source, target, clf, alpha, tau):
    # the target's tps coverage at tau; below tau = 1/2 a right draw can be
    # miscovered too
    n = 10**6
    test = to_dataset(sample(target, n, seed=8), clf)
    found = evaluate(Threshold(tau, alpha, PredictorSpec.tps()), test).coverage
    exact = 1.0 - _margin_cdf(target, clf, _logit_of_miss(tau))
    assert abs(found - exact) <= 5 * math.sqrt(exact * (1 - exact) / n)


@given(params=_params, clf=_classifiers, n=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_mc_events_match_the_direct_formula(params, clf, n, seed):
    # the events the one-shot reference counts, as a top-score predictor
    # sees them through sample and to_dataset: the misclassified draws and
    # their top confidence
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = to_dataset(sample(params, n, seed), clf)
    scores = ds.scores.values
    miss = np.argmax(scores, axis=1) != ds.labels
    x_inv, x_sp, y = _sample_reference(params, n, seed)
    z = _logit_reference(clf, x_inv, x_sp)
    p1 = _sigmoid_reference(z)
    expected_miss = np.where(z > 0, 1, -1) != y
    # a logit so small that its score rounds to a tie at 1/2 is class y = -1
    tie = p1 == 0.5
    expected_miss[tie] = y[tie] != -1
    assert _same_bits(miss, expected_miss)
    assert _same_bits(scores.max(axis=1)[miss], np.maximum(1.0 - p1, p1)[expected_miss])


# --- the closed-form oracles against exact rational arithmetic ---


def _wrong_way_rate_reference(params, clf):
    return 1 - Fraction(params.p) if clf.w_sp > 0 else Fraction(params.p)


def _event_rate_reference(params, clf, s):
    """P[wrong and the top confidence's logit >= s], exactly. A wrong draw's
    top confidence has logit |w_sp| - w_inv * |x_inv|, with |x_inv| uniform
    on [gamma, c]."""
    gamma, c = Fraction(params.gamma), Fraction(params.c)
    x = (abs(Fraction(clf.w_sp)) - s) / Fraction(clf.w_inv)
    reach = min(max((x - gamma) / (c - gamma), Fraction(0)), Fraction(1))
    return _wrong_way_rate_reference(params, clf) * reach


def _margin_cdf_reference(params, clf, t):
    """P[y * z < t] exactly, for y * z = w_inv * |x_inv| + w_sp * s with
    |x_inv| uniform on [gamma, c] and s = +1 with probability p, else -1:
    :func:`_event_rate_reference` over both signs of s. t = +inf and -inf
    are the margins of tau = 0 and tau = 1."""
    if math.isinf(t):
        return Fraction(t > 0)
    gamma, c = Fraction(params.gamma), Fraction(params.c)
    w_inv, w_sp, p, t = (Fraction(v) for v in (clf.w_inv, clf.w_sp, params.p, t))

    def below(x):
        return min(max((x / w_inv - gamma) / (c - gamma), Fraction(0)), Fraction(1))

    return p * below(t - w_sp) + (1 - p) * below(t + w_sp)


def _error_rate_slack(params, clf):
    """Bounds the rounding of the float error rate: four roundings, each at
    most an ulp of the larger operand, scaled by the support's width."""
    ratio = abs(clf.w_sp) / clf.w_inv
    return 4 * 2.0**-52 * ((ratio + params.gamma) / (params.c - params.gamma) + 1) + 1e-300


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return str(exc)


@given(
    source=_params,
    p_target=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    clf=_classifiers,
    alpha=st.floats(1e-3, 0.5),
)
@example(source=SRC, p_target=TGT.p, clf=CLF, alpha=0.02)
@example(source=SRC, p_target=TGT.p, clf=ToyClassifier(1.0, -0.5), alpha=0.02)
# alpha exactly at the precondition's edge is refused
@example(source=SRC, p_target=SRC.p, clf=CLF, alpha=0.9 * classifier_error_rate(SRC, CLF))
def test_oracles_equal_the_one_shot_reference(source, p_target, clf, alpha):
    # one shot: the target's level-alpha threshold first, then the source
    # event at it, the route of the definition
    target = ToyModelParams(source.gamma, source.c, p_target)
    eps = {}
    for params, name in ((target, "target"), (source, "source")):
        eps[name] = classifier_error_rate(params, clf)
        # every wrong draw's top confidence is at least 1/2: logit 0
        exact = _event_rate_reference(params, clf, Fraction(0))
        assert abs(eps[name] - exact) <= _error_rate_slack(params, clf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = _outcome(oracle_beta, source, target, clf, alpha)
    for name in ("target", "source"):
        if alpha >= 0.9 * eps[name]:
            assert found == f"alpha={alpha:g} must be below 0.9 * {name} error rate {eps[name]:g}"
            return
    # the logit s of the threshold at which the target event has rate alpha
    gamma, c = Fraction(target.gamma), Fraction(target.c)
    x = gamma + Fraction(alpha) / _wrong_way_rate_reference(target, clf) * (c - gamma)
    s = abs(Fraction(clf.w_sp)) - Fraction(clf.w_inv) * x
    assert _event_rate_reference(target, clf, s) == Fraction(alpha)
    assert math.isclose(found, float(_event_rate_reference(source, clf, s)), rel_tol=2.0**-50)


@given(params=_params, clf=_classifiers, t=st.one_of(_reals, st.sampled_from([math.inf, -math.inf])))
# the reach lands exactly on gamma, at t = 0 and at t > 0
@example(params=ToyModelParams(0.5, 1.0, 0.3), clf=ToyClassifier(1.0, 0.5), t=0.0)
@example(params=ToyModelParams(0.5, 1.0, 0.3), clf=ToyClassifier(1.0, 0.25), t=0.25)
# the reach lands exactly on c
@example(params=ToyModelParams(0.5, 1.0, 0.3), clf=ToyClassifier(1.0, -1.0), t=0.0)
@example(params=ToyModelParams(0.5, 1.0, 0.3), clf=ToyClassifier(2.0, 0.5), t=1.5)
# the margins of tau = 0 and tau = 1
@example(params=SRC, clf=CLF, t=math.inf)
@example(params=SRC, clf=CLF, t=-math.inf)
def test_margin_cdf_equals_the_exact_reference(params, clf, t):
    exact = _margin_cdf_reference(params, clf, t)
    found = _margin_cdf(params, clf, t)
    if math.isinf(t):
        assert found == exact
        return
    # the error-rate slack with the threshold's margin added to |w_sp|, and
    # twice the roundings
    reach = (abs(t) + abs(clf.w_sp)) / clf.w_inv
    slack = 8 * 2.0**-52 * ((reach + params.gamma) / (params.c - params.gamma) + 1) + 1e-300
    assert abs(found - exact) <= slack
    if t <= 0.0:
        # below the margin 0 only wrong draws remain, at a top-confidence
        # logit of at least -t
        assert exact == _event_rate_reference(params, clf, -Fraction(t))


# the target threshold at alpha = 0.02 that the retired Monte Carlo oracle
# froze from 10^7 draws at seed 1234
FROZEN_TAU = 0.5955051333603529
FROZEN_N_MC = 10**7


def test_oracle_tau_frozen_fixture():
    # the frozen threshold is the target's level-alpha threshold within its
    # draws' error, and the source event at it is oracle_beta within that
    # error carried through beta / alpha
    alpha = 0.02
    s = Fraction(math.log(FROZEN_TAU / (1 - FROZEN_TAU)))
    se = math.sqrt(alpha * (1 - alpha) / FROZEN_N_MC)
    assert abs(float(_event_rate_reference(TGT, CLF, s)) - alpha) <= 5 * se
    beta = oracle_beta(SRC, TGT, CLF, alpha)
    assert abs(float(_event_rate_reference(SRC, CLF, s)) - beta) <= 5 * (beta / alpha) * se


# --- the deviation bound across the model's settings ---

BOUND_TRIALS = 20
BOUND_DELTA = 0.1


@st.composite
def _bound_settings(draw):
    """(source, target, clf, alpha, n): |w_sp| / w_inv anywhere from just
    above gamma to beyond c, both signs of w_sp, p_src = p_tgt among the
    shifts, and p of 0 or 1, where c_sp can be 0."""
    gamma = draw(st.floats(0.0, 1.0))
    c = gamma + draw(st.floats(0.05, 2.0))
    w_inv = draw(st.floats(0.1, 10.0))
    reach = draw(st.floats(0.02, 1.2))
    sign = draw(st.sampled_from([1.0, -1.0]))
    clf = ToyClassifier(w_inv, sign * w_inv * (gamma + reach * (c - gamma)))
    rates = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    p_src = draw(rates)
    p_tgt = draw(st.one_of(st.just(p_src), rates))
    source, target = ToyModelParams(gamma, c, p_src), ToyModelParams(gamma, c, p_tgt)
    reachable = 0.9 * min(classifier_error_rate(source, clf), classifier_error_rate(target, clf))
    alpha = draw(st.floats(0.02, 0.98)) * reachable
    n = draw(st.sampled_from([500, 2000, 10000]))
    return source, target, clf, alpha, n


@settings(max_examples=100)
@given(setting=_bound_settings(), seed=st.integers(0, 2**32))
@example(setting=(SRC, SRC, CLF, 0.02, 2000), seed=0)
@example(setting=(SRC, ToyModelParams(0.05, 1.0, 1.0), CLF, 0.0, 500), seed=0)
@example(
    setting=(
        ToyModelParams(0.05, 1.0, 0.1), ToyModelParams(0.05, 1.0, 0.3), ToyClassifier(1.0, -0.5),
        0.02, 10000,
    ),
    seed=0,
)
def test_deviation_bound_holds_across_settings(setting, seed):
    source, target, clf, alpha, n = setting
    bound = theorem_bound(source, target, clf, n, BOUND_DELTA)
    if spurious_mass(source, target, clf) == 0.0:
        # a distribution that is never wrong leaves no level to reach, and
        # the bound says nothing
        assert bound == math.inf
        with pytest.raises(PreconditionError):
            oracle_beta(source, target, clf, max(alpha, 1e-6))
        return
    beta = oracle_beta(source, target, clf, alpha)
    with warnings.catch_warnings():
        # a level below 1/n falls back to the extreme order statistic
        warnings.filterwarnings("ignore", "quantile level .* is below 1/n", UserWarning)
        reports = [
            run_theorem_trial(
                source, target, clf, alpha, n, BOUND_DELTA, derive_seed(seed, f"trial-{t}"), beta
            )
            for t in range(BOUND_TRIALS)
        ]
    assert all(r.bound == bound and r.beta_true == beta for r in reports)
    violations = sum(r.violated for r in reports)
    margin = 3 * math.sqrt(BOUND_DELTA * (1 - BOUND_DELTA) / BOUND_TRIALS)
    assert violations / BOUND_TRIALS <= BOUND_DELTA + margin, (violations, setting)
