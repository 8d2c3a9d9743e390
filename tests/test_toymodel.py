import math
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cshift import toymodel
from cshift.toymodel import (
    PreconditionError,
    _draws,
    _logit,
    _sigmoid,
    _wrong_confidences,
    ToyClassifier,
    ToyModelParams,
    ToySampleBatch,
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
from cshift.scores import LabeledDataset, ScoreMatrix
from cshift.util import BLOCK_ENTRIES, ceil_count, derive_seed

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


def test_trial_frees_its_source_and_target_before_the_evaluation_set():
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
    # with their sorted copy (4 x 8n), and one row-block budget. Keeping the
    # source, target and calibrator alive while the evaluation set was
    # drawn and scored peaked at about 16 x 8n here
    assert peak <= 9 * 8 * n + 8 * BLOCK_ENTRIES


def test_trial_precondition_rejects_large_alpha():
    with pytest.raises(PreconditionError):
        oracle_beta(SRC, TGT, CLF, alpha=0.045, n_mc=10**5, seed=0)


@pytest.mark.parametrize("alpha, name", [(0.045, "source"), (0.2, "target")])
def test_oracle_beta_names_the_distribution_whose_error_rate_is_too_low(alpha, name):
    with pytest.raises(PreconditionError, match=f"must be below 0.9 \\* estimated {name} error rate"):
        oracle_beta(SRC, TGT, CLF, alpha=alpha, n_mc=10**5, seed=0)



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
    assert _same_bits(_sigmoid(z.copy(), out=np.empty_like(z)), expected)
    assert _same_bits(_sigmoid(z.copy(), out=z), expected)


@given(params=_params, n=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_sample_matches_the_direct_draw(params, n, seed):
    batch = sample(params, n, seed)
    x_inv, x_sp, y = _sample_reference(params, n, seed)
    assert _same_bits(batch.x_inv, x_inv)
    assert _same_bits(batch.x_sp, x_sp)
    assert _same_bits(batch.y, y)


@st.composite
def _sizes_and_chunks(draw):
    """(n, chunk): odd and even chunks, n below one chunk, and n a multiple
    of the chunk or one off it."""
    chunk = draw(st.integers(1, 70))
    n = draw(
        st.one_of(
            st.integers(1, 300),
            st.builds(
                lambda k, off: max(1, k * chunk + off),
                st.integers(1, 5),
                st.sampled_from([-1, 0, 1]),
            ),
        )
    )
    return n, chunk


@given(params=_params, size=_sizes_and_chunks(), seed=st.integers(0, 2**64 - 1))
def test_draw_chunks_concatenate_to_sample(params, size, seed):
    n, chunk = size
    batches = list(_draws(params, n, seed, chunk))
    assert [b.y.size for b in batches] == [min(chunk, n - start) for start in range(0, n, chunk)]
    whole = sample(params, n, seed)
    for name in ("x_inv", "x_sp", "y"):
        joined = np.concatenate([getattr(b, name) for b in batches])
        assert _same_bits(joined, getattr(whole, name))


@contextmanager
def _oracle_chunks_of(chunk):
    saved = toymodel._MC_CHUNK
    toymodel._MC_CHUNK = chunk
    try:
        yield
    finally:
        toymodel._MC_CHUNK = saved


def _chunked_wrong_confidences(params, clf, n, seed, chunk):
    """The chunks of ``_wrong_confidences`` at a given chunk size, joined."""
    with _oracle_chunks_of(chunk):
        chunks = list(_wrong_confidences(params, clf, n, seed))
    assert len(chunks) == -(-n // chunk)
    return np.concatenate(chunks)


def _mc_events_reference(params, clf, n_mc, seed):
    """The whole draw at once: (misclassified, top_confidence)."""
    batch = sample(params, n_mc, seed)
    z = _logit(clf, batch, batch.x_inv, batch.x_sp)
    miss = (z > 0) != (batch.y > 0)
    return miss, _sigmoid(np.abs(z, out=z), out=z)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return str(exc)


def _error_rate_check_reference(alpha, miss, name):
    eps = np.count_nonzero(miss) / miss.size
    if alpha >= 0.9 * eps:
        raise PreconditionError(
            f"alpha={alpha:g} must be below 0.9 * estimated {name} error rate {eps:g}"
        )


def _oracle_tau_reference(params, clf, alpha, n_mc, seed):
    miss, confidence = _mc_events_reference(params, clf, n_mc, seed)
    _error_rate_check_reference(alpha, miss, "target")
    wrong_conf = confidence[miss]
    k = max(1, ceil_count(alpha * n_mc))
    return float(np.partition(wrong_conf, wrong_conf.size - k)[wrong_conf.size - k])


def _oracle_beta_reference(params_source, params_target, clf, alpha, n_mc, seed):
    tau = _oracle_tau_reference(params_target, clf, alpha, n_mc, derive_seed(seed, "oracle-tau"))
    miss, confidence = _mc_events_reference(
        params_source, clf, n_mc, derive_seed(seed, "oracle-beta")
    )
    _error_rate_check_reference(alpha, miss, "source")
    return float(np.count_nonzero(miss & (confidence >= tau)) / n_mc)


@given(
    source=_params,
    target=_params,
    clf=_classifiers,
    size=_sizes_and_chunks(),
    alpha=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**32),
)
def test_oracles_equal_the_one_shot_reference(source, target, clf, size, alpha, seed):
    n, chunk = size
    with _oracle_chunks_of(chunk), warnings.catch_warnings():
        warnings.simplefilter("error")
        found = [
            classifier_error_rate(source, clf, n, seed),
            _outcome(oracle_tau, target, clf, alpha, n, seed),
            _outcome(oracle_beta, source, target, clf, alpha, n, seed),
        ]
    miss, _ = _mc_events_reference(source, clf, n, seed)
    assert found == [
        float(np.count_nonzero(miss) / n),
        _outcome(_oracle_tau_reference, target, clf, alpha, n, seed),
        _outcome(_oracle_beta_reference, source, target, clf, alpha, n, seed),
    ]


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


@given(params=_params, clf=_classifiers, size=_sizes_and_chunks(), seed=st.integers(0, 2**32))
def test_mc_events_match_the_direct_formula(params, clf, size, seed):
    n, chunk = size
    x_inv, x_sp, y = _sample_reference(params, n, seed)
    z = _logit_reference(clf, x_inv, x_sp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        confidence = _chunked_wrong_confidences(params, clf, n, seed, chunk)
    miss = np.where(z > 0, 1, -1) != y
    assert _same_bits(confidence, _sigmoid_reference(np.abs(z))[miss])


def test_mc_events_peak_stays_near_three_draw_arrays():
    n_mc = 10**6
    # the spurious feature outweighs the invariant one, so every draw whose
    # spurious feature disagrees (70 %) is misclassified: the confidences
    # oracle_tau keeps outweigh a chunk
    params, clf = ToyModelParams(gamma=0.05, c=1.0, p=0.3), ToyClassifier(w_inv=1.0, w_sp=2.0)
    # the first call imports numpy's lazily loaded random modules; keep that
    # one-time cost out of the measurement
    oracle_tau(params, clf, 0.02, n_mc=1000, seed=0)
    wrong = round(classifier_error_rate(params, clf, n_mc, seed=1) * n_mc)
    chunk_bytes = 8 * toymodel._MC_CHUNK
    peaks = []
    for run in (lambda: sum(1 for _ in _wrong_confidences(params, clf, n_mc, seed=1)),
                lambda: oracle_tau(params, clf, 0.02, n_mc=n_mc, seed=1)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a chunk's label and two features, their masks and the confidences of
    # its misclassified draws, about 4.5 x 8 bytes a draw here; oracle_tau
    # adds 8 bytes per misclassified draw, and a copy of those (as in a
    # concatenation) would add 8 more. The chunk term does not grow with
    # n_mc; the whole draw at once peaked at about 3.1 x 8 x n_mc
    assert wrong > 0.69 * n_mc
    assert peaks[0] <= 5 * chunk_bytes
    assert peaks[1] <= 5 * chunk_bytes + 8 * wrong
