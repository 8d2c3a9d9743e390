import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import labeled, unlabeled
from cshift import qtc
from cshift.conformal import (
    Calibrator,
    PredictorSpec,
    SaturationError,
    calibrate,
    conformity_scores,
    max_tau,
)
from cshift.qtc import (
    estimate_beta_qtc,
    estimate_beta_qtc_sc,
    estimate_tau_qtc_st,
    quantile_q,
    recalibrate,
    top_confidences,
)
from cshift.scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from cshift.util import format_kv, read_kv

TPS = PredictorSpec.tps()


def _rows_with_top(confs, n_classes):
    """Rows whose max entry is exactly the requested confidence."""
    rows = []
    for t in confs:
        rest = (1.0 - t) / (n_classes - 1)
        assert rest <= t + 1e-12, f"top {t} unreachable with {n_classes} classes"
        rows.append([t] + [rest] * (n_classes - 1))
    return UnlabeledDataset(ScoreMatrix(np.array(rows)))


def test_top_confidences_shapes():
    d = unlabeled(7, 3, seed=0)
    tc = top_confidences(d)
    assert tc.shape == (7,)
    np.testing.assert_array_equal(tc, d.scores.values.max(axis=1))


TIED_TOPS = [0.25, 0.4, 0.5, 0.7, 1.0]


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(
    src_tops=st.lists(st.sampled_from(TIED_TOPS), min_size=1, max_size=30),
    tgt_tops=st.lists(st.sampled_from(TIED_TOPS), min_size=1, max_size=30),
    q=st.one_of(st.sampled_from(TIED_TOPS), st.floats(0.0, 1.0)),
    alpha=st.floats(0.01, 0.99),
)
def test_sorted_count_below_matches_elementwise_count(src_tops, tgt_tops, q, alpha):
    # tied and duplicated top confidences, with q on and between them; a
    # 0.25 row of 4 classes also ties within the row
    src = _rows_with_top(src_tops, 4)
    tgt = _rows_with_top(tgt_tops, 4)
    top = top_confidences(src)
    sorted_top = src.scores.sorted_top
    np.testing.assert_array_equal(sorted_top, np.sort(top))
    assert not sorted_top.flags.writeable
    assert src.scores.sorted_top is sorted_top
    assert qtc._count_below(src, q) == np.count_nonzero(top < q)
    est = estimate_beta_qtc(src, tgt, alpha)
    assert est.value == np.count_nonzero(top < est.q_threshold) / src.n
    est = estimate_beta_qtc_sc(src, tgt, alpha)
    below = np.count_nonzero(top_confidences(tgt) < est.q_threshold)
    assert est.value == (tgt.n - below) / tgt.n


def test_quantile_q_order_statistics():
    d = _rows_with_top([0.1, 0.3, 0.5, 0.7, 0.9], 20)
    assert quantile_q(d, 0.4) == pytest.approx(0.3)
    assert quantile_q(d, 1.0) == pytest.approx(0.9)
    assert quantile_q(d, 1 / 5) == pytest.approx(0.1)


def test_quantile_q_rejects_bad_c():
    d = unlabeled(5, 3, seed=1)
    for c in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            quantile_q(d, c)


def test_quantile_q_warns_below_first_order_statistic():
    d = unlabeled(5, 3, seed=2)
    # c * 5 < 1, floored to the minimum; level 0 is the limit from above
    for c in (0.05, 0.0):
        with pytest.warns(UserWarning, match="below 1/n"):
            v = quantile_q(d, c)
        assert v == top_confidences(d).min()


@pytest.mark.parametrize(
    "product, k, warns",
    [(1.0 - 2e-9, 1, True), (1.0 - 5e-10, 1, False), (1.0, 1, False), (1.5, 2, False)],
)
def test_quantile_q_warns_only_below_the_snap_of_one(product, k, warns):
    # c * n within 1e-9 below 1 is the first order statistic by ceil_count's
    # snap, so only a level further below 1/n falls back with a warning
    d = unlabeled(10, 3, seed=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = quantile_q(d, product / 10)
    assert [w.category for w in caught] == ([UserWarning] if warns else [])
    assert v == np.sort(top_confidences(d))[k - 1]


@given(seed=st.integers(0, 10**6), c_pair=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)))
def test_quantile_q_monotone_in_c(seed, c_pair):
    lo, hi = sorted(c_pair)
    d = unlabeled(23, 4, seed=seed % 997)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert quantile_q(d, lo) <= quantile_q(d, hi)
    # a level below 1/n falls back to the first order statistic, and only
    # such a level warns
    assert [str(w.message) for w in caught] == [
        f"quantile level {c:g} is below 1/n for n=23; using the first order statistic"
        for c in (lo, hi) if c * 23 < 1.0 - 1e-9
    ]


def test_beta_qtc_hand_example():
    source = _rows_with_top([0.2, 0.25, 0.5, 0.8], 5)
    target = _rows_with_top([0.3, 0.9], 5)
    est = estimate_beta_qtc(source, target, alpha=0.5)
    assert est.q_threshold == pytest.approx(0.3)
    assert est.value == pytest.approx(0.5)  # 0.2 and 0.25 fall strictly below 0.3


def test_beta_qtc_self_consistency_spot():
    # beta is an integer count over n; the comparison is exact in
    # rational arithmetic (float subtraction would smear the boundary)
    n = 200
    d = unlabeled(n, 6, seed=31)
    for alpha in (0.05, 0.2):
        est = estimate_beta_qtc(d, d, alpha)
        m = round(est.value * n)
        assert est.value == m / n
        assert abs(Fraction(m, n) - Fraction(str(alpha))) <= Fraction(1, n)


def test_beta_qtc_sc_hand_example():
    source = _rows_with_top([round(0.1 * k, 1) for k in range(1, 11)], 20)
    target = _rows_with_top([0.05, 0.5, 0.95, 0.99], 20)
    est = estimate_beta_qtc_sc(source, target, alpha=0.2)
    assert est.q_threshold == pytest.approx(0.8)  # 8th of ten order statistics
    assert est.value == pytest.approx(0.5)  # 1 - 2/4


def test_beta_qtc_sc_when_target_sits_above_source():
    source = _rows_with_top([0.3, 0.5, 0.7], 4)
    target = _rows_with_top([0.9, 0.95], 4)
    est = estimate_beta_qtc_sc(source, target, alpha=0.1)
    assert est.value == 1.0


def test_mismatched_class_count_rejected():
    a = unlabeled(5, 3, seed=0)
    b = unlabeled(5, 4, seed=0)
    with pytest.raises(ValueError, match="class"):
        estimate_beta_qtc(a, b, 0.1)


def test_tau_qtc_st_hand_example():
    # calibration set engineered so the plain threshold is exactly 0.75
    v = np.array(
        [
            [0.6, 0.25, 0.15],
            [0.7, 0.2, 0.1],
            [0.8, 0.1, 0.1],
            [0.9, 0.05, 0.05],
        ]
    )
    source = LabeledDataset(ScoreMatrix(v), np.array([1, 0, 0, 0]))
    assert calibrate(TPS, source, 0.2, seed=0).tau == pytest.approx(0.75)
    target = UnlabeledDataset(ScoreMatrix(np.array([[0.5, 0.3, 0.2], [0.85, 0.1, 0.05]])))
    est = estimate_tau_qtc_st(Calibrator(TPS, source, seed=0), target, alpha=0.2)
    assert est.q_threshold == pytest.approx(0.8)
    assert est.value == pytest.approx(0.5)


def test_tau_qtc_st_self_consistency():
    d = labeled(300, 5, seed=17)
    est = estimate_tau_qtc_st(Calibrator(TPS, d, seed=3), UnlabeledDataset(d.scores), alpha=0.1)
    tau_p = calibrate(TPS, d, 0.1, seed=3).tau
    assert abs(est.value - tau_p) <= 1 / 300


def test_tau_qtc_st_raps_remap_round_trip():
    spec = PredictorSpec.raps(1.0, 0)
    d = labeled(50, 2, seed=23)
    tgt = unlabeled(40, 2, seed=24)
    thr = calibrate(spec, d, 0.3, seed=5)
    scale = max_tau(spec, 2)
    assert scale == pytest.approx(3.0)
    est = estimate_tau_qtc_st(Calibrator(spec, d, seed=5), tgt, alpha=0.3)
    q = quantile_q(UnlabeledDataset(d.scores), thr.tau / scale)
    below = float(np.mean(top_confidences(tgt) < q))
    assert est.q_threshold == pytest.approx(q)
    assert est.value == pytest.approx(scale * below)


def test_tau_qtc_st_refuses_saturated_threshold():
    d = labeled(4, 3, seed=2)
    with pytest.raises(SaturationError):
        estimate_tau_qtc_st(Calibrator(TPS, d, seed=0), unlabeled(5, 3, seed=3), alpha=0.01)


def test_recalibrate_self_consistency_one_step():
    for seed in (0, 1, 2):
        d = labeled(150, 5, seed=40 + seed)
        u = UnlabeledDataset(d.scores)
        plain = calibrate(TPS, d, 0.2, seed=seed)
        recal = recalibrate(Calibrator(TPS, d, seed=seed), u, 0.2, method="qtc")[0]
        s = np.sort(conformity_scores(TPS, d.scores.values, d.labels, None))
        gap = abs(np.searchsorted(s, plain.tau) - np.searchsorted(s, recal.tau))
        assert gap <= 1


def test_recalibrate_clamps_degenerate_beta_low():
    source = labeled(60, 4, seed=50, scale=0.5)
    # every target confidence below the smallest source confidence
    tmin = float(top_confidences(source).min())
    n_classes = 4
    t = max(0.26, tmin / 2)
    target = _rows_with_top([t] * 10, n_classes)
    assert float(top_confidences(target).max()) < tmin
    thr = recalibrate(Calibrator(TPS, source, seed=0), target, 0.1, method="qtc")[0]
    assert not thr.saturated
    assert (thr.alpha, thr.beta) == (0.1, 1 / 61)
    s = np.sort(conformity_scores(TPS, source.scores.values, source.labels, None))
    assert thr.tau == pytest.approx(s[-1])  # beta clamped to 1/(n+1), k lands on n


def test_recalibrate_clamps_degenerate_beta_high():
    source = _rows_with_top([0.3, 0.35, 0.4, 0.45, 0.5], 4)
    source = LabeledDataset(source.scores, np.zeros(5, dtype=np.int64))
    target = _rows_with_top([0.9, 0.92, 0.94], 4)
    thr = recalibrate(Calibrator(TPS, source, seed=0), target, 0.5, method="qtc")[0]
    s = np.sort(conformity_scores(TPS, source.scores.values, source.labels, None))
    assert thr.tau == pytest.approx(s[0])  # beta clamped to n/(n+1), k lands on 1


def test_recalibrate_qtc_st_passes_tau_through():
    d = labeled(120, 4, seed=61)
    tgt = unlabeled(80, 4, seed=62)
    est = estimate_tau_qtc_st(Calibrator(TPS, d, seed=9), tgt, alpha=0.15)
    thr, used = recalibrate(Calibrator(TPS, d, seed=9), tgt, 0.15, method="qtc-st")
    assert used == est
    assert thr.tau == est.value
    assert thr.alpha == 0.15
    assert thr.method == "qtc-st"
    assert thr.beta is None


def test_recalibrate_rejects_unknown_method():
    d = labeled(20, 3, seed=70)
    with pytest.raises(ValueError, match="method"):
        recalibrate(Calibrator(TPS, d, seed=0), UnlabeledDataset(d.scores), 0.1, method="magic")


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(seed=st.integers(0, 10**5), alphas=st.tuples(st.floats(0.02, 0.5), st.floats(0.02, 0.5)))
def test_beta_qtc_monotone_in_alpha(seed, alphas):
    lo, hi = sorted(alphas)
    src = unlabeled(31, 4, seed=seed % 997)
    tgt = unlabeled(29, 4, seed=(seed + 1) % 997)
    assert estimate_beta_qtc(src, tgt, lo).value <= estimate_beta_qtc(src, tgt, hi).value


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(seed=st.integers(0, 10**5), alpha=st.floats(0.05, 0.5))
def test_q_threshold_is_attained(seed, alpha):
    src = unlabeled(19, 3, seed=seed % 997)
    tgt = unlabeled(13, 3, seed=(seed + 5) % 997)
    assert estimate_beta_qtc(src, tgt, alpha).q_threshold in top_confidences(tgt)
    assert estimate_beta_qtc_sc(src, tgt, alpha).q_threshold in top_confidences(src)


def test_estimate_file_round_trip(tmp_path):
    src = unlabeled(15, 3, seed=80)
    tgt = unlabeled(15, 3, seed=81)
    est = estimate_beta_qtc(src, tgt, 0.25)
    path = tmp_path / "est.txt"
    path.write_text(format_kv(est.to_kv()))
    kv = read_kv(path)
    assert list(kv) == ["q", "value"]
    assert float(kv["q"]) == est.q_threshold
    assert float(kv["value"]) == est.value
