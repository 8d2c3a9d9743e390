import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import labeled, softmax_rows
from cshift import conformal, util
from cshift.conformal import (
    Calibrator,
    CoverageReport,
    PredictorSpec,
    Threshold,
    calibrate,
    conformity_scores,
    evaluate,
    load_threshold,
    max_tau,
    prediction_set,
)
from cshift.scores import LabeledDataset, ScoreMatrix, load_dataset, save_dataset
from cshift.util import ceil_count, format_kv, read_kv, row_uniforms

TPS = PredictorSpec.tps()
APS = PredictorSpec.aps()
RAPS = PredictorSpec.raps(0.1, 1)


def _set_sizes(threshold, data, seed):
    """The per-row set sizes that ``evaluate(threshold, data, seed)``
    counts."""
    spec = threshold.spec
    u = conformal._smoothing(spec, data.n, seed)
    return conformal._blocked_scores(spec, data.scores.values, data.labels, u, threshold.tau)[1]

ROW3 = np.array([0.5, 0.3, 0.2])


def _two_class_cal(pi_y):
    # one row per given true-class score, label always 0
    v = np.array([[p, 1.0 - p] for p in pi_y])
    return LabeledDataset(ScoreMatrix(v), np.zeros(len(pi_y), dtype=np.int64))


def _copies(row, labels):
    """One copy of ``row`` per label, with the labels as an array."""
    return np.tile(row, (len(labels), 1)), np.array(labels)


def test_tps_conformity_is_one_minus_label_score():
    values, labels = _copies([0.9, 0.1], [0])
    assert conformity_scores(TPS, values, labels, None) == pytest.approx([0.1])
    # u must be ignored for the top-score predictor
    assert conformity_scores(TPS, values, labels, np.array([0.7])) == pytest.approx([0.1])


def test_aps_conformity_prefix_sum():
    values, labels = _copies(ROW3, [1, 0, 2])
    scores = conformity_scores(APS, values, labels, np.array([0.0, 0.0, 1.0]))
    assert scores == pytest.approx([0.5, 0.0, 1.0])


def test_raps_conformity_adds_rank_penalty():
    # label ranked 3rd, k_reg=1: prefix 0.8 plus penalty 0.1 per position past the first
    values, labels = _copies(ROW3, [2])
    assert conformity_scores(RAPS, values, labels, np.zeros(1)) == pytest.approx([0.9])


def test_ranking_ties_break_by_class_index():
    values, labels = _copies([0.4, 0.4, 0.2], [0, 1])
    assert conformity_scores(APS, values, labels, np.zeros(2)) == pytest.approx([0.0, 0.4])


def test_tps_full_set_at_tau_one():
    assert prediction_set(TPS, np.array([0.9, 0.1]), 0.0, 1.0).tolist() == [0, 1]


def test_aps_sets_at_tau_point_six():
    assert prediction_set(APS, ROW3, 0.0, 0.6).tolist() == [0, 1]
    assert prediction_set(APS, ROW3, 1.0, 0.6).tolist() == [0]


def test_aps_full_set_at_tau_ge_one():
    assert prediction_set(APS, ROW3, 1.0, 1.0).tolist() == [0, 1, 2]
    assert prediction_set(APS, ROW3, 0.3, 1.2).tolist() == [0, 1, 2]


def test_calibrate_order_statistic_hand_example():
    cal = _two_class_cal([0.9, 0.8, 0.6, 0.4])
    thr = calibrate(TPS, cal, alpha=0.5, seed=0)
    assert thr.tau == pytest.approx(0.4)
    assert not thr.saturated
    assert thr.beta is None


def test_calibrate_saturates_when_k_exceeds_n():
    cal = _two_class_cal([0.9, 0.8, 0.6, 0.4])
    thr = calibrate(TPS, cal, alpha=0.05, seed=0)
    assert thr.tau == 1.0
    assert thr.saturated


def test_calibrate_single_row_boundary():
    cal = _two_class_cal([0.7])
    thr = calibrate(TPS, cal, alpha=0.4, seed=0)
    assert thr.tau == 1.0
    assert thr.saturated


def test_calibrator_scores_once_for_any_level(monkeypatch):
    d = labeled(200, 6, seed=31)
    alphas = (0.3, 0.05, 0.1)
    specs = (TPS, APS, RAPS)
    expected = {(s, a): calibrate(s, d, a, seed=4) for s in specs for a in alphas}
    calls = []
    scores = conformal.conformity_scores
    monkeypatch.setattr(conformal, "conformity_scores", lambda *a: calls.append(a) or scores(*a))
    for spec in specs:
        calls.clear()
        calibrator = Calibrator(spec, d, seed=4)
        assert calibrator.threshold(0.001).saturated
        assert not calls  # k > n needs no scores
        for alpha in alphas:
            assert calibrator.threshold(alpha) == expected[spec, alpha]
        assert len(calls) == 1


@pytest.mark.parametrize("alpha", [float("nan"), 1.5, 0.0, -0.2])
def test_calibrator_refuses_alpha_outside_the_unit_interval_before_scoring(monkeypatch, alpha):
    # Threshold checks alpha too, but only after the scores: NaN would first
    # fail in ceil_count, and 1.5 would score the whole calibration set
    def fail(*args):
        raise AssertionError("scored before alpha was checked")

    monkeypatch.setattr(conformal, "conformity_scores", fail)
    calibrator = Calibrator(TPS, labeled(50, 4, seed=3))
    with pytest.raises(ValueError) as info:
        calibrator.threshold(alpha)
    assert str(info.value) == f"alpha must lie in (0, 1), got {alpha}"


def test_raps_saturation_uses_penalized_maximum():
    spec = PredictorSpec.raps(0.5, 1)
    cal = labeled(4, 3, seed=0)
    thr = calibrate(spec, cal, alpha=0.01, seed=0)
    assert thr.saturated
    assert thr.tau == pytest.approx(1.0 + 0.5 * 2)
    assert max_tau(spec, 3) == pytest.approx(2.0)


@pytest.mark.parametrize("lam", [0.01, 1.0])
def test_raps_with_kreg_equal_to_the_class_count_saturates_at_one(lam, tmp_path):
    # no rank exceeds k_reg = L, so no class is ever penalized and the full
    # set scores 1 under either rank convention
    spec = PredictorSpec.raps(lam, 3)
    assert max_tau(spec, 3) == 1.0
    thr = calibrate(spec, labeled(4, 3, seed=0), alpha=0.01, seed=0)
    assert thr.saturated
    (tmp_path / "thr.kv").write_text(format_kv(thr.to_kv()))
    assert read_kv(tmp_path / "thr.kv")["tau"] == "1.0"


def test_threshold_range_validation():
    with pytest.raises(ValueError):
        Threshold(tau=-0.1, alpha=0.1, spec=TPS)
    with pytest.raises(ValueError):
        Threshold(tau=0.5, alpha=1.0, spec=TPS)


def test_predictor_spec_validation():
    with pytest.raises(ValueError):
        PredictorSpec(kind="tps", lam=0.1, k_reg=None)
    with pytest.raises(ValueError):
        PredictorSpec(kind="raps", lam=None, k_reg=2)
    with pytest.raises(ValueError):
        PredictorSpec(kind="raps", lam=-0.1, k_reg=2)
    with pytest.raises(ValueError):
        PredictorSpec(kind="nope")


def test_a_zero_threshold_holds_the_classes_of_score_one(tmp_path):
    # tau = 0 is legal: a tps set is then the classes whose score is exactly 1
    values = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])
    data = LabeledDataset(ScoreMatrix(values), np.array([0, 0, 1, 2]))
    threshold = Threshold(tau=0.0, alpha=0.1, spec=TPS)
    (tmp_path / "thr.kv").write_text(format_kv(threshold.to_kv()))
    assert load_threshold(tmp_path / "thr.kv") == threshold
    assert evaluate(threshold, data) == CoverageReport(
        coverage=0.25, avg_set_size=0.5, median_set_size=0.5, n_eval=4
    )


@pytest.mark.parametrize("k_reg", [0, 1, 3])
def test_raps_without_a_penalty_is_aps(k_reg):
    # lambda = 0 is legal, and adds exactly nothing to any aps score
    spec = PredictorSpec.raps(0.0, k_reg)
    data = labeled(300, 3, seed=5)
    values, u = data.scores.values, row_uniforms(7, data.n)
    got = conformity_scores(spec, values, data.labels, u)
    assert got.tobytes() == conformity_scores(APS, values, data.labels, u).tobytes()
    threshold, aps = calibrate(spec, data, 0.1, seed=7), calibrate(APS, data, 0.1, seed=7)
    assert threshold.tau == aps.tau
    assert evaluate(threshold, data, seed=3) == evaluate(aps, data, seed=3)
    assert max_tau(spec, 3) == 1.0


def test_raps_kreg_must_fit_class_count():
    cal = labeled(10, 3, seed=1)
    with pytest.raises(ValueError, match="k_reg"):
        calibrate(PredictorSpec.raps(0.1, 7), cal, alpha=0.1, seed=0)


def test_evaluate_saturated_threshold_covers_everything():
    d = labeled(50, 4, seed=6)
    thr = Threshold(tau=1.0, alpha=0.05, spec=TPS, saturated=True)
    rep = evaluate(thr, d, seed=0)
    assert rep.coverage == 1.0
    assert rep.avg_set_size == pytest.approx(4.0)
    np.testing.assert_array_equal(_set_sizes(thr, d, seed=0), np.full(50, 4))


def test_empirical_calibration_on_the_calibration_set():
    # same seed on both sides reuses the smoothing draws, so coverage is
    # exactly k/n for continuous scores
    n = 400
    d = labeled(n, 6, seed=9)
    for spec in (TPS, APS, PredictorSpec.raps(0.05, 2)):
        for alpha in (0.1, 0.25):
            thr = calibrate(spec, d, alpha, seed=21)
            if thr.saturated:
                continue
            k = int(np.ceil((1 - alpha) * (n + 1)))
            rep = evaluate(thr, d, seed=21)
            assert rep.coverage == pytest.approx(k / n)


def test_size_histogram_counts_prediction_sets():
    d = labeled(90, 5, seed=12)
    v = d.scores.values.copy()
    v[::2, 3] = v[::2, 1]  # exact ties in every other row
    tied = LabeledDataset(ScoreMatrix(v / v.sum(axis=1, keepdims=True)), d.labels)
    u = row_uniforms(7, d.n)
    for data in (d, tied):
        values = data.scores.values
        for spec in (TPS, APS, RAPS):
            # same seed on both sides, so tau equals some row's own score
            thr = calibrate(spec, data, 0.2, seed=7)
            rep = evaluate(thr, data, seed=7)
            sizes = [len(prediction_set(spec, row, u[i], thr.tau)) for i, row in enumerate(values)]
            np.testing.assert_array_equal(_set_sizes(thr, data, seed=7), sizes)
            assert rep.avg_set_size == np.mean(sizes)


@pytest.mark.parametrize("n_classes", [2, 7, 8, 12])
def test_tps_set_sizes_count_the_classes_within_tau(n_classes):
    d = labeled(300, n_classes, seed=n_classes)
    values = d.scores.values
    for tau in (0.0, 0.5, 1.0 - values[0, 0], 1.0 - np.median(values), 1.0):
        sizes = conformal._blocked_scores(TPS, values, d.labels, None, tau)[1]
        np.testing.assert_array_equal(sizes, np.count_nonzero(1.0 - values <= tau, axis=1))


def test_coverage_report_accounting():
    d = labeled(120, 5, seed=3)
    thr = calibrate(APS, d, 0.2, seed=4)
    rep = evaluate(thr, d, seed=5)
    assert rep.n_eval == 120
    sizes = _set_sizes(thr, d, seed=5)
    assert sizes.shape == (120,)
    assert rep.avg_set_size == sizes.mean()
    assert rep.median_set_size == np.median(sizes)
    assert 0.0 <= rep.coverage <= 1.0


@given(seed=st.integers(0, 10**6), tau_pair=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_nesting_property(seed, tau_pair):
    lo, hi = sorted(tau_pair)
    row = softmax_rows(1, 5, seed % 9973)[0]
    u = np.random.default_rng(seed).random()
    for spec in (TPS, APS, RAPS):
        inner = set(prediction_set(spec, row, u, lo).tolist())
        outer = set(prediction_set(spec, row, u, hi).tolist())
        assert inner <= outer


@given(
    seed=st.integers(0, 10**6),
    tau=st.floats(0, 1.3),
    tied=st.booleans(),
    u_kind=st.sampled_from(["zero", "one", "random"]),
)
def test_set_score_duality(seed, tau, tied, u_kind):
    row = softmax_rows(1, 4, seed % 9973)[0]
    if tied:
        # one decimal over four classes forces equal scores in most rows
        row = np.round(row, 1)
    u = {"zero": 0.0, "one": 1.0}.get(u_kind, np.random.default_rng(seed).random())
    for spec in (TPS, APS, RAPS):
        scores = conformity_scores(spec, *_copies(row, range(4)), np.full(4, u)).tolist()
        # tau equal to a label's own score must admit that label
        for t in [tau, *scores]:
            members = set(prediction_set(spec, row, u, t).tolist())
            for label in range(4):
                assert (scores[label] <= t) == (label in members)


def _argsort_reference(spec, values, labels, u):
    """aps/raps conformity scores through a stable argsort and its inverse."""
    n, L = values.shape
    rows = np.arange(n)
    order = np.argsort(-values, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(L), (n, L)), axis=1)
    r = ranks[rows, labels]
    sorted_vals = np.take_along_axis(values, order, axis=1)
    prefix = np.cumsum(sorted_vals, axis=1) - sorted_vals
    s = prefix[rows, r] + u * values[rows, labels]
    if spec.kind == "raps":
        s = s + spec.lam * np.maximum(0, r - spec.k_reg)
    return s


@given(
    n=st.integers(1, 25),
    n_classes=st.integers(1, 9),
    seed=st.integers(0, 10**6),
    ties=st.sampled_from(["none", "rounded", "duplicated"]),
    u_kind=st.sampled_from(["zero", "one", "random"]),
    block_rows=st.integers(0, 4),
)
def test_conformity_scores_match_argsort_reference_bitwise(
    n, n_classes, seed, ties, u_kind, block_rows
):
    rng = np.random.default_rng(seed)
    values = softmax_rows(n, n_classes, seed % 9973)
    if ties == "rounded":
        values = np.round(values, 1)
    elif ties == "duplicated":
        src, dst = rng.integers(0, n_classes, 2)
        values[:, dst] = values[:, src]
    labels = rng.integers(0, n_classes, n)
    u = {"zero": np.zeros(n), "one": np.ones(n)}.get(u_kind, rng.random(n))
    # blocks of block_rows rows (one row for 0), mostly with a partial last block
    saved = util.BLOCK_ENTRIES
    util.BLOCK_ENTRIES = block_rows * n_classes
    try:
        for spec in (APS, PredictorSpec.raps(0.37, 0), PredictorSpec.raps(0.1, min(2, n_classes))):
            got = conformity_scores(spec, values, labels, u)
            want = _argsort_reference(spec, values, labels, u)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    finally:
        util.BLOCK_ENTRIES = saved


def _place_labels(values, placements, rng):
    """A label per row where its placement says: the row's unique maximum,
    tied at the maximum with a lower- or a higher-index class, or second."""
    n, L = values.shape
    labels = np.empty(n, dtype=np.int64)
    for i, where in enumerate(placements):
        order = np.argsort(-values[i], kind="stable")
        if where == "top":
            values[i, order[0]] = 1.0  # beats every softmax entry of L >= 2
            labels[i] = order[0]
        elif where == "second":
            values[i, order[0]] = 1.0
            labels[i] = order[1]
        else:
            label, other = sorted(rng.choice(L, 2, replace=False))
            if where == "tied-lower":
                label, other = other, label
            values[i, [label, other]] = 1.0
            labels[i] = label
    return labels


@given(
    placements=st.lists(
        st.sampled_from(["top", "tied-lower", "tied-higher", "second"]), min_size=1, max_size=25
    ),
    n_classes=st.integers(2, 9),
    seed=st.integers(0, 10**6),
    u_kind=st.sampled_from(["zero", "one", "random"]),
    k_reg=st.integers(1, 9),
    block_rows=st.integers(0, 4),
)
def test_top_label_shortcut_matches_argsort_reference_bitwise(
    placements, n_classes, seed, u_kind, k_reg, block_rows
):
    rng = np.random.default_rng(seed)
    n = len(placements)
    values = softmax_rows(n, n_classes, seed % 9973)
    labels = _place_labels(values, placements, rng)
    u = {"zero": np.zeros(n), "one": np.ones(n)}.get(u_kind, rng.random(n))
    saved = util.BLOCK_ENTRIES
    util.BLOCK_ENTRIES = block_rows * n_classes
    try:
        for spec in (APS, PredictorSpec.raps(0.37, 0), PredictorSpec.raps(0.1, min(k_reg, n_classes))):
            got = conformity_scores(spec, values, labels, u)
            want = _argsort_reference(spec, values, labels, u)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    finally:
        util.BLOCK_ENTRIES = saved


def test_only_rows_whose_label_is_not_the_unique_top_are_sorted(monkeypatch):
    values = softmax_rows(40, 6, seed=17)
    top = values.argmax(axis=1)
    sorted_rows = []
    descending = conformal._descending

    def counting(block):
        sorted_rows.append(block.shape[0])
        return descending(block)

    monkeypatch.setattr(conformal, "_descending", counting)
    u = row_uniforms(2, 40)
    for spec in (APS, PredictorSpec.raps(0.05, 2)):
        sorted_rows.clear()
        conformity_scores(spec, values, top, u)
        assert sum(sorted_rows) == 0
        conformity_scores(spec, values, (top + 1) % 6, u)
        assert sum(sorted_rows) == 40


def test_evaluate_is_independent_of_the_row_blocks(monkeypatch):
    d = labeled(50, 7, seed=31)
    for spec in (APS, PredictorSpec.raps(0.05, 2)):
        thr = calibrate(spec, d, 0.2, seed=3)
        whole = evaluate(thr, d, seed=4)
        whole_sizes = _set_sizes(thr, d, seed=4)
        for block_rows in (1, 3, 7, 49):
            monkeypatch.setattr(util, "BLOCK_ENTRIES", block_rows * 7)
            blocked = evaluate(thr, d, seed=4)
            assert blocked.coverage == whole.coverage
            assert blocked.avg_set_size == whole.avg_set_size
            assert blocked.median_set_size == whole.median_set_size
            np.testing.assert_array_equal(_set_sizes(thr, d, seed=4), whole_sizes)
        monkeypatch.undo()


def test_binary_load_and_aps_passes_stay_near_the_file_size(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(labeled(3000, 400, seed=5), path)
    size = path.stat().st_size
    # the first calls import numpy's lazily loaded random modules; keep that
    # one-time cost out of the measurement
    small = labeled(4, 3, seed=0)
    evaluate(calibrate(APS, small, 0.1), small)
    tracemalloc.start()
    try:
        d = load_dataset(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        pass_peaks = []
        for spec in (APS, TPS):
            tracemalloc.reset_peak()
            evaluate(calibrate(spec, d, 0.1, seed=1), d, seed=2)
            pass_peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    # the loaded matrix is the file buffer itself; aps and tps work in
    # small row blocks
    assert load_peak <= 1.1 * size
    for pass_peak in pass_peaks:
        assert pass_peak <= 1.5 * size


def test_a_threshold_sorts_its_scores_without_a_copy(monkeypatch):
    n = 200_000
    d = labeled(n, 10, seed=7)
    calibrate(TPS, labeled(4, 2, seed=0), 0.1)  # first-call caches stay out
    # small row blocks, so that their temporaries stay near 0.1 x 8n
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 1 << 16)
    tracemalloc.start()
    try:
        threshold = Calibrator(TPS, d).threshold(0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scores = np.sort(1.0 - d.scores.values[np.arange(n), d.labels])
    assert threshold.tau == scores[ceil_count(0.9 * (n + 1)) - 1]
    # the n scores, sorted where they lie; a sorted copy would add 8n bytes
    assert peak <= 1.3 * 8 * n


def _label_ranks_reference(values, labels):
    """The classes with a higher score plus the equal ones before the label."""
    label_vals = values[np.arange(values.shape[0]), labels][:, None]
    above = np.count_nonzero(values > label_vals, axis=1)
    tied_before = (values == label_vals) & (np.arange(values.shape[1]) < labels[:, None])
    return above + np.count_nonzero(tied_before, axis=1)


@given(
    n=st.integers(1, 30),
    n_classes=st.integers(1, 12),
    seed=st.integers(0, 10**6),
    decimals=st.integers(0, 2),
)
def test_label_ranks_match_the_tie_definition(n, n_classes, seed, decimals):
    rng = np.random.default_rng(seed)
    # rounded scores tie often, signed zeros included; where a row has a
    # tie, its label sits on one of the tied entries
    values = np.round(softmax_rows(n, n_classes, seed % 9973), decimals)
    values[(values == 0.0) & (rng.random(values.shape) < 0.5)] = -0.0
    labels = rng.integers(0, n_classes, n)
    for i in range(n):
        _, inverse, counts = np.unique(values[i], return_inverse=True, return_counts=True)
        tied = np.flatnonzero(counts[inverse] > 1)
        if tied.size:
            labels[i] = rng.choice(tied)
    got = conformal._label_ranks(values, labels, conformal._descending(values))
    np.testing.assert_array_equal(got, _label_ranks_reference(values, labels))


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_any_worker_count_gives_the_same_bits(monkeypatch, workers):
    d = labeled(200, 9, seed=41)
    u = row_uniforms(7, d.n)

    def run():
        out = []
        for spec in (TPS, APS, PredictorSpec.raps(0.05, 2)):
            out.append(conformity_scores(spec, d.scores.values, d.labels, u).tobytes())
            thr = calibrate(spec, d, 0.1, seed=3)
            rep = evaluate(thr, d, seed=4)
            out.append((thr.tau, rep.coverage, rep.avg_set_size, rep.median_set_size,
                        _set_sizes(thr, d, seed=4).tobytes()))
        return out

    whole = run()  # 1800 entries: one block, in this thread
    on_main = set()
    kernel = conformal._block_scores

    def spy(*args):
        on_main.add(threading.current_thread() is threading.main_thread())
        return kernel(*args)

    monkeypatch.setattr(conformal, "_block_scores", spy)
    monkeypatch.setattr(util, "worker_count", lambda: workers)
    # blocks of 11 rows for one worker, 3 for three and 1 for eight; a
    # short switch interval interleaves the threads' writes to the shared
    # outputs, where a lost write would leave a row of np.empty
    monkeypatch.setattr(util, "BLOCK_ENTRIES", 100)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run() == whole
    finally:
        sys.setswitchinterval(interval)
    assert on_main == {workers == 1}


@given(n=st.integers(1, 30), seed=st.integers(0, 10**6))
def test_vectorized_scores_match_single_rows(n, seed):
    d = labeled(n, 5, seed=seed % 997)
    u = np.random.default_rng(seed).random(n)
    for spec in (TPS, APS, RAPS):
        vec = conformity_scores(spec, d.scores.values, d.labels, u)
        rows = [slice(i, i + 1) for i in range(n)]
        one = [conformity_scores(spec, d.scores.values[i], d.labels[i], u[i])[0] for i in rows]
        np.testing.assert_allclose(vec, one, rtol=0, atol=1e-12)


@given(alpha=st.floats(0.01, 0.5), seed=st.integers(0, 10**4))
def test_calibrated_tau_stays_in_range(alpha, seed):
    d = labeled(40, 4, seed=seed)
    for spec in (TPS, APS, PredictorSpec.raps(0.3, 2)):
        thr = calibrate(spec, d, alpha, seed=seed)
        assert 0.0 <= thr.tau <= max_tau(spec, 4) + 1e-12


def test_calibrate_deterministic_under_seed():
    d = labeled(60, 5, seed=14)
    a = calibrate(APS, d, 0.1, seed=2)
    b = calibrate(APS, d, 0.1, seed=2)
    c = calibrate(APS, d, 0.1, seed=3)
    assert a.tau == b.tau
    assert a.tau != c.tau  # different smoothing draws move the order statistic


def test_threshold_file_round_trip(tmp_path):
    d = labeled(30, 4, seed=5)
    thr = calibrate(RAPS, d, 0.15, seed=8)
    path = tmp_path / "thr.txt"
    path.write_text(format_kv(thr.to_kv()))
    back = load_threshold(path)
    assert back.tau == thr.tau
    assert back.alpha == thr.alpha
    assert back.saturated == thr.saturated
    assert back.spec == RAPS
    assert back.method == "none"


@pytest.mark.parametrize("method", ["none", "qtc", "qtc-sc", "qtc-st", "baseline-chr"])
@pytest.mark.parametrize("spec", [TPS, APS, RAPS], ids=lambda spec: spec.kind)
def test_threshold_file_round_trip_keeps_predictor_and_method(tmp_path, spec, method):
    # qtc and qtc-sc record the level they calibrated at; a plain
    # calibration stands in for a saturated one
    beta = 0.1 / 3 if method in ("qtc", "qtc-sc") else None
    thr = Threshold(
        tau=0.1 + 1 / 3, alpha=0.07, spec=spec, method=method, beta=beta,
        saturated=method == "none",
    )
    path = tmp_path / "thr.txt"
    path.write_text(format_kv(thr.to_kv()))
    assert load_threshold(path) == thr
    kv = read_kv(path)
    beta_key = [] if beta is None else ["beta"]
    assert list(kv) == ["tau", "alpha", *beta_key, "saturated", "method", *spec.to_kv()]
    assert kv["saturated"] == ("true" if method == "none" else "false")
