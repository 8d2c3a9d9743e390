import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import labeled, softmax_rows, unlabeled
from cshift.conformal import PredictorSpec, calibrate
from cshift.regression import (
    LinearRegressor,
    RegressionCorpus,
    _confidence_histogram,
    _dirichlet_jitter,
    build_corpus,
    extract_features,
    predict_tau,
    synthetic_shift,
    temperature_scale,
    train,
    write_model,
)
from cshift.scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from cshift.util import derive_seed, parse_kv, replacing

TPS = PredictorSpec.tps()


def _unlabeled_rows(rows):
    return UnlabeledDataset(ScoreMatrix(np.array(rows)))


def test_acr_hand_example():
    f = extract_features(_unlabeled_rows([[0.9, 0.1], [0.7, 0.3]]), "acr")
    assert f.tolist() == [pytest.approx(0.8)]
    assert f.dtype == np.float64 and f.shape == (1,)


def test_chr_hand_example():
    d = _unlabeled_rows(
        [
            [0.3, 0.3, 0.3, 0.1],
            [0.6, 0.2, 0.1, 0.1],
            [0.9, 0.05, 0.03, 0.02],
        ]
    )
    f = extract_features(d, "chr", bins=2)
    np.testing.assert_allclose(f, [1 / 3, 2 / 3])
    fm = extract_features(d, "chr-minus", bins=2)
    np.testing.assert_allclose(fm, [1 / 3])
    assert fm.shape == (1,)


def test_chr_edge_goes_to_upper_bin():
    assert _confidence_histogram(np.array([0.5]), 2).tolist() == [0.0, 1.0]
    assert _confidence_histogram(np.array([1.0]), 2).tolist() == [0.0, 1.0]
    assert _confidence_histogram(np.array([0.49999]), 2).tolist() == [1.0, 0.0]


def test_chr_requires_two_bins():
    d = unlabeled(4, 3, seed=3)
    for extractor in ("chr", "chr-minus"):
        with pytest.raises(ValueError, match="bins"):
            extract_features(d, extractor, bins=1)


def test_pcr_per_class_means_with_empty_fallback():
    d = _unlabeled_rows(
        [
            [0.7, 0.2, 0.1],
            [0.5, 0.3, 0.2],
            [0.2, 0.6, 0.2],
        ]
    )
    with pytest.warns(UserWarning, match="never predicted"):
        f = extract_features(d, "pcr")
    np.testing.assert_allclose(f, [0.6, 0.6, 1 / 3])
    assert f.shape == (3,)


def test_unknown_extractor_rejected():
    message = "extractor must be one of ('acr', 'chr', 'chr-minus', 'pcr'), got 'mean'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        extract_features(unlabeled(3, 2, seed=0), "mean")


@given(seed=st.integers(0, 10**6), bins=st.integers(2, 12))
def test_chr_sums_to_one(seed, bins):
    d = unlabeled(17, 4, seed=seed % 997)
    f = extract_features(d, "chr", bins=bins)
    assert f.sum() == pytest.approx(1.0)
    fm = extract_features(d, "chr-minus", bins=bins)
    np.testing.assert_array_equal(fm, f[:-1])


@given(seed=st.integers(0, 10**6))
def test_extractors_ignore_row_order(seed):
    v = softmax_rows(13, 4, seed % 997)
    perm = np.random.default_rng(seed).permutation(13)
    a = UnlabeledDataset(ScoreMatrix(v))
    b = UnlabeledDataset(ScoreMatrix(v[perm]))
    # pcr warns, once per dataset, exactly when some class is never predicted
    empty = sorted(set(range(4)) - set(np.argmax(v, axis=1).tolist()))
    for extractor in ("acr", "chr", "chr-minus", "pcr"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fa = extract_features(a, extractor, bins=5)
            fb = extract_features(b, extractor, bins=5)
        np.testing.assert_allclose(fa, fb, atol=1e-15)
        warns = extractor == "pcr" and empty
        message = f"pcr: classes {empty} never predicted; using 1/L for them"
        assert [str(w.message) for w in caught] == ([message] * 2 if warns else [])


def test_temperature_scale_identity_and_flattening():
    v = softmax_rows(8, 4, seed=7)
    np.testing.assert_allclose(temperature_scale(v, 1.0), v, atol=1e-15)
    hot = temperature_scale(v, 10.0)
    np.testing.assert_allclose(hot.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(hot.max(axis=1) < v.max(axis=1))
    np.testing.assert_array_equal(hot.argmax(axis=1), v.argmax(axis=1))


def test_dirichlet_jitter_properties():
    v = softmax_rows(10, 3, seed=8)
    out = _dirichlet_jitter(v, 50.0, np.random.default_rng(0))
    assert out.shape == v.shape
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0)
    again = _dirichlet_jitter(v, 50.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, again)


def test_synthetic_shift_is_valid_and_deterministic():
    d = labeled(40, 5, seed=9)
    s1 = synthetic_shift(d, 0.4, 30.0, seed=4)
    s2 = synthetic_shift(d, 0.4, 30.0, seed=4)
    np.testing.assert_array_equal(s1.scores.values, s2.scores.values)
    np.testing.assert_array_equal(s1.labels, d.labels)
    np.testing.assert_allclose(s1.scores.values.sum(axis=1), 1.0, atol=1e-12)


def test_corpus_identity_entry_hits_source_tau():
    d = labeled(300, 6, seed=10)
    corpus = build_corpus(d, TPS, 0.1, n_shifts=5, extractor="acr", seed=3)
    assert corpus.size == 5
    assert corpus.targets[0] == calibrate(TPS, d, 0.1, seed=derive_seed(3, "cal-0")).tau


def test_corpus_rejects_zero_shifts():
    d = labeled(50, 4, seed=11)
    with pytest.raises(ValueError, match="empty corpus"):
        build_corpus(d, TPS, 0.1, n_shifts=0, extractor="acr")


def test_corpus_drops_saturated_entries(monkeypatch):
    d = labeled(6, 3, seed=13)
    # alpha so small every calibration saturates at n=6; every entry has that
    # n, so the identity entry's saturation ends the corpus before any
    # shifted copy is made, and without a warning per entry
    monkeypatch.setattr(
        "cshift.regression.synthetic_shift", lambda *a: pytest.fail("a shifted copy was made")
    )
    message = "empty corpus: alpha=0.01 saturates every entry's calibration at n=6"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_corpus(d, TPS, 0.01, n_shifts=3, extractor="acr", seed=0)


def _design(model, features):
    """The least-squares design matrix of ``features`` under ``model``'s
    standardization: the standardized features and a column of ones."""
    x = (features - model.feat_mean) / model.feat_std
    return np.hstack([x, np.ones((features.shape[0], 1))])


def _random_corpus(features, targets):
    return RegressionCorpus(
        features=features,
        targets=targets,
        extractor_id="chr",
        spec=TPS,
        alpha=0.1,
        n_classes=features.shape[1],
    )


@settings(max_examples=60)
@given(
    m=st.integers(1, 60),
    d=st.integers(1, 40),
    constant_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_residual_is_orthogonal_to_every_design_column(m, d, constant_column, seed):
    # the normal equations: the least-squares residual has no component
    # along any column of the design, the constant included
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((m, d))
    if constant_column:
        features[:, 0] = 0.25
    corpus = _random_corpus(features, rng.uniform(0.0, 1.0, size=m))
    model = train(corpus)
    design = _design(model, features)
    fitted = design @ np.append(model.weights, model.bias)
    residual = fitted - corpus.targets
    np.testing.assert_allclose(design.T @ residual, 0.0, rtol=0, atol=1e-12)
    assert model.final_loss == pytest.approx(np.mean(residual**2), rel=1e-12, abs=1e-30)
    # a constant added to every feature row and another added to the targets
    # move each fitted threshold by the second: standardizing centers the
    # first away and the column of ones takes up the second. The two solves
    # differ by rounding, which the design's conditioning over the singular
    # values lstsq keeps magnifies
    shift, offset = rng.uniform(-1.0, 1.0, size=d), rng.uniform(-1.0, 1.0)
    moved = train(_random_corpus(features + shift, corpus.targets + offset))
    moved_fitted = _design(moved, features + shift) @ np.append(moved.weights, moved.bias)
    s = np.linalg.svd(design, compute_uv=False)
    kept = s[s > np.finfo(float).eps * max(design.shape) * s[0]]
    cond = kept[0] / kept[-1]
    np.testing.assert_allclose(moved_fitted, fitted + offset, rtol=0, atol=1e-12 * cond)


def test_fit_recovers_a_target_linear_in_the_features():
    rng = np.random.default_rng(31)
    features = rng.standard_normal((50, 6))
    slope = rng.standard_normal(6)
    corpus = _random_corpus(features, features @ slope + 0.3)
    model = train(corpus)
    # a slope on raw features is that slope times the spread on standardized ones
    np.testing.assert_allclose(model.weights, slope * model.feat_std, rtol=0, atol=1e-12)
    assert model.bias == pytest.approx(0.3 + model.feat_mean @ slope, abs=1e-12)
    assert model.final_loss <= 1e-24


def test_chr_design_is_rank_deficient_and_still_fits():
    d = labeled(200, 5, seed=32)
    corpus = build_corpus(d, TPS, 0.1, n_shifts=12, extractor="chr", bins=6, seed=7)
    np.testing.assert_allclose(corpus.features.sum(axis=1), 1.0, atol=1e-12)
    model = train(corpus)
    design = _design(model, corpus.features)
    # the bins sum to 1, so the columns and the constant are dependent
    assert np.linalg.matrix_rank(design) < design.shape[1]
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    residual = design @ np.append(model.weights, model.bias) - corpus.targets
    np.testing.assert_allclose(design.T @ residual, 0.0, rtol=0, atol=1e-12)


def test_single_entry_corpus_interpolates():
    d = labeled(120, 4, seed=14)
    corpus = build_corpus(d, TPS, 0.2, n_shifts=1, extractor="acr", seed=2)
    model = train(corpus)
    assert model.final_loss <= 1e-6
    assert predict_tau(model, d) == pytest.approx(corpus.targets[0], abs=1e-3)


def test_duplicated_corpus_trains_identically():
    d = labeled(150, 4, seed=15)
    corpus = build_corpus(d, TPS, 0.15, n_shifts=4, extractor="chr", bins=5, seed=8)
    doubled = type(corpus)(
        features=np.vstack([corpus.features, corpus.features]),
        targets=np.concatenate([corpus.targets, corpus.targets]),
        extractor_id=corpus.extractor_id,
        spec=corpus.spec,
        alpha=corpus.alpha,
        n_classes=corpus.n_classes,
    )
    a = train(corpus)
    b = train(doubled)
    # the doubled design has the same least-squares solution, reached by
    # other float operations, so agreement is to rounding, not bitwise
    np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=1e-12)
    assert a.bias == pytest.approx(b.bias, abs=1e-12)


def test_constant_feature_column_survives_standardization():
    d = labeled(80, 3, seed=18)
    corpus = build_corpus(d, TPS, 0.2, n_shifts=1, extractor="chr", bins=4, seed=0)
    model = train(corpus)
    assert np.all(np.isfinite(model.final_loss))
    assert np.all(model.feat_std >= 1.0)  # all-identical rows floor every column


def _margin_scores(rng, n, L, margin):
    """(n, L) softmax rows whose true class gets an extra logit margin
    drawn from N(margin, 1.5^2), and the true labels."""
    labels = rng.integers(0, L, size=n)
    logits = rng.standard_normal((n, L))
    logits[np.arange(n), labels] += margin + 1.5 * rng.standard_normal(n)
    values = np.exp(logits - logits.max(axis=1, keepdims=True))
    return values / values.sum(axis=1, keepdims=True), labels


def test_baseline_beats_the_uncalibrated_source_tau_under_a_margin_shift():
    # sources of margin 3.0, targets of margin 2.6, 2.2 and 1.8: each target
    # is less confident than its source, so its calibrated tau moves away
    # from the source's; the fit must track that move better than keeping
    # the source tau, on average over each source's three targets
    for source_seed in (1, 2, 3):
        values, labels = _margin_scores(np.random.default_rng([source_seed, 0]), 2000, 10, 3.0)
        source = LabeledDataset(ScoreMatrix(values), labels)
        targets = []
        for k, margin in enumerate((2.6, 2.2, 1.8), start=1):
            values, labels = _margin_scores(np.random.default_rng([source_seed, k]), 2000, 10, margin)
            tau = calibrate(TPS, LabeledDataset(ScoreMatrix(values), labels), 0.1, seed=0).tau
            targets.append((UnlabeledDataset(ScoreMatrix(values)), tau))
        source_tau = calibrate(TPS, source, 0.1, seed=0).tau
        kept = np.mean([abs(source_tau - tau) for _, tau in targets])
        for extractor in ("chr", "pcr"):
            model = train(build_corpus(source, TPS, 0.1, 90, extractor, seed=source_seed))
            fitted = np.mean([abs(predict_tau(model, t) - tau) for t, tau in targets])
            assert fitted < kept, (source_seed, extractor, fitted, kept)


def test_zero_weight_model_outputs_bias():
    model = LinearRegressor(
        weights=np.zeros(1),
        bias=0.42,
        feat_mean=np.zeros(1),
        feat_std=np.ones(1),
        extractor_id="acr",
        spec=TPS,
        alpha=0.1,
        n_classes=4,
        final_loss=0.0,
    )
    assert model.d == 1
    target = _unlabeled_rows([[0.7, 0.3]])
    assert predict_tau(model, target) == pytest.approx(0.42)
    model.bias = 7.5
    assert predict_tau(model, target) == 1.0  # clamped to the tps maximum
    model.bias = -3.0
    assert predict_tau(model, target) == 0.0


@pytest.mark.parametrize("extractor", ["acr", "chr", "chr-minus", "pcr"])
def test_predict_uses_the_models_extractor_and_bins(extractor):
    source = labeled(120, 4, seed=19)
    corpus = build_corpus(source, TPS, 0.1, n_shifts=3, extractor=extractor, bins=6, seed=0)
    model = train(corpus)
    target = unlabeled(50, 4, seed=23)
    feature = extract_features(target, extractor, 6)
    x = (feature - model.feat_mean) / model.feat_std
    out = float(x @ model.weights) + model.bias
    assert predict_tau(model, target) == np.clip(out, 0.0, 1.0)


@pytest.mark.filterwarnings("ignore:pcr")
def test_predict_rejects_mismatches():
    d = labeled(90, 4, seed=19)
    corpus = build_corpus(d, TPS, 0.1, n_shifts=2, extractor="pcr", seed=0)
    model = train(corpus)
    with pytest.raises(ValueError, match="dimension 5 does not match model input 4"):
        predict_tau(model, unlabeled(30, 5, seed=24))


def _save(model, path):
    """Write a model file as ``cshift baseline`` does."""
    with replacing(path) as fh:
        write_model(model, fh)


def test_model_file_round_trip(tmp_path):
    d = labeled(140, 5, seed=20)
    corpus = build_corpus(d, PredictorSpec.raps(0.1, 2), 0.1, 3, "chr", bins=6, seed=9)
    model = train(corpus)
    path = tmp_path / "model.bin"
    _save(model, path)
    data = path.read_bytes()
    assert b"\nlayers=6,1\n" in data and data.endswith(
        np.append(model.weights, model.bias).astype("<f8").tobytes()
    )
    # the header runs from the magic line to its blob_bytes line, in
    # FORMATS.md's key order; the blob is all that follows
    end = data.index(b"\n", data.index(b"\nblob_bytes=") + 1) + 1
    magic, _, header = data[:end].decode().partition("\n")
    kv = parse_kv(header.splitlines())
    assert (magic, kv["offset_base"]) == ("CSHIFTMLP1", "none")
    assert list(kv) == [
        "layers", "extractor", "predictor", "lambda", "kreg", "alpha", "n_classes",
        "offset_base", "final_loss", "feat_mean", "feat_std", "blob_bytes",
    ]
    assert int(kv["blob_bytes"]) == len(data) - end == 8 * (model.d + 1)
    assert float(kv["final_loss"]) == model.final_loss


class _FailingFloat:
    def __float__(self):
        raise OSError(28, "No space left on device")


def test_failed_model_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.bin"
    _save(train(build_corpus(labeled(100, 3, seed=22), TPS, 0.2, 2, "acr", seed=1)), path)
    before = path.read_bytes()
    # the weights fail to convert after the header is written
    other = train(build_corpus(labeled(100, 3, seed=23), TPS, 0.2, 2, "acr", seed=2))
    other.weights = np.array([_FailingFloat()], dtype=object)
    with pytest.raises(OSError, match="No space left"):
        _save(other, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
