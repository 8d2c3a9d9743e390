import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import labeled, softmax_rows, unlabeled
from cshift.conformal import PredictorSpec, calibrate
from cshift.regression import (
    MlpRegressor,
    TrainingDivergedError,
    build_corpus,
    confidence_histogram,
    dirichlet_jitter,
    extract_features,
    init_parameters,
    load_model,
    loss_and_gradients,
    mlp_forward,
    predict_tau,
    save_model,
    synthetic_shift,
    temperature_scale,
    train,
)
from cshift.scores import LabeledDataset, ScoreMatrix, UnlabeledDataset
from cshift.util import derive_seed

TPS = PredictorSpec.tps()


def _unlabeled_rows(rows):
    return UnlabeledDataset(ScoreMatrix(np.array(rows)))


def test_acr_hand_example():
    f = extract_features(_unlabeled_rows([[0.9, 0.1], [0.7, 0.3]]), "acr")
    assert f.tolist() == [pytest.approx(0.8)]
    assert f.dtype == np.float64 and f.shape == (1,)


def test_dcr_self_difference_is_zero():
    d = unlabeled(9, 3, seed=1)
    f = extract_features(d, "dcr", source_ref=d)
    assert f[0] == 0.0


def test_dcr_requires_reference():
    with pytest.raises(ValueError, match="source"):
        extract_features(unlabeled(5, 3, seed=2), "dcr")


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
    assert confidence_histogram(np.array([0.5]), 2).tolist() == [0.0, 1.0]
    assert confidence_histogram(np.array([1.0]), 2).tolist() == [0.0, 1.0]
    assert confidence_histogram(np.array([0.49999]), 2).tolist() == [1.0, 0.0]


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
    with pytest.raises(ValueError, match="extractor"):
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
    ref = unlabeled(6, 4, seed=5)
    for extractor in ("acr", "dcr", "chr", "chr-minus", "pcr"):
        fa = extract_features(a, extractor, bins=5, source_ref=ref)
        fb = extract_features(b, extractor, bins=5, source_ref=ref)
        np.testing.assert_allclose(fa, fb, atol=1e-15)


def test_temperature_scale_identity_and_flattening():
    v = softmax_rows(8, 4, seed=7)
    np.testing.assert_allclose(temperature_scale(v, 1.0), v, atol=1e-15)
    hot = temperature_scale(v, 10.0)
    np.testing.assert_allclose(hot.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(hot.max(axis=1) < v.max(axis=1))
    np.testing.assert_array_equal(hot.argmax(axis=1), v.argmax(axis=1))


def test_dirichlet_jitter_properties():
    v = softmax_rows(10, 3, seed=8)
    out = dirichlet_jitter(v, 50.0, np.random.default_rng(0))
    assert out.shape == v.shape
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0)
    again = dirichlet_jitter(v, 50.0, np.random.default_rng(0))
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


def test_corpus_dcr_targets_are_offsets():
    d = labeled(250, 5, seed=12)
    corpus = build_corpus(d, TPS, 0.1, n_shifts=4, extractor="dcr", seed=6)
    assert corpus.offset_base is not None
    assert corpus.targets[0] == pytest.approx(0.0)
    assert corpus.features[0, 0] == pytest.approx(0.0)


def test_corpus_drops_saturated_entries():
    d = labeled(6, 3, seed=13)
    # alpha so small every calibration saturates at n=6
    with pytest.raises(ValueError, match="empty corpus"):
        build_corpus(d, TPS, 0.01, n_shifts=3, extractor="acr", seed=0)


def test_gradient_check_against_central_differences():
    rng = np.random.default_rng(0)
    layer_sizes = (3, 4, 4, 4, 1)
    weights, biases = init_parameters(layer_sizes, seed=1)
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal(3)
    _, grads_w, grads_b = loss_and_gradients(weights, biases, x, y)
    step = 1e-5
    worst = 0.0
    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for p, g in zip(params, grads):
            flat = p.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up, _, _ = loss_and_gradients(weights, biases, x, y)
                flat[idx] = orig - step
                down, _, _ = loss_and_gradients(weights, biases, x, y)
                flat[idx] = orig
                fd = (up - down) / (2 * step)
                ga = g.ravel()[idx]
                scale = max(abs(fd), abs(ga), 1e-8)
                worst = max(worst, abs(fd - ga) / scale)
    assert worst <= 1e-4


def test_single_entry_corpus_interpolates():
    d = labeled(120, 4, seed=14)
    corpus = build_corpus(d, TPS, 0.2, n_shifts=1, extractor="acr", seed=2)
    model = train(corpus, epochs=4000, learning_rate=1e-2, seed=0)
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
        offset_base=corpus.offset_base,
    )
    a = train(corpus, epochs=300, learning_rate=1e-3, seed=5)
    b = train(doubled, epochs=300, learning_rate=1e-3, seed=5)
    # gradients over the doubled batch are summed in a different order,
    # so agreement is up to float addition order, not bitwise
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_allclose(wa, wb, rtol=0, atol=1e-12)


def test_loss_decreases_across_checkpoints():
    d = labeled(200, 5, seed=16)
    corpus = build_corpus(d, TPS, 0.1, n_shifts=8, extractor="acr", seed=4)
    losses = [
        train(corpus, epochs=e, learning_rate=1e-3, seed=3).final_loss
        for e in (50, 200, 800)
    ]
    assert losses[0] >= losses[1] >= losses[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_names_epoch():
    d = labeled(100, 4, seed=17)
    corpus = build_corpus(d, TPS, 0.1, n_shifts=4, extractor="acr", seed=1)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train(corpus, epochs=500, learning_rate=1e9, seed=0)


def test_constant_feature_column_survives_standardization():
    d = labeled(80, 3, seed=18)
    corpus = build_corpus(d, TPS, 0.2, n_shifts=1, extractor="chr", bins=4, seed=0)
    model = train(corpus, epochs=50, learning_rate=1e-3, seed=0)
    assert np.all(np.isfinite(model.final_loss))
    assert np.all(model.feat_std >= 1.0)  # all-identical rows floor every column


def test_zero_weight_model_outputs_bias():
    sizes = (1, 64, 64, 64, 1)
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    biases[-1][0] = 0.42
    model = MlpRegressor(
        weights=weights,
        biases=biases,
        feat_mean=np.zeros(1),
        feat_std=np.ones(1),
        extractor_id="acr",
        spec=TPS,
        alpha=0.1,
        n_classes=4,
        offset_base=None,
        final_loss=0.0,
    )
    assert model.layer_sizes == sizes
    target = _unlabeled_rows([[0.7, 0.3]])
    assert predict_tau(model, target) == pytest.approx(0.42)
    biases[-1][0] = 7.5
    assert predict_tau(model, target) == 1.0  # clamped to the tps maximum
    biases[-1][0] = -3.0
    assert predict_tau(model, target) == 0.0


@pytest.mark.parametrize("extractor", ["acr", "dcr", "chr", "chr-minus", "pcr"])
def test_predict_uses_the_models_extractor_and_bins(extractor):
    source = labeled(120, 4, seed=19)
    corpus = build_corpus(source, TPS, 0.1, n_shifts=3, extractor=extractor, bins=6, seed=0)
    model = train(corpus, epochs=20, learning_rate=1e-3, seed=0)
    target = unlabeled(50, 4, seed=23)
    feature = extract_features(target, extractor, 6, source_ref=source)
    x = ((feature - model.feat_mean) / model.feat_std)[None, :]
    out = float(mlp_forward(model.weights, model.biases, x)[0]) + (model.offset_base or 0.0)
    assert predict_tau(model, target, source_ref=source) == np.clip(out, 0.0, 1.0)


@pytest.mark.filterwarnings("ignore:pcr")
def test_predict_rejects_mismatches():
    d = labeled(90, 4, seed=19)
    corpus = build_corpus(d, TPS, 0.1, n_shifts=2, extractor="pcr", seed=0)
    model = train(corpus, epochs=20, learning_rate=1e-3, seed=0)
    with pytest.raises(ValueError, match="dimension 5 does not match model input 4"):
        predict_tau(model, unlabeled(30, 5, seed=24))


def test_model_file_round_trip(tmp_path):
    d = labeled(140, 5, seed=20)
    corpus = build_corpus(d, PredictorSpec.raps(0.1, 2), 0.1, 3, "chr", bins=6, seed=9)
    model = train(corpus, epochs=100, learning_rate=1e-3, seed=2)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_sizes == model.layer_sizes
    assert back.extractor_id == model.extractor_id
    assert back.spec == model.spec
    assert back.final_loss == model.final_loss
    for wa, wb in zip(model.weights, back.weights):
        np.testing.assert_array_equal(wa, wb)
    target = unlabeled(30, 5, seed=21)
    assert predict_tau(back, target) == predict_tau(model, target)


def test_model_file_rejects_truncated_blob(tmp_path):
    d = labeled(100, 3, seed=22)
    corpus = build_corpus(d, TPS, 0.2, 2, "acr", seed=1)
    model = train(corpus, epochs=10, learning_rate=1e-3, seed=1)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError):
        load_model(path)


def test_model_file_missing_header_key_names_file_and_key(tmp_path):
    d = labeled(100, 3, seed=22)
    corpus = build_corpus(d, TPS, 0.2, 2, "acr", seed=1)
    model = train(corpus, epochs=10, learning_rate=1e-3, seed=1)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    start = data.index(b"\nextractor=") + 1
    path.write_bytes(data[:start] + data[data.index(b"\n", start) + 1 :])
    with pytest.raises(ValueError, match=r"model\.bin missing key 'extractor'"):
        load_model(path)



def _header_line(data: bytes, key: bytes) -> tuple[int, int]:
    start = data.index(b"\n" + key + b"=") + 1
    return start, data.index(b"\n", start)


@pytest.mark.parametrize(
    "key, value, message",
    [
        (b"blob_bytes", b"abc", "invalid literal for int() with base 10: 'abc'"),
        (b"blob_bytes", b"8", "header says 8"),
        (b"extractor", b"acr\xff", "can't decode byte 0xff"),
        (b"extractor", b"zzz", "extractor must be one of"),
        (b"feat_mean", b"0.5,0.5", "feat_mean has 2 and feat_std 1 entries for 1 inputs"),
        (b"feat_std", b"", "could not convert string to float: ''"),
        (b"layers", b"1", "layers must be two or more positive sizes, got 1"),
        (b"layers", b"1,-64,64,64,1", "layers must be two or more positive sizes"),
    ],
)
def test_model_file_errors_name_the_file(tmp_path, key, value, message):
    d = labeled(100, 3, seed=22)
    corpus = build_corpus(d, TPS, 0.2, 2, "acr", seed=1)
    model = train(corpus, epochs=10, learning_rate=1e-3, seed=1)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    start, end = _header_line(data, key)
    path.write_bytes(data[: start + len(key) + 1] + value + data[end:])
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_forward_pass_shapes():
    sizes = (2, 64, 64, 64, 1)
    weights, biases = init_parameters(sizes, seed=0)
    out = mlp_forward(weights, biases, np.zeros((5, 2)))
    assert out.shape == (5,)
    np.testing.assert_array_equal(out, np.zeros(5))  # zero input, zero biases
