"""Command-level tests: exit codes, output files, flag plumbing.

Commands run in-process through ``main`` so stderr and exit codes are
checked without subprocess overhead. File outputs are reloaded through
the library readers they are meant to feed.
"""

from __future__ import annotations

import math
import time

import pytest

from conftest import sample_labels, softmax_rows, write_csv
from cshift.cli import EVAL_CSV_HEADER, MAX_ALPHA_GRID_POINTS, main, parse_alpha_grid
from cshift.conformal import load_threshold
from cshift.qtc import load_estimate
from cshift.toymodel import TRIAL_CSV_HEADER


def _cal_csv(path, n=80, n_classes=5, seed=3):
    v = softmax_rows(n, n_classes, seed)
    write_csv(path, v, sample_labels(v, seed + 1))


def _unlabeled_csv(path, n=60, n_classes=5, seed=9):
    write_csv(path, softmax_rows(n, n_classes, seed))


# --- alpha grids ---


def test_alpha_grid_parsing():
    assert parse_alpha_grid("0.25") == [0.25]
    # float-step noise must not leak into grid labels
    assert parse_alpha_grid("0.7:0.9:0.1") == [0.7, 0.8, 0.9]
    assert parse_alpha_grid("0.05:0.2:0.05") == [0.05, 0.1, 0.15, 0.2]
    grid = parse_alpha_grid("0.7:0.96:0.04")
    assert len(grid) == 7
    assert grid[-1] == 0.94  # stop is not a grid point, so it is excluded


def test_alpha_grid_rejections():
    for text in ["0.1:0.2", "0.2:0.1:0.05", "0.1:0.3:0", "0.5:1.05:0.1", "0", "nan:0.2:0.1"]:
        with pytest.raises(ValueError):
            parse_alpha_grid(text)


def test_oversized_alpha_grid_exits_2_before_building(tmp_path, capsys):
    assert len(parse_alpha_grid("0.0001:0.9999:0.0001")) == MAX_ALPHA_GRID_POINTS - 1
    src = tmp_path / "src.csv"
    _cal_csv(src)
    tgt = tmp_path / "tgt.csv"
    _unlabeled_csv(tgt)
    argv = ["recalibrate", "--predictor", "tps", "--source", str(src), "--target", str(tgt)]
    # ~1e12 points: rejected from the count alone, in far less than a second
    started = time.perf_counter()
    rc = main(argv + ["--alpha", "0.01:0.99:1e-12", "--out", str(tmp_path / "grid.csv")])
    assert time.perf_counter() - started < 5.0
    assert rc == 2
    assert f"more than {MAX_ALPHA_GRID_POINTS} points" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


# --- calibrate ---


def test_calibrate_writes_threshold(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=120)
    out = tmp_path / "thr.txt"
    rc = main(
        ["calibrate", "--predictor", "tps", "--alpha", "0.1", "--cal", str(cal), "--out", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("tau=")
    assert "alpha=0.1" in printed
    threshold, spec, method = load_threshold(out)
    assert spec.kind == "tps"
    assert method == "none"
    assert 0.0 < threshold.tau <= 1.0
    assert not threshold.is_saturated


def test_missing_input_exits_2_and_names_the_path(tmp_path, capsys):
    missing = tmp_path / "never.csv"
    rc = main(
        [
            "calibrate",
            "--predictor",
            "tps",
            "--alpha",
            "0.1",
            "--cal",
            str(missing),
            "--out",
            str(tmp_path / "thr.txt"),
        ]
    )
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_calibrate_saturation_writes_threshold_then_exits_3(tmp_path, capsys):
    cal = tmp_path / "tiny.csv"
    _cal_csv(cal, n=3)  # k = ceil(0.9 * 4) = 4 > 3
    out = tmp_path / "thr.txt"
    rc = main(
        ["calibrate", "--predictor", "tps", "--alpha", "0.1", "--cal", str(cal), "--out", str(out)]
    )
    assert rc == 3
    assert "saturated" in capsys.readouterr().err
    threshold, _, _ = load_threshold(out)
    assert threshold.is_saturated
    assert threshold.tau == 1.0


def test_raps_flags_only_valid_with_raps(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal)
    out = tmp_path / "thr.txt"
    base = ["calibrate", "--alpha", "0.1", "--cal", str(cal), "--out", str(out)]

    rc = main(base + ["--predictor", "tps", "--lambda", "0.1"])
    assert rc == 2
    assert "only valid with raps" in capsys.readouterr().err

    rc = main(base + ["--predictor", "raps"])
    assert rc == 2
    assert "raps requires --lambda and --kreg" in capsys.readouterr().err

    rc = main(base + ["--predictor", "raps", "--lambda", "0.1", "--kreg", "2"])
    assert rc == 0
    _, spec, _ = load_threshold(out)
    assert spec.kind == "raps"
    assert spec.lam == 0.1
    assert spec.k_reg == 2


# --- recalibrate ---


def _source_and_target(tmp_path, n_source=100, n_target=80):
    src = tmp_path / "src.csv"
    tgt = tmp_path / "tgt.csv"
    _cal_csv(src, n=n_source)
    _unlabeled_csv(tgt, n=n_target)
    return src, tgt


def test_recalibrate_writes_threshold_and_estimate_sidecar(tmp_path):
    src, tgt = _source_and_target(tmp_path)
    out = tmp_path / "thr.txt"
    rc = main(
        [
            "recalibrate",
            "--predictor",
            "tps",
            "--alpha",
            "0.1",
            "--method",
            "qtc",
            "--source",
            str(src),
            "--target",
            str(tgt),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    threshold, spec, method = load_threshold(out)
    assert method == "qtc"
    assert spec.kind == "tps"
    assert 0.0 < threshold.tau <= 1.0
    est = load_estimate(str(out) + ".qtc")
    assert est.method == "qtc"
    assert 0.0 <= est.value <= 1.0


def test_recalibrate_grid_labels_rows_with_clean_alphas(tmp_path):
    src, tgt = _source_and_target(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "recalibrate",
            "--predictor",
            "tps",
            "--alpha",
            "0.7:0.9:0.1",
            "--method",
            "qtc",
            "--source",
            str(src),
            "--target",
            str(tgt),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,predictor,alpha,tau,q,estimate,seed"
    assert [line.split(",")[2] for line in lines[1:]] == ["0.7", "0.8", "0.9"]


def test_recalibrate_grid_row_count(tmp_path):
    src, tgt = _source_and_target(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "recalibrate",
            "--predictor",
            "tps",
            "--alpha",
            "0.7:0.96:0.04",
            "--method",
            "qtc-sc",
            "--source",
            str(src),
            "--target",
            str(tgt),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 7
    assert lines[-1].split(",")[2] == "0.94"


def test_qtc_st_on_saturated_source_exits_3(tmp_path, capsys):
    src = tmp_path / "src.csv"
    _cal_csv(src, n=3)
    tgt = tmp_path / "tgt.csv"
    _unlabeled_csv(tgt, n=40)
    rc = main(
        [
            "recalibrate",
            "--predictor",
            "tps",
            "--alpha",
            "0.1",
            "--method",
            "qtc-st",
            "--source",
            str(src),
            "--target",
            str(tgt),
            "--out",
            str(tmp_path / "thr.txt"),
        ]
    )
    assert rc == 3
    assert "saturat" in capsys.readouterr().err


# --- evaluate ---


def _calibrated_threshold(tmp_path, n=120, alpha="0.1"):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=n)
    thr = tmp_path / "thr.txt"
    rc = main(
        ["calibrate", "--predictor", "tps", "--alpha", alpha, "--cal", str(cal), "--out", str(thr)]
    )
    assert rc in (0, 3)
    return cal, thr


def test_evaluate_creates_header_then_appends(tmp_path):
    cal, thr = _calibrated_threshold(tmp_path)
    test_file = tmp_path / "test.csv"
    _cal_csv(test_file, n=90, seed=11)
    out = tmp_path / "report.csv"
    argv = ["evaluate", "--test", str(test_file), "--threshold", str(thr), "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == EVAL_CSV_HEADER
    assert len(lines) == 3
    assert lines[1] == lines[2]  # same flags and seed, same row


def test_evaluate_saturated_threshold_reports_full_coverage(tmp_path):
    _, thr = _calibrated_threshold(tmp_path, n=3)
    test_file = tmp_path / "test.csv"
    _cal_csv(test_file, n=50, seed=12)
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--test", str(test_file), "--threshold", str(thr), "--out", str(out)])
    assert rc == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[4] == "1.0"  # coverage
    assert fields[5] == "5.0"  # every set is all 5 classes


def test_evaluate_on_the_calibration_set_lands_in_window(tmp_path):
    # for the plain-probability score the smoothing draw is inert, so
    # coverage on the calibration set itself is exactly k/n
    cal, thr = _calibrated_threshold(tmp_path, n=200)
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--test", str(cal), "--threshold", str(thr), "--out", str(out)])
    assert rc == 0
    coverage = float(out.read_text().splitlines()[1].split(",")[4])
    assert 1 - 0.1 <= coverage <= 1 - 0.1 + 2 / 200


def test_evaluate_rejects_threshold_without_predictor(tmp_path, capsys):
    thr = tmp_path / "bare.txt"
    thr.write_text("tau=0.5\nalpha=0.1\nsource_tag=manual\nmethod=none\n")
    test_file = tmp_path / "test.csv"
    _cal_csv(test_file, n=20)
    rc = main(
        [
            "evaluate",
            "--test",
            str(test_file),
            "--threshold",
            str(thr),
            "--out",
            str(tmp_path / "report.csv"),
        ]
    )
    assert rc == 2
    assert "does not record its predictor" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["lambda", "kreg"])
def test_evaluate_raps_threshold_missing_penalty_key_exits_2(tmp_path, capsys, missing):
    keys = {"tau": "0.5", "alpha": "0.1", "predictor": "raps", "lambda": "0.1", "kreg": "2"}
    del keys[missing]
    thr = tmp_path / "raps.txt"
    thr.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    test_file = tmp_path / "test.csv"
    _cal_csv(test_file, n=20)
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--test", str(test_file), "--threshold", str(thr), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(thr) in err and repr(missing) in err
    assert not out.exists()


# --- baseline ---


def test_baseline_trains_saves_and_predicts(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=60)
    tgt = tmp_path / "tgt.csv"
    _unlabeled_csv(tgt, n=40)
    model_out = tmp_path / "model.bin"
    pred_out = tmp_path / "tau.txt"
    rc = main(
        [
            "baseline",
            "--predictor",
            "tps",
            "--alpha",
            "0.1",
            "--extractor",
            "chr",
            "--bins",
            "5",
            "--shifts",
            "6",
            "--epochs",
            "60",
            "--cal",
            str(cal),
            "--target",
            str(tgt),
            "--model-out",
            str(model_out),
            "--pred-out",
            str(pred_out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "corpus_size=" in printed
    assert "predicted_tau=" in printed
    assert model_out.exists()
    threshold, spec, method = load_threshold(pred_out)
    assert method == "baseline-chr"
    assert spec.kind == "tps"
    assert 0.0 <= threshold.tau <= 1.0


def test_baseline_zero_shifts_exits_2(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=60)
    rc = main(
        [
            "baseline",
            "--predictor",
            "tps",
            "--alpha",
            "0.1",
            "--extractor",
            "acr",
            "--shifts",
            "0",
            "--cal",
            str(cal),
            "--model-out",
            str(tmp_path / "model.bin"),
        ]
    )
    assert rc == 2
    assert "empty corpus" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_baseline_divergent_training_exits_4(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=100, n_classes=4, seed=17)
    rc = main(
        [
            "baseline",
            "--predictor",
            "tps",
            "--alpha",
            "0.1",
            "--extractor",
            "acr",
            "--shifts",
            "4",
            "--epochs",
            "500",
            "--lr",
            "1e9",
            "--cal",
            str(cal),
            "--model-out",
            str(tmp_path / "model.bin"),
        ]
    )
    assert rc == 4
    assert "non-finite loss at epoch" in capsys.readouterr().err


# --- simulate ---


def test_simulate_alpha_at_error_rate_exits_5(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    rc = main(
        ["simulate", "--trials", "1", "--n", "500", "--alpha", "0.2", "--nmc", "20000", "--out", str(out)]
    )
    assert rc == 5
    assert "must be below" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_trial_rows_and_summary(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    rc = main(
        [
            "simulate",
            "--trials",
            "3",
            "--n",
            "2000",
            "--alpha",
            "0.02",
            "--nmc",
            "40000",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRIAL_CSV_HEADER
    assert len(lines) == 1 + 3
    assert all(len(line.split(",")) == 13 for line in lines[1:])
    summary = capsys.readouterr().out
    assert "violation_fraction=" in summary
    assert "mean_coverage_error=" in summary


def test_simulate_negative_spurious_weight_flips_bound_branch(tmp_path):
    out = tmp_path / "neg.csv"
    rc = main(
        [
            "simulate",
            "--trials",
            "1",
            "--n",
            "1000",
            "--alpha",
            "0.02",
            "--wsp",
            "-0.5",
            "--nmc",
            "30000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[7] == "-0.5"
    c_sp = 0.7 * 0.9**2  # p_tgt * p_src^2 once the spurious weight is negative
    expected = math.sqrt(2 * math.log(16 / 0.1) / (1000 * c_sp))
    assert float(fields[10]) == pytest.approx(expected, rel=1e-12)


def test_simulate_without_shift_keeps_beta_near_alpha(tmp_path):
    out = tmp_path / "flat.csv"
    rc = main(
        [
            "simulate",
            "--trials",
            "2",
            "--n",
            "2000",
            "--alpha",
            "0.02",
            "--ptgt",
            "0.9",
            "--nmc",
            "30000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    c_sp = (1 - 0.9) * (1 - 0.9) ** 2
    gap = sum(abs(float(r[9]) - 0.02) for r in rows) / len(rows)
    assert gap <= 2 / math.sqrt(2000 * c_sp)


# --- config files ---


def test_config_supplies_defaults_but_flags_win(tmp_path):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal)
    unused = tmp_path / "a.txt"
    cfg = tmp_path / "calibrate.cfg"
    cfg.write_text(f"cal={cal}\npredictor=tps\nalpha=0.2\nout={unused}\n")
    out = tmp_path / "b.txt"
    rc = main(["calibrate", "--config", str(cfg), "--alpha", "0.1", "--out", str(out)])
    assert rc == 0
    threshold, spec, _ = load_threshold(out)
    assert threshold.alpha == 0.1
    assert spec.kind == "tps"
    assert not unused.exists()


def test_config_accepts_raps_penalty_keys(tmp_path):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=100)
    out = tmp_path / "thr.txt"
    cfg = tmp_path / "raps.cfg"
    cfg.write_text(f"cal={cal}\npredictor=raps\nlambda=0.1\nkreg=2\nalpha=0.1\nout={out}\n")
    rc = main(["calibrate", "--config", str(cfg)])
    assert rc == 0
    _, spec, _ = load_threshold(out)
    assert spec.kind == "raps"
    assert spec.lam == 0.1
    assert spec.k_reg == 2


def test_config_missing_required_option_is_named(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal)
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(f"cal={cal}\npredictor=tps\nalpha=0.1\n")
    rc = main(["calibrate", "--config", str(cfg)])
    assert rc == 2
    assert "missing required option(s): --out" in capsys.readouterr().err


def test_config_bad_method_value_rejected(tmp_path, capsys):
    src, tgt = _source_and_target(tmp_path, n_source=40, n_target=30)
    cfg = tmp_path / "recal.cfg"
    cfg.write_text("method=bogus\n")
    rc = main(
        [
            "recalibrate",
            "--config",
            str(cfg),
            "--predictor",
            "tps",
            "--alpha",
            "0.1",
            "--source",
            str(src),
            "--target",
            str(tgt),
            "--out",
            str(tmp_path / "thr.txt"),
        ]
    )
    assert rc == 2
    assert "--method must be one of" in capsys.readouterr().err


# --- determinism ---


def test_identical_invocations_reproduce_bytes(tmp_path):
    src, tgt = _source_and_target(tmp_path)
    outs = []
    for name in ("one.txt", "two.txt"):
        out = tmp_path / name
        rc = main(
            [
                "recalibrate",
                "--predictor",
                "aps",
                "--alpha",
                "0.1",
                "--method",
                "qtc",
                "--source",
                str(src),
                "--target",
                str(tgt),
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    first = (str(outs[0]) + ".qtc", str(outs[1]) + ".qtc")
    with open(first[0], "rb") as a, open(first[1], "rb") as b:
        assert a.read() == b.read()
