"""Command-level tests: exit codes, output files, flag plumbing.

Commands run in-process through ``main`` so stderr and exit codes are
checked without subprocess overhead. File outputs are reloaded through
the library readers they are meant to feed.
"""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import labeled, sample_labels, softmax_rows, write_csv
from cshift import cli, toymodel, util
from cshift.cli import (
    EVAL_CSV_HEADER,
    MAX_ALPHA_GRID_POINTS,
    alpha_grid,
    build_parser,
    main,
    parse_alpha_grid,
)
from cshift.conformal import PredictorSpec, Threshold, load_threshold
from cshift.scores import DataFormatError, LabeledDataset, load_dataset, save_dataset
from cshift.util import format_float, format_kv, read_kv


def _cal_csv(path, n=80, n_classes=5, seed=3):
    v = softmax_rows(n, n_classes, seed)
    write_csv(path, v, sample_labels(v, seed + 1))


def _unlabeled_csv(path, n=60, n_classes=5, seed=9):
    write_csv(path, softmax_rows(n, n_classes, seed))


# --- alpha grids ---


def test_alpha_grid_parsing():
    assert alpha_grid("0.25") == 0.25
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
    threshold = load_threshold(out)
    assert threshold.spec.kind == "tps"
    assert threshold.method == "none"
    assert 0.0 < threshold.tau <= 1.0
    assert not threshold.saturated


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


def test_missing_input_message_starts_with_the_path_once(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    out = tmp_path / "thr.txt"
    rc = main(["calibrate", "--predictor", "tps", "--alpha", "0.1", "--cal", str(missing), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


@pytest.mark.filterwarnings("error")
def test_header_only_csv_exits_2_with_only_the_error(tmp_path, capsys):
    empty = tmp_path / "e.csv"
    empty.write_text("label,c0,c1\n")
    out = tmp_path / "thr.txt"
    rc = main(["calibrate", "--predictor", "tps", "--alpha", "0.1", "--cal", str(empty), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {empty}: no data rows\n"
    assert not out.exists()


def test_calibrate_saturation_writes_threshold_then_exits_3(tmp_path, capsys):
    cal = tmp_path / "tiny.csv"
    _cal_csv(cal, n=3)  # k = ceil(0.9 * 4) = 4 > 3
    out = tmp_path / "thr.txt"
    rc = main(
        ["calibrate", "--predictor", "tps", "--alpha", "0.1", "--cal", str(cal), "--out", str(out)]
    )
    assert rc == 3
    assert "saturated" in capsys.readouterr().err
    threshold = load_threshold(out)
    assert threshold.saturated
    assert read_kv(out)["saturated"] == "true"
    assert threshold.tau == 1.0


def test_raps_flags_only_valid_with_raps(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal)
    out = tmp_path / "thr.txt"
    base = ["calibrate", "--alpha", "0.1", "--cal", str(cal), "--out", str(out)]

    rc = main(base + ["--predictor", "tps", "--lambda", "0.1"])
    assert rc == 2
    assert "lambda/kreg are only valid with raps, not tps" in capsys.readouterr().err

    rc = main(base + ["--predictor", "raps"])
    assert rc == 2
    assert "raps requires lambda and kreg" in capsys.readouterr().err

    rc = main(base + ["--predictor", "raps", "--lambda", "0.1", "--kreg", "2"])
    assert rc == 0
    spec = load_threshold(out).spec
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
    threshold = load_threshold(out)
    assert threshold.method == "qtc"
    assert threshold.spec.kind == "tps"
    assert 0.0 < threshold.tau <= 1.0
    est = read_kv(str(out) + ".qtc")
    assert list(est) == ["q", "value"]
    assert 0.0 <= float(est["value"]) <= 1.0


@pytest.mark.parametrize("old", [None, b"tau=0.5\n"])
def test_recalibrate_without_its_sidecar_leaves_the_threshold_file(tmp_path, capsys, old):
    src, tgt = _source_and_target(tmp_path)
    out = tmp_path / "thr.txt"
    if old is not None:
        out.write_bytes(old)
    (tmp_path / "thr.txt.qtc").mkdir()  # the sidecar cannot be renamed into place
    argv = ["recalibrate", "--predictor", "tps", "--alpha", "0.1", "--source", str(src),
            "--target", str(tgt), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}.qtc'\n"
    assert (out.read_bytes() if out.exists() else None) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["src.csv", "tgt.csv", "thr.txt.qtc"] + (["thr.txt"] if old is not None else [])
    )


def test_recalibrate_onto_a_directory_writes_no_sidecar(tmp_path, capsys):
    src, tgt = _source_and_target(tmp_path)
    out = tmp_path / "thr.txt"
    out.mkdir()  # refused as it is staged: the sidecar would be renamed first
    argv = ["recalibrate", "--predictor", "tps", "--alpha", "0.1", "--source", str(src),
            "--target", str(tgt), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{out}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src.csv", "tgt.csv", "thr.txt"]


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


@pytest.mark.parametrize("old", [None, b"method,predictor\nqtc,tps\n"])
def test_recalibrate_grid_point_that_raises_leaves_the_old_csv(tmp_path, monkeypatch, capsys, old):
    src, tgt = _source_and_target(tmp_path)
    out = tmp_path / "sweep.csv"
    if old is not None:
        out.write_bytes(old)
    calls = []

    def fail_on_the_second_point(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("second point failed")
        return recalibrate(*args)

    recalibrate = cli.recalibrate
    monkeypatch.setattr(cli, "recalibrate", fail_on_the_second_point)
    argv = ["recalibrate", "--predictor", "tps", "--alpha", "0.1:0.3:0.1", "--source", str(src),
            "--target", str(tgt), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: second point failed\n"
    assert (out.read_bytes() if out.exists() else None) == old
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


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


def test_recalibrate_one_point_grid_writes_a_one_row_csv(tmp_path, capsys):
    src, tgt = _source_and_target(tmp_path)
    out = tmp_path / "g.csv"
    argv = ["recalibrate", "--predictor", "tps", "--alpha", "0.1:0.1:0.05", "--source", str(src),
            "--target", str(tgt), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 1 rows to {out}\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "method,predictor,alpha,tau,q,estimate,seed"
    assert [line.split(",")[:3] for line in lines[1:]] == [["qtc", "tps", "0.1"]]
    assert not (tmp_path / "g.csv.qtc").exists()


def test_recalibrate_qtc_records_the_target_alpha_and_its_beta(tmp_path, capsys):
    data = Path(__file__).resolve().parent / "data"
    thr, report = tmp_path / "qtc.thr", tmp_path / "report.csv"
    assert main(["recalibrate", "--source", str(data / "cal.csv"), "--target",
                 str(data / "target.csv"), "--predictor", "tps", "--alpha", "0.1",
                 "--method", "qtc", "--out", str(thr)]) == 0
    assert capsys.readouterr().out.endswith(" alpha=0.1\n")
    kv = read_kv(thr)
    assert (kv["alpha"], kv["beta"], kv["saturated"]) == ("0.1", "0.09", "false")
    assert main(["evaluate", "--test", str(data / "cal.csv"), "--threshold", str(thr),
                 "--out", str(report)]) == 0
    assert report.read_text().splitlines()[1].split(",")[:3] == ["qtc", "tps", "0.1"]


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


def _zero_tau_source_and_target(tmp_path):
    """A tps source whose threshold is 0 at alpha 0.1 to 0.3: 19 one-hot
    rows of the right class and one of top confidence 0.7, against a target
    of top confidences 0.8 and 0.55, ten rows each."""
    src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
    write_csv(src, np.array([[1.0, 0.0]] * 19 + [[0.3, 0.7]]), [0] * 19 + [1])
    write_csv(tgt, np.array([[0.8, 0.2]] * 10 + [[0.55, 0.45]] * 10))
    return src, tgt


def test_qtc_st_on_a_zero_source_threshold_reads_the_first_order_statistic(tmp_path):
    # tau 0 is the quantile level 0: the source's least top confidence, 0.7,
    # which half the target falls below
    src, tgt = _zero_tau_source_and_target(tmp_path)
    out = tmp_path / "thr.txt"
    argv = ["recalibrate", "--predictor", "tps", "--alpha", "0.1", "--method", "qtc-st",
            "--source", str(src), "--target", str(tgt), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [str(w.message) for w in caught] == [
        "quantile level 0 is below 1/n for n=20; using the first order statistic"
    ]
    assert load_threshold(out).tau == 0.5
    assert read_kv(f"{out}.qtc")["q"] == "0.7"


def test_qtc_st_grid_through_a_zero_source_threshold(tmp_path):
    src, tgt = _zero_tau_source_and_target(tmp_path)
    out = tmp_path / "grid.csv"
    argv = ["recalibrate", "--predictor", "tps", "--alpha", "0.1:0.3:0.1", "--method", "qtc-st",
            "--source", str(src), "--target", str(tgt), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "quantile level 0 is below 1/n", UserWarning)
        assert main(argv) == 0
    assert out.read_text().splitlines()[1:] == [
        "qtc-st,tps,0.1,0.5,0.7,0.5,0",
        "qtc-st,tps,0.2,0.5,0.7,0.5,0",
        "qtc-st,tps,0.3,0.5,0.7,0.5,0",
    ]


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


def test_evaluate_rejects_a_report_with_another_header(tmp_path, capsys):
    cal, thr = _calibrated_threshold(tmp_path)
    out = tmp_path / "report.csv"
    out.write_text("method,predictor,alpha\nqtc,tps,0.1\n")
    rc = main(["evaluate", "--test", str(cal), "--threshold", str(thr), "--out", str(out)])
    assert rc == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "method,predictor,alpha\nqtc,tps,0.1\n"


def test_evaluate_rejects_a_report_without_a_final_newline(tmp_path, capsys):
    cal, thr = _calibrated_threshold(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--test", str(cal), "--threshold", str(thr), "--out", str(out)]) == 0
    unterminated = out.read_bytes().rstrip(b"\n")
    out.write_bytes(unterminated)
    rc = main(["evaluate", "--test", str(cal), "--threshold", str(thr), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {out} does not end with a newline\n"
    assert out.read_bytes() == unterminated


def test_evaluate_rejects_a_threshold_cut_inside_its_last_line(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=80, n_classes=20)
    thr = tmp_path / "thr.txt"
    argv = ["calibrate", "--cal", str(cal), "--predictor", "raps", "--lambda", "0.1",
            "--kreg", "12", "--alpha", "0.1", "--out", str(thr)]
    assert main(argv) == 0
    raw = thr.read_bytes()
    assert raw.endswith(b"\nkreg=12\n")
    # cut to kreg=1: every line still parses, as another threshold
    thr.write_bytes(raw[:-2])
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--test", str(cal), "--threshold", str(thr), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {thr} does not end with a newline\n"
    assert not out.exists()


def test_evaluate_writes_the_header_into_an_empty_report(tmp_path):
    cal, thr = _calibrated_threshold(tmp_path)
    out = tmp_path / "report.csv"
    out.write_text("")
    assert main(["evaluate", "--test", str(cal), "--threshold", str(thr), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == EVAL_CSV_HEADER
    assert len(lines) == 2


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
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--test", str(test_file), "--threshold", str(thr), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {thr} missing key 'predictor'\n"
    assert not out.exists()


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



@pytest.mark.parametrize(
    "text, message",
    [
        ("tau=0.5\nxyz\n", "malformed key=value line 2: 'xyz'"),
        ("alpha=0.1\npredictor=tps\n", "missing key 'tau'"),
        ("tau=abc\nalpha=0.1\npredictor=tps\n", "could not convert string to float: 'abc'"),
        ("tau=nan\nalpha=0.1\npredictor=tps\n", "tau must be finite and >= 0, got nan"),
        (b"tau=0.5\nalpha=0.1\npredictor=tps\xff\n", "can't decode byte 0xff"),
        ("tau=0.5\nalpha=0.1\nsaturated=yes\npredictor=tps\n",
         "saturated must be true or false, got 'yes'"),
        ("tau=0.5\nalpha=0.1\nbeta=abc\npredictor=tps\n",
         "could not convert string to float: 'abc'"),
        ("tau=0.5\nalpha=0.1\nbeta=1.5\npredictor=tps\n", "beta must lie in (0, 1), got 1.5"),
        # a comma in the method would add a column to the report row
        ("tau=0.5\nalpha=0.1\nmethod=qtc,evil\npredictor=tps\n",
         "method must be none, one of ('qtc', 'qtc-sc', 'qtc-st') or baseline-<extractor>, "
         "got 'qtc,evil'"),
    ],
)
def test_evaluate_unreadable_threshold_names_the_file_and_exits_2(
    tmp_path, capsys, text, message
):
    thr = tmp_path / "thr.txt"
    if isinstance(text, bytes):
        thr.write_bytes(text)
    else:
        thr.write_text(text)
    test_file = tmp_path / "test.csv"
    _cal_csv(test_file, n=20)
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--test", str(test_file), "--threshold", str(thr), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(thr) in err and message in err
    assert not out.exists()


def test_malformed_config_line_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("predictor=tps\nxyz\n")
    out = tmp_path / "thr.txt"
    rc = main(["calibrate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert f"error: {cfg}: malformed key=value line 2: 'xyz'" in capsys.readouterr().err
    assert not out.exists()


def test_bad_target_score_names_the_target_file(tmp_path, capsys):
    src = tmp_path / "src.csv"
    _cal_csv(src)
    tgt = tmp_path / "tgt.csv"
    v = softmax_rows(5, 5, seed=9)
    v[2, 1] = math.nan
    write_csv(tgt, v)
    out = tmp_path / "thr.txt"
    argv = ["--source", str(src), "--target", str(tgt), "--predictor", "tps", "--alpha", "0.1"]
    assert main(["recalibrate", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {tgt}: non-finite score at row 3\n"
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
@given(data=st.data())
def test_truncated_or_flipped_dataset_loads_or_names_the_file(tmp_path_factory, suffix, data):
    # every load either succeeds or fails as DataFormatError naming the
    # file first; evaluate then returns 0 or 2, raising nothing
    work = tmp_path_factory.mktemp("fuzz")
    good = work / f"good{suffix}"
    save_dataset(labeled(6, 3, seed=1), good)
    raw = good.read_bytes()
    corrupt = bytearray(raw[: data.draw(st.integers(0, len(raw)), label="cut")])
    if corrupt:
        flip = st.tuples(st.integers(0, len(corrupt) - 1), st.integers(1, 255))
        for at, mask in data.draw(st.lists(flip, max_size=3), label="flips"):
            corrupt[at] ^= mask
    path = work / f"bad{suffix}"
    path.write_bytes(bytes(corrupt))
    try:
        loaded = load_dataset(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        loaded = None
    thr = work / "thr.txt"
    thr.write_text(format_kv(Threshold(tau=0.5, alpha=0.1, spec=PredictorSpec.tps()).to_kv()))
    argv = ["evaluate", "--test", str(path), "--threshold", str(thr), "--out", str(work / "r.csv")]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(argv)
    assert rc == (0 if isinstance(loaded, LabeledDataset) else 2)
    if rc == 2:
        assert err.getvalue().startswith(f"error: {path}")


def test_non_finite_lambda_and_tau_exit_2_and_write_nothing(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal)
    thr = tmp_path / "thr.txt"
    argv = ["calibrate", "--cal", str(cal), "--predictor", "raps", "--kreg", "2", "--alpha", "0.1"]
    for lam in ("nan", "inf"):
        assert main(argv + ["--lambda", lam, "--out", str(thr)]) == 2
        assert f"lam must be finite and >= 0, got {lam}" in capsys.readouterr().err
        assert not thr.exists()
    thr.write_text("tau=nan\nalpha=0.1\nsource_tag=x\nmethod=none\npredictor=tps\n")
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--test", str(cal), "--threshold", str(thr), "--out", str(out)]) == 2
    assert str(thr) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "recalibrate-qtc-st", "evaluate"])
def test_a_finite_lambda_whose_raps_penalty_overflows_exits_2_and_writes_nothing(
    tmp_path, capsys, command
):
    # 1e308 per rank past kreg overflows the largest threshold, 1 + 5e308,
    # before any score is computed
    cal, tgt, thr, out = (tmp_path / name for name in ("cal.csv", "tgt.csv", "thr.txt", "out"))
    _cal_csv(cal)
    _unlabeled_csv(tgt)
    thr.write_text("tau=0.5\nalpha=0.1\nmethod=none\npredictor=raps\nlambda=1e308\nkreg=0\n")
    raps = ["--predictor", "raps", "--lambda", "1e308", "--kreg", "0", "--alpha", "0.1"]
    argv = {
        "calibrate": ["calibrate", "--cal", str(cal), *raps],
        "recalibrate-qtc-st": ["recalibrate", "--source", str(cal), "--target", str(tgt), *raps,
                               "--method", "qtc-st"],
        "evaluate": ["evaluate", "--test", str(cal), "--threshold", str(thr)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: lambda=1e+308 overflows the raps penalty at 5 classes\n"
    assert not out.exists()


# --- baseline ---


def test_baseline_trains_saves_and_predicts(tmp_path, capsys):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=60)
    tgt = tmp_path / "tgt.csv"
    _unlabeled_csv(tgt, n=40)
    model_out = tmp_path / "model.bin"
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
            "--cal",
            str(cal),
            "--target",
            str(tgt),
            "--model-out",
            str(model_out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "corpus_size=" in printed
    assert "predicted_tau=" in printed
    assert model_out.exists()
    threshold = load_threshold(tmp_path / "model.bin.tau")
    assert threshold.method == "baseline-chr"
    assert threshold.spec.kind == "tps"
    assert 0.0 <= threshold.tau <= 1.0


@pytest.mark.parametrize("fault", ["tau file is a directory", "target is missing"])
@pytest.mark.parametrize("old", [None, b"old model"])
def test_baseline_without_its_threshold_leaves_the_model_file(tmp_path, capsys, fault, old):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=60)
    tgt = tmp_path / "tgt.csv"
    if fault == "target is missing":
        message = f"error: {tgt}: No such file or directory\n"
    else:
        _unlabeled_csv(tgt, n=40)
        (tmp_path / "model.bin.tau").mkdir()
        message = f"error: [Errno 21] Is a directory: '{tmp_path / 'model.bin.tau'}'\n"
    model_out = tmp_path / "model.bin"
    if old is not None:
        model_out.write_bytes(old)
    argv = ["baseline", "--predictor", "tps", "--alpha", "0.1", "--extractor", "chr",
            "--bins", "5", "--shifts", "6", "--cal", str(cal),
            "--target", str(tgt), "--model-out", str(model_out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == message
    assert (model_out.read_bytes() if model_out.exists() else None) == old
    # no temporary file is left behind either
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


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
    assert capsys.readouterr().err.endswith(
        "error: argument --shifts: must be an integer >= 1, got 0\n"
    )


def test_baseline_at_a_saturating_alpha_exits_2_with_one_line_and_no_files(tmp_path):
    # every corpus entry has the source's n, so the identity entry's
    # saturation ends the command before a shifted copy is calibrated
    _cal_csv(tmp_path / "cal.csv", n=60)  # ceil(0.99 * 61) = 61 > 60
    _unlabeled_csv(tmp_path / "tgt.csv", n=40)
    run = _python(["-m", "cshift.cli", "baseline", "--cal", "cal.csv", "--predictor", "tps",
                   "--alpha", "0.01", "--extractor", "acr", "--target", "tgt.csv",
                   "--model-out", "m"], cwd=tmp_path)
    message = "error: empty corpus: alpha=0.01 saturates every entry's calibration at n=60\n"
    assert (run.returncode, run.stdout, run.stderr) == (2, "", message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.csv", "tgt.csv"]


# --- simulate ---


@pytest.mark.parametrize("flag", ["psrc", "ptgt", "winv", "wsp", "gamma", "c"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_float_flags_must_be_finite(tmp_path, capsys, flag, value):
    out = tmp_path / "trials.csv"
    argv = ["simulate", "--trials", "1", "--n", "500", "--out", str(out)]
    assert main([*argv, f"--{flag}={value}"]) == 2
    assert capsys.readouterr().err == f"error: argument --{flag}: must be a finite number, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("value, code", [("-5e-1", 0), ("-1e-3", 5)])
def test_simulate_reads_a_negative_value_in_scientific_notation(tmp_path, capsys, value, code):
    # argparse's own negative-number pattern has no exponent, so the spaced
    # form once read the value as an unknown flag and exited 2
    runs = []
    for name, spelling in (("spaced", ["--wsp", value]), ("joined", [f"--wsp={value}"])):
        out = tmp_path / f"{name}.csv"
        rc = main(["simulate", "--trials", "2", "--n", "500", *spelling, "--out", str(out)])
        runs.append((rc, capsys.readouterr(), out.read_bytes() if out.exists() else None))
    assert runs[0][0] == code
    assert runs[1] == runs[0]


# each float flag of simulate with a range around its valid values
SIMULATE_FLOAT_RANGES = {
    "alpha": (1e-3, 0.1), "delta": (1e-3, 0.999), "psrc": (0.0, 1.0), "ptgt": (0.0, 1.0),
    "winv": (1e-3, 10.0), "wsp": (-10.0, 10.0), "gamma": (0.0, 1.0), "c": (0.5, 10.0),
}
EDGE_VALUES = ["0", "-1", "nan", "inf", "1e308", "1e-320", "-1e-3"]


@settings(deadline=None)
@given(data=st.data())
def test_simulate_argv_fuzz_exits_0_2_or_5_and_writes_only_on_success(tmp_path_factory, data):
    # at most 3 trials run in this process: no worker is forked
    argv = ["simulate", "--trials", str(data.draw(st.integers(1, 3), label="trials")),
            "--n", str(data.draw(st.integers(1, 200), label="n"))]
    # at most two flags take an edge value, so that many runs get past parsing
    edged = data.draw(st.sets(st.sampled_from(sorted(SIMULATE_FLOAT_RANGES)), max_size=2))
    for flag, (low, high) in SIMULATE_FLOAT_RANGES.items():
        if flag in edged:
            value = data.draw(st.sampled_from(EDGE_VALUES), label=flag)
        else:
            value = data.draw(st.none() | st.floats(low, high).map(repr), label=flag)
        if value is not None:
            joined = data.draw(st.booleans(), label=f"{flag} joined")
            argv += [f"--{flag}={value}"] if joined else [f"--{flag}", value]
    out = tmp_path_factory.mktemp("simulate") / "trials.csv"
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        rc = main([*argv, "--out", str(out)])
    assert rc in (0, 2, 5), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert out.exists() == (rc == 0)


def test_simulate_computes_the_oracle_and_the_bound_once_per_run(tmp_path, monkeypatch):
    calls = []
    for name in ("oracle_beta", "theorem_bound"):
        def counted(*args, fn=getattr(toymodel, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(toymodel, name, counted)
    # every trial runs in this process, where a call from a trial would count
    monkeypatch.setattr(util, "worker_count", lambda: 1)
    assert main(["simulate", "--trials", "5", "--n", "500", "--out", str(tmp_path / "t.csv")]) == 0
    assert calls == ["oracle_beta", "theorem_bound"]


def test_simulate_alpha_at_error_rate_exits_5(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    rc = main(
        ["simulate", "--trials", "1", "--n", "500", "--alpha", "0.2", "--out", str(out)]
    )
    assert rc == 5
    assert "must be below" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_saturated_logit_exits_5_without_warnings(tmp_path, capsys):
    # w_inv * x_inv overflows to inf: a score of exactly 0 or 1, not an error
    out = tmp_path / "trials.csv"
    argv = ["simulate", "--winv", "1e308", "--c", "1e308", "--trials", "1", "--n", "500",
            "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 5
    assert capsys.readouterr().err == (
        "error: alpha=0.02 must be below 0.9 * target error rate 0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("old", [None, b"trial_id\n0\n"])
def test_simulate_trial_that_raises_leaves_the_old_csv(tmp_path, monkeypatch, capsys, old):
    out = tmp_path / "trials.csv"
    if old is not None:
        out.write_bytes(old)
    calls = []

    def fail_on_the_second_trial(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("second trial failed")
        return run_theorem_trial(*args)

    run_theorem_trial = toymodel.run_theorem_trial
    monkeypatch.setattr(toymodel, "run_theorem_trial", fail_on_the_second_trial)
    assert main(["simulate", "--trials", "3", "--n", "500", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: second trial failed\n"
    assert (out.read_bytes() if out.exists() else None) == old
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("trials", [1, 5, 7])
def test_simulate_writes_the_same_bytes_on_any_worker_count(tmp_path, monkeypatch, capsys,
                                                            trials, seed):
    # 5 and 7 trials share unevenly among 2 and 3 workers
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(util, "worker_count", lambda: workers)
        out = tmp_path / f"trials-{workers}.csv"
        argv = ["simulate", "--trials", str(trials), "--n", "2000", "--seed", str(seed)]
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _fail_on_trials(monkeypatch, failing, seed=0, trials=10):
    """Make run_theorem_trial raise for the trials in ``failing`` (index:
    seconds to wait first) and run the real trial for the others."""
    trial_of = {util.derive_seed(seed, f"trial-{i}"): i for i in range(trials)}
    run_theorem_trial = toymodel.run_theorem_trial

    def trial(*args):
        i = trial_of[args[5]]
        if i in failing:
            time.sleep(failing[i])
            raise ValueError(f"trial {i} failed in process {os.getpid()}")
        return run_theorem_trial(*args)

    monkeypatch.setattr(toymodel, "run_theorem_trial", trial)


@pytest.mark.parametrize("old", [None, b"trial_id\n0\n"])
def test_simulate_raises_the_first_failing_trial_of_several_workers(tmp_path, monkeypatch,
                                                                     capsys, old):
    # on 3 CPUs, trial 1 runs in one worker and trial 2 in another; trial 1
    # fails last, so its error is the one in trial order, not in time
    monkeypatch.setattr(util, "worker_count", lambda: 3)
    _fail_on_trials(monkeypatch, {1: 0.5, 2: 0.0})
    out = tmp_path / "trials.csv"
    if old is not None:
        out.write_bytes(old)
    assert main(["simulate", "--trials", "10", "--n", "500", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trial 1 failed in process ")
    assert int(err.split()[-1]) != os.getpid()  # the trial ran in a worker
    assert (out.read_bytes() if out.exists() else None) == old
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert multiprocessing.active_children() == []


def test_simulate_replays_trial_warnings_on_any_worker_count(tmp_path, monkeypatch, capsys):
    # alpha * n < 1, so each trial's target quantile falls back with a warning
    seen = []
    for workers in (1, 2):
        monkeypatch.setattr(util, "worker_count", lambda: workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            argv = ["simulate", "--trials", "6", "--n", "20", "--out", str(tmp_path / "t.csv")]
            assert main(argv) == 0
        seen.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert len(seen[0]) >= 6
    assert seen[1] == seen[0]
    assert "is below 1/n for n=20" in seen[0][0][1]


def test_simulate_shows_a_repeated_trial_warning_once_by_default(tmp_path, monkeypatch, capsys):
    # the warnings of the workers pass through this process's registry
    monkeypatch.setattr(util, "worker_count", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        argv = ["simulate", "--trials", "6", "--n", "20", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 0
    assert len(caught) == 1


@pytest.mark.parametrize("n, processes", [(cli.MAX_DRAWS, 1), (cli.MAX_DRAWS // 2, 2)])
def test_simulate_runs_as_many_trials_at_once_as_max_draws_allows(tmp_path, monkeypatch, n,
                                                                   processes):
    monkeypatch.setattr(util, "worker_count", lambda: 2)
    pids = tmp_path / "pids"

    def trial(*args):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return toymodel.TheoremTrialReport(0.02, 0.98)

    monkeypatch.setattr(toymodel, "run_theorem_trial", trial)
    argv = ["simulate", "--trials", "4", "--n", str(n), "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    ran_in = set(pids.read_text().split())
    assert len(ran_in) == processes
    assert str(os.getpid()) in ran_in  # the command runs trials too


def test_simulate_flushes_buffered_output_before_starting_workers(tmp_path):
    # a worker that inherited unflushed stdout would write it again at exit
    code = (
        "import sys; from cshift import cli, util; sys.stdout.write('before;');"
        "util.worker_count = lambda: 2;"
        "sys.exit(cli.main(['simulate', '--trials', '4', '--n', '500', '--out', sys.argv[1]]))"
    )
    run = _python(["-c", code, str(tmp_path / "t.csv")])
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("before;trials=4 ")
    assert run.stdout.count("before;") == 1


def test_simulate_forks_its_workers_from_a_single_threaded_process(tmp_path):
    # the CLI pins OpenBLAS to one thread before numpy loads, whatever the
    # environment says; each fork records the threads of the forking process
    if not os.path.isdir("/proc/self/task") or util.worker_count() < 2:
        pytest.skip("needs /proc and at least two CPUs")
    code = (
        "import os, sys\n"
        "threads, fork = [], os.fork\n"
        "def counting_fork():\n"
        "    threads.append(len(os.listdir('/proc/self/task')))\n"
        "    return fork()\n"
        "os.fork = counting_fork\n"
        "from cshift import cli\n"
        "rc = cli.main(['simulate', '--trials', '8', '--n', '200000', '--out', sys.argv[1]])\n"
        "print(rc, threads)\n"
    )
    run = _python(["-c", code, str(tmp_path / "t.csv")], OPENBLAS_NUM_THREADS="4")
    assert run.returncode == 0, run.stderr
    forks = min(util.worker_count(), 8 // 2) - 1
    assert run.stdout.splitlines()[-1] == f"0 {[1] * forks}"


def test_simulate_config_with_a_monte_carlo_draw_count_exits_2(tmp_path, capsys):
    # the oracle is exact, so there is no draw count to set; the flag is
    # rejected in test_bad_flag_returns_2_instead_of_exiting
    out = tmp_path / "trials.csv"
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("trials=1\nnmc=30000\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: unrecognized arguments: --nmc=30000\n"
    assert not out.exists()


def test_simulate_probabilities_are_checked_at_parse_time(tmp_path, capsys):
    args = build_parser().parse_args(["simulate", "--out", "o", "--psrc", "0", "--ptgt", "1"])
    assert (args.psrc, args.ptgt) == (0.0, 1.0)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("trials=1\nptgt=1.5\n")
    out = tmp_path / "trials.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: argument --ptgt: must be a number in [0, 1], got 1.5\n"
    )
    assert not out.exists()


def test_simulate_writes_trial_rows_and_summary(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    rc = main(
        [
            "simulate",
            "--trials",
            "4",
            "--n",
            "2000",
            "--alpha",
            "0.02",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "trial_id,n,alpha,delta,p_src,p_tgt,w_inv,w_sp,beta_true,beta_qtc,bound,violated,coverage"
    )
    assert len(lines) == 1 + 4
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(fields) == 13 for fields in rows)
    assert [fields[0] for fields in rows] == ["0", "1", "2", "3"]
    assert all(fields[11] in ("0", "1") for fields in rows)  # violated serializes as 0/1
    summary = capsys.readouterr().out
    assert "violation_fraction=" in summary
    assert "mean_coverage_error=" in summary
    # the largest deviation as a share of the bound, recomputed from the CSV;
    # at this seed it is neither the first trial's nor the last one's
    shares = [abs(float(f[9]) - float(f[8])) / float(f[10]) for f in rows]
    assert summary.split()[-1] == f"max_bound_share={format_float(max(shares))}"


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
    threshold = load_threshold(out)
    assert threshold.alpha == 0.1
    assert threshold.spec.kind == "tps"
    assert not unused.exists()


def test_config_accepts_raps_penalty_keys(tmp_path):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal, n=100)
    out = tmp_path / "thr.txt"
    cfg = tmp_path / "raps.cfg"
    cfg.write_text(f"cal={cal}\npredictor=raps\nlambda=0.1\nkreg=2\nalpha=0.1\nout={out}\n")
    rc = main(["calibrate", "--config", str(cfg)])
    assert rc == 0
    spec = load_threshold(out).spec
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
    assert "the following arguments are required: --out" in capsys.readouterr().err


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
    assert "argument --method: invalid choice: 'bogus'" in capsys.readouterr().err


def test_config_bad_alpha_grid_names_the_line_and_the_flag(tmp_path, capsys):
    cfg = tmp_path / "recal.cfg"
    cfg.write_text("alpha=0.1:abc:0.1\n")
    out = tmp_path / "g.csv"
    argv = ["recalibrate", "--config", str(cfg), "--predictor", "tps", "--source", "never.csv",
            "--target", "never.csv", "--out", str(out)]
    assert main(argv) == 2  # before any input is read
    assert capsys.readouterr().err == (
        f"error: {cfg}:1: argument --alpha: could not convert string to float: 'abc'\n"
    )
    assert not out.exists()


def _defaults(argv):
    args = vars(build_parser().parse_args(argv))
    return {k: v for k, v in args.items() if k not in ("command", "func")}


def test_each_command_gets_its_defaults_from_the_parser():
    assert _defaults(["calibrate", "--cal", "c", "--predictor", "tps", "--alpha", "0.1",
                      "--out", "o"]) == dict(
        config=None, seed=0, cal="c", predictor="tps", lam=None, kreg=None, alpha=0.1, out="o"
    )
    assert _defaults(["recalibrate", "--source", "s", "--target", "t", "--predictor", "aps",
                      "--alpha", "0.1", "--out", "o"]) == dict(
        config=None, seed=0, source="s", target="t", predictor="aps", lam=None, kreg=None,
        alpha=0.1, method="qtc", out="o",
    )
    assert _defaults(["evaluate", "--test", "t", "--threshold", "h", "--out", "o"]) == dict(
        config=None, seed=0, test="t", threshold="h", out="o"
    )
    assert _defaults(["baseline", "--cal", "c", "--predictor", "tps", "--alpha", "0.1",
                      "--extractor", "chr", "--model-out", "m"]) == dict(
        config=None, seed=0, cal="c", predictor="tps", lam=None, kreg=None, alpha=0.1,
        extractor="chr", bins=10, shifts=90, model_out="m", target=None,
    )
    assert _defaults(["simulate", "--out", "o"]) == dict(
        config=None, seed=0, trials=100, n=10000, alpha=0.02, delta=0.1, psrc=0.9, ptgt=0.7,
        winv=1.0, wsp=0.5, gamma=0.05, c=1.0, out="o",
    )


def _flags_and_config_agree(tmp_path, command, options):
    """Run one command with options as flags, then from a config file;
    return both output directories' file bytes."""
    runs = []
    for how in ("flags", "config"):
        out_dir = tmp_path / how
        out_dir.mkdir()
        opts = {k: str(out_dir / v) if k == "out" else v for k, v in options.items()}
        if how == "flags":
            argv = [command] + [f"--{k}={v}" for k, v in opts.items()]
        else:
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in opts.items()))
            argv = [command, "--config", str(cfg)]
        assert main(argv) == 0
        runs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    return runs


def test_config_gives_the_same_bytes_as_flags(tmp_path):
    src, tgt = _source_and_target(tmp_path)
    flags, config = _flags_and_config_agree(
        tmp_path,
        "recalibrate",
        dict(source=src, target=tgt, predictor="raps", **{"lambda": "0.05"}, kreg="2",
             alpha="0.1", method="qtc-sc", seed="4", out="thr.txt"),
    )
    assert sorted(flags) == ["thr.txt", "thr.txt.qtc"]
    assert flags == config


def test_config_negative_value_gives_the_same_bytes_as_flags(tmp_path):
    flags, config = _flags_and_config_agree(
        tmp_path,
        "simulate",
        dict(trials="1", n="1000", wsp="-0.5", seed="3", out="trials.csv"),
    )
    assert flags == config
    assert flags["trials.csv"].splitlines()[1].split(b",")[7] == b"-0.5"


@pytest.mark.parametrize(
    "line, message",
    [
        ("alpah=0.1", "unrecognized arguments: --alpah=0.1"),
        ("extractor=chr", "unrecognized arguments: --extractor=chr"),  # baseline's option
        ("model_out=m.bin", "unrecognized arguments: --model_out=m.bin"),
        ("seed=abc", "argument --seed: invalid int value: 'abc'"),
        ("predictor=bogus", "argument --predictor: invalid choice: 'bogus'"),
        ("help=x", "argument -h/--help: ignored explicit argument 'x'"),
        ("config=other.cfg", "a config file may not set config"),
    ],
)
def test_config_unknown_key_bad_type_and_bad_choice_exit_2(tmp_path, capsys, line, message):
    cal = tmp_path / "cal.csv"
    _cal_csv(cal)
    out = tmp_path / "thr.txt"
    cfg = tmp_path / "calibrate.cfg"
    cfg.write_text(f"cal={cal}\npredictor=tps\nalpha=0.1\nout={out}\n{line}\n")
    rc = main(["calibrate", "--config", str(cfg)])
    assert rc == 2
    assert f"error: {cfg}:5: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_without_a_final_newline_still_applies(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("trials=2\nn=500")
    out = tmp_path / "trials.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("1,500,")


def test_config_bad_value_names_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# c\nseed=abc\n")
    rc = main(["calibrate", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: argument --seed: invalid int value: 'abc'\n"


# every flag that baseline requires, so that an unknown flag is what fails
_BASELINE_REQUIRED = ["baseline", "--cal", "c", "--predictor", "tps", "--alpha", "0.1",
                      "--extractor", "chr", "--model-out", "m"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["calibrate", "--alpha", "0.1"], "the following arguments are required: --cal"),
        (["simulate", "--out", "o", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        (["recalibrate", "--method", "bogus"], "argument --method: invalid choice: 'bogus'"),
        (["simulate", "--out", "o", "--tri", "3"], "unrecognized arguments: --tri 3"),
        (["calibrate", "--config"], "argument --config: expected one argument"),
        (["simulate", "--out", "o", "--trials", "0"], "argument --trials: must be an integer >= 1, got 0"),
        (["simulate", "--out", "o", "--trials", "-3"], "argument --trials: must be an integer >= 1, got -3"),
        (["simulate", "--out", "o", "--alpha", "0.01:0.03:0.01"],
         "argument --alpha: invalid level value: '0.01:0.03:0.01'"),
        (["calibrate", "--alpha", "0.05:0.2:0.05"], "argument --alpha: invalid level value: '0.05:0.2:0.05'"),
        (["baseline", "--alpha", "1.5"], "argument --alpha: invalid level value: '1.5'"),
        (["simulate", "--out", "o", "--nmc", "1000"], "unrecognized arguments: --nmc 1000"),
        (["simulate", "--out", "o", "--n", "100000000000"],
         "argument --n: must be an integer <= 10000000, got 100000000000"),
        (["simulate", "--out", "o", "--n", "0"], "argument --n: must be an integer >= 1, got 0"),
        (["baseline", "--bins", "10000000000"],
         "argument --bins: must be an integer <= 10000, got 10000000000"),
        (["baseline", "--bins", "0"], "argument --bins: must be an integer >= 1, got 0"),
        (_BASELINE_REQUIRED + ["--epochs", "5000"], "unrecognized arguments: --epochs 5000"),
        (["simulate", "--out", "o", "--delta", "0"], "argument --delta: invalid level value: '0'"),
        (_BASELINE_REQUIRED + ["--lr", "1e-3"], "unrecognized arguments: --lr 1e-3"),
        (["baseline", "--extractor", "mean"], "argument --extractor: invalid choice: 'mean'"),
        (["baseline", "--bins", "x"], "argument --bins: invalid int value: 'x'"),
        (["simulate", "--out", "o", "--psrc", "1.5"],
         "argument --psrc: must be a number in [0, 1], got 1.5"),
        (["simulate", "--out", "o", "--ptgt=-0.1"],
         "argument --ptgt: must be a number in [0, 1], got -0.1"),
        (["baseline", "--shifts", "1001"], "argument --shifts: must be an integer <= 1000, got 1001"),
        (["baseline", "--shifts", "-2"], "argument --shifts: must be an integer >= 1, got -2"),
        (["baseline", "--shifts", "9.5"], "argument --shifts: invalid int value: '9.5'"),
        (["baseline", "--extractor", "dcr"], "argument --extractor: invalid choice: 'dcr'"),
        (["simulate", "--out", "o", "--ptgt", "-1e-3"],
         "argument --ptgt: must be a number in [0, 1], got -1e-3"),
        (["simulate", "--out", "o", "--wsp", "-x"], "argument --wsp: expected one argument"),
    ],
)
def test_bad_flag_returns_2_instead_of_exiting(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


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


# --- a failed command writes nothing ---


class _BrokenStdout:
    """A stdout whose every write and flush fails, like a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        raise OSError(28, "No space left on device")


def _failing_forms(tmp_path):
    """(argv, {output path: bytes written before the run, or None}) by form."""
    src, tgt = _source_and_target(tmp_path)
    cal, thr = _calibrated_threshold(tmp_path)
    report = tmp_path / "report.csv"
    report.write_text(EVAL_CSV_HEADER + "\nnone,tps,0.1,0.5,0.9,1.5,1.0,10,0\n")
    alpha = ["--predictor", "tps", "--alpha", "0.1"]
    recal = ["recalibrate", "--predictor", "tps", "--source", str(src), "--target", str(tgt)]
    return {
        "calibrate": (["calibrate", *alpha, "--cal", str(cal), "--out", str(tmp_path / "c.thr")],
                      {"c.thr": None}),
        "recalibrate": ([*recal, "--alpha", "0.1", "--out", str(tmp_path / "r.thr")],
                        {"r.thr": b"tau=0.5\n", "r.thr.qtc": None}),
        "grid": ([*recal, "--alpha", "0.05:0.2:0.05", "--out", str(tmp_path / "g.csv")],
                 {"g.csv": None}),
        "evaluate": (["evaluate", "--test", str(cal), "--threshold", str(thr),
                      "--out", str(report)], {"report.csv": report.read_bytes()}),
        "baseline": (["baseline", *alpha, "--extractor", "chr", "--bins", "5", "--shifts", "6",
                      "--cal", str(src), "--target", str(tgt),
                      "--model-out", str(tmp_path / "m.bin")], {"m.bin": None, "m.bin.tau": None}),
        "simulate": (["simulate", "--trials", "3", "--n", "500", "--out", str(tmp_path / "t.csv")],
                     {"t.csv": b"trial_id\n0\n"}),
    }


@pytest.mark.parametrize("form", ["calibrate", "recalibrate", "grid", "evaluate", "baseline",
                                  "simulate"])
def test_a_command_whose_stdout_fails_exits_2_and_changes_no_output(tmp_path, monkeypatch,
                                                                      capsys, form):
    argv, before = _failing_forms(tmp_path)[form]
    for name, old in before.items():
        if old is not None:
            (tmp_path / name).write_bytes(old)
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    after = {name: (tmp_path / name).read_bytes() if (tmp_path / name).exists() else None
             for name in before}
    assert after == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# --- the process entry point ---

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(args, cwd=None, **env):
    """Run this interpreter on ``src`` at a fixed help width, with ``env``
    added to the environment."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80", **env}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=60
    )


def test_importing_the_cli_leaves_the_baseline_and_toy_model_unloaded():
    # baseline and simulate import them when they run, and multiprocessing is
    # imported when simulate starts its workers
    code = "import sys, cshift.cli; print([m in sys.modules for m in sys.argv[1:]])"
    modules = ["cshift.cli", "cshift.regression", "cshift.toymodel", "multiprocessing"]
    run = _python(["-c", code, *modules])
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[True, False, False, False]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_the_cli_loads_numpy_with_one_blas_thread_whatever_the_environment_says():
    # OpenBLAS starts its threads at import numpy; an exported count must
    # neither start them nor split the baseline's solve
    code = "import os, cshift.cli; print(len(os.listdir('/proc/self/task')))"
    run = _python(["-c", code], OPENBLAS_NUM_THREADS="4")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1\n"


def test_the_package_root_loads_numpy_at_the_first_exported_name():
    code = """if True:
        import sys, cshift
        print("numpy" in sys.modules)
        homes = {getattr(cshift, name).__module__ for name in cshift.__all__}
        print(sorted(homes), "numpy" in sys.modules)
        try:
            cshift.nothing
        except AttributeError as exc:
            print(exc)
    """
    run = _python(["-c", code], OPENBLAS_NUM_THREADS="4")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "False",
        "['cshift.conformal', 'cshift.qtc', 'cshift.scores'] True",
        "module 'cshift' has no attribute 'nothing'",
    ]


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["calibrate", "--predictor", "tps", "--alpha", "0.1", "--cal", "tiny.csv",
          "--out", "thr.txt"], 3, "tau=1.0 alpha=0.1\n", "warning: calibration saturated\n"),
        (["calibrate", "--alpha", "0.1"], 2, "",
         "error: the following arguments are required: --cal, --predictor, --out\n"),
        (["--help"], 0, "usage: cshift", ""),
    ],
    ids=["saturated", "bad-flag", "help"],
)
def test_the_process_entry_point_matches_main(tmp_path, monkeypatch, capsys, argv, code, stdout,
                                              stderr):
    sides = [tmp_path / "process", tmp_path / "main"]
    for side in sides:
        side.mkdir()
        _cal_csv(side / "tiny.csv", n=3)  # k = ceil(0.9 * 4) = 4 > 3
    run = _python(["-m", "cshift.cli", *argv], cwd=sides[0])
    monkeypatch.chdir(sides[1])
    monkeypatch.setenv("COLUMNS", "80")
    try:
        rc = main(argv)
    except SystemExit as exc:  # --help exits inside argparse
        rc = exc.code
    out, err = capsys.readouterr()
    assert (run.returncode, run.stdout, run.stderr) == (rc, out, err)
    assert rc == code
    assert out == stdout if code else out.startswith(stdout)
    assert err == stderr
    files = [{f.name: f.read_bytes() for f in side.iterdir()} for side in sides]
    assert files[0] == files[1]
    assert ("thr.txt" in files[1]) == (code == 3)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_stdout_on_a_full_device_exits_2_with_one_error_line(tmp_path):
    _cal_csv(tmp_path / "cal.csv", n=120)
    calibrate = ["calibrate", "--predictor", "tps", "--alpha", "0.1", "--cal", "cal.csv",
                 "--out", "thr.txt"]
    # buffered, as a terminal-less stdout is by default, the first write to
    # the device happens at a flush; unbuffered, at the write itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC))
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        # --help's text, printed as argparse exits, fails the same way
        for argv in (calibrate, ["--help"], ["calibrate", "--help"]):
            with open("/dev/full", "w") as full:
                run = subprocess.run([sys.executable, "-m", "cshift.cli", *argv],
                                     env={**env, **unbuffered}, cwd=tmp_path, stdout=full,
                                     stderr=subprocess.PIPE, text=True, timeout=60)
            message = "error: [Errno 28] No space left on device\n"
            assert (run.returncode, run.stderr) == (2, message), (unbuffered, argv)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.csv"]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# every spelling by which an environment sets a threshold that the policy sets
MALLOC_ENV = [("MALLOC_TRIM_THRESHOLD_", "0"), ("MALLOC_MMAP_THRESHOLD_", "65536"),
              ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0"),
              ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=65536")]


def _policy_python(code, **env):
    """Run ``code`` in a fresh interpreter on ``src``, with none of the
    environment's malloc thresholds unless given."""
    names = {name for name, _ in MALLOC_ENV}
    env = {**{k: v for k, v in os.environ.items() if k not in names}, **env}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.skipif(not _glibc(), reason="the malloc policy applies under glibc only")
def test_the_malloc_policy_keeps_evaluate_from_faulting_its_blocks_in_again():
    # a 2000 x 1000 aps evaluate runs row blocks on every CPU; without the
    # policy glibc trims each block's freed temporaries, and five evaluates
    # then fault in 2-37k pages (on 2 CPUs and on 1), against at most a few
    # hundred with it
    code = """if True:
        import resource
        import numpy as np
        from cshift import cli
        from cshift.conformal import PredictorSpec, Threshold, evaluate
        from cshift.scores import LabeledDataset, ScoreMatrix
        applied = cli.keep_freed_memory()
        rng = np.random.default_rng(0)
        values = rng.random((2000, 1000))
        values /= values.sum(axis=1, keepdims=True)
        test = LabeledDataset(ScoreMatrix(values), rng.integers(0, 1000, 2000))
        threshold = Threshold(tau=0.9, alpha=0.1, spec=PredictorSpec("aps"))
        evaluate(threshold, test, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in range(1, 6):
            evaluate(threshold, test, seed=seed)
        print(applied, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    run = _policy_python(code)
    assert run.returncode == 0, run.stderr
    applied, faults = run.stdout.split()
    assert applied == "True"
    assert int(faults) <= 2000


@pytest.mark.parametrize("name, value", MALLOC_ENV)
def test_an_environment_that_sets_a_malloc_threshold_keeps_it(name, value):
    run = _policy_python("from cshift import cli; print(cli.keep_freed_memory())",
                         **{name: value})
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
