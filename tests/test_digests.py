"""Same inputs and seed, same bytes: the outputs of a fixed command list
over the committed inputs in ``tests/data`` match a committed table.

The inputs are a 200 x 10 labeled CSV (``cal.csv``), a 100 x 10
unlabeled CSV from a less confident model (``target.csv``) and a
50 x 100 labeled binary file (``wide.bin``), drawn with ``conftest``'s
``softmax_rows`` and ``sample_labels`` (seeds 24 and 25, 26, and 27 and
28; logit scales 2.0, 1.7 and 3.0). The commands touch only sorts,
cumulative sums, comparisons and Philox streams, so the bytes should not
depend on the numpy version or on BLAS.

A change that alters a digest or a printed line updates :data:`EXPECTED`
and says why in CHANGES.md. Print the table of the current code with
``PYTHONPATH=src python tests/test_digests.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CAL, TARGET, WIDE = (str(DATA / name) for name in ("cal.csv", "target.csv", "wide.bin"))
RAPS = ["--predictor", "raps", "--lambda", "0.01", "--kreg", "3"]

# (name, argv); every output lands in the working directory
COMMANDS = [
    ("calibrate-tps", ["calibrate", "--cal", CAL, "--predictor", "tps", "--alpha", "0.1",
                       "--out", "cal_tps.thr", "--seed", "5"]),
    ("calibrate-aps", ["calibrate", "--cal", WIDE, "--predictor", "aps", "--alpha", "0.1",
                       "--out", "cal_aps.thr", "--seed", "5"]),
    ("calibrate-raps", ["calibrate", "--cal", CAL, *RAPS, "--alpha", "0.1",
                        "--out", "cal_raps.thr", "--seed", "5"]),
    ("recalibrate-qtc", ["recalibrate", "--source", CAL, "--target", TARGET, "--predictor", "tps",
                         "--alpha", "0.1", "--method", "qtc", "--out", "qtc.thr", "--seed", "5"]),
    ("recalibrate-qtc-sc", ["recalibrate", "--source", CAL, "--target", TARGET,
                            "--predictor", "aps", "--alpha", "0.1", "--method", "qtc-sc",
                            "--out", "qtc_sc.thr", "--seed", "5"]),
    ("recalibrate-qtc-st", ["recalibrate", "--source", CAL, "--target", TARGET, *RAPS,
                            "--alpha", "0.1", "--method", "qtc-st", "--out", "qtc_st.thr",
                            "--seed", "5"]),
    ("recalibrate-grid", ["recalibrate", "--source", CAL, "--target", TARGET, "--predictor", "aps",
                          "--alpha", "0.05:0.3:0.05", "--method", "qtc-sc", "--out", "grid.csv",
                          "--seed", "5"]),
    ("evaluate-tps", ["evaluate", "--test", CAL, "--threshold", "cal_tps.thr",
                      "--out", "report.csv", "--seed", "5"]),
    ("evaluate-qtc", ["evaluate", "--test", CAL, "--threshold", "qtc.thr",
                      "--out", "report.csv", "--seed", "5"]),
]

EXPECTED = {
    "calibrate-tps": [0, "tau=0.9374706123446231 alpha=0.1\n"],
    "calibrate-aps": [0, "tau=0.9402945747250707 alpha=0.1\n"],
    "calibrate-raps": [0, "tau=0.8988169026708471 alpha=0.1\n"],
    "recalibrate-qtc": [0, "tau=0.9538277765245295 alpha=0.1\n"],
    "recalibrate-qtc-sc": [0, "tau=0.9188672930992815 alpha=0.1\n"],
    "recalibrate-qtc-st": [0, "tau=0.9523 alpha=0.1\n"],
    "recalibrate-grid": [0, "wrote 6 rows to grid.csv\n"],
    "evaluate-tps": [0, "coverage=0.905 avg_set_size=3.465\n"],
    "evaluate-qtc": [0, "coverage=0.915 avg_set_size=4.06\n"],
    "cal_aps.thr": "78b6c99601c5ff28021762dec71b13b360c5ff7de9845330b253a44c556d029f",
    "cal_raps.thr": "07da9b7cba00ac16da9f6c6ed265e414141c7c03144d82570a6a653090bd718e",
    "cal_tps.thr": "cc83afdcd7941865061131b097907e95b4fef3544be88839b08fed9a6b770bab",
    "grid.csv": "e70f6118b05f6109939dda7fa85d270c89cbe8cebe26c6e04599c871d5afcafd",
    "qtc.thr": "589e5bb87c20efa0e630193e6449e9f7a8eca280086209d0dfd3fc501319ad69",
    "qtc.thr.qtc": "1bea4d9080389398d3dfbffc86197782e500d7fb4e2befdec98b535d38d6c2c2",
    "qtc_sc.thr": "92947cb875a28ba04f98c1d373ed910bc4974126738edf41c6bcf9381c70b897",
    "qtc_sc.thr.qtc": "38c619e7b0663ebf8e61f39329b265ce05f5c3161eeacf0f8161ab8793ca8455",
    "qtc_st.thr": "6abcb423088a2f83b083b914e3719effa06314461b8d04ae2b893c87058ad636",
    "qtc_st.thr.qtc": "e283c9f92adba1a40c0371737735b9bc69ddba392221097a47ae62461df4c27d",
    "report.csv": "c64b4b3d3ee458cd944bc13eb63feaf89d1de17957e586d7b61b58ea3dd75019",
}


def run_all(directory) -> dict:
    """Run :data:`COMMANDS` in ``directory``; each command's exit code and
    stdout by name, then each output file's sha256 by file name."""
    from cshift.cli import main

    table = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv)
            table[name] = [code, out.getvalue()]
    finally:
        os.chdir(cwd)
    for path in sorted(Path(directory).iterdir()):
        table[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return table


def test_outputs_match_the_committed_table(tmp_path):
    assert run_all(tmp_path) == EXPECTED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in run_all(tmp).items():
            print(f"    {json.dumps(key)}: {json.dumps(value)},")
