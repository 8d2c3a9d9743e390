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
    "recalibrate-qtc": [0, "tau=0.9538277765245295 alpha=0.09\n"],
    "recalibrate-qtc-sc": [0, "tau=0.9188672930992815 alpha=0.09\n"],
    "recalibrate-qtc-st": [0, "tau=0.9523 alpha=0.1\n"],
    "recalibrate-grid": [0, "wrote 6 rows to grid.csv\n"],
    "evaluate-tps": [0, "coverage=0.905 avg_set_size=3.465\n"],
    "evaluate-qtc": [0, "coverage=0.915 avg_set_size=4.06\n"],
    "cal_aps.thr": "04d6c3af2e2ac61578fa44561a9275f9760da0f03cde6ef9109e9e8eb408cd4a",
    "cal_raps.thr": "47d93b1c60268f6e3982f4a4722008c15a1e510560c34b18e003313f03ed1520",
    "cal_tps.thr": "cec418b16c5ba41b1835ed9cd51f1d3feb8528bf2f075c670569f641ea6779e0",
    "grid.csv": "e70f6118b05f6109939dda7fa85d270c89cbe8cebe26c6e04599c871d5afcafd",
    "qtc.thr": "6abd87ec21a2006bcdcedbbb3b583050e8aee99fd7fe98a4eb527d78d5c34448",
    "qtc.thr.qtc": "32b2db58409ce58ce86bbf96ecebca3fcc2c06608eaddbca0c3268334fc3c223",
    "qtc_sc.thr": "f09f3f875896e87769419138b4d29c87005d510e3df8e8a805a5a2dcccafa14e",
    "qtc_sc.thr.qtc": "c1d343e9c9ba4d6970748585e7a64e95766664d3a9ee45566ea37d6c647b964d",
    "qtc_st.thr": "ebc6e5274648ae01a8681119420aa5ef915d62f44d595c1ffd2c5b454d76a632",
    "qtc_st.thr.qtc": "dbfef88e9a993556ce6536b2e7f4308fc21f6658684616dc5e19481d48566e33",
    "report.csv": "bb0ed81d7f3bc40be4a8eef0214ec85a41f2a71064367f3bc5120496ef0df25a",
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
