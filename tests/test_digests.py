"""Same inputs and seed, same bytes: the outputs of a fixed command list
over the committed inputs in ``tests/data`` match a committed table.

The inputs are a 200 x 10 labeled CSV (``cal.csv``), a 100 x 10
unlabeled CSV from a less confident model (``target.csv``) and a
50 x 100 labeled binary file (``wide.bin``), drawn with ``conftest``'s
``softmax_rows`` and ``sample_labels`` (seeds 24 and 25, 26, and 27 and
28; logit scales 2.0, 1.7 and 3.0).

:data:`COMMANDS` (``calibrate``, ``recalibrate``, ``evaluate``) run in
this process. They touch only sorts, cumulative sums, comparisons and
Philox streams, so their bytes should not depend on the numpy version or
on BLAS. :data:`PROCESSES` run in their own processes, as a user runs
them: ``baseline --shifts 20`` from ``cal.csv`` to ``target.csv`` (the
model file and its ``.tau``), ``simulate --trials 6 --n 1000`` at seeds
1 and 7 (``trials.csv`` and stdout), and the four demos' stdout.
``simulate``'s trials then run in forked workers, or in this process
under a one-CPU affinity mask.

``baseline`` goes through LAPACK's least-squares solve and numpy's
float64 ``power`` and ``exp``, whose AVX512, AVX2 and baseline kernels
can round differently. Every case here writes the same bytes with numpy's
default kernels, with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"`` and with ``X86_V3`` disabled too. One case is left out for
that reason: ``baseline --predictor tps --alpha 0.1 --extractor pcr
--shifts 20 --seed 5`` writes another model and ``.tau`` once AVX512 is
disabled; the difference enters through ``np.power`` in
``regression.temperature_scale``, and ``pcr``'s per-class means carry it
into the fit.

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
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
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

BASELINE = ["baseline", "--cal", CAL, "--target", TARGET, "--alpha", "0.1", "--shifts", "20",
            "--seed", "5"]

# (name, argv), each run in its own process with the CLI's process policy:
# ``python -m cshift.cli ARGV`` or ``python demos/NAME.py``
PROCESSES = [
    ("baseline-acr", ["-m", "cshift.cli", *BASELINE, "--predictor", "tps", "--extractor", "acr",
                      "--model-out", "acr.model"]),
    ("baseline-chr", ["-m", "cshift.cli", *BASELINE, "--predictor", "tps", "--extractor", "chr",
                      "--model-out", "chr.model"]),
    ("baseline-chr-minus", ["-m", "cshift.cli", *BASELINE, "--predictor", "tps",
                            "--extractor", "chr-minus", "--model-out", "chr_minus.model"]),
    ("baseline-raps-chr", ["-m", "cshift.cli", *BASELINE, *RAPS, "--extractor", "chr",
                           "--model-out", "raps_chr.model"]),
    ("simulate-1", ["-m", "cshift.cli", "simulate", "--trials", "6", "--n", "1000", "--seed", "1",
                    "--out", "trials_1.csv"]),
    ("simulate-7", ["-m", "cshift.cli", "simulate", "--trials", "6", "--n", "1000", "--seed", "7",
                    "--out", "trials_7.csv"]),
    *((f"demo-{name}", [str(ROOT / "demos" / f"{name}.py")]) for name in (
        "calibrate_and_evaluate", "deviation_bound_trials", "recalibrate_under_shift",
        "threshold_regression")),
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
    "baseline-acr": [0, "corpus_size=20 final_loss=4.948082880765095e-05\npredicted_tau=0.946465626864466\n"],
    "baseline-chr": [0, "corpus_size=20 final_loss=3.811861532404535e-05\npredicted_tau=0.9490087416298273\n"],
    "baseline-chr-minus": [0, "corpus_size=20 final_loss=3.8118615324045335e-05\npredicted_tau=0.9490087416298245\n"],
    "baseline-raps-chr": [0, "corpus_size=20 final_loss=0.00019550719310380723\npredicted_tau=0.912564308503253\n"],
    "simulate-1": [0, "trials=6 violation_fraction=0.0 mean_coverage_error=0.008889222233738725 max_bound_share=0.002899471853145086\n"],
    "simulate-7": [0, "trials=6 violation_fraction=0.0 mean_coverage_error=0.008005122497787268 max_bound_share=0.0018121699082156793\n"],
    "demo-calibrate_and_evaluate": [0, "a1e78848c4a71472c77842197d2cf402ee0ab97a84ecfe3bb1c0a673400ab15b"],
    "demo-deviation_bound_trials": [0, "b5002dfdeb6823b46b96e950a792cda5a3fccec0be3bc77879dffd89940b7f08"],
    "demo-recalibrate_under_shift": [0, "1a9d94a99a95dd5df34d29592ff1d3705d4f21b04be369f67a0891521534d105"],
    "demo-threshold_regression": [0, "a98e822bf208f90807daaf0105f5da1ae5afb5acac0497d41f50e1b9630231a9"],
    "acr.model": "2ff14be2f8093d190e98d85c8261e88b75fe645a034758d5ce1fd91f1080033a",
    "acr.model.tau": "fe00df3a9fbe6c9bb8a3eb69982496a13b5610419dcb12a39543e87b1cce72ac",
    "cal_aps.thr": "78b6c99601c5ff28021762dec71b13b360c5ff7de9845330b253a44c556d029f",
    "cal_raps.thr": "07da9b7cba00ac16da9f6c6ed265e414141c7c03144d82570a6a653090bd718e",
    "cal_tps.thr": "cc83afdcd7941865061131b097907e95b4fef3544be88839b08fed9a6b770bab",
    "chr.model": "ec724e7976380dab9d6a5f415da3d1bd50650248f847e9681f20de23627b7d77",
    "chr.model.tau": "9c3cfc79c2b4220deda5323e279546463e3de3d09e719ca22afb44043b27ad46",
    "chr_minus.model": "0696a8955a27cb9a428ce36ff9de88b0fbbde012185a69c30a07605d81baf539",
    "chr_minus.model.tau": "2362f4e3e2dfd50b464d985426c268d838fa12a2b93a1705c3e4f672f1ba17cd",
    "grid.csv": "e70f6118b05f6109939dda7fa85d270c89cbe8cebe26c6e04599c871d5afcafd",
    "qtc.thr": "589e5bb87c20efa0e630193e6449e9f7a8eca280086209d0dfd3fc501319ad69",
    "qtc.thr.qtc": "1bea4d9080389398d3dfbffc86197782e500d7fb4e2befdec98b535d38d6c2c2",
    "qtc_sc.thr": "92947cb875a28ba04f98c1d373ed910bc4974126738edf41c6bcf9381c70b897",
    "qtc_sc.thr.qtc": "38c619e7b0663ebf8e61f39329b265ce05f5c3161eeacf0f8161ab8793ca8455",
    "qtc_st.thr": "6abcb423088a2f83b083b914e3719effa06314461b8d04ae2b893c87058ad636",
    "qtc_st.thr.qtc": "e283c9f92adba1a40c0371737735b9bc69ddba392221097a47ae62461df4c27d",
    "raps_chr.model": "21426ee8d000a5b3604343aa4382933296e360cb5353ffb7749c21ca62e4c980",
    "raps_chr.model.tau": "1c25687940abfd8db8582425d8dcf214ad071e1b26651c21b742bc61707e4709",
    "report.csv": "c64b4b3d3ee458cd944bc13eb63feaf89d1de17957e586d7b61b58ea3dd75019",
    "trials_1.csv": "84dd2b40c1cc5d9514df12086ece487e5f26de95e55845e822b26c4fe74b7916",
    "trials_7.csv": "483176e447127836102d82b0e30a311a3660a5d9bf8387d2ddcc5224a9ae296a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_process(directory, args) -> list:
    # the rule that pyproject.toml applies in this process: a numpy overflow
    # or invalid-value warning fails the command
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error::RuntimeWarning"}
    run = subprocess.run([sys.executable, *args], cwd=directory, env=env, capture_output=True,
                         text=True, timeout=120)
    return [run.returncode, run.stdout]


def run_all(directory) -> dict:
    """Run :data:`COMMANDS` in this process and :data:`PROCESSES`, two at a
    time, in ``directory``: each command's exit code and stdout by name (a
    demo's stdout as its sha256), then each output file's sha256 by file
    name."""
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
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = pool.map(lambda args: _run_process(directory, args), (a for _, a in PROCESSES))
        for (name, _), (code, out) in zip(PROCESSES, runs):
            table[name] = [code, _sha256(out.encode()) if name.startswith("demo-") else out]
    for path in sorted(Path(directory).iterdir()):
        table[path.name] = _sha256(path.read_bytes())
    return table


def test_outputs_match_the_committed_table(tmp_path):
    assert run_all(tmp_path) == EXPECTED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in run_all(tmp).items():
            print(f"    {json.dumps(key)}: {json.dumps(value)},")
