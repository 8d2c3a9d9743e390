"""The README's library quick start runs as written against ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import cshift

ROOT = Path(__file__).resolve().parents[1]


def test_package_root_exports_the_quick_start_api_only():
    assert sorted(cshift.__all__) == sorted(
        [
            "Calibrator",
            "PredictorSpec",
            "calibrate",
            "evaluate",
            "recalibrate",
            "LabeledDataset",
            "UnlabeledDataset",
            "ScoreMatrix",
            "load_dataset",
            "save_dataset",
            "DataFormatError",
        ]
    )


def test_readme_quick_start_runs_against_src():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == 2
