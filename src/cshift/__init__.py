"""Conformal prediction with quantile-based recalibration under distribution shift.

The package root exports the quick-start API of the README; everything else
is imported from its module (``cshift.qtc``, ``cshift.regression``, ...).
"""

from .conformal import Calibrator, PredictorSpec, calibrate, evaluate
from .qtc import recalibrate
from .scores import (
    DataFormatError,
    LabeledDataset,
    ScoreMatrix,
    UnlabeledDataset,
    load_dataset,
    save_dataset,
)

__version__ = "0.1.0"

__all__ = [
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
