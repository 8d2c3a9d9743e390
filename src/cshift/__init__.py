"""Conformal prediction with quantile-based recalibration under distribution shift.

The package root exports the quick-start API of the README; everything else
is imported from its module (``cshift.qtc``, ``cshift.regression``, ...).
The root imports each exported name from its module on first use (PEP 562),
so ``import cshift`` loads no numpy: ``cshift.cli`` sets numpy's BLAS thread
count before its first import of it.
"""

from importlib import import_module

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

# the module that defines each exported name
_HOMES = {
    **dict.fromkeys(["Calibrator", "PredictorSpec", "calibrate", "evaluate"], "conformal"),
    "recalibrate": "qtc",
    **dict.fromkeys(["LabeledDataset", "UnlabeledDataset", "ScoreMatrix", "load_dataset",
                     "save_dataset", "DataFormatError"], "scores"),
}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
