"""Spans around the public functions of each ``cshift`` module.

The program is not edited. For a traced pass the benchmark replaces each
public function with a wrapper at every module that binds it (a wrapper
only sees calls made through the name it replaces), records a span per
call and restores the originals afterwards. Spans are kept in memory as
(name, start, end, parent) and written out when the run ends.

A layer's self time is its span durations minus the parts covered by
direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from cshift import cli, conformal, qtc, regression, scores, toymodel, util

MODULES = (cli, conformal, qtc, regression, scores, toymodel, util, sys.modules["cshift"])


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _conformity_kind(args, kwargs):
    return "conformal.conformity_scores." + _arg(args, kwargs, 0, "spec").kind


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _cells(index, name):
    return lambda args, kwargs: {"cells": int(np.size(_arg(args, kwargs, index, name)))}


# (metric base name, defining module, function name, span name, work
# counter). The span name is None for the base name, a function of the
# call's arguments, or False to count calls without a span.
TRACED = [
    ("cli.main", cli, "main", None, None),
    ("scores.load_dataset", scores, "load_dataset", None, _file_bytes),
    ("scores.save_dataset", scores, "save_dataset", None, None),
    ("conformal.conformity_scores", conformal, "conformity_scores", _conformity_kind,
     _cells(1, "values")),
    ("conformal.calibrate", conformal, "calibrate", None, None),
    ("conformal.evaluate", conformal, "evaluate", None, None),
    ("qtc.recalibrate", qtc, "recalibrate", None, None),
    ("qtc.estimate", qtc, "estimate_beta_qtc", None, None),
    ("qtc.estimate", qtc, "estimate_beta_qtc_sc", None, None),
    ("qtc.estimate", qtc, "estimate_tau_qtc_st", None, None),
    ("qtc.quantile_q", qtc, "quantile_q", None, None),
    ("qtc.top_confidences", qtc, "top_confidences", None, None),
    ("regression.build_corpus", regression, "build_corpus", None, None),
    ("regression.synthetic_shift", regression, "synthetic_shift", None, None),
    ("regression.extract_features", regression, "extract_features", None, None),
    ("regression.train", regression, "train", None,
     lambda a, k: {"epochs": int(_arg(a, k, 1, "epochs", 5000))}),
    ("regression.predict_tau", regression, "predict_tau", None, None),
    ("toymodel.classifier_error_rate", toymodel, "classifier_error_rate", None, None),
    ("toymodel.sample", toymodel, "sample", None,
     lambda a, k: {"draws": int(_arg(a, k, 1, "n"))}),
    ("toymodel.oracle_beta", toymodel, "oracle_beta", None, None),
    ("toymodel.run_theorem_trial", toymodel, "run_theorem_trial", None, None),
    ("util.row_uniforms", util, "row_uniforms", None, None),
    ("util.derive_seed", util, "derive_seed", False, None),
]


class Tracer:
    """In-memory span recorder with per-name call and work counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, base, fn, span_name, work):
        counts = self.counts

        if span_name is False:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[base + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[base + ".calls"] += 1
            if work is not None:
                for key, value in work(args, kwargs).items():
                    counts[f"{base}.{key}"] += value
            self.open(span_name(args, kwargs) if span_name else base)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def install(self):
        """Wrap every binding of every traced function, and ScoreMatrix
        validation on the class itself."""
        for base, home, attr, span_name, work in TRACED:
            original = getattr(home, attr)
            wrapper = self._wrap(base, original, span_name, work)
            for module in MODULES:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))
        post_init = scores.ScoreMatrix.__post_init__

        def validated(matrix):
            self.counts["scores.ScoreMatrix.calls"] += 1
            self.counts["scores.ScoreMatrix.cells"] += int(np.size(matrix.values))
            self.open("scores.ScoreMatrix")
            try:
                post_init(matrix)
            finally:
                self.close()
        scores.ScoreMatrix.__post_init__ = validated
        self._restore.append((scores.ScoreMatrix, "__post_init__", post_init))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def self_times(self):
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
