"""Spans and counts around the layer functions of nsstab, for traced runs.

Each entry of ``SPANS`` replaces a function at the name its caller looks it
up by (``nsstab.cli`` calls ``solve_eigenbasis`` through its own module
globals, ``nsstab.experiments`` calls ``simulate`` through its own), so the
program runs unchanged while every call records a span: name, start, end and
the enclosing span.  ``COUNTS`` wrap the per-step functions with a bare call
counter, which is all they can afford.  Names that a module no longer has
are reported as ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

MB = 1e6


def _file_mb(path) -> float:
    return os.path.getsize(path) / MB


def _cache_written(tracer, args, kwargs, result):
    tracer.sizes["cache_mb"] += _file_mb(args[0])


def _cache_read(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["cache_hits"] += 1


def _csv_written(tracer, args, kwargs, result):
    tracer.counts["csv_rows"] += len(args[1].times)
    tracer.sizes["csv_mb"] += _file_mb(args[0])


def _operators(tracer, args, kwargs, result):
    # two dense n x n float64 matrices, K1 and K2
    n = args[0].n_interior
    tracer.peaks["operator_mb"] = max(tracer.peaks["operator_mb"], 2 * n * n * 8 / MB)


def _tensor(tracer, args, kwargs, result):
    # the (M, M, 2, N) float64 intermediate of raw_trilinear_tensor
    m, n = args[0].n_modes, args[1].n_interior
    tracer.peaks["tensor_mb"] = max(tracer.peaks["tensor_mb"], m * m * 2 * n * 8 / MB)


#: (module, attribute, span name, observer called with the call's result)
SPANS = (
    ("nsstab.cli", "read_basis_cache", "cli.cache_read", _cache_read),
    ("nsstab.cli", "write_basis_cache", "cli.cache_write", _cache_written),
    ("nsstab.cli", "write_trajectory_csv", "cli.csv_write", _csv_written),
    ("nsstab.cli", "assemble_operators", "spectral.assemble", _operators),
    ("nsstab.cli", "solve_eigenbasis", "spectral.eigensolve", None),
    ("nsstab.cli", "assemble_gram", "spectral.gram", None),
    ("nsstab.cli", "fit_spectral_constant", "spectral.fit", None),
    ("nsstab.cli", "estimate_trilinear_constant", "constants.c0_estimate", None),
    ("nsstab.cli", "build_trilinear_tensor", "dynamics.tensor", _tensor),
    ("nsstab.cli", "run_rapid_stab", "experiments.run", None),
    ("nsstab.cli", "run_null_control", "experiments.run", None),
    ("nsstab.cli", "run_small_time", "experiments.run", None),
    ("nsstab.experiments", "build_schedule", "constants.schedule", None),
    ("nsstab.experiments", "_schedule_skeleton", "constants.schedule", None),
    ("nsstab.experiments", "simulate", "dynamics.simulate", None),
)

#: the constant chain is derived inside these ConstantPack constructors
CHAIN = ("nsstab.constants", "ConstantPack", ("certified", "practical"), "constants.chain")

#: (module, attribute, counter name)
COUNTS = (
    ("nsstab.dynamics", "modal_feedback", "law_evals"),
    ("nsstab.dynamics", "locate_interval", "interval_lookups"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self.peaks: Counter = Counter()
        self.missing: list[str] = []

    def span(self, name, func, observe=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, time.monotonic(), None, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, observe in SPANS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, getattr(module, attr), observe))
        for module_name, attr, name in COUNTS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.counter(name, getattr(module, attr)))
        module_name, cls_name, methods, name = CHAIN
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        for method in methods:
            entry = vars(cls).get(method) if cls is not None else None
            if not isinstance(entry, classmethod):
                self.missing.append(f"{module_name}.{cls_name}.{method}")
                continue
            setattr(cls, method, classmethod(self.span(name, entry.__func__)))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "sizes": dict(self.sizes),
            "peaks": dict(self.peaks),
            "missing": self.missing,
        }
