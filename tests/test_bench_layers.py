"""The benchmark's per-layer tracer keeps binding to khlab's entry points.

bench/layers.py wraps the functions its ENTRY_POINTS name and reads their
arguments by name, so a renamed function, argument or attribute in khlab
would break the benchmark's traced run without failing anything else.
"""

import importlib
import importlib.util
import inspect
import os
import sys

from khlab.core import TwoPhaseGridField

_LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "layers.py")

# a value for each argument that a span name or a counter of bench/layers.py reads
_SAMPLES = {"a_range": [0.0, 1.0], "b_range": [0.0, 0.5, 1.0],
            "source": TwoPhaseGridField.zeros(8, 8), "stepper": "rk4", "t": 1.0, "dt": 0.1}


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_entry_points_exist_and_their_counters_bind(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    read = {}
    for module, attr, name, counters in _load_layers().ENTRY_POINTS:
        fn = getattr(importlib.import_module(module), attr)
        sig = inspect.signature(fn)
        bound = sig.bind_partial(**{k: v for k, v in _SAMPLES.items() if k in sig.parameters})
        bound.apply_defaults()
        if callable(name):
            read[attr, "span"] = name(bound)
        if counters is not None:
            read[attr] = counters(bound, 0.0)
    # a renamed argument reads None: a wrong span or count, or an AttributeError above
    assert read == {
        "stability_map": {"cells": 2 * 3},
        "mode_solver_fd_error": {"max_error": 0.0},
        "solve_two_phase_poisson_fd": {"modes": 8 ** 2},
        ("evolve_state", "span"): "evolution.rk4",
        "evolve_state": {"steps": 10},
    }
