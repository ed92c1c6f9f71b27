"""Per-layer spans for khlab, recorded from outside the program.

``Tracer.patched()`` wraps the public entry points of each khlab module by
replacing the module attributes that name them, in every ``khlab.*`` module
that imported them, and restores them on exit.  Each call becomes a span;
a span's self time is its duration minus the time of the spans it
encloses, so nested layer calls (the FD solve inside the pressure error
study, the eigenmode build inside the initial data) are charged to the
inner layer.  Counters come from call arguments and results, so they
repeat exactly from run to run.

The span names fixed here are the ones an in-program tracer should emit.
"""

import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(bound, name):
    return bound.arguments.get(name)


def _cells(bound, _result):
    return {"cells": len(_arg(bound, "a_range")) * len(_arg(bound, "b_range"))}


def _fd_modes(bound, _result):
    return {"modes": _arg(bound, "source").n_tan ** 2}


def _max_error(_bound, result):
    return {"max_error": result}


def _evolution_span(bound):
    return "evolution.rk4" if _arg(bound, "stepper") == "rk4" else "evolution.exact"


def _rk4_steps(bound, _result):
    if _arg(bound, "stepper") != "rk4":
        return {}
    return {"steps": max(1, int(round(_arg(bound, "t") / _arg(bound, "dt"))))}


# (module, function, span name or name(bound), counters(bound, result) or None)
ENTRY_POINTS = (
    ("khlab.cli", "main", "cli.main", None),
    ("khlab.cli", "parse_config", "cli.parse", None),
    ("khlab.cli", "validate_report", "cli.validate", None),
    ("khlab.stability", "stability_map", "stability.map", _cells),
    ("khlab.eigenmodes", "build_wall_bounded_profiles", "eigenmodes.profiles", None),
    ("khlab.eigenmodes", "build_linearized_mode", "eigenmodes.mode", None),
    ("khlab.eigenmodes", "verify_mode", "eigenmodes.verify", None),
    ("khlab.pressure", "mode_solver_fd_error", "pressure.mode_error", _max_error),
    ("khlab.pressure", "solve_mode_interface_flux", "pressure.analytic", None),
    ("khlab.pressure", "solve_two_phase_poisson_fd", "pressure.fd_solve", _fd_modes),
    ("khlab.pressure", "fitted_convergence_order", "pressure.fit", None),
    ("khlab.functionals", "perturbed_initial_data", "decompose.initial_data", None),
    ("khlab.functionals", "decompose_perturbation", "decompose.decompose", None),
    ("khlab.evolution", "evolve_state", _evolution_span, _rk4_steps),
    ("khlab.functionals", "compute_functionals", "functionals.compute", None),
    ("khlab.functionals", "h2_readout", "functionals.h2", None),
    ("khlab.functionals", "check_proposition2", "functionals.check", None),
    ("khlab.functionals", "check_growth_corollary", "functionals.check", None),
)


class Tracer:
    """In-memory span recorder: per span name, calls, self time and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = {}
        self._stack = []          # child time accumulated per open span

    def _wrap(self, fn, name, counters):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span = name(bound) if callable(name) else name
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += duration
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - children
            for key, value in (counters(bound, result) if counters else {}).items():
                label = f"{span}.{key}"
                if key.startswith("max_"):
                    tracer.maxima[label] = max(tracer.maxima.get(label, -math.inf), value)
                else:
                    tracer.counters[label] += value
            return result
        return traced

    @contextmanager
    def patched(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counters in ENTRY_POINTS:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(original, name, counters)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "khlab" or mod_name.startswith("khlab.")) \
                            and getattr(mod, attr, None) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def total_self_s(self):
        return sum(self.self_s.values())

    def layer_metrics(self, output_bytes):
        """The per-layer metrics of one traced pass (0 for layers not called)."""
        s, n, c = self.self_s, self.calls, self.counters

        def per_unit(seconds, count):
            return 1e6 * seconds / count if count else 0.0

        eigen = [k for k in s if k.startswith("eigenmodes.")]
        fd_s, fd_modes = s["pressure.fd_solve"], c["pressure.fd_solve.modes"]
        rk4_s, rk4_steps = s["evolution.rk4"], c["evolution.rk4.steps"]
        map_s, cells = s["stability.map"], c["stability.map.cells"]
        return {
            "stability.map_s": map_s,
            "stability.cells": cells,
            "stability.us_per_cell": per_unit(map_s, cells),
            "eigenmodes.s": sum(s[k] for k in eigen),
            "eigenmodes.calls": sum(n[k] for k in eigen),
            "pressure.fd_solve_s": fd_s,
            "pressure.fd_solves": n["pressure.fd_solve"],
            "pressure.fd_modes": fd_modes,
            "pressure.us_per_fd_mode": per_unit(fd_s, fd_modes),
            "pressure.analytic_s": s["pressure.analytic"],
            "pressure.max_error": self.maxima.get("pressure.mode_error.max_error", 0.0),
            "decompose.s": s["decompose.initial_data"] + s["decompose.decompose"],
            "decompose.initial_data_s": s["decompose.initial_data"],
            "decompose.calls": n["decompose.decompose"],
            "evolution.exact_s": s["evolution.exact"],
            "evolution.exact_calls": n["evolution.exact"],
            "evolution.rk4_s": rk4_s,
            "evolution.rk4_calls": n["evolution.rk4"],
            "evolution.rk4_steps": rk4_steps,
            "evolution.us_per_rk4_step": per_unit(rk4_s, rk4_steps),
            "functionals.compute_s": s["functionals.compute"],
            "functionals.evals": n["functionals.compute"],
            "functionals.check_s": s["functionals.check"],
            "functionals.h2_s": s["functionals.h2"],
            "cli.self_s": s["cli.main"] + s["cli.parse"],
            "cli.validate_s": s["cli.validate"],
            "cli.output_bytes": output_bytes,
        }


def import_times(importtime_stderr):
    """(khlab_s, scipy_s) from ``python -X importtime -c 'import khlab.cli'``.

    khlab_s is the cumulative time of the top-level khlab entries, which is
    everything that import pulls in.  scipy_s is the cumulative time of the
    outermost scipy entries: scipy plus whatever only scipy loads.
    """
    entries = []                       # (depth, cumulative us, name), post-order
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = len(parts[2]) - len(parts[2].lstrip()) - 1
        entries.append((depth, int(parts[1]), parts[2].strip()))
    khlab_us = scipy_us = 0
    ancestors = []                     # (depth, is scipy) of the enclosing entries
    for depth, cumulative_us, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(s for _, s in ancestors):
            scipy_us += cumulative_us
        if depth == 0 and name.split(".")[0] == "khlab":
            khlab_us += cumulative_us
        ancestors.append((depth, is_scipy))
    return khlab_us / 1e6, scipy_us / 1e6
