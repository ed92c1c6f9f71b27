"""Command-line front end: configuration, dispatch and data export.

Configuration comes from an optional UTF-8 file of ``key = value`` lines
(``#`` starts a comment) plus ``--key value`` flags that override file
values.  Outputs are CSV (metadata echo in ``#`` comment lines, then a
single header row, 17-significant-digit numbers) or JSON validated
against the shipped schema; files are written atomically.  Exit codes:
0 success, 1 a requested check failed, 2 usage or validation error,
3 numerical solver failure, overflow of the float range or an internal
error.
"""

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from khlab.core import ShearParams, WaveVector, vertical_levels
from khlab.eigenmodes import build_linearized_mode, build_wall_bounded_profiles, verify_mode
from khlab.evolution import boundary_dispersion, evolve_state
from khlab.functionals import (
    check_growth_corollary,
    check_proposition2,
    compute_functionals,
    decompose_perturbation,
    h2_readout,
    perturbed_initial_data,
)
from khlab.pressure import (
    PressureSolverError,
    fitted_convergence_order,
    mode_solver_fd_error,
)
from khlab.stability import evaluate_point, stability_map

COMMANDS = ("dispersion", "map", "modes", "pressure", "evolve",
            "functionals", "illposedness", "verify")

RESIDUAL_GATE = 1e-9
GROWTH_TOL = 1e-6


class ConfigError(Exception):
    """Base class for configuration problems (exit code 2)."""


class UnknownKeyError(ConfigError):
    pass


class MalformedValueError(ConfigError):
    pass


class MissingKeyError(ConfigError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _parse_int_pair(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 2:
        raise MalformedValueError(f"expected 'k1,k2', got {text!r}")
    try:
        return WaveVector(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise MalformedValueError(f"bad wave vector {text!r}: {exc}") from exc


def _parse_vec3(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise MalformedValueError(f"expected 'v1,v2,v3', got {text!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_float_list(text):
    return tuple(_parse_float(p) for p in str(text).split(","))


def _parse_float(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise MalformedValueError(f"bad number {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise MalformedValueError(f"bad number {text!r}: must be finite")
    return value


def _parse_int(text):
    try:
        return int(str(text).strip())
    except ValueError as exc:
        raise MalformedValueError(f"bad integer {text!r}: {exc}") from exc


def _parse_choice(options):
    def parse(text):
        v = str(text).strip()
        if v not in options:
            raise MalformedValueError(f"expected one of {options}, got {text!r}")
        return v
    return parse


def _parse_str(text):
    return str(text).strip()


@dataclass
class RunConfig:
    """Validated run configuration with documented defaults."""

    command: str = None
    k: WaveVector = None
    a: float = 0.0
    b: float = 0.0
    n1: float = 1.0
    n2: float = 1.0
    m_i: float = 1.0
    u_plus: tuple = (1.0, 0.0, 0.0)
    u_minus: tuple = (-1.0, 0.0, 0.0)
    n_tan: int = 64
    n_ver: int = 64
    t: float = 1.0
    dt: float = None          # default chosen by the stability rule
    stepper: str = "exact"
    n_cutoff: int = None      # defaults to n
    n: int = None
    scale: float = 1.0
    samples: int = 9
    a_min: float = 0.0
    a_max: float = 2.0
    a_steps: int = 10
    b_min: float = 0.0
    b_max: float = 2.0
    b_steps: int = 10
    kappas: tuple = (1.0, 2.0, 4.0)
    refinements: int = 3
    source_sign: float = 1.0
    out: str = None
    format: str = None        # csv or json; per-command default

    def params(self) -> ShearParams:
        return ShearParams(self.u_plus, self.u_minus, self.a, self.b,
                           self.n1, self.n2, self.m_i)


_PARSERS = {
    "command": _parse_choice(COMMANDS),
    "k": _parse_int_pair,
    "a": _parse_float, "b": _parse_float,
    "n1": _parse_float, "n2": _parse_float, "m_i": _parse_float,
    "u_plus": _parse_vec3, "u_minus": _parse_vec3,
    "n_tan": _parse_int, "n_ver": _parse_int,
    "t": _parse_float, "dt": _parse_float,
    "stepper": _parse_choice(("exact", "rk4")),
    "n_cutoff": _parse_int, "n": _parse_int,
    "scale": _parse_float, "samples": _parse_int,
    "a_min": _parse_float, "a_max": _parse_float, "a_steps": _parse_int,
    "b_min": _parse_float, "b_max": _parse_float, "b_steps": _parse_int,
    "kappas": _parse_float_list, "refinements": _parse_int,
    "source_sign": _parse_float,
    "out": _parse_str,
    "format": _parse_choice(("csv", "json")),
}

_REQUIRED = {
    "dispersion": ("k",),
    "map": ("k",),
    "modes": ("k",),
    "verify": ("k",),
    "evolve": ("n",),
    "functionals": ("n",),
    "illposedness": ("n",),
    "pressure": (),
}


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.command is None:
        raise MissingKeyError("no command given (key 'command' or --command)")
    for key in _REQUIRED[cfg.command]:
        if getattr(cfg, key) is None:
            raise MissingKeyError(f"command {cfg.command!r} requires key {key!r}")
    for key in ("n1", "n2", "m_i", "scale"):
        if getattr(cfg, key) <= 0:
            raise MalformedValueError(f"{key} must be positive")
    for key in ("a", "b"):
        if getattr(cfg, key) < 0:
            raise MalformedValueError(f"{key} must be >= 0")
    if cfg.t < 0:
        raise MalformedValueError("t must be >= 0")
    if cfg.dt is not None and cfg.dt <= 0:
        raise MalformedValueError("dt must be positive")
    if cfg.n_tan < 4 or cfg.n_ver < 4:
        raise MalformedValueError("grid sizes must be at least 4")
    if cfg.samples < 1:
        raise MalformedValueError("samples must be >= 1")
    if cfg.n is not None and cfg.n < 1:
        raise MalformedValueError("n must be >= 1")
    if cfg.n_cutoff is not None and cfg.n_cutoff < 1:
        raise MalformedValueError("n_cutoff must be >= 1")
    if cfg.a_steps < 1 or cfg.b_steps < 1 or cfg.refinements < 1:
        raise MalformedValueError("steps and refinements must be >= 1")
    if cfg.source_sign not in (1.0, -1.0):
        raise MalformedValueError("source_sign must be 1 or -1")
    if cfg.command == "pressure":
        if not all(float(k).is_integer() for k in cfg.kappas):
            raise MalformedValueError("kappas must be integers: pressure studies k = (kappa, 0)")
        if cfg.refinements < 2:
            raise MalformedValueError("pressure needs refinements >= 2 to fit a convergence order")
        if cfg.n_tan >> (cfg.refinements - 1) < 16:
            raise MalformedValueError(
                f"n_tan {cfg.n_tan} with {cfg.refinements} refinements puts the "
                f"coarsest pressure level below 16")
    return cfg


def parse_config(text: str, overrides=()) -> RunConfig:
    """Build a RunConfig from file text plus command-line overrides.

    Flags win over file values.  Unknown keys, malformed values and
    missing required keys raise distinct ConfigError subclasses, all
    reported with exit code 2.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        values[key] = _PARSERS[key](val)

    overrides = list(overrides)
    i = 0
    while i < len(overrides):
        flag = overrides[i]
        if not flag.startswith("--"):
            raise MalformedValueError(f"expected --key, got {flag!r}")
        key = flag[2:]
        if key not in _PARSERS:
            raise UnknownKeyError(f"unknown flag --{key}")
        if i + 1 >= len(overrides):
            raise MalformedValueError(f"flag --{key} needs a value")
        values[key] = _PARSERS[key](overrides[i + 1])
        i += 2

    return _validate(RunConfig(**values))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


_ECHO_EXCLUDED = {"out"}   # execution details, not run physics


def _config_echo(cfg: RunConfig):
    echo = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if v is None or f.name in _ECHO_EXCLUDED:
            continue
        if isinstance(v, WaveVector):
            v = f"{v.k1},{v.k2}"
        elif isinstance(v, tuple):
            v = ",".join(_fmt(c) for c in v)
        echo[f.name] = v if isinstance(v, str) else v
    return dict(sorted(echo.items()))


def _write_atomic(path: str, payload: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".khlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, payload: str):
    if cfg.out is None or cfg.out == "-":
        sys.stdout.write(payload)
    else:
        _write_atomic(cfg.out, payload)


def _csv_payload(cfg: RunConfig, header, rows):
    lines = [f"# khlab {cfg.command}"]
    for key, val in _config_echo(cfg).items():
        lines.append(f"# {key} = {_fmt(val)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_payload(cfg: RunConfig, data):
    doc = {"command": cfg.command,
           "config": {k: _fmt(v) if not isinstance(v, (int, float, str)) else v
                      for k, v in _config_echo(cfg).items()},
           "data": data}
    validate_report(doc)
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"non-finite value in the report: {exc}") from None


def load_report_schema():
    ref = resources.files("khlab").joinpath("schemas/report.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def validate_report(doc, schema=None):
    """Structural validation against the shipped JSON schema subset."""
    schema = schema or load_report_schema()
    _validate_node(doc, schema, "$")


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}


def _validate_node(node, schema, path):
    t = schema.get("type")
    if t is not None:
        if t == "number":
            ok = isinstance(node, (int, float)) and not isinstance(node, bool)
        elif t == "integer":
            ok = isinstance(node, int) and not isinstance(node, bool)
        else:
            ok = isinstance(node, _TYPES[t])
        if not ok:
            raise ValueError(f"schema violation at {path}: expected {t}")
    if "enum" in schema and node not in schema["enum"]:
        raise ValueError(f"schema violation at {path}: {node!r} not in enum")
    if isinstance(node, dict):
        for req in schema.get("required", ()):
            if req not in node:
                raise ValueError(f"schema violation at {path}: missing {req!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, val in node.items():
            if key in props:
                _validate_node(val, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                _validate_node(val, extra, f"{path}.{key}")
            elif extra is False:
                raise ValueError(f"schema violation at {path}: "
                                 f"unexpected property {key!r}")
    if isinstance(node, list) and "items" in schema:
        for i, item in enumerate(node):
            _validate_node(item, schema["items"], f"{path}[{i}]")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _default_dt(omega_max: float) -> float:
    return min(1e-2, 0.25 / max(omega_max, 1.0))


def _cmd_dispersion(cfg: RunConfig):
    params = cfg.params()
    point = evaluate_point(params, cfg.k, cfg.a, cfg.b)
    lam_sq = boundary_dispersion(cfg.k, cfg.a, cfg.b)
    if (cfg.format or "csv") == "json":
        data = {"k1": cfg.k.k1, "k2": cfg.k.k2,
                "gamma_squared": point.gamma_squared,
                "lambda_squared": lam_sq, "growing": point.growing,
                "syrovatskij_first": point.syrovatskij_first,
                "syrovatskij_second": point.syrovatskij_second,
                "strong_condition": point.strong_condition}
        return 0, _json_payload(cfg, data)
    header = ("k1", "k2", "a", "b", "gamma_squared", "lambda_squared",
              "growing", "syr1", "syr2", "strong")
    row = (cfg.k.k1, cfg.k.k2, cfg.a, cfg.b, point.gamma_squared, lam_sq,
           point.growing, point.syrovatskij_first, point.syrovatskij_second,
           point.strong_condition)
    return 0, _csv_payload(cfg, header, [row])


def _cmd_map(cfg: RunConfig):
    params = cfg.params()
    a_vals = np.linspace(cfg.a_min, cfg.a_max, cfg.a_steps)
    b_vals = np.linspace(cfg.b_min, cfg.b_max, cfg.b_steps)
    table = stability_map(params, a_vals, b_vals, cfg.k)
    # each a and b value is formatted once, not once per cell
    b_texts = [_fmt(b) for b in b_vals]
    rows = [(a, b, cell.gamma_squared, cell.growing, cell.syrovatskij_first,
             cell.syrovatskij_second, cell.strong_condition)
            for a, row in zip(map(_fmt, a_vals), table) for b, cell in zip(b_texts, row)]
    header = ("a", "b", "gamma_squared", "growing", "syr1", "syr2", "strong")
    return 0, _csv_payload(cfg, header, rows)


def _cmd_modes(cfg: RunConfig):
    W, V = build_wall_bounded_profiles(cfg.k)
    zu, zl = vertical_levels(cfg.n_ver)
    rows = [(x3, "upper", complex(W.eval_upper(x3)).real, complex(V.eval_upper(x3)).imag)
            for x3 in zu]
    rows += [(x3, "lower", complex(W.eval_lower(x3)).real, complex(V.eval_lower(x3)).imag)
             for x3 in zl]
    return 0, _csv_payload(cfg, ("x3", "phase", "W_re", "V_im"), rows)


def _cmd_pressure(cfg: RunConfig):
    per_kappa = {}
    for kappa in cfg.kappas:
        for level in range(cfg.refinements):
            n = cfg.n_tan >> (cfg.refinements - 1 - level)
            err = mode_solver_fd_error(WaveVector(int(kappa), 0), cfg.source_sign, n, n)
            per_kappa.setdefault(kappa, []).append((n, err))
    rows = []
    for kappa, series in per_kappa.items():
        prev = None
        for n, err in series:
            order = math.log2(prev / err) if prev is not None else float("nan")
            rows.append((kappa, n, 1.0 / n, err, order))
            prev = err
    if (cfg.format or "csv") == "json":
        data = {"errors": [{"kappa": r[0], "n_ver": r[1], "h": r[2],
                            "max_error": r[3],
                            "observed_order": None if math.isnan(r[4]) else r[4]}
                           for r in rows],
                "fitted_orders": {str(k): fitted_convergence_order(
                    [e for _, e in series])
                    for k, series in per_kappa.items()}}
        return 0, _json_payload(cfg, data)
    header = ("kappa", "n_ver", "h", "max_error", "observed_order")
    return 0, _csv_payload(cfg, header, rows)


def _evolve_series(cfg: RunConfig):
    """(cutoff, samples); samples yields (t, state) lazily, each evolved from t = 0."""
    n = cfg.n
    cutoff = cfg.n_cutoff if cfg.n_cutoff is not None else n
    state = decompose_perturbation(
        *perturbed_initial_data(n, cfg.scale, cfg.n_tan, cfg.n_ver), cutoff)
    dt = cfg.dt
    if cfg.stepper == "rk4" and dt is None:
        omega_max = max(math.sqrt(2.0) * max([n] + list(state.P) + list(state.g) + [1]),
                        max(cfg.a, cfg.b) * (cfg.n_tan // 2))
        dt = _default_dt(omega_max)
    samples = ((float(t), evolve_state(state, cfg.a, cfg.b, float(t), stepper=cfg.stepper,
                                       dt=dt if cfg.stepper == "rk4" else None))
               for t in np.linspace(0.0, cfg.t, cfg.samples))
    return cutoff, samples


def _cmd_evolve(cfg: RunConfig):
    cutoff, samples = _evolve_series(cfg)
    rows = []
    for t, state in samples:
        rep = compute_functionals(state, [1.0], cfg.a, cfg.b, t=t)
        rows.append((t, rep.E_plus[1.0], rep.E_minus[1.0], rep.G, rep.F,
                     h2_readout(state)))
    header = ("t", "E1_plus", "E1_minus", "G", "F", "norm_P_H2")
    return 0, _csv_payload(cfg, header, rows)


def _cmd_functionals(cfg: RunConfig):
    cutoff, samples = _evolve_series(cfg)
    prop = check_proposition2(samples, cutoff, cfg.a, cfg.b)
    series = []
    for t, E1p, E1m, F, G in zip(prop.times, prop.E1_plus, prop.E1_minus,
                                 prop.F, prop.G):
        series.append({"t": t, "E1_plus": E1p, "E1_minus": E1m,
                       "F": F, "G": G})
    data = {"series": series, "proposition2": prop.to_dict(),
            "passed": prop.invariant}
    return (0 if prop.invariant else 1), _json_payload(cfg, data)


def _cmd_illposedness(cfg: RunConfig):
    cutoff, samples = _evolve_series(cfg)
    kept = {}

    def watched():
        # keep E1+(0) and the final sample while the check streams the rest
        for t, state in samples:
            if not kept:
                kept["E0"] = compute_functionals(state, [1.0], cfg.a, cfg.b, t).E_plus[1.0]
            kept["final"] = t, state
            yield t, state

    growth = check_growth_corollary(watched(), cutoff, tol=GROWTH_TOL)
    t_final, final_state = kept["final"]
    Ef = compute_functionals(final_state, [1.0], cfg.a, cfg.b, t_final).E_plus[1.0]
    data = {
        "n": cfg.n,
        "t_final": t_final,
        "growth_factor": Ef / kept["E0"],
        "required_factor": math.exp(cutoff * t_final) * (1.0 - GROWTH_TOL),
        "initial_sup_norm": cfg.scale * math.exp(-math.sqrt(cfg.n)),
        "h2_readout_final": h2_readout(final_state),
        "growth": growth.to_dict(),
        "passed": growth.passed,
    }
    return (0 if growth.passed else 1), _json_payload(cfg, data)


def _cmd_verify(cfg: RunConfig):
    report = verify_mode(build_linearized_mode(cfg.k, "+"), 1000)
    data = {"k1": cfg.k.k1, "k2": cfg.k.k2,
            "max_harmonic_residual": report.max_harmonic_residual,
            "max_divergence_residual": report.max_divergence_residual,
            "wall_bc_residual": report.wall_bc_residual,
            "interface_continuity_residual": report.interface_continuity_residual,
            "gate": RESIDUAL_GATE,
            "passed": report.max_residual() < RESIDUAL_GATE}
    return (0 if data["passed"] else 1), _json_payload(cfg, data)


_HANDLERS = {
    "dispersion": _cmd_dispersion,
    "map": _cmd_map,
    "modes": _cmd_modes,
    "pressure": _cmd_pressure,
    "evolve": _cmd_evolve,
    "functionals": _cmd_functionals,
    "illposedness": _cmd_illposedness,
    "verify": _cmd_verify,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    try:
        code, payload = _HANDLERS[cfg.command](cfg)
    except ConfigError:
        raise
    except PressureSolverError as exc:
        sys.stderr.write(f"khlab: solver failure: {exc}\n")
        return 3
    except OverflowError as exc:
        # the closed forms keep float pow's own text and name the square apart
        sys.stderr.write(f"khlab: numerical overflow: {getattr(exc, 'detail', exc)}\n")
        return 3
    except FloatingPointError as exc:
        sys.stderr.write(f"khlab: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"khlab: invalid input: {exc}\n")
        return 2
    except Exception as exc:
        # exit 1 is reserved for a failed check, so a defect must not reach it as a traceback
        sys.stderr.write(f"khlab: internal error: {type(exc).__name__}: {exc}\n")
        return 3
    _emit(cfg, payload)
    return code


def main(argv=None) -> int:
    """Entry point: ``khlab [config-file] --key value ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    text = ""
    if argv and not argv[0].startswith("--"):
        path = argv.pop(0)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            sys.stderr.write(f"khlab: cannot read config {path!r}: {exc}\n")
            return 2
    try:
        cfg = parse_config(text, argv)
        return run(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"khlab: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
