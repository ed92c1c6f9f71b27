"""Command-line front end: configuration, dispatch and data export.

Configuration comes from an optional UTF-8 file of ``key = value`` lines
(``#`` starts a comment, a leading byte-order mark is skipped) plus
``--key value`` flags that override file values.  Outputs are CSV
(metadata echo in ``#`` comment lines, then a single header row,
17-significant-digit numbers) or JSON validated against the shipped
schema; files are written atomically.  Exit codes:
0 success, 1 a requested check failed, 2 usage or validation error or
output that cannot be written (after a write to a closed stdout fails,
its descriptor points at os.devnull so that the flush at exit prints
nothing), 3 numerical solver failure, overflow of the float range or an
internal error.
"""

import math
import os
import sys
import tempfile
from collections import namedtuple
from importlib import resources
from types import SimpleNamespace

from khlab.core import ShearParams, WaveVector, linspace, strictly_monotone, vertical_levels
from khlab.eigenmodes import build_linearized_mode, build_wall_bounded_profiles, verify_mode
from khlab.evolution import boundary_dispersion, default_rk4_dt, evolve_state
from khlab.functionals import (
    check_growth_corollary,
    check_proposition2,
    compute_functionals,
    decompose_perturbation,
    h2_readout,
    perturbed_initial_data,
)
from khlab.pressure import PressureSolverError, fitted_convergence_order, mode_solver_fd_error
from khlab.stability import evaluate_point, stability_map

RESIDUAL_GATE = 1e-9


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


# One row per command: the keys it requires, every key its output depends on (the
# echo lists these) and the formats it writes, the default first.
_Command = namedtuple("_Command", "required reads formats")

_SHEAR = ("u_plus", "u_minus", "n1", "n2", "m_i")
_EVOLUTION = ("n", "n_cutoff", "scale", "n_tan", "n_ver", "a", "b", "t", "samples",
              "stepper", "dt")

_COMMANDS = {
    "dispersion": _Command(("k",), ("k", "a", "b") + _SHEAR, ("csv", "json")),
    "map": _Command(("k",), ("k", "a_min", "a_max", "a_steps", "b_min", "b_max",
                             "b_steps") + _SHEAR, ("csv",)),
    "modes": _Command(("k",), ("k", "n_ver"), ("csv",)),
    "pressure": _Command((), ("kappas", "refinements", "n_tan", "source_sign"),
                         ("csv", "json")),
    "evolve": _Command(("n",), _EVOLUTION, ("csv",)),
    "functionals": _Command(("n",), _EVOLUTION, ("json",)),
    "illposedness": _Command(("n",), _EVOLUTION, ("json",)),
    "verify": _Command(("k",), ("k",), ("json",)),
}


# One row per key: its parser, its default (None: required by a command, or unset)
# and its bound, a pair (holds(value, cfg), what the value must be).
_Key = namedtuple("_Key", "parse default bound", defaults=(None, None))
_POSITIVE = (lambda v, cfg: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v, cfg: v >= 0, "must be >= 0")
_COUNT = (lambda v, cfg: v >= 1, "must be >= 1")
_GRID = (lambda v, cfg: v >= 4, "must be at least 4")


def _kappas_fit(kappas, cfg):
    # pressure solves k = (kappa, 0) on every level, so kappa must stay below the
    # coarsest level's Nyquist frequency, the rule perturbed_initial_data applies to n;
    # a repeated kappa would label one ladder's orders across two
    coarsest = cfg.n_tan >> (cfg.refinements - 1)
    return len(set(kappas)) == len(kappas) and all(
        kappa.is_integer() and 1 <= kappa < coarsest / 2 for kappa in kappas)


# A bound may read the keys above it, which are checked first.
_KEYS = {
    "command": _Key(_parse_choice(tuple(_COMMANDS))),
    "k": _Key(_parse_int_pair),
    "a": _Key(_parse_float, 0.0, _NON_NEGATIVE),
    "b": _Key(_parse_float, 0.0, _NON_NEGATIVE),
    "n1": _Key(_parse_float, 1.0, _POSITIVE),
    "n2": _Key(_parse_float, 1.0, _POSITIVE),
    "m_i": _Key(_parse_float, 1.0, _POSITIVE),
    "u_plus": _Key(_parse_vec3, (1.0, 0.0, 0.0)),
    "u_minus": _Key(_parse_vec3, (-1.0, 0.0, 0.0)),
    "n_tan": _Key(_parse_int, 64, _GRID),
    "n_ver": _Key(_parse_int, 64, _GRID),
    "t": _Key(_parse_float, 1.0, _NON_NEGATIVE),
    "dt": _Key(_parse_float, None, _POSITIVE),    # unset: the rk4 stability rule
    "stepper": _Key(_parse_choice(("exact", "rk4")), "exact"),
    "n": _Key(_parse_int, None, _COUNT),
    "n_cutoff": _Key(_parse_int, None, _COUNT),   # unset: n
    "scale": _Key(_parse_float, 1.0, _POSITIVE),
    "samples": _Key(_parse_int, 9, _COUNT),
    "a_min": _Key(_parse_float, 0.0),
    "a_max": _Key(_parse_float, 2.0),
    "a_steps": _Key(_parse_int, 10, _COUNT),
    "b_min": _Key(_parse_float, 0.0),
    "b_max": _Key(_parse_float, 2.0),
    "b_steps": _Key(_parse_int, 10, _COUNT),
    "refinements": _Key(_parse_int, 3, _COUNT),
    "kappas": _Key(_parse_float_list, (1.0, 2.0, 4.0), (
        _kappas_fit, "must be distinct integers with 1 <= kappa < (n_tan >> (refinements-1))/2")),
    "source_sign": _Key(_parse_float, 1.0, (lambda v, cfg: v in (1.0, -1.0), "must be 1 or -1")),
    "out": _Key(str.strip),
    "format": _Key(_parse_choice(("csv", "json"))),   # unset: the command's first format
}


class RunConfig(SimpleNamespace):
    """Validated run configuration: one attribute per key of ``_KEYS``."""

    def params(self) -> ShearParams:
        return ShearParams(self.u_plus, self.u_minus, n1=self.n1, n2=self.n2, m_i=self.m_i)


def _validate(given: dict) -> RunConfig:
    cfg = RunConfig(**{key: given.get(key, spec.default) for key, spec in _KEYS.items()})
    if cfg.command is None:
        raise MissingKeyError("no command given (key 'command' or --command)")
    command = _COMMANDS[cfg.command]
    for key in command.required:
        if getattr(cfg, key) is None:
            raise MissingKeyError(f"command {cfg.command!r} requires key {key!r}")
    for key, spec in _KEYS.items():
        if key in given and spec.bound is not None and not spec.bound[0](given[key], cfg):
            raise MalformedValueError(f"{key} {spec.bound[1]}")
    if cfg.format is None:
        cfg.format = command.formats[0]
    elif cfg.format not in command.formats:
        raise MalformedValueError(
            f"command {cfg.command!r} writes {' or '.join(command.formats)}, not {cfg.format}")
    if cfg.command == "pressure":
        if cfg.refinements < 2:
            raise MalformedValueError("pressure needs refinements >= 2 to fit a convergence order")
        if cfg.n_tan >> (cfg.refinements - 1) < 16:
            raise MalformedValueError(
                f"n_tan {cfg.n_tan} with {cfg.refinements} refinements puts the "
                f"coarsest pressure level below 16")
    if cfg.command == "map":
        for axis in ("a", "b"):
            # equal ends, a step rounding to repeats and a span past the float range (NaN) fail
            values = linspace(*(getattr(cfg, f"{axis}_{end}") for end in ("min", "max", "steps")))
            if not (strictly_monotone(values) and all(map(math.isfinite, values))):
                raise MalformedValueError(f"{axis}_min, {axis}_max and {axis}_steps must "
                                          f"give distinct finite {axis} values")
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
        if key not in _KEYS:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        values[key] = _KEYS[key].parse(val)

    overrides = list(overrides)
    for i in range(0, len(overrides), 2):
        flag = overrides[i]
        if not flag.startswith("--"):
            raise MalformedValueError(f"expected --key, got {flag!r}")
        key = flag[2:]
        if key not in _KEYS:
            raise UnknownKeyError(f"unknown flag --{key}")
        if i + 1 >= len(overrides):
            raise MalformedValueError(f"flag --{key} needs a value")
        values[key] = _KEYS[key].parse(overrides[i + 1])

    return _validate(values)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _column_text(column):
    """The text of every value in a column, a list or tuple, by its Python type."""
    return [("true" if v else "false") if isinstance(v, bool)
            else "%.17g" % v if isinstance(v, float)
            else str(v) for v in column]          # integers and text


def _echo_text(value):
    """A config value as text; a tuple, a WaveVector's (k1, k2) included, joins with commas."""
    return ",".join(_column_text(value if isinstance(value, tuple) else [value]))


def _config_echo(cfg: RunConfig):
    """The command and the set keys it reads, sorted; out and format are not physics."""
    keys = sorted(("command",) + _COMMANDS[cfg.command].reads)
    return {key: getattr(cfg, key) for key in keys if getattr(cfg, key) is not None}


def _write_atomic(path: str, chunks):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".khlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, chunks):
    """Write the output, an iterable of text chunks, to stdout or atomically to cfg.out."""
    if cfg.out is None or cfg.out == "-":
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()   # a closed pipe fails here, under run's guard, not at exit
    else:
        _write_atomic(cfg.out, chunks)


_CSV_BLOCK_ROWS = 4096   # a map row is at most about 120 bytes: a block stays near 0.5 MB


def _csv_payload(cfg: RunConfig, columns: dict):
    """The config echo in '#' lines, a header row of the column names, then the rows.

    Yields the text a block of _CSV_BLOCK_ROWS rows at a time, so little is held at once.
    """
    lines = [f"# khlab {cfg.command}"]
    lines += [f"# {key} = {_echo_text(val)}" for key, val in _config_echo(cfg).items()]
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    rows = min(map(len, columns.values()))
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        block = (_column_text(column[start:start + _CSV_BLOCK_ROWS])
                 for column in columns.values())
        yield "\n".join(map(",".join, zip(*block))) + "\n"


def _json_payload(cfg: RunConfig, data):
    import json   # here, not at the top: the CSV commands never need it
    doc = {"command": cfg.command,
           "config": {k: v if isinstance(v, (int, float, str)) else _echo_text(v)
                      for k, v in _config_echo(cfg).items()},
           "data": data}
    try:
        validate_report(doc)
    except ValueError as exc:   # a report khlab built is at fault, not the user's input
        raise RuntimeError(f"the report fails its schema: {exc}") from None
    try:
        return [json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"]
    except ValueError as exc:
        raise FloatingPointError(f"non-finite value in the report: {exc}") from None


def load_report_schema():
    import json
    ref = resources.files("khlab").joinpath("schemas/report.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def validate_report(doc):
    """Structural validation against the shipped JSON schema subset: type, enum, required,
    properties, items and additionalProperties false (a schema there is not read)."""
    _validate_node(doc, load_report_schema(), "$")


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}


def _validate_node(node, schema, path):
    t = schema.get("type")
    if t is not None:
        if t == "number":
            ok = isinstance(node, (int, float)) and not isinstance(node, bool)
        elif t == "integer":
            # as in JSON Schema, an integral float such as 2.0 is an integer
            ok = (isinstance(node, int) and not isinstance(node, bool)
                  or isinstance(node, float) and node.is_integer())
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
            elif extra is False:
                raise ValueError(f"schema violation at {path}: "
                                 f"unexpected property {key!r}")
    if isinstance(node, list) and "items" in schema:
        for i, item in enumerate(node):
            _validate_node(item, schema["items"], f"{path}[{i}]")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# the CSV headers of the three criteria flags
_FLAG_HEADERS = {"syrovatskij_first": "syr1", "syrovatskij_second": "syr2",
                 "strong_condition": "strong"}


def _cmd_dispersion(cfg: RunConfig):
    point = evaluate_point(cfg.params(), cfg.k, cfg.a, cfg.b)._asdict()
    verdict = {"gamma_squared": point.pop("gamma_squared"),
               "lambda_squared": boundary_dispersion(cfg.k, cfg.a, cfg.b), **point}
    if cfg.format == "json":
        return 0, _json_payload(cfg, {"k1": cfg.k.k1, "k2": cfg.k.k2, **verdict})
    row = {"k1": cfg.k.k1, "k2": cfg.k.k2, "a": cfg.a, "b": cfg.b, **verdict}
    return 0, _csv_payload(cfg, {_FLAG_HEADERS.get(name, name): [value]
                                 for name, value in row.items()})


def _cmd_map(cfg: RunConfig):
    a_axis = linspace(cfg.a_min, cfg.a_max, cfg.a_steps)
    b_axis = linspace(cfg.b_min, cfg.b_max, cfg.b_steps)
    columns = stability_map(cfg.params(), a_axis, b_axis, cfg.k)
    # each axis value is formatted once and its text repeated (a slow, b fast)
    a_text, b_text = _column_text(a_axis), _column_text(b_axis)
    columns["a"] = [text for text in a_text for _ in b_text]
    columns["b"] = b_text * len(a_text)
    return 0, _csv_payload(cfg, {_FLAG_HEADERS.get(name, name): column
                                 for name, column in columns.items()})


def _cmd_modes(cfg: RunConfig):
    W, V = build_wall_bounded_profiles(cfg.k)
    zu, zl = vertical_levels(cfg.n_ver)
    rows = [(x3, "upper", W.eval_upper(x3).real, V.eval_upper(x3).imag) for x3 in zu]
    rows += [(x3, "lower", W.eval_lower(x3).real, V.eval_lower(x3).imag) for x3 in zl]
    return 0, _csv_payload(cfg, dict(zip(("x3", "phase", "W_re", "V_im"), zip(*rows))))


def _cmd_pressure(cfg: RunConfig):
    levels = [cfg.n_tan >> (cfg.refinements - 1 - level) for level in range(cfg.refinements)]
    errors = {kappa: [mode_solver_fd_error(WaveVector(int(kappa), 0), cfg.source_sign, n, n)
                      for n in levels] for kappa in cfg.kappas}
    columns = {"kappa": [kappa for kappa in errors for _ in levels],
               "n_ver": levels * len(errors),
               "h": [1.0 / n for n in levels] * len(errors),
               "max_error": [err for errs in errors.values() for err in errs],
               "observed_order": [order for errs in errors.values() for order in [math.nan] + [
                   math.log2(prev / err) for prev, err in zip(errs, errs[1:])]]}
    if cfg.format == "csv":
        return 0, _csv_payload(cfg, columns)
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    for row in rows:
        if math.isnan(row["observed_order"]):
            row["observed_order"] = None      # the first level has no order; JSON has no NaN
    return 0, _json_payload(cfg, {"errors": rows, "fitted_orders": {
        str(kappa): fitted_convergence_order(errs) for kappa, errs in errors.items()}})


def _evolve_series(cfg: RunConfig):
    """(cutoff, samples, sup): samples yields (t, state) lazily from t = 0; sup is max|chi_dot|."""
    cutoff = cfg.n_cutoff if cfg.n_cutoff is not None else cfg.n
    chi, chi_dot = perturbed_initial_data(cfg.n, cfg.scale, cfg.n_tan, cfg.n_ver)
    state = decompose_perturbation(chi, chi_dot, cutoff)
    dt = cfg.dt
    if cfg.stepper == "rk4" and dt is None:
        dt = default_rk4_dt(state, cfg.a, cfg.b)
    samples = ((t, evolve_state(state, cfg.a, cfg.b, t, cfg.stepper, dt))
               for t in linspace(0.0, cfg.t, cfg.samples))
    return cutoff, samples, float(abs(chi_dot).max())


def _cmd_evolve(cfg: RunConfig):
    cutoff, samples, _ = _evolve_series(cfg)
    rows = []
    for t, state in samples:
        rep = compute_functionals(state, [1.0], cfg.a, cfg.b, t=t)
        rows.append((t, rep.E_plus[1.0], rep.E_minus[1.0], rep.G, rep.F,
                     h2_readout(state)))
    header = ("t", "E1_plus", "E1_minus", "G", "F", "norm_P_H2")
    return 0, _csv_payload(cfg, dict(zip(header, zip(*rows))))


def _cmd_functionals(cfg: RunConfig):
    cutoff, samples, _ = _evolve_series(cfg)
    prop = check_proposition2(samples, cutoff, cfg.a, cfg.b)
    data = {"proposition2": prop._asdict(), "passed": prop.invariant}
    return (0 if prop.invariant else 1), _json_payload(cfg, data)


def _cmd_illposedness(cfg: RunConfig):
    cutoff, samples, sup = _evolve_series(cfg)
    # the check streams the samples; the assignment keeps the last state for its readout
    growth = check_growth_corollary(((t, (final := state)) for t, state in samples), cutoff)
    data = {
        "growth": growth._asdict(),
        "initial_sup_norm": sup,
        "h2_readout_final": h2_readout(final),
        "passed": growth.passed,
    }
    return (0 if growth.passed else 1), _json_payload(cfg, data)


def _cmd_verify(cfg: RunConfig):
    report = verify_mode(build_linearized_mode(cfg.k, "+"))
    data = {**cfg.k._asdict(), **report._asdict(), "gate": RESIDUAL_GATE,
            "passed": report.max_residual() < RESIDUAL_GATE}
    return (0 if data["passed"] else 1), _json_payload(cfg, data)


_HANDLERS = {name: globals()[f"_cmd_{name}"] for name in _COMMANDS}


def run(cfg: RunConfig) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    try:
        code, payload = _HANDLERS[cfg.command](cfg)
    except PressureSolverError as exc:
        sys.stderr.write(f"khlab: solver failure: {exc}\n")
        return 3
    except OverflowError as exc:
        sys.stderr.write(f"khlab: numerical overflow: {exc}\n")
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
    try:
        _emit(cfg, payload)
    except OSError as exc:
        target = repr(cfg.out) if cfg.out not in (None, "-") else "stdout"
        if target == "stdout":
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        sys.stderr.write(f"khlab: cannot write output: {target}: {exc.strerror or exc}\n")
        return 2
    return code


def main(argv=None) -> int:
    """Entry point: ``khlab [config-file] --key value ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    text = ""
    if argv and not argv[0].startswith("--"):
        path = argv.pop(0)
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            sys.stderr.write(f"khlab: cannot read config {path!r}: {exc}\n")
            return 2
    try:
        cfg = parse_config(text, argv)
        return run(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"khlab: {exc}\n")
        return 2


def process_main() -> int:
    """The ``khlab`` process: main() with the cyclic collector off and the heap frozen at exit."""
    # a process is one-shot and khlab makes no reference cycles worth collecting, so the run's
    # and teardown's collections would only walk the import-time heap (numpy's above all)
    import gc
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
