"""Configuration parsing, dispatch, exit codes and export formats."""

import json
import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from khlab.cli import (
    MalformedValueError,
    MissingKeyError,
    UnknownKeyError,
    load_report_schema,
    main,
    parse_config,
    validate_report,
)
from khlab.functionals import perturbed_initial_data
from khlab.pressure import fitted_convergence_order


def run_cli(capsys, args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_defaults_fill_in():
    cfg = parse_config("", ["--command", "dispersion", "--k", "1,0"])
    assert cfg.command == "dispersion"
    assert (cfg.n1, cfg.n2, cfg.m_i) == (1.0, 1.0, 1.0)
    assert (cfg.a, cfg.b) == (0.0, 0.0)
    assert (cfg.n_tan, cfg.n_ver) == (64, 64)
    assert cfg.k.k1 == 1 and cfg.k.k2 == 0


def test_flag_overrides_file_value():
    cfg = parse_config("a = 1.5\ncommand = dispersion\nk = 1,0\n", ["--a", "2.0"])
    assert cfg.a == 2.0


def test_comments_and_blank_lines():
    text = "# a comment\n\ncommand = modes   # trailing\nk = 3,0\n"
    cfg = parse_config(text)
    assert cfg.command == "modes" and cfg.k.k1 == 3


def test_unknown_key_rejected():
    with pytest.raises(UnknownKeyError):
        parse_config("wibble = 3\n")
    with pytest.raises(UnknownKeyError):
        parse_config("", ["--wibble", "3"])


def test_malformed_value_rejected(capsys):
    with pytest.raises(MalformedValueError):
        parse_config("command = dispersion\nk = banana\n")
    with pytest.raises(MalformedValueError):
        parse_config("", ["--command", "dispersion", "--k", "1,0", "--dt", "-1"])
    # non-finite numbers never reach the physics
    for bad in (["--t", "inf"], ["--a", "nan"], ["--dt", "inf"],
                ["--u_plus", "1,nan,0"]):
        with pytest.raises(MalformedValueError):
            parse_config("", ["--command", "evolve", "--n", "4"] + bad)
        assert main(["--command", "evolve", "--n", "4"] + bad) == 2
    # pressure solves k = (kappa, 0): a fractional kappa would mislabel its row
    for bad in (["--kappas", "1.5"], ["--kappas", "1,nan"],
                # coarsest level 32 >> 2 = 8 is below the 16-point floor
                ["--n_tan", "32", "--refinements", "3"]):
        with pytest.raises(MalformedValueError):
            parse_config("", ["--command", "pressure"] + bad)
        assert main(["--command", "pressure"] + bad) == 2
    # one refinement level has no convergence order to fit
    for fmt in ("csv", "json"):
        capsys.readouterr()
        assert main(["--command", "pressure", "--kappas", "1", "--n_tan", "16",
                     "--refinements", "1", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "refinements" in err
    with pytest.raises(ValueError):
        fitted_convergence_order([1e-3])
    # kappa must be a distinct integer in [1, n_min/2) with n_min = n_tan >> (refinements-1):
    # -1 labelled rows kappa = -1 for |k| = 1, and 8 or 12 lie at or above the
    # 16-point level's Nyquist frequency
    for bad in (["--kappas", "-1"], ["--kappas", "0"], ["--kappas", "8"], ["--kappas", "12"],
                ["--kappas", "1,1"], ["--kappas", "8", "--n_tan", "128", "--refinements", "4"]):
        with pytest.raises(MalformedValueError):
            parse_config("", ["--command", "pressure"] + bad)
        capsys.readouterr()
        assert main(["--command", "pressure"] + bad) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "kappas" in err
    # every key given is bounded, read or not
    with pytest.raises(MalformedValueError):
        parse_config("", ["--command", "map", "--k", "1,0", "--kappas", "12"])
    assert parse_config("", ["--command", "pressure", "--kappas", "7,1"]).kappas == (7.0, 1.0)
    # a format the command cannot write
    for command, required, fmt in (("map", ["--k", "1,0"], "json"),
                                   ("modes", ["--k", "1,0"], "json"),
                                   ("evolve", ["--n", "4"], "json"),
                                   ("verify", ["--k", "1,0"], "csv"),
                                   ("functionals", ["--n", "4"], "csv"),
                                   ("illposedness", ["--n", "4"], "csv")):
        args = ["--command", command, *required, "--format", fmt]
        with pytest.raises(MalformedValueError):
            parse_config("", args)
        capsys.readouterr()
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("khlab: ") and len(err.splitlines()) == 1
        assert fmt in err
    # n = 50 >= n_tan/2 aliases onto mode 14 (50 = -14 mod 64): rows labelled
    # n = 50 would describe another mode
    capsys.readouterr()
    assert main(["--command", "evolve", "--n", "50", "--t", "1", "--n_tan", "64",
                 "--n_ver", "8", "--samples", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Nyquist" in err


def test_missing_required_key():
    with pytest.raises(MissingKeyError):
        parse_config("", ["--command", "dispersion"])
    with pytest.raises(MissingKeyError):
        parse_config("", ["--command", "illposedness"])


def test_negative_duration_exit_code(capsys):
    rc = main(["--command", "dispersion", "--k", "1,0", "--dt", "-1"])
    assert rc == 2


def test_threads_key_removed():
    with pytest.raises(UnknownKeyError):
        parse_config("", ["--command", "pressure", "--threads", "2"])
    with pytest.raises(UnknownKeyError):
        parse_config("command = pressure\nthreads = 2\n")
    assert main(["--command", "pressure", "--threads", "2"]) == 2


def _source_env():
    """The environment of a fresh interpreter that imports this checkout's source."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fresh_python(code):
    """Run code in a fresh interpreter on this checkout's source."""
    return subprocess.run([sys.executable, "-c", code], env=_source_env(), timeout=60,
                          capture_output=True, text=True)


def test_import_does_not_load_scipy():
    # nor dataclasses, inspect, json, fractions or numpy's modules: the import is start-up
    # cost of every command, and only the commands that write JSON load json; sympy and
    # mpmath serve the test oracles only
    proc = _fresh_python("import sys, khlab.cli; print([m for m in ('scipy', 'dataclasses', "
                         "'inspect', 'json', 'fractions', 'numpy._core', 'sympy', 'mpmath') "
                         "if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# The closed-form commands and the parser touch no array: numpy's module is
# registered lazily and must never execute (numpy._core is its first import).
# They load neither dataclasses nor inspect either; numpy itself imports inspect.
_NUMPY_GUARD = """
import contextlib, io, sys
from khlab.cli import _COMMANDS, main, parse_config
required = {"k": "3,4", "n": "4"}
for command, spec in _COMMANDS.items():
    parse_config("", ["--command", command, *[x for key in spec.required
                                              for x in ("--" + key, required[key])]])
codes = []
for argv in %s:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(codes, *(name in sys.modules for name in ("numpy._core", "dataclasses", "inspect")))
"""


def test_closed_forms_never_execute_numpy():
    runs = [["--command", "dispersion", "--k", "3,4", "--a", "1.5", "--b", "0.5"],
            ["--command", "dispersion", "--k", "3,4", "--format", "json"],
            ["--command", "map", "--k", "2,4", "--a_steps", "7", "--b_steps", "5"],
            ["--command", "modes", "--k", "3,1", "--n_ver", "16"],
            ["--command", "verify", "--k", "5,-2"],
            ["--command", "dispersion", "--k", "1,1", "--a", "1e160"],
            ["--command", "map", "--k", "1,1", "--a_min", "1", "--a_max", "1", "--a_steps", "3"]]
    proc = _fresh_python(_NUMPY_GUARD % runs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "3,", "2]", "False", "False",
                                   "False"]


def test_numpy_guard_sees_an_array_command():
    proc = _fresh_python(_NUMPY_GUARD % [["--command", "pressure", "--n_tan", "32",
                                          "--refinements", "2"]])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0]", "True", "False", "True"]


# ---------------------------------------------------------------------------
# commands and formats
# ---------------------------------------------------------------------------

def _data_lines(out):
    return [l for l in out.splitlines() if l and not l.startswith("#")]


def test_map_csv_schema(capsys):
    rc, out = run_cli(capsys, ["--command", "map", "--k", "1,0",
                               "--a_steps", "10", "--b_steps", "10"])
    assert rc == 0
    lines = _data_lines(out)
    assert lines[0] == "a,b,gamma_squared,growing,syr1,syr2,strong"
    assert len(lines) == 1 + 100
    # transverse invariance: gamma^2 identical down the whole sweep
    gammas = {line.split(",")[2] for line in lines[1:]}
    assert gammas == {"1"}


@pytest.mark.parametrize("axis", ["a", "b"])
def test_degenerate_map_axis_names_its_keys(capsys, axis):
    message = f"{axis}_min, {axis}_max and {axis}_steps must give distinct finite {axis} values"
    # equal ends; a step that rounds to repeated values; a span past the float range
    # (NaN values), also in a single step
    for low, high, steps in [("1", "1", "10"), ("1", "1.0000000000000002", "100"),
                             ("-1e308", "1e308", "3"), ("-1e308", "1e308", "1")]:
        args = ["--command", "map", "--k", "1,1", f"--{axis}_min", low, f"--{axis}_max", high,
                f"--{axis}_steps", steps]
        with pytest.raises(MalformedValueError, match=message):
            parse_config("", args)
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"khlab: {message}\n")
    # a single step needs no span
    rc, out = run_cli(capsys, ["--command", "map", "--k", "1,1", f"--{axis}_min", "1",
                               f"--{axis}_max", "1", f"--{axis}_steps", "1"])
    assert rc == 0 and len(_data_lines(out)) == 1 + 10


def test_map_axis_text_matches_per_cell_formatting(capsys):
    # the a and b columns are formatted once per axis value and repeated; the text
    # must equal "%.17g" of each cell of the library's own columns
    from khlab.core import ShearParams, WaveVector, linspace
    from khlab.stability import stability_map

    rc, out = run_cli(capsys, ["--command", "map", "--k", "2,1", "--a_min", "3", "--a_max",
                               "-2.3", "--a_steps", "7", "--b_min", "-0.1", "--b_max", "-5",
                               "--b_steps", "6"])
    assert rc == 0
    rows = [line.split(",") for line in _data_lines(out)[1:]]
    columns = stability_map(ShearParams(), linspace(3.0, -2.3, 7), linspace(-0.1, -5.0, 6),
                            WaveVector(2, 1))
    assert [row[0] for row in rows] == ["%.17g" % a for a in columns["a"]]
    assert [row[1] for row in rows] == ["%.17g" % b for b in columns["b"]]


def test_map_csv_is_written_in_bounded_blocks(monkeypatch):
    # a 300 x 300 map is about 7 MB of CSV: it is formatted and written a block at a
    # time, and the blocks join to the per-cell "%.17g" text of the library's columns
    from khlab.core import ShearParams, WaveVector, linspace
    from khlab.stability import stability_map

    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
    assert main(["--command", "map", "--k", "3,1", "--a_steps", "300", "--b_steps", "300"]) == 0
    monkeypatch.undo()
    assert len(writes) > 1 and max(map(len, writes)) <= 10 ** 6
    axis = linspace(0.0, 2.0, 300)
    columns = stability_map(ShearParams(), axis, axis, WaveVector(3, 1))
    cells = zip(*(["%.17g" % v if isinstance(v, float) else str(v).lower() for v in column]
                  for column in columns.values()))
    head, header, body = "".join(writes).partition("\na,b,gamma_squared,growing,syr1,syr2,strong\n")
    assert head.startswith("# khlab map\n") and header
    assert body == "".join(",".join(row) + "\n" for row in cells)


def test_dispersion_json_round_trip(capsys):
    rc, out = run_cli(capsys, ["--command", "dispersion", "--k", "0,2",
                               "--a", "1.0", "--b", "1.0", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["data"]["lambda_squared"] == -4.0
    assert doc["data"]["growing"] is False


def test_modes_csv(capsys):
    rc, out = run_cli(capsys, ["--command", "modes", "--k", "2,0", "--n_ver", "4"])
    assert rc == 0
    lines = _data_lines(out)
    assert lines[0] == "x3,phase,W_re,V_im"
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[1] == "upper" and float(first[2]) == pytest.approx(1.0)


def test_verify_json(capsys):
    rc, out = run_cli(capsys, ["--command", "verify", "--k", "4,0"])
    assert rc == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["data"]["passed"] is True
    assert doc["data"]["wall_bc_residual"] < 1e-9


def test_pressure_error_table(capsys):
    rc, out = run_cli(capsys, ["--command", "pressure", "--kappas", "1",
                               "--refinements", "2", "--n_tan", "32"])
    assert rc == 0
    lines = _data_lines(out)
    assert lines[0] == "kappa,n_ver,h,max_error,observed_order"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2
    assert float(rows[1][4]) == pytest.approx(2.0, abs=0.3)


def test_pressure_first_level_has_no_order(capsys):
    # documented: the first level of each kappa prints observed_order as nan in CSV and
    # as null in JSON, which has no NaN.  source_sign negates the flux-jump data; both
    # solves are linear and IEEE negation is exact, so the data are the same bits
    argv = ["--command", "pressure", "--kappas", "1,2", "--refinements", "2", "--n_tan", "32"]
    csv_rows, json_data = [], []
    for sign in ("1", "-1"):
        rc, out = run_cli(capsys, argv + ["--source_sign", sign])
        assert rc == 0
        csv_rows.append(_data_lines(out))
        assert [row.split(",")[4] == "nan" for row in csv_rows[-1][1:]] == [True, False] * 2
        rc, out = run_cli(capsys, argv + ["--source_sign", sign, "--format", "json"])
        assert rc == 0
        data = json.loads(out)["data"]
        json_data.append((data["errors"], data["fitted_orders"]))
        orders = [row["observed_order"] for row in data["errors"]]
        assert orders[0::2] == [None, None] and all(isinstance(o, float) for o in orders[1::2])
    assert csv_rows[0] == csv_rows[1] and json_data[0] == json_data[1]


def test_evolve_csv_series(capsys):
    rc, out = run_cli(capsys, ["--command", "evolve", "--n", "4", "--t", "0.5",
                               "--samples", "3", "--n_tan", "32", "--n_ver", "16"])
    assert rc == 0
    lines = _data_lines(out)
    assert lines[0] == "t,E1_plus,E1_minus,G,F,norm_P_H2"
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    assert rows[0][0] == 0.0 and rows[-1][0] == 0.5
    # E1+ ratio follows e^{2 n t}
    assert rows[-1][1] / rows[0][1] == pytest.approx(math.exp(2 * 4 * 0.5), rel=1e-9)


def test_illposedness_json_passes(capsys):
    rc, out = run_cli(capsys, ["--command", "illposedness", "--n", "8",
                               "--t", "2.0", "--n_tan", "32", "--n_ver", "16"])
    assert rc == 0
    doc = json.loads(out)
    validate_report(doc)
    data = doc["data"]
    assert data["passed"] is True
    assert data["growth_factor"] >= math.exp(8 * 2.0) * (1 - 1e-6)


def test_illposedness_states_its_certificate_and_allowance(capsys):
    # required_factor is the certificate e^{n t} less its 1e-6 round-off allowance, and the
    # run passes when every growth margin E1+(t) / (E1+(0) e^{n t}) is at least 1 - 1e-6
    rc, out = run_cli(capsys, ["--command", "illposedness", "--n", "8", "--t", "2.0",
                               "--n_tan", "32", "--n_ver", "16", "--format", "json"])
    data = json.loads(out)["data"]
    assert rc == 0 and data["passed"] is True
    assert data["required_factor"] == math.exp(8 * 2.0) * (1 - 1e-6)
    assert min(data["growth"]["margins"]) >= 1 - 1e-6


@pytest.mark.parametrize("n", [1, 2, 5])
def test_illposedness_reports_the_sup_norm_of_its_data(capsys, n):
    # the seed (V, 0, W) = grad(e^{i n x1} f_n)/n peaks at |V| = scale e^{-sqrt(n)} coth(n)
    # on the interface, above the bare amplitude scale e^{-sqrt(n)}: 31 % at n = 1
    rc, out = run_cli(capsys, ["--command", "illposedness", "--n", str(n), "--n_tan", "16",
                               "--n_ver", "8", "--scale", "0.75"])
    assert rc == 0
    _, chi_dot = perturbed_initial_data(n, 0.75, 16, 8)
    sup = json.loads(out)["data"]["initial_sup_norm"]
    assert sup == abs(chi_dot).max()
    assert sup == pytest.approx(0.75 * math.exp(-math.sqrt(n)) / math.tanh(n), rel=1e-12)


def test_illposedness_verdict_is_scale_equivariant(capsys):
    # each vector's drop tolerance follows its own sup norm, so data scaled by 2^k
    # decompose to exactly scaled coefficients: the same verdict and growth factor
    verdicts = []
    for k in (-400, -40, 0, 40, 400):
        rc, out = run_cli(capsys, ["--command", "illposedness", "--n", "8", "--n_tan", "32",
                                   "--n_ver", "16", "--scale", repr(2.0 ** k)])
        data = json.loads(out)["data"]
        verdicts.append((rc, data["passed"], data["growth_factor"].hex()))
    assert verdicts[2][:2] == (0, True)
    assert verdicts == [verdicts[2]] * 5


def test_small_data_keep_their_series(capsys):
    # at scale 1e-12 the data (sup norm 6e-14) were once below an absolute
    # tolerance, and every row read zero
    args = ["--command", "evolve", "--n", "8", "--n_tan", "32", "--n_ver", "16"]
    rows = []
    for scale in ("1", "1e-12"):
        rc, out = run_cli(capsys, args + ["--scale", scale])
        assert rc == 0
        rows.append([list(map(float, l.split(","))) for l in _data_lines(out)[1:]])
    # E1_minus, a difference of growing terms, is left out: it agrees only to its round-off
    for (t, E1p, _, G, F, h2), small in zip(*rows):
        assert small[1] > 0.0
        assert [small[0], small[3], small[4]] == [t, G, F]
        assert [small[1], small[5]] == pytest.approx([1e-24 * E1p, 1e-12 * h2], rel=1e-12, abs=0)


def test_functionals_json(capsys):
    rc, out = run_cli(capsys, ["--command", "functionals", "--n", "5",
                               "--t", "1.0", "--samples", "5",
                               "--n_tan", "32", "--n_ver", "16"])
    assert rc == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["data"]["proposition2"]["invariant"] is True
    assert len(doc["data"]["proposition2"]["times"]) == 5


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["--command", "map", "--k", "1,2", "--a_steps", "5", "--b_steps", "4"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_atomic_write_creates_file(tmp_path):
    target = tmp_path / "report.json"
    rc = main(["--command", "verify", "--k", "2,0", "--out", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["command"] == "verify"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".khlab-")]
    assert leftovers == []


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(handle.fileno()))
        rc = main(["--command", "map", "--k", "1,1", "--a_steps", "30", "--b_steps", "30"])
        # stdout's descriptor now points at os.devnull: the flush at exit prints nothing
        assert os.path.samestat(os.fstat(handle.fileno()), os.stat(os.devnull))
    assert rc == 2
    assert capsys.readouterr().err == "khlab: cannot write output: stdout: Broken pipe\n"


def test_closed_stdout_pipe_in_a_process():
    # as in `khlab --command map ... | head -1`, with the reader gone before the first byte;
    # the output passes the buffer of stdout (buffered, the default for a pipe), so a write
    # fails and what the buffer still holds goes to os.devnull at exit.  dispersion's few
    # bytes stay in the buffer until _emit flushes it, so they fail under run's guard too
    env = _source_env()
    env.pop("PYTHONUNBUFFERED", None)
    for args in (["--command", "map", "--k", "1,1", "--a_steps", "100", "--b_steps", "100"],
                 ["--command", "dispersion", "--k", "1,0"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "khlab.cli", *args], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == b"khlab: cannot write output: stdout: Broken pipe\n"


# a CSV and a JSON command, both through numpy, and an exit-2 and an exit-3 path
_ENTRY_CASES = (
    ["--command", "evolve", "--n", "4", "--n_tan", "32", "--n_ver", "16"],
    ["--command", "illposedness", "--n", "4", "--n_tan", "32", "--n_ver", "16"],
    ["--command", "dispersion", "--k", "1,0", "--n1", "-1"],
    ["--command", "dispersion", "--k", "1,1", "--a", "1e160"],
)


def test_process_entry_writes_what_main_writes(capsys):
    # `python -m khlab.cli` runs process_main, which turns the collector off for the run:
    # stdout, stderr and the exit code are those of main() in process
    codes = []
    for args in _ENTRY_CASES:
        code = main(list(args))
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "khlab.cli", *args], env=_source_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, *captured)
        codes.append(code)
    assert codes == [0, 0, 2, 3]


def test_process_entry_runs_main_with_the_collector_off(tmp_path):
    out = tmp_path / "report.json"
    proc = _fresh_python(
        "import gc, sys\nimport khlab.cli as cli\n"
        "cli.main = lambda main=cli.main: print(gc.isenabled()) or main()\n"
        f"sys.argv[1:] = ['--command', 'verify', '--k', '3,4', '--out', {str(out)!r}]\n"
        "code = cli.process_main()\nprint(code, gc.isenabled(), gc.get_freeze_count() > 0)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n0 False True\n"
    assert json.loads(out.read_text())["data"]["passed"] is True


def test_main_in_process_keeps_the_collector(capsys):
    import gc

    frozen = gc.get_freeze_count()
    for args in (["--command", "dispersion", "--k", "1,0"], _ENTRY_CASES[1]):
        assert main(list(args)) == 0
        assert gc.isenabled() and gc.get_freeze_count() == frozen
    capsys.readouterr()


def test_console_script_is_the_process_entry():
    import importlib
    import re

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as handle:
        scripts = handle.read().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, attr = re.search(r'^khlab = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    import khlab.cli
    assert getattr(importlib.import_module(module), attr) is khlab.cli.process_main


def test_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["--command", "verify", "--k", "1,0", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"khlab: cannot write output: {str(target)!r}: No such file or directory\n"
    assert not target.parent.exists()


def test_out_naming_a_directory_exits_2_and_leaves_no_temporary(tmp_path, capsys):
    target = tmp_path / "reports"
    target.mkdir()
    assert main(["--command", "verify", "--k", "1,0", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"khlab: cannot write output: {str(target)!r}: Is a directory\n"
    assert os.listdir(tmp_path) == ["reports"] and os.listdir(target) == []


@pytest.mark.parametrize("config, args, message", [
    (None, ["--command", "dispersion", "--k", "1.5,2"], "bad wave vector '1.5,2'"),
    (None, ["--k", "1,0"], "no command given"),
    ("command = dispersion\nk 1,0\n", [], "line 2: expected 'key = value'"),
    (None, ["--command", "dispersion", "--k"], "flag --k needs a value"),
    (None, ["--command", "dispersion", "k", "1,0"], "expected --key, got 'k'"),
    # a Latin-1 comment is not UTF-8: its 0xe9 byte fails the decode, not the parse
    ("command = verify\nk = 3,4\n# caf\u00e9\n".encode("latin-1"), [], "cannot read config"),
], ids=["fractional-k", "no-command", "line-without-equals", "flag-without-value",
        "bare-key", "not-utf-8"])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, config, args, message):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_bytes(config if isinstance(config, bytes) else config.encode("utf-8"))
        args = [str(path)] + args
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"khlab: {message}") and len(err.splitlines()) == 1


def test_config_file_input(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = dispersion\nk = 1,0\na = 0.5\n")
    rc, out = run_cli(capsys, [str(cfg), "--b", "0.25"])
    assert rc == 0
    lines = _data_lines(out)
    assert lines[1].split(",")[2] == "0.5"   # a from file
    assert lines[1].split(",")[3] == "0.25"  # b from flag


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    # some editors start a UTF-8 file with U+FEFF, which is not part of the first key
    text = "command = dispersion\nk = 3,4\na = 0.5\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    results = [run_cli(capsys, [str(path)]) for path in (plain, marked)]
    assert results[0][0] == 0 and results[1] == results[0]


def test_missing_config_file():
    assert main(["/nonexistent/run.cfg", "--command", "dispersion"]) == 2


def test_rk4_stability_rejection_exit_code(capsys):
    rc = main(["--command", "evolve", "--n", "30", "--t", "1.0",
               "--stepper", "rk4", "--dt", "0.5",
               "--n_tan", "64", "--n_ver", "8"])
    assert rc == 2


def test_rk4_default_dt_covers_r_block(capsys):
    # the decomposition drops the round-off r block, so neither the default dt, which
    # reads only the modes the state holds, nor an explicit dt, checked against the same
    # modes, sees the field: each run prints the --a 0 rows
    rows = []
    for a, dt in (("10", []), ("0", []), ("10", ["--dt", "0.02"]), ("0", ["--dt", "0.02"])):
        rc = main(["--command", "evolve", "--n", "8", "--stepper", "rk4", "--a", a, *dt,
                   "--n_tan", "64", "--n_ver", "8", "--samples", "2"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        rows.append(_data_lines(out))
    assert rows[0] == rows[1] and rows[2] == rows[3] and len(rows[0]) == 3


@pytest.mark.parametrize("a", ["1.7e308", "1e307"])
def test_rk4_default_dt_past_the_float_range(capsys, a):
    # the default dt reads no r block that the state does not hold, so a field at the top
    # of the float range prints the --a 0 rows, where it overflowed an r-block frequency
    # (1.7e308) or the step count t/dt (1e307) and exited 3
    rows = []
    for field in ("0", a):
        rc = main(["--command", "evolve", "--stepper", "rk4", "--n", "4", "--a", field,
                   "--n_tan", "32", "--n_ver", "8"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "", (field, err)
        rows.append(_data_lines(out))
    assert len(rows[0]) == 10 and rows[1] == rows[0]


def test_rk4_step_count_does_not_set_the_cost(capsys):
    # dt = 3e-152 takes about 3e151 steps: their power comes in closed form, not one
    # step at a time
    start = time.perf_counter()
    rc = main(["--command", "evolve", "--n", "3", "--n_tan", "16", "--n_ver", "8",
               "--a", "1e150", "--samples", "2", "--stepper", "rk4", "--dt", "3e-152"])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = out.splitlines()[-2:]
    exact = main(["--command", "evolve", "--n", "3", "--n_tan", "16", "--n_ver", "8",
                  "--a", "1e150", "--samples", "2"])
    assert exact == 0
    for got, want in zip(rows, capsys.readouterr().out.splitlines()[-2:]):
        # E1_minus cancels e^{3t}-sized terms, so it gets an absolute bound
        for x, y in zip(map(float, got.split(",")), map(float, want.split(","))):
            assert abs(x - y) <= 1e-8 * max(float(v) for v in want.split(","))


def test_overflow_exit_code(capsys):
    # cosh(50 * 15) leaves the float range: exit 3 with one line, no traceback
    rc = main(["--command", "illposedness", "--n", "50", "--t", "15",
               "--n_tan", "128", "--n_ver", "8"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("khlab: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_closed_form_overflow_names_the_square(capsys):
    for args in (["--command", "dispersion", "--k", "1,1", "--a", "1e160"],
                 ["--command", "map", "--k", "1,1", "--a_max", "1e160"]):
        assert main(args) == 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "(k.B)^2" in err and "lower a" in err and "Numerical result" not in err


# finite inputs whose growth rate leaves the float range: the first five printed inf or
# -inf with exit 0 in CSV and exited 3 with "non-finite value in the report" in JSON
_GAMMA_OVERFLOW = ("gamma^2 leaves the float range; bring |k|, u_plus - u_minus, a, b, "
                   "n1 + n2 and m_i nearer 1")
_INFINITE_GROWTH_RUNS = [
    pytest.param("dispersion", "--k 1,0 --u_plus 1e308,0,0 --u_minus -1e308,0,0",
                 _GAMMA_OVERFLOW, id="velocity-jump"),
    pytest.param("map", "--k -5,0 --u_plus 1.7e308,-2,0.6 --b_max -1.2", _GAMMA_OVERFLOW,
                 id="map-shear-dot"),
    pytest.param("dispersion", "--k 0,5 --a 1.7e308", _GAMMA_OVERFLOW, id="field-dot"),
    pytest.param("dispersion", "--k 1,1 --a 1e154 --b 1e154", _GAMMA_OVERFLOW,
                 id="tension-sum"),
    pytest.param("dispersion", "--k 3,4 --m_i 1e-320 --a 1", _GAMMA_OVERFLOW,
                 id="tiny-ion-mass"),
    pytest.param("dispersion", "--k 3,4 --n1 1e308 --n2 1e308", _GAMMA_OVERFLOW,
                 id="density-sum"),      # printed a finite but wrong gamma^2 = 0
    pytest.param("dispersion", f"--k {10 ** 155},0 --u_plus 0,0,0 --u_minus 0,0,0",
                 "lambda^2 leaves the float range; lower |k|, a or b", id="lambda-squared"),
    # the rk4 step count t/dt, whose power the propagators take in closed form
    pytest.param("evolve", "--stepper rk4 --n 2 --n_tan 16 --n_ver 8 --t 1e308 --dt 1e-10 "
                 "--samples 2", "rk4 step count t/dt = 1e+308/1e-10 leaves the float range",
                 id="rk4-step-count"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flags, message", _INFINITE_GROWTH_RUNS)
def test_growth_rate_past_the_float_range_exits_3_naming_it(capsys, command, flags, message):
    for fmt in ("csv", "json") if command == "dispersion" else ("csv",):
        assert main(["--command", command, *flags.split(), "--format", fmt]) == 3
        assert capsys.readouterr() == ("", f"khlab: numerical overflow: {message}\n")


@pytest.mark.parametrize("flags, row", [
    ("--k 3,4 --n1 1e-300 --n2 1e-300", "3,4,0,0,9,9,true,false,true,true"),
    ("--k 3,4 --n1 1e300 --n2 1e300", "3,4,0,0,9,9,true,false,true,true"),
    ("--k 1,0 --a 1 --n1 2e-309 --n2 2e-309 --m_i 2e-309", "1,0,1,0,1,1,true,false,false,false"),
], ids=["tiny-densities", "huge-densities", "subnormal-tension-scale"])
def test_density_weight_and_tension_hold_at_both_ends_of_the_range(capsys, flags, row):
    # n1 n2 / (n1 + n2)^2 is exactly 1/4 at n1 = n2; its product form underflowed to a
    # ZeroDivisionError at 1e-300 and overflowed at 1e300, and 4 pi (n1 + n2) m_i
    # underflowed to a ZeroDivisionError although a streamwise mode feels no tension
    args = ["--command", "dispersion", *flags.split()]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == row
    assert main(args + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["gamma_squared"] == float(row.split(",")[4])


@pytest.mark.filterwarnings("error")
def test_profiles_past_kappa_710_exit_0(capsys):
    # past kappa = 709.78 e^kappa leaves the float range, which the anchored profile pairs
    # never form: modes and verify exited 3 here, and both now hold the walls exactly
    for k in ("710,0", "2000,0"):
        assert main(["--command", "modes", "--k", k]) == 0
        out, err = capsys.readouterr()
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
        assert err == "" and all(math.isfinite(float(v)) for row in rows for v in row[2:])
        assert {row[2] for row in rows if row[0] in ("1", "-1")} == {"0"}
        assert main(["--command", "verify", "--k", k]) == 0
        out, err = capsys.readouterr()
        data = json.loads(out)["data"]
        assert err == "" and data["passed"] is True and data["wall_bc_residual"] == 0.0


@pytest.mark.filterwarnings("error")
def test_verify_past_the_float_range_names_kappa(capsys):
    # kappa = 1e160 is a float, but kappa^2 is not: the audit names it, where it printed
    # "int too large to convert to float"
    assert main(["--command", "verify", "--k", f"{10 ** 160},0"]) == 3
    assert capsys.readouterr() == ("", "khlab: numerical overflow: kappa^2 = k1^2 + k2^2 "
                                       "leaves the float range; lower |k|\n")


_HUGE_K = f"{10 ** 309},0"
_HUGE_K_LINE = (f"khlab: bad wave vector {_HUGE_K!r}: "
                "wave vector k = (k1, k2) leaves the float range")


@pytest.mark.parametrize("command, k, code, line", [
    ("dispersion", _HUGE_K, 2, _HUGE_K_LINE),
    ("modes", _HUGE_K, 2, _HUGE_K_LINE),
    ("verify", _HUGE_K, 2, _HUGE_K_LINE),
    ("dispersion", f"{10 ** 160},0", 3, "khlab: numerical overflow: (k.[u])^2 leaves the "
                                        "float range; lower |k| or u_plus - u_minus"),
], ids=["dispersion", "modes", "verify", "dispersion-square"])
def test_wave_number_past_the_float_range_writes_one_named_line(capsys, command, k, code, line):
    # a component past the float range printed "int too large to convert to float"
    assert main(["--command", command, "--k", k]) == code
    assert capsys.readouterr() == ("", line + "\n")


def test_range_runs_pass_end_to_end():
    # the wave numbers of the paper's large-n signature: n = 720 and |k| = 2000 are
    # past the kappa = 709.78 where e^kappa leaves the float range
    for args in (["--command", "verify", "--k", "2000,0"],
                 ["--command", "illposedness", "--n", "720", "--t", "0.3",
                  "--n_tan", "2048", "--n_ver", "32"]):
        proc = subprocess.run([sys.executable, "-m", "khlab.cli", *args], env=_source_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["data"]["passed"] is True


@pytest.mark.filterwarnings("error")
def test_top_of_range_data_exit_3_with_one_line(capsys):
    # the interface trace FFT once overflowed here: four RuntimeWarnings, then exit 2
    # "invalid input" although every documented bound holds
    rc = main(["--command", "illposedness", "--n", "2", "--n_cutoff", "15",
               "--scale", "1.7e308", "--n_tan", "16", "--n_ver", "32"])
    assert rc == 3
    assert capsys.readouterr() == ("", "khlab: numerical overflow: growth functionals leave "
                                       "the float range at t=0.0\n")


def test_profiles_past_kappa_710_write_nothing_to_stderr():
    # in a fresh process with the default warning filters, nothing reaches stderr
    for command in ("modes", "verify"):
        proc = subprocess.run([sys.executable, "-m", "khlab.cli", "--command", command,
                               "--k", "710,0"], env=_source_env(), capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("# khlab modes" if command == "modes" else "{")


def test_unmapped_exception_is_an_internal_error(monkeypatch, capsys):
    import khlab.cli as cli_mod

    def boom(cfg):
        raise RuntimeError("synthetic defect")

    monkeypatch.setitem(cli_mod._HANDLERS, "dispersion", boom)
    assert main(["--command", "dispersion", "--k", "1,0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "khlab: internal error: RuntimeError: synthetic defect\n"


def test_solver_failure_exit_code(monkeypatch):
    import khlab.cli as cli_mod
    from khlab.pressure import PressureSolverError

    def boom(cfg):
        raise PressureSolverError("synthetic breakdown")

    monkeypatch.setitem(cli_mod._HANDLERS, "pressure", boom)
    cfg = parse_config("", ["--command", "pressure"])
    assert cli_mod.run(cfg) == 3


def test_schema_loads_and_rejects_bad_doc():
    schema = load_report_schema()
    assert schema["type"] == "object"
    with pytest.raises(ValueError):
        validate_report({"command": "verify"})
    with pytest.raises(ValueError):
        validate_report({"command": "nope", "config": {}, "data": {}})


def test_numeric_formatting_round_trip(capsys):
    rc, out = run_cli(capsys, ["--command", "dispersion", "--k", "0,1",
                               "--a", "0.1", "--b", "0.2"])
    line = _data_lines(out)[1]
    gamma = float(line.split(",")[4])
    # 17 significant digits survive the text round trip exactly
    expect = -(0.1 ** 2 + 0.2 ** 2) / (4 * math.pi * 2.0)
    assert gamma == expect


def test_non_finite_report_exit_code(monkeypatch, capsys):
    # a NaN reaching a JSON report is a numerical failure: exit 3, one line
    import khlab.cli as cli_mod

    def nan_report(cfg):
        return 0, cli_mod._json_payload(cfg, {"growth_factor": float("nan"), "passed": True})

    monkeypatch.setitem(cli_mod._HANDLERS, "illposedness", nan_report)
    rc = main(["--command", "illposedness", "--n", "4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("khlab: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_functional_overflow_exit_code(capsys):
    # E1+ ~ e^{2 n t} overflows at n t = 400 although the propagator does not:
    # exit 3 with one line, and no RuntimeWarning on the way
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--command", "evolve", "--n", "50", "--t", "8",
                   "--n_tan", "128", "--n_ver", "8", "--samples", "2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("khlab: numerical overflow") and captured.err.count("\n") == 1


def test_sample_series_memory_does_not_grow_with_samples(capsys):
    # the series is streamed: only the sample being checked is alive
    import tracemalloc

    def peak(samples):
        tracemalloc.start()
        try:
            rc = main(["--command", "functionals", "--n", "4", "--n_tan", "32",
                       "--n_ver", "16", "--samples", str(samples)])
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        return peak_bytes

    assert peak(9) <= 1.5 * peak(2)


# ---------------------------------------------------------------------------
# the key and command tables
# ---------------------------------------------------------------------------

def test_every_default_is_within_its_bound():
    import khlab.cli as cli_mod

    for command, spec in cli_mod._COMMANDS.items():
        required = {"k": "1,0", "n": "4"}
        cfg = parse_config("", ["--command", command] + [
            arg for key in spec.required for arg in ("--" + key, required[key])])
        assert cfg.format == spec.formats[0]
        assert set(spec.required) <= set(spec.reads) <= set(cli_mod._KEYS)
        for key, row in cli_mod._KEYS.items():
            if row.default is not None and row.bound is not None:
                assert row.bound[0](row.default, cfg), key


def test_echo_lists_exactly_the_keys_each_command_reads(monkeypatch, capsys):
    # a configuration that records every key the handler looks at, with the
    # payload writers (which read the echo) stubbed out
    import khlab.cli as cli_mod

    seen = set()

    class Recording(cli_mod.RunConfig):
        def __getattribute__(self, name):
            if name in cli_mod._KEYS:
                seen.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(cli_mod, "_csv_payload", lambda cfg, columns: "")
    monkeypatch.setattr(cli_mod, "_json_payload", lambda cfg, data: "")
    small = ["--n", "2", "--n_tan", "8", "--n_ver", "4", "--samples", "2"]
    flags = {"dispersion": ["--k", "1,1"],
             "map": ["--k", "1,1", "--a_steps", "2", "--b_steps", "2"],
             "modes": ["--k", "1,1", "--n_ver", "4"],
             "pressure": ["--kappas", "1", "--n_tan", "32", "--refinements", "2"],
             "evolve": small + ["--stepper", "rk4"],
             "functionals": small,
             "illposedness": small,
             "verify": ["--k", "1,1"]}
    assert set(flags) == set(cli_mod._COMMANDS)
    for command, args in flags.items():
        cfg = Recording(**vars(parse_config("", ["--command", command] + args)))
        seen.clear()
        assert cli_mod.run(cfg) in (0, 1)
        reads = cli_mod._COMMANDS[command].reads
        assert seen - {"command", "format", "out"} == set(reads), command
        assert list(cli_mod._config_echo(parse_config("", ["--command", command] + args))) \
            == sorted({"command", *reads} - {"dt", "n_cutoff"}), command
    capsys.readouterr()


def test_echo_drops_keys_the_command_does_not_read(capsys):
    rc, out = run_cli(capsys, ["--command", "map", "--k", "1,0", "--a_steps", "2",
                               "--b_steps", "2", "--a", "0.5", "--out", "-"])
    assert rc == 0
    echo = [line.split(" = ")[0][2:] for line in out.splitlines()[1:] if line.startswith("#")]
    assert echo == ["a_max", "a_min", "a_steps", "b_max", "b_min", "b_steps", "command",
                    "k", "m_i", "n1", "n2", "u_minus", "u_plus"]
    rc, out = run_cli(capsys, ["--command", "dispersion", "--k", "1,0", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["config"] == {
        "a": 0.0, "b": 0.0, "command": "dispersion", "k": "1,0", "m_i": 1.0, "n1": 1.0,
        "n2": 1.0, "u_minus": "-1,0,0", "u_plus": "1,0,0"}


def test_parse_config_raises_only_config_errors_property():
    # any flag text for any key, alone or with others, gives a RunConfig or a
    # ConfigError, never another exception
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import khlab.cli as cli_mod

    numberish = st.one_of(
        st.integers(-3, 70).map(str), st.integers(-10 ** 6, 10 ** 6).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.lists(st.integers(-20, 20).map(str), min_size=1, max_size=4).map(",".join),
        st.lists(st.floats().map(repr), min_size=1, max_size=4).map(",".join))
    text = st.one_of(numberish, st.text(max_size=20), st.sampled_from(
        ["csv", "json", "exact", "rk4", "", " ", "1,0", "0,0", "10**400", "9" * 5000]))
    # the pressure keys bound one another, so they are drawn more often
    key = st.one_of(st.sampled_from(sorted(cli_mod._KEYS)),
                    st.sampled_from(["kappas", "n_tan", "refinements"]))
    flag = st.tuples(key, text)

    @hypothesis.settings(max_examples=600, deadline=None)
    @hypothesis.given(command=st.sampled_from(sorted(cli_mod._COMMANDS)),
                      pairs=st.lists(flag, min_size=1, max_size=4))
    def check(command, pairs):
        args = ["--command", command, "--k", "1,0", "--n", "4"]
        for key, value in pairs:
            args += ["--" + key, value]
        try:
            cfg = parse_config("", args)
        except cli_mod.ConfigError:
            return
        assert isinstance(cfg, cli_mod.RunConfig)

    check()


def test_closed_form_commands_end_in_a_documented_way_property():
    # dispersion, map, modes and verify with any subset of the keys they read, every float
    # from +-5e-324 to +-1.7e308, |k| up to 1e200 and k2 = 0 included: exit 0 prints finite
    # numbers, exit 2 or 3 one khlab: line and no stdout, dispersion exits alike in CSV and
    # JSON, nothing warns, and a rerun gives the same bytes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import contextlib
    import io
    import re
    import warnings

    import khlab.cli as cli_mod

    number = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False,
                                                         allow_infinity=False)).map(repr)
    wave = st.one_of(st.integers(-64, 64), st.integers(-10 ** 200, 10 ** 200))
    text = {cli_mod._parse_float: number,
            cli_mod._parse_vec3: st.tuples(number, number, number).map(",".join),
            cli_mod._parse_int_pair: st.tuples(wave, st.just(0) | wave).map(
                lambda k: f"{k[0]},{k[1]}"),
            cli_mod._parse_int: st.integers(-1, 20).map(str)}     # at most 400 map cells

    def flags(command):
        spec = cli_mod._COMMANDS[command]
        drawn = {key: text[cli_mod._KEYS[key].parse] for key in spec.reads}
        required = {key: drawn.pop(key) for key in spec.required}
        return st.tuples(st.just(command), st.fixed_dictionaries(required, optional=drawn))

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli_mod.main(args)
        assert caught == []
        return code, out.getvalue(), err.getvalue()

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(st.sampled_from(["dispersion", "map", "modes", "verify"]).flatmap(flags))
    def check(run_flags):
        command, values = run_flags
        args = ["--command", command] + [x for key, value in values.items()
                                          for x in (f"--{key}", value)]
        code, out, err = run(args)
        assert code in (0, 2, 3)
        if code:
            assert out == "" and err.startswith("khlab: ") and err.count("\n") == 1
            assert not err.startswith("khlab: internal error")
        else:
            assert err == "" and not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE)
        assert run(args) == (code, out, err)
        if command == "dispersion":
            assert run(args + ["--format", "json"])[0] == code

    check()


_GRID_HEADERS = {"pressure": "kappa,n_ver,h,max_error,observed_order",
                 "evolve": "t,E1_plus,E1_minus,G,F,norm_P_H2"}


def _grid_output_problems(cli_mod, command, args, code, out):
    """What is wrong with the stdout of a grid command that exited 0 or 1: nothing when it
    parses and holds the rows its configuration asks for."""
    cfg = cli_mod.parse_config("", args)
    if code == 1 and command not in ("functionals", "illposedness"):
        return ["exit 1 without a check"]
    if cfg.format == "json":
        doc = json.loads(out)
        validate_report(doc)
        data = doc["data"]
        if command == "pressure":
            return [] if len(data["errors"]) == len(cfg.kappas) * cfg.refinements else ["rows"]
        series = (data["proposition2"] if command == "functionals" else data["growth"])["times"]
        return (([] if data["passed"] == (code == 0) else ["verdict"])
                + ([] if len(series) == cfg.samples else ["rows"]))
    lines = out.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    if lines[0] != f"# khlab {command}" or body[0] != _GRID_HEADERS[command]:
        return ["echo or header"]
    rows = [row.split(",") for row in body[1:]]
    if command == "evolve":
        labels = [[float(row[0])] for row in rows]
        expect = [[t] for t in cli_mod.linspace(0.0, cfg.t, cfg.samples)]
    else:
        levels = [cfg.n_tan >> (cfg.refinements - 1 - i) for i in range(cfg.refinements)]
        labels = [[float(row[0]), int(row[1])] for row in rows]
        expect = [[kappa, n] for kappa in cfg.kappas for n in levels]
        # the first level of each kappa has no order: there, and only there, it reads nan
        no_order = [row[4] == "nan" for row in rows]
        if labels == expect and no_order != [n == levels[0] for _, n in expect]:
            return ["observed_order"]
        rows = [row[:4] if missing else row for row, missing in zip(rows, no_order)]
    if labels != expect:
        return ["row labels"]
    return [] if all(math.isfinite(float(field)) for row in rows for field in row) else ["nan"]


def test_grid_commands_end_in_a_documented_way_property():
    # pressure, evolve, functionals and illposedness with any subset of the keys they read,
    # grids of at most 32 points a side, floats from +-5e-324 to +-1.7e308 and each key's
    # bounds, both steppers with and without dt, and some stdouts whose reader is gone:
    # exit 0 or 1 writes nothing to stderr and a CSV or schema-valid JSON whose rows are the
    # configured ones, exit 2 or 3 one khlab: line and no stdout, pressure exits alike in
    # CSV and JSON unless JSON's finiteness rule is the reason, nothing warns, a rerun gives
    # the same bytes and each example ends within its deadline
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import contextlib
    import io
    import signal
    import warnings

    import khlab.cli as cli_mod

    # per key, (text in its bound or on it, text past it)
    huge = st.floats(min_value=5e-324, max_value=1.7e308).map(repr)
    positive = st.one_of(st.floats(1e-3, 3.0).map(repr), huge,
                         st.sampled_from(["5e-324", "1e-300", "1e300", "1.7e308"]))
    past = st.one_of(st.floats(max_value=-5e-324).map(repr), st.sampled_from(["inf", "nan"]))
    non_negative = (st.one_of(positive, st.sampled_from(["0", "-0.0"])), past)
    grid = (st.integers(4, 32).map(str), st.integers(-1, 3).map(str))
    frequency = (st.integers(1, 8).map(str),   # past n_tan/2 is past the data's bound
                 st.one_of(st.integers(-1, 0), st.integers(9, 40)).map(str))
    text = {"n_tan": grid, "n_ver": grid, "n": frequency, "n_cutoff": frequency,
            "samples": (st.integers(1, 24).map(str), st.integers(-1, 0).map(str)),
            "stepper": (st.sampled_from(["exact", "rk4"]), st.just("euler")),
            # pressure fits an order only from two levels of at least 16 points
            "refinements": (st.just("2"), st.sampled_from(["-1", "0", "1", "3", "4"])),
            "kappas": (st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True)
                       .map(lambda ks: ",".join(map(str, ks))),
                       st.lists(st.integers(-1, 9).map(str) | huge | past,
                                min_size=1, max_size=4).map(",".join)),
            "source_sign": (st.sampled_from(["1", "-1", "1.0"]), huge | past | st.just("0")),
            "scale": (positive, past | st.sampled_from(["0", "-0.0"])),
            "dt": (positive, past | st.sampled_from(["0", "-0.0"])),
            "a": non_negative, "b": non_negative,
            "t": (st.floats(0.0, 3.0).map(repr) | non_negative[0], past)}
    assert all(cli_mod._KEYS[key].parse is cli_mod._parse_float
               for key in ("scale", "dt", "a", "b", "t"))

    def flags(command):
        """(command, {key: text}, closed stdout): every key in bound, or one past it."""
        spec = cli_mod._COMMANDS[command]
        keys = {key: text[key] for key in spec.reads}
        keys["format"] = (st.sampled_from(spec.formats), st.sampled_from(["csv", "json"]))
        if command == "pressure":   # its one valid grid of at most 32 points
            keys["n_tan"] = (st.just("32"), st.one_of(*grid))
        drawn = {key: inside for key, (inside, _) in keys.items()}
        # the grid keys are always given, so no example runs the default 64-point grids
        given = {key: drawn.pop(key) for key in spec.required + ("n_tan", "n_ver", "refinements")
                 if key in drawn}
        past_one = st.one_of(st.just({}), st.sampled_from(sorted(keys)).flatmap(
            lambda key: st.fixed_dictionaries({key: keys[key][1]})))
        values = st.tuples(st.fixed_dictionaries(given, optional=drawn), past_one).map(
            lambda pair: {**pair[0], **pair[1]})
        return st.tuples(st.just(command), values, st.booleans())

    class PastDeadline(BaseException):
        """Not an Exception, so run's guard cannot turn it into an exit code."""

    def expire(signum, frame):
        raise PastDeadline("an example ran past its 10 s deadline")

    closed_fd = os.open(os.devnull, os.O_WRONLY)

    def run(args, stdout=None):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout or out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli_mod.main(args)
        assert caught == []
        return code, out.getvalue(), err.getvalue()

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.sampled_from(["pressure", "evolve", "functionals", "illposedness"])
                      .flatmap(flags))
    def check(drawn):
        command, values, closed = drawn
        args = ["--command", command] + [x for key, value in values.items()
                                          for x in (f"--{key}", value)]
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            code, out, err = run(args)
            assert code in (0, 1, 2, 3)
            if code in (2, 3):
                assert out == "" and err.startswith("khlab: ") and err.count("\n") == 1
                assert not err.startswith("khlab: internal error")
            else:
                assert err == ""
                assert _grid_output_problems(cli_mod, command, args, code, out) == []
            assert run(args) == (code, out, err)
            if command == "pressure" and "format" not in values:
                other, _, json_err = run(args + ["--format", "json"])
                assert other == code or (other, code) == (3, 0) and json_err.startswith(
                    "khlab: non-finite value in the report")
            if closed:
                gone = (2, "", "khlab: cannot write output: stdout: Broken pipe\n")
                assert run(args, _ClosedPipe(closed_fd)) == (gone if code < 2 else (code, "", err))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        check()
    finally:
        signal.signal(signal.SIGALRM, previous)
        os.close(closed_fd)


def _json_reports(capsys):
    """One report of each JSON command, at small sizes."""
    small = ["--n", "3", "--n_tan", "16", "--n_ver", "8", "--samples", "3"]
    reports = []
    for args in (["--command", "dispersion", "--k", "2,1", "--format", "json"],
                 ["--command", "pressure", "--kappas", "1,2", "--n_tan", "32",
                  "--refinements", "2", "--format", "json"],
                 ["--command", "functionals"] + small,
                 ["--command", "illposedness"] + small,
                 ["--command", "verify", "--k", "3,1"]):
        rc, out = run_cli(capsys, args)
        assert rc == 0, args
        reports.append(json.loads(out))
    return reports


def _mutations(node):
    """Copies of a report with one key deleted or one value replaced.

    The integral float 2.0 is among the replacements: JSON Schema counts it
    as an integer and as a number, so the validator must accept it where
    either is expected.
    """
    import copy

    def paths(value, path=()):
        if isinstance(value, dict):
            for key, child in value.items():
                yield path + (key,)
                yield from paths(child, path + (key,))
        elif isinstance(value, list):
            for i, child in enumerate(value[:2]):
                yield path + (i,)
                yield from paths(child, path + (i,))

    for path in paths(node):
        for replacement in ("text", None, True, [], {}, 1.5, 2.0, -3, "delete"):
            doc = copy.deepcopy(node)
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            if replacement == "delete":
                if isinstance(parent, dict):
                    del parent[path[-1]]
            else:
                parent[path[-1]] = replacement
            yield doc
    extra = copy.deepcopy(node)
    extra["unexpected"] = 1
    yield extra
    wrong = copy.deepcopy(node)
    wrong["command"] = "nope"
    yield wrong


def test_hand_rolled_validator_agrees_with_jsonschema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from khlab.cli import _validate_node

    schema = load_report_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)

    def hand_rolled_ok(doc):
        try:
            _validate_node(doc, schema, "$")
        except ValueError:
            return False
        return True

    rejected = 0
    for report in _json_reports(capsys):
        assert validator.is_valid(report) and hand_rolled_ok(report)
        for doc in _mutations(report):
            assert hand_rolled_ok(doc) == validator.is_valid(doc), doc
            rejected += not validator.is_valid(doc)
    assert rejected > 100   # the mutations reach the schema's constraints


def test_readme_command_table_matches_the_command_table():
    import re

    import khlab.cli as cli_mod

    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("### Commands", 1)[1].split("###", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    table = {}
    for cells in rows:
        command, required, reads, formats = (re.findall(r"`([^`]+)`", c) for c in cells[:4])
        table[command[0]] = cli_mod._Command(tuple(required), tuple(reads), tuple(formats))
    assert table == cli_mod._COMMANDS
