"""Configuration parsing, dispatch, exit codes and export formats."""

import json
import math
import os
import subprocess
import sys

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


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, khlab.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


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


def test_functionals_json(capsys):
    rc, out = run_cli(capsys, ["--command", "functionals", "--n", "5",
                               "--t", "1.0", "--samples", "5",
                               "--n_tan", "32", "--n_ver", "16"])
    assert rc == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["data"]["proposition2"]["invariant"] is True
    assert len(doc["data"]["series"]) == 5


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


def test_config_file_input(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = dispersion\nk = 1,0\na = 0.5\n")
    rc, out = run_cli(capsys, [str(cfg), "--b", "0.25"])
    assert rc == 0
    lines = _data_lines(out)
    assert lines[1].split(",")[2] == "0.5"   # a from file
    assert lines[1].split(",")[3] == "0.25"  # b from flag


def test_missing_config_file():
    assert main(["/nonexistent/run.cfg", "--command", "dispersion"]) == 2


def test_rk4_stability_rejection_exit_code(capsys):
    rc = main(["--command", "evolve", "--n", "30", "--t", "1.0",
               "--stepper", "rk4", "--dt", "0.5",
               "--n_tan", "64", "--n_ver", "8"])
    assert rc == 2


def test_rk4_default_dt_covers_r_block(capsys):
    # |omega| = a * n_tan/2 = 320 in the r block needs dt below 0.01
    rc = main(["--command", "evolve", "--n", "8", "--stepper", "rk4", "--a", "10",
               "--n_tan", "64", "--n_ver", "8", "--samples", "2"])
    assert rc == 0
    # an explicit dt is checked against the r block's frequencies even though
    # the decomposition drops that round-off block
    capsys.readouterr()
    rc = main(["--command", "evolve", "--n", "8", "--stepper", "rk4", "--a", "10",
               "--dt", "0.02", "--n_tan", "64", "--n_ver", "8", "--samples", "2"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "exceeds the limit" in err


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
