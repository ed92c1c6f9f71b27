"""Every benchmark workload runs and passes its own checker.

bench/workloads.py holds the invocations the benchmark times and the checks
that hold their outputs to the paper; a change that makes one fail would
otherwise show only when the benchmark runs.  Each invocation, and the
exact-stepper reference of the rk4 series, runs in process at full size for
the default and the held-out seed.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from khlab import cli, functionals
from khlab.cli import main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_WORKLOADS = os.path.join(_ROOT, "bench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave bench/ as it is
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _stdout(capsys, argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    assert rc == 0, (argv, err)
    return out


def _check_E1_product(workloads, argv, out):
    # the data have c0 = 0, so w+/- = d0 e^{+/-nt} and E1+ * E1- stays constant under
    # the exact stepper: each factor is right to round-off, though E1- falls like e^{-2nt}
    flags = dict(zip(argv[::2], argv[1::2]))
    if flags["--command"] != "evolve" or flags.get("--stepper", "exact") != "exact":
        return
    products = [float(row["E1_plus"]) * float(row["E1_minus"])
                for row in workloads.csv_rows(out)]
    assert max(abs(p - products[0]) for p in products) <= 1e-14 * products[0], argv


@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_invocation_passes_its_check(capsys, workloads, seed):
    for name in workloads.WORKLOADS:
        for inv in workloads.invocations(name, seed):
            reference = None if inv.reference is None else _stdout(capsys, inv.reference)
            out = _stdout(capsys, inv.argv)
            assert inv.check(out, reference) == [], (name, inv.argv)
            for argv, text in ((inv.argv, out), (inv.reference, reference)):
                if argv is not None:
                    _check_E1_product(workloads, argv, text)


@pytest.mark.parametrize("seed", [1, 7])
def test_illposedness_growth_factor_is_the_functionals_ratio(capsys, workloads, seed):
    # the certificate's growth factor is E1+(T)/E1+(0) of the functionals series of the
    # same flags, bit for bit
    docs = {inv.command: json.loads(_stdout(capsys, inv.argv))["data"]
            for inv in workloads.invocations("illposed-pipeline", seed)
            if inv.command in ("functionals", "illposedness")}
    E1_plus = docs["functionals"]["proposition2"]["E1_plus"]
    assert docs["illposedness"]["growth_factor"] == E1_plus[-1] / E1_plus[0]


@pytest.mark.parametrize("samples", [None, "4"])
def test_illposedness_evaluates_each_sample_once(capsys, monkeypatch, samples):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return compute(*args, **kwargs)

    compute = functionals.compute_functionals
    monkeypatch.setattr(functionals, "compute_functionals", counted)
    monkeypatch.setattr(cli, "compute_functionals", counted)
    argv = ["--command", "illposedness", "--n", "4", "--n_tan", "16", "--n_ver", "8"]
    _stdout(capsys, argv + ([] if samples is None else ["--samples", samples]))
    assert len(calls) == (9 if samples is None else int(samples))


def test_benchmark_selftest_passes():
    # the benchmark's own self-test at smoke sizes (about 6 s): every workload end to end
    # and traced, its layer counters, and its checkers against planted wrong outputs
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")   # leave bench/ as it is
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")], cwd=_ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: all checks passed" in proc.stdout
