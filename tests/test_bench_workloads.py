"""Every benchmark workload runs and passes its own checker.

bench/workloads.py holds the invocations the benchmark times and the checks
that hold their outputs to the paper; a change that makes one fail would
otherwise show only when the benchmark runs.  Each invocation, and the
exact-stepper reference of the rk4 series, runs in process at full size for
the default and the held-out seed.
"""

import importlib.util
import os
import sys

import pytest

from khlab.cli import main

_WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "workloads.py")


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


@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_invocation_passes_its_check(capsys, workloads, seed):
    for name in workloads.WORKLOADS:
        for inv in workloads.invocations(name, seed):
            reference = None if inv.reference is None else _stdout(capsys, inv.reference)
            assert inv.check(_stdout(capsys, inv.argv), reference) == [], (name, inv.argv)
