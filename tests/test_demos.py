"""Each demo script runs to completion and prints the same bytes twice."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_reruns_byte_identically(demo):
    first = _run(demo)
    assert first.returncode == 0, first.stderr.decode()
    assert first.stdout.strip()
    second = _run(demo)
    assert second.returncode == 0, second.stderr.decode()
    assert second.stdout == first.stdout
