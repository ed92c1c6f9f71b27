"""Metamorphic relations of the whole pipeline: initial data, decomposition,
evolution, functionals and certificate.

A relation compares two runs whose inputs differ by a known transformation,
so it needs no reference values (Chen et al., "Metamorphic Testing: A Review
of Challenges and Opportunities", ACM Comput. Surv. 51, 2018).
"""

import cmath
import json

import numpy as np
import pytest

from khlab.cli import main
from khlab.core import TWO_PI, TwoPhaseGridField
from khlab.evolution import evolve_state
from khlab.functionals import compute_functionals, decompose_perturbation, perturbed_initial_data

# the streamwise growth is uninfluenced by a transverse field, up to fields
# whose k2 frequencies (a k2)^2 would leave the float range
FIELDS = [("0", "0"), ("3", "0.5"), ("1e160", "2"), ("1e300", "1e300")]


def _data(command, out):
    if command == "evolve":
        return [line for line in out.splitlines() if line and not line.startswith("#")]
    return json.loads(out)["data"]


@pytest.mark.parametrize("command", ["evolve", "functionals", "illposedness"])
def test_transverse_field_leaves_streamwise_data_unchanged(capsys, command):
    # the certificate's k2 = 0 data decompose to a plane, so the exact stepper gives
    # the same rows for any a, b >= 0
    data = []
    for a, b in FIELDS:
        rc = main(["--command", command, "--n", "8", "--n_tan", "32", "--n_ver", "16",
                   "--a", a, "--b", b])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "", (a, b, err)
        data.append(_data(command, out))
    assert data[0]
    assert all(d == data[0] for d in data[1:])


@pytest.mark.parametrize("shift", [1, 3])
def test_translation_along_x1_turns_the_coefficients(shift):
    # rolling the data by `shift` points along x1 multiplies mode n by e^{-i n shift h}
    n, n_tan, n_ver, a, b = 5, 32, 16, 0.7, 1.3
    pair = perturbed_initial_data(n, n_tan=n_tan, n_ver=n_ver)
    rolled = [tuple(TwoPhaseGridField(np.roll(c.values, shift, axis=1)) for c in vec)
              for vec in pair]
    base, moved = (decompose_perturbation(*p, n) for p in (pair, rolled))
    turn = cmath.exp(-1j * n * shift * TWO_PI / n_tan)
    assert set(moved.P_dot) == set(base.P_dot) == {n}
    assert abs(moved.P_dot[n] - turn * base.P_dot[n]) <= 1e-15 * abs(base.P_dot[n])
    for t in (0.0, 0.5, 1.0):
        f0, f1 = (compute_functionals(evolve_state(s, a, b, t), [1.0], a, b, t)
                  for s in (base, moved))
        assert f1.E_plus[1.0] == pytest.approx(f0.E_plus[1.0], rel=1e-14, abs=0)
        # E1- is a difference of two e^{n t}-sized terms, so its relative error grows
        # like e^{2 n t} * eps: 3.6e-12 measured at n = 5, t = 1
        assert f1.E_minus[1.0] == pytest.approx(f0.E_minus[1.0], rel=1e-10, abs=0)
        assert (f1.G, f1.F) == (f0.G, f0.F)
