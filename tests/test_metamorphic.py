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
from khlab.core import TWO_PI
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


def test_transverse_field_leaves_streamwise_data_unchanged_property(capsys):
    # the paper's statement under both steppers at their default step: for any a, b in
    # [0, 1.7e308] the streamwise seed prints the rows of a = b = 0
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = st.floats(0.0, 1.7e308)
    grids = st.sampled_from([8, 16, 32]).flatmap(
        lambda n_tan: st.tuples(st.just(n_tan), st.integers(1, n_tan // 2 - 1)))
    unmagnetised = {}

    def rows(command, stepper, n_tan, n, a, b):
        rc = main(["--command", command, "--stepper", stepper, "--n", str(n),
                   "--n_tan", str(n_tan), "--n_ver", "8", "--samples", "3",
                   "--a", repr(a), "--b", repr(b)])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "", (command, stepper, n_tan, n, a, b, err)
        return _data(command, out)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(command=st.sampled_from(["evolve", "functionals", "illposedness"]),
                      stepper=st.sampled_from(["exact", "rk4"]), grid=grids, a=field, b=field)
    def check(command, stepper, grid, a, b):
        key = (command, stepper, *grid)
        if key not in unmagnetised:
            unmagnetised[key] = rows(*key, 0.0, 0.0)
        assert rows(*key, a, b) == unmagnetised[key], (key, a, b)

    check()


@pytest.mark.parametrize("shift", [1, 3])
def test_translation_along_x1_turns_the_coefficients(shift):
    # rolling the data by `shift` points along x1 multiplies mode n by e^{-i n shift h}
    n, n_tan, n_ver, a, b = 5, 32, 16, 0.7, 1.3
    pair = perturbed_initial_data(n, n_tan=n_tan, n_ver=n_ver)
    rolled = [np.roll(vec, shift, axis=2) for vec in pair]
    base, moved = (decompose_perturbation(*p, n) for p in (pair, rolled))
    turn = cmath.exp(-1j * n * shift * TWO_PI / n_tan)
    assert set(moved.P_dot) == set(base.P_dot) == {n}
    assert abs(moved.P_dot[n] - turn * base.P_dot[n]) <= 1e-15 * abs(base.P_dot[n])
    for t in (0.0, 0.5, 1.0):
        f0, f1 = (compute_functionals(evolve_state(s, a, b, t), [1.0], a, b, t)
                  for s in (base, moved))
        assert f1.E_plus[1.0] == pytest.approx(f0.E_plus[1.0], rel=1e-14, abs=0)
        assert f1.E_minus[1.0] == pytest.approx(f0.E_minus[1.0], rel=1e-14, abs=0)
        assert (f1.G, f1.F) == (f0.G, f0.F)


# at k2 = 0 the field enters neither the growth rate nor the interface exponent, for any
# field the parser accepts; the Syrovatskij flags depend on it by definition
K2_ZERO_FIELDS = [("0", "0"), ("3", "0.5"), ("1.4e154", "2"), ("1e300", "1e300"),
                  ("1.7e308", "1.7e308")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("k", ["1,0", "-7,0"])
def test_transverse_field_leaves_streamwise_dispersion_unchanged(capsys, fmt, k):
    kept = []
    for a, b in K2_ZERO_FIELDS:
        rc = main(["--command", "dispersion", "--k", k, "--a", a, "--b", b, "--format", fmt])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "", (a, b, err)
        if fmt == "json":
            row = json.loads(out)["data"]
        else:
            header, values = [line for line in out.splitlines() if not line.startswith("#")]
            row = dict(zip(header.split(","), values.split(",")))
        kept.append([row[key] for key in ("gamma_squared", "lambda_squared", "growing")])
    assert "nan" not in kept[0]
    assert all(row == kept[0] for row in kept[1:]), kept


def test_transverse_field_leaves_streamwise_map_unchanged(capsys):
    rc = main(["--command", "map", "--k", "3,0", "--a_max", "1.7e308", "--b_max", "1.7e308",
               "--a_steps", "4", "--b_steps", "4"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    cells = [[row[header.index(key)] for key in ("gamma_squared", "growing")] for row in rows]
    assert len(cells) == 16 and cells[0] == ["9", "true"]
    assert all(cell == cells[0] for cell in cells)
