"""Symbolic oracle: the classical RK4 step for y'' = lambda^2 y, derived from its Butcher tableau.

`evolution._propagators` states the rk4 step in closed form: one step of h is
c*I + h*s*A on (y, y') with A = [[0, 1], [lambda^2, 0]], z = lambda^2 h^2,
c = 1 + z/2 + z^2/24 and s = 1 + z/6, and its eigenvalues mu+/- satisfy
mu+ mu- - 1 = z^3 (8 + z)/576.  Here sympy builds the step stage by stage
from the tableau and checks each of those statements exactly, then holds the
code's propagators to the derived step at sample points.
"""

import math

import numpy as np
import pytest

from khlab.evolution import RK4_STABILITY_LIMIT, _propagators

sp = pytest.importorskip("sympy")

# classical RK4: the stage matrix, then the weights
TABLEAU = ([[0, 0, 0, 0],
            [sp.Rational(1, 2), 0, 0, 0],
            [0, sp.Rational(1, 2), 0, 0],
            [0, 0, 1, 0]],
           [sp.Rational(1, 6), sp.Rational(1, 3), sp.Rational(1, 3), sp.Rational(1, 6)])

lam, h = sp.symbols("lambda h", positive=True)
lam_sq, y = sp.symbols("lambda_sq y", real=True)
z = lam ** 2 * h ** 2
C_RK4 = 1 + z / 2 + z ** 2 / 24
S_RK4 = 1 + z / 6


def _rk4_step_matrix(F, step):
    """The matrix M with Y_new = M Y of one RK4 step of Y' = F Y, from the tableau's stages."""
    a, b = TABLEAU
    identity = sp.eye(F.shape[0])
    stages = []
    for row in a:
        stages.append(F * (identity + step * sum((a_ij * k for a_ij, k in zip(row, stages)),
                                                 sp.zeros(*F.shape))))
    return sp.expand(identity + step * sum((b_i * k for b_i, k in zip(b, stages)),
                                           sp.zeros(*F.shape)))


# the step for any real lambda^2, and for lambda^2 > 0 written through lambda
STEP_ANY = _rk4_step_matrix(sp.Matrix([[0, 1], [lam_sq, 0]]), h)
A = sp.Matrix([[0, 1], [lam ** 2, 0]])
STEP = STEP_ANY.subs(lam_sq, lam ** 2)


def test_rk4_step_matrix_is_c_identity_plus_h_s_A():
    assert sp.expand(STEP - (C_RK4 * sp.eye(2) + h * S_RK4 * A)) == sp.zeros(2, 2)


def test_rk4_eigenvalue_product_identity():
    # mu+/- = c +/- h*s*lambda are the eigenvalues of the step; _propagators' growth scale
    # reads mu+ mu- - 1 = c^2 - z s^2 - 1 in this closed form
    mu_plus, mu_minus = C_RK4 + h * S_RK4 * lam, C_RK4 - h * S_RK4 * lam
    assert set(STEP.eigenvals()) == {sp.expand(mu_plus), sp.expand(mu_minus)}
    assert sp.expand(mu_plus * mu_minus - 1 - z ** 3 * (8 + z) / 576) == 0


def test_rk4_imaginary_axis_gain_and_the_stability_limit():
    # the scalar step y' = i*omega*y multiplies y by R(i y), y = omega*h
    R = _rk4_step_matrix(sp.Matrix([[sp.I * y / h]]), h)[0, 0]
    gain_sq = sp.expand(R * sp.conjugate(R))
    assert sp.expand(gain_sq - (1 - y ** 6 / 72 + y ** 8 / 576)) == 0
    # |R(iy)|^2 - 1 = y^6 (y^2 - 8)/576: at most 1 exactly when y^2 <= 8
    assert sp.factor(gain_sq - 1) == y ** 6 * (y ** 2 - 8) / 576
    assert sp.solve_univariate_inequality(gain_sq <= 1, y, relational=False) \
        == sp.Interval(-2 * sp.sqrt(2), 2 * sp.sqrt(2))
    assert sp.Rational(RK4_STABILITY_LIMIT) ** 2 < 8


@pytest.mark.parametrize("value, step", [(4.0, 0.3), (-4.0, 0.3), (1.0, 0.01),
                                         (-2.0, 2.7 / math.sqrt(2.0)), (50.0, 0.05)])
def test_propagators_take_the_derived_step(value, step):
    # one rk4 step of the code against the derived matrix at the same lambda^2 and h:
    # C and S on an oscillatory entry, mu+/- on a growing one
    C, S, mu_plus, mu_minus, _ = _propagators(np.array([value]), step, "rk4", step)
    M = STEP_ANY.subs({lam_sq: sp.Float(value, 30), h: sp.Float(step, 30)})
    c, hs = float(M[0, 0]), float(M[0, 1])
    if value > 0:
        omega = math.sqrt(value)
        assert mu_plus[0] == pytest.approx(c + hs * omega, rel=1e-14)
        assert mu_minus[0] == pytest.approx(c - hs * omega, rel=1e-13, abs=1e-15)
    else:
        assert C[0] == pytest.approx(c, rel=1e-13, abs=1e-15)
        assert S[0] == pytest.approx(hs, rel=1e-13)
