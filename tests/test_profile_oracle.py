"""The closed-form vertical profiles against 50-digit mpmath values of their closed forms.

Every profile is checked on both phases at kappa from 1 to 1e5, far past the
kappa = 709.78 where e^kappa leaves the float range, through the float and the
array path of its evaluation.  The error bound is ORACLE_ULPS units of roundoff
times |b_plus| + |b_minus| of the phase: the size of a pair's largest term,
which no value of an anchored pair exceeds.
"""

import math

import numpy as np
import pytest

from khlab.core import WaveVector
from khlab.eigenmodes import (
    build_harmonic_potentials,
    build_wall_bounded_profiles,
    potential_gradient_norm_sq,
)
from khlab.pressure import solve_mode_interface_flux

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

KAPPAS = (1, 30, 700, 2000, 100000)
ORACLE_ULPS = 4
EPS = 2.0 ** -52
# pressure jump data and a slip whose product with every k1 above is exact
VALUE_JUMP, FLUX_JUMP, DRIFT = 0.7 - 0.2j, -1.3 + 0.4j, 0.375


def _samples(kappa):
    """Upper-phase x3 in [0, 1]: the ends, a few 1/kappa from each end, and the middle."""
    near = [c / kappa for c in (0.25, 1.0, 4.0)]
    xs = {0.0, 0.1, 0.5, 0.9, 1.0, *near, *(1.0 - x for x in near)}
    return sorted(x for x in xs if 0.0 <= x <= 1.0)


def _closed_forms(kappa):
    """name -> (profile, upper(X), lower(X)) with X an mpf; the closed forms in mpmath."""
    K = mp.mpf(kappa)
    sh = mp.sinh(K)
    W, V = build_wall_bounded_profiles(WaveVector(kappa, 0))
    f, g = build_harmonic_potentials(kappa)
    # Neumann walls: q = A cosh(K (x3 - 1)) above and B cosh(K (x3 + 1)) below, with
    # A - B phi = g1 / cosh K and A + B phi = -g2 / (K sinh K), phi = e^{i k1 drift}
    g1, g2 = mp.mpc(VALUE_JUMP), mp.mpc(FLUX_JUMP)
    A = (g1 / mp.cosh(K) - g2 / (K * sh)) / 2
    B = mp.expj(-K * mp.mpf(DRIFT)) * (-g1 / mp.cosh(K) - g2 / (K * sh)) / 2
    q_up, q_lo = solve_mode_interface_flux(WaveVector(kappa, 0), VALUE_JUMP, FLUX_JUMP, DRIFT)
    return {
        "W": (W, lambda X: mp.sinh(K * (1 - X)) / sh, lambda X: mp.sinh(K * (1 + X)) / sh),
        "V": (V, lambda X: -1j * mp.cosh(K * (1 - X)) / sh,
              lambda X: 1j * mp.cosh(K * (1 + X)) / sh),
        "f": (f, lambda X: -mp.cosh(K * (1 - X)) / sh, lambda X: mp.cosh(K * (1 + X)) / sh),
        "g": (g, lambda X: mp.cosh(K * (1 - X)) / sh, lambda X: mp.cosh(K * (1 + X)) / sh),
        "q_upper": (q_up, lambda X: A * mp.cosh(K * (X - 1)), lambda X: 0),
        "q_lower": (q_lo, lambda X: 0, lambda X: B * mp.cosh(K * (X + 1))),
    }


def _worst_error(kappa):
    """name -> the largest error of a profile, in units of roundoff times |b_plus| + |b_minus|."""
    worst = {}
    with mp.workdps(50):
        for name, (profile, upper, lower) in _closed_forms(kappa).items():
            up = _samples(kappa)
            lo = [-x for x in up]
            for xs, pair, evaluate, exact in ((up, profile.upper, profile.eval_upper, upper),
                                              (lo, profile.lower, profile.eval_lower, lower)):
                size = abs(pair[0]) + abs(pair[1])
                array = evaluate(np.array(xs))
                for x3, from_array in zip(xs, array):
                    want = exact(mp.mpf(x3))
                    for got in (evaluate(x3), from_array):
                        # a phase with a zero pair (one side of a pressure solve) reads 0
                        assert np.isfinite(got) and abs(got) <= size * (1.0 + 4 * EPS)
                        if size:
                            err = float(abs(mp.mpc(complex(got)) - want)) / (EPS * size)
                            worst[name] = max(worst.get(name, 0.0), err)
    return worst


@pytest.mark.parametrize("kappa", KAPPAS)
def test_profiles_match_their_closed_forms_to_roundoff(kappa):
    worst = _worst_error(kappa)
    assert sorted(worst) == ["V", "W", "f", "g", "q_lower", "q_upper"]
    assert max(worst.values()) <= ORACLE_ULPS, worst


@pytest.mark.parametrize("j", KAPPAS)
def test_potential_gradient_norm_matches_coth(j):
    # ||grad f_j||^2 = 4 pi^2 j coth j, with coth written as (1 + e^{-2j}) / (1 - e^{-2j})
    with mp.workdps(50):
        want = 4 * mp.pi ** 2 * j * mp.coth(j)
        got = potential_gradient_norm_sq(j)
        assert abs(mp.mpf(got) - want) <= 4 * EPS * want
    assert math.isfinite(got)
