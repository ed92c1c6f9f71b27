"""Propagator and operator checks for the linearized evolution."""

import math
import re
import warnings

import numpy as np
import pytest

from khlab.core import PerturbationState, TwoPhaseGridField, WaveVector
from khlab.evolution import (
    RK4_STABILITY_LIMIT,
    BoundaryModeState,
    StabilityError,
    _propagators,
    apply_A,
    boundary_dispersion,
    default_rk4_dt,
    evolve_boundary_mode,
    evolve_state,
)
from khlab.eigenmodes import potential_gradient_norm_sq
from khlab.functionals import _r_energy, compute_functionals

from reference_fields import inner_product_L2, x1_vector


# ---------------------------------------------------------------------------
# boundary dispersion
# ---------------------------------------------------------------------------

def test_streamwise_exponent_ignores_fields():
    for a, b in [(0.0, 0.0), (1.0, 2.0), (5.0, 0.1)]:
        assert boundary_dispersion(WaveVector(3, 0), a, b) == 9.0


def test_spanwise_exponent_is_oscillatory():
    # substitution of a pure x2 mode turns the equation into a wave equation
    assert boundary_dispersion(WaveVector(0, 2), 1.0, 1.0) == -4.0


def test_zero_fields_full_growth():
    for k in (WaveVector(1, 5), WaveVector(2, 2)):
        assert boundary_dispersion(k, 0.0, 0.0) == float(k.k1 ** 2)


def test_mixed_mode_threshold():
    # lambda^2 = k1^2 - (a^2+b^2)/2 k2^2 changes sign at the threshold
    k = WaveVector(2, 2)
    assert boundary_dispersion(k, 1.0, 1.0) == 0.0
    assert boundary_dispersion(k, 0.9, 0.9) > 0.0
    assert boundary_dispersion(k, 1.1, 1.1) < 0.0


def test_a_nan_field_is_named_and_an_infinite_one_passes():
    # a NaN field returned nan; an infinite one still gives its non-finite lambda^2
    for a, b, name in ((math.nan, 0.0, "a"), (1.0, math.nan, "b")):
        with pytest.raises(ValueError, match=f"^field strength {name} is NaN$"):
            boundary_dispersion(WaveVector(1, 1), a, b)
    assert boundary_dispersion(WaveVector(1, 1), math.inf, 0.0) == -math.inf


# ---------------------------------------------------------------------------
# boundary mode propagation
# ---------------------------------------------------------------------------

def test_pure_growing_branch():
    k = WaveVector(3, 0)
    s = BoundaryModeState(k, 1.0, 3.0)   # velocity matched to growth rate
    out = evolve_boundary_mode(s, 0.0, 0.0, 0.7)
    assert abs(out.amplitude) == pytest.approx(math.exp(3 * 0.7), rel=1e-13)
    assert abs(out.velocity) == pytest.approx(3 * math.exp(3 * 0.7), rel=1e-13)


def test_neutral_branch_linear_in_time():
    # lambda^2 = 0: amplitude(t) = amplitude + velocity * t
    k = WaveVector(2, 2)
    s = BoundaryModeState(k, 0.5, -0.25)
    out = evolve_boundary_mode(s, 1.0, 1.0, 2.0)
    assert out.amplitude == pytest.approx(0.5 - 0.25 * 2.0, rel=1e-14)
    assert out.velocity == pytest.approx(-0.25, rel=1e-14)


def test_oscillatory_branch_conserves_energy():
    k = WaveVector(0, 3)
    lam_sq = boundary_dispersion(k, 1.0, 0.5)
    w2 = -lam_sq
    s = BoundaryModeState(k, 1.0, 0.3)
    for t in (0.3, 1.7, 4.1):
        out = evolve_boundary_mode(s, 1.0, 0.5, t)
        e = abs(out.velocity) ** 2 + w2 * abs(out.amplitude) ** 2
        assert e == pytest.approx(abs(s.velocity) ** 2 + w2 * abs(s.amplitude) ** 2,
                                  rel=1e-12)


def test_streamwise_exponent_ignores_fields_past_the_float_range():
    # k2 = 0 makes the field term exactly 0, so a field whose square overflows
    # leaves lambda^2 = k1^2 and the mode's evolution bit for bit
    k = WaveVector(1, 0)
    assert boundary_dispersion(k, 1e200, 0.0) == 1.0
    assert boundary_dispersion(k, 1.7e308, 1.7e308) == 1.0
    s = BoundaryModeState(k, 0.5 - 0.25j, 0.1j)
    for stepper, dt in (("exact", None), ("rk4", 1e-3)):
        assert (evolve_boundary_mode(s, 1e200, 0.0, 1.3, stepper, dt)
                == evolve_boundary_mode(s, 0.0, 0.0, 1.3, stepper, dt))


# (k, a, t): streamwise modes, omega = k1 >= 1, and nearly neutral ones at k = (1, 1),
# lambda^2 = 1 - a^2/2 of about 1e-12 and 2.2e-16 (a one ulp below sqrt 2), where
# omega*t << 1 and e^{+/-omega t} both round near 1
NEAR_NEUTRAL_A = (math.sqrt(2.0 - 2e-12), 1.4142135623730949)


@pytest.mark.parametrize("stepper, dt", [("exact", None), ("rk4", 1e-3)])
@pytest.mark.parametrize("k, a, t", [((1, 0), 0.0, 1.0), ((10, 0), 0.0, 3.0), ((50, 0), 0.0, 10.0)]
                         + [((1, 1), a, t) for a in NEAR_NEUTRAL_A for t in (1e-8, 1.0)],
                         ids=lambda v: f"{v[0]},{v[1]}" if isinstance(v, tuple) else f"{v:.17g}")
@pytest.mark.parametrize("branch", ["decaying", "growing", "generic"])
def test_boundary_mode_matches_high_precision(stepper, dt, k, a, t, branch):
    # amp = (w+ mu+ - w- mu-)/(2 omega), vel = (w+ mu+ + w- mu-)/2 with w+/- = vel0 +/-
    # omega amp0 and mu+/- = e^{+/-omega t} (exact) or R(+/-omega h)^m (rk4); on the
    # decaying branch (w+ = 0) the amplitude is e^{-omega t}-sized, e^{-500} at k1 = 50, t = 10
    mpmath = pytest.importorskip("mpmath")
    lam_sq = boundary_dispersion(WaveVector(*k), a, 0.0)
    assert lam_sq > 0
    omega, amp0 = math.sqrt(lam_sq), 1.25 - 0.5j
    vel0 = {"decaying": -omega * amp0, "growing": omega * amp0, "generic": -0.375 + 0.8j}[branch]
    out = evolve_boundary_mode(BoundaryModeState(WaveVector(*k), amp0, vel0), a, 0.0, t, stepper, dt)
    with mpmath.workdps(50):
        om = mpmath.sqrt(mpmath.mpf(lam_sq))
        if stepper == "exact":
            mu = [mpmath.exp(sign * om * mpmath.mpf(t)) for sign in (1, -1)]
        else:
            m = max(1, round(t / dt))
            h = mpmath.mpf(t / m)
            mu = [sum((sign * om * h) ** p / mpmath.factorial(p) for p in range(5)) ** m
                  for sign in (1, -1)]
        w = [mpmath.mpc(vel0) + sign * om * mpmath.mpc(amp0) for sign in (1, -1)]
        amp = (w[0] * mu[0] - w[1] * mu[1]) / (2 * om)
        vel = (w[0] * mu[0] + w[1] * mu[1]) / 2
        for got, ref in ((out.amplitude, amp), (out.velocity, vel)):
            assert abs(got - ref) <= 1e-13 * abs(ref), (got, ref)


def test_time_zero_is_identity():
    s = BoundaryModeState(WaveVector(4, 1), 1.2 + 0.5j, -0.8j)
    out = evolve_boundary_mode(s, 0.3, 0.4, 0.0)
    assert out.amplitude == s.amplitude
    assert out.velocity == s.velocity


def test_boundary_rk4_matches_exact():
    k = WaveVector(4, 0)
    s = BoundaryModeState(k, 1.0, 4.0)
    exact = evolve_boundary_mode(s, 0.0, 0.0, 1.0)
    rk = evolve_boundary_mode(s, 0.0, 0.0, 1.0, stepper="rk4", dt=1e-3)
    assert abs(rk.amplitude - exact.amplitude) / abs(exact.amplitude) < 1e-9


# ---------------------------------------------------------------------------
# operator A
# ---------------------------------------------------------------------------

def test_apply_A_scales_potential_coefficients():
    s = PerturbationState(2, P={3: 1.0 + 0.0j}, g={2: 0.5j})
    out = apply_A(s)
    assert out.P[3] == 9.0 + 0.0j
    assert out.g[2] == 4 * 0.5j


def test_apply_A_zero_state():
    out = apply_A(PerturbationState(4))
    assert out.P == {} and out.L == {} and out.g == {}
    assert out.r is None


def test_apply_A_on_r_single_x2_mode():
    n_tan, n_ver = 16, 8
    m = 3

    def fn(x1, x2, x3):
        return np.cos(m * x2) * (1.0 + 0.0 * x3)

    comp = TwoPhaseGridField.from_function(fn, n_tan, n_ver)
    r = x1_vector(comp)
    s = PerturbationState(2, r=r, r_dot=np.zeros_like(r))
    out = apply_A(s)
    expect = TwoPhaseGridField.from_function(lambda *x: m ** 2 * fn(*x), n_tan, n_ver)
    assert np.max(np.abs(out.r[0] - expect.values)) < 1e-10


def test_r_multiplier_per_phase_weights():
    # || k^(1/2) A^(1/2) r ||^2 weighs the upper phase by a, the lower by b
    n_tan, n_ver = 16, 4
    comp = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(2 * x2) + 0 * x3, n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    upper = TwoPhaseGridField(np.array([comp.values[0], zero.values[1]]))
    lower = TwoPhaseGridField(np.array([zero.values[0], comp.values[1]]))
    for part, weight in ((upper, 3.0), (lower, 5.0)):
        s = PerturbationState(2, r=x1_vector(part))
        expect = (weight * 2.0) ** 2 * inner_product_L2(part, part)
        assert _r_energy(s, 3.0, 5.0) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# full state evolution
# ---------------------------------------------------------------------------

def test_growing_potential_block():
    # velocity matched to the growing branch: amplitude e^{j t} exactly
    j, t = 4, 0.9
    s = PerturbationState(3, P={j: 1.0 + 0.0j}, P_dot={j: float(j)})
    out = evolve_state(s, 0.0, 0.0, t)
    assert abs(out.P[j]) == pytest.approx(math.exp(j * t), rel=1e-13)
    assert abs(out.P_dot[j]) == pytest.approx(j * math.exp(j * t), rel=1e-13)


def test_even_block_oscillates_at_sqrt2():
    j = 3
    omega = math.sqrt(2.0) * j
    s = PerturbationState(5, g={j: 1.0 + 0.0j}, g_dot={j: 0.0j})
    period = 2 * math.pi / omega
    out = evolve_state(s, 0.0, 0.0, period)
    assert out.g[j].real == pytest.approx(1.0, rel=1e-12)
    quarter = evolve_state(s, 0.0, 0.0, period / 4)
    assert abs(quarter.g[j]) < 1e-12


def test_evolution_block_diagonal_support():
    s = PerturbationState(3,
                          P={5: 1.0, 7: 0.5j}, P_dot={5: 0.1},
                          L={2: 1.0}, L_dot={},
                          g={1: 1.0, 4: 2.0}, g_dot={4: 1.0})
    out = evolve_state(s, 0.5, 0.25, 1.3)
    assert set(out.P) == {5, 7}
    assert set(out.L) == {2}
    assert set(out.g) == {1, 4}
    assert out.n_cutoff == 3


def test_hyperbolic_normal_form():
    # (d/dt amp - j amp) decays as e^{-jt}, (d/dt amp + j amp) grows as e^{jt}
    j = 3
    c0, d0 = 0.8 + 0.1j, -0.4 + 0.6j
    s = PerturbationState(2, P={j: c0}, P_dot={j: d0})
    for t in (0.2, 0.5, 1.0):
        out = evolve_state(s, 0.0, 0.0, t)
        grow = out.P_dot[j] + j * out.P[j]
        decay = out.P_dot[j] - j * out.P[j]
        assert grow == pytest.approx((d0 + j * c0) * math.exp(j * t), rel=1e-12)
        assert decay == pytest.approx((d0 - j * c0) * math.exp(-j * t), rel=1e-12)


def test_conserved_quadratic_forms_neutral_blocks():
    # g block: |dc|^2 + 2 j^2 |c|^2 conserved; r block: |dr|^2 + k k2^2 |r|^2
    j = 5
    s = PerturbationState(9, g={j: 1.0 + 2.0j}, g_dot={j: -0.7j})
    e0 = abs(s.g_dot[j]) ** 2 + 2 * j ** 2 * abs(s.g[j]) ** 2
    for t in (0.31, 1.7):
        out = evolve_state(s, 0.0, 0.0, t)
        e = abs(out.g_dot[j]) ** 2 + 2 * j ** 2 * abs(out.g[j]) ** 2
        assert e == pytest.approx(e0, rel=1e-12)

    n_tan, n_ver = 16, 8
    a, b, m = 1.3, 0.6, 2
    comp = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.sin(m * x2) * (1 + 0 * x3), n_tan, n_ver)
    r = x1_vector(comp)
    s = PerturbationState(2, r=r, r_dot=np.zeros_like(r))
    out = evolve_state(s, a, b, 0.77)
    # upper phase oscillates at a*m, lower at b*m; energy per phase conserved
    up0 = comp.values[0]
    up_e = (out.r_dot[0, 0] ** 2 + (a * m) ** 2 * out.r[0, 0] ** 2)
    assert np.allclose(np.mean(up_e), (a * m) ** 2 * np.mean(up0 ** 2), rtol=1e-10)


def test_r_x2_independent_content_moves_linearly():
    n_tan, n_ver = 16, 8
    comp = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(x1) * (1 + 0 * x3), n_tan, n_ver)
    dot = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.sin(x1) * (1 + 0 * x3), n_tan, n_ver)
    s = PerturbationState(2, r=x1_vector(comp), r_dot=x1_vector(dot))
    t = 1.9
    out = evolve_state(s, 2.0, 3.0, t)
    expect = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: (np.cos(x1) + t * np.sin(x1)) * (1 + 0 * x3), n_tan, n_ver)
    assert np.max(np.abs(out.r[0] - expect.values)) < 1e-11
    assert np.max(np.abs(out.r_dot[0] - dot.values)) < 1e-11


def test_rk4_fourth_order_convergence():
    # rk4 vs exact on a single growing mode at t = 1: fitted slope 4 +/- 0.3
    j, t = 5, 1.0
    s = PerturbationState(3, P={j: 1.0 + 0.0j}, P_dot={j: 0.2 + 0.1j})
    exact = evolve_state(s, 0.0, 0.0, t)
    errs = []
    dts = [0.02, 0.01, 0.005, 0.0025]
    for dt in dts:
        rk = evolve_state(s, 0.0, 0.0, t, stepper="rk4", dt=dt)
        errs.append(abs(rk.P[j] - exact.P[j]))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
    assert abs(np.mean(slopes) - 4.0) < 0.3


def test_rk4_stability_rejection():
    s = PerturbationState(2, g={40: 1.0}, g_dot={40: 0.0})
    with pytest.raises(StabilityError):
        evolve_state(s, 0.0, 0.0, 1.0, stepper="rk4", dt=0.1)


def test_rk4_stability_limit_lies_within_2_sqrt_2():
    # classical RK4 multiplies y' = i y by R(iy) = sum (iy)^p / p! for p <= 4, and
    # |R(iy)|^2 = 1 - y^6/72 + y^8/576, at most 1 exactly for y <= 2 sqrt 2 = 2.828...
    for y in np.linspace(0.0, RK4_STABILITY_LIMIT, 201).tolist() + [2.85]:
        R = sum((1j * y) ** p / math.factorial(p) for p in range(5))
        assert abs(R) ** 2 == pytest.approx(1 - y ** 6 / 72 + y ** 8 / 576, rel=1e-14, abs=1e-14)
        assert abs(R) ** 2 <= 1.0 + 1e-15 or y > RK4_STABILITY_LIMIT
    assert 1 - 2.85 ** 6 / 72 + 2.85 ** 8 / 576 > 1.1   # past the limit a step amplifies
    # a g mode oscillates at omega = sqrt(2) j: one step of |omega| h just inside the limit
    # runs, and steps just past it and past 2 sqrt 2 are rejected
    s = PerturbationState(2, g={1: 1.0})
    h = 2.79 / math.sqrt(2.0)
    assert evolve_state(s, 0.0, 0.0, h, stepper="rk4", dt=h).g[1] != 0
    for omega_h in (2.81, 2.85):
        h = omega_h / math.sqrt(2.0)
        with pytest.raises(StabilityError, match=f"{omega_h:.3f} exceeds the limit"):
            evolve_state(s, 0.0, 0.0, h, stepper="rk4", dt=h)


def test_rk4_stability_checks_the_step_taken():
    # dt = 0.01 passes |omega|*dt = 2.7, but t = 0.014 is one step of
    # h = 0.014 with |omega|*h = 3.78, where RK4 amplifies a neutral mode
    s = BoundaryModeState(WaveVector(0, 1), 1.0, 0.0)
    with pytest.raises(StabilityError):
        evolve_boundary_mode(s, 270.0, 270.0, 0.014, stepper="rk4", dt=0.01)
    out = evolve_boundary_mode(s, 270.0, 270.0, 0.014, stepper="rk4", dt=0.005)
    assert abs(out.amplitude) <= 1.0


@pytest.mark.parametrize("stepper, dt, error, message", [
    ("rk4", None, ValueError, "rk4 stepper requires dt"),
    ("rk4", 0.0, StabilityError, "rk4 requires dt > 0"),
    ("rk4", -0.1, StabilityError, "rk4 requires dt > 0"),
    ("euler", 0.1, ValueError, "unknown stepper 'euler'"),
])
def test_propagators_name_a_bad_stepper_or_step(stepper, dt, error, message):
    with pytest.raises(error) as info:
        _propagators(np.array([1.0, -4.0]), 0.5, stepper, dt)
    assert str(info.value) == message


def _literal_rk4(y, v, lam_sq, t, dt):
    """Classical RK4 stage by stage on (y' = v, v' = lam_sq * y)."""
    steps = max(1, round(t / dt))
    h = t / steps
    for _ in range(steps):
        k1y, k1v = v, lam_sq * y
        k2y, k2v = v + 0.5 * h * k1v, lam_sq * (y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, lam_sq * (y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, lam_sq * (y + h * k3y)
        y, v = (y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y),
                v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))
    return y, v


def _reference_rk4_state(s, a, b, t, dt):
    coeffs, r = {}, {}
    for name, dot, sign in (("P", "P_dot", 1.0), ("L", "L_dot", 1.0), ("g", "g_dot", -2.0)):
        c, d = getattr(s, name), getattr(s, dot)
        for j in set(c) | set(d):
            coeffs[name, j] = _literal_rk4(c.get(j, 0j), d.get(j, 0j), sign * j * j, t, dt)
    # r per x2 Fourier mode and phase: k2^2 weighted by a^2 above, b^2 below
    n_tan = s.r.shape[2]
    k2 = np.abs(np.fft.fftfreq(n_tan) * n_tan)[None, :, None]
    for i in range(3):
        for phase, weight in ((0, a), (1, b)):   # upper, lower
            y = np.fft.fft(s.r[i, phase], axis=1)
            v = np.fft.fft(s.r_dot[i, phase], axis=1)
            y, v = _literal_rk4(y, v, -(weight * k2) ** 2, t, dt)
            r[i, phase] = np.fft.ifft(y, axis=1).real, np.fft.ifft(v, axis=1).real
    return coeffs, r


def _mixed_state(seed, n_tan=16, n_ver=6):
    """P, L, g and random r blocks; r3 zero on its interface and wall rows."""
    rng = np.random.default_rng(seed)

    def field(zero_rows=False):
        values = rng.standard_normal((2, n_tan, n_tan, n_ver + 1))
        if zero_rows:
            values[..., [0, -1]] = 0.0
        return values

    return PerturbationState(3, P={4: 1.0 - 0.5j, 6: 0.2j}, P_dot={4: 0.3, 5: -1.0},
                             L={1: 0.7, 2: -0.1j}, L_dot={2: 0.4},
                             g={1: 1.0, 3: 0.5 + 0.5j}, g_dot={3: -0.2, 5: 1.0j},
                             r=np.array([field(), field(), field(True)]),
                             r_dot=np.array([field(), field(), field(True)]))


def _block_values(state):
    """Each block's coefficients, and r per phase (upper a, lower b), as arrays."""
    out = {name: np.array([getattr(state, name)[j] for j in sorted(getattr(state, name))])
           for name in ("P", "L", "g")}
    out["r_upper"], out["r_lower"] = state.r_hat[:, 0], state.r_hat[:, 1]
    return out


def test_default_rk4_dt_reads_every_block():
    # 0.25 / sqrt(max|lambda^2|) over the modes the state holds, at most 0.01: rate j on P
    # and L, sqrt(2) * j on g, and a * k2 above, b * k2 below on the k2 that r stores
    assert default_rk4_dt(PerturbationState(3, P={40: 1.0}), 5.0, 0.0) == 0.25 / 40.0
    assert default_rk4_dt(PerturbationState(3, L={2: 1.0}), 0.0, 0.0) == 0.01
    assert default_rk4_dt(PerturbationState(50, L={40: 1.0}), 5.0, 0.0) == 0.25 / 40.0
    assert default_rk4_dt(PerturbationState(3, g_dot={30: 1.0}), 5.0, 0.0) == 0.25 / math.sqrt(
        2.0 * 30 ** 2)
    assert default_rk4_dt(PerturbationState(3), 0.0, 0.0) == 0.01   # no mode moves
    # no r block: the fields enter nowhere, whatever grid the data came from
    s = PerturbationState(3, P={20: 1.0})
    assert default_rk4_dt(s, 0.0, 0.0) == default_rk4_dt(s, 1.0, 5.0) == 0.01
    assert default_rk4_dt(PerturbationState(3, P={30: 1.0}), 1e300, 1e300) == 0.25 / 30.0
    # a plane r stores k2 = 0 alone, which does not move
    plane = np.ones((2, 16, 1, 7))
    r3 = plane.copy()
    r3[..., [0, -1]] = 0.0
    r = np.array([plane, plane, r3])
    assert default_rk4_dt(PerturbationState(2, r=r), 1e300, 1e300) == 0.01
    # a full-grid r on n_tan = 16 stores k2 up to 8
    mixed = _mixed_state(3)
    dt = default_rk4_dt(mixed, 4.0, 1.0)
    assert dt == 0.25 / 32.0
    assert default_rk4_dt(mixed, 1.0, 4.0) == dt
    evolve_state(mixed, 4.0, 1.0, 0.7, stepper="rk4", dt=dt)   # within the stability limit


def test_default_rk4_dt_names_an_infinite_rate():
    # (a * k2)^2 leaves the float range for a held r block at a = 1e200: one named error
    with pytest.raises(OverflowError) as got:
        default_rk4_dt(_mixed_state(3), 1e200, 0.0)
    assert got.value.args == (
        "rk4 default step: rate sqrt(max|lambda^2|) leaves the float range",)


def test_rk4_observed_order_on_mixed_state():
    # every block, r above and below with a != b, converges at order 4 +/- 0.2
    s = _mixed_state(11)
    a, b, t = 0.9, 0.35, 0.8
    exact = _block_values(evolve_state(s, a, b, t))
    errs = [{k: np.max(np.abs(v - exact[k]))
             for k, v in _block_values(evolve_state(s, a, b, t, stepper="rk4", dt=dt)).items()}
            for dt in (0.02, 0.01, 0.005)]
    for block in exact:
        orders = [math.log2(coarse[block] / fine[block]) for coarse, fine in zip(errs, errs[1:])]
        assert all(abs(p - 4.0) <= 0.2 for p in orders), (block, orders)


def test_evolution_exponents_match_apply_A():
    # y'' = sigma * A y along the exact trajectory: sigma = +1 on P and L,
    # -2 on g, -a^2 on r above and -b^2 below (central difference in time)
    s = _mixed_state(5)
    a, b, t, dt = 0.9, 0.35, 0.6, 1e-3
    before, now, after = (_block_values(evolve_state(s, a, b, t + k * dt)) for k in (-1, 0, 1))
    A_now = _block_values(apply_A(evolve_state(s, a, b, t)))
    sigma = {"P": 1.0, "L": 1.0, "g": -2.0, "r_upper": -a * a, "r_lower": -b * b}
    for block, sig in sigma.items():
        second = (before[block] - 2.0 * now[block] + after[block]) / dt ** 2
        expect = sig * A_now[block]
        assert np.max(np.abs(second - expect)) <= 1e-4 * np.max(np.abs(expect)), block


def test_rk4_propagator_matches_literal_stages():
    s = _mixed_state(3)
    a, b, t = 0.9, 0.35, 0.8
    for dt in (0.02, 0.007):
        got = evolve_state(s, a, b, t, stepper="rk4", dt=dt)
        coeffs, r = _reference_rk4_state(s, a, b, t, dt)
        for (name, j), (y, v) in coeffs.items():
            assert getattr(got, name)[j] == pytest.approx(y, rel=1e-12, abs=0)
            assert getattr(got, name + "_dot")[j] == pytest.approx(v, rel=1e-12, abs=0)
        for (i, phase), (y, v) in r.items():
            assert np.max(np.abs(got.r[i, phase] - y)) <= 1e-12 * np.max(np.abs(y))
            assert np.max(np.abs(got.r_dot[i, phase] - v)) <= 1e-12 * np.max(np.abs(v))


def test_rk4_power_matches_high_precision():
    # the closed-form m-th power of the one-step matrix against the same power
    # from its eigenvalues in 50-digit arithmetic: (C, S) for neutral, nearly
    # neutral and oscillating modes, the eigenvalue powers mu+/- for growing ones
    mpmath = pytest.importorskip("mpmath")
    lams, t = [25.0, 4.0, 1e-12, 0.0, -1e-12, -2.0, -30.0], 0.5
    for m in (1, 100, 10 ** 4, 10 ** 6):
        C, S, mu_plus, mu_minus, mu_diff = _propagators(lams, t, "rk4", t / m)
        growing = iter(zip(mu_plus, mu_minus, mu_diff))
        other = iter(zip(C, S))
        with mpmath.workdps(50):
            h = mpmath.mpf(t / m)
            for lam in lams:
                z = lam * h * h
                c, hs = 1 + z / 2 + z * z / 24, h * (1 + z / 6)
                root = mpmath.sqrt(mpmath.mpc(lam))
                mu_plus, mu_minus = c + hs * root, c - hs * root
                if lam > 0:   # the eigenvalue powers and their difference, each to its own size
                    refs = (mu_plus ** m, mu_minus ** m, mu_plus ** m - mu_minus ** m)
                    for got, ref in zip(next(growing), refs):
                        assert abs(got - ref) <= 1e-14 * abs(ref), (m, lam)
                    continue
                c_got, s_got = next(other)
                if lam == 0.0:
                    C_ref, S_ref = mpmath.mpf(1), m * h
                else:
                    C_ref = mpmath.re((mu_plus ** m + mu_minus ** m) / 2)
                    S_ref = mpmath.re((mu_plus ** m - mu_minus ** m) / (2 * root))
                size = max(abs(mu_plus), abs(mu_minus)) ** m
                assert abs(c_got - C_ref) <= 1e-14 * size, (m, lam)
                assert abs(s_got - S_ref) <= 1e-14 * size * t, (m, lam)
            assert next(growing, None) is None and next(other, None) is None


@pytest.mark.parametrize("stepper, dt", [("exact", None), ("rk4", 0.01)])
@pytest.mark.parametrize("n, t", [(10, 1.0), (50, 2.0), (100, 3.0)])
def test_E1_pair_matches_high_precision(stepper, dt, n, t):
    # E1+/- = |n (d0 +/- n c0) f+/-|^2 ||grad f_n||^2 with f+/- = e^{+/-nt} (exact) or
    # R(+/-nh)^m (rk4, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24): each side to round-off,
    # although E1-/E1+ is about e^{-4nt} (1e-521 at n = 100, t = 3)
    mpmath = pytest.importorskip("mpmath")
    c0, d0 = 1 - 0.25j, 0.3 * n + 0.1j
    out = evolve_state(PerturbationState(2, P={n: c0}, P_dot={n: d0}), 0.0, 0.0, t, stepper, dt)
    rep = compute_functionals(out, [1.0], 0.0, 0.0, t)
    with mpmath.workdps(50):
        if stepper == "exact":
            factors = (mpmath.exp(n * mpmath.mpf(t)), mpmath.exp(-n * mpmath.mpf(t)))
        else:
            m = max(1, round(t / dt))
            h = mpmath.mpf(t / m)
            factors = [sum(z ** k / mpmath.factorial(k) for k in range(5)) ** m
                       for z in (n * h, -n * h)]
        for got, sign, f in zip((rep.E_plus[1.0], rep.E_minus[1.0]), (1, -1), factors):
            w = mpmath.mpc(d0) + sign * n * mpmath.mpc(c0)
            ref = abs(n * w * f) ** 2 * potential_gradient_norm_sq(n)
            assert abs(got - ref) <= 1e-13 * ref, (sign, got, ref)


def test_propagator_overflow_raises():
    s = PerturbationState(2, P={50: 1.0}, P_dot={50: 50.0})
    for stepper, dt in (("exact", None), ("rk4", 0.01)):
        with pytest.raises(OverflowError):
            evolve_state(s, 0.0, 0.0, 15.0, stepper=stepper, dt=dt)
    with pytest.raises(OverflowError):
        evolve_boundary_mode(BoundaryModeState(WaveVector(50, 0), 1.0, 0.0), 0.0, 0.0, 15.0)
    # j t = 710: cosh(710) is finite, but e^{710}, the factor of w+, is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="propagator"):
            evolve_state(s, 0, 0, 14.2)


def test_rk4_r_block_matches_exact():
    n_tan, n_ver = 16, 8
    comp = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(2 * x2) * (1 + 0 * x3), n_tan, n_ver)
    r = x1_vector(comp)
    s = PerturbationState(2, r=r, r_dot=np.zeros_like(r))
    exact = evolve_state(s, 1.0, 0.5, 1.0)
    rk = evolve_state(s, 1.0, 0.5, 1.0, stepper="rk4", dt=0.002)
    assert np.max(np.abs(exact.r[0] - rk.r[0])) < 1e-8


def test_negative_time_rejected():
    s = PerturbationState(2, P={3: 1.0})
    with pytest.raises(ValueError):
        evolve_state(s, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        evolve_boundary_mode(BoundaryModeState(WaveVector(1, 0), 1.0, 0.0),
                             0.0, 0.0, -0.5)


# ---------------------------------------------------------------------------
# the state's public edge
# ---------------------------------------------------------------------------

def test_state_edge_reads_back_its_dicts_and_evolves_by_zero_bit_for_bit():
    # a state stores each family as arrays; the constructor's dicts read back through the six
    # views keyed by Python int with exact zeros left out, and evolving by t = 0 returns the
    # same arrays bit for bit.  Small integer parts keep d +/- j*c, the halving and the
    # division by j exact, so the odd views read back exactly; no part is -0.0, whose sign
    # a complex product by 1.0 does not keep
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part = st.integers(-8, 8)
    value = st.builds(complex, part.map(float), part.map(float)) | part.map(float) | part

    def family(low, high):
        return st.dictionaries(st.integers(low, high), value, max_size=6)

    @st.composite
    def edges(draw):
        n = draw(st.integers(1, 40))
        sides = {"P": (n, 64), "P_dot": (n, 64), "L": (1, n - 1), "L_dot": (1, n - 1),
                 "g": (1, 64), "g_dot": (1, 64)}
        return n, {name: draw(family(*side)) if side[0] <= side[1] else {}
                   for name, side in sides.items()}

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(edges(), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def check(edge, a, b):
        n, given = edge
        state = PerturbationState(n, **given)
        for name, coeffs in given.items():
            view = getattr(state, name)
            assert view == {j: x for j, x in coeffs.items() if x != 0}, name
            assert all(type(j) is int and type(x) is complex for j, x in view.items()), name
        same = evolve_state(state, a, b, 0.0)
        for name in ("j_odd", "w_plus", "w_minus", "j_even", "g_values", "g_dot_values"):
            before, after = getattr(state, name), getattr(same, name)
            assert before.dtype == after.dtype and before.tobytes() == after.tobytes(), name

    check()


@pytest.mark.parametrize("key", [2.5, 2 ** 70, math.nan, "3"],
                         ids=["non-integer", "past-int64", "nan", "string"])
def test_a_coefficient_key_outside_the_int64_integers_is_named(key):
    # 2.5 and 2**70 were accepted as keys of P
    with pytest.raises(ValueError, match=re.escape(
            f"coefficient key {key!r} is not an integer in the int64 range")):
        PerturbationState(2, P={key: 1})
