"""Two-phase pressure solver checks: analytic mode solve vs FD oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from khlab import pressure
from khlab.core import (
    GridMismatchError,
    TwoPhaseGridField,
    WaveVector,
    _vertical_weights,
)
from khlab.pressure import (
    SolvabilityError,
    _apply_mode_rows,
    fitted_convergence_order,
    mode_solver_fd_error,
    pressure_decomposition,
    solve_mode_interface_flux,
    solve_two_phase_poisson_fd,
)

COTH1 = 1.3130352854993312  # coth(1)


# ---------------------------------------------------------------------------
# analytic per-mode solver
# ---------------------------------------------------------------------------

def test_zero_data_zero_solution():
    q_up, q_lo = solve_mode_interface_flux(WaveVector(2, 0))
    x = np.linspace(-1, 1, 21)
    assert np.max(np.abs(q_up.eval(np.abs(x)))) == 0.0
    assert np.max(np.abs(q_lo.eval(-np.abs(x)))) == 0.0


def test_unit_flux_interface_value():
    # per-phase flux D = 1 corresponds to a full jump of 2; then
    # q+(0) = -cosh(1)/sinh(1)
    q_up, q_lo = solve_mode_interface_flux(WaveVector(1, 0), value_jump=0.0, flux_jump=2.0)
    assert complex(q_up.eval_upper(0.0)).real == pytest.approx(-COTH1, rel=1e-14)
    d_up = q_up.derivative()
    assert complex(d_up.eval_upper(0.0)).real == pytest.approx(1.0, rel=1e-14)
    # the lower phase carries the other half of the jump
    assert complex(q_lo.derivative().eval_lower(0.0)).real == pytest.approx(-1.0, rel=1e-14)


def test_wall_neumann_built_into_ansatz():
    for kappa_k in (WaveVector(1, 0), WaveVector(4, 3), WaveVector(30, 0)):
        q_up, q_lo = solve_mode_interface_flux(kappa_k, value_jump=0.4, flux_jump=-2.3)
        assert abs(q_up.derivative().eval_upper(1.0)) < 1e-13
        assert abs(q_lo.derivative().eval_lower(-1.0)) < 1e-13


def test_prescribed_jumps_are_met():
    q_up, q_lo = solve_mode_interface_flux(WaveVector(3, 0), value_jump=1.25, flux_jump=-0.75)
    val_jump = complex(q_up.eval_upper(0.0)) - complex(q_lo.eval_lower(0.0))
    flux_jump = (complex(q_up.derivative().eval_upper(0.0))
                 - complex(q_lo.derivative().eval_lower(0.0)))
    assert val_jump.real == pytest.approx(1.25, rel=1e-13)
    assert flux_jump.real == pytest.approx(-0.75, rel=1e-13)


def test_reflection_symmetry_pure_flux():
    # q_lower(x3) = q_upper(-x3) for flux-only data without drift
    q_up, q_lo = solve_mode_interface_flux(WaveVector(2, 0), flux_jump=3.0)
    x = np.linspace(0.0, 1.0, 13)
    assert np.allclose(q_lo.eval_lower(-x), q_up.eval_upper(x), rtol=1e-14)


def test_reflection_with_slip_shift():
    # q_lower evaluated at x1 + drift matches q_upper at x1: the lower
    # amplitude carries exp(-i k1 drift)
    k = WaveVector(2, 0)
    drift = 0.37
    q_up0, q_lo0 = solve_mode_interface_flux(k, flux_jump=3.0)
    q_up, q_lo = solve_mode_interface_flux(k, flux_jump=3.0, drift=drift)
    x = np.linspace(0.0, 1.0, 7)
    shift = np.exp(1j * k.k1 * drift)
    assert np.allclose(q_lo.eval_lower(-x) * shift, q_up.eval_upper(x), rtol=1e-13)
    assert np.allclose(q_up.eval_upper(x), q_up0.eval_upper(x), rtol=1e-14)
    assert np.allclose(q_lo0.eval_lower(-x), q_lo.eval_lower(-x) * shift, rtol=1e-13)


def test_mode_solver_linearity():
    k = WaveVector(2, 0)
    x = np.linspace(-1, 1, 9)
    q1 = solve_mode_interface_flux(k, value_jump=0.5, flux_jump=1.0)
    q2 = solve_mode_interface_flux(k, value_jump=-1.0, flux_jump=2.5)
    qc = solve_mode_interface_flux(k, value_jump=0.5 + 2 * -1.0, flux_jump=1.0 + 2 * 2.5)
    for i, side in ((0, 1.0), (1, -1.0)):
        got = qc[i].eval(side * np.abs(x))
        expect = q1[i].eval(side * np.abs(x)) + 2 * q2[i].eval(side * np.abs(x))
        assert np.allclose(got, expect, rtol=1e-13)


def test_kappa_zero_mode_is_solvability_error():
    with pytest.raises(SolvabilityError):
        solve_mode_interface_flux(WaveVector(0, 0), flux_jump=1.0)


def test_mode_solver_rejects_non_finite_jumps():
    # a non-finite drift once gave a lower profile of NaN
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 0.0)):
        for name in ("value_jump", "flux_jump", "drift"):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                solve_mode_interface_flux(WaveVector(1, 0), **{name: bad})


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_zero_data():
    source = TwoPhaseGridField.zeros(8, 8)
    q = solve_two_phase_poisson_fd(source)
    assert q.max_abs() < 1e-12


def test_fd_matches_analytic_mode_with_second_order():
    # mesh refinement against the analytic solution: error ratio ~ 4, on the streamwise
    # line and off it, where k2 != 0 takes the full-grid branch of the ladder
    for k in ((1, 0), (2, 1), (1, 3)):
        errs = [mode_solver_fd_error(WaveVector(*k), 1.0, n, n) for n in (16, 32, 64)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25), k
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25), k
        order = fitted_convergence_order(errs)
        assert abs(order - 2.0) < 0.2, k


def test_fitted_order_is_the_least_squares_slope():
    # the closed form against numpy's least-squares line through (log h, log error)
    rng = np.random.default_rng(25)
    for _ in range(200):
        errors = 10.0 ** rng.uniform(-14.0, 2.0, size=rng.integers(2, 7))
        logs_h = -np.arange(errors.size) * math.log(2.0)
        expected = np.polyfit(logs_h, np.log(errors), 1)[0]
        assert fitted_convergence_order(errors) == pytest.approx(expected, rel=1e-13, abs=1e-13)
    assert fitted_convergence_order([4.0, 1.0]) == pytest.approx(2.0, rel=1e-15)
    assert fitted_convergence_order([2.0 ** k for k in range(-5, 1)]) == pytest.approx(-1.0, rel=1e-15)
    with pytest.raises(ValueError, match="at least two errors"):
        fitted_convergence_order([1e-3])
    for bad in ([1e-3, 0.0], [1e-3, -1e-4, 1e-5]):
        with pytest.raises(ValueError, match="must be positive"):
            fitted_convergence_order(bad)
    for bad in ([1e-3, math.inf], [1e-3, math.nan]):
        with pytest.raises(ValueError, match="must be finite"):
            fitted_convergence_order(bad)


def test_fd_manufactured_harmonic_solution():
    # q* = cos(x1) cosh(x3 - 1) above, reflected below: harmonic with
    # matching flux jump -2 sinh(1) cos(x1); the oracle recovers it at O(h^2)
    errs = []
    for n in (16, 32):
        x = 2 * math.pi * np.arange(n) / n
        fj = -2.0 * math.sinh(1.0) * np.cos(x)[:, None] * np.ones((1, n))
        source = TwoPhaseGridField.zeros(n, n)
        q = solve_two_phase_poisson_fd(source, flux_jump=fj)
        zu = np.linspace(0, 1, n + 1)
        zl = np.linspace(-1, 0, n + 1)
        exact = np.cos(x)[:, None, None] * np.cosh([zu - 1, zl + 1])[:, None, None, :]
        err = np.max(np.abs(q.values - exact))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_fd_manufactured_solution_with_source():
    # q* = cos(x1) cosh(2(x3 -/+ 1)) has Neumann walls and source
    # 3 cos(x1) cosh(2(x3 -/+ 1)); jumps follow from the closed form
    errs = []
    for n in (16, 32):
        x = 2 * math.pi * np.arange(n) / n
        cosx = np.cos(x)[:, None, None] * np.ones((1, n, 1))
        zu = np.linspace(0, 1, n + 1)
        zl = np.linspace(-1, 0, n + 1)
        up_prof = np.cosh(2 * (zu - 1))
        lo_prof = np.cosh(2 * (zl + 1))
        exact = np.array([cosx * up_prof[None, None, :], cosx * lo_prof[None, None, :]])
        source = TwoPhaseGridField(3.0 * exact)
        vj = np.zeros((n, n))
        fj = (2 * math.sinh(-2.0) - 2 * math.sinh(2.0)) * np.cos(x)[:, None] * np.ones((1, n))
        q = solve_two_phase_poisson_fd(source, value_jump=vj, flux_jump=fj)
        err = np.max(np.abs(q.values - exact))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_fd_with_slip_shift_matches_analytic():
    # both routes couple the interface at x1 + drift via the same phase
    k = WaveVector(2, 0)
    drift = 0.4
    q_up, q_lo = solve_mode_interface_flux(k, flux_jump=1.0, drift=drift)
    n = 32
    x = 2 * math.pi * np.arange(n) / n
    phase = np.exp(1j * k.k1 * x)[:, None, None]
    zu = np.linspace(0, 1, n + 1)
    zl = np.linspace(-1, 0, n + 1)
    exact_up = np.real(phase * q_up.eval_upper(zu)[None, None, :]) * np.ones((1, n, 1))
    exact_lo = np.real(phase * q_lo.eval_lower(zl)[None, None, :]) * np.ones((1, n, 1))
    fj = np.cos(k.k1 * x)[:, None] * np.ones((1, n))
    fd = solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(n, n),
                                    flux_jump=fj, drift=drift)
    err = np.max(np.abs(fd.values - np.array([exact_up, exact_lo])))
    assert err < 5e-3   # second-order discretization error at n = 32


def test_fd_solution_linearity():
    rng = np.random.default_rng(41)
    n = 16

    def smooth_field():
        f = TwoPhaseGridField.zeros(n, n)
        x = 2 * math.pi * np.arange(n) / n
        zu = np.linspace(0, 1, n + 1)
        zl = np.linspace(-1, 0, n + 1)
        for _ in range(3):
            k1, k2 = rng.integers(-3, 4, 2)
            amp = rng.standard_normal()
            tang = np.cos(k1 * x)[:, None, None] * np.cos(k2 * x)[None, :, None]
            vert = 1 + np.array([zu, zl])[:, None, None] ** 2
            f = TwoPhaseGridField(f.values + amp * tang * vert)
        return f

    def smooth_trace():
        x = 2 * math.pi * np.arange(n) / n
        k1, k2 = rng.integers(-3, 4, 2)
        return np.cos(k1 * x)[:, None] * np.cos(k2 * x)[None, :] * rng.standard_normal()

    s1, s2 = smooth_field(), smooth_field()
    m1, m2 = smooth_trace(), smooth_trace()
    q1 = solve_two_phase_poisson_fd(s1, flux_jump=m1)
    q2 = solve_two_phase_poisson_fd(s2, flux_jump=m2)

    def combine(f, g):   # f + g/2, value by value
        return TwoPhaseGridField(f.values + 0.5 * g.values)

    qc = solve_two_phase_poisson_fd(combine(s1, s2), flux_jump=m1 + 0.5 * m2)
    diff = qc.values - combine(q1, q2).values
    assert np.max(np.abs(diff)) < 1e-10


def test_fd_zero_mean_gauge():
    n = 16
    x = 2 * math.pi * np.arange(n) / n
    fj = np.cos(x)[:, None] * np.ones((1, n))
    q = solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(n, n), flux_jump=fj)
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    total = (np.sum(q.values[0] * w / n) + np.sum(q.values[1] * w / n))
    assert abs(total) / q.max_abs() < 1e-10


def test_fd_incompatible_neumann_data():
    # constant source with zero jumps violates the compatibility relation
    for n, drift in ((8, 0.0), (9, 0.4)):
        source = TwoPhaseGridField(np.ones((2, n, n, n + 1)))
        with pytest.raises(SolvabilityError, match="zero mode"):
            solve_two_phase_poisson_fd(source, drift=drift)


def _corrupting(monkeypatch, column):
    """Make _solve_modes return its solution with one mode column shifted by 1."""
    solve_modes = pressure._solve_modes

    def corrupted(b, h, lam, phi):
        z = solve_modes(b, h, lam, phi)
        z[:, column] += 1.0
        return z

    monkeypatch.setattr(pressure, "_solve_modes", corrupted)


@pytest.mark.parametrize("n2, column, mode", [
    (1, 5, "(5,0)"),          # a plane: column i1
    (16, 3, "(0,3)"),         # a full grid: column i1 * n_tan + i2
    (16, 13, "(0,-3)"),       # i2 past the Nyquist index is a negative k2
    (16, 2 * 16 + 1, "(2,1)"),
])
def test_fd_names_a_nonzero_mode_that_fails_its_residual(monkeypatch, n2, column, mode):
    _corrupting(monkeypatch, column)
    n = 16
    with pytest.raises(pressure.PressureSolverError) as info:
        solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(n, n, n2))
    assert type(info.value) is pressure.PressureSolverError
    assert info.value.args[0].startswith(f"mode {mode} residual ")
    assert info.value.args[0].endswith(" exceeds 1e-10")


def test_pressure_command_reports_a_failed_mode_as_a_solver_failure(monkeypatch, capsys):
    from khlab.cli import main

    _corrupting(monkeypatch, 1)
    assert main(["--command", "pressure"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("khlab: solver failure: mode (1,0) residual ")
    assert len(err.splitlines()) == 1 and err.endswith(" exceeds 1e-10\n")


def test_fd_requires_minimum_resolution():
    with pytest.raises(ValueError):
        solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(4, 8))


def test_fd_rejects_non_finite_data():
    n = 8
    bad_source = TwoPhaseGridField.zeros(n, n)
    bad_source.values[1, 2, 3, 4] = np.nan
    bad_trace = np.zeros((n, n))
    bad_trace[1, 5] = np.inf
    for kwargs in ({"source": bad_source},
                   {"source": TwoPhaseGridField.zeros(n, n), "value_jump": bad_trace},
                   {"source": TwoPhaseGridField.zeros(n, n), "flux_jump": bad_trace},
                   # drift=inf emitted RuntimeWarnings, then claimed incompatible data
                   {"source": TwoPhaseGridField.zeros(n, n), "drift": np.inf},
                   {"source": TwoPhaseGridField.zeros(n, n), "drift": np.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            solve_two_phase_poisson_fd(**kwargs)


@pytest.mark.parametrize("which", ["source", "flux_jump"])
def test_fd_names_an_overflowing_right_hand_side(which):
    # zero-mean data 1e308 * cos(x1) are compatible, but the forward transform's sums leave
    # the float range: that emitted RuntimeWarnings (errors here, as every warning in this
    # suite) and then raised SolvabilityError("incompatible pure-Neumann data")
    n = 8
    source = TwoPhaseGridField.zeros(n, n)
    trace = np.zeros((n, n))
    wave = 1e308 * np.cos(2.0 * math.pi * np.arange(n) / n)[:, None]
    if which == "source":
        source.values[:, :, :, 1:-1] = wave[..., None]
    else:
        trace[...] = wave
    with pytest.raises(OverflowError, match="^the transformed source and jumps leave the float "
                                            "range$"):
        solve_two_phase_poisson_fd(source, flux_jump=trace)


def _dense_reference_fd(source, value_jump, flux_jump, drift):
    """Per-mode np.linalg.solve on the dense operator.

    The singular zero mode is solved with the operator bordered by the
    trapezoid weights, [[A, w], [w^T, 0]], which imposes zero volume mean;
    its data must be compatible.
    """
    n, N = source.n_tan, source.n_ver
    h = source.h_ver
    up_hat, lo_hat = np.fft.fft2(source.values, axes=(1, 2)) / n ** 2
    vj_hat = np.fft.fft2(value_jump) / n ** 2
    fj_hat = np.fft.fft2(flux_jump) / n ** 2
    freqs = np.rint(np.fft.fftfreq(n) * n).astype(int)
    h_tan = source.h_tan
    sym = -4.0 * np.sin(0.5 * freqs * h_tan) ** 2 / h_tan ** 2
    sol_up = np.zeros_like(up_hat)
    sol_lo = np.zeros_like(lo_hat)
    w = np.tile(_vertical_weights(N), 2)
    for i1 in range(n):
        for i2 in range(n):
            A = _apply_mode_rows(np.eye(2 * N + 2), h, sym[i1] + sym[i2],
                                 np.exp(1j * freqs[i1] * drift))
            rhs = np.zeros(2 * N + 2, dtype=complex)
            rhs[1:N] = lo_hat[i1, i2, 1:N]
            rhs[N] = vj_hat[i1, i2]
            rhs[N + 1] = fj_hat[i1, i2]
            rhs[N + 2:2 * N + 1] = up_hat[i1, i2, 1:N]
            if i1 == i2 == 0:
                A = np.block([[A, w[:, None]], [w[None, :], np.zeros((1, 1))]])
                rhs = np.append(rhs, 0.0)
            z = np.linalg.solve(A, rhs)
            sol_lo[i1, i2] = z[:N + 1]
            sol_up[i1, i2] = z[N + 1:2 * N + 2]
    return np.fft.ifft2(np.array([sol_up, sol_lo]) * n ** 2, axes=(1, 2)).real


def test_fd_batched_solve_matches_dense_reference():
    # odd n_tan has no Nyquist k1; even n_tan keeps its phase at k1 = -n/2.  The band is
    # eliminated without pivoting from n_tan/n_ver = 1/8 to 8, where h^2 lam reaches -13
    rng = np.random.default_rng(7)
    for n, N in ((8, 8), (9, 9), (15, 15), (16, 16), (64, 8), (8, 64)):
        values = rng.standard_normal((2, n, n, N + 1))
        # zero tangential mean of source and flux jump keeps the zero-mode
        # data compatible; the value jump keeps its mean
        values -= values.mean(axis=(1, 2), keepdims=True)
        vj = rng.standard_normal((n, n))
        fj = rng.standard_normal((n, n))
        fj -= fj.mean()
        source = TwoPhaseGridField(values)
        q = solve_two_phase_poisson_fd(source, value_jump=vj, flux_jump=fj, drift=0.37)
        err = np.max(np.abs(q.values - _dense_reference_fd(source, vj, fj, 0.37)))
        assert err <= 1e-12 * max(1.0, q.max_abs()), (n, N, err)


def test_fd_solves_half_the_spectrum_and_gauges_directly(monkeypatch):
    # one batched elimination takes every k1 >= 0 mode, the zero mode
    # included; no full-spectrum transform and no np.linalg call
    n = 9
    x = 2 * math.pi * np.arange(n) / n
    fj = np.cos(x)[:, None] * np.cos(2 * x)[None, :]
    vj = np.full((n, n), 0.3)

    def forbidden(*args, **kwargs):
        raise AssertionError("full-spectrum transform or np.linalg called")

    monkeypatch.setattr(np.fft, "fft2", forbidden)
    monkeypatch.setattr(np.fft, "ifft2", forbidden)
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    solved = []
    solve_modes = pressure._solve_modes

    def counted(b, h, lam, phi):
        solved.append(b.shape[1:])
        return solve_modes(b, h, lam, phi)

    monkeypatch.setattr(pressure, "_solve_modes", counted)
    q = solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(n, n), value_jump=vj,
                                   flux_jump=fj, drift=0.4)
    assert solved == [((n // 2 + 1) * n,)]
    assert q.max_abs() > 0.0


def test_fd_zero_mode_value_jump_is_exact():
    # a constant value jump c is solved by the constants -c/2 below and c/2
    # above; the pinned and gauged elimination keeps that to round-off at N = 64
    n, N = 8, 64
    q = solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(n, N),
                                   value_jump=np.full((n, n), 0.7))
    assert np.max(np.abs(q.values[0] - 0.35)) < 1e-13
    assert np.max(np.abs(q.values[1] + 0.35)) < 1e-13


def _plane_data(rng, n, N):
    """Random x2-constant source and jumps whose zero-mode data are compatible."""
    values = rng.standard_normal((2, n, 1, N + 1))
    values -= values.mean(axis=(1, 2), keepdims=True)
    vj = rng.standard_normal((n, 1))
    fj = rng.standard_normal((n, 1))
    fj -= fj.mean()
    return TwoPhaseGridField(values), vj, fj


@pytest.mark.parametrize("n", (8, 9, 15, 16))
def test_fd_plane_solve_matches_full_grid_solve(n):
    # a plane solves only its k2 = 0 modes; the full-grid solve of the
    # same data broadcast along x2 must agree with it in every x2 column
    rng = np.random.default_rng(n)
    for N in (8, 13):
        for drift in (0.0, 0.37, 1.3):
            source, vj, fj = _plane_data(rng, n, N)
            plane = solve_two_phase_poisson_fd(source, value_jump=vj, flux_jump=fj, drift=drift)
            full_source = TwoPhaseGridField(np.repeat(source.values, n, axis=2))
            full = solve_two_phase_poisson_fd(full_source, value_jump=np.repeat(vj, n, axis=1),
                                              flux_jump=np.repeat(fj, n, axis=1), drift=drift)
            assert plane.values.shape == (2, n, 1, N + 1) and plane.n_x2 == 1
            err = np.max(np.abs(plane.values - full.values))
            assert err <= 1e-12 * max(1.0, full.max_abs()), (n, N, drift, err)


def test_fd_plane_with_nonzero_mean_flux_is_solvability_error():
    n = 9
    fj = np.full((n, 1), 0.2) + np.cos(2 * math.pi * np.arange(n) / n)[:, None]
    with pytest.raises(SolvabilityError, match="zero mode"):
        solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(n, 8, 1), flux_jump=fj)


def test_fd_plane_zero_mode_value_jump_is_exact():
    n, N = 8, 64
    q = solve_two_phase_poisson_fd(TwoPhaseGridField.zeros(n, N, 1),
                                   value_jump=np.full((n, 1), 0.7))
    assert q.n_x2 == 1
    assert np.max(np.abs(q.values[0] - 0.35)) < 1e-13
    assert np.max(np.abs(q.values[1] + 0.35)) < 1e-13


def test_fd_rejects_other_x2_extents_and_mismatched_jumps():
    n, N = 8, 8
    with pytest.raises(GridMismatchError):
        TwoPhaseGridField(np.zeros((2, n, 2, N + 1)))
    for source, jump in ((TwoPhaseGridField.zeros(n, N, 1), np.zeros((n, n))),
                         (TwoPhaseGridField.zeros(n, N), np.zeros((n, 1)))):
        for key in ("value_jump", "flux_jump"):
            with pytest.raises(ValueError, match="jump data must be"):
                solve_two_phase_poisson_fd(source, **{key: jump})


def test_mode_error_solves_k2_zero_data_on_one_plane(monkeypatch):
    # the ladder's data cos(k1 x1) are x2-constant: one elimination over the
    # n_tan//2 + 1 columns with k2 = 0, in a small fraction of a full grid's memory
    solved = []
    solve_modes = pressure._solve_modes

    def counted(b, h, lam, phi):
        solved.append(b.shape[1:])
        return solve_modes(b, h, lam, phi)

    monkeypatch.setattr(pressure, "_solve_modes", counted)
    tracemalloc.start()
    try:
        err = mode_solver_fd_error(WaveVector(5, 0), 1.0, 64, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solved == [(33,)]
    assert peak < 2 * 2 ** 20, peak
    assert err == pytest.approx(0.0012278104497267517, rel=1e-12)
    # data with k2 != 0 still fill the grid and solve every k1 >= 0 column
    solved.clear()
    err = mode_solver_fd_error(WaveVector(2, 1), 1.0, 16, 16)
    assert solved == [(9 * 16,)]
    assert err == pytest.approx(0.007125562771267552, rel=1e-12)


# ---------------------------------------------------------------------------
# harmonic + source decomposition
# ---------------------------------------------------------------------------

def _random_smooth_data(n, seed):
    rng = np.random.default_rng(seed)
    x = 2 * math.pi * np.arange(n) / n
    zu = np.linspace(0, 1, n + 1)
    zl = np.linspace(-1, 0, n + 1)
    tang = (np.cos(2 * x)[:, None, None] * np.sin(x)[None, :, None]
            + 0.3 * np.cos(x)[:, None, None])
    # vertical factor with zero normal derivative at the walls keeps the
    # data compatible after the interface rows are imposed
    vert_up = np.cos(math.pi * zu)
    vert_lo = np.cos(math.pi * zl)
    source = TwoPhaseGridField(np.array([tang * vert_up[None, None, :],
                                         tang * vert_lo[None, None, :]]))
    M = rng.standard_normal() * np.cos(x)[:, None] * np.cos(2 * x)[None, :]
    return source, M


def test_decomposition_superposition():
    source, M = _random_smooth_data(16, 3)
    q1, q2 = pressure_decomposition(source, M)
    combined = solve_two_phase_poisson_fd(source, flux_jump=M)
    err = np.max(np.abs((q1.values + q2.values) - combined.values))
    assert err < 1e-9


def test_decomposition_zero_source():
    n = 16
    x = 2 * math.pi * np.arange(n) / n
    M = np.cos(x)[:, None] * np.ones((1, n))
    q1, q2 = pressure_decomposition(TwoPhaseGridField.zeros(n, n), M)
    assert q2.max_abs() < 1e-12
    assert q1.max_abs() > 0.01


def test_decomposition_zero_jump():
    source, _ = _random_smooth_data(16, 5)
    q1, q2 = pressure_decomposition(source, None)
    assert q1.max_abs() < 1e-12
    assert q2.max_abs() > 1e-4


def test_decomposition_superposition_on_planes():
    # x2-constant data decompose into planes that match the full-grid parts
    n = 16
    source, M = _random_smooth_data(n, 3)
    plane_source = TwoPhaseGridField(source.values[:, :, :1])
    plane_M = np.cos(2 * math.pi * np.arange(n) / n)[:, None] * 0.8
    q1, q2 = pressure_decomposition(plane_source, plane_M)
    assert q1.n_x2 == q2.n_x2 == 1
    combined = solve_two_phase_poisson_fd(plane_source, flux_jump=plane_M)
    assert np.max(np.abs((q1.values + q2.values) - combined.values)) < 1e-9
    full_source = TwoPhaseGridField(np.repeat(plane_source.values, n, axis=2))
    f1, f2 = pressure_decomposition(full_source, np.repeat(plane_M, n, axis=1))
    for plane, full in ((q1, f1), (q2, f2)):
        assert np.max(np.abs(plane.values - full.values)) < 1e-12
