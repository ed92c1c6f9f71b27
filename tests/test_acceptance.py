"""Acceptance suite: end-to-end criteria at fixed tolerances.

Every test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line
(visible with ``pytest -s``); tolerances are pinned here and not
calibrated anywhere else.
"""

import math
import time

import numpy as np

from khlab.core import (
    PerturbationState,
    ShearParams,
    TwoPhaseGridField,
    WaveVector,
)
from khlab.eigenmodes import build_linearized_mode, verify_mode
from khlab.evolution import (
    BoundaryModeState,
    boundary_dispersion,
    evolve_boundary_mode,
    evolve_state,
)
from khlab.functionals import (
    check_growth_corollary,
    check_proposition2,
    compute_functionals,
    decompose_perturbation,
    h2_readout,
    perturbed_initial_data,
)
from khlab.pressure import (
    fitted_convergence_order,
    mode_solver_fd_error,
    pressure_decomposition,
    solve_two_phase_poisson_fd,
)
from khlab.stability import check_syrovatskij, sen_gamma_squared

from reference_fields import inner_product_vector, potential_gradient_field, x1_vector


def _gate(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS")


# ---------------------------------------------------------------------------

def test_criterion_1_transverse_invariance():
    def body():
        start = time.perf_counter()
        params0 = ShearParams()
        k3 = (2.0, 0.0, 0.0)
        k = WaveVector(2, 0)
        base_gamma = sen_gamma_squared(params0, k3, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        base_lambda = boundary_dispersion(k, 0.0, 0.0)
        for a in np.linspace(0.0, 3.0, 20):
            for b in np.linspace(0.0, 3.0, 20):
                g2 = sen_gamma_squared(params0, k3, (0.0, a, 0.0), (0.0, b, 0.0))
                l2 = boundary_dispersion(k, a, b)
                assert abs(g2 - base_gamma) <= 1e-14
                assert abs(l2 - base_lambda) <= 1e-14
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"sweep took {elapsed:.3f} s"

    _gate(1, "transverse-invariance", body)


def test_criterion_2_growth_law():
    def body():
        start = time.perf_counter()
        ts = np.linspace(0.0, 1.0, 11)
        for kval in (2, 4, 8):
            k = WaveVector(kval, 0)
            s0 = BoundaryModeState(k, 1.0, float(kval))   # growing branch
            for stepper, dt, tol in (("exact", None, 1e-6), ("rk4", 1e-3, 1e-4)):
                amps = []
                for t in ts:
                    out = evolve_boundary_mode(s0, 0.0, 0.0, float(t),
                                               stepper=stepper, dt=dt)
                    amps.append(abs(out.amplitude))
                rate = np.polyfit(ts, np.log(amps), 1)[0]
                assert abs(rate - kval) < tol, (stepper, kval, rate)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"growth fits took {elapsed:.3f} s"

    _gate(2, "growth-law", body)


def test_criterion_3_stabilization_threshold():
    def body():
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                for a in np.linspace(0.0, 2.0, 5):
                    lam_sq = boundary_dispersion(WaveVector(k1, k2), a, a)
                    threshold = k1 ** 2 - a * a * k2 ** 2
                    assert (lam_sq > 0) == (threshold > 0)
                    assert (lam_sq == 0) == (threshold == 0)
                    assert (lam_sq < 0) == (threshold < 0)

    _gate(3, "stabilization-threshold", body)


def test_criterion_4_eigenmode_residuals():
    def body():
        for kval in range(1, 65):
            mode = build_linearized_mode(WaveVector(kval, 0), "+")
            rep = verify_mode(mode)
            assert rep.max_harmonic_residual < 1e-9, kval
            assert rep.max_divergence_residual < 1e-9, kval
            assert rep.wall_bc_residual < 1e-9, kval
            assert rep.interface_continuity_residual < 1e-9, kval

    _gate(4, "eigenmode-residuals", body)


def test_criterion_5_pressure_solver_equivalence():
    def body():
        for kappa in (1, 2, 4):
            errs = [mode_solver_fd_error(WaveVector(kappa, 0), 1.0, n, n)
                    for n in (16, 32, 64)]
            order = fitted_convergence_order(errs)
            assert abs(order - 2.0) <= 0.2, (kappa, order, errs)

        # harmonic + source split against the combined solve
        n = 32
        rng = np.random.default_rng(123)
        x = 2 * math.pi * np.arange(n) / n
        zu = np.linspace(0, 1, n + 1)
        zl = np.linspace(-1, 0, n + 1)
        tang = (np.cos(x)[:, None, None] * np.cos(2 * x)[None, :, None]
                + 0.5 * np.sin(2 * x)[:, None, None])
        vert_up = np.cos(math.pi * zu)[None, None, :]
        vert_lo = np.sin(math.pi * zl)[None, None, :]
        source = TwoPhaseGridField(np.array([tang * vert_up, tang * vert_lo]))
        M = (rng.standard_normal() * np.cos(3 * x)[:, None] * np.cos(x)[None, :]
             + np.sin(x)[:, None] * np.ones((1, n)))
        q1, q2 = pressure_decomposition(source, M)
        combined = solve_two_phase_poisson_fd(source, flux_jump=M)
        assert np.max(np.abs((q1.values + q2.values) - combined.values)) < 1e-9

    _gate(5, "pressure-solver-equivalence", body)


def test_criterion_6_decomposition_fidelity():
    def body():
        n_tan, n_ver = 32, 16
        jf, jg = 6, 3
        cf, cg = 0.8 - 0.4j, -1.1 + 0.2j
        chi = potential_gradient_field({jf: cf}, {}, n_tan, n_ver)
        part = potential_gradient_field({}, {jg: cg}, n_tan, n_ver)
        r1 = TwoPhaseGridField.from_function(
            lambda x1, x2, x3: np.cos(2 * x2) * (0.5 + x3 ** 2), n_tan, n_ver)
        r_test = x1_vector(r1)
        chi = chi + part + r_test
        state = decompose_perturbation(chi, np.zeros_like(chi), n_cutoff=5)
        # recovered coefficients
        assert abs(state.P[jf] - cf) < 1e-9
        assert abs(state.g[jg] - cg) < 1e-9
        # cross-contamination across every other slot
        leak = 0.0
        leak = max(leak, max((abs(c) for j, c in state.P.items() if j != jf),
                             default=0.0))
        leak = max(leak, max((abs(c) for c in state.L.values()), default=0.0))
        leak = max(leak, max((abs(c) for j, c in state.g.items() if j != jg),
                             default=0.0))
        assert leak < 1e-9
        assert np.max(np.abs(state.r - r_test)) < 1e-9
        # orthogonality of the harmonic gradient against the remainder
        grad_h = (potential_gradient_field({jf: state.P[jf]}, {}, n_tan, n_ver)
                  + potential_gradient_field({}, {jg: state.g[jg]}, n_tan, n_ver))
        assert abs(inner_product_vector(grad_h, state.r)) < 1e-9
        # high/low split of the odd family is frequency-disjoint and exact
        chi2 = (potential_gradient_field({jf: 1.0}, {}, n_tan, n_ver)
                + potential_gradient_field({2: 1.0}, {}, n_tan, n_ver))
        s2 = decompose_perturbation(chi2, np.zeros_like(chi2), 5)
        assert set(s2.P) == {6} and set(s2.L) == {2}
        g_hi = potential_gradient_field({6: s2.P[6]}, {}, n_tan, n_ver)
        g_lo = potential_gradient_field({2: s2.L[2]}, {}, n_tan, n_ver)
        assert abs(inner_product_vector(g_hi, g_lo)) < 1e-9

    _gate(6, "decomposition-fidelity", body)


# ---------------------------------------------------------------------------

def _region_state(rng, n, n_tan=16, n_ver=8):
    """Random state inside the invariant region with a safety margin."""
    P, P_dot = {}, {}
    for j in rng.choice(np.arange(n, n + 5), size=2, replace=False):
        j = int(j)
        c = complex(*rng.standard_normal(2))
        P[j] = c
        P_dot[j] = j * c * (1.0 + 0.3 * rng.random())
    L = {int(j): 0.1 * complex(*rng.standard_normal(2))
         for j in range(1, min(n, 4))}
    g = {int(j): 0.1 * complex(*rng.standard_normal(2))
         for j in rng.integers(1, n + 3, size=2)}
    m = int(rng.integers(1, 4))
    amp = 0.05 * rng.random()
    comp = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: amp * np.cos(m * x2) * (1 + 0 * x3), n_tan, n_ver)
    r = x1_vector(comp)
    state = PerturbationState(n, P, P_dot, L, {}, g, {}, r, np.zeros_like(r))
    rep = compute_functionals(state, [1.0], 1.0, 0.5)
    need = 2.5 * (n ** 3) * max(rep.F, rep.G, 1e-30)
    if rep.E_plus[1.0] < need:
        s = math.sqrt(need / rep.E_plus[1.0])
        state = PerturbationState(n, {j: s * c for j, c in P.items()},
                                  {j: s * c for j, c in P_dot.items()},
                                  L, {}, g, {}, state.r, state.r_dot)
    return state


def test_criterion_7_region_invariance():
    def body():
        rng = np.random.default_rng(2024)
        a, b = 1.0, 0.5
        times = np.linspace(0.0, 2.0, 11)
        for n in (4, 8, 16):
            for _ in range(50):
                state = _region_state(rng, n)
                rep0 = compute_functionals(state, [1.0], a, b)
                assert rep0.E_plus[1.0] >= rep0.E_minus[1.0]
                assert rep0.E_plus[1.0] >= n ** 3 * rep0.F
                assert rep0.E_plus[1.0] >= n ** 3 * rep0.G
                traj = [(float(t), evolve_state(state, a, b, float(t)))
                        for t in times]
                report = check_proposition2(traj, n, a, b)
                assert report.invariant, (
                    f"n={n}: exited region at t={report.first_violation_time}")

    _gate(7, "proposition2-region-invariance", body)


def test_criterion_8_corollary_growth_and_illposedness_signature():
    def body():
        sup_norms = []
        readouts_t1 = []
        for n in (4, 8, 16):
            chi, chi_dot = perturbed_initial_data(n, 1.0, n_tan=64, n_ver=32)
            sup_norms.append(np.abs(chi_dot).max())
            state = decompose_perturbation(chi, chi_dot, n_cutoff=n)
            traj = [(float(t), evolve_state(state, 0.0, 0.0, float(t)))
                    for t in np.linspace(0.0, 2.0, 9)]
            growth = check_growth_corollary(traj, n)
            assert growth.passed, f"n={n}: margins {growth.margins}"
            at_t1 = evolve_state(state, 0.0, 0.0, 1.0)
            readouts_t1.append(h2_readout(at_t1))
        # smaller and smaller data, larger and larger response
        assert all(x > y for x, y in zip(sup_norms, sup_norms[1:]))
        assert all(x < y for x, y in zip(readouts_t1, readouts_t1[1:]))

    _gate(8, "corollary-growth-illposedness", body)


def test_criterion_9_syrovatskij_screening():
    def body():
        jump = (2.0, 0.0, 0.0)
        for a in np.linspace(0.05, 3.0, 12):
            for b in np.linspace(0.05, 3.0, 12):
                verdict = check_syrovatskij(jump, (0.0, a, 0.0), (0.0, b, 0.0))
                assert verdict.syrovatskij_second is False

    _gate(9, "syrovatskij-screening", body)
