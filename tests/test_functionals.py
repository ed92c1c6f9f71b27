"""Decomposition, growth functionals and trajectory checks."""

import math
import warnings

import numpy as np
import pytest

from khlab.core import (
    GridMismatchError,
    PerturbationState,
    TwoPhaseGridField,
    _unstack,
    tangential_grid,
    vertical_levels,
)
from khlab.eigenmodes import (
    build_harmonic_potentials,
    potential_gradient_norm_sq,
    potential_gradient_plane,
)
from khlab.evolution import evolve_state
from khlab.functionals import (
    AliasingError,
    check_growth_corollary,
    check_proposition2,
    compute_functionals,
    decompose_perturbation,
    h2_readout,
    perturbed_initial_data,
)

from reference_fields import (
    full_grid,
    inner_product_vector,
    plane_spectrum_agrees,
    potential_gradient_field,
    reconstruct_perturbation,
)


@pytest.mark.filterwarnings("error")
def test_decomposition_at_the_top_of_the_float_range_is_exactly_scaled():
    # the interface trace FFT once summed values near 1.7e308 past the float range: four
    # RuntimeWarnings, then "remainder field keeps a wall-normal trace of 4.133e+307"
    chi, chi_dot = perturbed_initial_data(2, 1.7e308, 16, 32)
    small = [[TwoPhaseGridField(c.values * 2.0 ** -600) for c in v] for v in (chi, chi_dot)]
    big, ref = decompose_perturbation(chi, chi_dot, 15), decompose_perturbation(*small, 15)
    for name in ("w_plus", "w_minus", "g", "g_dot"):
        assert getattr(big, name) == {j: 2.0 ** 600 * x for j, x in getattr(ref, name).items()}
    assert big.w_plus and big.r_hat is None and big.r_dot_hat is None


def _grad_f(j, coeff, n_tan, n_ver):
    f, _ = build_harmonic_potentials(j)
    return potential_gradient_field(f, coeff, n_tan, n_ver)


def _grad_g(j, coeff, n_tan, n_ver):
    _, g = build_harmonic_potentials(j)
    return potential_gradient_field(g, coeff, n_tan, n_ver)


def _add(u, v):
    return tuple(TwoPhaseGridField(a.values + b.values) for a, b in zip(u, v))


def _zeros(n_tan, n_ver):
    return tuple(TwoPhaseGridField.zeros(n_tan, n_ver) for _ in range(3))


def _max_diff(f, g):
    return np.max(np.abs(f.values - g.values))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_projects_basis_element():
    n_tan, n_ver = 32, 16
    chi = _grad_f(5, 1.0, n_tan, n_ver)
    zero = _zeros(n_tan, n_ver)
    state = decompose_perturbation(chi, zero, n_cutoff=3)
    assert set(state.P) == {5}
    assert state.P[5] == pytest.approx(1.0, abs=1e-10)
    assert state.L == {} and state.g == {}
    assert state.r is None or max(c.max_abs() for c in state.r) < 1e-10
    assert state.P_dot == {} and state.L_dot == {} and state.g_dot == {}


def test_decompose_projects_even_element():
    n_tan, n_ver = 32, 16
    chi = _grad_g(2, 1.0, n_tan, n_ver)
    state = decompose_perturbation(chi, _zeros(n_tan, n_ver), 4)
    assert set(state.g) == {2}
    assert state.g[2] == pytest.approx(1.0, abs=1e-10)
    assert state.P == {} and state.L == {}
    assert state.r is None or max(c.max_abs() for c in state.r) < 1e-10


def test_decompose_complex_coefficient_convention():
    # field built from the imaginary-part basis element carries -1j
    n_tan, n_ver = 32, 16
    chi = _grad_f(4, -1.0j, n_tan, n_ver)
    state = decompose_perturbation(chi, _zeros(n_tan, n_ver), 2)
    assert state.P[4] == pytest.approx(-1.0j, abs=1e-10)


def test_decompose_recovers_remainder_and_orthogonality():
    n_tan, n_ver = 32, 16
    chi_h = _grad_f(5, 1.0, n_tan, n_ver)
    r1 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: -np.sin(x2) * (1.0 + x3 ** 2), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    r_test = (r1, zero, zero)   # divergence-free, third component zero
    chi = _add(chi_h, r_test)
    state = decompose_perturbation(chi, _zeros(n_tan, n_ver), 3)
    assert state.P[5] == pytest.approx(1.0, abs=1e-10)
    for got, expect in zip(state.r, r_test):
        assert _max_diff(got, expect) < 1e-9
    grad_h = _grad_f(5, state.P[5], n_tan, n_ver)
    assert abs(inner_product_vector(grad_h, state.r)) < 1e-9


def test_decompose_mixture_cross_contamination():
    n_tan, n_ver = 32, 16
    chi = _add(_grad_f(6, 0.8 - 0.3j, n_tan, n_ver), _grad_g(2, 1.5j, n_tan, n_ver))
    chi_dot = _grad_f(2, 0.5, n_tan, n_ver)
    state = decompose_perturbation(chi, chi_dot, n_cutoff=4)
    assert state.P[6] == pytest.approx(0.8 - 0.3j, abs=1e-10)
    assert state.g[2] == pytest.approx(1.5j, abs=1e-10)
    assert state.L_dot[2] == pytest.approx(0.5, abs=1e-10)
    assert set(state.P) == {6} and set(state.g) == {2} and set(state.L_dot) == {2}
    assert state.r is None or max(c.max_abs() for c in state.r) < 1e-9
    assert state.r_dot is None or max(c.max_abs() for c in state.r_dot) < 1e-9


def test_decompose_reconstruct_round_trip():
    n_tan, n_ver = 32, 16
    r2 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(2 * x2) * np.cos(x3), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    state = PerturbationState(
        4,
        P={5: 0.3 + 0.2j, 7: -1.0}, P_dot={5: 0.1j},
        L={2: -0.4}, L_dot={3: 0.25},
        g={3: 0.9 - 0.1j}, g_dot={1: 1.0},
        r=(zero, r2, zero), r_dot=(r2, zero, zero))
    chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
    back = decompose_perturbation(chi, chi_dot, 4)
    for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"):
        got, expect = getattr(back, name), getattr(state, name)
        assert set(got) == set(expect)
        for j in expect:
            assert got[j] == pytest.approx(expect[j], abs=1e-10)
    for got, expect in zip(back.r, state.r):
        assert _max_diff(got, expect) < 1e-9
    for got, expect in zip(back.r_dot, state.r_dot):
        assert _max_diff(got, expect) < 1e-9


def test_decompose_reconstruct_round_trip_property():
    # on random admissible states, decompose undoes reconstruct, and a
    # second reconstruct gives the same fields
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)

    @st.composite
    def cases(draw):
        n_tan = draw(st.sampled_from([8, 11, 16]))
        n_ver = draw(st.integers(2, 6))
        top = (n_tan - 1) // 2   # every j stays below n_tan/2
        n_cutoff = draw(st.integers(1, top + 1))

        def block(lo, hi):
            if lo > hi:
                return {}
            return draw(st.dictionaries(st.integers(lo, hi), coeff, max_size=3))

        def r_block():
            if not draw(st.booleans()):
                return None
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            values = rng.standard_normal((3, 2, n_tan, n_tan, n_ver + 1))
            values[2][..., [0, -1]] = 0.0   # r3 vanishes on interface and walls
            return _unstack(values)

        state = PerturbationState(
            n_cutoff, P=block(n_cutoff, top), P_dot=block(n_cutoff, top),
            L=block(1, n_cutoff - 1), L_dot=block(1, n_cutoff - 1),
            g=block(1, top), g_dot=block(1, top), r=r_block(), r_dot=r_block())
        return state, n_tan, n_ver

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        state, n_tan, n_ver = case
        chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
        back = decompose_perturbation(chi, chi_dot, state.n_cutoff)
        for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"):
            got, expect = getattr(back, name), getattr(state, name)
            # a coefficient at or below the tolerance is dropped, so it reads 0
            for j in set(got) | set(expect):
                assert got.get(j, 0.0) == pytest.approx(expect.get(j, 0.0), abs=1e-10)
        for got, expect in ((back.r, state.r), (back.r_dot, state.r_dot)):
            # an absent block stays absent: its round-off is dropped
            assert (got is None) == (expect is None)
            for g_c, e_c in zip(got or (), expect or ()):
                assert _max_diff(g_c, e_c) < 1e-9
        again = reconstruct_perturbation(back, n_tan, n_ver)
        for got, expect in zip((*again[0], *again[1]), (*chi, *chi_dot)):
            assert _max_diff(got, expect) < 1e-9

    check()


def test_sub_tolerance_coefficient_leaves_a_plane_remainder():
    # each vector's tolerance follows its own scale: P's unit coefficient gives chi
    # a sup norm near 2, which raises the tolerance above g's 1.4e-12 coefficient
    # in the same vector: it is dropped, its gradient stays in r, and r is a plane
    n_tan, n_ver = 8, 2
    state = PerturbationState(1, P={2: 1.0}, g={3: 1e-12 + 1e-12j})
    chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
    assert chi[0].n_x2 == 1
    back = decompose_perturbation(chi, chi_dot, 1)
    assert back.g == {} and back.r_hat is not None
    assert back.r_hat.shape[3] == 1 and not back.r_hat[:, :, :, 1:].any()
    again, _ = reconstruct_perturbation(back, n_tan, n_ver)
    for got, expect in zip(again, chi):
        assert _max_diff(got, expect) < 1e-9


def test_zero_data_decompose_to_the_exact_zero_state():
    # each tolerance is relative to its own vector, so zero data get tolerance 0
    # and drop everything, with no division by their zero scale
    zero = _zeros(16, 8)
    state = decompose_perturbation(zero, zero, 2)
    assert all(getattr(state, name) == {} for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"))
    assert state.r_hat is None and state.r_dot_hat is None
    rep = compute_functionals(state, [1.0], 0.7, 1.3)
    assert (rep.E_plus[1.0], rep.E_minus[1.0], rep.G, rep.F) == (0.0, 0.0, 0.0, 0.0)


def test_decompose_memory_peak_holds_one_stacked_copy():
    import tracemalloc

    chi, chi_dot = (full_grid(vec) for vec in perturbed_initial_data(7, 1.0, 64, 64))
    tracemalloc.start()
    try:
        decompose_perturbation(chi, chi_dot, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one stacked 64x64 vector is 12.8 MB; an |r| temporary for the drop
    # rule doubles that, and stacking both vectors at once, or full-grid
    # gradient tuples, pass 38 MB
    assert peak < 20e6


def test_decompose_memory_peak_of_plane_data():
    import tracemalloc

    chi, chi_dot = perturbed_initial_data(7, 1.0, 64, 64)
    tracemalloc.start()
    try:
        decompose_perturbation(chi, chi_dot, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x2-constant data stay planes: one stacked 64x1 plane is 0.2 MB, where
    # expanding it to the 64x64 grid it stands for costs 13 MB
    assert peak < 2e6


def _plane_data(n_tan, n_ver, phase):
    """x2-constant 3-vector with odd (j = 2), even (j = 3) and r content.

    r3 carries x3 * (1 - |x3|), exactly zero on the interface and wall rows.
    """
    (f2, _), (_, g3) = build_harmonic_potentials(2), build_harmonic_potentials(3)
    plane = potential_gradient_plane([(f2, 0.7 - 0.2j), (g3, 0.4j * phase)], n_tan, n_ver)
    x1 = tangential_grid(n_tan)
    for p, z in enumerate(map(np.asarray, vertical_levels(n_ver))):
        plane[0, p, :, 0] += np.outer(np.cos(x1 + phase), 1.0 + z)
        plane[1, p, :, 0] += np.outer(np.sin(2 * x1), 0.5 + z ** 2)
        plane[2, p, :, 0] += np.outer(np.cos(3 * x1 + phase), z * (1.0 - np.abs(z)))
    return _unstack(plane)


@pytest.mark.parametrize("n_tan", [8, 12, 15, 16])
def test_plane_and_full_grid_decompose_alike(n_tan):
    n_ver, a, b, t = 6, 0.7, 1.3, 0.4
    chi, chi_dot = _plane_data(n_tan, n_ver, 0.3), _plane_data(n_tan, n_ver, -1.1)
    plane = decompose_perturbation(chi, chi_dot, 2)
    full = decompose_perturbation(full_grid(chi), full_grid(chi_dot), 2)
    # the trace spectra agree bitwise when n_tan is a power of two, else to roundoff
    exact = n_tan & (n_tan - 1) == 0

    def agree(x, y):
        x, y = np.asarray(x), np.asarray(y)
        if exact:
            return np.array_equal(x, y)
        return np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))

    def states_agree(p, f):
        for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"):
            cp, cf = getattr(p, name), getattr(f, name)
            assert set(cp) == set(cf), name
            assert all(agree(cp[j], cf[j]) for j in cf), name
        # a plane keeps k2 = 0 alone, n_tan times smaller than the full grid's
        for p_hat, f_hat in ((p.r_hat, f.r_hat), (p.r_dot_hat, f.r_dot_hat)):
            if exact:
                assert np.array_equal(n_tan * p_hat, f_hat[:, :, :, :1])
                assert not f_hat[:, :, :, 1:].any()
            else:
                assert plane_spectrum_agrees(p_hat, f_hat)

    assert set(full.P) == {2} and set(full.g_dot) == {3}
    assert full.r_hat.shape == (3, 2, n_tan, n_tan // 2 + 1, n_ver + 1)
    assert plane.r_hat.shape == plane.r_dot_hat.shape == (3, 2, n_tan, 1, n_ver + 1)
    states_agree(plane, full)
    for stepper, dt in (("exact", None), ("rk4", 0.05)):
        p_t, f_t = (evolve_state(s, a, b, t, stepper, dt) for s in (plane, full))
        states_agree(p_t, f_t)
        rep_p, rep_f = (compute_functionals(s, [1.0, 1.5], a, b, t) for s in (p_t, f_t))
        for mu in (1.0, 1.5):
            assert agree(rep_p.E_plus[mu], rep_f.E_plus[mu])
            assert agree(rep_p.E_minus[mu], rep_f.E_minus[mu])
        assert agree(rep_p.G, rep_f.G) and agree(rep_p.F, rep_f.F)


def test_plane_chi_with_full_grid_chi_dot():
    n_tan, n_ver = 16, 6
    chi = _plane_data(n_tan, n_ver, 0.3)
    # chi_dot gains x2-dependent remainder content, so it needs the full grid
    spanwise = np.cos(2 * tangential_grid(n_tan))[None, :, None]
    chi_dot = tuple(TwoPhaseGridField(c.values + w * spanwise)
                    for c, w in zip(full_grid(_plane_data(n_tan, n_ver, -1.1)), (0.5, 0.2, 0.0)))
    state = decompose_perturbation(chi, chi_dot, 2)
    reference = decompose_perturbation(full_grid(chi), chi_dot, 2)
    assert set(state.P) == {2} and set(state.g) == {3} and set(state.g_dot) == {3}
    assert np.array_equal(state.r_hat, reference.r_hat)
    assert np.array_equal(state.r_dot_hat, reference.r_dot_hat)
    # chi's remainder is x2-constant, so it reconstructs as the plane it came from
    back, back_dot = reconstruct_perturbation(state, n_tan, n_ver)
    for got, expect in zip((*back, *back_dot), (*chi, *chi_dot)):
        assert _max_diff(got, expect) < 1e-12


def test_decompose_rejects_wall_violation():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(x1) * np.ones_like(x3), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    with pytest.raises(ValueError, match="wall"):
        decompose_perturbation((zero, zero, bad3),
                               _zeros(n_tan, n_ver), 2)


def test_decompose_rejects_components_on_different_grids():
    zero = _zeros(16, 8)
    with pytest.raises(GridMismatchError):
        decompose_perturbation((zero[0], TwoPhaseGridField.zeros(16, 6), zero[2]), zero, 2)


def test_decompose_rejects_spanwise_interface_content():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(x2) * np.cos(0.5 * math.pi * x3), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    with pytest.raises(ValueError, match="streamwise"):
        decompose_perturbation((zero, zero, bad3),
                               _zeros(n_tan, n_ver), 2)


def test_decompose_reports_aliasing():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(8 * x1) * np.cos(0.5 * math.pi * x3), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    with pytest.raises(AliasingError):
        decompose_perturbation((zero, zero, bad3),
                               _zeros(n_tan, n_ver), 2)


def test_decompose_rejects_nonzero_mean_trace():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(0.5 * math.pi * x3) * np.ones_like(x1), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    with pytest.raises(ValueError, match="mean"):
        decompose_perturbation((zero, zero, bad3),
                               _zeros(n_tan, n_ver), 2)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def test_pure_growing_mode_functional_values():
    # velocity matched to growth: E_mu- vanishes and
    # E_mu+ = 4 j^(2 mu + 2) ||grad f_j||^2
    j = 4
    state = PerturbationState(3, P={j: 1.0 + 0.0j}, P_dot={j: float(j)})
    rep = compute_functionals(state, [1.0, 1.5], 0.0, 0.0)
    w = potential_gradient_norm_sq(j)
    for mu in (1.0, 1.5):
        assert rep.E_minus[mu] == 0.0
        assert rep.E_plus[mu] == pytest.approx(4.0 * j ** (2 * mu + 2) * w, rel=1e-12)
    assert rep.G == 0.0 and rep.F == 0.0


def test_zero_state_all_functionals_zero():
    rep = compute_functionals(PerturbationState(4), [1.0], 1.0, 2.0)
    assert rep.E_plus[1.0] == 0.0 and rep.E_minus[1.0] == 0.0
    assert rep.G == 0.0 and rep.F == 0.0


def test_low_frequency_only_state():
    state = PerturbationState(5, L={2: 1.0}, L_dot={3: -0.5j})
    rep = compute_functionals(state, [1.0], 0.3, 0.4)
    assert rep.E_plus[1.0] == 0.0 and rep.E_minus[1.0] == 0.0
    assert rep.F == 0.0
    expect_G = (2.0 * 1.0) ** 2 * potential_gradient_norm_sq(2) \
        + 0.5 ** 2 * potential_gradient_norm_sq(3)
    assert rep.G == pytest.approx(expect_G, rel=1e-12)


def test_parallelogram_identity():
    rng = np.random.default_rng(2)
    state = PerturbationState(
        3,
        P={j: complex(*rng.standard_normal(2)) for j in (3, 5, 9)},
        P_dot={j: complex(*rng.standard_normal(2)) for j in (3, 5, 9)})
    for mu in (1.0, 1.5, 2.0):
        rep = compute_functionals(state, [mu], 0.0, 0.0)
        both = 0.0
        for j in (3, 5, 9):
            w = potential_gradient_norm_sq(j)
            both += 2.0 * ((j ** mu * abs(state.P_dot[j])) ** 2
                           + (j ** (mu + 1) * abs(state.P[j])) ** 2) * w
        assert rep.E_plus[mu] + rep.E_minus[mu] == pytest.approx(both, rel=1e-12)


def test_r_stiffness_term_single_mode():
    n_tan, n_ver = 16, 8
    a, b, m = 1.5, 0.5, 3
    comp = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(m * x2) * (1.0 + 0.2 * x3 ** 2), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    state = PerturbationState(2, r=(comp, zero, zero), r_dot=(zero, zero, zero))
    rep = compute_functionals(state, [1.0], a, b)
    # single x2 mode: the weighted norm is (weight * m)^2 per phase
    up = TwoPhaseGridField(comp.values * np.array([1.0, 0.0])[:, None, None, None])
    lo = TwoPhaseGridField(comp.values * np.array([0.0, 1.0])[:, None, None, None])
    expect = ((a * m) ** 2 * inner_product_vector((up,), (up,))
              + (b * m) ** 2 * inner_product_vector((lo,), (lo,)))
    assert rep.F == pytest.approx(expect, rel=1e-12)


def test_h2_readout_weighting():
    state = PerturbationState(2, P={3: 2.0})
    expect = math.sqrt(3 ** 4 * 4.0 * potential_gradient_norm_sq(3))
    assert h2_readout(state) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("block, j", [("g", 5), ("g_dot", 5), ("L", 2), ("P", 5)])
def test_functionals_name_an_overflow_in_every_block(block, j):
    # a squared coefficient past the float range is inf, never errno 34, and raises the
    # named OverflowError, with no warning
    state = PerturbationState(4, **{block: {j: 1e200}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="growth functionals leave the float range"):
            compute_functionals(state, [1.0], 0.0, 0.0)


def test_h2_readout_names_an_overflow():
    # inf would print in the evolve CSV
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="H2 readout leaves the float range"):
            h2_readout(PerturbationState(2, P={3: 1e160}))


def test_log_energy_growth_rate_single_mode():
    # d/dt log E1+ = 2 j for a single growing mode, by finite differences
    j = 6
    state = PerturbationState(4, P={j: 1.0}, P_dot={j: float(j)})
    ts = np.linspace(0.0, 0.5, 11)
    vals = []
    for t in ts:
        out = evolve_state(state, 0.0, 0.0, float(t))
        vals.append(compute_functionals(out, [1.0], 0.0, 0.0).E_plus[1.0])
    logs = np.log(vals)
    slopes = np.diff(logs) / np.diff(ts)
    assert np.allclose(slopes, 2.0 * j, rtol=1e-10)


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

def _sample_region_state(rng, n, n_tan=16, n_ver=8, margin=2.5):
    """Random state strictly inside the invariant region.

    The growing branch dominates each P mode and the P block is rescaled
    so E1+ exceeds the thresholds with a factor-of-two safety margin
    (the even-block part of F can grow by at most 2 along neutral
    oscillation, everything else only helps).
    """
    P, P_dot = {}, {}
    for j in rng.choice(np.arange(n, n + 5), size=2, replace=False):
        j = int(j)
        c = complex(*rng.standard_normal(2))
        P[j] = c
        P_dot[j] = j * c * (1.0 + 0.2 * rng.random())
    L = {int(j): complex(*rng.standard_normal(2)) * 0.1
         for j in range(1, n) if rng.random() < 0.5}
    g = {int(j): complex(*rng.standard_normal(2)) * 0.1
         for j in rng.integers(1, n + 3, size=2)}
    m = int(rng.integers(1, 4))
    comp = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: 0.05 * np.cos(m * x2) * (1 + 0 * x3), n_tan, n_ver)
    zero = TwoPhaseGridField.zeros(n_tan, n_ver)
    state = PerturbationState(n, P, P_dot, L, {}, g, {},
                              (comp, zero, zero), (zero, zero, zero))
    rep = compute_functionals(state, [1.0], 1.0, 0.5)
    need = margin * (n ** 3) * max(rep.F, rep.G, 1e-30)
    if rep.E_plus[1.0] < need:
        s = math.sqrt(need / rep.E_plus[1.0])
        state = PerturbationState(n, {j: s * c for j, c in P.items()},
                                  {j: s * c for j, c in P_dot.items()},
                                  L, {}, g, {}, state.r, state.r_dot)
    return state


def test_proposition2_region_invariant_along_exact_evolution():
    rng = np.random.default_rng(77)
    a, b = 1.0, 0.5
    for n in (4, 8):
        for _ in range(5):
            state = _sample_region_state(rng, n)
            traj = [(t, evolve_state(state, a, b, float(t)))
                    for t in np.linspace(0.0, 2.0, 9)]
            report = check_proposition2(traj, n, a, b)
            assert report.invariant, f"exited region at t={report.first_violation_time}"
            assert report.first_violation_time is None
            assert report.aux_order_bound_ok
            assert report.aux_low_frequency_bound_ok


def test_proposition2_detects_initial_violation():
    # decaying branch dominant: E1+ < E1- already at t = 0
    j = 5
    state = PerturbationState(4, P={j: 1.0}, P_dot={j: -float(j)})
    report = check_proposition2([(0.0, state)], 4, 0.0, 0.0)
    assert not report.invariant
    assert report.first_violation_time == 0.0


def test_proposition2_aux_ratio_pure_mode():
    # E_{3/2}+ / E_1+ = j >= n for a pure f_j state
    j, n = 7, 4
    state = PerturbationState(n, P={j: 1.0}, P_dot={j: float(j)})
    rep = compute_functionals(state, [1.0, 1.5], 0.0, 0.0)
    assert rep.E_plus[1.5] / rep.E_plus[1.0] == pytest.approx(float(j), rel=1e-12)
    report = check_proposition2([(0.0, state)], n, 0.0, 0.0)
    assert report.aux_order_bound_ok


def test_proposition2_input_validation():
    with pytest.raises(ValueError):
        check_proposition2([], 4, 0.0, 0.0)
    s4 = PerturbationState(4, P={5: 1.0})
    s3 = PerturbationState(3, P={5: 1.0})
    with pytest.raises(ValueError):
        check_proposition2([(0.0, s4), (1.0, s3)], 4, 0.0, 0.0)
    with pytest.raises(ValueError):
        check_proposition2([(1.0, s4), (0.0, s4)], 4, 0.0, 0.0)


def test_growth_corollary_pure_mode_margin():
    n = 6
    state = PerturbationState(n, P={n: 1.0}, P_dot={n: float(n)})
    traj = [(t, evolve_state(state, 0.0, 0.0, float(t)))
            for t in np.linspace(0.0, 1.0, 6)]
    report = check_growth_corollary(traj, n)
    assert report.passed
    # E1+(t) = E1+(0) e^{2nt}, so the margin over e^{nt} is e^{nt}
    assert report.margins[-1] == pytest.approx(math.exp(n * 1.0), rel=1e-10)


def test_growth_corollary_mixture_passes():
    n = 4
    P = {4: 1.0, 6: 0.5j, 9: -0.25}
    P_dot = {j: j * c for j, c in P.items()}
    state = PerturbationState(n, P=P, P_dot=P_dot)
    traj = [(t, evolve_state(state, 0.0, 0.0, float(t)))
            for t in np.linspace(0.0, 1.5, 7)]
    assert check_growth_corollary(traj, n).passed


def test_growth_corollary_time_zero_only():
    state = PerturbationState(3, P={3: 1.0}, P_dot={3: 3.0})
    report = check_growth_corollary([(0.0, state)], 3)
    assert report.passed
    assert report.margins == [pytest.approx(1.0)]


def test_growth_corollary_undefined_ratio():
    with pytest.raises(ValueError):
        check_growth_corollary([(0.0, PerturbationState(3))], 3)


# ---------------------------------------------------------------------------
# vanishing initial data
# ---------------------------------------------------------------------------

def test_perturbed_data_shapes_and_sizes():
    chi, chi_dot = perturbed_initial_data(9, scale=1.0, n_tan=32, n_ver=16)
    # both are x2-constant planes; no full grid is allocated
    for c in (*chi, *chi_dot):
        assert c.values.shape == (2, 32, 1, 17)
    assert all(c.max_abs() == 0.0 for c in chi)
    amp = math.exp(-3.0)   # e^{-sqrt(9)}
    bound = amp * (1.0 / math.tanh(9.0) + 1e-9)
    assert max(c.max_abs() for c in chi_dot) <= bound
    # sup norm decreases as n grows
    sizes = []
    for n in (4, 9, 16, 25):
        _, cd = perturbed_initial_data(n, n_tan=64, n_ver=8)
        sizes.append(max(c.max_abs() for c in cd))
    assert all(x > y for x, y in zip(sizes, sizes[1:]))


def test_perturbed_data_decomposes_to_single_dot_mode():
    n = 6
    chi, chi_dot = perturbed_initial_data(n, n_tan=32, n_ver=16)
    state = decompose_perturbation(chi, chi_dot, n_cutoff=n)
    assert state.P == {} and state.L == {} and state.g == {}
    assert set(state.P_dot) == {n}
    expect = math.exp(-math.sqrt(n)) / n
    assert state.P_dot[n] == pytest.approx(expect, rel=1e-9)
    assert state.r_dot is None or max(c.max_abs() for c in state.r_dot) < 1e-9


def test_perturbed_data_growth_factor():
    # evolving the tiny data: amplitude follows sinh(n t)/n from rest and
    # the high-order readout beats e^{n t} e^{-sqrt(n)}
    n, t = 5, 1.0
    chi, chi_dot = perturbed_initial_data(n, n_tan=32, n_ver=16)
    state = decompose_perturbation(chi, chi_dot, n_cutoff=n)
    out = evolve_state(state, 0.0, 0.0, t)
    growth = abs(out.P[n]) / (math.exp(-math.sqrt(n)) / n)
    assert growth == pytest.approx(math.sinh(n * t) / n, rel=1e-9)
    assert h2_readout(out) >= math.exp(n * t) * math.exp(-math.sqrt(n))


def test_perturbed_data_rejects_bad_frequency():
    with pytest.raises(ValueError):
        perturbed_initial_data(0)
    # at or above n_tan/2 the mode e^{i n x1} aliases on the grid
    for n, n_tan in ((16, 32), (17, 32), (50, 64), (8, 15)):
        with pytest.raises(AliasingError):
            perturbed_initial_data(n, n_tan=n_tan, n_ver=8)
    perturbed_initial_data(7, n_tan=15, n_ver=8)
