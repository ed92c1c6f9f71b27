"""Decomposition, growth functionals and trajectory checks."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from khlab.core import (
    GridMismatchError,
    PerturbationState,
    TwoPhaseGridField,
    power_of_two_unit,
    tangential_grid,
    vertical_levels,
)
from khlab.eigenmodes import potential_gradient_norm_sq, potential_gradient_plane
from khlab import functionals
from khlab.evolution import evolve_state
from khlab.functionals import (
    GROWTH_TOL,
    AliasingError,
    check_growth_corollary,
    check_proposition2,
    compute_functionals,
    decompose_perturbation,
    h2_readout,
    perturbed_initial_data,
)

from reference_fields import (
    families,
    full_grid,
    inner_product_vector,
    plane_spectrum_agrees,
    potential_gradient_field,
    reconstruct_perturbation,
    x1_vector,
)


def _grad_f1_at(sup):
    grad_f1 = potential_gradient_plane([1], [1.0], [0], 16, 8)
    return grad_f1 * (sup / np.abs(grad_f1).max())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chi, chi_dot, n_cutoff", [
    # the interface trace FFT once summed values near 1.7e308 past the float range: four
    # RuntimeWarnings, then "remainder field keeps a wall-normal trace of 4.133e+307"
    pytest.param(*perturbed_initial_data(2, 1.7e308, 16, 32), 15, id="seed"),
    # a sup norm of 2^1023 or more raised a bare "math range error": the trace transform's
    # scaling unit, the next power of two, left the float range
    pytest.param(_grad_f1_at(1.7e308), np.zeros((3, 2, 16, 1, 9)), 1, id="sup-1.7e308"),
])
def test_decomposition_at_the_top_of_the_float_range_is_exactly_scaled(chi, chi_dot, n_cutoff):
    small = [v * 2.0 ** -600 for v in (chi, chi_dot)]
    big = decompose_perturbation(chi, chi_dot, n_cutoff)
    ref = decompose_perturbation(*small, n_cutoff)
    for name in ("j_odd", "j_even"):
        assert np.array_equal(getattr(big, name), getattr(ref, name))
    for name in ("w_plus", "w_minus", "g_values", "g_dot_values"):
        assert np.array_equal(getattr(big, name), 2.0 ** 600 * getattr(ref, name))
    assert big.w_plus.size and big.r_hat is None and big.r_dot_hat is None


@pytest.mark.filterwarnings("error")
def test_decomposition_names_what_leaves_the_float_range():
    # these raised a bare "math range error" (sup norm 2^1023 or more); with chi_dot = chi,
    # w+ = d + j*c = 2 c_1 is past the float range, so no state can hold it
    chi = _grad_f1_at(1.7e308)
    with pytest.raises(OverflowError, match=r"^w\+/- = d \+/- j\*c leave the float range"):
        decompose_perturbation(chi, chi, 1)
    # a trace (1, 0, -1, 0, ...) * 1.7e308, whose potential gradient peaks past the float
    # range, and a constant full-grid r, whose x2 transform sums past it
    spike = np.zeros((3, 2, 8, 1, 5))
    spike[2, 0, :3, 0, 0] = (1.7e308, 0.0, -1.7e308)
    flat = np.zeros((3, 2, 8, 8, 5))
    flat[0] = 1.7e308
    for data in (spike, flat):
        with pytest.raises(OverflowError, match="^the potential gradient or the x2 spectrum of r "
                                                "leaves the float range"):
            decompose_perturbation(data, np.zeros_like(data), 1)


@pytest.mark.parametrize("n_cutoff", [2, 3])   # the j = 2 term in P, then in L
def test_odd_views_of_characteristic_amplitudes_at_the_top_of_the_float_range(n_cutoff):
    # the trace 1e308 * (1, 1, -1, -1, ...) on both sides gives the finite w+/- =
    # +/-1e308 * (1 - i), and c = (w+ - w-)/(2j) read P = {2: nan+nanj}, with no error
    chi = np.zeros((3, 2, 8, 1, 5))
    chi[2, 0, :, 0, 0] = chi[2, 1, :, 0, -1] = 1e308 * np.array([1.0, 1.0, -1.0, -1.0] * 2)
    big = decompose_perturbation(chi, np.zeros_like(chi), n_cutoff)
    ref = decompose_perturbation(chi * 2.0 ** -600, np.zeros_like(chi), n_cutoff)
    assert big.j_odd.tolist() == [2] and big.w_plus.tolist() == [1e308 * (1 - 1j)]
    odd = big.P or big.L
    assert list(odd) == [2] and math.isfinite(abs(odd[2]))
    for name in ("P", "P_dot", "L", "L_dot"):
        assert getattr(big, name) == {j: 2.0 ** 600 * x for j, x in getattr(ref, name).items()}


def test_views_of_an_infinite_amplitude_read_inf_not_nan():
    # w+ = inf, as exact evolution reaches by e^{j t} growth through _from_spectra (the
    # constructor now rejects it); halving each part keeps the views at inf, where Python's
    # complex quotient read the zero imaginary part as NaN
    none, empty = np.array([], dtype=np.int64), np.array([], dtype=complex)
    state = PerturbationState._from_spectra(1, np.array([1]), np.array([complex(math.inf, 0.0)]),
                                            np.array([0j]), none, empty, empty, None, None)
    assert state.P == state.P_dot == {1: complex(math.inf, 0.0)}


def test_constructor_rejects_w_past_the_float_range_and_non_finite_amplitudes():
    # PerturbationState(1, P={1: 1e308}, P_dot={1: 1e308}) stored w+ = 2e308 = inf and its
    # views read inf, while the decomposition raised OverflowError for the same amplitudes
    for kwargs in ({"P": {2: 1e308}, "P_dot": {2: 1e308}}, {"L": {1: -1e308}, "L_dot": {1: 1e308}}):
        with pytest.raises(OverflowError, match="^w\\+/- = d \\+/- j\\*c leave the float range"):
            PerturbationState(2, **kwargs)
    for key, name in (("P", "P and L coefficients"), ("L", "P and L coefficients"),
                      ("P_dot", "P_dot and L_dot velocities"),
                      ("L_dot", "P_dot and L_dot velocities")):
        for bad in (math.inf, complex(0.0, -math.inf), math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                PerturbationState(2, **{key: {2 if key.startswith("P") else 1: bad}})


def _grad_f(j, coeff, n_tan, n_ver):
    return potential_gradient_field({j: coeff}, {}, n_tan, n_ver)


def _grad_g(j, coeff, n_tan, n_ver):
    return potential_gradient_field({}, {j: coeff}, n_tan, n_ver)


def _zeros(n_tan, n_ver):
    return np.zeros((3, 2, n_tan, n_tan, n_ver + 1))


def _max_diff(f, g):
    return np.max(np.abs(f - g))


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
    assert state.r is None or np.abs(state.r).max() < 1e-10
    assert state.P_dot == {} and state.L_dot == {} and state.g_dot == {}


def test_decompose_projects_even_element():
    n_tan, n_ver = 32, 16
    chi = _grad_g(2, 1.0, n_tan, n_ver)
    state = decompose_perturbation(chi, _zeros(n_tan, n_ver), 4)
    assert set(state.g) == {2}
    assert state.g[2] == pytest.approx(1.0, abs=1e-10)
    assert state.P == {} and state.L == {}
    assert state.r is None or np.abs(state.r).max() < 1e-10


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
    r_test = x1_vector(r1)   # divergence-free, third component zero
    chi = chi_h + r_test
    state = decompose_perturbation(chi, _zeros(n_tan, n_ver), 3)
    assert state.P[5] == pytest.approx(1.0, abs=1e-10)
    assert _max_diff(state.r, r_test) < 1e-9
    grad_h = _grad_f(5, state.P[5], n_tan, n_ver)
    assert abs(inner_product_vector(grad_h, state.r)) < 1e-9


def test_decompose_mixture_cross_contamination():
    n_tan, n_ver = 32, 16
    chi = _grad_f(6, 0.8 - 0.3j, n_tan, n_ver) + _grad_g(2, 1.5j, n_tan, n_ver)
    chi_dot = _grad_f(2, 0.5, n_tan, n_ver)
    state = decompose_perturbation(chi, chi_dot, n_cutoff=4)
    assert state.P[6] == pytest.approx(0.8 - 0.3j, abs=1e-10)
    assert state.g[2] == pytest.approx(1.5j, abs=1e-10)
    assert state.L_dot[2] == pytest.approx(0.5, abs=1e-10)
    assert set(state.P) == {6} and set(state.g) == {2} and set(state.L_dot) == {2}
    assert state.r is None or np.abs(state.r).max() < 1e-9
    assert state.r_dot is None or np.abs(state.r_dot).max() < 1e-9


def test_decompose_reconstruct_round_trip():
    n_tan, n_ver = 32, 16
    r2 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(2 * x2) * np.cos(x3), n_tan, n_ver)
    zero = np.zeros_like(r2.values)
    state = PerturbationState(
        4,
        P={5: 0.3 + 0.2j, 7: -1.0}, P_dot={5: 0.1j},
        L={2: -0.4}, L_dot={3: 0.25},
        g={3: 0.9 - 0.1j}, g_dot={1: 1.0},
        r=np.array([zero, r2.values, zero]), r_dot=np.array([r2.values, zero, zero]))
    chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
    back = decompose_perturbation(chi, chi_dot, 4)
    for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"):
        got, expect = getattr(back, name), getattr(state, name)
        assert set(got) == set(expect)
        for j in expect:
            assert got[j] == pytest.approx(expect[j], abs=1e-10)
    assert _max_diff(back.r, state.r) < 1e-9
    assert _max_diff(back.r_dot, state.r_dot) < 1e-9


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
            return values

        state = PerturbationState(
            n_cutoff, P=block(n_cutoff, top), P_dot=block(n_cutoff, top),
            L=block(1, n_cutoff - 1), L_dot=block(1, n_cutoff - 1),
            g=block(1, top), g_dot=block(1, top), r=r_block(), r_dot=r_block())
        return state, n_tan, n_ver

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(cases())
    # P's 6.5e-13 leaves the interface trace 1.3e-12, just below the tolerance 1.31e-12
    # set by g: it is dropped and r comes back at about 1.35e-12
    @hypothesis.example((PerturbationState(1, P={2: 6.5e-13}, g={1: 1.0}), 8, 2))
    def check(case):
        state, n_tan, n_ver = case
        chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
        back = decompose_perturbation(chi, chi_dot, state.n_cutoff)
        for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"):
            got, expect = getattr(back, name), getattr(state, name)
            # a term whose interface trace j*|c| is at or below the tolerance is dropped,
            # so it reads 0
            for j in set(got) | set(expect):
                assert got.get(j, 0.0) == pytest.approx(expect.get(j, 0.0), abs=1e-10)
        for got, expect, names in ((back.r, state.r, ("P", "L", "g")),
                                   (back.r_dot, state.r_dot, ("P_dot", "L_dot", "g_dot"))):
            if expect is not None:
                assert got is not None
                assert _max_diff(got, expect) < 1e-9
            elif got is not None:
                # an absent block stays absent: its round-off is dropped.  Only a
                # nonzero term with its trace at or below the tolerance, dropped with
                # its gradient left in the block, brings it back, at that scale
                assert any(c != 0 and j not in getattr(back, name)
                           for name in names for j, c in getattr(state, name).items())
                assert np.max(np.abs(got)) < 1e-9
        again = reconstruct_perturbation(back, n_tan, n_ver)
        for got, expect in zip(again, (chi, chi_dot)):
            assert _max_diff(got, expect) < 1e-9

    check()


def test_sub_tolerance_coefficient_is_kept_by_its_interface_trace():
    # each vector's tolerance follows its own scale: P's unit coefficient gives chi a sup
    # norm near 2, which raises the tolerance above g's |c| = 1.4e-12 in the same vector
    # but not above the interface trace 3*|c| that g_3 leaves, so g_3 is kept and no r is left
    n_tan, n_ver = 8, 2
    state = PerturbationState(1, P={2: 1.0}, g={3: 1e-12 + 1e-12j})
    chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
    tol = 1e-12 * np.abs(chi).max()
    assert abs(state.g[3]) < tol < 3 * abs(state.g[3])
    back = decompose_perturbation(chi, chi_dot, 1)
    assert set(back.g) == {3} and back.g[3] == pytest.approx(state.g[3], rel=1e-4)
    assert back.r_hat is None and back.r_dot_hat is None
    again, _ = reconstruct_perturbation(back, n_tan, n_ver)
    assert _max_diff(again, chi) < 1e-9


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
    plane = potential_gradient_plane(*families({2: 0.7 - 0.2j}, {3: 0.4j * phase}), n_tan, n_ver)
    x1 = tangential_grid(n_tan)
    for p, z in enumerate(map(np.asarray, vertical_levels(n_ver))):
        plane[0, p, :, 0] += np.outer(np.cos(x1 + phase), 1.0 + z)
        plane[1, p, :, 0] += np.outer(np.sin(2 * x1), 0.5 + z ** 2)
        plane[2, p, :, 0] += np.outer(np.cos(3 * x1 + phase), z * (1.0 - np.abs(z)))
    return plane


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
        # a plane keeps k2 = 0 alone, the same as the full grid's
        for p_hat, f_hat in ((p.r_hat, f.r_hat), (p.r_dot_hat, f.r_dot_hat)):
            if exact:
                assert np.array_equal(p_hat, f_hat[:, :, :, :1])
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
    weights = np.array([0.5, 0.2, 0.0])[:, None, None, None, None]
    chi_dot = full_grid(_plane_data(n_tan, n_ver, -1.1)) + weights * spanwise
    state = decompose_perturbation(chi, chi_dot, 2)
    reference = decompose_perturbation(full_grid(chi), chi_dot, 2)
    assert set(state.P) == {2} and set(state.g) == {3} and set(state.g_dot) == {3}
    assert np.array_equal(state.r_hat, reference.r_hat)
    assert np.array_equal(state.r_dot_hat, reference.r_dot_hat)
    # chi's remainder is x2-constant, so it reconstructs as the plane it came from
    back, back_dot = reconstruct_perturbation(state, n_tan, n_ver)
    for got, expect in zip((back, back_dot), (chi, chi_dot)):
        assert _max_diff(got, expect) < 1e-12


def test_decompose_rejects_wall_violation():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(x1) * np.ones_like(x3), n_tan, n_ver)
    zero = np.zeros_like(bad3.values)
    with pytest.raises(ValueError, match="wall"):
        decompose_perturbation(np.array([zero, zero, bad3.values]),
                               _zeros(n_tan, n_ver), 2)


def test_potential_split_is_the_scalar_loop_bit_for_bit():
    # the vectorised split against the loop of Python complex arithmetic it replaced: each
    # term c = (cu +/- cl)/j is kept when its trace j*|c| exceeds tol, else it reads 0
    n = 32
    x1 = tangential_grid(n)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal((4, n // 2 - 1)) * 10.0 ** rng.integers(-14, 1, n // 2 - 1)
    up, lo = (sum(a[0, k - 1] * np.cos(k * x1) + a[1, k - 1] * np.sin(k * x1)
                  for k in range(1, n // 2))[:, None] for a in (amps[:2], amps[2:]))
    sup = float(max(np.abs(up).max(), np.abs(lo).max()))
    tol = 1e-12 * sup
    j, odd, even = functionals._potential_split(up, lo, tol, sup)
    unit = power_of_two_unit(sup)
    su, sl = (np.fft.fft2(trace / unit, norm="forward") * unit for trace in (up, lo))
    assert j.tolist() == list(range(1, n // 2))
    for k in range(1, n // 2):
        cu, cl = complex(su[k, 0]), complex(sl[k, 0])
        c_f, c_g = (cu + cl) / k, (cl - cu) / k
        assert odd[k - 1] == (c_f if k * abs(c_f) > tol else 0), k
        assert even[k - 1] == (c_g if k * abs(c_g) > tol else 0), k
    assert 0 < np.count_nonzero(odd) < n // 2 - 1 and 0 < np.count_nonzero(even) < n // 2 - 1


@pytest.mark.parametrize("share", [0.9e-12, 0.5e-12])
@pytest.mark.parametrize("family", ["odd", "even"])
def test_a_potential_term_is_kept_by_its_interface_trace(family, share):
    # the coefficient of the j = 1500 term is below the tolerance 1e-12 * sup|chi|, but the
    # interface trace 1500*|c| it leaves is above it, and above the remainder check's
    # 1e-9 * sup|chi| at share 0.9e-12: the term is kept and the data leave no r
    n_tan, n_ver, j = 4096, 8, 1500
    sup = float(np.abs(potential_gradient_plane([1], [1.0], [0], n_tan, n_ver)).max())
    term = {j: share * sup}
    chi = potential_gradient_plane(*families({1: 1.0, **term} if family == "odd" else {1: 1.0},
                                             term if family == "even" else {}), n_tan, n_ver)
    assert float(np.abs(chi).max()) == sup
    state = decompose_perturbation(chi, np.zeros_like(chi), 1)
    kept = state.P if family == "odd" else state.g
    assert set(kept) == ({1, j} if family == "odd" else {j})
    assert kept[j] == pytest.approx(share * sup, rel=1e-3)
    assert state.r_hat is None and state.r_dot_hat is None


def test_a_gradient_that_misses_the_trace_is_a_fault(monkeypatch):
    # a fault check: with a correct potential builder the kept terms absorb the trace, so
    # a builder that lays half of each gradient stands in for the fault
    chi = potential_gradient_plane([3], [0.4], [0], 16, 8)
    monkeypatch.setattr(functionals, "potential_gradient_plane",
                        lambda *args: 0.5 * potential_gradient_plane(*args))
    # sup|chi| is 1.206 here, so the bound (1e-9 + 16e-12)*sup|chi| is 1.225e-09
    with pytest.raises(ValueError, match=re.escape(
            "remainder field keeps a wall-normal trace of 6.000e-01, above "
            "(1e-9 + n_tan*1e-12)*sup|chi| = 1.225e-09;")):
        decompose_perturbation(chi, np.zeros_like(chi), 3)


@pytest.mark.parametrize("n_tan, paired", [(2048, True), (4096, False)])
def test_many_dropped_terms_stay_within_the_remainder_check(n_tan, paired):
    # every term j >= 2 leaves the interface trace 0.9e-12 * sup|grad f_1|, just below the
    # tolerance 1e-12 * sup|chi| (sup|chi| = sup|grad f_1| to 1e-12), so all are dropped:
    # 2044 terms in odd/even pairs at n_tan 2048, or 2046 odd terms alone at 4096.  Their
    # traces add up to 1.84e-9 * sup|chi| at x1 = 0, past 1e-9 * sup|chi| but within the
    # remainder check's bound (1e-9 + n_tan * 1e-12) * sup|chi|: 3.05e-9 * sup|chi| at
    # n_tan 2048 and 5.10e-9 * sup|chi| at 4096
    n_ver = 2
    sup = float(np.abs(potential_gradient_plane([1], [1.0], [0], n_tan, n_ver)).max())
    tiny = {j: 0.9e-12 * sup / j for j in range(2, n_tan // 2)}
    even = {j: -c for j, c in tiny.items()} if paired else {}
    chi = potential_gradient_plane(*families({1: 1.0, **tiny}, even), n_tan, n_ver)
    state = decompose_perturbation(chi, np.zeros_like(chi), 1)
    assert set(state.P) == {1} and state.g == {}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("which", ["chi", "chi_dot"])
def test_decompose_rejects_non_finite_data(which, bad):
    # the tolerance is 1e-12 * sup|vector|, which needs a finite sup: inf once gave the
    # exact zero state and nan an r block of nan
    good = potential_gradient_plane([2], [1.0], [0], 16, 8)
    broken = good.copy()
    broken[0, 0, 3, 0, 4] = bad
    pair = (broken, good) if which == "chi" else (good, broken)
    with pytest.raises(ValueError, match="^chi and chi_dot must be finite$"):
        decompose_perturbation(*pair, 2)


@pytest.mark.parametrize("grid", ["plane", "full"])
def test_decomposition_leaves_its_input_unchanged(grid):
    # the remainder is a new array, not a copy of chi written in place, so chi and chi_dot
    # keep every bit although both hold a potential part and a remainder (the shifts of the
    # x1 component make r and r_dot nonzero)
    chi = potential_gradient_plane([6], [1.0], [0.5], 32, 16)
    chi_dot = perturbed_initial_data(5, 1.0, 32, 16)[1]
    chi[0] += 0.25
    chi_dot[0] -= 0.5 * chi_dot[2]
    if grid == "full":
        chi, chi_dot = full_grid(chi), full_grid(chi_dot)
    before = chi.tobytes(), chi_dot.tobytes()
    state = decompose_perturbation(chi, chi_dot, 5)
    assert state.P and state.P_dot and state.g
    assert state.r is not None and state.r_dot is not None
    assert (chi.tobytes(), chi_dot.tobytes()) == before


def test_decomposition_plane_peak_memory():
    # warmed up, so numpy's lazy imports are not counted, the n_tan = n_ver = 64 seed planes
    # (199 680 B each) peaked at 613 943 B with chi copied before the gradient plane was built
    # and at 414 167 B with the remainder built after it (tracemalloc, Python 3.11, numpy 2.4)
    data = perturbed_initial_data(5, 1.0, 64, 64)
    decompose_perturbation(*data, 5)
    tracemalloc.start()
    try:
        decompose_perturbation(*data, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2 ** 10, peak


@pytest.mark.parametrize("shape", [
    pytest.param((2, 2, 16, 16, 9), id="two-components"),
    pytest.param((3, 1, 16, 16, 9), id="one-phase"),
    pytest.param((3, 2, 16, 8, 9), id="x2-extent"),
    pytest.param((3, 2, 16, 2, 9), id="x2-extent-2"),
    pytest.param((3, 2, 16, 16, 1), id="no-vertical-interval"),
    pytest.param((2, 16, 16, 9), id="scalar-field"),
    pytest.param((3, 2, 16, 16), id="no-x3-axis"),
    pytest.param((1, 3, 2, 16, 16, 9), id="extra-axis"),
])
def test_grid_vector_of_another_shape_is_rejected(shape):
    # a grid 3-vector is one array of shape (3, 2, n_tan, n_tan or 1, n_ver + 1); every
    # entry point checks it once and names any other shape
    bad, good = np.zeros(shape), _zeros(16, 8)
    for call in (lambda: decompose_perturbation(bad, good, 2),
                 lambda: decompose_perturbation(good, bad, 2),
                 lambda: PerturbationState(2, r=bad),
                 lambda: PerturbationState(2, r_dot=bad)):
        with pytest.raises(GridMismatchError, match=r"must have shape \(3, 2, n_tan, "):
            call()
    # the two accepted x2 extents
    for vec in (good, good[:, :, :, :1]):
        decompose_perturbation(vec, vec, 2)
        assert PerturbationState(2, r=vec, r_dot=vec).r.shape == vec.shape


def test_decompose_rejects_spanwise_interface_content():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(x2) * np.cos(0.5 * math.pi * x3), n_tan, n_ver)
    zero = np.zeros_like(bad3.values)
    with pytest.raises(ValueError, match="streamwise"):
        decompose_perturbation(np.array([zero, zero, bad3.values]),
                               _zeros(n_tan, n_ver), 2)


def test_decompose_reports_aliasing():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(8 * x1) * np.cos(0.5 * math.pi * x3), n_tan, n_ver)
    zero = np.zeros_like(bad3.values)
    with pytest.raises(AliasingError):
        decompose_perturbation(np.array([zero, zero, bad3.values]),
                               _zeros(n_tan, n_ver), 2)


def test_decompose_rejects_nonzero_mean_trace():
    n_tan, n_ver = 16, 8
    bad3 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(0.5 * math.pi * x3) * np.ones_like(x1), n_tan, n_ver)
    zero = np.zeros_like(bad3.values)
    with pytest.raises(ValueError, match="mean"):
        decompose_perturbation(np.array([zero, zero, bad3.values]),
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
    r = x1_vector(comp)
    state = PerturbationState(2, r=r, r_dot=np.zeros_like(r))
    rep = compute_functionals(state, [1.0], a, b)
    # single x2 mode: the weighted norm is (weight * m)^2 per phase
    up = comp.values * np.array([1.0, 0.0])[:, None, None, None]
    lo = comp.values * np.array([0.0, 1.0])[:, None, None, None]
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
    r = x1_vector(comp)
    state = PerturbationState(n, P, P_dot, L, {}, g, {}, r, np.zeros_like(r))
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


def test_the_side_bounds_hold_for_any_state_property():
    # a state keeps exactly the j >= n in P and the j < n in L, whatever keys and w+/- it is
    # built from, so E_3/2+/- >= n E_1+/- (j^3 >= n j^2 term by term) and ||A L|| <=
    # (n-1)^2 ||L|| (j^4 <= (n-1)^4) hold without a check.  |w| >= 1e-150 or 0 keeps each
    # term's square normal: on subnormal terms (j = n = 64, |w| near 1e-160) the sums lose
    # more than the 1e-12 relative guard
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.just(0j) | st.complex_numbers(min_magnitude=1e-150, max_magnitude=1e100,
                                             allow_nan=False, allow_infinity=False)

    @st.composite
    def states(draw):
        n = draw(st.integers(1, 80))
        keys = np.array(sorted(draw(st.lists(st.integers(1, 64), unique=True, max_size=8))),
                        dtype=np.int64)
        w_plus, w_minus = (np.array([draw(coeff) for _ in keys], dtype=complex)
                           for _ in range(2))
        empty = np.zeros(0, dtype=complex)
        return PerturbationState._from_spectra(n, keys, w_plus, w_minus, keys[:0], empty, empty,
                                               None, None)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(states())
    def check(state):
        n = state.n_cutoff
        assert all(j >= n for j in [*state.P, *state.P_dot])
        assert all(j < n for j in [*state.L, *state.L_dot])
        rep = compute_functionals(state, [1.0, 1.5], 0.0, 0.0)
        for E in (rep.E_plus, rep.E_minus):
            assert E[1.5] >= n * E[1.0] * (1 - 1e-12)

    check()


def test_proposition2_input_validation():
    with pytest.raises(ValueError):
        check_proposition2([], 4, 0.0, 0.0)
    s4 = PerturbationState(4, P={5: 1.0})
    s3 = PerturbationState(3, P={5: 1.0})
    with pytest.raises(ValueError):
        check_proposition2([(0.0, s4), (1.0, s3)], 4, 0.0, 0.0)
    with pytest.raises(ValueError):
        check_proposition2([(1.0, s4), (0.0, s4)], 4, 0.0, 0.0)


_PLANE_ZEROS = np.zeros((3, 2, 8, 1, 5))


@pytest.mark.parametrize("build, message", [
    (lambda: PerturbationState(0), "n_cutoff must be an integer >= 1, got 0"),
    (lambda: PerturbationState(3, P={2: 1.0}), "P coefficient 2 below cutoff 3"),
    (lambda: PerturbationState(3, L={3: 1.0}), r"L coefficient 3 outside \[1, 3\)"),
    (lambda: PerturbationState(3, g={0: 1.0}), "g coefficients are indexed by j >= 1"),
    (lambda: potential_gradient_norm_sq(0), "potential frequency j must be >= 1"),
    (lambda: decompose_perturbation(_PLANE_ZEROS, _PLANE_ZEROS, n_cutoff=0),
     "n_cutoff must be an integer >= 1, got 0"),
], ids=["state-cutoff", "P-below-cutoff", "L-outside", "g-index", "norm-frequency",
        "decompose-cutoff"])
def test_invalid_arguments_raise_a_named_value_error(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("cutoff", [math.nan, 2.5, 0, 3.0, -1, np.float64(3.0)])
def test_a_cutoff_that_is_not_an_integer_above_zero_is_rejected(cutoff):
    # PerturbationState(nan, P={3: 1}) was accepted and its P read back as L ({3: 1}), since
    # j < nan is False; 2.5 was accepted too.  The constructor and the decomposition share
    # one check
    message = rf"^n_cutoff must be an integer >= 1, got {re.escape(repr(cutoff))}$"
    with pytest.raises(ValueError, match=message):
        PerturbationState(cutoff, P={3: 1.0})
    with pytest.raises(ValueError, match=message):
        decompose_perturbation(_PLANE_ZEROS, _PLANE_ZEROS, cutoff)


def test_an_integer_cutoff_of_any_integer_type_is_accepted():
    for cutoff in (3, np.int64(3)):
        state = PerturbationState(cutoff, P={3: 1.0}, L={2: 1.0})
        assert state.n_cutoff == 3 and type(state.n_cutoff) is int
        assert state.P == {3: 1.0} and state.L == {2: 1.0}
        assert decompose_perturbation(_PLANE_ZEROS, _PLANE_ZEROS, cutoff).n_cutoff == 3


def test_growth_corollary_pure_mode_margin():
    n = 6
    state = PerturbationState(n, P={n: 1.0}, P_dot={n: float(n)})
    traj = [(t, evolve_state(state, 0.0, 0.0, float(t)))
            for t in np.linspace(0.0, 1.0, 6)]
    report = check_growth_corollary(traj, n)
    assert report.passed and min(report.margins) >= 1 - 1e-8
    # E1+(t) = E1+(0) e^{2nt}, so the margin over e^{nt} is e^{nt}
    assert report.margins[-1] == pytest.approx(math.exp(n * 1.0), rel=1e-10)


def test_growth_corollary_mixture_passes():
    n = 4
    P = {4: 1.0, 6: 0.5j, 9: -0.25}
    P_dot = {j: j * c for j, c in P.items()}
    state = PerturbationState(n, P=P, P_dot=P_dot)
    traj = [(t, evolve_state(state, 0.0, 0.0, float(t)))
            for t in np.linspace(0.0, 1.5, 7)]
    report = check_growth_corollary(traj, n)
    assert report.passed and min(report.margins) >= 1 - 1e-8


def test_growth_corollary_time_zero_only():
    state = PerturbationState(3, P={3: 1.0}, P_dot={3: 3.0})
    report = check_growth_corollary([(0.0, state)], 3)
    assert report.passed and min(report.margins) >= 1 - 1e-8
    assert report.margins == [pytest.approx(1.0)]
    assert report.growth_factor == 1.0 and report.required_factor == 1 - GROWTH_TOL


def test_growth_corollary_certificate_starts_at_the_first_sample():
    # the certificate runs from the first sample time t0 = 0.5, not from t = 0: over
    # T - t0 = 1 it asks for e^{n} (148.4 at n = 5), not e^{n T} = e^{7.5} (1808.0)
    n = 5
    state = PerturbationState(n, P={n: 1.0}, P_dot={n: float(n)})
    traj = [(t, evolve_state(state, 0.0, 0.0, t)) for t in (0.5, 1.0, 1.5)]
    report = check_growth_corollary(traj, n)
    E1 = [compute_functionals(s, [1.0], 0.0, 0.0, t=t).E_plus[1.0] for t, s in traj]
    assert report.passed and report.times == [0.5, 1.0, 1.5]
    assert report.required_factor == math.exp(n * 1.0) * (1 - GROWTH_TOL)
    assert report.growth_factor == E1[-1] / E1[0]


def test_growth_corollary_fails_a_trajectory_that_does_not_grow():
    # the same state at t = 0 and t = 1: E1+ stays put, where the certificate asks for e^{n}
    state = PerturbationState(3, P={3: 1.0}, P_dot={3: 3.0})
    report = check_growth_corollary([(0.0, state), (1.0, state)], 3)
    assert not report.passed and report.margins == [1.0, pytest.approx(math.exp(-3.0))]
    assert report.growth_factor == 1.0
    assert report.required_factor == math.exp(3.0) * (1 - GROWTH_TOL)


def test_growth_corollary_undefined_ratio():
    with pytest.raises(ValueError):
        check_growth_corollary([(0.0, PerturbationState(3))], 3)


@pytest.mark.parametrize("t0", [0.0, 0.5])
def test_growth_corollary_undefined_ratio_names_the_reference_sample(t0):
    # the reference is the first sample: at t0 = 0.5 the message named E1+(0)
    with pytest.raises(ValueError, match=re.escape(
            f"E1+(t0) = 0 at t0 = {t0}: growth ratio undefined")):
        check_growth_corollary([(t0, PerturbationState(3))], 3)


# ---------------------------------------------------------------------------
# vanishing initial data
# ---------------------------------------------------------------------------

def test_perturbed_data_shapes_and_sizes():
    chi, chi_dot = perturbed_initial_data(9, scale=1.0, n_tan=32, n_ver=16)
    # both are x2-constant planes; no full grid is allocated
    assert chi.shape == chi_dot.shape == (3, 2, 32, 1, 17)
    assert chi.dtype == chi_dot.dtype == float
    assert not chi.any()
    amp = math.exp(-3.0)   # e^{-sqrt(9)}
    bound = amp * (1.0 / math.tanh(9.0) + 1e-9)
    assert np.abs(chi_dot).max() <= bound
    # sup norm decreases as n grows
    sizes = []
    for n in (4, 9, 16, 25):
        _, cd = perturbed_initial_data(n, n_tan=64, n_ver=8)
        sizes.append(np.abs(cd).max())
    assert all(x > y for x, y in zip(sizes, sizes[1:]))


def test_perturbed_data_decomposes_to_single_dot_mode():
    n = 6
    chi, chi_dot = perturbed_initial_data(n, n_tan=32, n_ver=16)
    state = decompose_perturbation(chi, chi_dot, n_cutoff=n)
    assert state.P == {} and state.L == {} and state.g == {}
    assert set(state.P_dot) == {n}
    expect = math.exp(-math.sqrt(n)) / n
    assert state.P_dot[n] == pytest.approx(expect, rel=1e-9)
    assert state.r_dot is None or np.abs(state.r_dot).max() < 1e-9


def test_decomposed_coefficients_are_keyed_by_python_int():
    # keys must be Python ints, as in a state built by hand: json rejects numpy.int64 keys
    seed = decompose_perturbation(*perturbed_initial_data(4, 1.0, 32, 16), 4)
    mixed = decompose_perturbation(_plane_data(16, 6, 0.3), _plane_data(16, 6, -1.1), 3)
    assert set(seed.P_dot) == {4} and set(mixed.L) == {2} and set(mixed.g_dot) == {3}
    for state in (seed, mixed):
        for s in (state, evolve_state(state, 0.7, 1.3, 0.5)):
            for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"):
                assert all(type(j) is int for j in getattr(s, name)), name
                json.dumps(dict.fromkeys(getattr(s, name), 0))


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
