"""The r block stored as its x2 spectrum: Parseval energy, FFT-free hot paths, streaming."""

import numpy as np
import pytest

from khlab.core import (
    GridMismatchError,
    PerturbationState,
    TwoPhaseGridField,
    _unstack,
    tangential_grid,
)
from khlab.evolution import StabilityError, apply_A, default_rk4_dt, evolve_state
from khlab.functionals import (
    _r_energy,
    check_growth_corollary,
    check_proposition2,
    compute_functionals,
    decompose_perturbation,
    perturbed_initial_data,
)

from reference_fields import (
    full_grid,
    inner_product_vector,
    plane_spectrum_agrees,
    reconstruct_perturbation,
)


def apply_x2_multiplier(f: TwoPhaseGridField, multiplier) -> TwoPhaseGridField:
    """Test-only grid reference: a real Fourier multiplier in x2, multiplier(|k2|) per mode.

    multiplier is a callable on the frequencies 0..n_tan//2 of the real
    transform; the result is the real field of the multiplier extended
    evenly in k2.
    """
    n = f.n_tan
    m = np.asarray(multiplier(np.arange(n // 2 + 1)), dtype=float)[:, None]
    return TwoPhaseGridField(np.fft.irfft(np.fft.rfft(f.values, axis=2) * m, n=n, axis=2))


def test_x2_multiplier_single_mode():
    f = TwoPhaseGridField.from_function(lambda x1, x2, x3: np.cos(4 * x2) + 0 * x3, 16, 4)
    out = apply_x2_multiplier(f, lambda k2: k2 ** 2)
    expect = TwoPhaseGridField.from_function(lambda x1, x2, x3: 16.0 * np.cos(4 * x2) + 0 * x3,
                                             16, 4)
    assert np.max(np.abs(out.values - expect.values)) < 1e-10


def _r_vector(n_tan, n_ver, seed):
    """A 3-vector with content at k2 = 0, a generic k2 and the top (Nyquist) k2.

    The third component carries x3 * (1 - |x3|), which is exactly zero on
    the interface and wall rows.
    """
    rng = np.random.default_rng(seed)
    top = n_tan // 2
    comps = []
    for i in range(3):
        c0, c1, c2, phase = rng.uniform(0.5, 1.5, 4)

        def fn(x1, x2, x3, i=i, c0=c0, c1=c1, c2=c2, phase=phase):
            values = (c0 * np.cos(x1) * (1.0 + x3)
                      + c1 * np.cos(3 * x2 + phase) * (0.5 + x3 ** 2)
                      + c2 * np.cos(top * x2) * np.sin(2 * x1 + phase) * (1.0 - x3))
            return values * x3 * (1.0 - np.abs(x3)) if i == 2 else values

        comps.append(TwoPhaseGridField.from_function(fn, n_tan, n_ver))
    return tuple(comps)


def _grid_r_energy(r, r_dot, a, b):
    """Test-only reference: the weighted x2 multiplier on the grid, then quadrature."""
    weighted = []
    for comp in r:
        d = apply_x2_multiplier(comp, np.abs)
        weighted.append(TwoPhaseGridField(np.array([a, b])[:, None, None, None] * d.values))
    return inner_product_vector(weighted, weighted) + inner_product_vector(r_dot, r_dot)


@pytest.mark.parametrize("n_tan", [16, 15])
def test_parseval_energy_matches_grid_quadrature(n_tan):
    n_ver, a, b = 6, 1.7, 0.4
    r, r_dot = _r_vector(n_tan, n_ver, 1), _r_vector(n_tan, n_ver, 2)
    state = PerturbationState(2, r=r, r_dot=r_dot)
    expect = _grid_r_energy(r, r_dot, a, b)
    assert _r_energy(state, a, b) == pytest.approx(expect, rel=1e-12, abs=0)
    # each part on its own, so an error in one weight cannot hide in the sum
    only_r = PerturbationState(2, r=r)
    only_dot = PerturbationState(2, r_dot=r_dot)
    assert _r_energy(only_r, a, b) == pytest.approx(
        _grid_r_energy(r, [], a, b), rel=1e-12, abs=0)
    assert _r_energy(only_dot, a, b) == pytest.approx(
        inner_product_vector(r_dot, r_dot), rel=1e-12, abs=0)


def test_r_stored_as_x2_spectrum_and_read_back_on_the_grid():
    n_tan, n_ver = 16, 6
    r = _r_vector(n_tan, n_ver, 3)
    state = PerturbationState(2, r=r)
    assert state.r_hat.shape == (3, 2, n_tan, n_tan // 2 + 1, n_ver + 1)
    assert state.r_dot_hat is None and state.r_dot is None
    for got, expect in zip(state.r, r):
        assert isinstance(got, TwoPhaseGridField)
        assert np.max(np.abs(got.values - expect.values)) < 1e-13
    # the read view of the third component keeps exact zero interface and wall rows
    r3 = state.r[2]
    for values in r3.values:
        assert np.all(values[:, :, [0, -1]] == 0.0)


def _r_plane(n_tan, n_ver, c1, c3):
    """x2-constant r: c1 cos x1 in r1, c3 sin 2x1 off the interface and wall rows in r3."""
    x1 = tangential_grid(n_tan)
    values = np.zeros((3, 2, n_tan, 1, n_ver + 1))
    values[0] = c1 * np.cos(x1)[:, None, None]
    values[2, :, :, 0, 1:-1] = c3 * np.sin(2 * x1)[:, None]
    return _unstack(values)


def test_state_from_plane_r_fields_matches_full_grid():
    # a plane stands for its x2 repeat: the state keeps the plane's k2 = 0 alone,
    # n_tan times smaller than the repeat's, whose other k2 are zero; with n_tan
    # a power of two every r consumer reads the same numbers from either input
    n_tan, n_ver, a, b, t = 16, 8, 0.7, 1.3, 0.6
    r, r_dot = _r_plane(n_tan, n_ver, 1.0, 0.5), _r_plane(n_tan, n_ver, -0.3, 2.0)
    on_plane = PerturbationState(2, r=r, r_dot=r_dot)
    on_grid = PerturbationState(2, r=full_grid(r), r_dot=full_grid(r_dot))
    for got, same, expect in zip((*on_plane.r, *on_plane.r_dot), (*on_grid.r, *on_grid.r_dot),
                                 (*r, *r_dot)):
        assert np.array_equal(got.values, expect.values)
        assert np.array_equal(full_grid([got])[0].values, same.values)
    pairs = [(on_plane, on_grid), (apply_A(on_plane), apply_A(on_grid))]
    for stepper, dt in (("exact", None), ("rk4", 0.01)):
        pairs.append(tuple(evolve_state(s, a, b, t, stepper, dt) for s in (on_plane, on_grid)))
    for p, f in pairs:
        for plane_hat, full_hat in ((p.r_hat, f.r_hat), (p.r_dot_hat, f.r_dot_hat)):
            assert plane_hat.shape == (3, 2, n_tan, 1, n_ver + 1)
            assert np.array_equal(n_tan * plane_hat, full_hat[:, :, :, :1])
            assert not full_hat[:, :, :, 1:].any()
        assert compute_functionals(p, [1.0], a, b).F == compute_functionals(f, [1.0], a, b).F
    # k2 = 0 has zero stiffness: r1 = cos x1 adds nothing to F, and as r_dot
    # it adds ||cos x1||^2 = 4 pi^2 over the slab
    cos_x1 = _r_plane(n_tan, n_ver, 1.0, 0.0)
    assert compute_functionals(PerturbationState(2, r=cos_x1), [1.0], a, b).F == 0.0
    F_dot = compute_functionals(PerturbationState(2, r_dot=cos_x1), [1.0], a, b).F
    assert F_dot == pytest.approx(4 * np.pi ** 2, rel=1e-12)


def test_plane_r_beside_full_grid_r_dot_is_promoted():
    # one x2 extent per state: a plane r beside a full-grid r_dot is stored as the
    # spectrum of its repeat, so it evolves like the all-full state and is not
    # broadcast over every k2
    n_tan, n_ver, a, b, t = 16, 8, 0.7, 1.3, 0.6
    r, r_dot = _r_plane(n_tan, n_ver, 1.0, 0.5), _r_vector(n_tan, n_ver, 9)
    full_shape = (3, 2, n_tan, n_tan // 2 + 1, n_ver + 1)
    for mixed, full in ((PerturbationState(2, r=r, r_dot=r_dot),
                         PerturbationState(2, r=full_grid(r), r_dot=r_dot)),
                        (PerturbationState(2, r=r_dot, r_dot=r),
                         PerturbationState(2, r=r_dot, r_dot=full_grid(r)))):
        pairs = [(mixed, full), (apply_A(mixed), apply_A(full))]
        for stepper, dt in (("exact", None), ("rk4", 0.01)):
            pairs.append(tuple(evolve_state(s, a, b, t, stepper, dt) for s in (mixed, full)))
        for m, f in pairs:
            for m_hat, f_hat in ((m.r_hat, f.r_hat), (m.r_dot_hat, f.r_dot_hat)):
                assert m_hat.shape == f_hat.shape == full_shape
                assert np.max(np.abs(m_hat - f_hat)) <= 1e-14 * np.max(np.abs(f_hat))
            assert compute_functionals(m, [1.0], a, b).F == pytest.approx(
                compute_functionals(f, [1.0], a, b).F, rel=1e-14, abs=0)


def test_r_and_r_dot_on_different_grids_are_rejected():
    plane, full = _r_plane(8, 6, 1.0, 0.5), _r_vector(16, 6, 10)
    for r, r_dot in ((full, _r_vector(8, 6, 11)), (plane, full), (full, _r_vector(16, 5, 12))):
        with pytest.raises(GridMismatchError):
            PerturbationState(2, r=r, r_dot=r_dot)


def test_plane_r_on_a_large_grid_stays_a_plane():
    import tracemalloc

    n_tan, n_ver, a, b = 1024, 32, 0.7, 1.3
    state = PerturbationState(2, r=_r_plane(n_tan, n_ver, 1.0, 0.5))
    # k2 = 0 alone is 3.2 MB; the full spectrum (3, 2, 1024, 513, 33) would take 1.66 GB
    assert state.r_hat.nbytes <= 4e6
    tracemalloc.start()
    try:
        for stepper, dt in (("exact", None), ("rk4", default_rk4_dt(state, a, b, n_tan))):
            out = evolve_state(state, a, b, 0.5, stepper, dt)
            assert out.r_hat.shape == out.r_dot_hat.shape == (3, 2, n_tan, 1, n_ver + 1)
            compute_functionals(out, [1.0], a, b)
            del out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak


def test_r_rows_checked_on_grid_input():
    n_tan, n_ver = 8, 4
    r = list(_r_vector(n_tan, n_ver, 4))
    bad = TwoPhaseGridField(r[2].values.copy())
    bad.values[1, 3, 1, 0] = 1e-300
    with pytest.raises(ValueError):
        PerturbationState(2, r=(r[0], r[1], bad))
    with pytest.raises(ValueError):
        PerturbationState(2, r_dot=(r[0], r[1]))
    # states built internally from spectra are checked on the spectrum
    spectrum = PerturbationState(2, r=tuple(r)).r_hat.copy()
    spectrum[2, 0, 1, 2, -1] = 1e-300j
    with pytest.raises(ValueError):
        PerturbationState._from_spectra(2, {}, {}, {}, {}, {}, {}, spectrum, None)


def test_hot_paths_run_no_fft(monkeypatch):
    n_tan, n_ver = 16, 6
    state = PerturbationState(3, P={4: 1.0 - 0.5j}, P_dot={4: 0.3}, g={2: 0.7},
                              r=_r_vector(n_tan, n_ver, 5), r_dot=_r_vector(n_tan, n_ver, 6))

    def forbidden(*args, **kwargs):
        raise AssertionError("FFT called on a hot path")

    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, forbidden)
    for stepper, dt in (("exact", None), ("rk4", 0.01)):
        out = evolve_state(state, 0.9, 0.35, 0.5, stepper=stepper, dt=dt)
        assert out.r_hat is not None and out.r_dot_hat is not None
        rep = compute_functionals(out, [1.0, 1.5], 0.9, 0.35)
        assert rep.F > 0.0
    assert apply_A(state).r_hat is not None
    assert compute_functionals(state, [1.0], 0.9, 0.35).F > 0.0


def test_decompose_and_reconstruct_run_no_grid_field_arithmetic():
    n_tan, n_ver = 16, 6
    state = PerturbationState(3, P={4: 1.0 - 0.5j}, P_dot={4: 0.3}, L={1: 0.2j}, g={2: 0.7},
                              r=_r_vector(n_tan, n_ver, 5), r_dot=_r_vector(n_tan, n_ver, 6))
    initial = perturbed_initial_data(4, n_tan=n_tan, n_ver=n_ver)
    chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
    back = decompose_perturbation(chi, chi_dot, 3)
    assert back.r_hat is not None and back.r_dot_hat is not None
    assert back.P[4] == pytest.approx(1.0 - 0.5j, abs=1e-10)
    dropped = decompose_perturbation(*initial, 4)
    assert dropped.r_hat is None and dropped.r_dot_hat is None
    assert len(reconstruct_perturbation(dropped, n_tan, n_ver)[1]) == 3


def test_apply_A_multiplies_the_spectrum_by_k2_squared():
    n_tan, n_ver = 16, 6
    state = PerturbationState(2, r=_r_vector(n_tan, n_ver, 7))
    k2 = np.arange(n_tan // 2 + 1)
    expect = state.r_hat * (k2 ** 2)[:, None]
    assert np.array_equal(apply_A(state).r_hat, expect)


def test_checks_consume_a_stream_in_one_pass():
    n = 4
    state = PerturbationState(n, P={n: 1.0}, P_dot={n: float(n)})
    times = [0.0, 0.25, 0.5]
    pulled = []

    def stream():
        for t in times:
            pulled.append(t)
            yield t, evolve_state(state, 0.0, 0.0, t)

    report = check_proposition2(stream(), n, 0.0, 0.0)
    assert report.times == times and pulled == times
    pulled.clear()
    growth = check_growth_corollary(stream(), n)
    assert growth.passed and growth.times == times and pulled == times

    for check in (lambda s: check_proposition2(s, n, 0.0, 0.0),
                  lambda s: check_growth_corollary(s, n)):
        with pytest.raises(ValueError):
            check(iter(()))
        with pytest.raises(ValueError):
            check((t, state) for t in (0.0, 0.5, 0.25))


def test_overflowing_functionals_raise():
    # E1+ ~ e^{2 n t} leaves the float range near n t = 355, before the
    # propagator does at n t = 710
    state = PerturbationState(50, P={50: 1.0}, P_dot={50: 50.0})
    out = evolve_state(state, 0.0, 0.0, 8.0)
    with pytest.raises(OverflowError):
        compute_functionals(out, [1.0], 0.0, 0.0, t=8.0)


def test_round_off_r_block_is_dropped_and_reads_as_zeros():
    # a dropped block reads None, as on a state built without r: a state records
    # no grid beyond its data, so reading an absent block allocates nothing
    n, n_tan, n_ver = 6, 32, 8
    state = decompose_perturbation(*perturbed_initial_data(n, n_tan=n_tan, n_ver=n_ver), n)
    assert state.r_hat is None and state.r_dot_hat is None
    assert state.r is None and state.r_dot is None
    assert compute_functionals(state, [1.0], 0.7, 1.3).F == 0.0
    assert PerturbationState(n).r is None and PerturbationState(n).r_dot is None


def test_drop_threshold_is_the_decomposition_tolerance():
    n_tan, n_ver, tol = 16, 6, 1e-12
    r = _r_vector(n_tan, n_ver, 8)
    unit = (1.0 / max(c.max_abs() for c in r)) * tol
    zero = tuple(TwoPhaseGridField.zeros(n_tan, n_ver) for _ in range(3))

    def scaled(s):
        return tuple(TwoPhaseGridField(s * c.values) for c in r)

    kept = scaled(10.0 * unit)
    state = decompose_perturbation(kept, zero, 2, tol=tol)
    assert state.r_hat is not None and state.r_dot_hat is None
    chi, chi_dot = reconstruct_perturbation(state, n_tan, n_ver)
    for got, expect in zip(chi, kept):
        assert np.max(np.abs(got.values - expect.values)) <= 1e-9 * 10.0 * tol
    assert max(c.max_abs() for c in chi_dot) == 0.0
    # below the tolerance the block is round-off and goes
    state = decompose_perturbation(zero, scaled(0.5 * unit), 2, tol=tol)
    assert state.r_hat is None and state.r_dot_hat is None


def test_absent_r_block_stays_absent_and_keeps_its_grid():
    n, n_tan, n_ver = 4, 32, 8
    state = decompose_perturbation(*perturbed_initial_data(n, n_tan=n_tan, n_ver=n_ver), n)
    outs = [evolve_state(state, 0.7, 1.3, 0.5),
            evolve_state(state, 0.7, 1.3, 0.5, stepper="rk4", dt=0.01), apply_A(state)]
    for out in outs:
        assert out.r_hat is None and out.r_dot_hat is None
        assert compute_functionals(out, [1.0], 0.7, 1.3).F == 0.0
    # the rk4 rule covers the modes that are propagated: an absent block adds none,
    # so the field does not enter, while a held r block's a * n_tan/2 = 160 bounds the step
    fast, still = (evolve_state(state, a, 0.0, 0.5, stepper="rk4", dt=0.02) for a in (10.0, 0.0))
    for name in ("P", "P_dot", "L", "L_dot", "g", "g_dot"):
        assert getattr(fast, name) == getattr(still, name)
    held = PerturbationState(n, P_dot=state.P_dot, r=_r_vector(n_tan, n_ver, 13))
    with pytest.raises(StabilityError):
        evolve_state(held, 10.0, 0.0, 0.5, stepper="rk4", dt=0.02)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stepper", ["exact", "rk4"])
def test_r_block_overflow_names_the_infinite_rate(stepper):
    # (a k2)^2 of a held full-grid r block leaves the float range at a = 1e200: at the
    # first sample, t = 0, the error names the infinite |lambda^2|, with no RuntimeWarning
    n_tan, n_ver = 16, 8
    state = PerturbationState(3, P_dot={3: 1.0}, r=_r_vector(n_tan, n_ver, 14))
    with pytest.raises(OverflowError, match=r"\|lambda\^2\| = inf"):
        evolve_state(state, 1e200, 0.0, 0.0, stepper, dt=0.01)
