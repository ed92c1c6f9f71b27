"""Core types, quadrature and tangential transform checks."""

import math

import numpy as np
import pytest

from khlab.core import (
    GridMismatchError,
    ShearParams,
    TwoPhaseGridField,
    VerticalProfile,
    WaveVector,
    _integer_frequencies,
    coth,
    inner_product_L2,
    vertical_levels,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_shear_params_validation():
    ShearParams()  # canonical configuration is valid
    with pytest.raises(ValueError):
        ShearParams(n1=0.0)
    with pytest.raises(ValueError):
        ShearParams(m_i=-1.0)
    with pytest.raises(ValueError):
        ShearParams(a=-0.5)
    with pytest.raises(ValueError):
        ShearParams(u_plus=(1.0, 0.0))


def test_shear_params_canonical_jump():
    p = ShearParams()
    assert np.allclose(p.velocity_jump(), [2.0, 0.0, 0.0])


def test_wave_vector_kappa():
    k = WaveVector(3, 4)
    assert k.kappa == 5.0
    assert WaveVector(0, 0).is_zero()
    with pytest.raises(ValueError):
        WaveVector(0, 0).require_nonzero()


def test_coth_values_and_stability():
    # oracle: cosh/sinh ratio at moderate argument
    assert coth(1.0) == pytest.approx(math.cosh(1.0) / math.sinh(1.0), rel=1e-15)
    assert coth(-2.0) == -coth(2.0)
    # no overflow far beyond the naive cosh/sinh range
    assert coth(1000.0) == 1.0
    with pytest.raises(ValueError):
        coth(0.0)


# ---------------------------------------------------------------------------
# vertical profiles
# ---------------------------------------------------------------------------

def test_profile_evaluation_matches_cosh_sinh_form():
    prof = VerticalProfile(2.0, (1.0, -0.5), (0.25, 2.0))
    x = np.linspace(0.0, 1.0, 7)
    expect = np.cosh(2 * x) - 0.5 * np.sinh(2 * x)
    assert np.allclose(prof.eval_upper(x), expect, rtol=1e-14)
    xl = np.linspace(-1.0, 0.0, 7)
    expect_l = 0.25 * np.cosh(2 * xl) + 2.0 * np.sinh(2 * xl)
    assert np.allclose(prof.eval_lower(xl), expect_l, rtol=1e-13, atol=1e-15)


def test_profile_interface_sides():
    prof = VerticalProfile(1.0, (1.0, 0.0), (2.0, 0.0))
    assert prof.eval_upper(0.0) == pytest.approx(1.0)
    assert prof.eval_lower(0.0) == pytest.approx(2.0)
    # eval() resolves x3 = 0 from above
    assert prof.eval(0.0) == pytest.approx(1.0)


def test_profile_derivative_against_finite_differences():
    # oracle: centered finite differences at interior points; truncation
    # is bounded by |f'''| * delta^2 / 6
    prof = VerticalProfile(3.0, (0.7, -1.1), (0.3, 0.9))
    dprof = prof.derivative()
    d3 = dprof.derivative().derivative()
    xs = np.array([0.15, 0.4, 0.83])
    for delta in (1e-3, 5e-4):
        fd = (prof.eval_upper(xs + delta) - prof.eval_upper(xs - delta)) / (2 * delta)
        err = np.max(np.abs(fd - dprof.eval_upper(xs)))
        bound = np.max(np.abs(d3.eval_upper(xs + delta))) / 6.0 * delta ** 2
        assert err < 2.0 * bound
    xl = np.array([-0.77, -0.2])
    fd = (prof.eval_lower(xl + 1e-4) - prof.eval_lower(xl - 1e-4)) / 2e-4
    assert np.allclose(fd, dprof.eval_lower(xl), atol=1e-5)


def test_profile_derivative_order_of_convergence():
    prof = VerticalProfile(2.0, (1.0, 0.4), (1.0, 0.4))
    dprof = prof.derivative()
    x = 0.5
    deltas = np.array([4e-3, 2e-3, 1e-3])
    errs = []
    for d in deltas:
        fd = (prof.eval_upper(x + d) - prof.eval_upper(x - d)) / (2 * d)
        errs.append(abs(fd - dprof.eval_upper(x)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 2.0) < 0.1)


def test_profile_requires_positive_kappa():
    with pytest.raises(ValueError):
        VerticalProfile(0.0, (1.0, 0.0), (1.0, 0.0))


@pytest.mark.filterwarnings("error")
def test_profile_past_the_float_range_raises_overflow():
    # e^kappa leaves the float range near kappa = 709.78; the wall rows used to
    # read 0*inf = nan with a RuntimeWarning
    wall = VerticalProfile.from_exponential(710.0, (0.0, 1.0), (1.0, 0.0))
    with pytest.raises(OverflowError, match=r"kappa = 710 leaves the float range"):
        wall.eval_upper(np.linspace(0.0, 1.0, 5))
    with pytest.raises(OverflowError, match=r"kappa = 710"):
        wall.eval(-1.0)
    near = VerticalProfile.from_exponential(709.0, (0.0, 1.0), (1.0, 0.0))
    assert np.isfinite(near.eval(np.linspace(-1.0, 1.0, 9))).all()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_inner_product_constant_field_gives_volume():
    one = TwoPhaseGridField.from_function(lambda x1, x2, x3: np.ones_like(x1 + x3), 16, 8)
    vol = inner_product_L2(one, one)
    assert vol == pytest.approx(TWO_PI ** 2 * 2.0, rel=1e-13)


def test_inner_product_trigonometric_orthogonality():
    f = TwoPhaseGridField.from_function(lambda x1, x2, x3: np.sin(3 * x1) + 0 * x3, 16, 6)
    g = TwoPhaseGridField.from_function(lambda x1, x2, x3: np.cos(3 * x1) + 0 * x3, 16, 6)
    assert abs(inner_product_L2(f, g)) < 1e-12


def test_inner_product_exact_below_nyquist():
    # rectangle rule integrates tangential trig polynomials exactly
    f = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(5 * x1) * np.sin(2 * x2) + 0 * x3, 16, 4)
    # integral of cos^2(5x1) sin^2(2x2) over T^2 is pi^2; vertical extent 2
    val = inner_product_L2(f, f)
    assert val == pytest.approx(math.pi ** 2 * 2.0, rel=1e-13)


def test_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(7)
    def rand_field():
        up = rng.standard_normal((8, 8, 5))
        lo = rng.standard_normal((8, 8, 5))
        return TwoPhaseGridField(8, 4, up, lo)
    f, g, h = rand_field(), rand_field(), rand_field()
    assert inner_product_L2(f, g) == pytest.approx(inner_product_L2(g, f), rel=1e-13)
    f2g = TwoPhaseGridField(8, 4, f.values_upper + 2.0 * g.values_upper,
                            f.values_lower + 2.0 * g.values_lower)
    lhs = inner_product_L2(f2g, h)
    rhs = inner_product_L2(f, h) + 2.0 * inner_product_L2(g, h)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inner_product_grid_mismatch():
    f = TwoPhaseGridField.zeros(8, 4)
    g = TwoPhaseGridField.zeros(8, 5)
    with pytest.raises(GridMismatchError):
        inner_product_L2(f, g)


def test_plane_is_a_grid_of_its_own():
    # an x2 extent of 1 means "constant in x2"; it never broadcasts against a full field
    rng = np.random.default_rng(3)
    up, lo = rng.standard_normal((2, 8, 1, 5))
    plane = TwoPhaseGridField(8, 4, up, lo)
    full = TwoPhaseGridField(8, 4, np.repeat(up, 8, axis=1), np.repeat(lo, 8, axis=1))
    assert plane.n_x2 == 1 and full.n_x2 == 8
    assert TwoPhaseGridField.zeros(8, 4, 1).same_grid(plane)
    assert not plane.same_grid(full) and not full.same_grid(plane)
    for combine in (lambda: plane + full, lambda: full - plane,
                    lambda: inner_product_L2(plane, full)):
        with pytest.raises(GridMismatchError):
            combine()
    assert inner_product_L2(plane, plane) == pytest.approx(inner_product_L2(full, full),
                                                           rel=1e-13)
    for shape in ((8, 2, 5), (8, 7, 5), (8, 8, 4)):
        with pytest.raises(GridMismatchError):
            TwoPhaseGridField(8, 4, np.zeros(shape), np.zeros(shape))


def test_harmonic_gradient_orthogonal_to_tangential_field():
    # gradient of a harmonic potential vs a divergence-free tangential
    # field with vanishing third component: inner products per component
    # cancel after summation (checked at quadrature accuracy)
    n_tan, n_ver = 32, 32
    kappa = 2.0
    sh = math.sinh(kappa)

    def h_up(x1, x2, x3):
        return np.cos(2 * x1) * np.cosh(kappa * (x3 - 1)) / sh

    def h_lo(x1, x2, x3):
        return np.cos(2 * x1) * np.cosh(kappa * (x3 + 1)) / sh

    grad = []
    for d in range(3):
        up = np.zeros((n_tan, n_tan, n_ver + 1))
        lo = np.zeros_like(up)
        x1, x2 = np.meshgrid(TWO_PI * np.arange(n_tan) / n_tan,
                             TWO_PI * np.arange(n_tan) / n_tan, indexing="ij")
        zu, zl = vertical_levels(n_ver)
        for i, z in enumerate(zu):
            if d == 0:
                up[:, :, i] = -2 * np.sin(2 * x1) * math.cosh(kappa * (z - 1)) / sh
            elif d == 2:
                up[:, :, i] = np.cos(2 * x1) * kappa * math.sinh(kappa * (z - 1)) / sh
        for i, z in enumerate(zl):
            if d == 0:
                lo[:, :, i] = -2 * np.sin(2 * x1) * math.cosh(kappa * (z + 1)) / sh
            elif d == 2:
                lo[:, :, i] = np.cos(2 * x1) * kappa * math.sinh(kappa * (z + 1)) / sh
        grad.append(TwoPhaseGridField(n_tan, n_ver, up, lo))

    # r depends on a different tangential mode: exact-zero pairing
    r1 = TwoPhaseGridField.from_function(
        lambda x1, x2, x3: np.cos(x2) * (1.0 + x3 ** 2), n_tan, n_ver)
    r = (r1, TwoPhaseGridField.zeros(n_tan, n_ver), TwoPhaseGridField.zeros(n_tan, n_ver))
    total = sum(inner_product_L2(gc, rc) for gc, rc in zip(grad, r))
    assert abs(total) < 1e-12


# ---------------------------------------------------------------------------
# tangential transform
# ---------------------------------------------------------------------------

def tangential_transform(f: TwoPhaseGridField) -> dict:
    """Discrete Fourier coefficients in (x1, x2) per vertical level.

    Returns a map WaveVector -> (upper_coeffs, lower_coeffs) where each
    entry is a complex array over the vertical levels of that phase.
    Normalisation is 1/n_tan^2, so a single harmonic cos(3*x1) yields
    coefficients 1/2 at k = (3, 0) and (-3, 0).
    """
    n = f.n_tan
    up = np.fft.fft2(f.values_upper, axes=(0, 1)) / n ** 2
    lo = np.fft.fft2(f.values_lower, axes=(0, 1)) / n ** 2
    freqs = _integer_frequencies(n)
    out = {}
    for i1, k1 in enumerate(freqs):
        for i2, k2 in enumerate(freqs):
            out[WaveVector(k1, k2)] = (up[i1, i2, :].copy(), lo[i1, i2, :].copy())
    return out


def inverse_tangential_transform(modes: dict, n_tan: int, n_ver: int) -> TwoPhaseGridField:
    """Rebuild a real grid field from tangential-mode columns."""
    freqs = _integer_frequencies(n_tan)
    index = {int(k): i for i, k in enumerate(freqs)}
    up = np.zeros((n_tan, n_tan, n_ver + 1), dtype=complex)
    lo = np.zeros_like(up)
    for k, (cu, cl) in modes.items():
        i1, i2 = index[k.k1], index[k.k2]
        up[i1, i2, :] = cu
        lo[i1, i2, :] = cl
    vu = np.fft.ifft2(up * n_tan ** 2, axes=(0, 1))
    vl = np.fft.ifft2(lo * n_tan ** 2, axes=(0, 1))
    return TwoPhaseGridField(n_tan, n_ver, vu.real, vl.real)


def test_transform_single_harmonic_support():
    f = TwoPhaseGridField.from_function(lambda x1, x2, x3: np.cos(3 * x1) + 0 * x3, 16, 4)
    modes = tangential_transform(f)
    for k, (cu, cl) in modes.items():
        amp = max(np.max(np.abs(cu)), np.max(np.abs(cl)))
        if k in (WaveVector(3, 0), WaveVector(-3, 0)):
            assert amp == pytest.approx(0.5, rel=1e-12)
        else:
            assert amp < 1e-13


def test_transform_zero_field():
    modes = tangential_transform(TwoPhaseGridField.zeros(8, 4))
    assert all(np.all(cu == 0) and np.all(cl == 0) for cu, cl in modes.values())


def test_transform_round_trip_random_field():
    rng = np.random.default_rng(11)
    f = TwoPhaseGridField(16, 8,
                          rng.standard_normal((16, 16, 9)),
                          rng.standard_normal((16, 16, 9)))
    back = inverse_tangential_transform(tangential_transform(f), 16, 8)
    assert (f - back).max_abs() < 1e-12


def test_transform_parseval():
    rng = np.random.default_rng(3)
    f = TwoPhaseGridField(16, 6,
                          rng.standard_normal((16, 16, 7)),
                          rng.standard_normal((16, 16, 7)))
    modes = tangential_transform(f)
    # Parseval per vertical level, then trapezoidal weights in x3
    w = np.full(7, f.h_ver)
    w[0] *= 0.5
    w[-1] *= 0.5
    spectral = 0.0
    for cu, cl in modes.values():
        spectral += np.sum((np.abs(cu) ** 2 + np.abs(cl) ** 2) * w)
    spectral *= TWO_PI ** 2
    assert spectral == pytest.approx(inner_product_L2(f, f), rel=1e-10)
