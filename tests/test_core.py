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
    linspace,
    sup_abs,
    vertical_levels,
)

from reference_fields import inner_product_L2

TWO_PI = 2.0 * math.pi


def hyperbolic(kappa, upper, lower):
    """The profile c_cosh*cosh(kappa*x3) + c_sinh*sinh(kappa*x3), (c_cosh, c_sinh) per phase.

    In the anchored pairs e^{kappa x3} is e^kappa e^{kappa (x3 - 1)} above the interface and
    e^{-kappa x3} is e^kappa e^{-kappa (x3 + 1)} below, so each of those terms carries e^kappa.
    """
    e = math.exp(kappa)
    (cu, su), (cl, sl) = upper, lower
    return VerticalProfile(kappa, ((cu + su) * e / 2, (cu - su) / 2),
                           ((cl + sl) / 2, (cl - sl) * e / 2))


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
        ShearParams(u_plus=(1.0, 0.0))


def test_value_types_reject_field_assignment():
    # each record type that was a frozen dataclass stays immutable as a named tuple
    from khlab import BoundaryModeState, FunctionalReport, ResidualReport, SpectralMode
    from khlab import StabilityVerdict

    profile = VerticalProfile(1.0, (1.0, 0.0), (0.0, 1.0))
    records = {"u_plus": ShearParams(), "k1": WaveVector(1, 2), "kappa": profile,
               "lam": SpectralMode(WaveVector(1, 0), (profile,) * 3, 1.0),
               "growing": StabilityVerdict(1.0, True, False, False, False),
               "wall_bc_residual": ResidualReport(0.0, 0.0, 0.0, 0.0),
               "amplitude": BoundaryModeState(WaveVector(1, 0), 1.0, 0.0),
               "G": FunctionalReport(0.0, {}, {}, 0.0, 0.0)}
    for name, record in records.items():
        with pytest.raises(AttributeError):
            setattr(record, name, 2)


def test_replace_validates_like_the_constructor():
    assert ShearParams()._replace(u_plus=[2, 0, 0]).u_plus == (2.0, 0.0, 0.0)
    wave = WaveVector(1, 2)._replace(k2=3.0)
    assert wave == (1, 3) and type(wave.k2) is int
    with pytest.raises(ValueError):
        ShearParams()._replace(n2=0.0)
    with pytest.raises(ValueError):
        WaveVector(1, 2)._replace(k1=1.5)
    # an infinity names k as an integer past the float range does; NaN is no integer
    for bad in (math.inf, -math.inf, 10 ** 309, -10 ** 309):
        for args in ((bad, 0), (1, bad)):
            with pytest.raises(ValueError) as got:
                WaveVector(*args)
            assert got.value.args == ("wave vector k = (k1, k2) leaves the float range",)
    for args in ((math.nan, 0), (1, math.nan)):
        with pytest.raises(ValueError):
            WaveVector(*args)
    with pytest.raises(ValueError):
        VerticalProfile(1.0, (1.0, 0.0), (0.0, 1.0))._replace(kappa=0.0)


def test_package_exports_exist():
    import khlab

    assert [name for name in khlab.__all__ if not hasattr(khlab, name)] == []
    for removed in ("InterfaceData", "HarmonicPotential"):
        assert removed not in khlab.__all__ and not hasattr(khlab, removed)


def test_shear_params_canonical_jump():
    p = ShearParams()
    assert np.allclose(p.velocity_jump(), [2.0, 0.0, 0.0])


def test_wave_vector_kappa():
    k = WaveVector(3, 4)
    assert k.kappa == 5.0
    assert WaveVector(0, 0).is_zero()
    with pytest.raises(ValueError):
        WaveVector(0, 0).require_nonzero()


# ---------------------------------------------------------------------------
# vertical profiles
# ---------------------------------------------------------------------------

def test_profile_evaluation_matches_cosh_sinh_form():
    prof = hyperbolic(2.0, (1.0, -0.5), (0.25, 2.0))
    x = np.linspace(0.0, 1.0, 7)
    expect = np.cosh(2 * x) - 0.5 * np.sinh(2 * x)
    assert np.allclose(prof.eval_upper(x), expect, rtol=1e-14)
    xl = np.linspace(-1.0, 0.0, 7)
    expect_l = 0.25 * np.cosh(2 * xl) + 2.0 * np.sinh(2 * xl)
    assert np.allclose(prof.eval_lower(xl), expect_l, rtol=1e-13, atol=1e-15)


def test_profile_interface_sides():
    prof = hyperbolic(1.0, (1.0, 0.0), (2.0, 0.0))
    assert prof.eval_upper(0.0) == pytest.approx(1.0)
    assert prof.eval_lower(0.0) == pytest.approx(2.0)
    # eval() resolves x3 = 0 from above
    assert prof.eval(0.0) == pytest.approx(1.0)


def test_profile_derivative_against_finite_differences():
    # oracle: centered finite differences at interior points; truncation
    # is bounded by |f'''| * delta^2 / 6
    prof = hyperbolic(3.0, (0.7, -1.1), (0.3, 0.9))
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
    prof = hyperbolic(2.0, (1.0, 0.4), (1.0, 0.4))
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
def test_profile_past_kappa_710_stays_within_its_coefficients():
    # e^kappa leaves the float range near kappa = 709.78; the anchored pairs never form it,
    # so a profile with unit coefficients reads 1 at its anchors and at most 1 between them
    x3 = np.linspace(-1.0, 1.0, 41)
    for kappa in (709.0, 710.0, 2000.0, 1e5, 1e300):
        wall = VerticalProfile(kappa, (0.0, 1.0), (1.0, 0.0))   # e^{-kappa |x3|}
        values = wall.eval(x3)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert wall.eval(0.0) == wall.eval_lower(0.0) == 1.0
        assert wall.eval(1.0) == wall.eval(-1.0) == math.exp(-kappa)


def test_profile_float_and_array_paths_agree():
    # a float x3 is evaluated with math.exp, an array with np.exp: the two agree to
    # 1e-15 of the size of the two exponential terms, and both stay finite and within
    # |b_plus| + |b_minus| on the phase at every kappa
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(st.floats(-1.0, 1.0), st.complex_numbers(max_magnitude=1.0))
    log_uniform = st.floats(math.log(1e-3), math.log(1e6)).map(math.exp)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(kappa=log_uniform, x3=st.floats(-1.0, 1.0),
                      upper=st.tuples(coeff, coeff), lower=st.tuples(coeff, coeff))
    def check(kappa, x3, upper, lower):
        profile = VerticalProfile(kappa, upper, lower)
        (b_plus, b_minus), top = (upper, 1.0) if x3 >= 0.0 else (lower, 0.0)
        size = (abs(b_plus) * math.exp(kappa * (x3 - top))
                + abs(b_minus) * math.exp(kappa * (top - 1.0 - x3)))
        scalar, array = profile.eval(x3), profile.eval(np.array([x3]))[0]
        assert abs(scalar - array) <= 1e-15 * size
        bound = (abs(b_plus) + abs(b_minus)) * (1.0 + 1e-15)
        for value in (scalar, array):
            assert np.isfinite(value) and abs(value) <= bound

    check()


def test_linspace_and_levels_match_numpy_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ends = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([0.0, -0.0, 5e-324, 1.0]))

    def bits(values):
        return [float(v).hex() for v in values]

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(start=ends, stop=ends, num=st.integers(1, 40), same=st.booleans())
    def check(start, stop, num, same):
        stop = start if same else stop           # a_min == a_max
        with np.errstate(all="ignore"):          # a range past the float range
            want = np.linspace(start, stop, num)
        assert bits(linspace(start, stop, num)) == bits(want)

    check()
    for n_ver in range(1, 70):
        zu, zl = vertical_levels(n_ver)
        assert bits(zu) == bits(np.linspace(0.0, 1.0, n_ver + 1))
        assert bits(zl) == bits(np.linspace(-1.0, 0.0, n_ver + 1))


def test_sup_abs_matches_the_max_of_abs_property():
    # max|x| from max and min, with no |x| temporary: the same float as np.max(np.abs(x)),
    # +0.0 for all-zero data (-0.0 included) and NaN if any entry is NaN
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies
    special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.0])
    entries = st.one_of(special, st.floats(width=64))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4,
                                                                 max_side=5), elements=entries),
                      transposed=st.booleans())
    def check(x, transposed):
        x = x.T if transposed else x
        want, got = float(np.max(np.abs(x))), sup_abs(x)
        assert type(got) is float
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))

    check()


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
        return TwoPhaseGridField(rng.standard_normal((2, 8, 8, 5)))
    f, g, h = rand_field(), rand_field(), rand_field()
    assert inner_product_L2(f, g) == pytest.approx(inner_product_L2(g, f), rel=1e-13)
    f2g = TwoPhaseGridField(f.values + 2.0 * g.values)
    lhs = inner_product_L2(f2g, h)
    rhs = inner_product_L2(f, h) + 2.0 * inner_product_L2(g, h)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inner_product_grid_mismatch():
    f = TwoPhaseGridField.zeros(8, 4)
    g = TwoPhaseGridField.zeros(8, 5)
    with pytest.raises(GridMismatchError):
        inner_product_L2(f, g)


def test_plane_is_a_grid_of_its_own():
    # an x2 extent of 1 means "constant in x2": an inner product never mixes it with a
    # full field (a grid 3-vector is one array, so its components share one extent)
    rng = np.random.default_rng(3)
    plane = TwoPhaseGridField(rng.standard_normal((2, 8, 1, 5)))
    full = TwoPhaseGridField(np.repeat(plane.values, 8, axis=2))
    assert plane.n_x2 == 1 and full.n_x2 == 8
    assert (plane.n_tan, plane.n_ver) == (full.n_tan, full.n_ver) == (8, 4)
    # the extents are the shape's, so none of them can drift from values
    for name in ("n_tan", "n_x2", "n_ver"):
        with pytest.raises(AttributeError):
            setattr(full, name, 4)
    assert TwoPhaseGridField.zeros(8, 4, 1).values.shape == plane.values.shape
    with pytest.raises(GridMismatchError):
        inner_product_L2(plane, full)
    assert inner_product_L2(plane, plane) == pytest.approx(inner_product_L2(full, full),
                                                           rel=1e-13)
    for shape in ((2, 8, 2, 5), (2, 8, 7, 5), (3, 8, 8, 5), (2, 8, 8, 1), (8, 8, 5)):
        with pytest.raises(GridMismatchError):
            TwoPhaseGridField(np.zeros(shape))


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
        up, lo = values = np.zeros((2, n_tan, n_tan, n_ver + 1))
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
        grad.append(TwoPhaseGridField(values))

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
    up, lo = np.fft.fft2(f.values, axes=(1, 2)) / n ** 2
    freqs = np.rint(np.fft.fftfreq(n) * n).astype(int)
    out = {}
    for i1, k1 in enumerate(freqs):
        for i2, k2 in enumerate(freqs):
            out[WaveVector(k1, k2)] = (up[i1, i2, :].copy(), lo[i1, i2, :].copy())
    return out


def inverse_tangential_transform(modes: dict, n_tan: int, n_ver: int) -> TwoPhaseGridField:
    """Rebuild a real grid field from tangential-mode columns."""
    freqs = np.rint(np.fft.fftfreq(n_tan) * n_tan).astype(int)
    index = {int(k): i for i, k in enumerate(freqs)}
    up, lo = values = np.zeros((2, n_tan, n_tan, n_ver + 1), dtype=complex)
    for k, (cu, cl) in modes.items():
        i1, i2 = index[k.k1], index[k.k2]
        up[i1, i2, :] = cu
        lo[i1, i2, :] = cl
    return TwoPhaseGridField(np.fft.ifft2(values * n_tan ** 2, axes=(1, 2)).real)


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
    f = TwoPhaseGridField(rng.standard_normal((2, 16, 16, 9)))
    back = inverse_tangential_transform(tangential_transform(f), 16, 8)
    assert np.max(np.abs(f.values - back.values)) < 1e-12


def test_transform_parseval():
    rng = np.random.default_rng(3)
    f = TwoPhaseGridField(rng.standard_normal((2, 16, 16, 7)))
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
