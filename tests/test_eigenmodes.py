"""Normal-mode construction and residual audit checks."""

import math

import numpy as np
import pytest

from khlab.core import VerticalProfile, WaveVector
from khlab.eigenmodes import (
    build_harmonic_potentials,
    build_linearized_mode,
    build_wall_bounded_profiles,
    potential_gradient_norm_sq,
    verify_mode,
)

from reference_fields import inner_product_vector, potential_gradient_field

COTH2 = 1.0373147207275482  # coth(2), frozen from 1/tanh(2)


def corrupt_mode(mode, delta: float = 0.1):
    """Shift the upper cosh coefficient of W by delta; negative control for verify_mode.

    Above the interface cosh(kappa x3) = (e^kappa e^{kappa (x3 - 1)} + e^{-kappa x3})/2, so the
    anchored coefficients move by delta e^kappa / 2 and delta / 2.
    """
    W = mode.profiles[2]
    b_plus, b_minus = W.upper
    bad = VerticalProfile(W.kappa, (b_plus + delta * math.exp(W.kappa) / 2, b_minus + delta / 2),
                          W.lower)
    return mode._replace(profiles=(*mode.profiles[:2], bad))


def test_profiles_interface_value():
    W, _ = build_wall_bounded_profiles(WaveVector(3, 0))
    assert W.eval_upper(0.0) == pytest.approx(1.0, abs=1e-15)
    assert W.eval_lower(0.0) == pytest.approx(1.0, abs=1e-15)


def test_profiles_vanish_at_walls():
    for k in (WaveVector(1, 0), WaveVector(7, 0), WaveVector(40, 9)):
        W, _ = build_wall_bounded_profiles(k)
        assert abs(W.eval_upper(1.0)) < 1e-15
        assert abs(W.eval_lower(-1.0)) < 1e-15


def test_profile_interface_slopes():
    # closed form dW/dx3(0+) = -kappa coth(kappa); FD cross-check
    W, _ = build_wall_bounded_profiles(WaveVector(2, 0))
    dW = W.derivative()
    assert dW.eval_upper(0.0) == pytest.approx(-2.0 * COTH2, rel=1e-14)
    assert dW.eval_lower(0.0) == pytest.approx(+2.0 * COTH2, rel=1e-14)
    d = 1e-6
    fd = (-3 * W.eval_upper(0.0) + 4 * W.eval_upper(d) - W.eval_upper(2 * d)) / (2 * d)
    assert fd == pytest.approx(-2.0 * COTH2, abs=1e-8)


def test_profiles_match_cosh_sinh_closed_form():
    k = WaveVector(2, 0)
    W, V = build_wall_bounded_profiles(k)
    x = np.linspace(0.0, 1.0, 9)
    assert np.allclose(W.eval_upper(x), np.cosh(2 * x) - COTH2 * np.sinh(2 * x),
                       atol=1e-13)
    xl = -x
    assert np.allclose(W.eval_lower(xl), np.cosh(2 * xl) + COTH2 * np.sinh(2 * xl),
                       atol=1e-13)
    assert np.allclose(V.eval_upper(x), 1j * (np.sinh(2 * x) - COTH2 * np.cosh(2 * x)),
                       atol=1e-13)
    assert np.allclose(V.eval_lower(xl), 1j * (np.sinh(2 * xl) + COTH2 * np.cosh(2 * xl)),
                       atol=1e-13)


def test_kappa_zero_is_rejected():
    with pytest.raises(ValueError):
        build_wall_bounded_profiles(WaveVector(0, 0))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def test_mode_growth_factor():
    # amplitude ratio over a time step reads off the exponent
    n = 3
    mode = build_linearized_mode(WaveVector(n, 0), "+")
    x1, x2, x3 = 0.3, 0.0, 0.2
    v0 = mode.velocity(x1, x2, x3, t=0.0)[2]
    v1 = mode.velocity(x1, x2, x3, t=0.5)[2]
    assert abs(v1) / abs(v0) == pytest.approx(math.exp(n * 0.5), rel=1e-12)
    decaying = build_linearized_mode(WaveVector(n, 0), "-")
    w1 = decaying.velocity(x1, x2, x3, t=0.5)[2]
    assert abs(w1) / abs(v0) == pytest.approx(math.exp(-n * 0.5), rel=1e-12)


def test_mode_divergence_free_at_random_points():
    rng = np.random.default_rng(23)
    for k in (WaveVector(2, 0), WaveVector(5, 3), WaveVector(0, 4)):
        mode = build_linearized_mode(k, "+")
        x3 = rng.uniform(-1, 1, 100)
        p1, p2, p3 = mode.profiles
        div = (1j * k.k1 * p1.eval(x3) + 1j * k.k2 * p2.eval(x3)
               + p3.derivative().eval(x3))
        assert np.max(np.abs(div)) < 1e-10


def test_mode_third_component_vanishes_at_walls():
    mode = build_linearized_mode(WaveVector(4, 1), "+")
    assert abs(mode.profiles[2].eval_upper(1.0)) < 1e-12
    assert abs(mode.profiles[2].eval_lower(-1.0)) < 1e-12


def test_mode_reduces_to_streamwise_family_at_k2_zero():
    mode = build_linearized_mode(WaveVector(3, 0), "+")
    W, V = build_wall_bounded_profiles(WaveVector(3, 0))
    x = np.linspace(-1, 1, 11)
    assert np.allclose(mode.profiles[0].eval(x), V.eval(x))
    assert np.max(np.abs(mode.profiles[1].eval(x))) == 0.0
    assert np.allclose(mode.profiles[2].eval(x), W.eval(x))


def test_mode_lambda_branches():
    k = WaveVector(3, 4)
    assert build_linearized_mode(k, "+").lam == pytest.approx(5.0)
    assert build_linearized_mode(k, "-").lam == pytest.approx(-5.0)
    with pytest.raises(ValueError):
        build_linearized_mode(k, "grow")


# ---------------------------------------------------------------------------
# harmonic potentials
# ---------------------------------------------------------------------------

def test_potentials_are_harmonic():
    # (d^2/dx3^2 - j^2) annihilates the profiles; sample the Laplacian
    rng = np.random.default_rng(31)
    for j in (1, 2, 8, 33):
        f, g = build_harmonic_potentials(j)
        x3 = rng.uniform(-1, 1, 200)
        for prof in (f, g):
            lap = prof.derivative().derivative().eval(x3) - j ** 2 * prof.eval(x3)
            assert np.max(np.abs(lap)) < 1e-10


def test_potentials_neumann_walls():
    for j in (1, 5, 20):
        f, g = build_harmonic_potentials(j)
        for prof in (f, g):
            d = prof.derivative()
            assert abs(d.eval_upper(1.0)) < 1e-12
            assert abs(d.eval_lower(-1.0)) < 1e-12


def test_potential_parities_at_interface():
    f, g = build_harmonic_potentials(4)
    # even part continuous, odd part flips sign
    assert g.eval_upper(0.0) == pytest.approx(g.eval_lower(0.0), rel=1e-14)
    assert f.eval_upper(0.0) == pytest.approx(-f.eval_lower(0.0), rel=1e-14)
    # odd family keeps the normal derivative continuous
    df = f.derivative()
    assert df.eval_upper(0.0) == pytest.approx(df.eval_lower(0.0), rel=1e-14)


def test_potential_rejects_bad_frequency():
    with pytest.raises(ValueError):
        build_harmonic_potentials(0)


def test_gradient_families_pairwise_orthogonal():
    n_tan, n_ver = 32, 16
    fields = {}
    for j in (2, 3, 5):
        f, _ = build_harmonic_potentials(j)
        fields[j] = potential_gradient_field(f, 1.0, n_tan, n_ver)
    assert abs(inner_product_vector(fields[2], fields[3])) < 1e-11
    assert abs(inner_product_vector(fields[2], fields[5])) < 1e-11
    assert abs(inner_product_vector(fields[3], fields[5])) < 1e-11


def test_gradient_norm_weight_against_quadrature_oracle():
    # closed form 4 pi^2 j coth j vs trapezoidal quadrature on the grid;
    # the quadrature error is O(h^2), so check the refinement trend too
    j = 3
    f, _ = build_harmonic_potentials(j)
    exact = potential_gradient_norm_sq(j)
    errs = []
    for n_ver in (32, 64, 128):
        grad = potential_gradient_field(f, 1.0, 16, n_ver)
        quad = inner_product_vector(grad, grad)
        errs.append(abs(quad - exact) / exact)
    assert errs[0] < 5e-3
    assert errs[2] < errs[0] / 8.0   # roughly fourth of a fourth
    # the closed form: coth 1 against the cosh/sinh ratio, and no overflow far past
    # the naive cosh/sinh range, where coth j rounds to 1
    assert potential_gradient_norm_sq(1) == pytest.approx(
        4 * math.pi ** 2 * math.cosh(1.0) / math.sinh(1.0), rel=1e-15)
    big = potential_gradient_norm_sq(1000)
    assert math.isfinite(big) and big == 4 * math.pi ** 2 * 1000


def test_even_family_shares_the_gradient_weight():
    j = 4
    _, g = build_harmonic_potentials(j)
    grad = potential_gradient_field(g, 1.0, 16, 128)
    quad = inner_product_vector(grad, grad)
    assert quad == pytest.approx(potential_gradient_norm_sq(j), rel=1e-3)


# ---------------------------------------------------------------------------
# residual audit
# ---------------------------------------------------------------------------

def test_verify_mode_clean_profiles():
    for k in (WaveVector(1, 0), WaveVector(8, 0), WaveVector(5, 12)):
        rep = verify_mode(build_linearized_mode(k, "+"), 1000)
        assert rep.max_residual() < 1e-9


def test_verify_mode_negative_control():
    mode = build_linearized_mode(WaveVector(2, 0), "+")
    rep = verify_mode(corrupt_mode(mode, 0.1), 400)
    assert rep.wall_bc_residual > 0.01


# the x3 sample nearest the interface lies 91 decay lengths 1/kappa from it at kappa = 1e5,
# so every sampled value is below e^-90 and the residual reads 4.4e-37, under the 1e-9 gate
BLIND_AT_LARGE_KAPPA = pytest.mark.xfail(strict=True, reason="verify_mode samples miss the "
                                         "interface layer of a kappa = 1e5 mode")


@pytest.mark.parametrize("kappa", [64, 2000, pytest.param(100000, marks=BLIND_AT_LARGE_KAPPA)])
def test_verify_mode_sees_a_scaled_v1_profile(kappa):
    # v1 scaled by 1.01 leaves a divergence of 1 % of i k1 v1, which the audit must report
    mode = build_linearized_mode(WaveVector(kappa, 0), "+")
    bad = mode._replace(profiles=(mode.profiles[0].scaled(1.01), *mode.profiles[1:]))
    assert verify_mode(bad, 1000).max_divergence_residual > 1e-9


def test_verify_mode_zero_amplitudes():
    mode = build_linearized_mode(WaveVector(2, 0), "+")
    zeroed = corrupt_mode(mode, 0.0)
    scaled = type(mode)(k=mode.k,
                        profiles=tuple(p.scaled(0.0) for p in mode.profiles),
                        lam=mode.lam)
    rep = verify_mode(scaled, 100)
    assert rep.max_residual() == 0.0
    assert verify_mode(zeroed, 100).max_residual() == pytest.approx(
        verify_mode(mode, 100).max_residual(), abs=1e-12)


def _eval(profile, x3):
    """VerticalProfile.eval at a float x3, written out: its own anchored pair per call."""
    k = profile.kappa
    if x3 >= 0.0:   # b_plus e^{k (x3 - 1)} + b_minus e^{-k x3}
        b_plus, b_minus = profile.upper
        return b_plus * math.exp(k * (x3 - 1.0)) + b_minus * math.exp(-k * x3)
    b_plus, b_minus = profile.lower   # b_plus e^{k x3} + b_minus e^{-k (x3 + 1)}
    return b_plus * math.exp(k * x3) + b_minus * math.exp(-k * (x3 + 1.0))


def _per_point_audit(mode, sample_count):
    """The harmonic and divergence residuals with one evaluation per profile and sample."""
    k = mode.k
    kappa_sq = float(k.k1 ** 2 + k.k2 ** 2)
    p1, p2, p3 = mode.profiles
    seconds = [p.derivative().derivative() for p in mode.profiles]
    harmonic = divergence = 0.0
    for n in range(1, sample_count + 1):
        x3 = 2.0 * ((0.5 + n * (math.sqrt(5) - 1) / 2) % 1.0) - 1.0
        for prof, second in zip(mode.profiles, seconds):
            assert (prof.eval(x3), second.eval(x3)) == (_eval(prof, x3), _eval(second, x3))
            harmonic = max(harmonic, abs(_eval(second, x3) - kappa_sq * _eval(prof, x3)))
        div = 1j * k.k1 * _eval(p1, x3) + 1j * k.k2 * _eval(p2, x3) + _eval(p3.derivative(), x3)
        divergence = max(divergence, abs(div))
    return harmonic, divergence


@pytest.mark.parametrize("k", [(1, 0), (3, 4), (-39, 30), (300, 400)])
def test_verify_mode_equals_the_per_point_audit(k):
    # the audit shares one exponential pair among the nine profiles of a sample, and each
    # value keeps eval's operands, so the report keeps every bit
    for mode in (build_linearized_mode(WaveVector(*k), "+"),
                 corrupt_mode(build_linearized_mode(WaveVector(*k), "+"), 0.1)):
        rep = verify_mode(mode, 1000)
        expected = _per_point_audit(mode, 1000)
        assert [x.hex() for x in rep[:2]] == [x.hex() for x in expected]


def test_verify_mode_needs_one_kappa():
    mode = build_linearized_mode(WaveVector(3, 4), "+")
    W = mode.profiles[2]
    other = mode._replace(profiles=(*mode.profiles[:2], VerticalProfile(4.0, W.upper, W.lower)))
    with pytest.raises(ValueError, match="share one kappa"):
        verify_mode(other, 10)


def test_verify_mode_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        verify_mode(build_linearized_mode(WaveVector(1, 0), "+"), 0)
