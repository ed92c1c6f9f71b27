"""Normal-mode construction and residual audit checks."""

import math

import numpy as np
import pytest

from khlab.core import VerticalProfile, WaveVector, tangential_grid, vertical_levels
from khlab.eigenmodes import (
    build_harmonic_potentials,
    build_linearized_mode,
    build_wall_bounded_profiles,
    potential_gradient_norm_sq,
    potential_gradient_plane,
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
        fields[j] = potential_gradient_field({j: 1.0}, {}, n_tan, n_ver)
    assert abs(inner_product_vector(fields[2], fields[3])) < 1e-11
    assert abs(inner_product_vector(fields[2], fields[5])) < 1e-11
    assert abs(inner_product_vector(fields[3], fields[5])) < 1e-11


def test_gradient_norm_weight_of_an_array_is_the_scalar_loop():
    # the array form serves the coefficient sums; the loop of math scalars it replaced is the
    # reference, to a few ulp, since numpy's exp and expm1 need not round as libm's do
    j = np.arange(1, 3001)
    weights = potential_gradient_norm_sq(j)
    reference = [4.0 * math.pi ** 2 * k * ((1.0 + math.exp(-2.0 * k)) / -math.expm1(-2.0 * k))
                 for k in j.tolist()]
    assert weights.tolist() == pytest.approx(reference, rel=4 * np.finfo(float).eps, abs=0)
    assert weights[6] == potential_gradient_norm_sq(7)
    with pytest.raises(ValueError, match="potential frequency j must be >= 1"):
        potential_gradient_norm_sq(np.array([3, 0]))


def test_gradient_norm_weight_against_quadrature_oracle():
    # closed form 4 pi^2 j coth j vs trapezoidal quadrature on the grid;
    # the quadrature error is O(h^2), so check the refinement trend too
    j = 3
    exact = potential_gradient_norm_sq(j)
    errs = []
    for n_ver in (32, 64, 128):
        grad = potential_gradient_field({j: 1.0}, {}, 16, n_ver)
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


def test_gradient_plane_is_the_drifting_kelvin_helmholtz_mode():
    # grad(e^{i n x1} f_n)/n = (V, 0, W), the wall-bounded mode at k = (n, 0), whose
    # tangential phase drifts by +t above the interface and by -t below it
    n, n_tan, n_ver = 3, 16, 8
    mode = build_linearized_mode(WaveVector(n, 0))._replace(lam=0j)
    x1 = tangential_grid(n_tan)
    zu, zl = vertical_levels(n_ver)
    for t in (0.0, 0.7):
        plane = potential_gradient_plane([n], [1.0 / n], [0], n_tan, n_ver, t)
        # the mode reads x3 = 0 as the upper phase, so the lower interface row is left out
        for phase, z in ((0, zu), (1, zl[:-1])):
            x1_grid, x3_grid = np.meshgrid(x1, z, indexing="ij")
            expect = np.real(mode.velocity(x1_grid, 0.0, x3_grid, t))
            got = plane[:, phase, :, 0, :len(z)]
            assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_even_family_shares_the_gradient_weight():
    j = 4
    grad = potential_gradient_field({}, {j: 1.0}, 16, 128)
    quad = inner_product_vector(grad, grad)
    assert quad == pytest.approx(potential_gradient_norm_sq(j), rel=1e-3)


# ---------------------------------------------------------------------------
# residual audit
# ---------------------------------------------------------------------------

# the largest k1 whose square rounds below 2^1024; its float is 2^512, whose square overflows
K1 = math.isqrt(2 ** 1024 - 2 ** 970 - 1)


def test_verify_mode_clean_profiles():
    # the residuals are relative to the terms they are formed from, so no kappa lifts them
    for k in ((1, 0), (8, 0), (5, 12), (64, 0), (2000, 0), (10 ** 5, 0), (10 ** 8, 0),
              (10 ** 153, 0), (K1, 0), (3, 4), (-39, 30), (300, 400)):
        rep = verify_mode(build_linearized_mode(WaveVector(*k), "+"))
        assert rep.max_residual() < 1e-9
        assert rep.max_harmonic_residual <= 1e-15 and rep.max_divergence_residual <= 1e-15


def test_verify_mode_negative_control():
    mode = build_linearized_mode(WaveVector(2, 0), "+")
    rep = verify_mode(corrupt_mode(mode, 0.1))
    assert rep.wall_bc_residual > 0.01


@pytest.mark.parametrize("kappa", [64, 2000, 10 ** 5, 10 ** 8])
def test_verify_mode_sees_a_scaled_v1_profile(kappa):
    # v1 scaled by 1.01 leaves a divergence of 1 % of i k1 v1 at the ends of the phases,
    # where a mode of any kappa peaks: the residual reads 0.01/1.01 at every kappa
    mode = build_linearized_mode(WaveVector(kappa, 0), "+")
    bad = mode._replace(profiles=(mode.profiles[0].scaled(1.01), *mode.profiles[1:]))
    assert verify_mode(bad).max_divergence_residual == pytest.approx(0.01 / 1.01, rel=1e-12)


def test_verify_mode_zero_amplitudes():
    mode = build_linearized_mode(WaveVector(2, 0), "+")
    zeroed = corrupt_mode(mode, 0.0)
    scaled = type(mode)(k=mode.k,
                        profiles=tuple(p.scaled(0.0) for p in mode.profiles),
                        lam=mode.lam)
    rep = verify_mode(scaled)
    assert rep.max_residual() == 0.0
    assert verify_mode(zeroed).max_residual() == pytest.approx(
        verify_mode(mode).max_residual(), abs=1e-12)


def test_verify_mode_needs_one_kappa():
    mode = build_linearized_mode(WaveVector(3, 4), "+")
    W = mode.profiles[2]
    other = mode._replace(profiles=(*mode.profiles[:2], VerticalProfile(4.0, W.upper, W.lower)))
    with pytest.raises(ValueError, match="share one kappa"):
        verify_mode(other)


def _replaced(mode, index, profile):
    return mode._replace(profiles=tuple(profile if i == index else p
                                        for i, p in enumerate(mode.profiles)))


def _shifted(mode, phase, index):
    """The mode with 1e-6 added to b_plus (index 0) or b_minus (index 1) of v1's pair on phase
    ("upper" or "lower"): a defect at the one end of a phase where that term peaks."""
    v1 = mode.profiles[0]
    pair = tuple(b + 1e-6 if i == index else b for i, b in enumerate(getattr(v1, phase)))
    return _replaced(mode, 0, v1._replace(**{phase: pair}))


# corrupted modes that the audit must reject: one defect each in a profile of the mode
MODE_MUTANTS = {
    "v1 scaled": lambda m: _replaced(m, 0, m.profiles[0].scaled(1.01)),
    "v2 scaled": lambda m: _replaced(m, 1, m.profiles[1].scaled(1.01)),
    "v3 scaled": lambda m: _replaced(m, 2, m.profiles[2].scaled(1.01)),
    "v1 without its factor i": lambda m: _replaced(m, 0, m.profiles[0].scaled(-1j)),
    "kappa off by 1e-6": lambda m: m._replace(profiles=tuple(
        p._replace(kappa=p.kappa * (1.0 + 1e-6)) for p in m.profiles)),
    "v3 lower pair swapped": lambda m: _replaced(
        m, 2, m.profiles[2]._replace(lower=m.profiles[2].lower[::-1])),
    "v1 b_plus shifted at x3 = 1": lambda m: _shifted(m, "upper", 0),
    "v1 b_minus shifted at x3 = 0+": lambda m: _shifted(m, "upper", 1),
    "v1 b_plus shifted at x3 = 0-": lambda m: _shifted(m, "lower", 0),
    "v1 b_minus shifted at x3 = -1": lambda m: _shifted(m, "lower", 1),
}


@pytest.mark.parametrize("k", [(1, 0), (64, 0), (2000, 0), (3, 4)])
@pytest.mark.parametrize("name", MODE_MUTANTS)
def test_verify_mode_rejects_every_corrupted_mode(name, k):
    mode = build_linearized_mode(WaveVector(*k), "+")
    bad = MODE_MUTANTS[name](mode)
    assert verify_mode(mode).max_residual() < 1e-9
    if name == "v2 scaled" and k[1] == 0:   # v2 = 0 at k2 = 0: the mutant is the mode itself
        assert bad == mode
    else:
        assert verify_mode(bad).max_residual() >= 1e-9


def _oracle_points(mpmath, kappa, top):
    """x3 on the phase [top - 1, top] as 50-digit numbers: its two ends, then 500 uniform
    points and 250 points in the stretched coordinate kappa * (distance to an end) per end."""
    lo, K = mpmath.mpf(top - 1), mpmath.mpf(kappa)
    reach = min(40, K)   # out to 40 decay lengths 1/kappa, within the phase
    stretched = [reach * (mpmath.mpf(i) / 250) ** 2 / K for i in range(1, 251)]
    uniform = [lo + (mpmath.mpf(i) + 0.5) / 500 for i in range(500)]
    return [lo, lo + 1], uniform + [lo + s for s in stretched] + [lo + 1 - s for s in stretched]


def _divergence_oracle(mpmath, mode):
    """(largest |div| at the ends, largest |div| between them, largest |term|) of
    div = i k1 v1 + i k2 v2 + v3' at 50 digits, from the mode's own coefficients."""
    k1, k2 = mode.k
    v1, v2, v3 = mode.profiles
    K = mpmath.mpf(v3.kappa)
    ends, interior, scale = [], [], mpmath.mpf(0)
    for top, phase in ((1, "upper"), (0, "lower")):
        b3_plus, b3_minus = (mpmath.mpc(b) for b in getattr(v3, phase))
        pairs = [[mpmath.mpc(0, kj) * mpmath.mpc(b) for b in getattr(p, phase)]
                 for kj, p in ((k1, v1), (k2, v2))] + [[K * b3_plus, -K * b3_minus]]
        for found, points in zip((ends, interior), _oracle_points(mpmath, v3.kappa, top)):
            for x in points:
                e_plus, e_minus = mpmath.exp(K * (x - top)), mpmath.exp(K * (top - 1 - x))
                terms = [b_plus * e_plus + b_minus * e_minus for b_plus, b_minus in pairs]
                found.append(abs(sum(terms)))
                scale = max(scale, *(abs(term) for term in terms))
    return max(ends), max(interior), scale


@pytest.mark.parametrize("k", [(1, 0), (3, 4), (64, 0), (-39, 30), (2000, 0), (10 ** 5, 0),
                               (10 ** 8, 0)])
def test_verify_mode_reads_the_divergence_peak_of_a_50_digit_oracle(k):
    # over 2004 points per mode the divergence peaks at an end of a phase, and the audit
    # reports that peak relative to its largest term, for exact and corrupted modes alike
    mpmath = pytest.importorskip("mpmath")
    exact = build_linearized_mode(WaveVector(*k), "+")
    corrupted = ("v1 scaled", "v1 b_plus shifted at x3 = 1", "v3 lower pair swapped")
    for mode in (exact, *(MODE_MUTANTS[name](exact) for name in corrupted)):
        reported = verify_mode(mode).max_divergence_residual
        with mpmath.workdps(50):
            at_ends, between, scale = _divergence_oracle(mpmath, mode)
            assert between <= at_ends * (1 + mpmath.mpf(10) ** -40)
            assert abs(at_ends / scale - reported) <= 1e-12
