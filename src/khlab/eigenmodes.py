"""Closed-form linearized normal modes and harmonic potentials.

The linearized sheet problem separates per tangential wave vector into
vertical two-point problems whose solutions are hyperbolic.  Three
families matter here:

* wall-bounded velocity profiles (W, V): W carries the wall-normal
  velocity, vanishes at the walls and is continuous at the interface;
  V carries the tangential velocity forced by incompressibility,
  V = i W' / kappa.
* odd potentials f_j: harmonic, Neumann walls, normal derivative
  continuous at the interface, value flipping sign across it.
* even potentials g_j: harmonic, Neumann walls, value continuous at
  the interface.

All profiles are built directly in the exponential basis with expm1
so wall and interface conditions hold to roundoff even at kappa of
several hundred, where the cosh/sinh coefficient form cancels badly.

Construction convention: the real field associated with a coefficient
c and frequency j is Re(c * exp(i*j*x1)) times the vertical profile;
the tangential phase drifts with the background stream, +t in the
upper phase and -t in the lower one.
"""

import math
from typing import NamedTuple

from khlab.core import (
    SpectralMode,
    VerticalProfile,
    WaveVector,
    coth,
    exp_pair_values,
    exp_weights,
    np,
    row_profile_plane,
    tangential_grid,
)


def build_wall_bounded_profiles(k: WaveVector):
    """Velocity profiles (W, V) of the wall-bounded normal mode.

    W(x3) = cosh(kappa*x3) -/+ coth(kappa)*sinh(kappa*x3) per phase,
    equal to sinh(kappa*(1 -/+ x3))/sinh(kappa); it vanishes at the
    walls and equals 1 at the interface from both sides.  V = i W'/kappa
    is the tangential companion enforced by incompressibility.
    """
    kappa = k.kappa
    if kappa == 0.0:
        raise ValueError("wall-bounded profiles need kappa > 0 (coth singular)")
    ep, em = exp_weights(kappa)
    W = VerticalProfile(kappa, (-ep, em), (em, -ep))
    V = W.derivative().scaled(1j / kappa)
    return W, V


def build_linearized_mode(k: WaveVector, branch: str = "+") -> SpectralMode:
    """One wall-bounded normal mode for wave vector k.

    branch "+" grows like e^{kappa t}, "-" decays.  Velocity component
    ordering is (v1, v2, v3) with v3 = W and the tangential components
    (k1, k2)/kappa * V, which makes the mode exactly divergence-free;
    at k2 = 0 this reduces to (V, 0, W).
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    k.require_nonzero()
    kappa = k.kappa
    W, V = build_wall_bounded_profiles(k)
    v1 = V.scaled(k.k1 / kappa)
    v2 = V.scaled(k.k2 / kappa)
    lam = kappa if branch == "+" else -kappa
    return SpectralMode(k=k, profiles=(v1, v2, W), lam=complex(lam))


def build_harmonic_potentials(j: int):
    """The (odd, even) profiles of the harmonic potentials at streamwise frequency j.

    Each potential is e^{i j (x1 +/- t)} times its profile, whose kappa is j.
    Odd profile: sinh(j*x3) - coth(j)*cosh(j*x3) above the interface and
    sinh(j*x3) + coth(j)*cosh(j*x3) below; the even profile flips the
    sign of the upper part.  Both are annihilated by d^2/dx3^2 - j^2,
    so the full modes are harmonic, and both have Neumann walls.
    """
    if j < 1:
        raise ValueError("potential frequency j must be >= 1")
    ep, em = exp_weights(float(j))
    return (VerticalProfile(float(j), (-ep, -em), (em, ep)),
            VerticalProfile(float(j), (ep, em), (em, ep)))


def potential_gradient_norm_sq(j: int) -> float:
    """||grad of unit-coefficient potential||_L2^2 = 4*pi^2*j*coth(j).

    Holds for both parities (their profiles agree up to sign and
    mirror); cross-checked against grid quadrature in the test suite.
    """
    if j < 1:
        raise ValueError("potential frequency j must be >= 1")
    return 4.0 * math.pi ** 2 * j * coth(float(j))


def potential_gradient_plane(terms, n_tan: int, n_ver: int, t: float = 0.0):
    """Re(sum of coeff * grad potential) over (profile, coeff) terms, added in order.

    Each profile is one of build_harmonic_potentials(j), whose frequency
    j is profile.kappa.  The potentials are constant in x2, so the result
    is the stacked x2-constant plane with axes (component, phase, x1, 1, x3).
    """
    x1 = tangential_grid(n_tan)
    plane = np.zeros((3, 2, n_tan, 1, n_ver + 1))
    for profile, coeff in terms:
        j = profile.kappa
        row_up = coeff * np.exp(1j * j * (x1 + t))
        row_lo = coeff * np.exp(1j * j * (x1 - t))
        # the gradient's vertical profiles are (i j profile, 0, d profile/dx3)
        plane[0] += row_profile_plane(row_up, row_lo, profile.scaled(1j * j), n_ver)
        plane[2] += row_profile_plane(row_up, row_lo, profile.derivative(), n_ver)
    return plane


# ---------------------------------------------------------------------------
# numerical audit
# ---------------------------------------------------------------------------

class ResidualReport(NamedTuple):
    """Worst-case defect of a mode against its defining conditions."""

    max_harmonic_residual: float
    max_divergence_residual: float
    wall_bc_residual: float
    interface_continuity_residual: float

    def max_residual(self) -> float:
        return max(self)


def verify_mode(mode: SpectralMode, sample_count: int = 1000) -> ResidualReport:
    """Audit a mode: harmonicity, divergence, wall and interface defects.

    Residuals are evaluated one point at a time at a deterministic
    low-discrepancy x3 sample at t = 0.  Exactly constructed modes report
    roundoff-level numbers; corrupted profiles light up the matching field.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    k = mode.k
    kappa_sq = float(k.k1 ** 2 + k.k2 ** 2)
    p3 = mode.profiles[2]
    # a sample reads the components, their second derivatives and d p3/dx3: nine profiles
    # of one kappa, so one exponential pair per sample serves them all
    nine = (*mode.profiles, *(p.derivative().derivative() for p in mode.profiles), p3.derivative())
    if len({p.kappa for p in nine}) > 1:
        raise ValueError("the profiles of a mode must share one kappa")
    phases = [p.lower for p in nine], [p.upper for p in nine]

    harmonic = divergence = 0.0
    for n in range(1, sample_count + 1):
        # a low-discrepancy sample over both phases (golden-ratio recurrence); the
        # residuals depend on x3 alone, as the tangential factor of a mode divides out
        x3 = 2.0 * ((0.5 + n * (math.sqrt(5) - 1) / 2) % 1.0) - 1.0
        v = exp_pair_values(p3.kappa, phases[x3 >= 0.0], x3)
        harmonic = max(harmonic, *(abs(v[i + 3] - kappa_sq * v[i]) for i in range(3)))
        divergence = max(divergence, abs(1j * k.k1 * v[0] + 1j * k.k2 * v[1] + v[6]))

    wall = max(abs(p3.eval_upper(1.0)), abs(p3.eval_lower(-1.0)))
    continuity = abs(p3.eval_upper(0.0) - p3.eval_lower(0.0))
    return ResidualReport(harmonic, divergence, wall, continuity)
