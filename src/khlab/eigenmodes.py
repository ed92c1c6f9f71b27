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
from dataclasses import dataclass

import numpy as np

from khlab.core import (
    TWO_PI,
    SpectralMode,
    VerticalProfile,
    WaveVector,
    coth,
    exp_weights,
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
    W = VerticalProfile.from_exponential(kappa, (-ep, em), (em, -ep))
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


@dataclass(frozen=True)
class HarmonicPotential:
    """Harmonic potential e^{i j (x1 +/- t)} times a vertical profile."""

    j: int
    profile: VerticalProfile


def build_harmonic_potentials(j: int):
    """The odd/even harmonic potential pair at streamwise frequency j.

    Odd profile: sinh(j*x3) - coth(j)*cosh(j*x3) above the interface and
    sinh(j*x3) + coth(j)*cosh(j*x3) below; the even profile flips the
    sign of the upper part.  Both are annihilated by d^2/dx3^2 - j^2,
    so the full modes are harmonic, and both have Neumann walls.
    """
    if j < 1:
        raise ValueError("potential frequency j must be >= 1")
    ep, em = exp_weights(float(j))
    odd = VerticalProfile.from_exponential(float(j), (-ep, -em), (em, ep))
    even = VerticalProfile.from_exponential(float(j), (ep, em), (em, ep))
    return (HarmonicPotential(j, odd),
            HarmonicPotential(j, even))


def potential_gradient_norm_sq(j: int) -> float:
    """||grad of unit-coefficient potential||_L2^2 = 4*pi^2*j*coth(j).

    Holds for both parities (their profiles agree up to sign and
    mirror); cross-checked against grid quadrature in the test suite.
    """
    if j < 1:
        raise ValueError("potential frequency j must be >= 1")
    return 4.0 * math.pi ** 2 * j * coth(float(j))


def potential_gradient_plane(terms, n_tan: int, n_ver: int, t: float = 0.0):
    """Re(sum of coeff * grad potential) over (potential, coeff) terms, added in order.

    The potentials are constant in x2, so the result is the stacked
    x2-constant plane with axes (component, phase, x1, 1, x3).
    """
    x1, _ = tangential_grid(n_tan)
    plane = np.zeros((3, 2, n_tan, 1, n_ver + 1))
    for pot, coeff in terms:
        row_up = coeff * np.exp(1j * pot.j * (x1 + t))
        row_lo = coeff * np.exp(1j * pot.j * (x1 - t))
        # the gradient's vertical profiles are (i j profile, 0, d profile/dx3)
        plane[0] += row_profile_plane(row_up, row_lo, pot.profile.scaled(1j * pot.j), n_ver)
        plane[2] += row_profile_plane(row_up, row_lo, pot.profile.derivative(), n_ver)
    return plane


# ---------------------------------------------------------------------------
# numerical audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Worst-case defect of a mode against its defining conditions."""

    max_harmonic_residual: float
    max_divergence_residual: float
    wall_bc_residual: float
    interface_continuity_residual: float

    def max_residual(self) -> float:
        return max(self.max_harmonic_residual, self.max_divergence_residual,
                   self.wall_bc_residual, self.interface_continuity_residual)


def _kronecker_points(count: int):
    """Deterministic low-discrepancy sample of the slab (R2 sequence)."""
    # plastic-constant additive recurrence; x3 spans both phases
    g = 1.32471795724474602596
    i = np.arange(1, count + 1)
    u1 = np.mod(0.5 + i / g, 1.0)
    u2 = np.mod(0.5 + i / g ** 2, 1.0)
    u3 = np.mod(0.5 + i * (math.sqrt(5) - 1) / 2, 1.0)
    return TWO_PI * u1, TWO_PI * u2, 2.0 * u3 - 1.0


def verify_mode(mode: SpectralMode, sample_count: int = 1000) -> ResidualReport:
    """Audit a mode: harmonicity, divergence, wall and interface defects.

    Residuals are evaluated at a deterministic low-discrepancy sample of
    the slab at t = 0.  Exactly constructed modes report roundoff-level
    numbers; corrupted profiles light up the matching field.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    x1, x2, x3 = _kronecker_points(sample_count)
    k = mode.k
    kappa_sq = float(k.k1 ** 2 + k.k2 ** 2)

    harmonic = 0.0
    for prof in mode.profiles:
        second = prof.derivative().derivative()
        res = np.abs(second.eval(x3) - kappa_sq * prof.eval(x3))
        harmonic = max(harmonic, float(np.max(res)))

    p1, p2, p3 = mode.profiles
    div = (1j * k.k1 * p1.eval(x3) + 1j * k.k2 * p2.eval(x3)
           + p3.derivative().eval(x3))
    divergence = float(np.max(np.abs(div)))

    wall = max(abs(complex(p3.eval_upper(1.0))), abs(complex(p3.eval_lower(-1.0))))
    continuity = abs(complex(p3.eval_upper(0.0)) - complex(p3.eval_lower(0.0)))
    return ResidualReport(harmonic, divergence, float(wall), float(continuity))
