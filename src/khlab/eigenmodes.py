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

All profiles are built in the anchored exponential basis of
core.VerticalProfile, so wall and interface conditions hold to roundoff
at every kappa, where the cosh/sinh coefficient form cancels or overflows.

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
    exp_weights,
    np,
    tangential_grid,
    vertical_levels,
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


def potential_gradient_norm_sq(j):
    """||grad of unit-coefficient potential||_L2^2 = 4*pi^2*j*coth(j) of an int j >= 1, or
    elementwise of an array of them.

    Holds for both parities (their profiles agree up to sign and
    mirror); cross-checked against grid quadrature in the test suite.
    """
    if (np.asarray(j) < 1).any():
        raise ValueError("potential frequency j must be >= 1")
    coth = (1.0 + np.exp(-2.0 * j)) / -np.expm1(-2.0 * j)   # no overflow at any j
    return 4.0 * math.pi ** 2 * j * coth


def potential_gradient_plane(j, odd, even, n_tan: int, n_ver: int, t: float = 0.0):
    """Re(grad h) for h = sum over j of odd_j f_j + even_j g_j, the profiles (f_j, g_j) of
    build_harmonic_potentials(j) times their drifting rows e^{i j (x1 +/- t)}.

    j holds ascending frequencies >= 1 and odd and even the coefficients aligned to it, a
    zero adding no term; terms are added j ascending, the odd before the even.  The
    potentials are constant in x2, so the result is the stacked x2-constant plane with axes
    (component, phase, x1, 1, x3).
    """
    x1 = tangential_grid(n_tan)
    zu, zl = vertical_levels(n_ver)
    plane = np.zeros((3, 2, n_tan, 1, n_ver + 1))
    for j, c_odd, c_even in zip(map(int, j), odd, even):
        for profile, c in zip(build_harmonic_potentials(j), (c_odd, c_even)):
            if c == 0:
                continue
            row_up, row_lo = c * np.exp(1j * j * (x1 + t)), c * np.exp(1j * j * (x1 - t))
            # the gradient's vertical profiles are (i j profile, 0, d profile/dx3)
            for component, part in ((0, profile.scaled(1j * j)), (2, profile.derivative())):
                plane[component, 0, :, 0] += np.real(row_up[:, None] * part.eval_upper(zu))
                plane[component, 1, :, 0] += np.real(row_lo[:, None] * part.eval_lower(zl))
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


def _end_values(profile):
    """A profile at the four ends of its phases: x3 = 0+, 1, -1 and 0-."""
    return (profile.eval_upper(0.0), profile.eval_upper(1.0),
            profile.eval_lower(-1.0), profile.eval_lower(0.0))


def verify_mode(mode: SpectralMode) -> ResidualReport:
    """Audit a mode at t = 0 from its closed form, exactly at every kappa.

    Each profile is an anchored exponential pair per phase, so p'' = kappa^2 p holds in the
    representation: the harmonic residual is |kappa^2 - k1^2 - k2^2| / (k1^2 + k2^2).  The
    divergence i k1 v1 + i k2 v2 + v3' and its terms are such pairs too, and |b+ E+ + b- E-|^2
    is convex in x3 (E+ E- = e^-kappa on a phase), so each peaks at an end of a phase: the
    divergence residual is its largest end value over its terms', 0 if every term is 0.
    Wall and interface residuals are absolute values, with W = 1 at the interface.
    """
    k = mode.k.require_nonzero()
    try:
        kappa_sq = float(k.k1 ** 2 + k.k2 ** 2)
    except OverflowError:
        raise OverflowError("kappa^2 = k1^2 + k2^2 leaves the float range; lower |k|") from None
    if len({p.kappa for p in mode.profiles}) > 1:
        raise ValueError("the profiles of a mode must share one kappa")
    p1, p2, p3 = mode.profiles
    harmonic = abs(p3.kappa * (p3.kappa / kappa_sq) - 1.0)   # kappa^2 itself may overflow
    terms = [_end_values(p) for p in (p1.scaled(1j * k.k1), p2.scaled(1j * k.k2), p3.derivative())]
    scale = max(abs(v) for values in terms for v in values)
    divergence = max(abs(sum(ends)) for ends in zip(*terms)) / scale if scale else 0.0

    wall = max(abs(p3.eval_upper(1.0)), abs(p3.eval_lower(-1.0)))
    continuity = abs(p3.eval_upper(0.0) - p3.eval_lower(0.0))
    return ResidualReport(harmonic, divergence, wall, continuity)
