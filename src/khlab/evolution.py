"""Linearized time evolution: boundary modes and the four-block system.

Restricted to the interface, the linearized wall-normal velocity obeys

    d2/dt2 u3 + d2/dx1^2 u3 = (a^2 + b^2)/2 * d2/dx2^2 u3,

so a tangential mode (k1, k2) evolves with squared exponent
lambda^2 = k1^2 - (a^2 + b^2)/2 * k2^2: streamwise modes grow at rate
k1 regardless of the transverse field, while spanwise modes can be
turned oscillatory.

In the decomposed interior picture the coefficient blocks evolve
independently (the linear system is block-diagonal):

    P block   w+/-' = +/-j w+/-   growing odd potentials, j >= n_cutoff
    L block   w+/-' = +/-j w+/-   low-frequency odd potentials
    g block   c'' = -2 j^2 c      even potentials, neutral oscillation
    r block   c'' = -k * k2^2 c   per phase, k = a^2 above / b^2 below

A acts as j^2 on potential coefficients and as k2^2 on the x2 spectrum
in which a state stores r, so no step transforms.  Every mode, including
each x2 Fourier mode of r, obeys y'' = lambda^2 y and goes through one
propagator.  A growing mode (lambda^2 = omega^2 > 0) advances its
characteristic pair w+/- = v +/- omega*y by mu+/-: e^{+/-omega t} exact,
R(+/-omega h)^m rk4, R the amplification polynomial of classical RK4, which
reproduces stage-by-stage RK4 to roundoff.  Any other mode advances by
(C, S): y(t) = C y0 + S v0, v(t) = lambda^2 S y0 + C v0.
"""

import math
from typing import NamedTuple

from khlab.core import PerturbationState, WaveVector, _r_frequencies, np

RK4_STABILITY_LIMIT = 2.8   # max |omega| * h for the oscillatory blocks


class StabilityError(ValueError):
    """Requested RK4 step size violates the documented stability rule."""


# ---------------------------------------------------------------------------
# the propagator
# ---------------------------------------------------------------------------

def _propagators(lambda_sq, t, stepper, dt):
    """(C, S, mu_plus, mu_minus, mu_diff) arrays advancing y'' = lambda_sq * y by time t.

    (C, S) cover the entries with lambda_sq <= 0 and mu+/-, mu_diff those with
    lambda_sq = omega^2 > 0, each in input order.  exact: closed forms.  rk4:
    m = max(1, round(t/dt)) classical steps of h = t/m.  As A^2 = lambda_sq * I,
    one step is c*I + h*s*A with z = lambda_sq*h^2, c = 1 + z/2 + z^2/24,
    s = 1 + z/6, whose eigenvalues c +/- h*s*sqrt(lambda_sq) give the m-th power
    at a cost independent of m: mu+/- = scale*e^{+/-beta}, C = scale*cos(theta),
    S = scale*sin(theta)/omega (C = 1, S = t at 0), scale = |mu|^m = exp((m/2)
    log1p(z^3 (8+z)/576)) from the exact mu+ mu- - 1, beta = (m/2) log(mu+/mu-),
    theta = m arg(mu+); exact has scale 1, beta = theta = omega t.  mu_diff =
    mu+ - mu- = -mu+ expm1(-2 beta), free of their cancellation at beta << 1.
    Needs max|omega| * h <= RK4_STABILITY_LIMIT; OverflowError if C, S or mu+/- overflow.
    """
    if not t >= 0:
        raise ValueError("time must be nonnegative")
    lam = np.asarray(lambda_sq, dtype=float)
    w = np.sqrt(np.abs(lam))
    grow = lam > 0
    with np.errstate(all="ignore"):   # entries that the masks drop may divide by zero
        if stepper == "exact":
            scale, beta, theta = np.ones_like(lam), w * t, w * t
        elif stepper == "rk4":
            if dt is None:
                raise ValueError("rk4 stepper requires dt")
            if dt <= 0:
                raise StabilityError("rk4 requires dt > 0")
            if not math.isfinite(t / dt):
                raise OverflowError(f"rk4 step count t/dt = {t}/{dt:g} leaves the float range")
            steps = max(1, round(t / dt))
            h = t / steps
            omega_h = math.sqrt(float(np.max(np.abs(lam), initial=0.0))) * h
            if omega_h > RK4_STABILITY_LIMIT:
                raise StabilityError(
                    f"rk4 step h={h} (dt={dt}) unstable: |omega|*h = {omega_h:.3f} "
                    f"exceeds the limit {RK4_STABILITY_LIMIT}")
            z = lam * h * h
            c = 1.0 + z / 2.0 + z * z / 24.0
            hsw = h * (1.0 + z / 6.0) * w
            scale = np.exp(0.5 * steps * np.log1p(z ** 3 * (8.0 + z) / 576.0))
            beta = 0.5 * steps * np.log1p(2.0 * hsw / (c - hsw))
            theta = steps * np.arctan2(hsw, c)
        else:
            raise ValueError(f"unknown stepper {stepper!r}")
        C = (scale * np.cos(theta))[~grow]
        S = np.where(w > 0, scale * np.sin(theta) / np.where(w > 0, w, 1.0), t)[~grow]
        mu_plus, mu_minus = (scale[grow] * np.exp(sign * beta[grow]) for sign in (1.0, -1.0))
        mu_diff = -mu_plus * np.expm1(-2.0 * beta[grow])
    if not all(np.all(np.isfinite(x)) for x in (C, S, mu_plus, mu_minus)):
        raise OverflowError(
            f"propagator leaves the float range at t={t} "
            f"(largest |lambda^2| = {float(np.max(np.abs(lam), initial=0.0)):.6g})")
    return C, S, mu_plus, mu_minus, mu_diff


# ---------------------------------------------------------------------------
# boundary modes
# ---------------------------------------------------------------------------

class BoundaryModeState(NamedTuple):
    """Amplitude and amplitude velocity of one interface mode."""

    k: WaveVector
    amplitude: complex
    velocity: complex


def boundary_dispersion(k: WaveVector, a: float, b: float) -> float:
    """Squared temporal exponent of interface mode k: k1^2 - (a^2+b^2)/2 * k2^2, k1^2 at k2 = 0.

    Past the float range at finite a and b it raises OverflowError; an infinite field passes.
    """
    k.require_nonzero()
    k1, k2 = float(k.k1), float(k.k2)
    lam_sq = k1 * k1 - (0.5 * (a * a + b * b) * (k2 * k2) if k2 else 0.0)
    if not math.isfinite(lam_sq) and math.isfinite(a) and math.isfinite(b):
        raise OverflowError("lambda^2 leaves the float range; lower |k|, a or b")
    return lam_sq


def evolve_boundary_mode(state: BoundaryModeState, a: float, b: float, t: float,
                         stepper: str = "exact", dt: float = None) -> BoundaryModeState:
    """Advance one interface mode, amp'' = lambda^2 * amp, by time t.

    A growing mode advances its characteristic pair as evolve_state advances P
    and L (t = 0 is the identity), any other by (C, S); "exact" takes closed
    forms, stepper="rk4" the classical scheme at step dt for convergence studies.
    """
    lam_sq = boundary_dispersion(state.k, a, b)
    C, S, _, mu_minus, mu_diff = _propagators([lam_sq], t, stepper, dt)
    amp, vel = state.amplitude, state.velocity
    if lam_sq > 0:   # w+/- = vel +/- omega*amp times mu+/-, with w- = w+ - 2*omega*amp
        omega, decay, rise = math.sqrt(lam_sq), float(mu_minus[0]), float(mu_diff[0])
        w_plus = vel + omega * amp
        return BoundaryModeState(state.k, amp * decay + w_plus * (rise / (2.0 * omega)),
                                 vel * decay + w_plus * (rise / 2.0))
    C, S = float(C[0]), float(S[0])
    return BoundaryModeState(state.k, amp * C + vel * S, amp * lam_sq * S + vel * C)


# ---------------------------------------------------------------------------
# operator A on decomposed states
# ---------------------------------------------------------------------------

def apply_A(state: PerturbationState) -> PerturbationState:
    """Apply the block operator A to every part of a state.

    Potential coefficients (w+/- of P and L, g and its velocity) are
    multiplied by j^2; the r spectra get the x2 Fourier multiplier k2^2,
    i.e. the negative second x2 derivative.
    """
    def scale(coeffs):
        return {j: (j ** 2) * c for j, c in coeffs.items()}

    def on_r(spectrum):
        return None if spectrum is None else spectrum * (_r_frequencies(spectrum) ** 2)[:, None]

    return PerturbationState._from_spectra(
        state.n_cutoff,
        scale(state.w_plus), scale(state.w_minus),
        scale(state.g), scale(state.g_dot),
        on_r(state.r_hat), on_r(state.r_dot_hat),
    )


# ---------------------------------------------------------------------------
# full linear evolution
# ---------------------------------------------------------------------------

def default_rk4_dt(state: PerturbationState, a: float, b: float, n_tan: int) -> float:
    """The rk4 step taken when none is given: min(0.01, 0.25/omega_max).

    omega_max is the larger of sqrt(2) * max(j, 1) over the coefficients
    of P, L and g, which bounds their rates j and sqrt(2)*j, and of the
    r-block frequency max(a, b) * (n_tan // 2) of data sampled on n_tan
    points per tangential direction, whether or not the state holds an
    r block.  |omega| * dt then stays at most 0.25, far inside
    RK4_STABILITY_LIMIT.  Raises OverflowError if the r-block frequency
    leaves the float range.
    """
    j_max = max([1, *state.w_plus, *state.g, *state.g_dot])
    omega_r = max(a, b) * (n_tan // 2)
    if math.isinf(omega_r):
        raise OverflowError(f"rk4 default step: r-block frequency max(a, b) * (n_tan // 2) "
                            f"= {omega_r:g} leaves the float range")
    return min(1e-2, 0.25 / max(math.sqrt(2.0) * j_max, omega_r))


def evolve_state(state: PerturbationState, a: float, b: float, t: float,
                 stepper: str = "exact", dt: float = None) -> PerturbationState:
    """Advance a decomposed perturbation by time t.

    Blocks evolve independently with their own stiffness: P and L grow
    and decay at rate j, g oscillates at sqrt(2)*j, r oscillates at
    a*|k2| above and b*|k2| below the interface (x2-independent r
    content moves linearly in t).  All coefficients and every x2 mode
    the state stores go through one call of the propagator; rk4 is
    rejected when max|omega| over those modes times the step taken
    exceeds RK4_STABILITY_LIMIT.  An absent r block stays absent, and a
    plane r stays a plane whose k2 = 0 alone is propagated.
    """
    odd, even = sorted(state.w_plus), sorted(set(state.g) | set(state.g_dot))
    lam_sq = np.array([float(j * j) for j in odd] + [-2.0 * float(j * j) for j in even])
    r_hat, r_dot_hat = state.r_hat, state.r_dot_hat
    spectrum = r_dot_hat if r_hat is None else r_hat
    if spectrum is not None:
        k2 = _r_frequencies(spectrum)
        with np.errstate(over="ignore"):   # a field past 1e154 leaves the float range here
            lam_r = -np.stack([(a * k2) ** 2, (b * k2) ** 2])
        lam_sq = np.concatenate([lam_sq, lam_r.ravel()])
    C, S, mu_plus, mu_minus, _ = _propagators(lam_sq, t, stepper, dt)

    # the odd family holds every growing entry; C and S are g's entries, then r's
    evolved = [dict(zip(odd, (np.array([w[j] for j in odd], dtype=complex) * mu).tolist()))
               for w, mu in ((state.w_plus, mu_plus), (state.w_minus, mu_minus))]
    n, lam_g = len(even), lam_sq[len(odd):len(odd) + len(even)]
    c = np.array([state.g.get(j, 0.0) for j in even], dtype=complex)
    d = np.array([state.g_dot.get(j, 0.0) for j in even], dtype=complex)
    evolved.append(dict(zip(even, (c * C[:n] + d * S[:n]).tolist())))
    evolved.append(dict(zip(even, (c * lam_g * S[:n] + d * C[:n]).tolist())))

    if spectrum is not None:
        Cr, Sr, lam = (x.reshape(1, 2, 1, k2.size, 1) for x in (C[n:], S[n:], lam_r))
        y0 = 0.0 if r_hat is None else r_hat
        v0 = 0.0 if r_dot_hat is None else r_dot_hat
        r_hat, r_dot_hat = y0 * Cr + v0 * Sr, y0 * (lam * Sr) + v0 * Cr

    return PerturbationState._from_spectra(state.n_cutoff, *evolved, r_hat, r_dot_hat)
