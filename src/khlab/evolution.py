"""Linearized time evolution: boundary modes and the four-block system.

Restricted to the interface, the linearized wall-normal velocity obeys

    d2/dt2 u3 + d2/dx1^2 u3 = (a^2 + b^2)/2 * d2/dx2^2 u3,

so a tangential mode (k1, k2) evolves with squared exponent
lambda^2 = k1^2 - (a^2 + b^2)/2 * k2^2: streamwise modes grow at rate
k1 regardless of the transverse field, while spanwise modes can be
turned oscillatory.

In the decomposed interior picture the coefficient blocks evolve
independently (the linear system is block-diagonal):

    P block   c'' = +j^2 c        growing odd potentials, j >= n_cutoff
    L block   c'' = +j^2 c        low-frequency odd potentials
    g block   c'' = -2 j^2 c      even potentials, neutral oscillation
    r block   c'' = -k * k2^2 c   per phase, k = a^2 above / b^2 below

A acts as j^2 on potential coefficients and as k2^2 on the x2 spectrum
in which a state stores r, so no step transforms.  Every mode, including
each x2 Fourier mode of r, obeys y'' = lambda^2 y and is advanced by one
propagator (C, S): y(t) = C y0 + S v0, v(t) = lambda^2 S y0 + C v0.  The
exact stepper takes C and S in closed form (cosh/sinh, cos/sin or
linear); the rk4 stepper takes them from the m-th power of the classical
RK4 one-step matrix, its amplification polynomial, which reproduces
stage-by-stage RK4 to roundoff.
"""

import math
from dataclasses import dataclass

import numpy as np

from khlab.core import PerturbationState, WaveVector, _r_frequencies

RK4_STABILITY_LIMIT = 2.8   # max |omega| * h for the oscillatory blocks


class StabilityError(ValueError):
    """Requested RK4 step size violates the documented stability rule."""


# ---------------------------------------------------------------------------
# the propagator
# ---------------------------------------------------------------------------

def _propagators(lambda_sq, t, stepper, dt):
    """(C, S) arrays advancing y'' = lambda_sq * y by time t, per entry.

    exact: closed forms.  rk4: m = max(1, round(t/dt)) classical steps of
    h = t/m.  For this system A^2 = lambda_sq * I, so one step is
    c*I + h*s*A with z = lambda_sq*h^2, c = 1 + z/2 + z^2/24,
    s = 1 + z/6, and its powers stay of the form C*I + S*A.  The step
    taken must satisfy max|omega| * h <= RK4_STABILITY_LIMIT.  Raises
    OverflowError when C or S leaves the float range.
    """
    if not t >= 0:
        raise ValueError("time must be nonnegative")
    lam = np.asarray(lambda_sq, dtype=float)
    if stepper == "exact":
        w = np.sqrt(np.abs(lam))
        grow = lam > 0
        with np.errstate(over="ignore", invalid="ignore"):
            wt = w * t
            C = np.cos(wt)
            S = np.where(w > 0, np.sin(wt) / np.where(w > 0, w, 1.0), t)
            # libm cosh/sinh on the few growing entries: numpy's may differ by
            # an ulp, which E_mu- (a difference of e^{jt}-sized terms) amplifies
            try:
                C[grow] = [math.cosh(x) for x in wt[grow]]
                S[grow] = [math.sinh(x) for x in wt[grow]]
            except OverflowError:
                C[grow] = np.inf
            S[grow] /= w[grow]
    elif stepper == "rk4":
        if dt is None:
            raise ValueError("rk4 stepper requires dt")
        if dt <= 0:
            raise StabilityError("rk4 requires dt > 0")
        steps = max(1, round(t / dt))
        h = t / steps
        omega_h = math.sqrt(float(np.max(np.abs(lam), initial=0.0))) * h
        if omega_h > RK4_STABILITY_LIMIT:
            raise StabilityError(
                f"rk4 step h={h} (dt={dt}) unstable: |omega|*h = {omega_h:.3f} "
                f"exceeds the limit {RK4_STABILITY_LIMIT}")
        C, S = np.ones_like(lam), np.zeros_like(lam)
        with np.errstate(over="ignore", invalid="ignore"):
            z = lam * h * h
            c = 1.0 + z / 2.0 + z * z / 24.0
            hs = h * (1.0 + z / 6.0)
            for _ in range(steps):
                C, S = c * C + lam * hs * S, c * S + hs * C
    else:
        raise ValueError(f"unknown stepper {stepper!r}")
    if not (np.all(np.isfinite(C)) and np.all(np.isfinite(S))):
        raise OverflowError(
            f"propagator leaves the float range at t={t} "
            f"(largest |lambda^2| = {float(np.max(np.abs(lam), initial=0.0)):.6g})")
    return C, S


# ---------------------------------------------------------------------------
# boundary modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryModeState:
    """Amplitude and amplitude velocity of one interface mode."""

    k: WaveVector
    amplitude: complex
    velocity: complex


def boundary_dispersion(k: WaveVector, a: float, b: float) -> float:
    """Squared temporal exponent of interface mode k: k1^2 - (a^2+b^2)/2 * k2^2."""
    k.require_nonzero()
    return float(k.k1) ** 2 - 0.5 * (a * a + b * b) * float(k.k2) ** 2


def evolve_boundary_mode(state: BoundaryModeState, a: float, b: float, t: float,
                         stepper: str = "exact", dt: float = None) -> BoundaryModeState:
    """Advance one interface mode by time t.

    The exact stepper solves amp'' = lambda^2 * amp in closed form
    (cosh/sinh for growth, cos/sin for oscillation, linear at
    lambda^2 = 0).  stepper="rk4" integrates the same system with the
    classical scheme at step dt for convergence studies.
    """
    lam_sq = boundary_dispersion(state.k, a, b)
    C, S = (float(x[0]) for x in _propagators([lam_sq], t, stepper, dt))
    amp = state.amplitude * C + state.velocity * S
    vel = state.amplitude * lam_sq * S + state.velocity * C
    return BoundaryModeState(state.k, amp, vel)


# ---------------------------------------------------------------------------
# operator A on decomposed states
# ---------------------------------------------------------------------------

def apply_A(state: PerturbationState) -> PerturbationState:
    """Apply the block operator A to every part of a state.

    Potential coefficients (P, L, g and their velocities) are multiplied
    by j^2; the r spectra get the x2 Fourier multiplier k2^2, i.e. the
    negative second x2 derivative.
    """
    def scale(coeffs):
        return {j: (j ** 2) * c for j, c in coeffs.items()}

    def on_r(spectrum):
        if spectrum is None:
            return None
        return spectrum * (_r_frequencies(spectrum.shape[2]) ** 2)[:, None]

    return PerturbationState._from_spectra(
        state.n_cutoff,
        scale(state.P), scale(state.P_dot),
        scale(state.L), scale(state.L_dot),
        scale(state.g), scale(state.g_dot),
        on_r(state.r_hat), on_r(state.r_dot_hat), state.grid,
    )


# ---------------------------------------------------------------------------
# full linear evolution
# ---------------------------------------------------------------------------

def _r_n_tan(state: PerturbationState):
    """n_tan of the r block, from its spectrum or the state's grid; None without both."""
    spectrum = state.r_dot_hat if state.r_hat is None else state.r_hat
    return spectrum.shape[2] if spectrum is not None else state.grid and state.grid[0]


def default_rk4_dt(state: PerturbationState, a: float, b: float) -> float:
    """The rk4 step taken when none is given: min(0.01, 0.25/omega_max).

    omega_max is the larger of sqrt(2) * max(j, 1) over the coefficients
    of P, L and g, which bounds their rates j and sqrt(2)*j, and of the
    r-block frequency max(a, b) * (n_tan // 2).  |omega| * dt then stays
    at most 0.25, far inside RK4_STABILITY_LIMIT.
    """
    j_max = max([1, *state.P, *state.P_dot, *state.L, *state.L_dot, *state.g, *state.g_dot])
    omega_max = max(math.sqrt(2.0) * j_max, max(a, b) * ((_r_n_tan(state) or 0) // 2))
    return min(1e-2, 0.25 / omega_max)


def evolve_state(state: PerturbationState, a: float, b: float, t: float,
                 stepper: str = "exact", dt: float = None) -> PerturbationState:
    """Advance a decomposed perturbation by time t.

    Blocks evolve independently with their own stiffness: P and L grow
    and decay at rate j, g oscillates at sqrt(2)*j, r oscillates at
    a*|k2| above and b*|k2| below the interface (x2-independent r
    content moves linearly in t).  All coefficients and every x2 mode
    of r go through one call of the propagator; rk4 is rejected when
    max|omega| times the step taken exceeds RK4_STABILITY_LIMIT.  An
    absent r block on a known grid stays absent, but its frequencies
    still enter that rule.
    """
    blocks = [(state.P, state.P_dot, 1.0), (state.L, state.L_dot, 1.0),
              (state.g, state.g_dot, -2.0)]
    keys = [sorted(set(c) | set(d)) for c, d, _ in blocks]
    lam_sq = np.array([sign * float(j * j) for (_, _, sign), js in zip(blocks, keys)
                       for j in js])
    r_hat, r_dot_hat = state.r_hat, state.r_dot_hat
    n_tan = _r_n_tan(state)
    if n_tan:
        k2 = _r_frequencies(n_tan)
        with np.errstate(over="ignore"):   # a field past 1e154 leaves the float range here
            lam_r = -np.stack([(a * k2) ** 2, (b * k2) ** 2])
        lam_sq = np.concatenate([lam_sq, lam_r.ravel()])
    C, S = _propagators(lam_sq, t, stepper, dt)

    evolved, i = [], 0
    for (coeffs, dots, _), js in zip(blocks, keys):
        sl = slice(i, i + len(js))
        i += len(js)
        c = np.array([coeffs.get(j, 0.0) for j in js], dtype=complex)
        d = np.array([dots.get(j, 0.0) for j in js], dtype=complex)
        evolved.append(dict(zip(js, (c * C[sl] + d * S[sl]).tolist())))
        evolved.append(dict(zip(js, (c * lam_sq[sl] * S[sl] + d * C[sl]).tolist())))

    if r_hat is not None or r_dot_hat is not None:
        shape = (1, 2, 1, k2.size, 1)
        Cr, Sr = C[i:].reshape(shape), S[i:].reshape(shape)
        y0 = 0.0 if r_hat is None else r_hat
        v0 = 0.0 if r_dot_hat is None else r_dot_hat
        r_hat, r_dot_hat = y0 * Cr + v0 * Sr, y0 * (lam_r.reshape(shape) * Sr) + v0 * Cr

    return PerturbationState._from_spectra(state.n_cutoff, *evolved, r_hat, r_dot_hat,
                                           state.grid)
