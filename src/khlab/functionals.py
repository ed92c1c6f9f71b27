"""Perturbation decomposition and growth functionals.

A perturbation velocity chi on the slab (wall-normal component zero at
the walls) splits into the gradient of a harmonic potential h, which
carries the interface motion, plus a remainder r whose wall-normal
component vanishes on the interface and the walls.  The potential is
determined per tangential mode by its interface Neumann data; its odd
part expands in the streamwise family f_j (split at the cutoff n into
high frequencies P and low frequencies L) and its even part in g_j.
Both families are constant in x2, so grad h is built once on the
(x1, x3) plane and broadcast along x2: the decomposition subtracts it
in place from a copy of chi.  chi, chi_dot and r are grid 3-vectors in
core's one encoding, a float array with axes (component, phase, x1, x2,
x3); x2-constant data (x2 extent 1) stay planes throughout, the stored
x2 spectrum of r included.

Growth is measured by quadratic functionals built from the block
operator A (the j^2 multiplier on potential coefficients, k2^2 on r):

    E_mu+/- = || A^(mu/2) (dP/dt +/- A^(1/2) P) ||^2
            = sum over P of j^(2 mu) |w+/-_j|^2 ||grad f_j||^2
    G       = || dL/dt ||^2 + || A^(1/2) L ||^2
            = (1/2) sum over L of (|w+_j|^2 + |w-_j|^2) ||grad f_j||^2
    F       = || dg/dt ||^2 + || A^(1/2) g ||^2
              + || dr/dt ||^2 + || k^(1/2) A^(1/2) r ||^2

with k = a^2 above and b^2 below the interface and w+/- = dc_j/dt +/- j c_j
as a state stores the odd family.  Fractional powers act spectrally (j^mu
on coefficients, |k2|^mu on the stored x2 spectrum of r, whose part of F
is a weighted Parseval sum).  E_mu+ isolates the growing branch: along
exact evolution it is monotone with rate at least 2*n, which is what the
invariant-region and exponential-growth checks exercise.

The decomposition assumes data at reference time zero; materialising a
state at a later time applies the co-moving drift phases.
"""

import math
from typing import NamedTuple

from khlab.core import (
    PerturbationState,
    _grid_array,
    _divided,
    _r_frequencies,
    _r_spectrum,
    _r_stiffness,
    _vertical_weights,
    np,
    power_of_two_unit,
)
from khlab.eigenmodes import potential_gradient_norm_sq, potential_gradient_plane


class AliasingError(ValueError):
    """Grid too coarse for the tangential content of the data."""


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def _potential_split(trace_up, trace_lo, tol, sup_norm):
    """(j, odd, even): the odd/even potential coefficients of the two interface flux traces
    on the frequencies j = 1, ..., (n_tan - 1)//2, zero where a term is dropped.

    Each trace must equal sum_j Re(C * exp(i j x1)) over j >= 1: content
    off the k2 = 0 line, a nonzero mean (incompatible with Neumann side
    conditions) and energy at the Nyquist band are rejected.
    """
    n = trace_up.shape[0]
    # mean-normalised like every tangential transform, so a plane (x2 extent 1) gives the
    # k2 = 0 column of its full-grid repeat; divided by a power of two unit > sup_norm / 2,
    # the FFT's sums stay in the float range and in-range spectra keep every bit
    unit = power_of_two_unit(sup_norm)
    su, sl = (np.fft.fft2(trace / unit, norm="forward") * unit for trace in (trace_up, trace_lo))

    # column 0 is k2 = 0, the streamwise line; a plane has no other column
    off_line = max(float(np.max(np.abs(s[:, 1:]), initial=0.0)) for s in (su, sl))
    if off_line > tol:
        raise ValueError(
            "interface trace has tangential content off the streamwise "
            f"mode line (max magnitude {off_line:.3e}); the odd/even "
            "potential families only span modes exp(i j x1)")

    mean = max(abs(su[0, 0]), abs(sl[0, 0]))
    if mean > tol:
        raise ValueError(
            f"interface trace has nonzero mean ({mean:.3e}); the wall-bounded "
            "Neumann problem for the potential is incompatible")

    if n % 2 == 0:
        nyq_amp = max(abs(su[n // 2, 0]), abs(sl[n // 2, 0]))
        if nyq_amp > tol:
            raise AliasingError(
                f"trace energy {nyq_amp:.3e} at the Nyquist mode j={n // 2} "
                f"of n_tan={n}; refine the tangential grid")

    # cu and cl are half the trace amplitudes, so that cu + cl stays in range; the per-phase
    # cosh(j(x3 -/+ 1)) amplitudes of the Neumann solution combine into the odd/even family
    # coefficients, each kept if the interface trace j*|c| it leaves > tol, else zero
    j = np.arange(1, (n + 1) // 2)
    cu, cl = su[1:(n + 1) // 2, 0], sl[1:(n + 1) // 2, 0]
    c_f, c_g = _divided(cu + cl, j), _divided(cl - cu, j)
    odd = np.where(j * np.hypot(c_f.real, c_f.imag) > tol, c_f, 0.0)
    even = np.where(j * np.hypot(c_g.real, c_g.imag) > tol, c_g, 0.0)
    return j, odd, even


def _decompose_single(chi):
    """(j, odd, even, r_hat) of one grid 3-vector at the tolerance 1e-12 * sup|chi|."""
    values = _grid_array(chi, (3, 2)).copy()
    scale = float(max(values.max(), -values.min()))   # sup|chi|
    if not math.isfinite(scale):
        raise ValueError("chi and chi_dot must be finite")
    tol = 1e-12 * scale
    n_tan, n_ver = values.shape[2], values.shape[4] - 1
    up3, lo3 = values[2]
    wall = max(float(np.max(np.abs(up3[:, :, -1]))), float(np.max(np.abs(lo3[:, :, 0]))))
    if wall > tol:
        raise ValueError(f"wall-normal velocity {wall:.3e} at the walls; data outside "
                         "the admissible class")
    j, odd, even = _potential_split(up3[:, :, 0], lo3[:, :, -1], tol, scale)
    held = (odd != 0) | (even != 0)
    values -= potential_gradient_plane(j[held], odd[held], even[held], n_tan, n_ver)
    # r3 must vanish on the interface and wall rows: checked, then snapped exactly; each
    # dropped family term leaves a trace j*|c| <= tol there, and fewer than n_tan are dropped
    worst = float(np.max(np.abs(values[2][..., [0, -1]])))
    bound = 1e-9 * scale + n_tan * tol
    if worst > bound:
        raise ValueError(f"remainder field keeps a wall-normal trace of {worst:.3e}, above "
                         f"(1e-9 + n_tan*1e-12)*sup|chi| = {bound:.3e}; decomposition "
                         "failed to absorb the interface motion")
    values[2][..., [0, -1]] = 0.0
    # a remainder with no entry above tol is round-off and dropped; max(max, -min) is
    # max|r| without an |r| temporary
    dropped = max(values.max(), -values.min()) <= tol
    return j, odd, even, (None if dropped else _r_spectrum(values))


def decompose_perturbation(chi, chi_dot, n_cutoff: int) -> PerturbationState:
    """Split (chi, d chi/dt) into the four-part state (P, L, g, r).

    chi and chi_dot are grid 3-vectors, float arrays of shape (3, 2, n_tan,
    n_tan or 1, n_ver + 1) with axes (component, phase, x1, x2, x3), finite
    and with a wall-normal component that vanishes at the walls; another shape
    raises GridMismatchError, a non-finite entry ValueError, data whose
    potential gradient, x2 spectrum of r or w+/- leave the float range
    OverflowError.  The harmonic potential is solved from the interface traces
    of the third component and split into odd and even streamwise families;
    the odd coefficients c of chi and d of chi_dot give w+/- = d +/- j*c,
    which P (j >= n_cutoff) and L read.  The remainder r = chi - grad h has
    zero wall-normal trace on the interface and the walls (checked, then
    snapped exactly); chi_dot fills the velocity partners the same way.  Each
    vector's tolerance is 1e-12 times its own sup norm: a family term c at
    frequency j is kept when its interface trace j*|c| is above it, and an r
    or r_dot with no entry above it reads back as None.  So data scaled by a
    power of two give the exactly scaled state, and all-zero data the exact
    zero state.
    """
    if n_cutoff < 1:
        raise ValueError("n_cutoff must be >= 1")
    try:   # one vector at a time, so only one stacked copy is alive
        with np.errstate(over="raise", invalid="raise"):
            j, c, g, r_hat = _decompose_single(chi)
            j_dot, d, g_dot, r_dot_hat = _decompose_single(chi_dot)
    except (OverflowError, FloatingPointError):
        raise OverflowError("the potential gradient or the x2 spectrum of r leaves the float "
                            "range; scale the data down") from None
    # the frequencies of the finer tangential grid, the other vector's terms zero-filled
    j = max(j, j_dot, key=len)
    c, d, g, g_dot = (np.concatenate([x, np.zeros(j.size - x.size)]) for x in (c, d, g, g_dot))
    w_plus, w_minus = PerturbationState._characteristic(j, c, d)
    if not np.isfinite([w_plus, w_minus]).all():
        raise OverflowError("w+/- = d +/- j*c leave the float range; scale the data down")
    odd, even = (c != 0) | (d != 0), (g != 0) | (g_dot != 0)
    return PerturbationState._from_spectra(n_cutoff, j[odd], w_plus[odd], w_minus[odd],
                                           j[even], g[even], g_dot[even], r_hat, r_dot_hat)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

class FunctionalReport(NamedTuple):
    """Growth functional values of one state at one time."""

    t: float
    E_plus: dict
    E_minus: dict
    G: float
    F: float


def _coefficient_sum(j, x, p):
    """sum |j^p x_j|^2 ||grad f_j||^2 over aligned arrays j and x; inf past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        weights = potential_gradient_norm_sq(j)
        return float((np.abs(j.astype(float) ** p * x) ** 2 * weights).sum())


def _E_mu(state: PerturbationState, mu: float, high=True):
    """(E_mu+, E_mu-): sum |j^mu w+/-|^2 ||grad f_j||^2 over P, or over L if not high."""
    j, *w = state._side(high)
    return tuple(_coefficient_sum(j, x, mu) for x in w)


def _r_energy(state: PerturbationState, a: float, b: float):
    """||dr/dt||^2 + ||k^(1/2) A^(1/2) r||^2 as Parseval sums over the x2 spectra.

    h_tan^2*n_tan * sum c_k m_k w_x3 |r_hat|^2: c_k = 1 at k2 = 0 and at the Nyquist
    mode of even n_tan, else 2 (the conjugates rfft omits); m_k = 1 for r_dot,
    (a*k2)^2 above and (b*k2)^2 below the interface for r; w_x3 trapezoid weights.
    The spectra are mean-normalised, so a plane's k2 = 0 is that of its full-grid
    repeat and one weight serves both; summing x3, then phase, then k2 adds a plane
    as its repeat, zero at k2 > 0.
    """
    def parseval(spectrum, stiff):
        n_tan, n_ver = spectrum.shape[2], spectrum.shape[4] - 1
        k2 = _r_frequencies(spectrum)
        c = np.where((k2 == 0) | (2 * k2 == n_tan), 1.0, 2.0)
        m = _r_stiffness(spectrum, a, b) if stiff else 1.0
        power = sum(np.einsum("cpikz,cpikz->pkz", part, part)
                    for part in (spectrum.real, spectrum.imag))
        w = _vertical_weights(n_ver) * (2.0 * math.pi / n_tan) ** 2 * n_tan
        return float(((power * w).sum(axis=2) * (m * c)).sum(axis=0).sum())

    return sum((parseval(spectrum, stiff) for spectrum, stiff
                in ((state.r_dot_hat, False), (state.r_hat, True)) if spectrum is not None), 0.0)


def compute_functionals(state: PerturbationState, mus, a: float, b: float,
                        t: float = 0.0) -> FunctionalReport:
    """Evaluate E_mu+/- for each mu, plus G and F, on one state.

    Coefficient norms use the closed-form basis weight
    ||grad of unit potential||^2 = 4*pi^2*j*coth(j); the r contributions
    are Parseval sums over the stored x2 spectra, with the per-phase
    field weights a (upper) and b (lower) on the half-power stiffness.
    Raises OverflowError when a value leaves the float range.
    """
    E_plus, E_minus = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for mu in mus:
            E_plus[float(mu)], E_minus[float(mu)] = _E_mu(state, float(mu))
        G = 0.5 * sum(_E_mu(state, 0.0, high=False))
        F = (_coefficient_sum(state.j_even, state.g_dot_values, 0)
             + _coefficient_sum(state.j_even, state.g_values, 1) + _r_energy(state, a, b))
    if not all(map(math.isfinite, [*E_plus.values(), *E_minus.values(), G, F])):
        raise OverflowError(f"growth functionals leave the float range at t={t}")
    return FunctionalReport(t, E_plus, E_minus, G, F)


def h2_readout(state: PerturbationState) -> float:
    """Spectral high-order readout of the P part: || A grad P ||_L2.

    Mode j contributes j^4 * |c_j|^2 * (basis gradient weight); this is
    the A-multiplier-consistent stand-in for a second-order Sobolev norm
    of the growing component.  Raises OverflowError past the float range.
    """
    total = _coefficient_sum(*state._odd(True, False), 2)
    if not math.isfinite(total):
        raise OverflowError("H2 readout leaves the float range")
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

class Proposition2Report(NamedTuple):
    """Invariant-region audit of a trajectory.

    The region is {E1+ >= E1-, E1+ >= n^3 F, E1+ >= n^3 G}; the report
    holds the series and the first time an inequality fails (None if none
    does).  No side bound needs a check: P holds exactly j >= n and L
    exactly j < n, so E_3/2+/- >= n E_1+/- (j^3 >= n j^2) and
    ||A L|| <= (n-1)^2 ||L|| (j^4 <= (n-1)^4) hold term by term.
    """

    n_cutoff: int
    times: list
    E1_plus: list
    E1_minus: list
    F: list
    G: list
    invariant: bool
    first_violation_time: float


def _time_ordered(trajectory):
    """Yield the (t, state) samples of an iterable in one pass, checking the order."""
    previous = None
    for t, state in trajectory:
        if previous is not None and t < previous:
            raise ValueError("trajectory must be time-ordered")
        previous = t
        yield t, state
    if previous is None:
        raise ValueError("trajectory must contain at least one sample")


def check_proposition2(trajectory, n_cutoff: int, a: float, b: float) -> Proposition2Report:
    """Check the invariant region along a time-ordered trajectory.

    trajectory is an iterable of (t, PerturbationState) sharing n_cutoff,
    consumed in one pass.  Raises on an empty or out-of-order trajectory;
    states with mismatched cutoffs are rejected.  a and b enter only
    through the r part of F.
    """
    series = []   # (t, E1+, E1-, F, G) per sample
    first_violation_time = None
    n3 = float(n_cutoff) ** 3
    for t, state in _time_ordered(trajectory):
        if state.n_cutoff != n_cutoff:
            raise ValueError("states must share the trajectory n_cutoff")
        rep = compute_functionals(state, [1.0], a, b, t=t)
        E1p, E1m = rep.E_plus[1.0], rep.E_minus[1.0]
        series.append((t, E1p, E1m, rep.F, rep.G))
        inside = (E1p >= E1m) and (E1p >= n3 * rep.F) and (E1p >= n3 * rep.G)
        if not inside and first_violation_time is None:
            first_violation_time = t
    return Proposition2Report(n_cutoff, *map(list, zip(*series)), first_violation_time is None,
                              first_violation_time)


# The growth check's relative allowance: E1+(t) may fall short of E1+(0) e^{n t} by this
# share, the round-off of the decomposition, the evolution and the functional sums
GROWTH_TOL = 1e-6


class GrowthReport(NamedTuple):
    """Exponential-growth audit: E1+(t) against E1+(0) * e^(n t)."""

    n_cutoff: int
    passed: bool
    times: list
    margins: list            # E1+(t) / (E1+(t0) e^{n (t - t0)})
    growth_factor: float     # E1+(T) / E1+(t0), t0 and T the first and last sample times
    required_factor: float   # e^{n (T - t0)} (1 - GROWTH_TOL), the least growth that passes


def check_growth_corollary(trajectory, n_cutoff: int) -> GrowthReport:
    """True iff E1+(t) >= E1+(t0) * e^(n_cutoff * (t - t0)) * (1 - GROWTH_TOL) at all samples.

    trajectory is an iterable of (t, PerturbationState), consumed in one
    pass; its first sample is the reference time t0.  The functionals of
    each sample are evaluated once.
    """
    times, margins, values = [], [], []
    passed = True
    for t, state in _time_ordered(trajectory):
        E = compute_functionals(state, [1.0], 0.0, 0.0, t=t).E_plus[1.0]
        if not values and E == 0.0:
            raise ValueError(f"E1+(t0) = 0 at t0 = {t}: growth ratio undefined")
        times.append(t)
        values.append(E)
        certificate = math.exp(n_cutoff * (t - times[0]))
        margins.append(E / (values[0] * certificate))
        if E < values[0] * certificate * (1.0 - GROWTH_TOL):
            passed = False
    return GrowthReport(n_cutoff, passed, times, margins, values[-1] / values[0],
                        certificate * (1.0 - GROWTH_TOL))


# ---------------------------------------------------------------------------
# vanishing initial data with growing output
# ---------------------------------------------------------------------------

def perturbed_initial_data(n: int, scale: float = 1.0,
                           n_tan: int = 64, n_ver: int = 64):
    """Initial pair (chi, chi_dot) that is tiny yet seeds e^{n t} growth.

    chi is identically zero; chi_dot is scale * e^{-sqrt(n)} times the
    wall-bounded velocity mode (V, 0, W) at streamwise frequency n, built
    as the gradient of one odd potential: with f_n the odd profile,
    W = f_n'/n and V = i f_n, so (V, 0, W) = grad(e^{i n x1} f_n)/n, the
    irrotational Kelvin-Helmholtz mode.  Both are grid 3-vectors of shape
    (3, 2, n_tan, 1, n_ver + 1): x2-constant planes, which decompose as planes.
    Its sup norm shrinks as n grows while the evolved high-order readout
    explodes, which is the ill-posedness signature this package checks.
    n must lie below the grid's Nyquist frequency n_tan/2.
    """
    if n < 1:
        raise ValueError("mode frequency n must be >= 1")
    if 2 * n >= n_tan:
        raise AliasingError(f"mode n={n} is not below the Nyquist frequency "
                            f"n_tan/2 of n_tan={n_tan}; refine the tangential grid")
    amp = scale * math.exp(-math.sqrt(n)) / n
    plane = potential_gradient_plane([n], [amp], [0.0], n_tan, n_ver)
    return np.zeros_like(plane), plane
