"""Two-phase interface pressure problems on the slab.

The linearized pressure satisfies a Laplace (or Poisson) equation in
each phase with homogeneous Neumann walls, coupled across the interface
by a prescribed value jump and normal-derivative jump.  Two routes are
provided and tested against each other:

* an analytic per-tangential-mode solve: with Neumann walls every mode
  profile is proportional to cosh(kappa*(x3 - 1)) above and
  cosh(kappa*(x3 + 1)) below, so the jump data determine the two
  amplitudes directly.  For pure flux-jump data the construction is the
  classical reflection: the lower solution is the upper one mirrored
  through the interface (up to the tangential slip shift), and each
  phase carries half of the flux jump.
* a second-order finite-difference oracle: centered interior stencils,
  one-sided second-order wall Neumann rows, and a pair of coupling rows
  at the interface carrying the two jumps.  Tangential directions are
  diagonalised by the DFT with the discrete Laplacian symbol, which
  reproduces the full 3-D centered discretization exactly.  The data
  are real, so a real FFT over x1 keeps only the modes with k1 >= 0;
  the rest are their complex conjugates.  Data constant in x2 come as a
  plane (x2 extent 1) with only k2 = 0 modes, so a plane solves
  n_tan//2 + 1 systems, not (n_tan//2 + 1)*n_tan.  Each mode's band
  is read from the one statement of its rows, and all modes, the
  singular zero mode included, are solved by one batched banded
  elimination with no direct solve: the zero mode is pinned at the upper
  wall and then shifted to the gauge, zero volume mean.  The slip phase
  exp(i*k1*drift) rides on the lower rows and unknowns: the operator is real.

The harmonic + particular-source decomposition (value jump zero, flux
jump M for the harmonic part; interior source with zero jumps for the
rest) is a direct superposition of the two solvers.
"""

import math

from khlab.core import (
    TwoPhaseGridField,
    VerticalProfile,
    WaveVector,
    _vertical_weights,
    exp_weights,
    np,
    power_of_two_unit,
    tangential_grid,
    vertical_levels,
)

RESIDUAL_TOL = 1e-10


class PressureSolverError(RuntimeError):
    """The discrete solve failed to meet the residual contract."""


class SolvabilityError(PressureSolverError):
    """The boundary data admit no solution (incompatible Neumann data)."""


def solve_mode_interface_flux(k: WaveVector, value_jump=0.0, flux_jump=0.0,
                              drift: float = 0.0):
    """Analytic per-mode solve of the jump-coupled two-phase Laplace problem.

    value_jump is the Dirichlet jump of the mode across the interface,
    flux_jump the jump of its normal derivative (upper minus shifted
    lower in both cases); both, and drift, must be finite.  Returns (q_upper,
    q_lower) vertical profiles with homogeneous Neumann walls, the
    prescribed value and flux jumps at the interface and, for pure flux
    data, the reflection symmetry q_lower(x3) = q_upper(-x3) up to the
    tangential shift: each phase then carries half of the flux jump as
    its own interface flux.  drift is the slip offset: the lower trace
    is matched at x1 + drift, contributing the phase exp(-i*k1*drift)
    to the lower amplitude.
    """
    g1, g2 = complex(value_jump), complex(flux_jump)
    for name, c in (("value_jump", g1), ("flux_jump", g2), ("drift", complex(drift))):
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"{name} must be finite")
    g1, g2 = 0.5 * g1, 0.5 * g2   # halved first, exactly, so no product of a finite jump overflows
    kappa = k.kappa
    if kappa == 0.0:
        raise SolvabilityError("kappa = 0: pure-Neumann mode is solvable only "
                               "up to constants; fix the gauge in the grid solver")
    # 1/(2 sinh k), e^k/(2 sinh k), 1/(2 cosh k), e^k/(2 cosh k): the anchored pair weights
    sp, sm = exp_weights(kappa)
    cm = 1.0 / (1.0 + math.exp(-2.0 * kappa))
    cp = math.exp(-kappa) * cm
    # upper amplitude A and shifted lower amplitude B*phi solve, with the jumps 2*g1 and 2*g2,
    #   A - B*phi = 2 g1 / cosh(kappa),  A + B*phi = -2 g2 / (kappa sinh kappa)
    upper_exp = (g1 * cp - g2 * sp / kappa, g1 * cm - g2 * sm / kappa)
    lower_scaled = (-g1 * cm - g2 * sm / kappa, -g1 * cp - g2 * sp / kappa)
    phase = complex(np.exp(-1j * k.k1 * drift))
    lower_exp = (phase * lower_scaled[0], phase * lower_scaled[1])
    return (VerticalProfile(kappa, upper_exp, (0.0, 0.0)),
            VerticalProfile(kappa, (0.0, 0.0), lower_exp))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _apply_mode_rows(z, h, lam):
    """Apply the per-mode discrete operator to z, the only statement of its rows.

    z holds 2N+2 rows, the lower phase (wall to interface, in the slip-
    shifted frame) then the upper phase (interface to wall); any trailing
    axes are modes, with lam (discrete tangential symbol) broadcasting
    against them.  Rows, all real: lower wall Neumann, lower interior,
    value coupling, flux coupling, upper interior, upper wall Neumann.
    """
    N = z.shape[0] // 2 - 1
    lo, up = z[:N + 1], z[N + 1:]
    out = np.empty(z.shape, dtype=np.result_type(z, lam))
    out[0] = (-3.0 * lo[0] + 4.0 * lo[1] - lo[2]) / (2 * h)
    out[1:N] = (lo[:-2] - 2.0 * lo[1:-1] + lo[2:]) / h ** 2 + lam * lo[1:-1]
    out[N] = up[0] - lo[N]
    out[N + 1] = ((-3.0 * up[0] + 4.0 * up[1] - up[2]) / (2 * h)
                  - (3.0 * lo[N] - 4.0 * lo[N - 1] + lo[N - 2]) / (2 * h))
    out[N + 2:2 * N + 1] = (up[:-2] - 2.0 * up[1:-1] + up[2:]) / h ** 2 + lam * up[1:-1]
    out[2 * N + 1] = (3.0 * up[N] - 4.0 * up[N - 1] + up[N - 2]) / (2 * h)
    return out


def _solve_modes(b, h, lam):
    """Batched banded solve of the mode systems A z = b, modes on the last axis.

    A is read from _apply_mode_rows alone.  Row i reaches columns i-3 to
    i+2 (the flux row reaches lo[N-2] and up[2]), so the rows applied to
    the columns j = q (mod 6) read one entry A[i, j] per row, and six such
    probes read the band, kept as band[i, j % 6].  The zero mode (lam = 0)
    is singular, as constants solve it: its upper wall row, which carries
    the compatibility condition of the Neumann data, becomes the pin
    up[N] = 0, and after the solve the mode is shifted to the gauge, zero
    volume mean.  Elimination fills in only inside the band, so it runs in
    place.  No pivoting is needed: for h^2 lam <= 0 each pivot is at least
    3/4 of its row's largest entry and no entry grows.  The dense solve
    test covers n_tan/n_ver from 1/8 to 8 with drift; beyond, the caller's
    residual check raises for a mode the elimination fails.
    """
    n = b.shape[0]
    zero = lam == 0.0
    rows = np.arange(n)
    band = np.empty((n, 6, lam.size))
    for q in range(6):
        probe = np.broadcast_to((rows % 6 == q)[:, None] * 1.0, b.shape)
        band[:, q] = _apply_mode_rows(probe, h, lam)
    band[-1, :, zero] = 0.0   # the zero mode's upper wall row becomes the pin up[N] = 0
    band[-1, (n - 1) % 6, zero] = 1.0
    z = b.astype(complex)
    z[-1, zero] = 0.0   # the pin's right-hand side

    # elimination without pivoting (lower bandwidth 3, upper 2), then back substitution
    for k in range(n):
        lower = band[k + 1:k + 4, k % 6] / band[k, k % 6]
        for j in (k + 1, k + 2):
            band[k + 1:k + 4, j % 6] -= lower * band[k, j % 6]
        z[k + 1:k + 4] -= lower * z[k]
    for k in range(n - 1, -1, -1):
        z[k] /= band[k, k % 6]
        above = slice(max(k - 2, 0), k)
        z[above] -= band[above, k % 6] * z[k]

    w = np.tile(_vertical_weights(n // 2 - 1), 2)   # the trapezoid mean, summed elementwise
    z[:, zero] -= (w[:, None] * z[:, zero]).sum(axis=0) / 2.0
    return z


def solve_two_phase_poisson_fd(source: TwoPhaseGridField, value_jump=None,
                               flux_jump=None, drift: float = 0.0) -> TwoPhaseGridField:
    """Finite-difference solve of the jump-coupled two-phase Poisson problem.

    Parameters
    ----------
    source : TwoPhaseGridField
        Right-hand side of Laplacian q = source per phase.
    value_jump, flux_jump : (n_tan, n_x2) real arrays or None
        Interface jump data q_up - q_low and dq_up/dx3 - dq_low/dx3
        (shifted lower trace when drift != 0) on the source's x2 extent
        n_x2; None means zero.
    drift : float
        Finite tangential slip offset, the phase phi = e^{i k1 drift} of a lower mode.

    Second-order accurate.  Only the k1 >= 0 half of the spectrum of the
    real data is solved, every mode by one batched banded elimination of
    real rows (the lower ones carried times phi); the zero mode is pinned
    and then gauged to zero volume mean.  A plane source (n_x2 = 1, constant
    in x2) has data only on k2 = 0, so only those n_tan//2 + 1 modes are
    solved, into a plane.  Each solved mode's residual on its rows, which
    also guards the band read from them, must meet RESIDUAL_TOL in the
    data's unit 2^(e-1) <= max|data| < 2^e, by which the whole solve divides
    them: any finite data solve, 2^k times them exactly 2^k times.
    SolvabilityError names a zero mode that fails it (incompatible Neumann
    data), PressureSolverError any other; non-finite data or drift raise
    ValueError, a solution past the float range OverflowError.
    """
    n_tan, n_ver, n2 = source.n_tan, source.n_ver, source.n_x2
    if n_tan < 8 or n_ver < 8:
        raise ValueError("grid must have at least 8 points per direction")
    h = source.h_ver
    vj = np.zeros((n_tan, n2)) if value_jump is None else np.asarray(value_jump, dtype=float)
    fj = np.zeros((n_tan, n2)) if flux_jump is None else np.asarray(flux_jump, dtype=float)
    if vj.shape != (n_tan, n2) or fj.shape != (n_tan, n2):
        raise ValueError(f"jump data must be {(n_tan, n2)} interface grids, the source's extent")
    if not all(np.isfinite(a).all() for a in (source.values, vj, fj, drift)):
        raise ValueError("source, value_jump, flux_jump and drift must be finite")

    # right-hand sides with the vertical rows first and the modes last:
    # k = (freqs[i1], freqs[i2]) with i1 < n_half is column i1 * n2 + i2,
    # the zero mode column 0; x1 is the halved axis because phi depends on k1.
    # The rows are the lower then the upper phase, with the jumps on the interface rows
    N = n_ver
    n_half = n_tan // 2 + 1
    b = np.zeros((2, N + 1, n_tan, n2))
    b[:, 1:N] = np.moveaxis(source.values[::-1, :, :, 1:N], -1, 1)
    b[0, N], b[1, 0] = vj, fj
    unit = power_of_two_unit(float(max(b.max(), -b.min())))   # so that |b / unit| < 2
    b = np.fft.rfft2(b / unit, axes=(3, 2), norm="forward").reshape(2 * N + 2, n_half * n2)

    freqs = np.rint(np.fft.fftfreq(n_tan) * n_tan).astype(int)
    h_tan = source.h_tan
    sym = -4.0 * np.sin(0.5 * freqs * h_tan) ** 2 / h_tan ** 2   # discrete d^2
    lam = (sym[:n_half, None] + sym[None, :n2]).ravel()
    phi = np.repeat(np.exp(1j * freqs[:n_half] * drift), n2)
    b[:N] *= phi   # the lower wall and interior rows in the shifted frame

    z = _solve_modes(b, h, lam)
    residual = np.max(np.abs(_apply_mode_rows(z, h, lam) - b), axis=0)
    failed = np.flatnonzero(~(residual <= RESIDUAL_TOL))
    if failed.size:
        i1, i2 = divmod(int(failed[0]), n2)
        text = f"residual {residual[failed[0]]:.3e} in the data's unit 2^{math.log2(unit):g}"
        if failed[0] == 0:
            raise SolvabilityError(f"incompatible pure-Neumann data on the zero mode ({text})")
        raise PressureSolverError(f"mode ({freqs[i1]},{freqs[i2]}) {text} exceeds {RESIDUAL_TOL}")

    z[:N + 1] /= phi   # the lower unknowns back from the shifted frame
    z = z.reshape(2 * N + 2, n_half, n2)
    vals = np.fft.irfft2(z, s=(n2, n_tan), axes=(2, 1), norm="forward").reshape(2, N + 1, n_tan, n2)
    if not math.isfinite(float(max(vals.max(), -vals.min())) * unit):
        raise OverflowError("the solution leaves the float range")
    # rows are lower then upper phase: the phases reversed, x3 last
    return TwoPhaseGridField(np.moveaxis(vals[::-1] * unit, 1, -1))


def pressure_decomposition(source: TwoPhaseGridField, M_data=None):
    """Split the pressure into a harmonic part and a source part.

    q1 solves the harmonic system: zero source, zero value jump, flux
    jump M_data.  q2 solves the Poisson system: interior source, zero
    jumps.  Their sum solves the combined problem (verified directly in
    the test suite).
    """
    zero_source = TwoPhaseGridField.zeros(source.n_tan, source.n_ver, source.n_x2)
    q1 = solve_two_phase_poisson_fd(zero_source, flux_jump=M_data)
    q2 = solve_two_phase_poisson_fd(source)
    return q1, q2


# ---------------------------------------------------------------------------
# convergence study helper
# ---------------------------------------------------------------------------

def mode_solver_fd_error(k: WaveVector, flux_amplitude: float,
                         n_tan: int, n_ver: int) -> float:
    """Max-norm FD error against the analytic mode solution.

    Builds single-mode flux-jump data cos(k.x) * flux_amplitude, solves
    with the grid oracle and compares to the analytic per-mode profile
    evaluated at the grid points.  For k2 = 0 the data, the solve and the
    comparison stay on the x2 = 0 plane, since every x2 column is alike.
    """
    k.require_nonzero()
    q_up, q_lo = solve_mode_interface_flux(k, value_jump=0.0, flux_jump=flux_amplitude)
    x1 = tangential_grid(n_tan)
    x2 = x1[:1] if k.k2 == 0 else x1
    phase = np.exp(1j * (k.k1 * x1[:, None] + k.k2 * x2[None, :]))
    zero_source = TwoPhaseGridField.zeros(n_tan, n_ver, x2.size)
    error = solve_two_phase_poisson_fd(zero_source, flux_jump=np.real(phase) * flux_amplitude).values

    zu, zl = vertical_levels(n_ver)
    profiles = np.array([q_up.eval_upper(zu), q_lo.eval_lower(zl)])
    error -= np.real(phase[None, :, :, None] * profiles[:, None, None, :])
    return float(np.max(np.abs(error)))


def fitted_convergence_order(errors):
    """Least-squares slope of log(error) against log(h), in closed form; each level halves h."""
    errors = np.asarray(errors, dtype=float)
    if errors.size < 2:
        raise ValueError("fitting an order needs at least two errors")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to fit an order")
    if not np.all(np.isfinite(errors)):
        raise ValueError("errors must be finite to fit an order")
    centred = np.arange(errors.size) - (errors.size - 1) / 2.0   # level i is at log(h) = -i log 2
    slope = -(centred * np.log(errors)).sum() / ((centred * centred).sum() * math.log(2.0))
    return float(slope)
