"""
Shared domain types, quadrature and tangential Fourier analysis.

Geometry and conventions (used by every module in the package):

* The slab is T^2 x (-1, 1): periodic tangential coordinates
  x1, x2 in [0, 2*pi) and a wall-bounded vertical coordinate x3.
  Tangential wave vectors are integer pairs (k1, k2).
* The interface sits at x3 = 0 and splits the slab into an upper
  phase (0, 1) and a lower phase (-1, 0).  Discrete fields keep a
  separate interface row per phase so that jumps are representable.
* Vertical structure is hyperbolic: every analytic profile in the
  package is c_cosh*cosh(kappa*x3) + c_sinh*sinh(kappa*x3) per phase.
  Evaluation goes through the exponential split
  a_plus*exp(kappa*x3) + a_minus*exp(-kappa*x3) so that wall-bounded
  combinations like cosh(kappa*x3) - coth(kappa)*sinh(kappa*x3) stay
  accurate for large kappa instead of cancelling catastrophically.
* All quantities are dimensionless; default densities and ion mass
  are one.
* Array code on a grid 3-vector uses one stacked layout, axes
  (component, phase, x1, x2, x3) with the upper phase first; _stack and
  _unstack convert.  A length-1 x2 axis means "constant in x2"
  everywhere: such a plane stays a plane through decomposition and
  reconstruction, and only the x2 spectrum of r, which keeps the one
  shape of the full grid, broadcasts it.

Everything here is a plain value object: construct, then treat as
immutable.  Operations are pure functions, safe to run concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class GridMismatchError(ValueError):
    """Two grid fields with incompatible extents were combined."""


def inv_expm1(y: float) -> float:
    """1 / (e^y - 1) without overflow for large positive y."""
    if y > 700.0:
        return 0.0
    return 1.0 / math.expm1(y)


def exp_weights(kappa: float):
    """(e^-k, e^k) / (2 sinh k) evaluated without overflow or cancellation."""
    small = inv_expm1(2.0 * kappa)          # e^-k / (2 sinh k)
    large = -1.0 / math.expm1(-2.0 * kappa)  # e^+k / (2 sinh k)
    return small, large


def coth(x: float) -> float:
    """Hyperbolic cotangent, stable for large argument (no overflow)."""
    if x == 0.0:
        raise ValueError("coth is singular at 0")
    if x > 0:
        return 1.0 + 2.0 * inv_expm1(2.0 * x)
    return -coth(-x)


# ---------------------------------------------------------------------------
# physical configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearParams:
    """Background configuration of the two streaming fluids.

    u_plus / u_minus are the constant velocities of the upper and lower
    fluid, a and b the transverse magnetic field strengths (fields
    (0, a, 0) above, (0, b, 0) below), n1/n2 the number densities and
    m_i the ion mass.  The canonical shear is u_plus=(1,0,0),
    u_minus=(-1,0,0); general vectors are accepted for the stability
    criteria.
    """

    u_plus: tuple = (1.0, 0.0, 0.0)
    u_minus: tuple = (-1.0, 0.0, 0.0)
    a: float = 0.0
    b: float = 0.0
    n1: float = 1.0
    n2: float = 1.0
    m_i: float = 1.0

    def __post_init__(self):
        if len(self.u_plus) != 3 or len(self.u_minus) != 3:
            raise ValueError("velocities must be 3-vectors")
        object.__setattr__(self, "u_plus", tuple(float(c) for c in self.u_plus))
        object.__setattr__(self, "u_minus", tuple(float(c) for c in self.u_minus))
        if self.a < 0 or self.b < 0:
            raise ValueError("field strengths a, b must be >= 0")
        if self.n1 <= 0 or self.n2 <= 0 or self.m_i <= 0:
            raise ValueError("densities and ion mass must be positive")

    def velocity_jump(self) -> np.ndarray:
        return np.asarray(self.u_plus) - np.asarray(self.u_minus)


@dataclass(frozen=True, order=True)
class WaveVector:
    """Integer tangential frequency pair on the torus."""

    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 != int(self.k1) or self.k2 != int(self.k2):
            raise ValueError("wave vector components must be integers")
        object.__setattr__(self, "k1", int(self.k1))
        object.__setattr__(self, "k2", int(self.k2))

    @property
    def kappa(self) -> float:
        return math.hypot(self.k1, self.k2)

    def is_zero(self) -> bool:
        return self.k1 == 0 and self.k2 == 0

    def as_array3(self) -> np.ndarray:
        """The wave vector embedded in R^3 (no vertical component)."""
        return np.array([float(self.k1), float(self.k2), 0.0])

    def require_nonzero(self):
        if self.is_zero():
            raise ValueError("operation requires a nonzero wave vector")
        return self


# ---------------------------------------------------------------------------
# closed-form vertical profiles
# ---------------------------------------------------------------------------

def _exp_from_hyperbolic(c_cosh, c_sinh):
    return 0.5 * (c_cosh + c_sinh), 0.5 * (c_cosh - c_sinh)


@dataclass(frozen=True)
class VerticalProfile:
    """Per-phase hyperbolic profile on x3 in [-1, 1].

    Each phase carries coefficients (c_cosh, c_sinh) of
    c_cosh*cosh(kappa*x3) + c_sinh*sinh(kappa*x3).  Coefficients may be
    complex (profiles paired with tangential phases often are).
    Evaluation uses the exponential coefficients a_plus, a_minus of
    a_plus*e^{kappa*x3} + a_minus*e^{-kappa*x3}; constructors that know
    those exactly (wall-adapted profiles) should use from_exponential
    to avoid the cosh/sinh cancellation at large kappa.

    x3 >= 0 evaluates the upper phase, x3 < 0 the lower one; the two
    interface limits at x3 = 0 are exposed separately.
    """

    kappa: float
    upper: tuple   # (c_cosh, c_sinh)
    lower: tuple
    upper_exp: tuple = field(default=None, repr=False)
    lower_exp: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.upper_exp is None:
            object.__setattr__(self, "upper_exp", _exp_from_hyperbolic(*self.upper))
        if self.lower_exp is None:
            object.__setattr__(self, "lower_exp", _exp_from_hyperbolic(*self.lower))

    @classmethod
    def from_exponential(cls, kappa, upper_exp, lower_exp):
        up = (upper_exp[0] + upper_exp[1], upper_exp[0] - upper_exp[1])
        lo = (lower_exp[0] + lower_exp[1], lower_exp[0] - lower_exp[1])
        return cls(kappa, up, lo, upper_exp=tuple(upper_exp), lower_exp=tuple(lower_exp))

    def _eval_exp(self, coeffs, x3):
        a_plus, a_minus = coeffs
        x3 = np.asarray(x3, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = a_plus * np.exp(self.kappa * x3) + a_minus * np.exp(-self.kappa * x3)
        if not np.isfinite(out).all():   # e^kappa passes the float range near kappa = 709.78
            raise OverflowError(f"profile at kappa = {self.kappa:g} leaves the float range "
                                f"(max {np.finfo(float).max:.3g})")
        return out

    def eval_upper(self, x3):
        return self._eval_exp(self.upper_exp, x3)

    def eval_lower(self, x3):
        return self._eval_exp(self.lower_exp, x3)

    def eval(self, x3):
        """Evaluate pointwise; x3 >= 0 selects the upper phase."""
        x3 = np.asarray(x3, dtype=float)
        up = self.eval_upper(np.maximum(x3, 0.0))
        lo = self.eval_lower(np.minimum(x3, 0.0))
        out = np.where(x3 >= 0.0, up, lo)
        return out if out.ndim else out[()]

    def derivative(self) -> "VerticalProfile":
        """d/dx3, closed under the representation (swap and scale)."""
        k = self.kappa
        dup = (k * self.upper_exp[0], -k * self.upper_exp[1])
        dlo = (k * self.lower_exp[0], -k * self.lower_exp[1])
        return VerticalProfile.from_exponential(k, dup, dlo)

    def scaled(self, factor) -> "VerticalProfile":
        up = (factor * self.upper_exp[0], factor * self.upper_exp[1])
        lo = (factor * self.lower_exp[0], factor * self.lower_exp[1])
        return VerticalProfile.from_exponential(self.kappa, up, lo)


@dataclass(frozen=True)
class SpectralMode:
    """One normal mode: wave vector, velocity profiles and growth exponent.

    profiles holds the VerticalProfile of each velocity component
    (v1, v2, v3).  The tangential factor is
    exp(lambda*t) * exp(i*(k1*(x1 +/- t) + k2*x2)): the drift is +t in
    the upper phase and -t in the lower one.
    """

    k: WaveVector
    profiles: tuple   # (VerticalProfile, VerticalProfile, VerticalProfile)
    lam: complex

    def velocity(self, x1, x2, x3, t=0.0):
        """Velocity components at points (complex mode values)."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        x3 = np.asarray(x3, dtype=float)
        drift = np.where(x3 >= 0.0, t, -t)
        phase = np.exp(self.lam * t) * np.exp(
            1j * (self.k.k1 * (x1 + drift) + self.k.k2 * x2))
        return tuple(phase * p.eval(x3) for p in self.profiles)


# ---------------------------------------------------------------------------
# discrete two-phase fields
# ---------------------------------------------------------------------------

class TwoPhaseGridField:
    """Scalar field sampled on the two-phase slab grid.

    n_tan points per tangential direction (spacing 2*pi/n_tan), n_ver
    intervals per phase in the vertical.  Each phase stores n_ver + 1
    levels including its own interface row and wall row:

        upper levels  x3 = 0, h, ..., 1      (index 0 is the interface)
        lower levels  x3 = -1, ..., -h, 0    (index -1 is the interface)

    Values are float arrays of shape (n_tan, n_x2, n_ver + 1) with axes
    (x1, x2, x3), where the x2 extent n_x2 is n_tan, or 1 for a plane
    meaning "constant in x2".  The extent is read from the arrays and is
    part of the grid: a plane and a full field do not combine.
    """

    __slots__ = ("n_tan", "n_ver", "values_upper", "values_lower")

    def __init__(self, n_tan, n_ver, values_upper, values_lower):
        values_upper = np.asarray(values_upper, dtype=float)
        values_lower = np.asarray(values_lower, dtype=float)
        if (values_upper.shape not in ((n_tan, n_tan, n_ver + 1), (n_tan, 1, n_ver + 1))
                or values_lower.shape != values_upper.shape):
            raise GridMismatchError(
                f"value arrays must have shape {(n_tan, n_tan, n_ver + 1)} or "
                f"{(n_tan, 1, n_ver + 1)}, got {values_upper.shape} and {values_lower.shape}")
        self.n_tan = int(n_tan)
        self.n_ver = int(n_ver)
        self.values_upper = values_upper
        self.values_lower = values_lower

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, n_tan, n_ver, n_x2=None):
        shape = (n_tan, n_tan if n_x2 is None else n_x2, n_ver + 1)
        return cls(n_tan, n_ver, np.zeros(shape), np.zeros(shape))

    @classmethod
    def from_function(cls, fn, n_tan, n_ver):
        """Sample fn(x1, x2, x3) on both phases (broadcasting arrays)."""
        x1, x2 = tangential_grid(n_tan)
        zu, zl = vertical_levels(n_ver)
        up = fn(x1[:, None, None], x2[None, :, None], zu[None, None, :])
        lo = fn(x1[:, None, None], x2[None, :, None], zl[None, None, :])
        shape = (n_tan, n_tan, n_ver + 1)
        return cls(n_tan, n_ver,
                   np.broadcast_to(up, shape).copy(),
                   np.broadcast_to(lo, shape).copy())

    # -- geometry ------------------------------------------------------

    @property
    def h_tan(self) -> float:
        return TWO_PI / self.n_tan

    @property
    def h_ver(self) -> float:
        return 1.0 / self.n_ver

    @property
    def n_x2(self) -> int:
        return self.values_upper.shape[1]

    def same_grid(self, other) -> bool:
        return self.values_upper.shape == other.values_upper.shape

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other, op):
        if not self.same_grid(other):
            raise GridMismatchError("fields live on different grids")
        return TwoPhaseGridField(self.n_tan, self.n_ver,
                                 op(self.values_upper, other.values_upper),
                                 op(self.values_lower, other.values_lower))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(self.values_upper))),
                   float(np.max(np.abs(self.values_lower))))


def tangential_grid(n_tan):
    x = TWO_PI * np.arange(n_tan) / n_tan
    return x, x.copy()


def vertical_levels(n_ver):
    """Level coordinates per phase, interface and wall rows included."""
    upper = np.linspace(0.0, 1.0, n_ver + 1)
    lower = np.linspace(-1.0, 0.0, n_ver + 1)
    return upper, lower


def vector_field_zeros(n_tan, n_ver):
    return tuple(TwoPhaseGridField.zeros(n_tan, n_ver) for _ in range(3))


def row_profile_plane(row_up, row_lo, profile, n_ver):
    """Re(row(x1) * profile(x3)) per phase, constant in x2: axes (phase, x1, 1, x3)."""
    zu, zl = vertical_levels(n_ver)
    return np.real(np.stack([row_up[:, None] * profile.eval_upper(zu),
                             row_lo[:, None] * profile.eval_lower(zl)]))[:, :, None, :]


def _stack(vec):
    """A grid 3-vector as one array, axes (component, phase, x1, x2, x3), upper phase first."""
    if len(vec) != 3:
        raise ValueError("expected a 3-vector of grid fields")
    if not all(c.same_grid(vec[0]) for c in vec):
        raise GridMismatchError("the components of a 3-vector live on different grids")
    return np.array([(c.values_upper, c.values_lower) for c in vec], dtype=float)


def _unstack(values):
    """The grid 3-vector of a stacked array, sharing its memory; a plane stays a plane."""
    n_tan, n_ver = values.shape[2], values.shape[4] - 1
    return tuple(TwoPhaseGridField(n_tan, n_ver, up, lo) for up, lo in values)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _vertical_weights(n_ver):
    w = np.full(n_ver + 1, 1.0 / n_ver)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def inner_product_L2(f: TwoPhaseGridField, g: TwoPhaseGridField) -> float:
    """L2 inner product over both phases of the slab.

    Tangential directions use the rectangle rule (exact for trigonometric
    polynomials below the Nyquist frequency); the vertical uses the
    trapezoidal rule per phase.  Symmetric and bilinear by construction.
    """
    if not f.same_grid(g):
        raise GridMismatchError("inner product requires identical grids")
    w = _vertical_weights(f.n_ver)
    s = np.sum(f.values_upper * g.values_upper * w)
    s += np.sum(f.values_lower * g.values_lower * w)
    return float(s * f.h_tan ** 2 * (f.n_tan // f.n_x2))   # a plane stands for n_tan columns


def inner_product_vector(fs, gs) -> float:
    """Sum of component-wise L2 inner products of two 3-vector fields."""
    return sum(inner_product_L2(f, g) for f, g in zip(fs, gs))


# ---------------------------------------------------------------------------
# tangential Fourier analysis
# ---------------------------------------------------------------------------

def _integer_frequencies(n_tan):
    return np.rint(np.fft.fftfreq(n_tan) * n_tan).astype(int)


def trace_spectrum(trace: np.ndarray) -> np.ndarray:
    """2-D DFT of an (n_tan, n_x2) interface trace, normalised by its size.

    A plane (n_x2 = 1) gives the k2 = 0 column of its full-grid repeat.
    """
    return np.fft.fft2(trace) / trace.size


# ---------------------------------------------------------------------------
# perturbation state
# ---------------------------------------------------------------------------

def _r_frequencies(n_tan):
    """The k2 = 0, 1, ..., n_tan//2 of the stored x2 spectrum of r, as floats."""
    return np.arange(n_tan // 2 + 1, dtype=float)


def _r_spectrum(values):
    """x2 rfft of a stacked grid 3-vector or plane: axes (component, phase, x1, k2, x3)."""
    _check_r_field(values)
    n_tan = values.shape[2]
    return np.fft.rfft(np.broadcast_to(values, (*values.shape[:3], n_tan, values.shape[4])),
                       axis=3)


def _r_grid(spectrum):
    """The stacked grid 3-vector of an x2 spectrum (inverse of _r_spectrum)."""
    return np.fft.irfft(spectrum, n=spectrum.shape[2], axis=3)


def _check_r_field(values):
    """r3 must vanish exactly on interface and wall rows, in grid values or x2 spectrum."""
    if values is not None and np.any(values[2][..., [0, -1]] != 0.0):
        raise ValueError("third component of r must vanish exactly on "
                         "the interface and the walls")


class PerturbationState:
    """Four-part decomposition of an interface perturbation.

    Coefficient maps are indexed by the streamwise integer frequency j
    of the odd/even harmonic potential families: P carries j >= n_cutoff,
    L carries 1 <= j < n_cutoff, g carries every j >= 1.  The *_dot
    partners hold the coefficient velocities used by the second-order
    evolution.

    r and r_dot are optional 3-vector fields whose third component
    vanishes on the interface and the walls.  The r block is diagonal in
    the x2 Fourier modes, so they are stored only as their x2 spectra
    r_hat and r_dot_hat: rfft(values, axis=x2), complex arrays of shape
    (3, 2, n_tan, n_tan//2 + 1, n_ver + 1), axes (component, phase, x1,
    k2, x3).  The r= and r_dot= arguments take grid 3-vectors, full grids
    or x2-constant planes, transformed once; state.r and state.r_dot read
    back fresh full-grid fields.

    grid = (n_tan, n_ver), when given, is the grid of the r block even
    where it is absent (a decomposition that dropped a round-off r or
    r_dot): an absent block then reads back as zero fields and its
    frequencies still enter the rk4 stability rule.  Without a grid an
    absent block reads None.

    Coefficients live in the co-moving tangential frame: materialising
    a field at time t multiplies mode j by exp(+i*j*t) in the upper
    phase and exp(-i*j*t) in the lower one.
    """

    def __init__(self, n_cutoff, P=None, P_dot=None, L=None, L_dot=None,
                 g=None, g_dot=None, r=None, r_dot=None, grid=None):
        if n_cutoff < 1:
            raise ValueError("n_cutoff must be >= 1")
        self.n_cutoff = n_cutoff
        self.P, self.P_dot, self.L, self.L_dot, self.g, self.g_dot = (
            {} if c is None else c for c in (P, P_dot, L, L_dot, g, g_dot))
        for j in list(self.P) + list(self.P_dot):
            if j < self.n_cutoff:
                raise ValueError(f"P coefficient {j} below cutoff {self.n_cutoff}")
        for j in list(self.L) + list(self.L_dot):
            if not 1 <= j < self.n_cutoff:
                raise ValueError(f"L coefficient {j} outside [1, {self.n_cutoff})")
        for j in list(self.g) + list(self.g_dot):
            if j < 1:
                raise ValueError("g coefficients are indexed by j >= 1")
        self.r_hat, self.r_dot_hat = (None if v is None else _r_spectrum(_stack(v))
                                      for v in (r, r_dot))
        self.grid = grid

    @classmethod
    def _from_spectra(cls, n_cutoff, P, P_dot, L, L_dot, g, g_dot, r_hat, r_dot_hat,
                      grid=None):
        """A state built straight from x2 spectra (checked, not transformed)."""
        state = cls(n_cutoff, P, P_dot, L, L_dot, g, g_dot, grid=grid)
        for spectrum in (r_hat, r_dot_hat):
            _check_r_field(spectrum)
        state.r_hat, state.r_dot_hat = r_hat, r_dot_hat
        return state

    def _fields(self, spectrum):
        """Grid 3-vector of a stored spectrum; zero fields for an absent block on a known grid."""
        if spectrum is not None:
            return _unstack(_r_grid(spectrum))
        return None if self.grid is None else vector_field_zeros(*self.grid)

    @property
    def r(self):
        return self._fields(self.r_hat)

    @property
    def r_dot(self):
        return self._fields(self.r_dot_hat)
