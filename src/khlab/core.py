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
  package is a_plus*exp(kappa*x3) + a_minus*exp(-kappa*x3) per phase,
  stored as that exponential pair so that wall-bounded combinations
  like cosh(kappa*x3) - coth(kappa)*sinh(kappa*x3) stay accurate for
  large kappa instead of cancelling catastrophically.
* All quantities are dimensionless; default densities and ion mass
  are one.
* A grid field is one array, axes (phase, x1, x2, x3) with the upper
  phase first, and a grid 3-vector stacks three of them, axes
  (component, phase, x1, x2, x3); _stack and _unstack convert.  A
  length-1 x2 axis means "constant in x2" everywhere: such a plane
  stays a plane through decomposition, reconstruction and the x2
  spectrum of r, which keeps the x2 extent of its data.

Everything here is a plain value object: construct, then treat as
immutable.  Operations are pure functions, safe to run concurrently.
"""

import cmath
import math
import sys
from collections import namedtuple
from typing import NamedTuple


class _Numpy:
    """numpy for every khlab module, imported (import-locked) on the first read of a name."""

    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()

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


def _make_validated(cls, fields):
    """namedtuple's _make, which _replace calls, through a validating constructor."""
    return cls(*fields)


# ---------------------------------------------------------------------------
# physical configuration
# ---------------------------------------------------------------------------

class ShearParams(namedtuple("ShearParams", "u_plus u_minus n1 n2 m_i")):
    """Background configuration of the two streaming fluids.

    u_plus / u_minus are the constant velocities of the upper and lower
    fluid, n1/n2 the number densities and m_i the ion mass.  The
    transverse field strengths a and b (fields (0, a, 0) above,
    (0, b, 0) below) are arguments of the functions that use them.  The
    canonical shear is u_plus=(1,0,0), u_minus=(-1,0,0); general vectors
    are accepted for the stability criteria.
    """

    __slots__ = ()

    def __new__(cls, u_plus=(1.0, 0.0, 0.0), u_minus=(-1.0, 0.0, 0.0), n1=1.0, n2=1.0, m_i=1.0):
        if len(u_plus) != 3 or len(u_minus) != 3:
            raise ValueError("velocities must be 3-vectors")
        u_plus, u_minus = tuple(float(c) for c in u_plus), tuple(float(c) for c in u_minus)
        if n1 <= 0 or n2 <= 0 or m_i <= 0:
            raise ValueError("densities and ion mass must be positive")
        return super().__new__(cls, u_plus, u_minus, n1, n2, m_i)

    _make = classmethod(_make_validated)

    def velocity_jump(self) -> tuple:
        return tuple(p - m for p, m in zip(self.u_plus, self.u_minus))


class WaveVector(namedtuple("WaveVector", "k1 k2")):
    """Integer tangential frequency pair on the torus."""

    __slots__ = ()

    def __new__(cls, k1, k2):
        if k1 != int(k1) or k2 != int(k2):
            raise ValueError("wave vector components must be integers")
        return super().__new__(cls, int(k1), int(k2))

    _make = classmethod(_make_validated)

    @property
    def kappa(self) -> float:
        return math.hypot(self.k1, self.k2)

    def is_zero(self) -> bool:
        return self.k1 == 0 and self.k2 == 0

    def require_nonzero(self):
        if self.is_zero():
            raise ValueError("operation requires a nonzero wave vector")
        return self


# ---------------------------------------------------------------------------
# closed-form vertical profiles
# ---------------------------------------------------------------------------

def exp_pair_values(kappa, pairs, x3):
    """a_plus e^{kappa x3} + a_minus e^{-kappa x3} per pair, all from one exponential pair."""
    if isinstance(x3, float):
        try:
            ep, em = math.exp(kappa * x3), math.exp(-kappa * x3)
            out = [a_plus * ep + a_minus * em for a_plus, a_minus in pairs]
        except OverflowError:
            out = [math.inf]
        finite = all(map(cmath.isfinite, out))
    else:
        x3 = np.asarray(x3, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            ep, em = np.exp(kappa * x3), np.exp(-kappa * x3)
            out = [a_plus * ep + a_minus * em for a_plus, a_minus in pairs]
        finite = all(np.isfinite(value).all() for value in out)
    if not finite:   # e^kappa passes the float range near kappa = 709.78
        raise OverflowError(f"profile at kappa = {kappa:g} leaves the float range "
                            f"(max {sys.float_info.max:.3g})")
    return out


class VerticalProfile(namedtuple("VerticalProfile", "kappa upper lower")):
    """Per-phase hyperbolic profile on x3 in [-1, 1].

    Each phase carries the exponential coefficients (a_plus, a_minus) of
    a_plus*e^{kappa*x3} + a_minus*e^{-kappa*x3}; the pair of
    c_cosh*cosh(kappa*x3) + c_sinh*sinh(kappa*x3) is
    ((c_cosh + c_sinh)/2, (c_cosh - c_sinh)/2).  Coefficients may be
    complex (profiles paired with tangential phases often are).

    x3 >= 0 evaluates the upper phase, x3 < 0 the lower one; the two
    interface limits at x3 = 0 are exposed separately.
    """

    __slots__ = ()

    def __new__(cls, kappa, upper, lower):   # upper, lower: (a_plus, a_minus)
        if not kappa > 0:
            raise ValueError("kappa must be positive")
        return super().__new__(cls, kappa, upper, lower)

    _make = classmethod(_make_validated)

    def eval_upper(self, x3):
        return exp_pair_values(self.kappa, [self.upper], x3)[0]

    def eval_lower(self, x3):
        return exp_pair_values(self.kappa, [self.lower], x3)[0]

    def eval(self, x3):
        """Evaluate pointwise; x3 >= 0 selects the upper phase."""
        if isinstance(x3, float):
            return self.eval_upper(x3) if x3 >= 0.0 else self.eval_lower(x3)
        x3 = np.asarray(x3, dtype=float)
        up = self.eval_upper(np.maximum(x3, 0.0))
        lo = self.eval_lower(np.minimum(x3, 0.0))
        out = np.where(x3 >= 0.0, up, lo)
        return out if out.ndim else out[()]

    def derivative(self) -> "VerticalProfile":
        """d/dx3, closed under the representation: (a_plus, a_minus) -> kappa*(a_plus, -a_minus)."""
        k = self.kappa
        return VerticalProfile(k, (k * self.upper[0], -k * self.upper[1]),
                               (k * self.lower[0], -k * self.lower[1]))

    def scaled(self, factor) -> "VerticalProfile":
        return VerticalProfile(self.kappa, (factor * self.upper[0], factor * self.upper[1]),
                               (factor * self.lower[0], factor * self.lower[1]))


class SpectralMode(NamedTuple):
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

    values is one float array of shape (2, n_tan, n_x2, n_ver + 1) with
    axes (phase, x1, x2, x3), upper phase first: one component of the
    stacked layout.  The x2 extent n_x2 is n_tan, or 1 for a plane
    meaning "constant in x2".  n_tan, n_x2 and n_ver are read from the
    shape, so a plane and a full field live on different grids.
    Arithmetic is numpy's, on .values.
    """

    __slots__ = ("values",)
    n_tan = property(lambda self: self.values.shape[1])
    n_x2 = property(lambda self: self.values.shape[2])
    n_ver = property(lambda self: self.values.shape[3] - 1)

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if (values.ndim != 4 or values.shape[0] != 2 or values.shape[3] < 2
                or values.shape[2] not in (values.shape[1], 1)):
            raise GridMismatchError(
                f"values must have shape (2, n_tan, n_tan or 1, n_ver + 1), got {values.shape}")
        self.values = values

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, n_tan, n_ver, n_x2=None):
        return cls(np.zeros((2, n_tan, n_tan if n_x2 is None else n_x2, n_ver + 1)))

    @classmethod
    def from_function(cls, fn, n_tan, n_ver):
        """Sample fn(x1, x2, x3) on both phases (broadcasting arrays)."""
        x = tangential_grid(n_tan)
        z = np.array(vertical_levels(n_ver))
        values = fn(x[None, :, None, None], x[None, None, :, None], z[:, None, None, :])
        return cls(np.broadcast_to(values, (2, n_tan, n_tan, n_ver + 1)).copy())

    # -- geometry ------------------------------------------------------

    @property
    def h_tan(self) -> float:
        return TWO_PI / self.n_tan

    @property
    def h_ver(self) -> float:
        return 1.0 / self.n_ver

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def tangential_grid(n_tan):
    """The n_tan equispaced points of [0, 2*pi), the same in x1 and x2."""
    return TWO_PI * np.arange(n_tan) / n_tan


def linspace(start, stop, num):
    """np.linspace(start, stop, num) bit for bit, as a list of floats."""
    start, stop = float(start), float(stop)
    delta, div = stop - start, num - 1
    if div < 1:
        return [0.0 * delta + start][:num]
    step = delta / div
    # numpy scales i/div by delta when the step underflows to zero
    values = [(i / div * delta if step == 0 else i * step) + start for i in range(num)]
    values[-1] = stop
    return values


def strictly_monotone(values):
    """True iff a sequence strictly increases or strictly decreases; NaN fails both."""
    steps = list(zip(values, values[1:]))
    return all(y > x for x, y in steps) or all(y < x for x, y in steps)


def vertical_levels(n_ver):
    """Level coordinates per phase, interface and wall rows included, as lists."""
    return linspace(0.0, 1.0, n_ver + 1), linspace(-1.0, 0.0, n_ver + 1)


def _vertical_weights(n_ver):
    w = np.full(n_ver + 1, 1.0 / n_ver)
    w[[0, -1]] *= 0.5
    return w


def row_profile_plane(row_up, row_lo, profile, n_ver):
    """Re(row(x1) * profile(x3)) per phase, constant in x2: axes (phase, x1, 1, x3)."""
    zu, zl = vertical_levels(n_ver)
    return np.real(np.stack([row_up[:, None] * profile.eval_upper(zu),
                             row_lo[:, None] * profile.eval_lower(zl)]))[:, :, None, :]


def _stack(vec):
    """A grid 3-vector as one array, axes (component, phase, x1, x2, x3), upper phase first."""
    if len(vec) != 3:
        raise ValueError("expected a 3-vector of grid fields")
    if len({c.values.shape for c in vec}) != 1:
        raise GridMismatchError("the components of a 3-vector live on different grids")
    return np.array([c.values for c in vec])


def _unstack(values):
    """The grid 3-vector of a stacked array, sharing its memory; a plane stays a plane."""
    return tuple(map(TwoPhaseGridField, values))


# ---------------------------------------------------------------------------
# tangential Fourier analysis
# ---------------------------------------------------------------------------

def _integer_frequencies(n_tan):
    return np.rint(np.fft.fftfreq(n_tan) * n_tan).astype(int)


# ---------------------------------------------------------------------------
# perturbation state
# ---------------------------------------------------------------------------

def _r_frequencies(spectrum):
    """The k2 of a stored x2 spectrum of r as floats: 0, ..., n_tan//2, or 0 alone for a plane."""
    return np.arange(spectrum.shape[3], dtype=float)


def _r_spectrum(values):
    """x2 rfft of a stacked grid 3-vector or plane: axes (component, phase, x1, k2, x3)."""
    return np.fft.rfft(values, axis=3)


def _r_grid(spectrum):
    """The stacked grid 3-vector or plane of an x2 spectrum (inverse of _r_spectrum)."""
    n_x2 = 1 if spectrum.shape[3] == 1 else spectrum.shape[2]
    return np.fft.irfft(spectrum, n=n_x2, axis=3)


class PerturbationState:
    """Four-part decomposition of an interface perturbation.

    Coefficient maps are indexed by the streamwise integer frequency j
    of the odd/even harmonic potential families: P carries j >= n_cutoff,
    L carries 1 <= j < n_cutoff, g carries every j >= 1.  The *_dot
    partners hold the coefficient velocities used by the second-order
    evolution.  P and L are stored together as the characteristic
    amplitudes w_plus and w_minus, w+/- = d +/- j*c for coefficient c and
    velocity d; P, P_dot, L and L_dot are read-only views of them.

    r and r_dot are optional 3-vector fields whose third component
    vanishes on the interface and the walls.  The r block is diagonal in
    the x2 Fourier modes, so they are stored only as their x2 spectra
    r_hat and r_dot_hat: rfft(values, axis=x2), complex arrays with axes
    (component, phase, x1, k2, x3).  r keeps the x2 extent of its data:
    a full grid stores the shape (3, 2, n_tan, n_tan//2 + 1, n_ver + 1),
    an x2-constant plane k2 = 0 only, (3, 2, n_tan, 1, n_ver + 1).  A
    state has one extent, so a plane beside a full grid is promoted to
    the spectrum of its x2 repeat.  The r= and r_dot= arguments take grid
    3-vectors, full grids or planes, transformed once; state.r and
    state.r_dot read back fresh fields of the stored extent, and an
    absent block (one a decomposition dropped as round-off, or never
    given) reads None.  A state records no grid beyond its data.

    Coefficients live in the co-moving tangential frame: materialising
    a field at time t multiplies mode j by exp(+i*j*t) in the upper
    phase and exp(-i*j*t) in the lower one.
    """

    def __init__(self, n_cutoff, P=None, P_dot=None, L=None, L_dot=None,
                 g=None, g_dot=None, r=None, r_dot=None):
        if n_cutoff < 1:
            raise ValueError("n_cutoff must be >= 1")
        self.n_cutoff = n_cutoff
        P, P_dot, L, L_dot, self.g, self.g_dot = (
            {} if c is None else c for c in (P, P_dot, L, L_dot, g, g_dot))
        for j in list(P) + list(P_dot):
            if j < self.n_cutoff:
                raise ValueError(f"P coefficient {j} below cutoff {self.n_cutoff}")
        for j in list(L) + list(L_dot):
            if not 1 <= j < self.n_cutoff:
                raise ValueError(f"L coefficient {j} outside [1, {self.n_cutoff})")
        for j in list(self.g) + list(self.g_dot):
            if j < 1:
                raise ValueError("g coefficients are indexed by j >= 1")
        self.w_plus, self.w_minus = self._characteristic({**L, **P}, {**L_dot, **P_dot})
        self._set_r(*(None if v is None else _r_spectrum(_stack(v)) for v in (r, r_dot)))

    @classmethod
    def _from_spectra(cls, n_cutoff, w_plus, w_minus, g, g_dot, r_hat, r_dot_hat):
        """A state built straight from w+/- (sharing their keys) and checked x2 spectra."""
        state = cls(n_cutoff, g=g, g_dot=g_dot)
        state.w_plus, state.w_minus = w_plus, w_minus
        state._set_r(r_hat, r_dot_hat)
        return state

    @staticmethod
    def _characteristic(c, d):
        """(w+, w-) = d +/- j*c of odd-family coefficients c and velocities d, j ascending."""
        return tuple({j: complex(d.get(j, 0.0) + sign * j * c.get(j, 0.0))
                      for j in sorted({*c, *d})} for sign in (1, -1))

    def _odd(self, high, velocity):
        """c = (w+ - w-)/(2j) or d = (w+ + w-)/2 per side of the cutoff; exact zeros left out."""
        views = ((j, (w + self.w_minus[j]) / 2 if velocity else (w - self.w_minus[j]) / (2 * j))
                 for j, w in self.w_plus.items() if (j >= self.n_cutoff) == high)
        return {j: v for j, v in views if v != 0}

    P = property(lambda self: self._odd(True, False))
    P_dot = property(lambda self: self._odd(True, True))
    L = property(lambda self: self._odd(False, False))
    L_dot = property(lambda self: self._odd(False, True))

    def _set_r(self, r_hat, r_dot_hat):
        """Check and store the r spectra on one x2 extent: a plane beside a full grid
        becomes the spectrum of its x2 repeat, n_tan times it at k2 = 0, zero elsewhere."""
        spectra = [s for s in (r_hat, r_dot_hat) if s is not None]
        for spectrum in spectra:   # r3 on the interface and wall rows, exactly
            if np.any(spectrum[2][..., [0, -1]] != 0.0):
                raise ValueError("third component of r must vanish exactly on "
                                 "the interface and the walls")
        n_k2 = max([s.shape[3] for s in spectra], default=1)
        self.r_hat, self.r_dot_hat = (
            s if s is None or s.shape[3] == n_k2
            else np.pad(s.shape[2] * s, [(0, 0)] * 3 + [(0, n_k2 - 1), (0, 0)])
            for s in (r_hat, r_dot_hat))
        if len({s.shape for s in (self.r_hat, self.r_dot_hat) if s is not None}) > 1:
            raise GridMismatchError("r and r_dot live on different grids")

    @staticmethod
    def _fields(spectrum):
        """Grid 3-vector of a stored spectrum; None for an absent block."""
        return None if spectrum is None else _unstack(_r_grid(spectrum))

    @property
    def r(self):
        return self._fields(self.r_hat)

    @property
    def r_dot(self):
        return self._fields(self.r_dot_hat)
