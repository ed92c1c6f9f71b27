"""
Shared domain types, quadrature and tangential Fourier analysis.

Geometry and conventions (used by every module in the package):

* The slab is T^2 x (-1, 1): periodic tangential coordinates
  x1, x2 in [0, 2*pi) and a wall-bounded vertical coordinate x3.
  Tangential wave vectors are integer pairs (k1, k2).
* The interface sits at x3 = 0 and splits the slab into an upper
  phase (0, 1) and a lower phase (-1, 0).  Discrete fields keep a
  separate interface row per phase so that jumps are representable.
* Vertical structure is hyperbolic: every analytic profile is a pair of
  exponentials per phase, each anchored at the end of the phase where it
  peaks (VerticalProfile), so no term exceeds its coefficient at any kappa.
* All quantities are dimensionless; default densities and ion mass
  are one.
* A scalar grid field is a TwoPhaseGridField, one array with axes
  (phase, x1, x2, x3), upper phase first.  A grid 3-vector has one
  encoding, the float array of its three stacked fields, axes
  (component, phase, x1, x2, x3): perturbed_initial_data returns such
  arrays, decompose_perturbation and PerturbationState(r=, r_dot=) take
  them and state.r reads one back.  A length-1 x2 axis means "constant
  in x2" everywhere: such a plane stays a plane through decomposition,
  reconstruction and the x2 spectrum of r, which keeps the x2 extent of
  its data.

Everything here is a plain value object: construct, then treat as
immutable.  Operations are pure functions, safe to run concurrently.
"""

import math
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


def exp_weights(kappa: float):
    """(1, e^k) / (2 sinh k) as (e^-k, 1) / (1 - e^-2k): finite for every kappa > 0."""
    large = -1.0 / math.expm1(-2.0 * kappa)
    return math.exp(-kappa) * large, large


def power_of_two_unit(sup):
    """The power of two u <= sup < 2u (0.5 at sup = 0), the unit that puts data in (-2, 2)."""
    return math.ldexp(0.5, math.frexp(sup)[1])


def sup_abs(x):
    """max|x| of a real array from its max and min, with no |x| temporary: +0.0 for all-zero
    data, NaN if any entry is NaN."""
    return max(abs(float(x.max())), abs(float(x.min())))


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
        try:
            if k1 != int(k1) or k2 != int(k2):
                raise ValueError("wave vector components must be integers")
            float(k1), float(k2)   # kappa and every frequency product are floats
        except OverflowError:   # int() of an infinity, or float() of an int past the range
            raise ValueError("wave vector k = (k1, k2) leaves the float range") from None
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

def exp_pair_values(kappa, pair, x3, top):
    """b_plus e^{kappa (x3 - top)} + b_minus e^{kappa (top - 1 - x3)} of pair = (b_plus, b_minus)
    on the phase [top - 1, top]: 1 for the upper phase, 0 for the lower."""
    if isinstance(x3, float):
        ep, em = math.exp(kappa * (x3 - top)), math.exp(kappa * (top - 1.0 - x3))
    else:
        x3 = np.asarray(x3, dtype=float)
        ep, em = np.exp(kappa * (x3 - top)), np.exp(kappa * (top - 1.0 - x3))
    return pair[0] * ep + pair[1] * em


class VerticalProfile(namedtuple("VerticalProfile", "kappa upper lower")):
    """Per-phase hyperbolic profile, defined on x3 in [-1, 1].

    Each phase carries the complex or real coefficients (b_plus, b_minus)
    of b_plus*e^{kappa*(x3 - 1)} + b_minus*e^{-kappa*x3} on the upper
    phase [0, 1] and b_plus*e^{kappa*x3} + b_minus*e^{-kappa*(x3 + 1)} on
    the lower phase [-1, 0].  Each exponential is 1 at the end of the phase
    where it peaks, so a value never exceeds |b_plus| + |b_minus|.

    x3 >= 0 evaluates the upper phase, x3 < 0 the lower one; the two
    interface limits at x3 = 0 are exposed separately.
    """

    __slots__ = ()

    def __new__(cls, kappa, upper, lower):   # upper, lower: (b_plus, b_minus)
        if not kappa > 0:
            raise ValueError("kappa must be positive")
        return super().__new__(cls, kappa, upper, lower)

    _make = classmethod(_make_validated)

    def eval_upper(self, x3):
        return exp_pair_values(self.kappa, self.upper, x3, 1.0)

    def eval_lower(self, x3):
        return exp_pair_values(self.kappa, self.lower, x3, 0.0)

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
        """d/dx3, closed under the representation: (b_plus, b_minus) -> kappa*(b_plus, -b_minus)."""
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
        self.values = _grid_array(values, (2,))

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
        return sup_abs(self.values)


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


def _grid_array(values, lead):
    """values as a float array of shape (*lead, n_tan, n_tan or 1, n_ver + 1): lead (2,) for a
    field, (3, 2) for a grid 3-vector.  Any other shape raises GridMismatchError."""
    values = np.asarray(values, dtype=float)
    shape = values.shape
    if (values.ndim != len(lead) + 3 or shape[:len(lead)] != lead or shape[-1] < 2
            or shape[-2] not in (shape[-3], 1)):
        expected = ", ".join(map(str, lead))
        raise GridMismatchError(
            f"values must have shape ({expected}, n_tan, n_tan or 1, n_ver + 1), got {shape}")
    return values


# ---------------------------------------------------------------------------
# perturbation state
# ---------------------------------------------------------------------------

def _r_frequencies(spectrum):
    """The k2 of a stored x2 spectrum of r as floats: 0, ..., n_tan//2, or 0 alone for a plane."""
    return np.arange(spectrum.shape[3], dtype=float)


def _r_stiffness(spectrum, a, b):
    """The r block's stiffness, rows (a*k2)^2 above and (b*k2)^2 below the interface."""
    return (np.array([[a], [b]], dtype=float) * _r_frequencies(spectrum)) ** 2


def _r_spectrum(values):
    """Mean-normalised x2 rfft of a stacked grid 3-vector or plane: axes (component, phase,
    x1, k2, x3).  k2 = 0 holds the x2 mean, so a plane's spectrum is its own values."""
    return np.fft.rfft(values, axis=3, norm="forward")


def _r_grid(spectrum):
    """The stacked grid 3-vector or plane of an x2 spectrum (inverse of _r_spectrum)."""
    n_x2 = 1 if spectrum.shape[3] == 1 else spectrum.shape[2]
    return np.fft.irfft(spectrum, n=n_x2, axis=3, norm="forward")


def _divided(c, q):
    """c / q of a complex array c and real q, each part divided as Python's complex / int
    rounds it; numpy's complex quotient multiplies by 1/q and reads an infinite part as NaN."""
    quotient = np.empty_like(c)
    quotient.real, quotient.imag = c.real / q, c.imag / q
    return quotient


def _family(x, y):
    """The ascending int64 keys of two {j: value} dicts and their complex arrays, zero-filled."""
    keys = sorted({*x, *y})
    return (np.array(keys, dtype=np.int64),
            *(np.array([c.get(j, 0) for j in keys], dtype=complex) for c in (x, y)))


def _cutoff(n_cutoff):
    """n_cutoff as an int if it is an integer >= 1, else ValueError."""
    if not (isinstance(n_cutoff, (int, np.integer)) and n_cutoff >= 1):
        raise ValueError(f"n_cutoff must be an integer >= 1, got {n_cutoff!r}")
    return int(n_cutoff)


def _view(j, values):
    """{j: x} of aligned arrays as Python int and complex, exact zeros left out."""
    keep = values != 0
    return dict(zip(map(int, j[keep]), map(complex, values[keep])))


class PerturbationState:
    """Four-part decomposition of an interface perturbation.

    Each potential family is stored once, as an ascending int64 array of
    the streamwise frequency j with complex value arrays aligned to it.
    The odd family is j_odd with the characteristic amplitudes w_plus and
    w_minus, w+/- = d +/- j*c for coefficient c and velocity d, split by
    searchsorted into P (j >= n_cutoff) and L (1 <= j < n_cutoff).  The
    even family g is j_even with g_values and g_dot_values, zero-filled
    on the union of their keys.  P, P_dot, L, L_dot, g and g_dot are
    read-only {j: complex} views keyed by Python int, exact zeros left out.

    r and r_dot are optional grid 3-vectors whose third component
    vanishes on the interface and the walls.  The r block is diagonal in
    the x2 Fourier modes, so they are stored only as their x2 spectra
    r_hat and r_dot_hat: rfft(values, axis=x2, norm="forward"), complex
    arrays with axes (component, phase, x1, k2, x3) whose k2 = 0 column
    holds the x2 mean.  r keeps the x2 extent of its data: a full grid
    stores the shape (3, 2, n_tan, n_tan//2 + 1, n_ver + 1), an
    x2-constant plane k2 = 0 only, (3, 2, n_tan, 1, n_ver + 1), which is
    exactly the k2 = 0 column of its x2 repeat.  The r= and r_dot=
    arguments take stacked grid 3-vectors, full grids or planes,
    shape-checked and transformed once; state.r and state.r_dot read back
    a fresh array of the stored extent, and an absent block (one a
    decomposition dropped as round-off, or never given) reads None.  A
    state records no grid beyond its data.

    Coefficients live in the co-moving tangential frame: materialising
    a field at time t multiplies mode j by exp(+i*j*t) in the upper
    phase and exp(-i*j*t) in the lower one.
    """

    def __new__(cls, n_cutoff, P=None, P_dot=None, L=None, L_dot=None,
                g=None, g_dot=None, r=None, r_dot=None):
        n_cutoff = _cutoff(n_cutoff)
        P, P_dot, L, L_dot, g, g_dot = (
            {} if c is None else c for c in (P, P_dot, L, L_dot, g, g_dot))
        for j in [*P, *P_dot, *L, *L_dot, *g, *g_dot]:
            if not (isinstance(j, (int, np.integer)) and -2 ** 63 <= j < 2 ** 63):
                raise ValueError(f"coefficient key {j!r} is not an integer in the int64 range")
        for j in list(P) + list(P_dot):
            if j < n_cutoff:
                raise ValueError(f"P coefficient {j} below cutoff {n_cutoff}")
        for j in list(L) + list(L_dot):
            if not 1 <= j < n_cutoff:
                raise ValueError(f"L coefficient {j} outside [1, {n_cutoff})")
        for j in list(g) + list(g_dot):
            if j < 1:
                raise ValueError("g coefficients are indexed by j >= 1")
        j_odd, c, d = _family({**L, **P}, {**L_dot, **P_dot})
        return cls._from_spectra(n_cutoff, j_odd, *cls._characteristic(j_odd, c, d),
                                 *_family(g, g_dot),
                                 *(None if v is None else _r_spectrum(_grid_array(v, (3, 2)))
                                   for v in (r, r_dot)))

    @classmethod
    def _from_spectra(cls, n_cutoff, j_odd, w_plus, w_minus, j_even, g_values, g_dot_values,
                      r_hat, r_dot_hat):
        """A state built straight from its family arrays and x2 spectra, which are checked and
        put on one x2 extent: a plane beside a full grid is padded to its repeat's spectrum."""
        state = super().__new__(cls)
        state.n_cutoff = n_cutoff
        state.j_odd, state.w_plus, state.w_minus = j_odd, w_plus, w_minus
        state.j_even, state.g_values, state.g_dot_values = j_even, g_values, g_dot_values
        spectra = [s for s in (r_hat, r_dot_hat) if s is not None]
        for spectrum in spectra:   # r3 on the interface and wall rows, exactly
            if np.any(spectrum[2][..., [0, -1]] != 0.0):
                raise ValueError("third component of r must vanish exactly on "
                                 "the interface and the walls")
        n_k2 = max([s.shape[3] for s in spectra], default=1)
        state.r_hat, state.r_dot_hat = (
            s if s is None or s.shape[3] == n_k2
            else np.pad(s, [(0, 0)] * 3 + [(0, n_k2 - 1), (0, 0)])
            for s in (r_hat, r_dot_hat))
        if len({s.shape for s in (state.r_hat, state.r_dot_hat) if s is not None}) > 1:
            raise GridMismatchError("r and r_dot live on different grids")
        return state

    @staticmethod
    def _characteristic(j, c, d):
        """(w+, w-) = d +/- j*c of odd-family coefficients c and velocities d aligned to j.

        A non-finite c or d raises ValueError, a w+/- past the float range OverflowError.
        """
        for name, x in (("P and L coefficients", c), ("P_dot and L_dot velocities", d)):
            if not np.isfinite(x).all():
                raise ValueError(f"{name} must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            w = tuple(d + sign * j * c for sign in (1, -1))
        if not np.isfinite(w).all():
            raise OverflowError("w+/- = d +/- j*c leave the float range; scale the data down")
        return w

    def _side(self, high):
        """(j, w+, w-) of the odd family above the cutoff (P) if high, else below it (L)."""
        split = int(np.searchsorted(self.j_odd, self.n_cutoff))
        side = slice(split, None) if high else slice(split)
        return self.j_odd[side], self.w_plus[side], self.w_minus[side]

    def _odd(self, high, velocity):
        """(j, c) with c = (w+/2 - w-/2)/j, or (j, d) with d = w+/2 + w-/2, on one side."""
        j, w_plus, w_minus = self._side(high)
        # w+/- halved first, so the views stay in range
        half_plus, half_minus = _divided(w_plus, 2), _divided(w_minus, 2)
        return j, (half_plus + half_minus if velocity else _divided(half_plus - half_minus, j))

    P = property(lambda self: _view(*self._odd(True, False)))
    P_dot = property(lambda self: _view(*self._odd(True, True)))
    L = property(lambda self: _view(*self._odd(False, False)))
    L_dot = property(lambda self: _view(*self._odd(False, True)))
    g = property(lambda self: _view(self.j_even, self.g_values))
    g_dot = property(lambda self: _view(self.j_even, self.g_dot_values))

    @property
    def r(self):
        return None if self.r_hat is None else _r_grid(self.r_hat)

    @property
    def r_dot(self):
        return None if self.r_dot_hat is None else _r_grid(self.r_dot_hat)
