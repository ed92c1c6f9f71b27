"""Reference fields and quadrature the tests check the package against.

A grid 3-vector is the package's stacked float array, axes (component,
phase, x1, x2, x3).  The package keeps x2-constant data as planes (x2
extent 1); tests that mix them with x2-dependent fields, or compare a
plane against the grid it stands for, build the full grid here.  The grid L2 inner product and
the reconstruction of grid fields from a decomposed state serve only as
references, so they live here too.
"""

import numpy as np

from khlab.core import (
    GridMismatchError,
    PerturbationState,
    TwoPhaseGridField,
    _r_grid,
    _vertical_weights,
)
from khlab.eigenmodes import potential_gradient_plane


def full_grid(vec):
    """The full-grid repeat of an x2-constant grid 3-vector (or of one of its components)."""
    return np.repeat(vec, vec.shape[-3], axis=-2)


def x1_vector(field: TwoPhaseGridField):
    """The grid 3-vector (field, 0, 0)."""
    vec = np.zeros((3, *field.values.shape))
    vec[0] = field.values
    return vec


def plane_spectrum_agrees(plane_hat, full_hat, rel=1e-14):
    """Whether an x2 spectrum of a plane matches that of its full-grid repeat.

    The plane keeps k2 = 0 alone, and the mean-normalised repeat holds the
    same there and zero at every other k2; both to rel times the repeat's
    largest entry.
    """
    scale = np.max(np.abs(full_hat))
    return bool(np.max(np.abs(plane_hat - full_hat[:, :, :, :1])) <= rel * scale
                and np.max(np.abs(full_hat[:, :, :, 1:])) <= rel * scale)


def families(odd, even):
    """(j, odd, even): the potential families {j: coefficient} as lists on their joint
    ascending keys, zero-filled, the arguments potential_gradient_plane takes."""
    j = sorted({*odd, *even})
    return j, [odd.get(k, 0) for k in j], [even.get(k, 0) for k in j]


def potential_gradient_field(odd, even, n_tan, n_ver, t=0.0):
    """Re(grad h) of the odd and even potential families {j: coefficient} on the full grid."""
    return full_grid(potential_gradient_plane(*families(odd, even), n_tan, n_ver, t))


def inner_product_L2(f: TwoPhaseGridField, g: TwoPhaseGridField) -> float:
    """L2 inner product over both phases of the slab.

    Tangential directions use the rectangle rule (exact for trigonometric
    polynomials below the Nyquist frequency); the vertical uses the
    trapezoidal rule per phase.  Symmetric and bilinear by construction.
    """
    if f.values.shape != g.values.shape:
        raise GridMismatchError("inner product requires identical grids")
    w = _vertical_weights(f.n_ver)
    s = np.sum(f.values[0] * g.values[0] * w)
    s += np.sum(f.values[1] * g.values[1] * w)
    return float(s * f.h_tan ** 2 * (f.n_tan // f.n_x2))   # a plane stands for n_tan columns


def inner_product_vector(fs, gs) -> float:
    """Sum of component-wise L2 inner products of two grid 3-vectors."""
    return sum(inner_product_L2(TwoPhaseGridField(f), TwoPhaseGridField(g))
               for f, g in zip(fs, gs))


def reconstruct_perturbation(state: PerturbationState, n_tan: int, n_ver: int,
                             t: float = 0.0):
    """Materialise the grid 3-vectors (chi, chi_dot) of a decomposed state.

    A field whose r is absent, or constant in x2 to round-off, is a plane,
    as the data it was decomposed from; any other is a full grid.
    """
    def fields(low, high, even, r_hat):
        plane = potential_gradient_plane(*families({**low, **high}, even), n_tan, n_ver, t)
        if r_hat is None:
            return plane
        values = _r_grid(r_hat)
        if np.ptp(values, axis=3).max() <= 1e-14 * np.abs(values).max():
            values = values[:, :, :, :1]
        values += plane   # in place, so one full-grid array is alive
        return values

    return (fields(state.L, state.P, state.g, state.r_hat),
            fields(state.L_dot, state.P_dot, state.g_dot, state.r_dot_hat))
