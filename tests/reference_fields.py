"""Full-grid reference fields: x2-constant planes repeated along x2.

The package keeps x2-constant data as planes (x2 extent 1); tests that
mix them with x2-dependent fields, or compare a plane against the grid
it stands for, build the full grid here.
"""

import numpy as np

from khlab.core import TwoPhaseGridField, _unstack
from khlab.eigenmodes import potential_gradient_plane


def full_grid(vec):
    """The full-grid repeat of a 3-vector of x2-constant planes."""
    return tuple(TwoPhaseGridField(c.n_tan, c.n_ver,
                                   np.repeat(c.values_upper, c.n_tan, axis=1),
                                   np.repeat(c.values_lower, c.n_tan, axis=1)) for c in vec)


def potential_gradient_field(pot, coeff, n_tan, n_ver, t=0.0):
    """Re(coeff * grad potential) on the full two-phase grid."""
    plane = potential_gradient_plane([(pot, coeff)], n_tan, n_ver, t)
    return _unstack(np.repeat(plane, n_tan, axis=3))
