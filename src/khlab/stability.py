"""Growth rate of the planar current-vortex sheet and stability criteria.

The classical normal-mode analysis of a tangential discontinuity between
two incompressible MHD streams gives a closed-form growth rate: velocity
shear along the wave vector drives the instability while magnetic tension
from the field components parallel to the wave vector opposes it.  The
Syrovatskij inequalities mark the regime where tension wins for every
wave vector; the strong variant tightens them.  With purely transverse
fields and streamwise wave vectors the tension terms vanish identically,
so the sheet stays as unstable as the unmagnetized one.
"""

from dataclasses import dataclass

import numpy as np

from khlab.core import ShearParams, WaveVector


@dataclass(frozen=True)
class StabilityVerdict:
    """Pointwise stability assessment of one configuration.

    gamma_squared is the squared normal-mode growth rate (NaN when only
    the criteria were evaluated), growing its sign, and the three flags
    report the non-strict stability inequalities: equality counts as
    stable-side.
    """

    gamma_squared: float
    growing: bool
    syrovatskij_first: bool
    syrovatskij_second: bool
    strong_condition: bool


def _as_vec3(v, name):
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    return arr


class SquareOverflowError(OverflowError):
    """float.__pow__'s OverflowError, same args and text; detail names the square and its inputs."""

    def __init__(self, detail):
        super().__init__(34, "Numerical result out of range")
        self.detail = detail


# Kernels over the leading axes of (..., 3) fields, each cell equal to the scalar formula:
# np.vecdot is BLAS dot as np.dot is, _square is Python's x ** 2 (libm pow, not x * x).
def _square(x, name="a squared cross product", inputs="the fields or the velocity jump"):
    y = np.float_power(x, 2.0)
    if np.any(np.isinf(y) & np.isfinite(x)):
        raise SquareOverflowError(f"{name} leaves the float range; lower {inputs}")
    return y


@np.errstate(over="ignore", invalid="ignore")
def _gamma_squared(params, k, B1, B2):
    n1, n2, m_i = params.n1, params.n2, params.m_i
    drive = n1 * n2 / (n1 + n2) ** 2 * _square(
        np.vecdot(k, params.velocity_jump()), "(k.[u])^2", "|k| or u_plus - u_minus")
    return drive - (_square(np.vecdot(B1, k), "(k.B)^2 above the interface", "a or |k|")
                    + _square(np.vecdot(B2, k), "(k.B)^2 below the interface", "b or |k|")) \
        / (4.0 * np.pi * (n1 + n2) * m_i)


@np.errstate(over="ignore", invalid="ignore")
def _criteria(du, hp, hm):
    cross_p, cross_m, cross_pm = (np.sqrt(np.vecdot(c, c)) for c in (
        np.cross(du, hp), np.cross(du, hm), np.cross(hp, hm)))
    first = np.vecdot(du, du) <= 2.0 * (np.vecdot(hp, hp) + np.vecdot(hm, hm))
    second = _square(cross_p) + _square(cross_m) <= 2.0 * _square(cross_pm)
    # Python's max(cross_p, cross_m), NaN order included
    return first, second, np.where(cross_m > cross_p, cross_m, cross_p) <= cross_pm


def sen_gamma_squared(params: ShearParams, k, B1, B2) -> float:
    """Squared growth rate of the sheet for wave vector k.

    k may be a WaveVector (embedded as (k1, k2, 0)) or any real
    3-vector; B1 and B2 are the magnetic fields on the two sides.
    The Gaussian 1/(4*pi) factor is kept verbatim; m_i can absorb
    alternative unit choices.
    """
    if isinstance(k, WaveVector):
        k = k.require_nonzero().as_array3()
    k = _as_vec3(k, "k")
    if not np.any(k):
        raise ValueError("wave vector must be nonzero")
    return float(_gamma_squared(params, k, _as_vec3(B1, "B1"), _as_vec3(B2, "B2")))


def check_syrovatskij(jump_u, h_plus, h_minus) -> StabilityVerdict:
    """Evaluate the stability inequalities for a velocity jump and fields.

    Returns a verdict carrying the condition flags only
    (gamma_squared is NaN, growing False).  Conditions:

        first   |[u]|^2 <= 2 (|h+|^2 + |h-|^2)
        second  |[u] x h+|^2 + |[u] x h-|^2 <= 2 |h+ x h-|^2
        strong  max(|[u] x h+|, |[u] x h-|) <= |h+ x h-|
    """
    return StabilityVerdict(float("nan"), False, *map(bool, _criteria(
        _as_vec3(jump_u, "jump_u"), _as_vec3(h_plus, "h_plus"), _as_vec3(h_minus, "h_minus"))))


def evaluate_point(params: ShearParams, k: WaveVector, a: float, b: float) -> StabilityVerdict:
    """Full verdict for one (a, b) cell: growth rate plus criteria flags."""
    B1, B2 = np.array([0.0, a, 0.0]), np.array([0.0, b, 0.0])
    g2 = sen_gamma_squared(params, k, B1, B2)
    return StabilityVerdict(g2, g2 > 0.0, *map(bool, _criteria(params.velocity_jump(), B1, B2)))


def stability_map(params: ShearParams, a_range, b_range, k: WaveVector) -> dict:
    """Sweep transverse field strengths into columns.

    a_range and b_range must be nonempty monotone 1-D grids.  The result
    maps a, b, gamma_squared, growing, syrovatskij_first,
    syrovatskij_second and strong_condition to 1-D arrays in row-major
    order (a slow, b fast); each entry equals the pointwise evaluation at
    its (a, b).
    """
    a_range, b_range = (np.atleast_1d(np.asarray(r, dtype=float)) for r in (a_range, b_range))
    for name, rng in (("a_range", a_range), ("b_range", b_range)):
        if rng.ndim != 1:
            raise ValueError(f"{name} must be 1-D")
        if rng.size == 0:
            raise ValueError(f"{name} must be nonempty")
        if not (np.all(np.diff(rng) > 0) or np.all(np.diff(rng) < 0)):
            raise ValueError(f"{name} must be monotone")
    B1, B2 = np.zeros((a_range.size, 1, 3)), np.zeros((1, b_range.size, 3))
    # fields (0, a, 0) above and (0, b, 0) below, a down the rows
    B1[..., 1], B2[..., 1] = a_range[:, None], b_range[None, :]
    a, b = np.meshgrid(a_range, b_range, indexing="ij")
    g2 = _gamma_squared(params, k.require_nonzero().as_array3(), B1, B2)
    first, second, strong = _criteria(params.velocity_jump(), B1, B2)
    columns = {"a": a, "b": b, "gamma_squared": g2, "growing": g2 > 0.0,
               "syrovatskij_first": first, "syrovatskij_second": second,
               "strong_condition": strong}
    return {name: column.ravel() for name, column in columns.items()}
