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

import math
from itertools import chain
from typing import NamedTuple

from khlab.core import ShearParams, WaveVector, strictly_monotone


class StabilityVerdict(NamedTuple):
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


def _floats(values, name, size=None):
    """The entries of a flat sequence or 1-D array as floats; size checks their number."""
    try:
        vec = [float(v) for v in (values.tolist() if hasattr(values, "tolist") else values)]
    except TypeError:
        raise ValueError(f"{name} must be a flat sequence of numbers") from None
    if size is not None and len(vec) != size:
        raise ValueError(f"{name} must be a {size}-vector")
    return vec


# Scalar kernels in binary64 evaluated as written (CPython never fuses a * b + c): a dot
# product is the left-to-right sum of its rounded products, a square is x * x.  From
# finite inputs, a square or a growth rate past the float range raises OverflowError.

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross_norm(u, v):
    c = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return math.sqrt(_dot(c, c))


def _square(x, name="a squared cross product", inputs="the fields or the velocity jump"):
    square = x * x
    if math.isinf(square) and math.isfinite(x):
        raise OverflowError(f"{name} leaves the float range; lower {inputs}")
    return square


# The two kernels take a list of fields per side and return columns over the (above,
# below) pairs, above slow: each field's terms are computed once, combined per pair.

def _gamma_squared(params, k, above, below):
    n1, n2, m_i = params.n1, params.n2, params.m_i
    total = n1 + n2    # the weight n1 n2 / total^2 as two ratios, each at most 1
    drive = n1 / total * (n2 / total) * _square(
        _dot(k, params.velocity_jump()), "(k.[u])^2", "|k| or u_plus - u_minus")
    t1 = [_square(_dot(B, k), "(k.B)^2 above the interface", "a or |k|") for B in above]
    t2 = [_square(_dot(B, k), "(k.B)^2 below the interface", "b or |k|") for B in below]
    tension_scale = 4.0 * math.pi * total    # times m_i, the product could underflow to 0
    g2 = [drive - (x + y) / tension_scale / m_i for x in t1 for y in t2]
    inputs = (*params.u_plus, *params.u_minus, n1, n2, m_i, *k, *chain(*above, *below))
    if all(map(math.isfinite, inputs)) and not (
            math.isfinite(tension_scale) and all(map(math.isfinite, g2))):
        raise OverflowError("gamma^2 leaves the float range; bring |k|, u_plus - u_minus, "
                            "a, b, n1 + n2 and m_i nearer 1")
    return g2


def _criteria(du, above, below, pair_cross):
    """first, second, strong columns; pair_cross(hp) gives |hp x hm|, 2 |hp x hm|^2 per hm."""
    def terms(h):
        cross = _cross_norm(du, h)
        return _dot(h, h), cross, _square(cross)

    du_sq = _dot(du, du)
    hm_sq, cross_m, cross_m_sq = zip(*map(terms, below))
    first, second, strong = [], [], []
    for hp in above:
        hp_sq, cross_p, cross_p_sq = terms(hp)
        cross_pm, twice_pm_sq = pair_cross(hp)
        first += [du_sq <= 2.0 * (hp_sq + y) for y in hm_sq]
        second += [cross_p_sq + y <= z for y, z in zip(cross_m_sq, twice_pm_sq)]
        # Python's max(cross_p, cross_m), NaN order included
        strong += [(y if y > cross_p else cross_p) <= z for y, z in zip(cross_m, cross_pm)]
    return first, second, strong


def _wave_vec3(k):
    if isinstance(k, WaveVector):
        return (float(k.require_nonzero().k1), float(k.k2), 0.0)
    return _floats(k, "k", 3)


def sen_gamma_squared(params: ShearParams, k, B1, B2) -> float:
    """Squared growth rate of the sheet for wave vector k.

    k may be a WaveVector (embedded as (k1, k2, 0)) or any real
    3-vector; B1 and B2 are the magnetic fields on the two sides.
    The Gaussian 1/(4*pi) factor is kept verbatim; m_i can absorb
    alternative unit choices.
    """
    k = _wave_vec3(k)
    if not any(k):
        raise ValueError("wave vector must be nonzero")
    return _gamma_squared(params, k, [_floats(B1, "B1", 3)], [_floats(B2, "B2", 3)])[0]


def check_syrovatskij(jump_u, h_plus, h_minus) -> StabilityVerdict:
    """Evaluate the stability inequalities for a velocity jump and fields.

    Returns a verdict carrying the condition flags only
    (gamma_squared is NaN, growing False).  Conditions:

        first   |[u]|^2 <= 2 (|h+|^2 + |h-|^2)
        second  |[u] x h+|^2 + |[u] x h-|^2 <= 2 |h+ x h-|^2
        strong  max(|[u] x h+|, |[u] x h-|) <= |h+ x h-|
    """
    hp, hm = _floats(h_plus, "h_plus", 3), _floats(h_minus, "h_minus", 3)
    cross = _cross_norm(hp, hm)
    flags = _criteria(_floats(jump_u, "jump_u", 3), [hp], [hm],
                      lambda _: ([cross], [2.0 * _square(cross)]))
    return StabilityVerdict(float("nan"), False, *(column[0] for column in flags))


def evaluate_point(params: ShearParams, k: WaveVector, a: float, b: float) -> StabilityVerdict:
    """Full verdict for one (a, b) cell: growth rate plus criteria flags; a, b may be infinite."""
    _, _, *verdict = _sweep(params, _floats([a], "a_range"), _floats([b], "b_range"), k).values()
    return StabilityVerdict(*(column[0] for column in verdict))


def stability_map(params: ShearParams, a_range, b_range, k: WaveVector) -> dict:
    """Sweep transverse field strengths into columns.

    a_range and b_range must be nonempty, finite and monotone flat
    sequences (lists or 1-D arrays).  The result maps a, b,
    gamma_squared, growing, syrovatskij_first, syrovatskij_second and
    strong_condition to lists of Python floats and bools in row-major
    order (a slow, b fast).  The terms of the fields (0, a, 0) above and
    (0, b, 0) below are computed once per a and once per b, and each
    cell equals evaluate_point.
    """
    return _sweep(params, _sweep_axis(a_range, "a_range"), _sweep_axis(b_range, "b_range"), k)


def _sweep(params, a_vals, b_vals, k):
    """The columns of stability_map over two lists of floats, which are not checked."""
    above, below = ([(0.0, v, 0.0) for v in vals] for vals in (a_vals, b_vals))
    g2 = _gamma_squared(params, _wave_vec3(k), above, below)
    # parallel fields: |h+ x h-| is 0 where a and b are finite, NaN (0 * inf) elsewhere
    cross = [0.0 if math.isfinite(b) else math.nan for b in b_vals]
    rows = {True: (cross, cross), False: ([math.nan] * len(cross),) * 2}
    flags = _criteria(params.velocity_jump(), above, below, lambda hp: rows[math.isfinite(hp[1])])
    return {"a": [a for a in a_vals for _ in b_vals], "b": b_vals * len(a_vals),
            "gamma_squared": g2, "growing": [g > 0.0 for g in g2],
            **dict(zip(("syrovatskij_first", "syrovatskij_second", "strong_condition"), flags))}


def _sweep_axis(values, name):
    axis = _floats(values, name)
    if not (axis and strictly_monotone(axis) and all(map(math.isfinite, axis))):
        raise ValueError(f"{name} must be nonempty, finite and monotone")
    return axis
