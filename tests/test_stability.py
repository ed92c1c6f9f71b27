"""Growth-rate formula and stability criteria checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from khlab.core import ShearParams, WaveVector
from khlab.stability import (
    StabilityVerdict,
    check_syrovatskij,
    evaluate_point,
    sen_gamma_squared,
    stability_map,
)


def test_streamwise_mode_ignores_transverse_field():
    # hand substitution: k.(U2-U1) = 2, fields orthogonal to k drop out
    params = ShearParams()
    for a in (0.0, 0.7, 3.0, 100.0):
        g2 = sen_gamma_squared(params, (1.0, 0.0, 0.0),
                               (0.0, a, 0.0), (0.0, a, 0.0))
        assert g2 == pytest.approx(1.0, abs=1e-15)


def test_spanwise_mode_feels_the_field():
    # hand substitution: drive term zero, tension term 2/(8 pi)
    params = ShearParams()
    g2 = sen_gamma_squared(params, (0.0, 1.0, 0.0),
                           (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    assert g2 == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-14)
    assert g2 == pytest.approx(-0.07957747154594767, rel=1e-14)


def test_zero_jump_zero_fields():
    params = ShearParams(u_plus=(0.0, 0.0, 0.0), u_minus=(0.0, 0.0, 0.0))
    assert sen_gamma_squared(params, (1.0, 0.0, 0.0),
                             (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == 0.0


def test_zero_wave_vector_rejected():
    with pytest.raises(ValueError):
        sen_gamma_squared(ShearParams(), (0.0, 0.0, 0.0),
                          (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        sen_gamma_squared(ShearParams(), WaveVector(0, 0),
                          (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))


def test_wave_vector_must_have_three_components():
    with pytest.raises(ValueError, match="^k must be a 3-vector$"):
        sen_gamma_squared(ShearParams(), (1, 0), (0, 1, 0), (0, 1, 0))


def test_gamma_invariances():
    # sign flip of the fields and swapping the two sides leave gamma^2 alone
    rng = np.random.default_rng(5)
    for _ in range(25):
        up, um = rng.standard_normal(3), rng.standard_normal(3)
        B1, B2 = rng.standard_normal(3), rng.standard_normal(3)
        k = rng.standard_normal(3)
        if not np.any(k):
            continue
        n1, n2, mi = rng.uniform(0.5, 2.0, 3)
        p = ShearParams(u_plus=tuple(up), u_minus=tuple(um), n1=n1, n2=n2, m_i=mi)
        base = sen_gamma_squared(p, k, B1, B2)
        assert sen_gamma_squared(p, k, -B1, -B2) == pytest.approx(base, rel=1e-13)
        # swapping sides flips the velocity jump sign and exchanges fields
        p_swapped = ShearParams(u_plus=tuple(um), u_minus=tuple(up),
                                n1=n2, n2=n1, m_i=mi)
        assert sen_gamma_squared(p_swapped, k, B2, B1) == pytest.approx(base, rel=1e-13)


def test_gamma_perpendicular_fields_reduce_to_pure_fluid():
    rng = np.random.default_rng(9)
    for _ in range(10):
        k = np.array([rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), 0.0])
        # build fields orthogonal to k
        B1 = np.array([-k[1], k[0], 0.0]) * rng.uniform(0.1, 4.0)
        B2 = np.array([0.0, 0.0, 1.0]) * rng.uniform(0.1, 4.0)
        n1, n2 = rng.uniform(0.5, 2.0, 2)
        p = ShearParams(n1=n1, n2=n2)
        fluid = n1 * n2 / (n1 + n2) ** 2 * float(np.dot(k, p.velocity_jump())) ** 2
        assert sen_gamma_squared(p, k, B1, B2) == pytest.approx(fluid, rel=1e-13)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_parallel_transverse_fields_violate_second_condition():
    # cross-product evaluation: lhs 4a^2 + 4b^2, rhs 0
    for a, b in [(0.5, 0.5), (1.0, 2.0), (0.01, 3.0)]:
        v = check_syrovatskij((2.0, 0.0, 0.0), (0.0, a, 0.0), (0.0, b, 0.0))
        assert not v.syrovatskij_second
        assert not v.strong_condition


def test_zero_jump_all_conditions_hold():
    v = check_syrovatskij((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
    assert v.syrovatskij_first and v.syrovatskij_second and v.strong_condition


def test_nonparallel_fields_example():
    # cross-product evaluation: first 1 <= 16, second 4 <= 32
    v = check_syrovatskij((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (2.0, 0.0, 0.0))
    assert v.syrovatskij_first
    assert v.syrovatskij_second


def test_criteria_hold_at_equality():
    # each criterion is a non-strict inequality, met with equality by these exact inputs
    first = check_syrovatskij((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    assert first.syrovatskij_first   # |[u]|^2 = 4 = 2 (1 + 1)
    assert not check_syrovatskij((2.0000001, 0.0, 0.0), (0.0, 1.0, 0.0),
                                 (0.0, 1.0, 0.0)).syrovatskij_first
    crossed = check_syrovatskij((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert crossed.syrovatskij_second   # |[u] x h+|^2 + |[u] x h-|^2 = 2 = 2 |h+ x h-|^2
    assert crossed.strong_condition     # max(|[u] x h+|, |[u] x h-|) = 1 = |h+ x h-|


def test_strong_implies_second_on_random_vectors():
    rng = np.random.default_rng(17)
    seen_strong = 0
    for _ in range(500):
        du = rng.standard_normal(3) * rng.uniform(0, 2)
        hp = rng.standard_normal(3)
        hm = rng.standard_normal(3)
        v = check_syrovatskij(du, hp, hm)
        if v.strong_condition:
            seen_strong += 1
            assert v.syrovatskij_second
    assert seen_strong > 0  # the implication was actually exercised


def test_check_syrovatskij_carries_no_growth_rate():
    v = check_syrovatskij((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    assert math.isnan(v.gamma_squared)
    assert v.growing is False


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def _verdict_at(columns, cell):
    """The verdict of one cell of a sweep."""
    return StabilityVerdict(*(columns[name][cell] for name in (
        "gamma_squared", "growing", "syrovatskij_first", "syrovatskij_second",
        "strong_condition")))


def test_map_returns_columns_and_builds_no_verdict(monkeypatch):
    import khlab.stability as stability

    def no_verdict(*args):
        raise AssertionError("stability_map built a StabilityVerdict")

    monkeypatch.setattr(stability, "StabilityVerdict", no_verdict)
    a_vals, b_vals = np.linspace(0.0, 2.0, 3), np.linspace(0.0, 1.0, 4)
    columns = stability.stability_map(ShearParams(), a_vals, b_vals, WaveVector(1, 1))
    assert list(columns) == ["a", "b", "gamma_squared", "growing", "syrovatskij_first",
                             "syrovatskij_second", "strong_condition"]
    for name, column in columns.items():
        assert isinstance(column, list) and len(column) == 12
        assert all(type(v) is (float if name in ("a", "b", "gamma_squared") else bool)
                   for v in column)
    # row-major: a slow, b fast
    assert columns["a"] == np.repeat(a_vals, 4).tolist()
    assert columns["b"] == np.tile(b_vals, 3).tolist()

def test_map_streamwise_invariance():
    columns = stability_map(ShearParams(), np.linspace(0, 2, 8),
                            np.linspace(0, 2, 8), WaveVector(1, 0))
    values = set(columns["gamma_squared"])
    assert len(values) == 1
    assert values.pop() == pytest.approx(1.0, abs=1e-15)


def test_map_single_cell_matches_pointwise():
    p = ShearParams()
    columns = stability_map(p, [0.7], [1.3], WaveVector(2, 1))
    point = evaluate_point(p, WaveVector(2, 1), 0.7, 1.3)
    assert _verdict_at(columns, 0) == point


def test_map_monotone_in_field_for_spanwise_mode():
    p = ShearParams()
    a_vals = np.linspace(0.1, 2.0, 9)
    g2 = stability_map(p, a_vals, [0.0], WaveVector(0, 1))["gamma_squared"]
    assert all(x > y for x, y in zip(g2, g2[1:]))


def test_map_growing_flag_consistent():
    columns = stability_map(ShearParams(), np.linspace(0, 3, 5),
                            np.linspace(0, 3, 5), WaveVector(1, 2))
    for cell in range(25):
        assert columns["growing"][cell] == (columns["gamma_squared"][cell] > 0)


def test_map_rejects_bad_ranges():
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [], [0.0], WaveVector(1, 0))
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [0.0, 1.0, 0.5], [0.0], WaveVector(1, 0))
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [[0.0, 1.0]], [0.0], WaveVector(1, 0))
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [0.0], [[0.0, 1.0]], WaveVector(1, 0))
    # a one-value NaN axis is trivially monotone, and would give NaN cells
    with pytest.raises(ValueError, match="a_range must be nonempty, finite"):
        stability_map(ShearParams(), [math.nan], [0.0], WaveVector(1, 1))
    with pytest.raises(ValueError, match="b_range must be nonempty, finite"):
        stability_map(ShearParams(), [0.0], [0.0, math.inf], WaveVector(1, 1))
    # one cell takes infinite fields, but still no non-number
    with pytest.raises(ValueError, match="a_range must be a flat sequence of numbers"):
        evaluate_point(ShearParams(), WaveVector(1, 1), None, 0.0)
    with pytest.raises(ValueError, match="b_range must be a flat sequence of numbers"):
        evaluate_point(ShearParams(), WaveVector(1, 1), 0.0, [1.0])


# ---------------------------------------------------------------------------
# the broadcast sweep against the per-cell formulas
# ---------------------------------------------------------------------------

def _dot3(u, v):
    """The closed forms' dot product: the left-to-right sum of the rounded products."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross_norm3(u, v):
    c = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return math.sqrt(_dot3(c, c))


def _reference_criteria(du, hp, hm):
    """Test-only copy of the per-cell stability inequalities the sweep replaced."""
    cross_p, cross_m, cross_pm = _cross_norm3(du, hp), _cross_norm3(du, hm), _cross_norm3(hp, hm)
    first = _dot3(du, du) <= 2.0 * (_dot3(hp, hp) + _dot3(hm, hm))
    second = cross_p * cross_p + cross_m * cross_m <= 2.0 * (cross_pm * cross_pm)
    strong = max(cross_p, cross_m) <= cross_pm
    return first, second, strong


def _reference_verdict(params, k, a, b):
    """Test-only copy of the per-cell growth rate and inequalities the sweep replaced."""
    k3, du = (float(k.k1), float(k.k2), 0.0), params.velocity_jump()
    hp, hm = (0.0, float(a), 0.0), (0.0, float(b), 0.0)
    n1, n2, m_i = params.n1, params.n2, params.m_i
    shear, tension_p, tension_m = _dot3(k3, du), _dot3(k3, hp), _dot3(k3, hm)
    drive = n1 / (n1 + n2) * (n2 / (n1 + n2)) * (shear * shear)
    tension = (tension_p * tension_p + tension_m * tension_m) / (4.0 * math.pi * (n1 + n2)) / m_i
    return (drive - tension, *_reference_criteria(du, hp, hm))


def _grid(rng, size):
    """A non-uniform monotone grid through 0, ascending or descending."""
    values = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, size - 1))])
    return values[::-1] if rng.random() < 0.5 else values


def test_sweep_matches_scalar_reference():
    rng = np.random.default_rng(23)
    for _ in range(32):
        p = ShearParams(u_plus=tuple(rng.normal(0, 2, 3)), u_minus=tuple(rng.normal(0, 2, 3)),
                        n1=rng.uniform(0.1, 5), n2=rng.uniform(0.1, 5), m_i=rng.uniform(0.1, 5))
        while True:
            k = WaveVector(*rng.integers(-64, 65, 2))
            if 0 < k.kappa <= 64:
                break
        a_vals, b_vals = _grid(rng, rng.integers(1, 9)), _grid(rng, rng.integers(1, 9))
        columns = stability_map(p, a_vals, b_vals, k)
        assert all(len(c) == a_vals.size * b_vals.size for c in columns.values())
        for i, a in enumerate(a_vals):
            for j, b in enumerate(b_vals):
                cell = _verdict_at(columns, i * b_vals.size + j)
                assert (columns["a"][i * b_vals.size + j], columns["b"][i * b_vals.size + j]) \
                    == (a, b)
                g2, first, second, strong = _reference_verdict(p, k, a, b)
                assert cell.gamma_squared.hex() == g2.hex()
                assert type(cell.growing) is bool and cell.growing == (g2 > 0.0)
                assert (cell.syrovatskij_first, cell.syrovatskij_second,
                        cell.strong_condition) == (first, second, strong)
        last_row_first = (a_vals.size - 1) * b_vals.size
        assert evaluate_point(p, k, a_vals[-1], b_vals[0]) == _verdict_at(columns, last_row_first)
    # Python's max(x, nan) is x and max(nan, x) is nan; infinite fields expose the order
    for hp, hm in (((0.0, 1.0, 1.0), (math.inf, 0.0, 0.0)),
                   ((math.inf, 0.0, 0.0), (0.0, 1.0, 1.0))):
        v = check_syrovatskij((1.0, 0.0, 0.0), hp, hm)
        assert (v.syrovatskij_first, v.syrovatskij_second, v.strong_condition) == \
            _reference_criteria((1.0, 0.0, 0.0), hp, hm)
    # past |k.B| ~ 1.3e154 the square leaves the float range: an OverflowError naming it
    k = WaveVector(1, 1)
    for call in (lambda: stability_map(ShearParams(), [0.0, 1e160], [0.0], k),
                 lambda: evaluate_point(ShearParams(), k, 1e160, 0.0)):
        with pytest.raises(OverflowError) as got:
            call()
        assert got.value.args == ("(k.B)^2 above the interface leaves the float range; "
                                  "lower a or |k|",)
    # streamwise k at huge fields: the norms overflow to inf, silently, while gamma^2 is finite
    ref = _reference_verdict(ShearParams(), WaveVector(1, 0), 1e300, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cell = _verdict_at(stability_map(ShearParams(), [0.0, 1e300], [1e300],
                                         WaveVector(1, 0)), 1)
    assert (cell.gamma_squared, cell.syrovatskij_first, cell.syrovatskij_second,
            cell.strong_condition) == ref


def test_sweep_does_no_per_cell_work(monkeypatch):
    # the terms of each field, (k.B)^2 and |[u] x B|, are computed once per a
    # and once per b; only their combination is per cell
    import khlab.stability as stability

    k, du = [2.0, 3.0, 0.0], ShearParams().velocity_jump()
    field_terms = []
    dot, cross_norm = stability._dot, stability._cross_norm

    def counting_dot(u, v):
        field_terms.append(list(v) == k)
        return dot(u, v)

    def counting_cross_norm(u, v):
        field_terms.append(tuple(u) == du)
        return cross_norm(u, v)

    monkeypatch.setattr(stability, "_dot", counting_dot)
    monkeypatch.setattr(stability, "_cross_norm", counting_cross_norm)
    for steps in (10, 100):
        field_terms.clear()
        grid = np.linspace(0.0, 2.0, steps)
        columns = stability_map(ShearParams(), grid, grid, WaveVector(2, 3))
        assert len(columns["gamma_squared"]) == steps * steps
        assert sum(field_terms) == 4 * steps
        # with k.[u], |[u]|^2 and |B|^2 and |[u] x B|'s own dot: no call per cell
        assert len(field_terms) == 8 * steps + 2


def test_dot_is_within_the_summation_bound_of_the_exact_dot():
    # the left-to-right sum of three rounded products is within gamma_3 * sum |u_i v_i| of
    # the exact dot, gamma_3 = 3u / (1 - 3u) with u = 2^-53 (Higham 2002, section 3.1); with
    # at most one nonzero product, as for the map's fields (0, a, 0), it is correctly rounded
    import khlab.stability as stability

    rng = np.random.default_rng(5)
    u, v = rng.normal(0.0, 2.0, (2, 20000, 3))
    v[::2, 2] = 0.0                     # wave vectors (k1, k2, 0)
    v[1::4] = np.round(30.0 * v[1::4])  # integer entries
    u[::3, 0] = u[::3, 2] = 0.0         # fields (0, a, 0)
    unit = Fraction(1, 2 ** 53)
    gamma_3 = 3 * unit / (1 - 3 * unit)
    single = 0
    for x, y in zip(u.tolist(), v.tolist()):
        products = [Fraction(p) * Fraction(q) for p, q in zip(x, y)]
        got, exact = stability._dot(x, y), sum(products)
        assert abs(Fraction(got) - exact) <= gamma_3 * sum(map(abs, products))
        if sum(map(bool, products)) <= 1:
            single += 1
            assert got == float(exact)    # a zero's sign is not a value
    assert single >= 5000


def test_square_is_correctly_rounded():
    # x * x, where libm pow(x, 2) rounds the last three a values otherwise; past the
    # float range a finite x raises OverflowError with the message as its only argument
    import khlab.stability as stability

    rng = np.random.default_rng(8)
    xs = rng.uniform(0.0, 10.0, 20000).tolist() + [-2.5, 5e-324, 1e-160, 1.3e154]
    for x in xs + [3.670728948954113, 3.7529595021799986, 3.963117857672733]:
        assert stability._square(x).hex() == float(Fraction(x) ** 2).hex()
    with pytest.raises(OverflowError) as got:
        stability._square(-1.4e154, "x^2", "x")
    assert got.value.args == ("x^2 leaves the float range; lower x",)
    assert stability._square(-math.inf) == math.inf


def test_map_cells_skip_the_pair_cross_product():
    # the map's fields (0, a, 0) and (0, b, 0) are parallel: |h+ x h-| is 0 for
    # finite a and b and NaN (0 * inf) otherwise, as the general kernel finds
    params = ShearParams(u_plus=(1.0, 0.5, -0.2), u_minus=(-1.0, 0.3, 0.4))
    values = (0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan)
    for a in values:
        for b in values:
            cell = evaluate_point(params, WaveVector(1, 0), a, b)
            ref = check_syrovatskij(params.velocity_jump(), (0.0, a, 0.0), (0.0, b, 0.0))
            assert (cell.syrovatskij_first, cell.syrovatskij_second, cell.strong_condition) \
                == (ref.syrovatskij_first, ref.syrovatskij_second, ref.strong_condition)


def test_streamwise_growth_ignores_transverse_field_property():
    # the paper's claim: the fields (0, a, 0), (0, b, 0) leave gamma^2 of a
    # streamwise mode untouched, while the parallel fields fail the second
    # inequality whenever one of them is nonzero
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    strength = st.one_of(st.just(0.0), st.floats(1e-100, 1e100))
    grid = st.lists(strength, min_size=1, max_size=6, unique=True)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(k1=st.integers(-64, 64).filter(bool), a=grid, b=grid,
                      descending=st.booleans(),
                      u=st.tuples(st.floats(-10, 10), st.floats(-10, 10)).filter(
                          lambda u: abs(u[0] - u[1]) >= 1e-3),
                      density=st.tuples(*[st.floats(0.1, 10)] * 3))
    def check(k1, a, b, descending, u, density):
        p = ShearParams(u_plus=(u[0], 0.0, 0.0), u_minus=(u[1], 0.0, 0.0),
                        n1=density[0], n2=density[1], m_i=density[2])
        k = WaveVector(k1, 0)
        a_vals, b_vals = sorted(a, reverse=descending), sorted(b)
        bare = evaluate_point(p, k, 0.0, 0.0).gamma_squared
        columns = stability_map(p, a_vals, b_vals, k)
        for cell in range(len(a_vals) * len(b_vals)):
            assert columns["gamma_squared"][cell] == bare
            if columns["a"][cell] > 0.0 or columns["b"][cell] > 0.0:
                assert _verdict_at(columns, cell).syrovatskij_second is False

    check()


def test_map_cells_equal_evaluate_point_bit_for_bit():
    # each cell combines its a-row and b-column terms in the kernel's order,
    # so it is exactly the one-point evaluation at its (a, b)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    velocity = st.tuples(*[st.floats(-10.0, 10.0)] * 3)
    grid = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=5, unique=True)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(u_plus=velocity, u_minus=velocity,
                      density=st.tuples(*[st.floats(0.1, 10.0)] * 3),
                      k=st.tuples(st.integers(-64, 64), st.integers(-64, 64)).filter(any),
                      a=grid, b=grid, descending=st.booleans())
    def check(u_plus, u_minus, density, k, a, b, descending):
        p = ShearParams(u_plus=u_plus, u_minus=u_minus, n1=density[0], n2=density[1],
                        m_i=density[2])
        k = WaveVector(*k)
        a_vals, b_vals = sorted(a, reverse=descending), sorted(b)
        columns = stability_map(p, a_vals, b_vals, k)
        for cell in range(len(a_vals) * len(b_vals)):
            a_cell, b_cell = columns["a"][cell], columns["b"][cell]
            assert (a_cell, b_cell) == (a_vals[cell // len(b_vals)], b_vals[cell % len(b_vals)])
            got, want = _verdict_at(columns, cell), evaluate_point(p, k, a_cell, b_cell)
            assert got == want and got.gamma_squared.hex() == want.gamma_squared.hex()

    check()


def test_map_axes_match_numpy_linspace(capsys):
    # the CLI's a and b axes, decreasing, single-step and a_min == a_max included
    from khlab.cli import main

    for a_min, a_max, a_steps, b_min, b_max, b_steps in (
            (0.0, 2.0, 10, 0.0, 2.0, 10), (3.7, 0.1, 9, 0.3, 0.3, 1),
            (1e-3, 7.0, 1, 2.5, -1.5, 13)):
        assert main(["--command", "map", "--k", "2,3", "--a_min", str(a_min),
                     "--a_max", str(a_max), "--a_steps", str(a_steps), "--b_min", str(b_min),
                     "--b_max", str(b_max), "--b_steps", str(b_steps)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")][1:]
        a_col, b_col = ([float(row[i]) for row in rows] for i in (0, 1))
        assert a_col == np.repeat(np.linspace(a_min, a_max, a_steps), b_steps).tolist()
        assert b_col == np.tile(np.linspace(b_min, b_max, b_steps), a_steps).tolist()
