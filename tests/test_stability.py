"""Growth-rate formula and stability criteria checks."""

import math
import warnings

import numpy as np
import pytest

from khlab.core import ShearParams, WaveVector
from khlab.stability import (
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

def test_map_streamwise_invariance():
    table = stability_map(ShearParams(), np.linspace(0, 2, 8),
                          np.linspace(0, 2, 8), WaveVector(1, 0))
    values = {cell.gamma_squared for row in table for cell in row}
    assert len(values) == 1
    assert values.pop() == pytest.approx(1.0, abs=1e-15)


def test_map_single_cell_matches_pointwise():
    p = ShearParams()
    table = stability_map(p, [0.7], [1.3], WaveVector(2, 1))
    cell = table[0][0]
    point = evaluate_point(p, WaveVector(2, 1), 0.7, 1.3)
    assert cell == point


def test_map_monotone_in_field_for_spanwise_mode():
    p = ShearParams()
    a_vals = np.linspace(0.1, 2.0, 9)
    table = stability_map(p, a_vals, [0.0], WaveVector(0, 1))
    g2 = [row[0].gamma_squared for row in table]
    assert all(x > y for x, y in zip(g2, g2[1:]))


def test_map_growing_flag_consistent():
    table = stability_map(ShearParams(), np.linspace(0, 3, 5),
                          np.linspace(0, 3, 5), WaveVector(1, 2))
    for row in table:
        for cell in row:
            assert cell.growing == (cell.gamma_squared > 0)


def test_map_rejects_bad_ranges():
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [], [0.0], WaveVector(1, 0))
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [0.0, 1.0, 0.5], [0.0], WaveVector(1, 0))
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [[0.0, 1.0]], [0.0], WaveVector(1, 0))
    with pytest.raises(ValueError):
        stability_map(ShearParams(), [0.0], [[0.0, 1.0]], WaveVector(1, 0))


# ---------------------------------------------------------------------------
# the broadcast sweep against the per-cell formulas
# ---------------------------------------------------------------------------

def _reference_criteria(du, hp, hm):
    """Test-only copy of the per-cell stability inequalities the sweep replaced."""
    cross_p = float(np.linalg.norm(np.cross(du, hp)))
    cross_m = float(np.linalg.norm(np.cross(du, hm)))
    cross_pm = float(np.linalg.norm(np.cross(hp, hm)))
    first = float(np.dot(du, du)) <= 2.0 * (float(np.dot(hp, hp)) + float(np.dot(hm, hm)))
    second = cross_p ** 2 + cross_m ** 2 <= 2.0 * cross_pm ** 2
    strong = max(cross_p, cross_m) <= cross_pm
    return first, second, strong


def _reference_verdict(params, k, a, b):
    """Test-only copy of the per-cell growth rate and inequalities the sweep replaced."""
    k3 = k.as_array3()
    du = params.velocity_jump()
    hp, hm = np.array([0.0, a, 0.0]), np.array([0.0, b, 0.0])
    n1, n2, m_i = params.n1, params.n2, params.m_i
    drive = n1 * n2 / (n1 + n2) ** 2 * float(np.dot(k3, du)) ** 2
    tension = (float(np.dot(k3, hp)) ** 2 + float(np.dot(k3, hm)) ** 2) \
        / (4.0 * math.pi * (n1 + n2) * m_i)
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
        table = stability_map(p, a_vals, b_vals, k)
        assert len(table) == a_vals.size
        for a, row in zip(a_vals, table):
            assert len(row) == b_vals.size
            for b, cell in zip(b_vals, row):
                g2, first, second, strong = _reference_verdict(p, k, a, b)
                assert cell.gamma_squared == pytest.approx(g2, rel=1e-15, abs=0.0)
                assert type(cell.growing) is bool and cell.growing == (g2 > 0.0)
                assert (cell.syrovatskij_first, cell.syrovatskij_second,
                        cell.strong_condition) == (first, second, strong)
        assert evaluate_point(p, k, a_vals[-1], b_vals[0]) == table[-1][0]
    # Python's x ** 2 is libm pow, which rounds these squares differently from
    # x * x; the sweep follows it bit for bit, so CLI output stays the same
    still, k = ShearParams(u_plus=(0.0, 0.0, 0.0), u_minus=(0.0, 0.0, 0.0)), WaveVector(0, 1)
    a_vals = [3.670728948954113, 3.7529595021799986, 3.963117857672733]
    assert [row[0].gamma_squared for row in stability_map(still, a_vals, [0.0], k)] == \
        [_reference_verdict(still, k, a, 0.0)[0] for a in a_vals]
    # Python's max(x, nan) is x and max(nan, x) is nan; infinite fields expose the order
    for hp, hm in (((0.0, 1.0, 1.0), (np.inf, 0.0, 0.0)), ((np.inf, 0.0, 0.0), (0.0, 1.0, 1.0))):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _reference_criteria(np.array([1.0, 0.0, 0.0]), np.array(hp), np.array(hm))
        v = check_syrovatskij((1.0, 0.0, 0.0), hp, hm)
        assert (v.syrovatskij_first, v.syrovatskij_second, v.strong_condition) == ref
    # past |k.B| ~ 1.3e154 the reference's Python x ** 2 raises, and so does the sweep
    k = WaveVector(1, 1)
    with pytest.raises(OverflowError) as expected:
        _reference_verdict(ShearParams(), k, 1e160, 0.0)
    for call in (lambda: stability_map(ShearParams(), [0.0, 1e160], [0.0], k),
                 lambda: evaluate_point(ShearParams(), k, 1e160, 0.0)):
        with pytest.raises(OverflowError) as got:
            call()
        assert str(got.value) == str(expected.value)
    # streamwise k at huge fields: the norms overflow to inf in both, silently in the sweep
    with np.errstate(over="ignore"):
        ref = _reference_verdict(ShearParams(), WaveVector(1, 0), 1e300, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cell = stability_map(ShearParams(), [0.0, 1e300], [1e300], WaveVector(1, 0))[1][0]
    assert (cell.gamma_squared, cell.syrovatskij_first, cell.syrovatskij_second,
            cell.strong_condition) == ref


def test_sweep_does_no_per_cell_work(monkeypatch):
    calls = []
    cross = np.cross

    def counting_cross(*args, **kwargs):
        calls.append(1)
        return cross(*args, **kwargs)

    monkeypatch.setattr(np, "cross", counting_cross)
    counts = []
    for steps in (10, 100):
        calls.clear()
        grid = np.linspace(0.0, 2.0, steps)
        table = stability_map(ShearParams(), grid, grid, WaveVector(2, 3))
        assert sum(map(len, table)) == steps * steps
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1]


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
        table = stability_map(p, a_vals, b_vals, k)
        for av, row in zip(a_vals, table):
            for bv, cell in zip(b_vals, row):
                assert cell.gamma_squared == bare
                if av > 0.0 or bv > 0.0:
                    assert cell.syrovatskij_second is False

    check()
