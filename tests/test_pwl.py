import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    PiecewiseLinear,
    contact_points,
    convex_hull,
    measure_from_potential,
    put_potential,
)
from leftcurtain.pwl import NonConvexPotential


def tent():
    return PiecewiseLinear([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], 0.0, 0.0)


class TestEvaluation:
    def test_put_payoff(self):
        p = put_potential(DiscreteMeasure([0.0], [1.0]))
        assert p(1.0) == 1.0
        assert p(-1.0) == 0.0

    def test_kink_at_atom(self):
        p = put_potential(DiscreteMeasure([0.0], [1.0]))
        assert p.one_sided_slopes(0.0) == (0.0, 1.0)

    def test_linear_piece_slopes_agree(self):
        p = put_potential(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]))
        minus, plus = p.one_sided_slopes(0.3)
        assert minus == plus == 0.5

    def test_evaluation_is_vectorised(self):
        p = put_potential(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]))
        np.testing.assert_allclose(p(np.array([-2.0, 0.0, 2.0])), [0.0, 0.5, 2.0])


class TestConvexHull:
    def test_convex_function_is_its_own_hull(self):
        p = put_potential(DiscreteMeasure([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25]))
        assert convex_hull(p).allclose(p, tol=1e-14)

    def test_tent_hull_is_flat(self):
        h = convex_hull(tent())
        for k in (-5.0, -1.0, 0.0, 0.7, 3.0):
            assert h(k) == 0.0

    def test_gap_of_ordered_pair_hulls_to_zero(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        d = put_potential(nu) - put_potential(mu)
        h = convex_hull(d)
        assert np.allclose(h(np.linspace(-3, 3, 13)), 0.0)

    def test_descending_step_hull(self):
        f = PiecewiseLinear([0.0, 1.0], [0.0, -1.0], 0.0, 0.0)
        h = convex_hull(f)
        assert h(-10.0) == -1.0 and h(0.5) == -1.0 and h(10.0) == -1.0


class TestContactPoints:
    def test_convex_input_touches_everywhere(self):
        p = put_potential(DiscreteMeasure([-1.0, 1.0], [0.5, 0.5]))
        assert contact_points(p, convex_hull(p), 0.3) == (0.3, 0.3)

    def test_tent_touches_at_feet(self):
        f = tent()
        assert contact_points(f, convex_hull(f), 0.0) == (-1.0, 1.0)

    def test_sentinels_for_strictly_separated_tail(self):
        f = PiecewiseLinear([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], -1.0, 1.0)
        h = convex_hull(f)
        x, z = contact_points(f, h, 1.0)
        assert x == 1.0 and z == 1.0
        f2 = PiecewiseLinear([0.0], [1.0], 0.0, 0.0)
        h2 = PiecewiseLinear([0.0], [0.0], 0.0, 0.0)
        assert contact_points(f2, h2, 0.0) == (-math.inf, math.inf)


class TestMeasureFromPotential:
    def test_single_atom_round_trip(self):
        eta = DiscreteMeasure([0.0], [1.0])
        back = measure_from_potential(put_potential(eta))
        assert back.tv_distance(eta) == 0.0

    def test_two_atom_slope_jumps(self):
        p = PiecewiseLinear([-1.0, 1.0], [0.0, 1.0], 0.0, 1.0)
        eta = measure_from_potential(p)
        np.testing.assert_allclose(eta.xs, [-1.0, 1.0])
        np.testing.assert_allclose(eta.ws, [0.5, 0.5])

    def test_rejects_concave_kink(self):
        with pytest.raises(NonConvexPotential):
            measure_from_potential(tent())


# -- property tests --------------------------------------------------------

positions = st.lists(
    st.integers(-40, 40).map(lambda k: k / 4.0), min_size=1, max_size=8, unique=True
)
weights64 = st.lists(st.integers(1, 16), min_size=1, max_size=8)


@st.composite
def measures(draw):
    xs = sorted(draw(positions))
    ws = draw(st.lists(st.integers(1, 16), min_size=len(xs), max_size=len(xs)))
    total = sum(ws)
    return DiscreteMeasure(xs, [w / total for w in ws])


@st.composite
def plfs(draw):
    xs = sorted(draw(positions))
    ys = draw(st.lists(st.integers(-8, 8).map(float), min_size=len(xs), max_size=len(xs)))
    sl = draw(st.integers(-3, 3))
    sr = draw(st.integers(sl, 4))
    return PiecewiseLinear(xs, ys, float(sl), float(sr))


@given(plfs())
@settings(max_examples=200, deadline=None)
def test_hull_idempotent(f):
    h = convex_hull(f)
    again = convex_hull(h)
    assert again.allclose(h, tol=1e-10)


@given(plfs())
@settings(max_examples=200, deadline=None)
def test_hull_below_function_and_convex(f):
    h = convex_hull(f)
    grid = np.union1d(f.xs, h.xs)
    assert np.all(h(grid) <= f(grid) + 1e-10)
    assert h.is_convex(1e-10)


def brute_force_envelope(f):
    """Lower convex envelope of ``f`` at its breakpoints: the least value at
    ``x_k`` of a chord between two breakpoints around it, or of a tail
    line through a breakpoint on the far side of it."""
    x, y, n = f.xs, f.ys, f.xs.size
    env = y.copy()
    for k in range(n):
        env[k] = min(
            env[k],
            (y[k:] + f.slope_left * (x[k] - x[k:])).min(),
            (y[: k + 1] + f.slope_right * (x[k] - x[: k + 1])).min(),
        )
        for i in range(k):
            for j in range(k + 1, n):
                t = (x[k] - x[i]) / (x[j] - x[i])
                env[k] = min(env[k], (1.0 - t) * y[i] + t * y[j])
    return env


@st.composite
def wide_plfs(draw):
    xs = sorted(draw(st.lists(st.integers(-400, 400), min_size=1, max_size=40, unique=True)))
    ys = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=len(xs), max_size=len(xs)
        )
    )
    sl = draw(st.floats(-3.0, 3.0, allow_nan=False))
    sr = draw(st.floats(sl, 4.0, allow_nan=False))
    return PiecewiseLinear([x / 8.0 for x in xs], ys, sl, sr)


@given(wide_plfs())
@settings(max_examples=200, deadline=None)
def test_hull_matches_brute_force_envelope(f):
    h = convex_hull(f)
    assert (h.slope_left, h.slope_right) == (f.slope_left, f.slope_right)
    np.testing.assert_allclose(h(f.xs), brute_force_envelope(f), rtol=0.0, atol=1e-9)


@given(plfs(), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_contact_chord_reconstructs_hull(f, salt):
    """The envelope at y equals the chord through its contact points."""
    h = convex_hull(f)
    rng = np.random.default_rng(salt)
    lo, hi = f.xs[0] - 2.0, f.xs[-1] + 2.0
    for y in rng.uniform(lo, hi, size=25):
        x, z = contact_points(f, h, float(y))
        if math.isfinite(x) and math.isfinite(z):
            slope = 0.0 if x == z else (f(z) - f(x)) / (z - x)
            assert abs(f(x) + slope * (y - x) - h(y)) <= 1e-8


@given(plfs())
@settings(max_examples=150, deadline=None)
def test_hull_minimality_sampled(f):
    """No convex minorant through the same data exceeds the envelope."""
    h = convex_hull(f)
    # candidate: any chord of h extended is a support line; check a few
    grid = np.union1d(f.xs, h.xs)
    for k in grid:
        minus, plus = h.one_sided_slopes(float(k))
        line_vals = h(float(k)) + minus * (grid - k)
        assert np.all(line_vals <= f(grid) + 1e-9)


@given(measures())
@settings(max_examples=200, deadline=None)
def test_potential_measure_round_trip(eta):
    back = measure_from_potential(put_potential(eta))
    assert back.tv_distance(eta) <= 1e-12
    assert abs(back.mass - eta.mass) <= 1e-12
    assert abs(back.mean - eta.mean) <= 1e-12
