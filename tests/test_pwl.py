import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import DiscreteMeasure
from leftcurtain.oracle import contact_points, put_potential
from leftcurtain.pwl import convex_hull, evaluate
from conftest import tv_distance

TENT = (np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), 0.0, 0.0)


def hull_of(f):
    """The envelope of ``f = (xs, ys, slope_left, slope_right)`` in the same form."""
    xs, ys, sl, sr = f
    return (*convex_hull(xs, ys, sl, sr), sl, sr)


def slopes_of(f):
    """Slopes of every affine piece of ``f``, from left tail to right tail."""
    xs, ys, sl, sr = f
    return np.concatenate(([sl], np.diff(ys) / np.diff(xs), [sr]))


class TestEvaluation:
    def test_put_payoff(self):
        eta = DiscreteMeasure([0.0], [1.0])
        assert put_potential(eta, 1.0) == 1.0
        assert put_potential(eta, -1.0) == 0.0

    def test_kink_at_atom(self):
        eta = DiscreteMeasure([0.0], [1.0])
        left, at, right = put_potential(eta, np.array([-0.5, 0.0, 0.5]))
        assert ((at - left) / 0.5, (right - at) / 0.5) == (0.0, 1.0)

    def test_linear_piece_slopes_agree(self):
        eta = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        left, at, right = put_potential(eta, np.array([0.0, 0.25, 0.5]))
        minus, plus = (at - left) / 0.25, (right - at) / 0.25
        assert minus == plus == 0.5

    def test_evaluation_is_vectorised(self):
        eta = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        np.testing.assert_allclose(put_potential(eta, np.array([-2.0, 0.0, 2.0])), [0.0, 0.5, 2.0])


class TestConvexHull:
    def test_convex_function_is_its_own_hull(self):
        eta = DiscreteMeasure([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        f = (eta.xs, put_potential(eta, eta.xs), 0.0, eta.mass)
        grid = np.concatenate(([-3.0], eta.xs, [0.5, 4.0]))
        np.testing.assert_allclose(evaluate(*hull_of(f), grid), evaluate(*f, grid), rtol=0, atol=1e-14)

    def test_tent_hull_is_flat(self):
        h = hull_of(TENT)
        for k in (-5.0, -1.0, 0.0, 0.7, 3.0):
            assert evaluate(*h, k) == 0.0

    def test_gap_of_ordered_pair_hulls_to_zero(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        grid = np.union1d(mu.xs, nu.xs)
        d = (grid, put_potential(nu, grid) - put_potential(mu, grid), 0.0, nu.mass - mu.mass)
        assert np.allclose(evaluate(*hull_of(d), np.linspace(-3, 3, 13)), 0.0)

    def test_descending_step_hull(self):
        h = hull_of((np.array([0.0, 1.0]), np.array([0.0, -1.0]), 0.0, 0.0))
        assert evaluate(*h, -10.0) == -1.0 and evaluate(*h, 0.5) == -1.0
        assert evaluate(*h, 10.0) == -1.0


def contacts(f, y):
    """Contacts around ``y`` of ``f`` with its envelope."""
    return contact_points(f[0], f[1], evaluate(*hull_of(f), f[0]), y)


class TestContactPoints:
    def test_convex_input_touches_everywhere(self):
        eta = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        p = (eta.xs, put_potential(eta, eta.xs), 0.0, eta.mass)
        assert contacts(p, 0.3) == (0.3, 0.3)

    def test_tent_touches_at_feet(self):
        assert contacts(TENT, 0.0) == (-1.0, 1.0)

    def test_sentinels_for_strictly_separated_tail(self):
        f = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]), -1.0, 1.0)
        assert contacts(f, 1.0) == (1.0, 1.0)
        # a function strictly above the minorant it is given touches nowhere
        assert contact_points(np.array([0.0]), [1.0], [0.0], 0.0) == (-math.inf, math.inf)


# -- property tests --------------------------------------------------------

positions = st.lists(
    st.integers(-40, 40).map(lambda k: k / 4.0), min_size=1, max_size=8, unique=True
)


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
    return np.array(xs), np.array(ys), float(sl), float(sr)


@given(plfs())
@settings(max_examples=200, deadline=None)
def test_hull_idempotent(f):
    h = hull_of(f)
    again = hull_of(h)
    grid = np.union1d(h[0], again[0])
    grid = np.concatenate(([grid[0] - 1.0], grid, [grid[-1] + 1.0]))
    assert np.all(np.abs(evaluate(*again, grid) - evaluate(*h, grid)) <= 1e-10)


@given(plfs())
@settings(max_examples=200, deadline=None)
def test_hull_below_function_and_convex(f):
    h = hull_of(f)
    grid = np.union1d(f[0], h[0])
    assert np.all(evaluate(*h, grid) <= evaluate(*f, grid) + 1e-10)
    assert np.all(np.diff(slopes_of(h)) >= -1e-10)


def brute_force_envelope(f):
    """Lower convex envelope of ``f`` at its breakpoints: the least value at
    ``x_k`` of a chord between two breakpoints around it, or of a tail
    line through a breakpoint on the far side of it."""
    x, y, slope_left, slope_right = f
    n = x.size
    env = y.copy()
    for k in range(n):
        env[k] = min(
            env[k],
            (y[k:] + slope_left * (x[k] - x[k:])).min(),
            (y[: k + 1] + slope_right * (x[k] - x[: k + 1])).min(),
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
    return np.array([x / 8.0 for x in xs]), np.array(ys), sl, sr


@given(wide_plfs())
@settings(max_examples=200, deadline=None)
def test_hull_matches_brute_force_envelope(f):
    xs, ys, sl, sr = f
    hx, hy = convex_hull(xs, ys, sl, sr)
    # the tail lines through the end vertices support the function
    assert hy[0] - sl * hx[0] <= (ys - sl * xs).min() + 1e-9
    assert hy[-1] - sr * hx[-1] <= (ys - sr * xs).min() + 1e-9
    np.testing.assert_allclose(
        evaluate(hx, hy, sl, sr, xs), brute_force_envelope(f), rtol=0.0, atol=1e-9
    )


@given(plfs(), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_contact_chord_reconstructs_hull(f, salt):
    """The envelope at y equals the chord through its contact points."""
    h = hull_of(f)
    rng = np.random.default_rng(salt)
    lo, hi = f[0][0] - 2.0, f[0][-1] + 2.0
    for y in rng.uniform(lo, hi, size=25):
        x, z = contacts(f, float(y))
        if math.isfinite(x) and math.isfinite(z):
            fx, fz = evaluate(*f, x), evaluate(*f, z)
            slope = 0.0 if x == z else (fz - fx) / (z - x)
            assert abs(fx + slope * (y - x) - evaluate(*h, float(y))) <= 1e-8


@given(plfs())
@settings(max_examples=150, deadline=None)
def test_hull_minimality_sampled(f):
    """No convex minorant through the same data exceeds the envelope."""
    h = hull_of(f)
    # candidate: any chord of h extended is a support line; check a few
    grid = np.union1d(f[0], h[0])
    f_grid = evaluate(*f, grid)
    slopes = slopes_of(h)
    for k in grid:
        minus = slopes[h[0].searchsorted(k)]  # left derivative of h at k
        line_vals = evaluate(*h, float(k)) + minus * (grid - k)
        assert np.all(line_vals <= f_grid + 1e-9)


@given(measures())
@settings(max_examples=200, deadline=None)
def test_potential_measure_round_trip(eta):
    """The potential's slope jumps give the measure back."""
    xs = eta.xs
    ks = np.append(xs, xs[-1] + 1.0)
    slopes = np.concatenate(([0.0], np.diff(put_potential(eta, ks)) / np.diff(ks)))
    back = DiscreteMeasure(xs, np.diff(slopes))
    assert tv_distance(back, eta) <= 1e-12
    assert abs(back.mass - eta.mass) <= 1e-12
    assert abs(back.mean - eta.mean) <= 1e-12
