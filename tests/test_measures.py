import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    check_convex_order,
    quantile_left,
    quantize_density,
    random_cx_pair,
)
from leftcurtain.measures import POS_TOL, _merge_atoms
from leftcurtain.oracle import _put_values, put_potential, restricted_measure
from leftcurtain.pwl import evaluate
from conftest import atom_weight, dm, tv_distance
from exact_reference import exact_order
from quantize_reference import quantize_reference


class TestDiscreteMeasure:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_positions_and_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([bad, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([0.0, 1.0], [bad, 0.5])

    def test_rejects_unequal_lengths_and_negative_weights(self):
        with pytest.raises(ValueError, match="equal length"):
            DiscreteMeasure([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteMeasure([0.0, 1.0], [1.5, -0.5])

    def test_atom_merges_only_within_pos_tol_of_its_run_start(self):
        # consecutive gaps of 0.6 pos_tol: the second atom joins the first,
        # the third lies 1.2 pos_tol from the first and starts a new run
        eta = DiscreteMeasure([1.2 * POS_TOL, 0.0, 0.6 * POS_TOL], [0.5, 0.25, 0.25])
        assert eta.xs.tolist() == [0.0, 1.2 * POS_TOL]
        assert eta.ws.tolist() == [0.5, 0.5]

    def test_tv_distance_does_not_cancel_along_a_chain_of_close_atoms(self):
        a = dm((0.0, 0.5), (1.6e-11, 0.5))
        b = dm((0.8e-11, 1.0))
        assert tv_distance(a, b) == 0.5

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.floats(-1.0, 1.0, allow_nan=False)),
            min_size=1,
            max_size=40,
        ),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_matches_the_anchored_loop(self, steps, offset):
        # gaps of 0 to 2.4 pos_tol chain atoms into runs of every width
        xs = offset + np.cumsum([0.3 * POS_TOL * k for k, _ in steps])
        ws = np.array([w for _, w in steps])
        out_x, out_w = [xs[0]], [ws[0]]
        for x, w in zip(xs[1:], ws[1:]):
            if x - out_x[-1] <= POS_TOL:
                out_w[-1] += w
            else:
                out_x.append(x)
                out_w.append(w)
        mx, mw = _merge_atoms(xs, ws, POS_TOL)
        assert mx.tolist() == out_x
        np.testing.assert_allclose(mw, out_w, rtol=0.0, atol=1e-14)

    def test_atom_weight_of_array_matches_scalar_calls(self):
        # the nearer neighbour wins when both are within POS_EPS, the left
        # one when they are equally near
        eta = dm((0.0, 0.1), (5e-12, 0.4), (1.0, 0.5))
        x = np.array([2.5e-12, 5e-12 + 8e-12, -5e-12, 0.5, 1.0 + 5e-12, -1.0, 2.0])
        assert atom_weight(eta, x).tolist() == [0.1, 0.4, 0.1, 0.0, 0.5, 0.0, 0.0]
        assert [atom_weight(eta, v) for v in x] == atom_weight(eta, x).tolist()
        assert isinstance(atom_weight(eta, 0.0), float)

    def test_atoms_closer_than_pos_eps_each_match_themselves(self):
        # apart by more than POS_TOL, so not merged, and by less than POS_EPS
        nu = dm((-1.0, 0.5), (1.0, 0.25), (1.0 + 5e-12, 0.25))
        assert nu.n_atoms == 3
        assert nu.atom_index(nu.xs).tolist() == [0, 1, 2]
        assert [nu.atom_index(1.0 + d) for d in (1e-12, 2e-12, 4e-12, 1.2e-11)] == [1, 1, 2, 2]
        assert atom_weight(nu, nu.xs).tolist() == nu.ws.tolist()

    def test_is_immutable_and_reprs_its_size_mass_and_mean(self):
        eta = dm((-1.0, 0.25), (1.0, 0.75))
        with pytest.raises(AttributeError, match="immutable"):
            eta.xs = np.zeros(2)
        assert repr(eta) == "DiscreteMeasure(2 atoms, mass=1, mean=0.5)"
        assert repr(DiscreteMeasure([], [])) == "DiscreteMeasure(empty)"

    def test_tv_distance_cancels_weights_at_shared_positions(self):
        a = dm((0.0, 0.5), (1.0, 0.5))
        b = dm((0.0, 0.25), (1.0 + 5e-12, 0.75))
        assert tv_distance(a, b) == 0.25
        assert tv_distance(b, a) == 0.25
        assert tv_distance(a, a) == 0.0


class TestPutPotential:
    def test_point_mass(self):
        left, at, right = put_potential(dm((0.0, 1.0)), np.array([-2.0, 0.0, 2.0]))
        # slope 0 on the left tail and 1 on the right one
        assert (at - left) / 2.0 == 0.0 and (right - at) / 2.0 == 1.0
        assert at == 0.0

    def test_symmetric_pair(self):
        assert put_potential(dm((-1.0, 0.5), (1.0, 0.5)), 0.0) == pytest.approx(0.5)

    def test_three_thirds(self):
        eta = dm((-3.0, 1 / 3), (0.0, 1 / 3), (3.0, 1 / 3))
        assert put_potential(eta, 0.0) == pytest.approx(1.0)

    def test_right_asymptote_encodes_mean(self):
        eta = dm((-2.0, 0.25), (1.0, 0.75))
        k = 100.0
        assert put_potential(eta, k) == pytest.approx(eta.mass * k - eta.mean)

    @given(
        st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 1.0)), min_size=1, max_size=12
        ),
        st.sampled_from([0.0, 1e6, -1e6]),
        st.lists(st.floats(-25.0, 25.0), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_centred_evaluator_matches_the_potential(self, atoms, shift, extra):
        eta = DiscreteMeasure([x + shift for x, _ in atoms], [w for _, w in atoms])
        xs, ws = eta.xs, eta.ws
        # the atoms, the midpoints between them, points on both tails and anywhere
        k = np.concatenate(
            (xs, 0.5 * (xs[1:] + xs[:-1]), [xs[0] - 1.5, xs[-1] + 2.5], np.add(extra, shift))
        )
        got = _put_values(xs, ws, eta.mean / eta.mass, k)
        bound = 1e-12 * np.maximum(1.0, np.abs(k))
        # linear between the atoms, with the tails 0 and mass * k - mean
        between = evaluate(xs, put_potential(eta, xs), 0.0, eta.mass, k)
        assert np.all(np.abs(got - between) <= bound)
        direct = [math.fsum(w * max(p - x, 0.0) for x, w in zip(xs, ws)) for p in k]
        assert np.all(np.abs(got - direct) <= bound)


class TestQuantileLeft:
    def test_left_continuity_at_jump(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        assert quantile_left(eta, 0.5) == -1.0
        assert quantile_left(eta, 0.500001) == 1.0

    def test_point_mass_every_level(self):
        eta = dm((0.0, 1.0))
        for u in (0.001, 0.5, 0.999):
            assert quantile_left(eta, u) == 0.0

    def test_rejects_levels_outside_open_interval(self):
        eta = dm((0.0, 1.0))
        with pytest.raises(ValueError):
            quantile_left(eta, 0.0)
        with pytest.raises(ValueError):
            quantile_left(eta, 1.0)

    def test_rejects_a_measure_whose_mass_is_not_one(self):
        with pytest.raises(ValueError, match="probability measure, mass=0.5"):
            quantile_left(dm((0.0, 0.5)), 0.25)

    def test_array_levels_match_scalar_levels(self):
        eta = dm((-2.0, 0.25), (0.0, 0.5), (1.0, 0.25))
        us = np.array([1e-9, 0.25, 0.2500001, 0.5, 0.75, 0.7500001, 1 - 1e-12])
        got = quantile_left(eta, us)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [quantile_left(eta, float(u)) for u in us]
        assert got.tolist() == [-2.0, -2.0, 0.0, 0.0, 0.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            quantile_left(eta, np.array([0.5, 1.0]))


class TestRestrictedMeasure:
    def test_half_keeps_left_atom(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        part = restricted_measure(eta, 0.5)
        assert tv_distance(part, dm((-1.0, 0.5))) == 0.0

    def test_partial_second_atom(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        part = restricted_measure(eta, 0.75)
        assert tv_distance(part, dm((-1.0, 0.5), (1.0, 0.25))) == 0.0

    def test_point_mass_scales(self):
        part = restricted_measure(dm((0.0, 1.0)), 0.3)
        assert tv_distance(part, dm((0.0, 0.3))) == 0.0

    def test_rejects_levels_outside_open_interval(self):
        with pytest.raises(ValueError):
            restricted_measure(dm((0.0, 1.0)), 1.0)
        with pytest.raises(ValueError):
            restricted_measure(dm((0.0, 1.0)), 0.0)

    def test_monotone_in_level_and_potential_shape(self):
        eta = dm((-2.0, 0.25), (0.0, 0.5), (1.0, 0.25))
        for u, v in [(0.2, 0.4), (0.4, 0.9), (0.1, 0.95)]:
            pu = restricted_measure(eta, u)
            pv = restricted_measure(eta, v)
            # atomwise domination
            for x, w in zip(pu.xs, pu.ws):
                assert w <= atom_weight(pv, x) + 1e-12
            # potential agrees left of the quantile, linear with slope u right
            g = quantile_left(eta, u)
            ks = np.linspace(eta.support_left - 1, g, 7)
            np.testing.assert_allclose(put_potential(pu, ks), put_potential(eta, ks), atol=1e-12)
            left, at, right = put_potential(pu, g + np.array([0.5, 1.0, 1.5]))
            s_minus, s_plus = (at - left) / 0.5, (right - at) / 0.5
            assert s_minus == pytest.approx(u) and s_plus == pytest.approx(u)


class TestConvexOrder:
    def test_jensen_spread(self):
        res = check_convex_order(dm((0.0, 1.0)), dm((-1.0, 0.5), (1.0, 0.5)))
        assert res.ordered

    def test_empty_measures_are_judged_without_an_atom(self):
        # the mean test's scale is 0 for no atoms, and no atom is read
        empty = DiscreteMeasure([], [])
        assert check_convex_order(empty, empty)
        res = check_convex_order(dm((0.5, 1e-13)), empty)
        assert (res.ordered, res.witness, res.gap) == (False, None, 5e-14)

    def test_equal_law(self):
        # equal laws are ordered; their gap vanishes at every kink
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        res = check_convex_order(eta, eta)
        assert res and res.ordered

    def test_reversed_pair_fails_with_witness(self):
        # the walk finds no target atom left of the source atom at -1, whose
        # whole mass is the gap
        res = check_convex_order(dm((-1.0, 0.5), (1.0, 0.5)), dm((0.0, 1.0)))
        assert not res.ordered
        assert res.witness == -1.0
        assert res.gap == 0.5

    def test_mass_mismatch_fails(self):
        res = check_convex_order(dm((0.0, 0.5)), dm((0.0, 1.0)))
        assert not res.ordered

    def test_matches_the_exact_order(self, monkeypatch):
        # the cx-bank pairs, the nested pairs (nu_k, nu_{k+2}) of the same
        # seeds, which share their first k spread steps and so are ordered,
        # and the barrier pairs of perfbench's cx-bank, in both directions
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        bank = [(i, 1 + i % 8, (i // 8) % 7) for i in range(336)]
        pairs = [random_cx_pair(*args) for args in bank]
        pairs += [
            (random_cx_pair(i, m, k)[1], random_cx_pair(i, m, k + 2)[1]) for i, m, k in bank
        ]
        pairs += workloads.Bank().setup(0)[336:]
        pairs += [(nu, mu) for mu, nu in pairs]
        verdicts = [bool(check_convex_order(mu, nu)) for mu, nu in pairs]
        assert verdicts == [exact_order(mu, nu) for mu, nu in pairs]
        assert (len(pairs), sum(verdicts)) == (1440, 768)


class TestQuantizeDensity:
    def test_uniform_two_cells(self):
        q = quantize_density([-1.0, 1.0], [0.5, 0.5], 2)
        assert tv_distance(q, dm((-0.5, 0.5), (0.5, 0.5))) <= 1e-12

    def test_uniform_four_cells(self):
        q = quantize_density([0.0, 1.0], [1.0, 1.0], 4)
        np.testing.assert_allclose(q.xs, [1 / 8, 3 / 8, 5 / 8, 7 / 8], atol=1e-12)
        np.testing.assert_allclose(q.ws, 0.25)

    def test_triangular_mean_preserved(self):
        # density 1 - |x| on [-1, 1]; mean of x * density computed directly:
        # integral x(1-|x|) dx = 0 by symmetry; shift to check a nonzero mean
        xs = np.array([0.0, 1.0, 2.0])
        pdf = np.array([0.0, 1.0, 0.0])
        exact_mean = 1.0  # triangle centred at 1
        q = quantize_density(xs, pdf, 100)
        assert q.mean == pytest.approx(exact_mean, abs=1e-12)
        assert q.mass == pytest.approx(1.0, abs=1e-12)

    def test_quantisation_is_dominated_by_input_in_order(self):
        # quantised uniform vs a finer quantised uniform: coarser has
        # smaller potential everywhere
        fine = quantize_density([-1.0, 1.0], [0.5, 0.5], 64)
        coarse = quantize_density([-1.0, 1.0], [0.5, 0.5], 8)
        assert check_convex_order(coarse, fine).ordered

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            quantize_density([0.0, 1.0], [0.0, 0.0], 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 50, 64, 200, 500, 1000, 2000, 16000])
    @pytest.mark.parametrize(
        "grid",
        [
            ([-1.0, 1.0], [0.5, 0.5]),
            ([-2.0, 2.0], [0.25, 0.25]),
            ([-2.0, 0.0, 2.0], [0.25, 0.25, 0.25]),
            ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
        ],
    )
    def test_uniform_and_three_point_grids_equal_the_scalar_reference_bitwise(self, grid, n):
        q = quantize_density(*grid, n)
        assert q.xs.tobytes() == quantize_reference(*grid, n).tobytes()
        assert q.ws.tobytes() == np.full(n, 1.0 / n).tobytes()

    def test_multi_segment_grids_match_the_scalar_reference(self):
        xs = np.linspace(-5.0, 5.0, 201)
        grids = [
            (xs, np.exp(-0.5 * xs**2), 200),
            ([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 1.0], 50),  # a zero-density gap
            ([-1.0, 0.0, 0.5, 2.0, 2.5], [0.0, 3.0, 0.5, 0.5, 2.0], 77),
        ]
        for xs_, pdf, n in grids:
            _assert_within_ulps(quantize_density(xs_, pdf, n).xs, quantize_reference(xs_, pdf, n))

    def test_large_grid_quantises_without_a_pass_per_cell(self):
        # the scalar reference sums every grid segment again for each cell
        # bound, which takes seconds here
        xs = np.linspace(-5.0, 5.0, 2001)
        pdf = np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)
        start = time.perf_counter()
        q = quantize_density(xs, pdf, 2000)
        assert time.perf_counter() - start < 0.5
        assert q.n_atoms == 2000


@st.composite
def grid_densities(draw):
    """Piecewise-linear densities on up to 8 grid points with integer
    values, so zero-density segments and gaps are common, and a cell count."""
    m = draw(st.integers(2, 8))
    steps = draw(st.lists(st.integers(1, 12), min_size=m - 1, max_size=m - 1))
    start = draw(st.integers(-20, 20))
    xs = (start + np.concatenate(([0], np.cumsum(steps)))) / 4.0
    pdf = np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
    assume((0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)).sum() > 0)
    return xs, pdf, draw(st.integers(1, 60))


def _density_cdf_and_mean(xs, pdf, t):
    """Distribution function at ``t`` and mean of the normalised density,
    from the closed-form integrals over each segment."""
    a, b, p, q = xs[:-1], xs[1:], pdf[:-1], pdf[1:]
    h = b - a
    total = float((0.5 * (p + q) * h).sum())
    s = np.clip(np.asarray(t, dtype=float)[..., None] - a, 0.0, h)
    cdf = (p * s + 0.5 * (q - p) * s * s / h).sum(axis=-1) / total
    mean = float((h * (a * (2.0 * p + q) + b * (p + 2.0 * q)) / 6.0).sum()) / total
    return cdf, mean


def _assert_within_ulps(got, want, ulps=4):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))


@given(grid_densities())
@settings(max_examples=200, deadline=None)
def test_quantisation_cells(density):
    xs, pdf, n = density
    q = quantize_density(xs, pdf, n)
    # n strictly increasing atoms of weight 1/n
    assert q.n_atoms == n
    assert np.all(q.ws == 1.0 / n)
    assert np.all(np.diff(q.xs) > 0)
    # atom j is the barycentre of the j-th cell of mass 1/n, so it lies in it
    cdf, mean = _density_cdf_and_mean(xs, pdf, q.xs)
    j = np.arange(n)
    assert np.all(cdf >= j / n - 1e-12)
    assert np.all(cdf <= (j + 1) / n + 1e-12)
    assert q.mean == pytest.approx(mean, abs=1e-12 * max(1.0, abs(xs[0]), abs(xs[-1])))
    _assert_within_ulps(q.xs, quantize_reference(xs, pdf, n))


class TestRandomCxPair:
    @pytest.mark.parametrize(
        "args, message", [((0, 0, 1), "at least one atom"), ((0, 1, -1), "non-negative")]
    )
    def test_rejects_bad_arguments(self, args, message):
        with pytest.raises(ValueError, match=message):
            random_cx_pair(*args)

    def test_no_steps_returns_equal_laws(self):
        mu, nu = random_cx_pair(5, 4, 0)
        assert tv_distance(mu, nu) == 0.0

    def test_single_split_of_point_mass(self):
        # a one-atom source with one split is exactly a two-point target
        mu, nu = random_cx_pair(0, 1, 1)
        assert mu.n_atoms == 1 and nu.n_atoms == 2
        assert nu.mean == pytest.approx(mu.mean, abs=1e-14)

    @pytest.mark.parametrize("seed", range(25))
    def test_always_ordered(self, seed):
        rng = np.random.default_rng(seed)
        mu, nu = random_cx_pair(seed, int(rng.integers(1, 9)), int(rng.integers(0, 7)))
        res = check_convex_order(mu, nu)
        assert bool(res)
        assert mu.mass == 1.0  # dyadic weights sum exactly
        assert nu.mass == 1.0
        assert nu.mean == mu.mean


@st.composite
def prob_measures(draw):
    n = draw(st.integers(1, 8))
    xs = sorted(draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True)))
    ws = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    total = sum(ws)
    return DiscreteMeasure([x / 4.0 for x in xs], [w / total for w in ws])


@given(prob_measures(), st.floats(1e-6, 1 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_quantile_cdf_galois(eta, u):
    g = quantile_left(eta, u)
    assert eta.cdf(g) >= u - 1e-12
    for x in eta.xs:
        f = float(eta.cdf(x))
        if 0.0 < f < 1.0:
            assert quantile_left(eta, f) <= x + 1e-12
