import numpy as np
import pytest

from leftcurtain import (
    DecomposeError,
    DiscreteMeasure,
    build_curtain,
    check_convex_order,
    coupling,
    quantize_density,
    random_cx_pair,
    sample_y_many,
    verify_all,
    verify_coupling,
    verify_left_monotone,
)
from leftcurtain.curtain import TABLE_DTYPE, _walk
from leftcurtain.oracle import PairReference, contact_points
from sweep_reference import sweep_rows
from conftest import (
    decompose_pair,
    dm,
    dphi,
    locate,
    nontrivial_runs,
    phi,
    phi_at,
    random_instance,
    row_components,
    sample_y,
    td_tu,
    tv_distance,
)


def single_component_instances(count, start=0):
    found = []
    seed = start
    while len(found) < count:
        mu, nu = random_instance(seed)
        dec = decompose_pair(mu, nu)
        if len(dec.components) == 1 and dec.static.n_atoms == 0:
            found.append((seed, mu, nu))
        seed += 1
    return found


class TestExcessPotential:
    def test_two_point_value(self, two_point):
        mu, nu = two_point
        # excess at 1: target potential 1 minus restricted potential 0.5
        assert PairReference(mu, nu).excess(0.5, 1.0) == pytest.approx(0.5)

    def test_matches_gap_left_of_quantile(self, three_atom):
        mu, nu = three_atom
        ref = PairReference(mu, nu)
        for k in np.linspace(-4, -1, 9):
            assert ref.excess(0.3, k) == pytest.approx(ref.gap(k), abs=1e-14)
        # above the quantile the excess dominates the gap and is convex
        grid = np.linspace(-1, 4, 11)
        assert np.all(ref.excess(0.3, grid) >= ref.gap(grid) - 1e-14)

    def test_near_full_level_approaches_gap(self, three_atom):
        mu, nu = three_atom
        ref = PairReference(mu, nu)
        grid = np.linspace(-4, 4, 17)
        assert np.abs(ref.excess(1 - 1e-9, grid) - ref.gap(grid)).max() <= 1e-8

    def test_slope_difference_between_levels(self, three_atom):
        """Right of the larger quantile, the excess at a smaller level
        exceeds the one at a larger level by exactly the level difference
        per unit distance."""
        mu, nu = three_atom
        ref = PairReference(mu, nu)
        kinks = np.union1d(mu.xs, nu.xs)
        u, v = 0.3, 0.8
        for k in (2.0, 3.5, 7.0):
            # the excess is linear from k to the next kink (or k + 1 past the last)
            k2 = kinks[kinks > k][0] if k < kinks[-1] else k + 1.0
            su = (ref.excess(u, k2) - ref.excess(u, k)) / (k2 - k)
            sv = (ref.excess(v, k2) - ref.excess(v, k)) / (k2 - k)
            assert su - sv == pytest.approx(v - u, abs=1e-12)


class TestPointConstruction:
    def test_two_point_all_levels(self, two_point):
        ref = PairReference(*two_point)
        for u in (0.1, 0.5, 0.9):
            pc = ref.at(u)
            assert (pc.r, pc.q, pc.g, pc.s) == (-1.0, -1.0, 0.0, 1.0)
            # envelope chord from (-1, 0) to (1, 1 - u)
            assert pc.phi == pytest.approx((1.0 - u) / 2.0)

    def test_three_atom_derived_values(self, three_atom):
        # frozen from the incremental-shadow oracle; also hand-checkable
        ref = PairReference(*three_atom)
        lo = ref.at(0.25)
        assert (lo.r, lo.g, lo.s) == (-3.0, -1.0, 0.0)
        hi = ref.at(0.75)
        assert (hi.r, hi.g, hi.s) == (-3.0, 1.0, 3.0)

    def test_equal_laws_are_degenerate(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        ref = PairReference(eta, eta)
        for u in (0.2, 0.5, 0.8):
            pc = ref.at(u)
            g = -1.0 if u <= 0.5 else 1.0
            assert (pc.r, pc.q, pc.g, pc.s) == (g, g, g, g)
            assert pc.phi == 0.0

    def test_ordering_invariant(self):
        for seed, mu, nu in single_component_instances(10):
            ref = PairReference(mu, nu)
            rng = np.random.default_rng(seed)
            for u in rng.uniform(0.01, 0.99, size=20):
                pc = ref.at(float(u))
                assert pc.r <= pc.q + 1e-12 <= pc.g + 2e-12 <= pc.s + 3e-12
                # degenerate on one side iff degenerate on the other
                assert (abs(pc.q - pc.g) < 1e-12) == (abs(pc.s - pc.g) < 1e-12)


class TestBuildCurtain:
    def test_two_point_single_interval(self, two_point):
        mu, nu = two_point
        table = build_curtain(mu, nu)
        assert len(table.intervals) == 1
        iv = table.intervals[0]
        assert (iv["u_lo"], iv["u_hi"]) == (0.0, 1.0)
        assert (iv["r"], iv["s"]) == (-1.0, 1.0)

    def test_three_atom_table(self, three_atom):
        # frozen from the incremental-shadow oracle
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        assert len(table.intervals) == 2
        first, second = table.intervals
        assert first["u_hi"] == pytest.approx(0.5)
        assert (first["r"], first["g"], first["s"]) == (-3.0, -1.0, 0.0)
        assert (second["r"], second["g"], second["s"]) == (-3.0, 1.0, 3.0)
        # envelope slope: (1 - u) / 3 on both intervals
        assert first["phi_lo"] == pytest.approx(1 / 3)
        assert phi(table, 0.5) == pytest.approx(1 / 6)
        assert phi(table, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_decomposed_table(self, split_pair):
        mu, nu = split_pair
        table = build_curtain(mu, nu)
        assert len(table.intervals) == 2
        first, second = table.intervals
        assert (first["r"], first["g"], first["s"]) == (-2.0, -1.0, 0.0)
        assert first["u_hi"] == pytest.approx(0.5)
        assert (second["r"], second["g"], second["s"]) == (0.0, 1.0, 2.0)

    def test_table_reproduces_point_construction(self):
        for seed, mu, nu in single_component_instances(8):
            table = build_curtain(mu, nu)
            ref = PairReference(mu, nu)
            rng = np.random.default_rng(seed + 1)
            for u in rng.uniform(1e-4, 1 - 1e-4, size=50):
                pc = ref.at(float(u))
                iv = table.intervals[locate(table, float(u))]
                assert pc.g == pytest.approx(iv["g"], abs=1e-10)
                assert pc.q == pytest.approx(iv["r"], abs=1e-10)
                assert pc.s == pytest.approx(iv["s"], abs=1e-10)
                assert pc.phi == pytest.approx(phi_at(iv, float(u)), abs=1e-10)
                if iv["s"] > iv["r"]:
                    assert pc.r == pytest.approx(iv["r"], abs=1e-10)

    def test_breakpoints_cover_unit_interval(self):
        # the quantised uniform pairs at n = 500 and 1000 have mass
        # 1.0000000000000004: the levels still end at exactly 1
        uniform = [
            (
                quantize_density([-1.0, 1.0], [0.5, 0.5], n),
                quantize_density([-2.0, 2.0], [0.25, 0.25], n),
            )
            for n in (500, 1000)
        ]
        for mu, nu in [random_instance(seed) for seed in range(12)] + uniform:
            table = build_curtain(mu, nu)
            t = table.intervals
            assert t["u_lo"][0] == 0.0
            assert t["u_hi"][-1] == 1.0
            assert np.array_equal(t["u_hi"][:-1], t["u_lo"][1:])
            assert np.all(t["u_hi"] - t["u_lo"] > 0)

    def test_contact_points_match_construction(self, three_atom):
        """Envelope contacts around the quantile are exactly (Q, S)."""
        mu, nu = three_atom
        ref = PairReference(mu, nu)
        kinks = np.union1d(mu.xs, nu.xs)
        for u in (0.25, 0.6, 0.9):
            pc = ref.at(u)
            x, z = contact_points(kinks, ref.excess(u, kinks), ref.envelope(u, kinks), pc.g)
            assert (x, z) == (pc.q, pc.s)


class TestSweepRegressions:
    """Larger, non-dyadic and translated pairs, checked at the default tolerance."""

    def test_uniform_1000_passes_coupling_check_at_default_tol(self):
        mu = quantize_density([-1.0, 1.0], [0.5, 0.5], 1000)
        nu = quantize_density([-2.0, 2.0], [0.25, 0.25], 1000)
        table = build_curtain(mu, nu)
        rep = verify_all(table, coupling(table, mu), mu, nu)
        assert rep.passed(), rep.checks

    @pytest.mark.parametrize("seed", range(60))
    def test_translated_pair_builds_and_verifies(self, seed):
        # the walk divides only differences of positions and remaining
        # masses, so far from the origin simultaneous events still tie: no
        # sliver rows
        mu, nu = random_cx_pair(seed, 1 + seed % 8, 1 + seed % 6)
        rows = len(build_curtain(mu, nu).intervals)
        for shift in (1e4, 1e6, -3.7e5):
            moved_mu = DiscreteMeasure(mu.xs + shift, mu.ws)
            moved_nu = DiscreteMeasure(nu.xs + shift, nu.ws)
            table = build_curtain(moved_mu, moved_nu)
            rep = verify_coupling(coupling(table, moved_mu), moved_mu, moved_nu)
            assert rep.passed(), (shift, rep.checks)
            assert verify_left_monotone(coupling(table, moved_mu)) == 0, shift
            assert len(table.intervals) == rows, shift

    def test_far_apart_components_sweep_as_if_built_alone(self):
        # 400 components 40 apart, each of mass 1/400: the walk passes from
        # one to the next through point kernels, and the levels grow to 1
        # while each component's masses stay of size 1/400
        parts = [random_cx_pair(k, 1 + k % 8, k % 7) for k in range(400)]
        mu, nu = (
            DiscreteMeasure(
                np.concatenate([eta.xs + 40.0 * k for k, eta in enumerate(side)]),
                np.concatenate([eta.ws / 400 for eta in side]),
            )
            for side in zip(*parts)
        )
        table = build_curtain(mu, nu)
        t = table.intervals
        assert len(t) == sum(len(build_curtain(*part).intervals) for part in parts)
        assert (t["u_hi"] - t["u_lo"]).min() >= 1e-10
        rep = verify_all(table, coupling(table, mu), mu, nu)
        assert rep.passed(), rep.checks

    @pytest.mark.parametrize(
        "pair",
        [
            pytest.param(
                lambda: (
                    quantize_density([-1.0, 1.0], [0.5, 0.5], 4000),
                    quantize_density([-2.0, 2.0], [0.25, 0.25], 4000),
                ),
                id="uniform-4000",
            ),
            *(
                pytest.param(lambda i=i: random_cx_pair(i, 1 + i % 8, (i // 8) % 7), id=f"cx-{i}")
                for i in range(0, 56, 5)
            ),
        ],
    )
    def test_source_atoms_end_at_their_cumulative_weights(self, pair):
        # the sweep's levels are mu's cumulative weights themselves, not a
        # second sum of the same weights
        mu, nu = pair()
        t = build_curtain(mu, nu).intervals
        atom = mu.xs.searchsorted(t["g"])
        last = atom.searchsorted(np.arange(mu.n_atoms - 1), side="right") - 1
        assert np.array_equal(t["u_hi"][last], mu.cum_weights[:-1])

    def test_uniform_200_reproduces_point_construction_on_every_row(self):
        mu = quantize_density([-1.0, 1.0], [0.5, 0.5], 200)
        nu = quantize_density([-2.0, 2.0], [0.25, 0.25], 200)
        table = build_curtain(mu, nu)
        assert np.all(row_components(table, mu, nu) == 0)
        t = table.intervals
        ref = PairReference(mu, nu)
        for iv in t:
            u = 0.5 * (iv["u_lo"] + iv["u_hi"])
            pc = ref.at(u)
            assert (pc.g, pc.q, pc.s) == (iv["g"], iv["r"], iv["s"])
            assert pc.phi == pytest.approx(phi_at(iv, u), abs=1e-10)
            if iv["s"] > iv["r"]:
                assert pc.r == iv["r"]


class TestWalk:
    """The walk over the target's atoms against the retired potential sweep
    (``tests/sweep_reference.py``), and at the edges of its geometry."""

    @staticmethod
    def assert_sweep_table(mu, nu):
        t = build_curtain(mu, nu).intervals
        ref = np.array(sweep_rows(mu, nu), dtype=TABLE_DTYPE)
        assert len(t) == len(ref)
        for name in ("g", "r", "s"):
            assert np.array_equal(t[name], ref[name]), name
        for name in ("u_lo", "u_hi", "phi_lo"):
            assert np.abs(t[name] - ref[name]).max() <= 1e-13, name

    @pytest.mark.parametrize("start", range(0, 336, 48))
    def test_cx_bank_builds_the_sweep_table(self, start):
        for i in range(start, start + 48):
            self.assert_sweep_table(*random_cx_pair(i, 1 + i % 8, (i // 8) % 7))

    @pytest.mark.parametrize("n", [50, 500, 1000, 4000])
    def test_uniform_pair_builds_the_sweep_table(self, n):
        self.assert_sweep_table(
            quantize_density([-1.0, 1.0], [0.5, 0.5], n),
            quantize_density([-2.0, 2.0], [0.25, 0.25], n),
        )

    @pytest.mark.parametrize("x, y", [(0.0, 1.0), (1.0, 0.0)])
    def test_a_side_with_no_atom_raises_decompose_error(self, x, y):
        # the walk on its own, without the mass and mean tests: delta_x -> delta_y
        # has no target atom on one side of x, so it is not in convex order
        with pytest.raises(DecomposeError, match="one side"):
            _walk(dm((x, 1.0)), dm((y, 1.0)), 1.0)

    def test_the_last_atom_on_a_side_takes_up_rounding(self):
        # near 1e6 a spread of 0.16 leaves the rates (s - x) / (s - r) about
        # nine digits, so the upper atom would run empty 2.9e-10 before the
        # last level with no atom beyond it: it takes up the rest instead
        mu = DiscreteMeasure([999999.9898278287], [1.0])
        nu = DiscreteMeasure(
            [999999.9173611072, 1000000.0736816676], [0.5364223277403153, 0.4635776722596847]
        )
        table = build_curtain(mu, nu)
        assert [tuple(row) for row in table.intervals] == sweep_rows(mu, nu)
        rep = verify_all(table, coupling(table, mu), mu, nu)
        assert rep.passed(), rep.checks


class TestContinuumLimit:
    """The quantised pair U[-a, a] -> U[-b, b] against the continuous
    left-curtain functions of that pair, in levels ``u``: G = a (2u - 1),
    R = (a - b) u - a, S = (a + b) u - a and phi = (b - a) (1 - u) / (2b).

    The shadow of mu on [-a, x] fills nu on [T_d, T_u], with T_u - T_d =
    b (x + a) / a (mass) and T_u + T_d = x - a (mean); x = a (2u - 1) gives
    R = T_d and S = T_u.  phi(u) = F_nu(S(u)) - u is the quantile form of
    the destination law.  Every row splits except where a source atom sits
    on a target atom, and there the row is a point row: for a = 1, b = 3
    the first source atom does, and for the other two pairs none does.
    """

    #: n times the largest error at the row midpoints: the values measured
    #: at n = 1000 and 4000 (flat in n) plus a margin of 20 %; they are
    #: 0.706, 3.167, 2.500 and 0.167 for (1, 2), 0.6, 2.0, 2.2 and 0.167
    #: for (1, 3), and 1.655, 6.3, 4.5 and 0.3 for (2, 3).  The constants
    #: depend on how the two grids interleave: at n = 2000 one short row of
    #: (2, 3) near u = 0.0015 has a lower atom that the continuum does not
    #: see, with n |error of r| = 16.1
    BOUNDS = {
        (1, 2): {"g": 0.85, "r": 3.8, "s": 3.0, "phi": 0.2},
        (1, 3): {"g": 0.72, "r": 2.4, "s": 2.7, "phi": 0.2},
        (2, 3): {"g": 2.0, "r": 7.6, "s": 5.4, "phi": 0.36},
    }

    #: the source atoms, by index, that sit on a target atom: one point row each
    POINT_ATOMS = {(1, 2): [], (1, 3): [0], (2, 3): []}

    @pytest.mark.parametrize("a, b", list(BOUNDS))
    @pytest.mark.parametrize("n", [1000, 4000])
    def test_table_converges_at_rate_one_over_n(self, a, b, n):
        mu = quantize_density([-a, a], [0.5 / a, 0.5 / a], n)
        nu = quantize_density([-b, b], [0.5 / b, 0.5 / b], n)
        t = build_curtain(mu, nu).intervals
        u = 0.5 * (t["u_lo"] + t["u_hi"])
        assert np.array_equal(t["g"][~(t["s"] > t["r"])], mu.xs[self.POINT_ATOMS[a, b]])
        errors = {
            "g": t["g"] - a * (2.0 * u - 1.0),
            "r": t["r"] - ((a - b) * u - a),
            "s": t["s"] - ((a + b) * u - a),
            "phi": phi_at(t, u) - (b - a) * (1.0 - u) / (2.0 * b),
        }
        for name, bound in self.BOUNDS[a, b].items():
            assert n * np.abs(errors[name]).max() <= bound, name


class TestCoupling:
    def test_two_point_joint(self, two_point):
        mu, nu = two_point
        pi = coupling(build_curtain(mu, nu), mu)
        expected = {(0.0, -1.0): 0.5, (0.0, 1.0): 0.5}
        got = dict(zip(zip(pi.joint_x, pi.joint_y), pi.joint_w))
        assert got == pytest.approx(expected)

    def test_three_atom_joint(self, three_atom):
        # frozen from the incremental-shadow oracle; martingale means
        # (1/3)(-3) + (2/3) 3 = 1 and (1/3)(-3) + (2/3) 0 = -1
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        got = dict(zip(zip(pi.joint_x, pi.joint_y), pi.joint_w))
        expected = {
            (-1.0, -3.0): 1 / 6,
            (-1.0, 0.0): 1 / 3,
            (1.0, -3.0): 1 / 6,
            (1.0, 3.0): 1 / 3,
        }
        assert got == pytest.approx(expected)

    def test_identity_coupling(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        pi = coupling(build_curtain(eta, eta), eta)
        assert np.all(pi.joint_x == pi.joint_y)
        assert tv_distance(DiscreteMeasure(pi.joint_y, pi.joint_w), eta) == 0.0

    @pytest.mark.parametrize("seed", range(15))
    def test_marginals_and_martingale(self, seed):
        mu, nu = random_instance(seed)
        pi = coupling(build_curtain(mu, nu), mu)
        assert tv_distance(DiscreteMeasure(pi.joint_x, pi.joint_w), mu) <= 1e-12
        assert tv_distance(DiscreteMeasure(pi.joint_y, pi.joint_w), nu) <= 1e-10
        for x in np.unique(pi.joint_x):
            mask = pi.joint_x == x
            resid = ((pi.joint_y[mask] - x) * pi.joint_w[mask]).sum()
            assert abs(resid) <= 1e-12


class TestSampleY:
    def test_trivial_interval_returns_quantile(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        table = build_curtain(eta, eta)
        assert sample_y(table, 0.3, 0.99) == -1.0

    def test_two_point_threshold(self, two_point):
        mu, nu = two_point
        table = build_curtain(mu, nu)
        # threshold (S - G)/(S - R) = 1/2
        assert sample_y(table, 0.42, 0.25) == -1.0
        assert sample_y(table, 0.42, 0.5) == -1.0
        assert sample_y(table, 0.42, 0.500001) == 1.0

    def test_three_atom_upper_branch(self, three_atom):
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        # threshold on (1/2, 1] is (3 - 1)/(3 + 3) = 1/3
        assert sample_y(table, 0.75, 0.5) == 3.0
        assert sample_y(table, 0.75, 1 / 3) == -3.0

    def test_vectorised_matches_scalar(self, three_atom):
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        rng = np.random.default_rng(0)
        us = rng.uniform(1e-6, 1 - 1e-6, 200)
        vs = rng.uniform(1e-6, 1 - 1e-6, 200)
        ys = sample_y_many(table, us, vs)
        for u, v, y in zip(us, vs, ys):
            assert sample_y(table, float(u), float(v)) == y


class TestTdTu:
    def test_identity_on_equal_laws(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        td, tu = td_tu(build_curtain(eta, eta))
        assert td(-1.0) == -1.0 and tu(-1.0) == -1.0
        assert td(1.0) == 1.0 and tu(1.0) == 1.0
        assert not td.multi_valued.any()

    def test_three_atom_destinations(self, three_atom):
        mu, nu = three_atom
        td, tu = td_tu(build_curtain(mu, nu))
        assert td(1.0) == -3.0 and tu(1.0) == 3.0

    def test_dispersion_monotonicity(self):
        """Uniform into wider uniform: lower map decreasing, upper map
        increasing across the support."""
        mu = quantize_density([-1.0, 1.0], [0.5, 0.5], 64)
        nu = quantize_density([-2.0, 2.0], [0.25, 0.25], 64)
        assert check_convex_order(mu, nu)
        table = build_curtain(mu, nu)
        td, tu = td_tu(table)
        tu_vals = [v[-1] for v in tu.values]
        td_vals = [v[-1] for v in td.values]
        assert all(b >= a - 1e-12 for a, b in zip(tu_vals, tu_vals[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(td_vals, td_vals[1:]))


class TestPhiLaws:
    @pytest.mark.parametrize("seed", range(10))
    def test_lipschitz_lower_bound(self, seed):
        """phi(v) >= phi(u) - (v - u) across the table."""
        mu, nu = random_instance(seed)
        table = build_curtain(mu, nu)
        pts = []
        for iv in table.intervals:
            mid = 0.5 * (iv["u_lo"] + iv["u_hi"])
            pts.extend([(mid, phi_at(iv, mid)), (iv["u_hi"], phi_at(iv, iv["u_hi"]))])
        pts.sort()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                (u, pu), (v, pv) = pts[i], pts[j]
                assert pv >= pu - (v - u) - 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_nonincreasing_on_split_runs(self, seed):
        mu, nu = random_instance(seed)
        table = build_curtain(mu, nu)
        for run in nontrivial_runs(table):
            last = None
            for idx in run:
                iv = table.intervals[idx]
                if last is not None:
                    assert iv["phi_lo"] <= last + 1e-10
                assert dphi(iv) <= 1e-12  # nonincreasing inside intervals
                last = phi_at(iv, iv["u_hi"])

    @pytest.mark.parametrize("seed", range(10))
    def test_phi_bounds_and_terminal_value(self, seed):
        """phi stays within [0, 1 - u] and vanishes at the top level."""
        mu, nu = random_instance(seed)
        table = build_curtain(mu, nu)
        t = table.intervals
        for u in (t["u_lo"] + (t["u_hi"] - t["u_lo"]) / 2, t["u_hi"]):
            val = phi_at(t, u)
            assert np.all(-1e-10 <= val) and np.all(val <= 1.0 - u + 1e-10)
        assert phi(table, 1.0) <= 1e-9

    @pytest.mark.parametrize("start", [0, 11, 29, 47])
    def test_slope_identity_by_finite_differences(self, start):
        """d phi / du matches -(S - G)/(S - R) on splitting intervals."""
        ((_, mu, nu),) = single_component_instances(1, start=start)
        table = build_curtain(mu, nu)
        ref = PairReference(mu, nu)
        for run in nontrivial_runs(table):
            for idx in run:
                iv = table.intervals[idx]
                h = (iv["u_hi"] - iv["u_lo"]) / 8
                if h < 1e-9:
                    continue
                u0 = 0.5 * (iv["u_lo"] + iv["u_hi"])
                fd = (ref.at(u0 + h).phi - ref.at(u0 - h).phi) / (2 * h)
                expect = -(iv["s"] - iv["g"]) / (iv["s"] - iv["r"])
                assert fd == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_slope_extremal_representations(self, seed):
        """phi is the best chord slope from the left and bounds the chords
        to the right: the two closed-form envelope representations."""
        for seed2, mu, nu in single_component_instances(1, start=seed * 37):
            ref = PairReference(mu, nu)
            kinks = np.union1d(mu.xs, nu.xs)
            rng = np.random.default_rng(seed2)
            for u in rng.uniform(0.05, 0.95, size=8):
                pc = ref.at(float(u))
                ks = kinks[kinks < pc.g - 1e-9]
                if ks.size and pc.s > pc.g + 1e-9:
                    sup = ((ref.excess(u, pc.s) - ref.gap(ks)) / (pc.s - ks)).max()
                    assert pc.phi == pytest.approx(sup, abs=1e-10)
                ks_hi = kinks[kinks > pc.g + 1e-9]
                if ks_hi.size:
                    inf = ((ref.excess(u, ks_hi) - ref.gap(pc.r)) / (ks_hi - pc.r)).min()
                    assert pc.phi <= inf + 1e-10
