from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import (
    DiscreteMeasure,
    LiftedCoupling,
    build_curtain,
    coupling,
    destination_cdf,
    joint_tv,
    quantize_density,
    random_cx_pair,
    verify_all,
    verify_coupling,
    verify_left_monotone,
    verify_marginal_identity,
    verify_shadow_consistency,
)
from leftcurtain import verify
from leftcurtain.verify import VerificationReport
from conftest import dm, phi, random_instance, s_inverse, tv_distance
from shadow_oracle import restricted_second_marginal, shadow_tv_max
from straddle_reference import straddle_max


class TestVerifyCoupling:
    def test_identity_coupling_all_zero(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        pi = coupling(build_curtain(eta, eta), eta)
        rep = verify_coupling(pi, eta, eta)
        assert rep.marginal_mu_tv == 0.0
        assert rep.marginal_nu_tv == 0.0
        assert rep.martingale_residual_max == 0.0
        assert rep.passed()

    def test_three_atom_exact(self, three_atom):
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        rep = verify_coupling(pi, mu, nu)
        assert rep.marginal_nu_tv <= 1e-12
        assert rep.martingale_residual_max <= 1e-12

    def test_corrupted_kernel_flagged(self, three_atom):
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        w = pi.joint_w.copy()
        w[0] += 1e-3
        bad = LiftedCoupling(pi.intervals, pi.joint_x, pi.joint_y, w)
        rep = verify_coupling(bad, mu, nu)
        assert not rep.passed()
        assert rep.martingale_residual_max > 1e-4


    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 4e-12, 6e-12, 9e-12, 1.5e-11, 0.25]),
                st.floats(-4.0, 4.0),
                st.floats(0.001, 1.0),
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([0.0, 1.0, -37.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_martingale_residual_matches_a_per_atom_loop(self, atoms, offset):
        # chains of x gaps below 1e-11 put points within POS_EPS of several
        # atoms of mu; each point's moment goes to its nearest atom, the
        # left one of two equally near, as DiscreteMeasure.atom_index matches
        xs = offset + np.cumsum([gap for gap, _, _ in atoms])
        ys = xs + np.array([dy for _, dy, _ in atoms])
        ws = np.array([w for _, _, w in atoms])
        order = np.random.default_rng(len(atoms)).permutation(xs.size)
        pi = LiftedCoupling(np.empty((0, 5)), xs[order], ys[order], ws[order])
        mu = DiscreteMeasure(xs, ws)
        per_atom, unmatched = [0.0] * mu.n_atoms, 0.0
        for x, y, w in zip(xs[order].tolist(), ys[order].tolist(), ws[order].tolist()):
            gap, a = min((abs(float(a_x) - x), a) for a, a_x in enumerate(mu.xs))
            if gap <= 1e-11:
                per_atom[a] += (y - x) * w
            else:
                unmatched += abs((y - x) * w)
        expected = max(max(map(abs, per_atom)), unmatched)
        got = verify_coupling(pi, mu, mu).martingale_residual_max
        assert abs(got - expected) <= 1e-14

    def test_moments_of_two_atoms_within_pos_eps_do_not_cancel(self):
        # 5e-12 apart, more than POS_TOL, these are two atoms of mu; the
        # first sends its mass up and the second down, so neither is a
        # martingale, though their moments add to almost 0
        mu, nu = dm((0.0, 0.5), (5e-12, 0.5)), dm((-1.0, 0.5), (1.0, 0.5))
        assert mu.n_atoms == 2
        joint = np.array([0.0, 5e-12]), np.array([1.0, -1.0]), np.array([0.5, 0.5])
        rep = verify_coupling(LiftedCoupling(np.empty((0, 5)), *joint), mu, nu)
        assert rep.martingale_residual_max == pytest.approx(0.5, rel=1e-9)
        assert not rep.checks["martingale_residual_max"]["pass"]
        assert rep.checks["marginal_mu_tv"]["pass"] and rep.checks["marginal_nu_tv"]["pass"]


class TestJointRowsTie:
    """``joint_rows_tv``: the joint of a coupling file against its rows."""

    def test_spliced_right_curtain_joints_of_the_cx_bank(self, monkeypatch):
        # the left curtain's rows with the right curtain's joint, on the pairs
        # of perfbench's cx-bank: both joints are martingale couplings of
        # (mu, nu), so the tie alone fails, and exactly where they differ
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        differ = flagged = 0
        for mu, nu in workloads.Bank().setup(0):
            pi, right = coupling(build_curtain(mu, nu), mu), right_curtain(mu, nu)
            assert verify_coupling(pi, mu, nu).joint_rows_tv == 0.0
            joint = right.joint_x, right.joint_y, right.joint_w
            rep = verify_coupling(LiftedCoupling(pi.intervals, *joint), mu, nu)
            gap = joint_tv((pi.joint_x, pi.joint_y, pi.joint_w), joint)
            assert (rep.joint_rows_tv > 0.0) == (gap > 0.0)
            failed = [name for name, c in rep.checks.items() if not c["pass"]]
            assert failed == (["joint_rows_tv"] if gap > 1e-9 else [])
            differ += gap > 0.0
            flagged += gap > 1e-9
        assert (differ, flagged) == (300, 254)


class TestVerifyLeftMonotone:
    @pytest.mark.parametrize("seed", range(15))
    def test_clean_tables_have_no_violations(self, seed):
        mu, nu = random_instance(seed)
        assert verify_left_monotone(coupling(build_curtain(mu, nu), mu)) == 0

    def test_hand_swapped_lower_value_detected(self, three_atom):
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        rows = pi.intervals.copy()
        # push the later lower value inside the earlier open band (-3, 0)
        rows[1, 3] = -1.5
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        assert verify_left_monotone(bad) > 0

    def test_decreasing_upper_value_detected(self, three_atom):
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        rows = pi.intervals.copy()
        rows[1, 4] = -2.5
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        assert verify_left_monotone(bad) > 0

    def test_jumping_lower_function_is_legal(self, three_atom):
        """The lower function may jump down across intervals."""
        mu, nu = three_atom
        assert verify_left_monotone(coupling(build_curtain(mu, nu), mu)) == 0

    @pytest.mark.parametrize("pair", ["near_atom", "near_atom_shifted"])
    def test_source_atom_within_pos_eps_of_a_target_atom_passes(self, pair, request):
        # the walk sends the source atom to the target atom as a point row,
        # and the count reads positions within POS_EPS as one point too
        mu, nu = request.getfixturevalue(pair)
        table = build_curtain(mu, nu)
        rep = verify_all(table, coupling(table, mu), mu, nu)
        assert rep.monotonicity_violations == 0
        assert rep.passed(), rep.checks


class TestMarginalIdentity:
    def test_two_point_midpoint(self, two_point):
        # destination law at 0: inverse of the upper function is 0 and the
        # envelope slope there is 1/2, matching the target distribution
        mu, nu = two_point
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        assert s_inverse(pi, 0.0) == 0.0
        assert phi(table, 0.0) == pytest.approx(0.5)
        assert destination_cdf(pi, 0.0) == pytest.approx(0.5)

    def test_outside_support(self, two_point):
        mu, nu = two_point
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        assert destination_cdf(pi, -2.0) == 0.0
        assert destination_cdf(pi, 2.0) == pytest.approx(1.0)
        # quantile form right of the support: inverse is 1 and the slope
        # vanishes there, so the identity reads 1 + 0 = 1
        assert s_inverse(pi, 2.0) == 1.0
        assert phi(table, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_residual_small_on_random_instances(self, seed):
        mu, nu = random_instance(seed)
        pi = coupling(build_curtain(mu, nu), mu)
        rep = VerificationReport()
        res = verify_marginal_identity(pi, nu, samples=60, seed=seed, mu=mu, report=rep)
        assert res <= 1e-9
        assert rep.phi_sandwich_violation_max <= 1e-8

    def test_destination_moves_fail_the_identity(self):
        # the moved rows send mass to other target atoms than the joint does;
        # read off the rows, the destination law sees every move and phi most
        moves = proby = sandwich = 0
        for _, _, mu, nu, bad in destination_moves():
            rep = VerificationReport()
            verify_marginal_identity(bad, nu, mu=mu, report=rep)
            moves += 1
            proby += not rep.checks["proby_residual_max"]["pass"]
            sandwich += not rep.checks["phi_sandwich_violation_max"]["pass"]
        assert moves == proby == 132
        assert sandwich == 104

    def test_lower_branch_only_region(self):
        """Destination law below the whole upper-function range: multiple
        target atoms under the source support are reached through the lower
        branch and the quantile-form identity still holds."""
        mu = dm((0.0, 1.0))
        nu = dm((-3.0, 0.25), (-2.0, 0.25), (2.5, 0.5))
        pi = coupling(build_curtain(mu, nu), mu)
        for y, expected in [(-2.5, 0.25), (-1.0, 0.5), (0.7, 0.5), (3.0, 1.0)]:
            assert destination_cdf(pi, y) == pytest.approx(expected, abs=1e-12)


class TestRowPhi:
    """phi at the rows' starts, read off a coupling, against the walk's."""

    def test_matches_the_walk(self):
        pairs = [random_cx_pair(i, 1 + i % 8, (i // 8) % 7) for i in range(336)]
        for n in (40, 500, 1000, 4000):
            mu = quantize_density([-1.0, 1.0], [0.5, 0.5], n)
            pairs.append((mu, quantize_density([-2.0, 2.0], [0.25, 0.25], n)))
        for mu, nu in pairs:
            table = build_curtain(mu, nu)
            got = verify._row_phi(coupling(table, mu), mu, nu)
            assert np.abs(got - table.intervals["phi_lo"]).max() <= np.finfo(float).eps

    def test_an_upper_destination_off_the_target_has_no_phi(self):
        # the second row is a point row at b, 2.3e-10 right of nu's last atom
        # and no target atom; read at that last atom by the index -1, its phi
        # would be 0
        w = (0.7922671063943849, 0.20773289360561503)
        a, b, below_b = 999999.9421465949, 999999.9730576744, 999999.9730576742
        nu = DiscreteMeasure([a, below_b], w)
        rows = np.array([[0.0, w[0], a, a, a], [w[0], 1.0, b, below_b, below_b]])
        pi = LiftedCoupling(rows, np.array([a, b]), np.array([a, below_b]), np.array(w))
        phi = verify._row_phi(pi, DiscreteMeasure([a, b], w), nu)
        assert phi[0] == 0.0 and np.isnan(phi[1])


def right_curtain(mu, nu):
    """The right-curtain coupling of ``(mu, nu)``: the left curtain of the
    mirrored pair, mirrored back."""
    mirror_mu = DiscreteMeasure(-mu.xs, mu.ws)
    mirror = coupling(build_curtain(mirror_mu, DiscreteMeasure(-nu.xs, nu.ws)), mirror_mu)
    u_lo, u_hi, x, r, s = mirror.intervals[::-1].T
    rows = np.column_stack((1.0 - u_hi, 1.0 - u_lo, -x, -s, -r))
    return LiftedCoupling(rows, -mirror.joint_x, -mirror.joint_y, mirror.joint_w)


def destination_moves(seeds=range(150)):
    """The certificate's mutation family: one split row's r (or s) moves to
    another target atom on the same side of x, so the row stays a
    martingale kernel.  Yields ``(seed, table, mu, nu, moved coupling)``."""
    for seed in seeds:
        mu, nu = random_instance(seed)
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        rows = pi.intervals.copy()
        split = np.flatnonzero(rows[:, 4] - rows[:, 3] > 1e-13)
        if split.size == 0:
            continue
        rng = np.random.default_rng(seed)
        i = int(rng.choice(split))
        col = int(rng.choice([3, 4]))
        for col in (col, 7 - col):
            side = nu.xs < rows[i, 2] if col == 3 else nu.xs > rows[i, 2]
            others = nu.xs[side & (nu.xs != rows[i, col])]
            if others.size:
                break
        else:
            continue
        rows[i, col] = rng.choice(others)
        yield seed, table, mu, nu, LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)


class TestShadowConsistency:
    def test_full_level_is_target(self, three_atom):
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        assert tv_distance(restricted_second_marginal(pi, 1.0), nu) <= 1e-9

    def test_first_boundary_shadow(self, three_atom):
        # shadow of the first source atom: frozen from the LP oracle
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        got = restricted_second_marginal(pi, 0.5)
        assert tv_distance(got, dm((-3.0, 1 / 6), (0.0, 1 / 3))) <= 1e-10

    def test_vanishing_level(self, three_atom):
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        assert restricted_second_marginal(pi, 1e-12).mass <= 1e-11

    @pytest.mark.parametrize("seed", range(10))
    def test_consistency_on_random_instances(self, seed):
        mu, nu = random_instance(seed)
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        assert verify_shadow_consistency(table, mu, nu, grid=6, seed=seed, coupling_obj=pi) <= 1e-9
        assert shadow_tv_max(table, mu, nu, pi, grid=6, seed=seed) <= 1e-9

    def test_moved_upper_destination_is_caught(self, three_atom):
        # the lifted rows send the first source atom to 3 in place of 0; the
        # joint arrays stay as they were, so they are no longer the rows'
        # integral, and of the joint's checks only that tie fails
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        rows = pi.intervals.copy()
        assert rows[0, 4] == 0.0
        rows[0, 4] = 3.0
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        checks = verify_coupling(bad, mu, nu).checks
        assert [name for name, c in checks.items() if not c["pass"]] == ["joint_rows_tv"]
        rep = VerificationReport()
        assert verify_shadow_consistency(table, mu, nu, coupling_obj=bad, report=rep) > 1e-9
        assert not rep.passed()

    def test_certificate_flags_every_destination_move_the_oracle_flags(self):
        flagged, missed = 0, []
        for seed, table, mu, nu, bad in destination_moves():
            if shadow_tv_max(table, mu, nu, bad, grid=10) > 1e-9:
                flagged += 1
                if verify_shadow_consistency(table, mu, nu, coupling_obj=bad) <= 1e-9:
                    missed.append(seed)
        assert flagged >= 132
        assert missed == []

    def test_certificate_agrees_with_oracle_on_reflected_right_curtains(self):
        # the right curtain is left-curtain only when the two coincide
        flagged = 0
        for seed in range(150):
            mu, nu = random_instance(seed)
            pi = right_curtain(mu, nu)
            table = build_curtain(mu, nu)
            oracle = shadow_tv_max(table, mu, nu, pi, grid=10) > 1e-9
            assert (verify_shadow_consistency(table, mu, nu, coupling_obj=pi) > 1e-9) == oracle
            flagged += oracle
        assert flagged >= 100

    def test_wrong_source_position_is_caught(self, three_atom):
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        rows = pi.intervals.copy()
        rows[0, 2] = 1.0
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        assert verify_shadow_consistency(table, mu, nu, coupling_obj=bad) >= 0.5
        # a row that runs past the levels of its source atom, the rows still tiling
        rows = pi.intervals.copy()
        rows[0, 1] = rows[1, 0] = 0.6
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        assert verify_shadow_consistency(table, mu, nu, coupling_obj=bad) >= 0.1 - 1e-12

    def test_gap_in_the_tiling_is_caught(self, three_atom):
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        rows = pi.intervals.copy()
        rows[1, 0] += 0.01
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        assert verify_shadow_consistency(table, mu, nu, coupling_obj=bad) >= 0.01 - 1e-12


class TestStraddleMass:
    """Part (iii) of the certificate against the frozen per-atom sweep of
    ``tests/straddle_reference.py``, on the inputs the certificate hands to
    its helper: the band rows' level mass ``T`` bounds the largest straddle
    mass ``S`` of one atom and is zero exactly where ``S`` is.  ``T`` is
    also summed row by row from its definition."""

    @staticmethod
    def compare(monkeypatch, cases):
        """``(T, S, widest band in atoms)`` for the certificate of every
        ``(table, mu, nu, pi)`` of ``cases``."""
        seen = []
        new = verify._straddle_mass

        def both(first, last, lo, hi, tau):
            got = new(first, last, lo, hi, tau)
            rows = zip(first, last, lo, hi)
            by_row = sum(min(max(tau[f : l + 1].max() - a, 0.0), b - a) for f, l, a, b in rows)
            assert got == pytest.approx(by_row, rel=1e-12, abs=0.0)
            widest = int((last - first).max(initial=-1)) + 1
            seen.append((got, straddle_max(first, last, lo, hi, tau), widest))
            return got

        monkeypatch.setattr(verify, "_straddle_mass", both)
        for table, mu, nu, pi in cases:
            verify_shadow_consistency(table, mu, nu, coupling_obj=pi)
        for got, want, _ in seen:
            assert got >= want * (1.0 - 1e-12)
            assert (got == 0.0) == (want == 0.0)
        return seen

    def test_on_destination_moves(self, monkeypatch):
        seen = self.compare(monkeypatch, (case[1:] for case in destination_moves()))
        assert sum(want > 0 for _, want, _ in seen) >= 80

    def test_on_row_swaps_of_the_cx_bank(self, monkeypatch):
        # the pairs of perfbench's cx-bank; two rows swap their (r, s), so
        # the levels still tile
        def swapped():
            for i in range(336):
                mu, nu = random_cx_pair(i, 1 + i % 8, (i // 8) % 7)
                table = build_curtain(mu, nu)
                pi = coupling(table, mu)
                rows = pi.intervals.copy()
                if len(rows) < 2:
                    continue
                a, b = np.random.default_rng(i).choice(len(rows), 2, replace=False)
                rows[[a, b], 3:] = rows[[b, a], 3:]
                yield table, mu, nu, LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)

        seen = self.compare(monkeypatch, swapped())
        assert sum(want > 0 for _, want, _ in seen) >= 180

    def test_on_a_permuted_uniform_coupling(self, monkeypatch):
        mu = quantize_density([-1.0, 1.0], [0.5, 0.5], 1000)
        nu = quantize_density([-2.0, 2.0], [0.25, 0.25], 1000)
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        rows = pi.intervals.copy()
        assert len(rows) == 1500
        rows[:, 3:] = rows[np.random.default_rng(0).permutation(len(rows)), 3:]
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        ((got, want, widest),) = self.compare(monkeypatch, [(table, mu, nu, bad)])
        # bands over many atoms read several levels of the range maximum
        assert want > 0 and widest >= 64


class TestVerifyAll:
    def test_report_round_trip_is_stable(self, three_atom):
        import json

        mu, nu = three_atom
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        rep1 = verify_all(table, pi, mu, nu, samples=40, seed=1)
        rep2 = verify_all(table, pi, mu, nu, samples=40, seed=1)
        assert json.loads(rep1.to_json()) == json.loads(rep2.to_json())
        assert rep1.passed()

    def test_the_report_reads_no_table(self, three_atom, two_point):
        # every check judges the coupling: another pair's table, or none,
        # gives the same report, on the program's coupling and on a moved one
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        rows = pi.intervals.copy()
        rows[0, 4] = 3.0
        moved = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        for c in (pi, moved):
            want = verify_all(table, c, mu, nu).to_json()
            assert verify_all(build_curtain(*two_point), c, mu, nu).to_json() == want
            assert verify_all(None, c, mu, nu).to_json() == want

    def test_mutation_is_caught_by_some_check(self, three_atom):
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        w = pi.joint_w.copy()
        w[-1] *= 1.0 + 1e-3
        bad = LiftedCoupling(pi.intervals, pi.joint_x, pi.joint_y, w)
        rep = verify_all(table, bad, mu, nu, samples=20, seed=0)
        assert not rep.passed()

    def test_tol_reaches_every_residual_check(self, three_atom):
        mu, nu = three_atom
        table = build_curtain(mu, nu)
        rep = verify_all(table, coupling(table, mu), mu, nu, tol=1e-3, samples=20)
        names = ("marginal_nu_tv", "joint_rows_tv", "proby_residual_max", "shadow_certificate_max")
        for name in names:
            assert rep.checks[name]["tol"] == 1e-3
        assert rep.checks["phi_sandwich_violation_max"]["tol"] == 1e-8

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_a_bad_tolerance_is_an_error(self, two_point, tol):
        # a NaN tolerance would fail every check and write "tol": NaN, which
        # is not JSON; inf would pass every check
        mu, nu = two_point
        pi = coupling(build_curtain(mu, nu), mu)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            verify_all(None, pi, mu, nu, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            verify_coupling(pi, mu, nu, tol=tol)
        assert verify_all(None, pi, mu, nu, tol=0.0).passed()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_sample_point_is_an_error(self, three_atom, samples):
        # with no point the identity would pass without checking anything
        mu, nu = three_atom
        pi = coupling(build_curtain(mu, nu), mu)
        with pytest.raises(ValueError, match="sample"):
            verify_marginal_identity(pi, nu, samples=samples, mu=mu)
        with pytest.raises(ValueError, match="sample"):
            verify_all(None, pi, mu, nu, samples=samples)

    def test_target_atoms_closer_than_pos_eps_pass(self):
        # two target atoms 5e-12 apart are distinct atoms, and each of the
        # coupling's destinations is matched to itself, not to its neighbour
        nu = dm((-1.0, 0.5), (1.0, 0.25), (1.0 + 5e-12, 0.25))
        mu = dm((nu.mean, 1.0))
        table = build_curtain(mu, nu)
        rep = verify_all(table, coupling(table, mu), mu, nu)
        assert rep.passed(), rep.checks
        assert rep.shadow_certificate_max <= 1e-15

    @pytest.mark.parametrize("n", [4000, 16000, 64000])
    def test_uniform_pair_passes_at_default_tol(self, n):
        mu = quantize_density([-1.0, 1.0], [0.5, 0.5], n)
        nu = quantize_density([-2.0, 2.0], [0.25, 0.25], n)
        table = build_curtain(mu, nu)
        t = table.intervals
        assert len(t) == 3 * n // 2
        # no sliver rows: at n = 64000 the narrowest row is about 4.6e-6 wide
        assert (t["u_hi"] - t["u_lo"]).min() >= 1e-10
        rep = verify_all(table, coupling(table, mu), mu, nu)
        assert rep.passed(), rep.checks
        # the levels come from one array, mu's cumulative weights, so the
        # target marginal keeps no drift of the levels from i / n
        assert rep.checks["marginal_nu_tv"]["value"] <= 2e-11
        assert rep.checks["shadow_certificate_max"]["value"] <= 2e-11
        # the joint is the rows' integral, summed per pair in the same order
        assert rep.joint_rows_tv == 0.0
