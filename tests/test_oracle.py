import numpy as np
import pytest

from leftcurtain import build_curtain, coupling, curtain_incremental, joint_tv, put_potential
from leftcurtain.oracle import Infeasible, shadow_lp, simplex_solve
from conftest import dm, random_instance, tv_distance


class TestSimplex:
    def test_small_equality_lp(self):
        # min x0 + 2 x1  s.t.  x0 + x1 = 1
        x = simplex_solve(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    def test_degenerate_lp_terminates(self):
        # redundant constraints; Bland's rule must not cycle
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        b = np.array([1.0, 2.0, 0.5])
        x = simplex_solve(np.array([0.0, 1.0, 1.0]), a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)
        assert x[1] == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            simplex_solve(
                np.array([1.0]), np.array([[1.0], [1.0]]), np.array([1.0, 2.0])
            )


class TestShadowLp:
    def test_unique_feasible_solution(self):
        s = shadow_lp(dm((0.0, 0.5)), dm((-1.0, 0.5), (1.0, 0.5)))
        assert tv_distance(s, dm((-1.0, 0.25), (1.0, 0.25))) <= 1e-10

    def test_three_variable_vertex(self):
        # by hand: weights (w-, w0, w+) with w- = w+ (mean zero),
        # 2 w- + w0 = 1/2, potential at 0 at least 0, minimised summed
        # potential pushes mass to the centre up to its cap 1/3:
        # w0 = 1/3, w- = w+ = 1/12
        s = shadow_lp(dm((0.0, 0.5)), dm((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)))
        assert tv_distance(s, dm((-1.0, 1 / 12), (0.0, 1 / 3), (1.0, 1 / 12))) <= 1e-10

    def test_equal_inputs(self):
        nu = dm((-1.0, 0.5), (1.0, 0.5))
        assert tv_distance(shadow_lp(nu, nu), nu) <= 1e-10

    def test_infeasible_embedding(self):
        with pytest.raises(Infeasible):
            shadow_lp(dm((-5.0, 0.25), (5.0, 0.25)), dm((-1.0, 0.5), (1.0, 0.5)))


class TestIncrementalCurtain:
    def test_point_mass_source(self, two_point):
        mu, nu = two_point
        xs, ys, ws = curtain_incremental(mu, nu)
        got = dict(zip(zip(xs, ys), ws))
        assert got == pytest.approx({(0.0, -1.0): 0.5, (0.0, 1.0): 0.5})

    def test_three_atom_example(self, three_atom):
        mu, nu = three_atom
        xs, ys, ws = curtain_incremental(mu, nu)
        got = dict(zip(zip(xs, ys), ws))
        expected = {
            (-1.0, -3.0): 1 / 6,
            (-1.0, 0.0): 1 / 3,
            (1.0, -3.0): 1 / 6,
            (1.0, 3.0): 1 / 3,
        }
        assert got == pytest.approx(expected, abs=1e-10)

    def test_identity(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        xs, ys, ws = curtain_incremental(eta, eta)
        assert np.all(xs == ys)

    def test_mid_atom_levels_are_linear(self):
        """Shadow increments inside one source atom scale linearly, so
        boundary levels suffice for the oracle."""
        from leftcurtain import restricted_measure, shadow

        mu, nu = random_instance(3)
        assert mu.n_atoms >= 2
        u0 = float(mu.cum_weights[0])
        u1 = float(mu.cum_weights[1]) if mu.n_atoms > 1 else 1.0
        mid = 0.5 * (u0 + u1)
        grid = nu.xs
        s0 = put_potential(shadow(restricted_measure(mu, u0), nu), grid)
        s1 = put_potential(shadow(restricted_measure(mu, min(u1, 1 - 1e-12)), nu), grid)
        sm = put_potential(shadow(restricted_measure(mu, mid), nu), grid)
        np.testing.assert_allclose(sm, 0.5 * (s0 + s1), atol=1e-10)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(40))
    def test_table_coupling_matches_oracle(self, seed):
        mu, nu = random_instance(seed)
        pi = coupling(build_curtain(mu, nu), mu)
        oracle = curtain_incremental(mu, nu)
        assert joint_tv((pi.joint_x, pi.joint_y, pi.joint_w), oracle) <= 1e-8
