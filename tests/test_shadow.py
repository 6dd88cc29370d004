import numpy as np
import pytest

from leftcurtain import put_potential, quantize_density, random_cx_pair, restricted_measure, shadow
from leftcurtain.oracle import shadow_lp
from leftcurtain.shadow import ShadowInvalid, _validate
from conftest import bank_instance, dm, random_instance
from exact_reference import exact_shadow


class TestShadowExamples:
    def test_equal_measures_shadow_to_target(self):
        nu = dm((-1.0, 0.5), (1.0, 0.5))
        assert shadow(nu, nu).tv_distance(nu) == 0.0

    def test_half_point_mass_into_two_points(self):
        # unique feasible measure on {-1, 1} with mass 1/2 and mean 0
        s = shadow(dm((0.0, 0.5)), dm((-1.0, 0.5), (1.0, 0.5)))
        assert s.tv_distance(dm((-1.0, 0.25), (1.0, 0.25))) <= 1e-12

    def test_half_point_mass_into_three_points(self):
        # frozen from the LP oracle (vertex enumeration of the 3-variable
        # program gives 1/12, 1/3, 1/12)
        mu = dm((0.0, 0.5))
        nu = dm((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3))
        expected = dm((-1.0, 1 / 12), (0.0, 1 / 3), (1.0, 1 / 12))
        assert shadow(mu, nu).tv_distance(expected) <= 1e-12
        assert shadow_lp(mu, nu).tv_distance(expected) <= 1e-9

    def test_mass_excess_rejected(self):
        with pytest.raises(ShadowInvalid):
            shadow(dm((0.0, 1.0)), dm((0.0, 0.5)))

    def test_full_mass_source_shadows_to_the_target_bitwise(self):
        # a source with the target's mass that lies below it in convex order
        # has all of the target as its shadow
        mu = dm((-1.0, 0.25), (-0.0, 0.5), (1.0, 0.25))
        pairs = [(mu, dm((-2.0, 0.2), (0.0, 0.6), (2.0, 0.2)))]
        for n in range(1, 41):
            mu = quantize_density([-1.0, 1.0], [0.5, 0.5], n)
            pairs.append((mu, quantize_density([-2.0, 2.0], [0.25, 0.25], n)))
            pairs.append((mu, quantize_density([-3.0, 0.0, 3.0], [0.0, 1 / 3, 0.0], n)))
        pairs += [random_cx_pair(seed, 1 + seed % 8, seed % 7) for seed in range(40)]
        for mu, nu in pairs:
            s = shadow(mu, nu)
            assert s.xs.tobytes() == nu.xs.tobytes()
            assert s.ws.tobytes() == nu.ws.tobytes()

    @pytest.mark.parametrize(
        "mu", [dm((-2.0, 0.5), (2.0, 0.5)), dm((0.5, 1.0)), dm((-1.5, 0.25), (0.5, 0.75))]
    )
    def test_full_mass_source_outside_convex_order_rejected(self, mu):
        # spread past the target on both sides, off the target's mean, and
        # past it on one side with the target's mean
        with pytest.raises(ShadowInvalid, match="convex order"):
            shadow(mu, dm((-1.0, 0.5), (1.0, 0.5)))

    def test_invalid_embedding_rejected(self):
        # mass fits but the source is too spread out for the target
        with pytest.raises(ShadowInvalid):
            shadow(dm((-5.0, 0.25), (5.0, 0.25)), dm((-1.0, 0.5), (1.0, 0.5)))


class TestShadowProperties:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_lp_oracle_at_target_atoms(self, seed):
        mu, nu = random_instance(seed)
        rng = np.random.default_rng(seed)
        for u in rng.uniform(0.05, 0.999, size=3):
            part = restricted_measure(mu, float(u))
            s_geo = shadow(part, nu)
            s_lp = shadow_lp(part, nu)
            p_geo = put_potential(s_geo, nu.xs)
            p_lp = put_potential(s_lp, nu.xs)
            assert np.abs(p_geo - p_lp).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_shadow_monotone_in_level(self, seed):
        mu, nu = random_instance(seed)
        levels = np.linspace(0.08, 0.98, 7)
        prev = None
        for u in levels:
            s = shadow(restricted_measure(mu, float(u)), nu)
            if prev is not None:
                # atomwise domination of the earlier shadow
                for x, w in zip(prev.xs, prev.ws):
                    assert w <= s.atom_weight(x) + 1e-9
            prev = s

    @pytest.mark.parametrize("seed", range(20))
    def test_mass_mean_conservation(self, seed):
        mu, nu = random_instance(seed)
        for u in (0.25, 0.7):
            part = restricted_measure(mu, u)
            s = shadow(part, nu)
            assert s.mass == pytest.approx(part.mass, abs=1e-12)
            assert s.mean == pytest.approx(part.mean, abs=1e-10)


class TestDominationCheck:
    """A shadow atom is held to the weight of the target atom within 1e-11
    of it; ``s`` is validated as the shadow of itself, so only the
    domination check can fail."""

    nu = dm((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25))

    @pytest.mark.parametrize("offset", [-5e-12, 5e-12])
    def test_atom_matched_on_either_side_passes(self, offset):
        s = dm((-1.0, 0.25), (offset, 0.5))
        _validate(s, self.nu, s)

    @pytest.mark.parametrize("atom", [(0.0, 0.5 + 1e-9), (0.5, 0.1)])
    def test_atom_above_target_weight_raises(self, atom):
        s = dm((-1.0, 0.25), atom)
        with pytest.raises(ShadowInvalid, match=f"shadow atom \\({atom[0]}, "):
            _validate(s, self.nu, s)


def test_shadow_matches_the_exact_rational_reference():
    """Each weight is within 1e-14 of the exact shadow's, on the same atoms
    up to weights that small."""
    worst = 0.0
    for seed in range(150):
        mu, nu = bank_instance(seed)
        rng = np.random.default_rng(seed + 2024)
        for u in rng.uniform(0.02, 0.998, size=3):
            part = restricted_measure(mu, float(u))
            s = shadow(part, nu)
            got = dict(zip(s.xs.tolist(), s.ws.tolist()))
            exact = {float(x): float(w) for x, w in exact_shadow(part, nu).items()}
            for x in got.keys() | exact.keys():
                worst = max(worst, abs(got.get(x, 0.0) - exact.get(x, 0.0)))
    assert worst <= 1e-14
