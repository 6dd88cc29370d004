import numpy as np
import pytest

from leftcurtain import (
    CurtainTable,
    DecomposeError,
    DiscreteMeasure,
    build_curtain,
    check_convex_order,
    coupling,
    quantize_density,
    random_cx_pair,
    shadow,
    verify_all,
)
import leftcurtain.curtain as curtain
from leftcurtain.curtain import _check_overdraw, _walk
from leftcurtain.measures import DEFAULT_TOL
from leftcurtain.oracle import put_potential, restricted_measure, shadow_lp
from leftcurtain.shadow import _validate
from conftest import atom_weight, bank_instance, dm, random_instance, tv_distance
from exact_reference import exact_shadow
from shadow_hull_reference import hull_shadow


class TestShadowExamples:
    def test_equal_measures_shadow_to_target(self):
        nu = dm((-1.0, 0.5), (1.0, 0.5))
        assert tv_distance(shadow(nu, nu), nu) == 0.0

    def test_half_point_mass_into_two_points(self):
        # unique feasible measure on {-1, 1} with mass 1/2 and mean 0
        s = shadow(dm((0.0, 0.5)), dm((-1.0, 0.5), (1.0, 0.5)))
        assert tv_distance(s, dm((-1.0, 0.25), (1.0, 0.25))) <= 1e-12

    def test_half_point_mass_into_three_points(self):
        # frozen from the LP oracle (vertex enumeration of the 3-variable
        # program gives 1/12, 1/3, 1/12)
        mu = dm((0.0, 0.5))
        nu = dm((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3))
        expected = dm((-1.0, 1 / 12), (0.0, 1 / 3), (1.0, 1 / 12))
        assert tv_distance(shadow(mu, nu), expected) <= 1e-12
        assert tv_distance(shadow_lp(mu, nu), expected) <= 1e-9

    def test_an_empty_source_has_an_empty_shadow(self):
        s = shadow(DiscreteMeasure([], []), dm((-1.0, 0.5), (1.0, 0.5)))
        assert s.n_atoms == 0 and s.mass == 0.0

    def test_mass_excess_rejected(self):
        with pytest.raises(DecomposeError, match="source mass 1.0 exceeds target mass 0.5") as info:
            shadow(dm((0.0, 1.0)), dm((0.0, 0.5)))
        assert (info.value.witness, info.value.gap) == (None, 0.5)

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
        with pytest.raises(DecomposeError, match="convex order"):
            shadow(mu, dm((-1.0, 0.5), (1.0, 0.5)))

    def test_invalid_embedding_rejected(self):
        # mass fits but the source is too spread out for the target: its
        # first atom has no target atom left of it for all of its mass
        with pytest.raises(DecomposeError, match="one side") as info:
            shadow(dm((-5.0, 0.25), (5.0, 0.25)), dm((-1.0, 0.5), (1.0, 0.5)))
        assert (info.value.witness, info.value.gap) == (-5.0, 0.25)

    def test_overdrawn_target_atom_rejected(self):
        # both atoms lie inside the target's support, but the atom at 0.9
        # sends 0.38 to 1, where only 0.25 is left after the atom at 0: the
        # walk overdraws the target's atom there by 0.13
        with pytest.raises(DecomposeError, match="overdraws nu by 1.300e-01, most at 1.0") as info:
            shadow(dm((0.0, 0.5), (0.9, 0.4)), dm((-1.0, 0.5), (1.0, 0.5)))
        # the walk's error reaches the caller with its witness and gap
        assert (info.value.witness, info.value.gap) == (1.0, pytest.approx(0.13))


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
                    assert w <= atom_weight(s, x) + 1e-9
            prev = s

    @pytest.mark.parametrize("seed", range(20))
    def test_mass_mean_conservation(self, seed):
        mu, nu = random_instance(seed)
        for u in (0.25, 0.7):
            part = restricted_measure(mu, u)
            s = shadow(part, nu)
            assert s.mass == pytest.approx(part.mass, abs=1e-12)
            assert s.mean == pytest.approx(part.mean, abs=1e-10)


class TestValidation:
    """The shadow's mass and mean are judged by the tolerances of
    ``measures``: the mass within ``DEFAULT_TOL``, the mean within
    ``DEFAULT_TOL`` times the shadow's largest distance from the origin."""

    def test_a_mass_or_mean_gap_raises_the_order_error_with_the_gap(self):
        with pytest.raises(DecomposeError, match="shadow mass 0.4 != source mass 0.5") as info:
            _validate(dm((0.0, 0.5)), dm((0.0, 0.4)))
        assert info.value.gap == pytest.approx(0.1)
        with pytest.raises(DecomposeError, match="shadow mean") as info:
            _validate(dm((0.0, 0.5)), dm((1e-6, 0.5)))
        assert info.value.gap == pytest.approx(5e-7)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e8, 1e12])
    def test_the_mean_test_scales_with_the_positions(self, scale):
        # a relative mean gap of 1e-10 passes at every scale, 1e-8 at none
        part = dm((scale, 0.5))
        _validate(part, dm((scale * (1 + 1e-10), 0.5)))
        with pytest.raises(DecomposeError, match="shadow mean"):
            _validate(part, dm((scale * (1 + 1e-8), 0.5)))

    def test_an_empty_shadow_is_judged_without_an_atom(self):
        _validate(dm((0.0, 1e-14)), DiscreteMeasure([], []))


@pytest.mark.parametrize("scale", [1e-6, 1e8, 1e12])
def test_left_parts_keep_their_shadows_when_positions_scale(scale):
    # the left parts at 0.3 and 0.7 of 200 ordered pairs: judged against
    # max(1, |mean|), 3 of them lost their shadow at 1e8 and 2 at 1e12
    for seed in range(200):
        mu, nu = random_cx_pair(seed, 1 + seed % 5, seed % 4)
        nu = DiscreteMeasure(nu.xs * scale, nu.ws)
        for u in (0.3, 0.7):
            part = restricted_measure(mu, u)
            got = shadow(DiscreteMeasure(part.xs * scale, part.ws), nu)
            assert got.mass == pytest.approx(part.mass, abs=1e-12)


class TestOverdrawRule:
    """The walk's overdraw of ``nu`` is judged in total, whatever the
    source's mass: at most ``DEFAULT_TOL`` over the target's atoms, however
    it is spread among them."""

    nu = dm((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25))

    def test_overdraw_within_the_tolerance_passes(self):
        # each atom is overdrawn by more than the retired per-atom slack 1e-10
        _check_overdraw(self.nu, [-4e-10, 0.5, -4e-10])

    def test_overdraw_above_the_tolerance_raises_at_the_most_overdrawn_atom(self):
        with pytest.raises(DecomposeError, match="overdraws nu by 1.100e-09, most at 1.0") as info:
            _check_overdraw(self.nu, [-5e-10, 0.0, -6e-10])
        assert (info.value.witness, info.value.gap) == (1.0, pytest.approx(1.1e-9))


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


def hull_reference_sources(seed):
    """Three sub-probability sources in the target of the bank pair ``seed``:
    a left restriction, a random sub-measure and half of the source with its
    positions perturbed, which often leaves it without a shadow."""
    mu, nu = random_cx_pair(seed, 1 + seed % 8, seed % 7)
    rng = np.random.default_rng(seed + 4096)
    yield restricted_measure(mu, float(rng.uniform(0.02, 0.998))), nu
    keep = rng.uniform(0.0, 1.0, size=mu.n_atoms) * (rng.uniform(size=mu.n_atoms) < 0.8)
    if keep.any() and (keep < 1).any():
        yield DiscreteMeasure(mu.xs[keep > 0], (mu.ws * keep)[keep > 0]), nu
    else:
        yield DiscreteMeasure(mu.xs, 0.7 * mu.ws), nu
    jitter = rng.normal(0.0, [0.01, 0.1, 0.5, 2.0][seed % 4], size=mu.n_atoms)
    yield DiscreteMeasure(mu.xs + jitter, 0.5 * mu.ws), nu


def _attempt(fn, mu, nu):
    """``fn(mu, nu)`` and an empty message, or ``None`` and the message of
    the :class:`DecomposeError` it raises."""
    try:
        return fn(mu, nu), ""
    except DecomposeError as exc:
        return None, str(exc)


def test_shadow_matches_the_frozen_hull_route():
    """The walk's shadow and the retired hull route accept and reject the
    same 1800 sources and agree within TV 1e-14 on the accepted ones."""
    accepted = rejected = 0
    worst = 0.0
    for seed in range(600):
        for mu, nu in hull_reference_sources(seed):
            (got, _), (want, _) = _attempt(shadow, mu, nu), _attempt(hull_shadow, mu, nu)
            assert (got is None) == (want is None), (seed, got, want)
            if got is None:
                rejected += 1
            else:
                accepted += 1
                worst = max(worst, tv_distance(got, want))
    assert accepted > 1000 and rejected > 100
    assert worst <= 1e-14


class TestRoundedSources:
    """Sources that leave the target's convex order only through the
    rounding of positions far from the origin.  The walk's shadow rejects
    them in mass units: a source atom with no target mass left on one side,
    or a walk that overdraws the target's atoms by more than ``DEFAULT_TOL``
    in total, the rule of the order verdict.  The retired hull route judged
    them in potential units and accepted some of them.  The full-mass
    branch takes the walk's verdict too, so it rejects a source whose parts
    the walk rejects.  Tolerances derived from the instance should bring
    these verdicts together."""

    #: positions rounded 2.3e-10 apart at 1e6: mu's upper atom lies right
    #: of nu's support, which the potential check accepts with gap 0
    HAND_MU = DiscreteMeasure(
        [999999.9421465949, 999999.9730576744], [0.7922671063943849, 0.20773289360561503]
    )
    HAND_NU = DiscreteMeasure(
        [999999.9421465949, 999999.9730576742], [0.7922671063943849, 0.20773289360561503]
    )

    def test_hand_pair_shadows_only_below_the_upper_atom(self):
        # below the upper atom's levels the source sits on nu's lower atom
        part = restricted_measure(self.HAND_MU, 0.5)
        assert tv_distance(shadow(part, self.HAND_NU), hull_shadow(part, self.HAND_NU)) == 0.0
        parts = [restricted_measure(self.HAND_MU, u) for u in (0.9, 0.99999, 1.0 - 1e-9)]
        for part in (*parts, self.HAND_MU):
            with pytest.raises(DecomposeError, match="one side"):
                shadow(part, self.HAND_NU)
        # the hull route accepted the two parts nearest to full mass, and the
        # whole source on the potential check's verdict
        for u in (0.99999, 1.0 - 1e-9):
            hull_shadow(restricted_measure(self.HAND_MU, u), self.HAND_NU)
        assert hull_shadow(self.HAND_MU, self.HAND_NU) is self.HAND_NU

    @staticmethod
    def shifted_barycentre_pair(seed):
        """``nu`` with 2-29 atoms spread over 1e-3 to 1e3, and ``mu`` the
        barycentres of consecutive groups of its atoms, both shifted by 1e6,
        -1e6 or 1e8: in convex order up to the rounding of positions."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 30))
        spread = 10.0 ** rng.uniform(-3, 3)
        ys = np.sort(rng.uniform(-spread, spread, k))
        w = rng.uniform(0.1, 1.0, k)
        w /= w.sum()
        cuts = np.sort(rng.choice(np.arange(1, k), size=int(rng.integers(0, k)), replace=False))
        groups = np.split(np.arange(k), cuts)
        xs = [float(np.dot(ys[g], w[g]) / w[g].sum()) for g in groups]
        shift = [1e6, -1e6, 1e8][seed % 3]
        mu = DiscreteMeasure(np.array(xs) + shift, [float(w[g].sum()) for g in groups])
        return mu, DiscreteMeasure(ys + shift, w)

    def test_the_build_rejects_exactly_the_pairs_whose_walk_coupling_fails(self, monkeypatch):
        # the walk's coupling passes verify_all exactly when the build, whose
        # order verdict is that walk, accepts the pair: 216 of 300.  The
        # coupling is taken from the walk without its overdraw judgement, so
        # that verify_all judges the overdraw on its own
        built = 0
        for seed in range(300):
            mu, nu = self.shifted_barycentre_pair(seed)
            try:
                with monkeypatch.context() as unjudged:
                    unjudged.setattr(curtain, "_check_overdraw", lambda nu, left: None)
                    rows, _ = _walk(mu, nu, 1.0)
                rows = np.array(rows).reshape(-1, 6)
                table = CurtainTable(rows[:, :5], rows[:, 5])
                passes = verify_all(None, coupling(table, mu), mu, nu).passed()
            except DecomposeError:
                passes = False
            try:
                build_curtain(mu, nu)
            except DecomposeError:
                assert not passes, seed
            else:
                assert passes, seed
                built += 1
        assert built == 216

    @pytest.mark.parametrize("seed", [3, 6, 22, 32, 35, 36, 62, 73])
    def test_a_left_part_of_an_ordered_pair_has_a_shadow(self, seed):
        # the walk of each pair passes the order verdict, and the walk of its
        # left part overdraws nu by 1.1e-10 to 8.5e-10 in total: within the
        # same rule, so the part has a shadow, with the part's mass
        mu, nu = self.shifted_barycentre_pair(seed)
        assert check_convex_order(mu, nu)
        part = restricted_measure(mu, 0.99999)
        _, left = _walk(part, nu, part.mass)
        assert 1e-10 < -sum(w for w in left if w < 0.0) <= DEFAULT_TOL
        assert shadow(part, nu).mass == pytest.approx(part.mass, abs=1e-12)

    def test_shifted_barycentre_pairs_pin_the_verdicts(self):
        # 360 left restrictions: the walk rejects 33, all by overdraw, 18 of
        # which the hull route accepted; the hull route rejected 22, 7 of
        # which the walk accepts.  Where both accept they agree within TV
        # DEFAULT_TOL, the overdraw the walk may leave (8.5e-10 measured)
        verdicts = {}
        worst = 0.0
        for seed in range(120):
            mu, nu = self.shifted_barycentre_pair(seed)
            for u in (0.3, 0.7, 0.99999):
                part = restricted_measure(mu, u)
                (got, why), (want, _) = _attempt(shadow, part, nu), _attempt(hull_shadow, part, nu)
                key = (got is not None, want is not None)
                verdicts[key] = verdicts.get(key, 0) + 1
                if got is None:
                    assert "overdraws nu" in why, (seed, u, why)
                elif want is not None:
                    worst = max(worst, tv_distance(got, want))
        assert verdicts == {(True, True): 320, (False, True): 18, (False, False): 15, (True, False): 7}
        assert worst <= DEFAULT_TOL
