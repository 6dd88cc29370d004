import numpy as np
import pytest

from leftcurtain import (
    DecomposeError,
    DiscreteMeasure,
    build_curtain,
    coupling,
    decompose,
    quantize_density,
    random_cx_pair,
)
from conftest import (
    atom_weight,
    bank_instance,
    barrier_instance,
    decompose_pair,
    dm,
    interior_zeros,
    measure_sum,
    random_instance,
    reassemble,
    scaled,
    straddle_mass,
    tv_distance,
)
from decompose_reference import decompose_reference
from shadow_oracle import restricted_second_marginal


class TestDecomposeExamples:
    def test_single_component(self):
        dec = decompose_pair(dm((0.0, 1.0)), dm((-1.0, 0.5), (1.0, 0.5)))
        assert len(dec.components) == 1
        comp = dec.components[0]
        assert (comp.a, comp.b) == (-1.0, 1.0)
        assert dec.static.n_atoms == 0

    def test_split_at_zero_shares_central_atom(self, split_pair):
        mu, nu = split_pair
        dec = decompose_pair(mu, nu)
        assert len(dec.components) == 2
        left, right = dec.components
        assert (left.a, left.b) == (-2.0, 0.0)
        assert (right.a, right.b) == (0.0, 2.0)
        assert tv_distance(left.mu_part, dm((-1.0, 0.5))) == 0.0
        assert tv_distance(left.nu_part, dm((-2.0, 0.25), (0.0, 0.25))) == 0.0
        assert tv_distance(right.nu_part, dm((0.0, 0.25), (2.0, 0.25))) == 0.0
        assert left.includes_b and right.includes_a

    def test_equal_laws_are_fully_static(self):
        eta = dm((-1.0, 0.5), (1.0, 0.5))
        dec = decompose_pair(eta, eta)
        assert dec.components == ()
        assert tv_distance(dec.static, eta) == 0.0

    def test_source_atom_on_zero_stays_static(self):
        # target carries enough mass at the interior zero for the source
        # atom there to be transported identically
        mu = dm((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25))
        nu = dm((-2.0, 0.125), (0.0, 0.75), (2.0, 0.125))
        dec = decompose_pair(mu, nu)
        assert atom_weight(dec.static, 0.0) == pytest.approx(0.5)
        assert len(dec.components) == 2

    def test_unordered_inputs_rejected(self):
        with pytest.raises(DecomposeError):
            decompose_pair(dm((-1.0, 0.5), (1.0, 0.5)), dm((0.0, 1.0)))


class TestDecomposeProperties:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("shared", [False, True])
    def test_reassembly_recovers_inputs(self, seed, shared):
        mu, nu = barrier_instance(seed, with_shared_atom=shared)
        dec = decompose_pair(mu, nu)
        got_mu, got_nu = reassemble(dec)
        assert tv_distance(got_mu, mu) <= 1e-12
        assert tv_distance(got_nu, nu) <= 1e-12
        for comp in dec.components:
            assert comp.mu_part.mass == pytest.approx(comp.nu_part.mass, abs=1e-12)
            assert comp.mu_part.mean == pytest.approx(comp.nu_part.mean, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_coupling_never_crosses_interior_zeros(self, seed):
        mu, nu = barrier_instance(seed, with_shared_atom=(seed % 2 == 0))
        pi = coupling(build_curtain(mu, nu), mu)
        for z in interior_zeros(decompose_reference(mu, nu)):
            assert straddle_mass(pi, z) <= 1e-12

    def test_per_component_equals_global(self, split_pair):
        """Transport computed per component matches the global table."""
        mu, nu = split_pair
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        dec = decompose(pi, mu, nu)
        offset = 0.0
        for comp in dec.components:
            local = build_curtain(
                scaled(comp.mu_part, 1 / comp.mass), scaled(comp.nu_part, 1 / comp.mass)
            )
            local_pi = coupling(local, scaled(comp.mu_part, 1 / comp.mass))
            sub = restricted_second_marginal(pi, offset + comp.mass)
            prev = restricted_second_marginal(pi, offset) if offset else None
            local_scaled = scaled(DiscreteMeasure(local_pi.joint_y, local_pi.joint_w), comp.mass)
            if prev is not None:
                merged = measure_sum(prev, local_scaled)
                assert tv_distance(sub, merged) <= 1e-12
            else:
                assert tv_distance(sub, local_scaled) <= 1e-12
            offset += comp.mass


def reference_pairs():
    """Random, bank and barrier pairs, the barriers with and without target
    mass on the barrier."""
    yield from (random_cx_pair(s, 1 + s % 8, s % 7) for s in range(300))
    yield from (bank_instance(s) for s in range(500))
    yield from (random_instance(s) for s in range(500))
    for s in range(40):
        yield barrier_instance(s)
        yield barrier_instance(s, with_shared_atom=True)


def same_bits(a, b):
    return a.tobytes() == b.tobytes()


def test_components_read_off_the_coupling_match_the_zeros_of_the_gap():
    worst = 0.0
    for mu, nu in reference_pairs():
        got, want = decompose_pair(mu, nu), decompose_reference(mu, nu)
        assert len(got.components) == len(want.components)
        assert same_bits(got.static.xs, want.static.xs)
        assert same_bits(got.static.ws, want.static.ws)
        for c, d in zip(got.components, want.components):
            assert abs(c.a - d.a) <= 1e-12 and abs(c.b - d.b) <= 1e-12
            assert (c.includes_a, c.includes_b) == (d.includes_a, d.includes_b)
            assert same_bits(c.mu_part.xs, d.mu_part.xs)
            assert same_bits(c.mu_part.ws, d.mu_part.ws)
            assert same_bits(c.nu_part.xs, d.nu_part.xs)
            worst = max(worst, float(np.abs(c.nu_part.ws - d.nu_part.ws).max()))
    assert worst <= 1e-12


def test_component_masses_balance_on_the_uniform_pair():
    # the boundary weights of nu_part are sums of joint weights, so they
    # carry the coupling's marginal error; with the levels and F_nu read
    # from compensated cumulative weights the two masses agree
    mu = quantize_density([-1.0, 1.0], [0.5, 0.5], 4000)
    nu = quantize_density([-2.0, 2.0], [0.25, 0.25], 4000)
    dec = decompose_pair(mu, nu)
    assert dec.components
    for comp in dec.components:
        assert abs(comp.nu_part.mass - comp.mu_part.mass) <= 1e-15
