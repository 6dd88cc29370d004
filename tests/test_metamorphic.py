"""Metamorphic properties of the curtain table.

Scaling every position by ``lam > 0`` maps the coupling covariantly: the
levels ``u`` stay, the positions ``x, r, s`` scale by ``lam``, and
``phi``, a slope of potentials against positions, stays too, with its
slope in ``u`` on every row.  For a power of two every product is exact,
so the tables agree bit for bit.  The order in which atoms are given,
and splitting an atom into two halves at one position, do not change the
measures, so they leave the table identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leftcurtain import DiscreteMeasure, build_curtain, coupling, random_cx_pair, verify_all
from conftest import columns, dphi, row_components

pairs = st.builds(
    random_cx_pair,
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.integers(0, 6),
)


def scaled_table(mu, nu, lam):
    """The rows of the pair scaled by ``lam`` and the component of each row."""
    mu, nu = DiscreteMeasure(mu.xs * lam, mu.ws), DiscreteMeasure(nu.xs * lam, nu.ws)
    table = build_curtain(mu, nu)
    assert verify_all(table, coupling(table, mu), mu, nu).passed(), lam
    return columns(table), row_components(table, mu, nu)


@given(pairs, st.floats(-6.0, 6.0))
@settings(max_examples=80, deadline=None)
def test_scaling_positions_scales_the_table(pair, log_lam):
    mu, nu = pair
    lam = 10.0**log_lam
    base_table = build_curtain(mu, nu)
    base, base_components = columns(base_table), row_components(base_table, mu, nu)
    t, components = scaled_table(mu, nu, lam)
    assert len(t["x"]) == len(base["x"])
    for name in ("u_lo", "u_hi", "phi_lo"):
        assert np.abs(t[name] - base[name]).max() <= 1e-12, name
    assert np.abs(dphi(t) - dphi(base)).max() <= 1e-12
    for name in ("x", "r", "s"):
        assert np.abs(t[name] - lam * base[name]).max() <= 1e-12 * lam, name
    assert np.array_equal(components, base_components)


def test_a_mean_rounded_near_the_origin_scales_with_the_positions():
    # scaled by 10**5.5 the pair's means round 1.455e-11 apart around 0,
    # which a mean test absolute near the origin rejected; judged relative
    # to the positions' size the pair builds, with the unscaled rows
    mu, nu = random_cx_pair(11154, 1, 2)
    t, _ = scaled_table(mu, nu, 10.0**5.5)
    assert len(t["x"]) == len(build_curtain(mu, nu).intervals)


@given(pairs, st.integers(-20, 20))
@settings(max_examples=40, deadline=None)
def test_scaling_by_a_power_of_two_is_exact(pair, exponent):
    mu, nu = pair
    lam = 2.0**exponent
    base_table = build_curtain(mu, nu)
    base, base_components = columns(base_table), row_components(base_table, mu, nu)
    t, components = scaled_table(mu, nu, lam)
    assert np.array_equal(components, base_components)
    for name in ("u_lo", "u_hi", "phi_lo"):
        assert np.array_equal(t[name], base[name]), name
    assert np.array_equal(dphi(t), dphi(base))
    for name in ("x", "r", "s"):
        assert np.array_equal(t[name], lam * base[name]), name


def reshuffled(eta, rng):
    """The atoms of ``eta`` in a random order, one of them split in two
    halves at its position."""
    order = rng.permutation(eta.n_atoms)
    xs, ws = eta.xs[order], eta.ws[order]
    j = int(rng.integers(eta.n_atoms))
    xs = np.append(xs, xs[j])
    ws = np.append(ws, 0.5 * ws[j])
    ws[j] *= 0.5
    return DiscreteMeasure(xs, ws)


@given(pairs, st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_atom_order_and_split_atoms_leave_the_table_unchanged(pair, salt):
    mu, nu = pair
    rng = np.random.default_rng(salt)
    base = build_curtain(mu, nu).intervals
    t = build_curtain(reshuffled(mu, rng), reshuffled(nu, rng)).intervals
    assert t.tobytes() == base.tobytes()
