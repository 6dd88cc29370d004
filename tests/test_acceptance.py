"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  The central cross-validation compares the geometric construction
against the incremental-shadow LP oracle on a seeded bank of 500 random
convex-ordered pairs (source up to 8 atoms, target up to 14 via
mean-preserving splits); the remaining criteria exercise marginals, the
martingale property, left-monotonicity with mutation controls, the
envelope-slope laws, the quantile-form identity of the destination law,
Monte Carlo sampling, transport barriers at interior zeros of the
potential gap, and the quantised continuous (dispersion) regime.
"""

import time

import numpy as np
import pytest

from leftcurtain import (
    DiscreteMeasure,
    build_curtain,
    check_convex_order,
    coupling,
    curtain_incremental,
    decompose,
    joint_tv,
    quantize_density,
    sample_y_many,
    shadow,
    verify_left_monotone,
    verify_marginal_identity,
)
from leftcurtain.curtain import LiftedCoupling
from leftcurtain.oracle import PairReference, put_potential, restricted_measure, shadow_lp
from conftest import (
    bank_instance,
    barrier_instance,
    columns,
    interior_zeros,
    nontrivial_runs,
    phi_at,
    row_at,
    row_components,
    scaled,
    straddle_mass,
    td_tu,
    tv_distance,
)
from decompose_reference import decompose_reference

N_INSTANCES = 500


@pytest.fixture(scope="module")
def bank():
    """500 seeded instances with table, coupling, and oracle runtime."""
    instances = []
    t0 = time.time()
    for seed in range(N_INSTANCES):
        mu, nu = bank_instance(seed)
        assert mu.n_atoms <= 8 and nu.n_atoms <= 14
        table = build_curtain(mu, nu)
        pi = coupling(table, mu)
        oracle = curtain_incremental(mu, nu)
        instances.append((seed, mu, nu, table, pi, oracle))
    elapsed = time.time() - t0
    return instances, elapsed


def _line(num, ok, desc, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc} ({detail})")


def test_criterion_1_oracle_equivalence(bank):
    instances, elapsed = bank
    worst = 0.0
    for seed, mu, nu, table, pi, oracle in instances:
        tv = joint_tv((pi.joint_x, pi.joint_y, pi.joint_w), oracle)
        worst = max(worst, tv)
    ok = worst <= 1e-8 and elapsed <= 60.0
    _line(
        1,
        ok,
        "oracle equivalence on 500 instances",
        f"max TV {worst:.3e} <= 1e-8, bank built in {elapsed:.1f}s <= 60s",
    )
    assert worst <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2_shadow_formula_vs_lp():
    worst = 0.0
    for seed in range(200):
        mu, nu = bank_instance(seed)
        rng = np.random.default_rng(seed + 777)
        for u in rng.uniform(0.02, 0.998, size=5):
            part = restricted_measure(mu, float(u))
            p_geo = put_potential(shadow(part, nu), nu.xs)
            p_lp = put_potential(shadow_lp(part, nu), nu.xs)
            worst = max(worst, float(np.abs(p_geo - p_lp).max()))
    ok = worst <= 1e-9
    _line(2, ok, "shadow potential formula vs LP oracle", f"max gap {worst:.3e} <= 1e-9")
    assert ok


def test_criterion_3_marginals_and_martingale(bank):
    instances, _ = bank
    worst_tv = 0.0
    worst_mart = 0.0
    for seed, mu, nu, table, pi, oracle in instances:
        worst_tv = max(worst_tv, tv_distance(DiscreteMeasure(pi.joint_x, pi.joint_w), mu))
        worst_tv = max(worst_tv, tv_distance(DiscreteMeasure(pi.joint_y, pi.joint_w), nu))
        for x in np.unique(pi.joint_x):
            mask = pi.joint_x == x
            worst_mart = max(
                worst_mart, abs(float(((pi.joint_y[mask] - x) * pi.joint_w[mask]).sum()))
            )
    ok = worst_tv <= 1e-9 and worst_mart <= 1e-9
    _line(
        3,
        ok,
        "coupling marginals and martingale property",
        f"max marginal TV {worst_tv:.3e}, max martingale residual {worst_mart:.3e}",
    )
    assert ok


def test_criterion_4_left_monotonicity(bank):
    instances, _ = bank
    total = 0
    for seed, mu, nu, table, pi, oracle in instances:
        total += verify_left_monotone(pi)
    flagged = 0
    for seed, mu, nu, table, pi, oracle in instances[:20]:
        t = pi.intervals
        splitting = np.flatnonzero(t[:, 4] > t[:, 3])
        if not splitting.size:
            continue
        i = int(splitting[0])
        rows = np.concatenate((t[: i + 1], t[i : i + 1]))
        u_lo, u_hi, x, r, s = rows[i]
        # plant a later lower value inside the earlier open band
        rows[i + 1] = (u_hi, u_hi + 1e-3, x, 0.5 * (r + s), s + 1.0)
        bad = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
        if verify_left_monotone(bad) > 0:
            flagged += 1
        else:
            flagged -= 10**6
    ok = total == 0 and flagged > 0
    _line(
        4,
        ok,
        "left-monotonicity of destination tables",
        f"{total} violations on clean tables; {flagged} mutation controls flagged",
    )
    assert ok


def _component_frames(pi, mu, nu, table, components):
    """Map component index -> (offset, mass, pointwise reference of the
    component's probability pair); ``components`` is the component of every
    row of ``table``."""
    dec = decompose(pi, mu, nu)
    frames = {}
    for k, comp in enumerate(dec.components):
        offset = float(columns(table)["u_lo"][components == k].min())
        local = (scaled(comp.mu_part, 1 / comp.mass), scaled(comp.nu_part, 1 / comp.mass))
        frames[k] = (offset, comp.mass, PairReference(*local))
    return frames


def test_criterion_5_phi_laws(bank):
    instances, _ = bank
    lip_worst = 0.0
    mono_worst = 0.0
    fd_worst = 0.0
    for seed, mu, nu, table, pi, oracle in instances:
        # Lipschitz-type lower bound at interval representatives
        t = columns(table)
        mids = 0.5 * (t["u_lo"] + t["u_hi"])
        us = np.concatenate((mids, t["u_hi"]))
        ps = np.concatenate((phi_at(t, mids), phi_at(t, t["u_hi"])))
        order = np.lexsort((ps, us))
        us, ps = us[order], ps[order]
        for i in range(len(us)):
            gap = (ps[i] - (us[i:] - us[i])) - ps[i:]
            lip_worst = max(lip_worst, float(gap.max(initial=0.0)))
        # non-increasing along splitting runs
        for run in nontrivial_runs(table):
            last = None
            for idx in run:
                iv = row_at(table, idx)
                if last is not None:
                    mono_worst = max(mono_worst, iv["phi_lo"] - last)
                last = phi_at(iv, iv["u_hi"])
        # finite-difference slope identity, 20 interior points per run
        components = row_components(table, mu, nu)
        frames = _component_frames(pi, mu, nu, table, components)
        for run in nontrivial_runs(table):
            run_ivs = [row_at(table, i) for i in run]
            run_components = components[run]
            lo = run_ivs[0]["u_lo"]
            hi = run_ivs[-1]["u_hi"]
            for j in range(20):
                u = lo + (hi - lo) * (j + 0.5) / 20
                k = min(int(np.searchsorted([iv["u_hi"] for iv in run_ivs], u, side="left")), len(run) - 1)
                iv = run_ivs[k]
                length = iv["u_hi"] - iv["u_lo"]
                u = min(max(u, iv["u_lo"] + length / 4), iv["u_hi"] - length / 4)
                h = length / 8
                offset, w, ref = frames[int(run_components[k])]
                u_l = (u - offset) / w
                h_l = h / w
                fd = (ref.at(u_l + h_l).phi - ref.at(u_l - h_l).phi) / (2 * h_l)
                expect = -(iv["s"] - iv["x"]) / (iv["s"] - iv["r"])
                fd_worst = max(fd_worst, abs(fd - expect))
    ok = lip_worst <= 1e-10 and mono_worst <= 1e-10 and fd_worst <= 1e-6
    _line(
        5,
        ok,
        "envelope-slope laws",
        f"Lipschitz bound violation {lip_worst:.3e} <= 1e-10, "
        f"run monotonicity violation {mono_worst:.3e} <= 1e-10, "
        f"slope-identity FD error {fd_worst:.3e} <= 1e-6",
    )
    assert ok


def test_criterion_6_destination_law_identity():
    worst = 0.0
    for seed in range(100):
        mu, nu = bank_instance(seed)
        pi = coupling(build_curtain(mu, nu), mu)
        worst = max(worst, verify_marginal_identity(pi, nu, samples=100, seed=seed, mu=mu))
    ok = worst <= 1e-9
    _line(6, ok, "quantile-form destination law identity", f"max residual {worst:.3e} <= 1e-9")
    assert ok


def test_criterion_7_monte_carlo_marginal():
    worst = 0.0
    n = 10**6
    for seed in (11, 12, 13, 14, 15):
        mu, nu = bank_instance(seed)
        table = build_curtain(mu, nu)
        rng = np.random.default_rng(seed * 1001)
        us = rng.uniform(1e-12, 1.0, size=n)
        vs = rng.uniform(0.0, 1.0, size=n)
        ys = np.sort(sample_y_many(table, us, vs))
        # grid of non-atom points: midpoints plus outside probes
        mids = 0.5 * (nu.xs[1:] + nu.xs[:-1]) if nu.n_atoms > 1 else np.empty(0)
        grid = np.concatenate(([nu.xs[0] - 1.0], mids, [nu.xs[-1] + 1.0]))
        emp = np.searchsorted(ys, grid, side="right") / n
        ks = float(np.abs(emp - nu.cdf(grid)).max())
        worst = max(worst, ks)
    ok = worst <= 0.005
    _line(7, ok, "Monte Carlo destination marginal", f"max Kolmogorov distance {worst:.4f} <= 0.005")
    assert ok


def test_criterion_8_barrier_at_interior_zeros():
    worst = 0.0
    checked = 0
    for seed in range(50):
        mu, nu = barrier_instance(seed, with_shared_atom=(seed % 2 == 0))
        zeros = interior_zeros(decompose_reference(mu, nu))
        assert zeros, "engineered instance lost its interior zero"
        pi = coupling(build_curtain(mu, nu), mu)
        for z in zeros:
            worst = max(worst, straddle_mass(pi, z))
            checked += 1
    ok = worst <= 1e-12
    _line(
        8,
        ok,
        "no transport across interior zeros of the potential gap",
        f"max straddling mass {worst:.3e} <= 1e-12 over {checked} barriers",
    )
    assert ok


def _mass_mean_residuals(mu, nu, table, xs):
    td, tu = td_tu(table)
    res_mass = []
    res_mean = []
    for x in xs:
        t_d = td(x)
        t_u = tu(x)
        m_mask = (mu.xs > t_d) & (mu.xs <= x)
        n_mask = (nu.xs > t_d) & (nu.xs <= t_u)
        m1 = float(mu.ws[m_mask].sum())
        m2 = float(nu.ws[n_mask].sum())
        res_mass.append(abs(m1 - m2))
        s1 = float((mu.xs[m_mask] * mu.ws[m_mask]).sum())
        s2 = float((nu.xs[n_mask] * nu.ws[n_mask]).sum())
        res_mean.append(abs(s1 - s2))
    return float(np.mean(res_mass)), float(np.mean(res_mean))


def test_criterion_9_dispersion_regime():
    tables = {}
    maps = {}
    for n in (1000, 2000):
        mu = quantize_density([-1.0, 1.0], [0.5, 0.5], n)
        nu = quantize_density([-2.0, 0.0, 2.0], [0.25, 0.25, 0.25], n)
        assert check_convex_order(mu, nu)
        table = build_curtain(mu, nu)
        tables[n] = (mu, nu, table)
        maps[n] = td_tu(table)
        td, tu = maps[n]
        tu_vals = np.array([v[-1] for v in tu.values])
        td_vals = np.array([v[-1] for v in td.values])
        assert np.all(np.diff(tu_vals) >= -1e-12), f"upper map not monotone at n={n}"
        assert np.all(np.diff(td_vals) <= 1e-12), f"lower map not monotone at n={n}"

    grid = np.linspace(-0.95, 0.95, 401)
    tu_sup = max(abs(maps[1000][1](x) - maps[2000][1](x)) for x in grid)
    rng = np.random.default_rng(99)
    xs = rng.uniform(-0.9, 0.9, size=20)
    mass_1000, mean_1000 = _mass_mean_residuals(*tables[1000], xs)
    mass_2000, mean_2000 = _mass_mean_residuals(*tables[2000], xs)
    shrink = mass_2000 <= mass_1000 and mean_2000 <= mean_1000
    ok = tu_sup <= 0.02 and shrink
    _line(
        9,
        ok,
        "quantised dispersion regime",
        f"sup upper-map gap {tu_sup:.4f} <= 0.02; mass residual {mass_1000:.2e} -> {mass_2000:.2e}; "
        f"mean residual {mean_1000:.2e} -> {mean_2000:.2e}",
    )
    assert tu_sup <= 0.02
    assert shrink
