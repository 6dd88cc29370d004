"""Column consumers of the curtain table against plain per-row loops.

Each reference walks the rows one at a time, the way the definitions
read.  Where the arithmetic is the same the results must be equal; the
destination law and phi sum in another order, so they get a tolerance of
a few float64 ulps of their [0, 1] range.
"""

import numpy as np
import pytest

from leftcurtain import (
    build_curtain,
    coupling,
    quantize_density,
    verify_left_monotone,
    verify_marginal_identity,
)
from leftcurtain.curtain import LiftedCoupling
from leftcurtain.measures import POS_EPS
from leftcurtain.verify import VerificationReport, _row_phi, _s_inverse, _sample_points
from conftest import columns, destination_cdf, nontrivial_runs, random_instance, rows_of


def _split(row):
    return row["s"] > row["r"]


def loop_coupling(table):
    pairs = {}
    for row in rows_of(table):
        du = row["u_hi"] - row["u_lo"]
        if du <= 0:
            continue
        g = float(row["x"])
        if not _split(row):
            pairs[(g, g)] = pairs.get((g, g), 0.0) + du
            continue
        w_r = (row["s"] - row["x"]) / (row["s"] - row["r"])
        for y, w in ((float(row["r"]), du * w_r), (float(row["s"]), du * (1.0 - w_r))):
            pairs[(g, y)] = pairs.get((g, y), 0.0) + w
    keys = sorted(k for k in pairs if pairs[k] > 0)
    return (
        np.array([k[0] for k in keys]),
        np.array([k[1] for k in keys]),
        np.array([pairs[k] for k in keys]),
    )


def loop_left_monotone(pi):
    """Row by row, the later rows whose s drops below the row's, and those
    whose r falls inside the row's band."""
    r, s = pi.intervals[:, 3], pi.intervals[:, 4]
    count = 0
    for i in range(len(r)):
        later_r, later_s = r[i + 1 :], s[i + 1 :]
        count += int(np.count_nonzero(later_s < s[i] - POS_EPS))
        count += int(np.count_nonzero((r[i] + POS_EPS < later_r) & (later_r < s[i] - POS_EPS)))
    return count


def loop_destination_cdf(pi, y):
    v = loop_s_inverse(pi, y)
    total = v
    for u_lo, u_hi, x, r, s in pi.intervals.tolist():
        frac = u_hi - max(u_lo, v)
        if u_hi <= v or frac <= 0:
            continue
        if not s > r:
            total += frac if x <= y else 0.0
        elif r <= y:
            total += frac * (s - x) / (s - r)
    return total


def loop_s_inverse(pi, y):
    value = 0.0
    for _, u_hi, _, _, s in pi.intervals.tolist():
        if s <= y:
            value = float(u_hi)
    return value


def loop_phi(table, u, right_limit=False):
    """phi at ``u``, or its right limit; the row holding ``u`` is the first
    with ``u <= u_hi`` (the last row past the end), and on it phi falls at
    the rate ``(s - x) / (s - r)`` where the kernel splits."""
    rows = rows_of(table)
    if u <= 0.0:
        return float(rows[0]["phi_lo"])
    if right_limit and u >= 1.0:
        return 0.0
    i = next((i for i, row in enumerate(rows) if u <= row["u_hi"]), len(rows) - 1)
    if right_limit and not rows[i]["u_hi"] - u > 1e-15:
        return float(rows[i + 1]["phi_lo"]) if i + 1 < len(rows) else 0.0
    row = rows[i]
    slope = -(row["s"] - row["x"]) / (row["s"] - row["r"]) if _split(row) else 0.0
    return float(row["phi_lo"] + slope * (u - row["u_lo"]))


def loop_row_phi(pi, nu):
    """phi at the start of every row of ``pi``, row by row as the walk
    keeps it: the target mass up to the row's upper atom, less what is
    left of that atom, less the row's start level."""
    left = nu.ws.copy()
    out = []
    for u_lo, u_hi, x, r, s in pi.intervals:
        share = (s - x) / (s - r) if s > r else 1.0
        upper = nu.atom_index(s if s > r else x)
        out.append(nu.cum_weights[upper] - left[upper] - u_lo if upper >= 0 else np.nan)
        for y, w in ((r if s > r else x, share), (s, 1.0 - share)):
            k = nu.atom_index(y)
            if k >= 0:
                left[k] -= max(u_hi - u_lo, 0.0) * w
    return np.array(out)


def loop_runs(table):
    runs, current = [], []
    for i, row in enumerate(rows_of(table)):
        if not _split(row):
            if current:
                runs.append(current)
                current = []
            continue
        if current and not row["x"] < columns(table)["s"][current[-1]] - POS_EPS:
            runs.append(current)
            current = []
        current.append(i)
    if current:
        runs.append(current)
    return runs


@pytest.mark.parametrize("seed", range(30))
def test_columns_match_row_loops(seed):
    mu, nu = random_instance(seed)
    table = build_curtain(mu, nu)
    pi = coupling(table, mu)
    for got, want in zip((pi.joint_x, pi.joint_y, pi.joint_w), loop_coupling(table)):
        assert np.array_equal(got, want)
    assert verify_left_monotone(pi) == loop_left_monotone(pi)
    assert nontrivial_runs(table) == loop_runs(table)
    ys = np.linspace(nu.xs[0] - 1.0, nu.xs[-1] + 1.0, 41)
    for y, got in zip(ys, destination_cdf(pi, ys)):
        assert destination_cdf(pi, y) == pytest.approx(
            loop_destination_cdf(pi, y), abs=4 * np.finfo(float).eps
        )
        assert got == destination_cdf(pi, y)
    ys = np.concatenate((ys, nu.xs, columns(table)["s"]))
    assert _s_inverse(pi, ys)[0].tolist() == [loop_s_inverse(pi, y) for y in ys]
    # phi from the rows sums each atom's earlier sends in another order
    # than the walk, within one float64 ulp of 1
    phi = _row_phi(pi, mu, nu)
    assert phi == pytest.approx(loop_row_phi(pi, nu), rel=0.0, abs=np.finfo(float).eps)
    assert phi == pytest.approx(table.phi_lo, rel=0.0, abs=np.finfo(float).eps)
    report = VerificationReport()
    verify_marginal_identity(pi, nu, samples=60, seed=seed, mu=mu, report=report)
    ys = _sample_points(np.random.default_rng(seed), np.union1d(nu.xs, mu.xs), 60)
    worst = 0.0
    for y in ys[ys >= nu.support_left]:
        v = loop_s_inverse(pi, y)
        x = nu.cdf(y) - v
        left = loop_phi(table, v) if v > 0 else 0.0
        worst = max(worst, left - x, x - loop_phi(table, v, right_limit=True))
    eps = np.finfo(float).eps
    assert report.phi_sandwich_violation_max == pytest.approx(worst, rel=0.0, abs=eps)


@pytest.mark.parametrize("seed", range(10))
def test_violation_count_matches_loop_on_shuffled_rows(seed):
    mu, nu = random_instance(seed)
    pi = coupling(build_curtain(mu, nu), mu)
    rows = pi.intervals.copy()
    rows[:, 3:] = rows[np.random.default_rng(seed).permutation(len(rows)), 3:]
    shuffled = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
    assert verify_left_monotone(shuffled) == loop_left_monotone(shuffled)


def lifted_rows(r, s):
    """A coupling whose rows carry the lower values ``r`` and upper values
    ``s``; the count reads nothing else."""
    rows = np.zeros((len(r), 5))
    rows[:, 3], rows[:, 4] = r, s
    return LiftedCoupling(rows, np.empty(0), np.empty(0), np.empty(0))


@pytest.mark.parametrize("kind", ["random", "nan"])
@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 128, 129, 1500])
def test_violation_count_matches_loop_across_leaves(n, kind):
    # rows are compared 64 at a time, then merged in blocks of 64, 128, ...;
    # positions on a 0.1 grid make ties and equal band ends common
    rng = np.random.default_rng(n)
    r = np.round(rng.normal(size=n), 1)
    s = r + np.abs(np.round(rng.normal(size=n), 1))
    if kind == "nan":
        # a NaN compares false on either side, like in the loop
        r[rng.random(n) < 0.1] = np.nan
        s[rng.random(n) < 0.1] = np.nan
    pi = lifted_rows(r, s)
    assert verify_left_monotone(pi) == loop_left_monotone(pi)


@pytest.mark.parametrize("n", [1000, 4000])
def test_violation_count_matches_loop_on_a_shuffled_uniform_coupling(n):
    mu = quantize_density([-1.0, 1.0], [0.5, 0.5], n)
    nu = quantize_density([-2.0, 2.0], [0.25, 0.25], n)
    pi = coupling(build_curtain(mu, nu), mu)
    assert len(pi.intervals) == 3 * n // 2
    assert verify_left_monotone(pi) == 0
    rows = pi.intervals.copy()
    rows[:, 3:] = rows[np.random.default_rng(n).permutation(len(rows)), 3:]
    shuffled = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
    count = verify_left_monotone(shuffled)
    assert count > len(rows) ** 2 // 8
    assert count == loop_left_monotone(shuffled)


def _below(x):
    return float(np.nextafter(x, -np.inf))


def _above(x):
    return float(np.nextafter(x, np.inf))


R_I, S_I = 0.3, 1.7


@pytest.mark.parametrize(
    "r_j, s_j, violates",
    [
        (R_I, S_I - POS_EPS, False),
        (R_I, _below(S_I - POS_EPS), True),
        (R_I + POS_EPS, S_I, False),
        (_above(R_I + POS_EPS), S_I, True),
        (S_I - POS_EPS, S_I, False),
        (_below(S_I - POS_EPS), S_I, True),
    ],
)
def test_violation_count_pins_both_strict_boundaries(r_j, s_j, violates):
    # row i = (0.3, 1.7) sits between 70 copies of row j before it and 150
    # after it, so its pairs lie both inside its leaf of 64 rows and across
    # leaves; only the pairs (i, later j) can violate
    r = np.array([r_j] * 70 + [R_I] + [r_j] * 150)
    s = np.array([s_j] * 70 + [S_I] + [s_j] * 150)
    pi = lifted_rows(r, s)
    assert verify_left_monotone(pi) == 150 * violates == loop_left_monotone(pi)


def moved_lower_destinations(pi, nu, seed):
    """``pi`` with the lower destination of every split row moved to a
    random target atom below its source, so the rows stay martingale
    kernels and the lower values are no longer monotone."""
    rng = np.random.default_rng(seed)
    rows = pi.intervals.copy()
    for row in rows[rows[:, 4] > rows[:, 3]]:
        below = nu.xs[nu.xs < row[2]]
        if below.size:
            row[3] = rng.choice(below)
    return LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)


def assert_destination_cdf_matches_loop(pi, ys):
    # each point's value depends on that point alone: the vector call
    # equals the scalar call bit for bit
    for y, got in zip(ys, destination_cdf(pi, ys)):
        assert got == destination_cdf(pi, y)
        assert got == pytest.approx(loop_destination_cdf(pi, y), rel=0.0, abs=4 * np.finfo(float).eps)


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("n, leaves", [(100, 3), (500, 12)])
def test_destination_cdf_matches_loop_across_leaves(n, leaves, moved):
    # the rows of a point's own leaf of 64 are summed as a block, every
    # later leaf from prefix sums over its rows sorted by lower value
    mu = quantize_density([-1.0, 1.0], [0.5, 0.5], n)
    nu = quantize_density([-2.0, 2.0], [0.25, 0.25], n)
    pi = coupling(build_curtain(mu, nu), mu)
    assert -(-len(pi.intervals) // 64) == leaves
    if moved:
        pi = moved_lower_destinations(pi, nu, n)
        lower = pi._kernels[0]
        assert (np.diff(lower) > 0).any() and (np.diff(lower) < 0).any()
    # a row's lower value is a point where it starts to count
    ys = np.unique(np.concatenate((nu.xs - 1e-7, nu.xs + 1e-7, pi.intervals[:, 4], pi._kernels[0])))
    assert_destination_cdf_matches_loop(pi, ys)


@pytest.mark.parametrize("rows", [np.empty((0, 5)), np.array([[0.0, 1.0, 0.5, -1.0, 2.0]])])
def test_destination_cdf_matches_loop_on_zero_and_one_row(rows):
    pi = LiftedCoupling(rows, np.empty(0), np.empty(0), np.empty(0))
    assert_destination_cdf_matches_loop(pi, np.array([-2.0, -1.0, 0.0, 0.5, 2.0, 3.0]))
