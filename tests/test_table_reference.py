"""Column consumers of the curtain table against plain per-row loops.

Each reference walks the rows one at a time, the way the definitions
read.  Where the arithmetic is the same the results must be equal; the
destination law sums in another order, so it gets a tolerance of a few
float64 ulps of its [0, 1] range.
"""

import numpy as np
import pytest

from leftcurtain import (
    build_curtain,
    coupling,
    destination_cdf,
    verify_left_monotone,
    verify_marginal_identity,
)
from leftcurtain.curtain import LiftedCoupling
from leftcurtain.measures import POS_EPS
from leftcurtain.verify import VerificationReport, _s_inverse, _sample_points
from conftest import nontrivial_runs, random_instance


def _split(row):
    return row["s"] > row["r"]


def loop_coupling(table):
    pairs = {}
    for row in table.intervals:
        du = row["u_hi"] - row["u_lo"]
        if du <= 0:
            continue
        g = float(row["g"])
        if not _split(row):
            pairs[(g, g)] = pairs.get((g, g), 0.0) + du
            continue
        w_r = (row["s"] - row["g"]) / (row["s"] - row["r"])
        for y, w in ((float(row["r"]), du * w_r), (float(row["s"]), du * (1.0 - w_r))):
            pairs[(g, y)] = pairs.get((g, y), 0.0) + w
    keys = sorted(k for k in pairs if pairs[k] > 0)
    return (
        np.array([k[0] for k in keys]),
        np.array([k[1] for k in keys]),
        np.array([pairs[k] for k in keys]),
    )


def loop_left_monotone(pi):
    rows = pi.intervals
    count = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            r_i, s_i, r_j, s_j = rows[i, 3], rows[i, 4], rows[j, 3], rows[j, 4]
            count += s_j < s_i - POS_EPS
            count += r_i + POS_EPS < r_j < s_i - POS_EPS
    return count


def loop_destination_cdf(table, y):
    v = loop_s_inverse(table, y)
    total = v
    for row in table.intervals:
        frac = row["u_hi"] - max(row["u_lo"], v)
        if row["u_hi"] <= v or frac <= 0:
            continue
        if not _split(row):
            total += frac if row["g"] <= y else 0.0
        elif row["r"] <= y:
            total += frac * (row["s"] - row["g"]) / (row["s"] - row["r"])
    return total


def loop_s_inverse(table, y):
    value = 0.0
    for row in table.intervals:
        if row["s"] <= y:
            value = float(row["u_hi"])
    return value


def loop_phi(table, u, right_limit=False):
    """phi at ``u``, or its right limit; the row holding ``u`` is the first
    with ``u <= u_hi`` (the last row past the end), and on it phi falls at
    the rate ``(s - g) / (s - r)`` where the kernel splits."""
    rows = table.intervals
    if u <= 0.0:
        return float(rows["phi_lo"][0])
    if right_limit and u >= 1.0:
        return 0.0
    i = next((i for i, row in enumerate(rows) if u <= row["u_hi"]), len(rows) - 1)
    if right_limit and not rows["u_hi"][i] - u > 1e-15:
        return float(rows["phi_lo"][i + 1]) if i + 1 < len(rows) else 0.0
    row = rows[i]
    slope = -(row["s"] - row["g"]) / (row["s"] - row["r"]) if _split(row) else 0.0
    return float(row["phi_lo"] + slope * (u - row["u_lo"]))


def loop_runs(table):
    runs, current = [], []
    for i, row in enumerate(table.intervals):
        if not _split(row):
            if current:
                runs.append(current)
                current = []
            continue
        if current and not row["g"] < table.intervals["s"][current[-1]] - POS_EPS:
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
    for y, got in zip(ys, destination_cdf(table, ys)):
        assert destination_cdf(table, y) == pytest.approx(
            loop_destination_cdf(table, y), abs=4 * np.finfo(float).eps
        )
        assert got == destination_cdf(table, y)
    ys = np.concatenate((ys, nu.xs, table.intervals["s"]))
    assert _s_inverse(table, ys)[0].tolist() == [loop_s_inverse(table, y) for y in ys]
    report = VerificationReport()
    verify_marginal_identity(table, nu, samples=60, seed=seed, mu=mu, report=report)
    ys = _sample_points(np.random.default_rng(seed), np.union1d(nu.xs, mu.xs), 60)
    worst = 0.0
    for y in ys[ys >= nu.support_left]:
        v = loop_s_inverse(table, y)
        x = nu.cdf(y) - v
        left = loop_phi(table, v) if v > 0 else 0.0
        worst = max(worst, left - x, x - loop_phi(table, v, right_limit=True))
    assert report.phi_sandwich_violation_max == worst


@pytest.mark.parametrize("seed", range(10))
def test_violation_count_matches_loop_on_shuffled_rows(seed):
    mu, nu = random_instance(seed)
    pi = coupling(build_curtain(mu, nu), mu)
    rows = pi.intervals.copy()
    rows[:, 3:] = rows[np.random.default_rng(seed).permutation(len(rows)), 3:]
    shuffled = LiftedCoupling(rows, pi.joint_x, pi.joint_y, pi.joint_w)
    assert verify_left_monotone(shuffled) == loop_left_monotone(shuffled)
