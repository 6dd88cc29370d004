"""Per-level shadow check of a lifted coupling: the test oracle for the
certificate of :func:`leftcurtain.verify_shadow_consistency`.

At every table breakpoint, plus random levels, the destination mass of the
coupling's rows up to level ``u`` is compared in total variation with the
shadow of ``mu_u``.  The shadow is taken by the retired hull route of
``tests/shadow_hull_reference.py``, not by :func:`leftcurtain.shadow`, which
runs the walk that builds the rows.  It shares no code with the certificate.
"""

import numpy as np

from leftcurtain import DiscreteMeasure, restricted_measure
from conftest import breakpoints, tv_distance
from shadow_hull_reference import hull_shadow


def restricted_second_marginal(pi, u):
    """Destination mass of the levels up to ``u`` of the rows of ``pi``."""
    rows = pi.intervals[pi.intervals[:, 0] < u]
    u_lo, u_hi, x, r, s = rows.T
    split = s > r
    w_r = np.where(split, (s - x) / np.where(split, s - r, 1.0), 1.0)
    frac = np.minimum(u, u_hi) - u_lo
    ys = np.concatenate((np.where(split, r, x), s[split]))
    ws = np.concatenate((frac * w_r, (frac * (1.0 - w_r))[split]))
    live = np.concatenate((frac, frac[split])) > 0
    return DiscreteMeasure(ys[live], ws[live])


def shadow_of_restriction(mu, nu, u):
    """Shadow of the leftmost mass-``u`` part of ``mu`` in ``nu``."""
    return hull_shadow(mu if u >= 1.0 else restricted_measure(mu, u), nu)


def shadow_tv_max(table, mu, nu, pi, grid=20, seed=0):
    """Largest TV distance between the rows' destination mass and the
    shadow, over the breakpoints of ``table`` and ``grid`` random levels."""
    rng = np.random.default_rng(seed)
    levels = set(float(b) for b in breakpoints(table) if 0.0 < b <= 1.0)
    levels.update(float(u) for u in rng.uniform(1e-6, 1.0, size=grid))
    return max(
        tv_distance(restricted_second_marginal(pi, u), shadow_of_restriction(mu, nu, u))
        for u in sorted(levels)
    )
