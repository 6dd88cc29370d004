"""Correctness checks that share no code with the builder or the verifiers.

Every check returns a list of problems; an empty list means the output
passed.  The tolerances are derived in ``README.md`` ("Tolerances"):

* positions: ``64 * n * eps * scale``.  A quantised atom is a difference
  of two moment integrals of size ``scale`` divided by the cell mass
  ``1/n``, so its rounding error grows like ``n * eps * scale``.
* weights: ``1024 * n * eps``.  A table breakpoint is solved from
  potential values accumulated over up to ``n`` atoms, so each level and
  each kernel weight built from level differences carries an absolute
  error of order ``n * eps``.
* martingale residual of a source atom: the weight tolerance times the
  width of the target support, since each weight error moves mass by at
  most that width.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)


def position_tol(n: int, scale: float) -> float:
    return 64.0 * n * EPS * max(scale, 1.0)


def weight_tol(n: int) -> float:
    return 1024.0 * n * EPS


def uniform_atoms(lo: float, hi: float, n: int) -> np.ndarray:
    """Barycentres of the ``n`` equal-mass cells of the uniform law on [lo, hi]."""
    j = np.arange(n)
    return lo + (hi - lo) * (2 * j + 1) / (2 * n)


def dkw_bound(draws: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius at confidence ``1 - alpha``."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * draws))


def _match(points, atoms: np.ndarray) -> tuple[np.ndarray, float]:
    """Index of the nearest atom for every point, and the worst distance."""
    points = np.asarray(points, dtype=float)
    if atoms.size == 1:
        nearest = np.zeros(points.size, dtype=int)
    else:
        idx = np.clip(np.searchsorted(atoms, points), 1, atoms.size - 1)
        closer_left = np.abs(points - atoms[idx - 1]) <= np.abs(points - atoms[idx])
        nearest = np.where(closer_left, idx - 1, idx)
    return nearest, float(np.abs(points - atoms[nearest]).max(initial=0.0))


def check_joint(jx, jy, jw, mu_x, mu_w, nu_x, nu_w) -> list[str]:
    """Both marginals per atom and the martingale residual per source atom."""
    jx, jy, jw = (np.asarray(a, dtype=float) for a in (jx, jy, jw))
    n = max(mu_x.size, nu_x.size)
    scale = float(max(np.abs(mu_x).max(), np.abs(nu_x).max()))
    tol_x = position_tol(n, scale)
    tol_w = weight_tol(n)
    problems = []
    if jw.size == 0 or jw.min() <= 0.0:
        problems.append("joint weights must be positive")
        return problems
    ix, dx = _match(jx, mu_x)
    iy, dy = _match(jy, nu_x)
    if dx > tol_x:
        problems.append(f"joint source {dx:.3e} away from every source atom (tol {tol_x:.1e})")
    if dy > tol_x:
        problems.append(f"joint destination {dy:.3e} away from every target atom (tol {tol_x:.1e})")
    first = np.bincount(ix, jw, minlength=mu_x.size)
    second = np.bincount(iy, jw, minlength=nu_x.size)
    err_mu = float(np.abs(first - mu_w).max())
    err_nu = float(np.abs(second - nu_w).max())
    if err_mu > tol_w:
        problems.append(f"first marginal atom weight off by {err_mu:.3e} (tol {tol_w:.1e})")
    if err_nu > tol_w:
        problems.append(f"second marginal atom weight off by {err_nu:.3e} (tol {tol_w:.1e})")
    width = float(nu_x[-1] - nu_x[0]) if nu_x.size > 1 else 1.0
    drift = np.bincount(ix, jw * (jy - jx), minlength=mu_x.size)
    worst = float(np.abs(drift).max())
    if worst > tol_w * width:
        problems.append(f"martingale residual {worst:.3e} (tol {tol_w * width:.1e})")
    return problems


def left_monotone_violations(rows) -> int:
    """Pairs of levels ``u < u'`` that break left-monotonicity.

    ``rows`` are lifted ``(u_lo, u_hi, x, r, s)`` rows in level order.  For
    a later level the upper destination may not fall below ``s`` and the
    lower one may not land strictly inside ``(r, s)``.  ``r`` and ``s`` are
    copies of target atoms, so the comparisons are exact.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    r = rows[:, 3]
    s = rows[:, 4]
    count = 0
    for i in range(rows.shape[0] - 1):
        later_r = r[i + 1 :]
        later_s = s[i + 1 :]
        count += int(np.count_nonzero(later_s < s[i]))
        count += int(np.count_nonzero((r[i] < later_r) & (later_r < s[i])))
    return count


def check_rows(rows, mu_x, mu_w) -> list[str]:
    """Lifted rows tile (0, 1] in order and carry each source atom's mass."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    problems = []
    u_lo, u_hi, x, r, s = rows.T
    tol_w = weight_tol(mu_x.size)
    if u_lo[0] != 0.0 or u_hi[-1] != 1.0 or np.any(u_hi[:-1] != u_lo[1:]) or np.any(u_hi < u_lo):
        problems.append("table rows do not tile (0, 1] in level order")
    if np.any(np.diff(x) < 0):
        problems.append("source position decreases along the level axis")
    if np.any(r > x) or np.any(x > s):
        problems.append("a row's kernel does not bracket its source position")
    scale = float(np.abs(mu_x).max())
    ix, dx = _match(x, mu_x)
    if dx > position_tol(mu_x.size, scale):
        problems.append(f"row source {dx:.3e} away from every source atom")
    mass = np.bincount(ix, u_hi - u_lo, minlength=mu_x.size)
    err = float(np.abs(mass - mu_w).max())
    if err > tol_w:
        problems.append(f"level mass of a source atom off by {err:.3e} (tol {tol_w:.1e})")
    violations = left_monotone_violations(rows)
    if violations:
        problems.append(f"{violations} left-monotonicity violations")
    return problems


def check_draws(ys, nu_x, nu_w, alpha: float) -> list[str]:
    """Draws lie on target atoms and follow the target law (DKW test)."""
    ys = np.asarray(ys, dtype=float)
    scale = float(np.abs(nu_x).max())
    idx, dist = _match(ys, nu_x)
    problems = []
    if dist > position_tol(nu_x.size, scale):
        problems.append(f"a draw lies {dist:.3e} away from every target atom")
    empirical = np.cumsum(np.bincount(idx, minlength=nu_x.size)) / ys.size
    ks = float(np.abs(empirical - np.cumsum(nu_w)).max())
    bound = dkw_bound(ys.size, alpha)
    if ks > bound:
        problems.append(f"KS distance {ks:.4f} above the DKW bound {bound:.4f}")
    return problems


def check_left_quantile(us, xs, n: int) -> list[str]:
    """``x`` is the left quantile at ``u`` of the uniform law on [-1, 1] cut in ``n`` cells."""
    us = np.asarray(us, dtype=float)
    xs = np.asarray(xs, dtype=float)
    atoms = uniform_atoms(-1.0, 1.0, n)
    tol_x = position_tol(n, 1.0)
    # the cumulative weights are rounded sums of 1/n, so a level within a
    # few ulps of a cell boundary may fall on either side of it
    slack = 64.0 * n * EPS
    lo = np.clip(np.ceil(us * n - slack).astype(int) - 1, 0, n - 1)
    hi = np.clip(np.ceil(us * n + slack).astype(int) - 1, 0, n - 1)
    ok = (np.abs(xs - atoms[lo]) <= tol_x) | (np.abs(xs - atoms[hi]) <= tol_x)
    bad = int(np.count_nonzero(~ok))
    return [f"{bad} sample rows with x off the left quantile of mu at u"] if bad else []
