"""Independent references for testing; the package's only reference module.

No solver module imports this one.  Three references live here, each
computing its quantity another way than the code it checks:

* :func:`shadow_lp` recovers the shadow measure as the solution of a small
  linear program.  Feasible points are the measures dominated by the
  target with the source's mass and mean whose put potential dominates the
  source's; the shadow minimises the potential pointwise among them, so
  minimising the summed potential over the target's atoms pins it down
  uniquely.

* :func:`curtain_incremental` assembles the left-curtain coupling from
  increments of shadows of growing left parts of the source, one source
  atom at a time.

* :class:`PairReference` computes the destination data ``(R, Q, G, S,
  phi)`` of one pair at any single level from the lower convex envelope of
  the excess potential ``E_u = P_nu - P_{mu_u}`` itself, where the curtain
  builder walks the target's atoms without taking an envelope.

The LP is solved by an in-repo dense two-phase simplex with Bland's rule;
instances are tiny (a few dozen variables), so no external solver is
needed and the tests stay hermetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .measures import MASS_TOL, POS_EPS, DiscreteMeasure, quantile_left
from .pwl import convex_hull, evaluate

#: tolerance for deciding that a function touches its convex envelope
CONTACT_EPS = 1e-10


def _put_values(xs: np.ndarray, ws: np.ndarray, c: float, k: np.ndarray) -> np.ndarray:
    """Put potential ``sum_{x_i < k} w_i (k - x_i)`` of the atoms ``(xs,
    ws)`` at the points ``k``.

    Evaluated in coordinates centred at ``c`` (the barycentre, so every
    term is of the size of the spread, not of the positions), from the
    cumulative weight and the cumulative centred moment of the atoms
    strictly below each point: ``F(k-) (k - c) - sum_{x_i < k} w_i (x_i -
    c)``.  Any ``c`` gives the same function in exact arithmetic.
    """
    j = np.searchsorted(xs, k, side="left")
    cw = np.concatenate(([0.0], np.cumsum(ws)))
    cm = np.concatenate(([0.0], np.cumsum(ws * (xs - c))))
    return cw[j] * (k - c) - cm[j]


def put_potential(eta: DiscreteMeasure, k):
    """Put-option potential ``P(k) = integral of (k - x)^+ d eta`` at ``k``.

    Piecewise linear with a kink of size ``w_i`` at each atom, identically
    zero left of the support, and asymptote ``mass * k - mean`` on the
    right.  Evaluated by :func:`_put_values` centred at ``eta``'s own
    barycentre; a scalar ``k`` gives a float, an array an array.
    """
    if eta.n_atoms == 0:
        raise ValueError("put_potential requires a non-empty measure")
    out = _put_values(eta.xs, eta.ws, eta.mean / eta.mass, np.asarray(k, dtype=float))
    return float(out) if out.ndim == 0 else out


def restricted_measure(mu: DiscreteMeasure, u: float) -> DiscreteMeasure:
    """Leftmost part of ``mu`` with mass exactly ``u``.

    Keeps every atom strictly below the quantile ``G(u)`` and a partial
    atom of weight ``u - F(G(u)-)`` at ``G(u)``.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("restriction level must lie in (0, 1)")
    g = quantile_left(mu, u)
    i = int(np.searchsorted(mu.cum_weights, u, side="left"))
    below = u - (mu.cum_weights[i - 1] if i > 0 else 0.0)
    xs = np.concatenate([mu.xs[:i], [g]])
    ws = np.concatenate([mu.ws[:i], [below]])
    return DiscreteMeasure(xs, ws)


class Infeasible(ValueError):
    """The LP has no feasible point: the source does not embed into the target."""


class NegativeKernel(RuntimeError):
    """A shadow increment went negative, violating shadow monotonicity."""


_PIVOT_EPS = 1e-9


def simplex_solve(c: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    """Minimise ``c @ x`` subject to ``a_eq @ x = b_eq`` and ``x >= 0``.

    Dense two-phase simplex with Bland's anti-cycling rule.  Intended for
    small instances (up to a few hundred variables); raises
    :class:`Infeasible` when phase one cannot drive the artificials to
    zero.
    """
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = a_eq.shape
    # make right-hand sides non-negative
    flip = b_eq < 0
    a_eq = a_eq.copy()
    a_eq[flip] *= -1.0
    b_eq[flip] *= -1.0

    # phase one: minimise the sum of artificial variables
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a_eq
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b_eq
    basis = list(range(n, n + m))
    cost1 = np.zeros(n + m)
    cost1[n:] = 1.0
    _run_simplex(tableau, basis, cost1)
    if tableau[-1, -1] > 1e-7:
        raise Infeasible(f"phase-one objective {tableau[-1, -1]:.3e} > 0")

    # drive leftover artificials out of the basis where possible
    for row, var in enumerate(basis):
        if var >= n:
            cols = np.flatnonzero(np.abs(tableau[row, :n]) > _PIVOT_EPS)
            if cols.size:
                _pivot(tableau, basis, row, int(cols[0]))

    # phase two on the original columns
    keep = [j for j in range(n)]
    rows = [i for i, var in enumerate(basis) if var < n]
    tab2 = np.zeros((len(rows) + 1, n + 1))
    tab2[:-1, :n] = tableau[rows][:, keep]
    tab2[:-1, -1] = tableau[rows, -1]
    basis2 = [basis[i] for i in rows]
    _run_simplex(tab2, basis2, c)

    x = np.zeros(n)
    for row, var in enumerate(basis2):
        x[var] = tab2[row, -1]
    return x


def _run_simplex(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Run simplex iterations in place until optimality (Bland's rule)."""
    m = len(basis)
    n = cost.size
    # reduced-cost row
    tableau[-1, :n] = cost
    tableau[-1, -1] = 0.0
    for row, var in enumerate(basis):
        if cost[var] != 0.0:
            tableau[-1, :] -= cost[var] * tableau[row, :]
    while True:
        enter = -1
        for j in range(n):
            if tableau[-1, j] < -_PIVOT_EPS:
                enter = j
                break
        if enter < 0:
            tableau[-1, -1] *= -1.0
            return
        ratios = np.full(m, np.inf)
        col = tableau[:m, enter]
        positive = col > _PIVOT_EPS
        ratios[positive] = tableau[:m, -1][positive] / col[positive]
        best = np.inf
        leave = -1
        for i in range(m):
            if ratios[i] < best - 1e-15 or (
                ratios[i] <= best + 1e-15 and leave >= 0 and basis[i] < basis[leave]
            ):
                if np.isfinite(ratios[i]):
                    best = ratios[i]
                    leave = i
        if leave < 0:
            raise Infeasible("objective unbounded below")
        _pivot(tableau, basis, leave, enter)


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i, :] -= tableau[i, col] * tableau[row, :]
    basis[row] = col


def shadow_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Shadow of ``mu`` in ``nu`` via linear programming.

    Variables are weights ``w_j in [0, nu_j]`` on the target atoms,
    constrained to the source's mass and mean and to a put potential
    dominating the source's at every atom of either measure; the objective
    minimises the summed potential over the target's atoms.
    """
    if mu.n_atoms == 0:
        return DiscreteMeasure([], [])
    if nu.n_atoms > 220:
        raise ValueError("LP oracle is restricted to small instances")
    xs = nu.xs
    n = xs.size
    grid = np.union1d(mu.xs, nu.xs)
    payoff = np.maximum(grid[:, None] - xs[None, :], 0.0)  # (k, j) -> (k - x_j)^+
    p_mu_grid = put_potential(mu, grid)

    # columns: w (n), slack for potential rows (k), slack for bounds (n)
    k = grid.size
    n_cols = n + k + n
    rows = []
    rhs = []
    # mass and mean
    row = np.zeros(n_cols)
    row[:n] = 1.0
    rows.append(row)
    rhs.append(mu.mass)
    row = np.zeros(n_cols)
    row[:n] = xs
    rows.append(row)
    rhs.append(mu.mean)
    # potential domination: payoff @ w - slack = p_mu
    for i in range(k):
        row = np.zeros(n_cols)
        row[:n] = payoff[i]
        row[n + i] = -1.0
        rows.append(row)
        rhs.append(p_mu_grid[i])
    # upper bounds: w + slack = nu weights
    for j in range(n):
        row = np.zeros(n_cols)
        row[j] = 1.0
        row[n + k + j] = 1.0
        rows.append(row)
        rhs.append(nu.ws[j])
    cost = np.zeros(n_cols)
    # sum of potentials at target atoms
    nu_rows = np.maximum(xs[:, None] - xs[None, :], 0.0)
    cost[:n] = nu_rows.sum(axis=0)

    w = simplex_solve(cost, np.array(rows), np.array(rhs))[:n]
    keep = w > 1e-13
    return DiscreteMeasure(xs[keep], w[keep])


def curtain_incremental(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Left-curtain coupling assembled from shadow increments.

    For cumulative levels at the source atom boundaries, the kernel of
    atom ``i`` is the difference of consecutive shadows divided by the
    atom's weight; shadow monotonicity makes every difference a
    non-negative measure.  Returns ``(xs, ys, ws)`` arrays of the joint
    measure.  Boundary levels suffice because the shadow grows linearly in
    the level while it sweeps through a single source atom.
    """
    if abs(mu.mass - 1.0) > 1e-9 or abs(nu.mass - 1.0) > 1e-9:
        raise ValueError("oracle expects probability measures")
    prev = np.zeros(nu.n_atoms)
    xs_out: list[float] = []
    ys_out: list[float] = []
    ws_out: list[float] = []
    cum = mu.cum_weights
    for i in range(mu.n_atoms):
        u = float(cum[i])
        part = mu if i == mu.n_atoms - 1 else restricted_measure(mu, u)
        sh = shadow_lp(part, nu)
        dense = np.zeros(nu.n_atoms)
        idx = np.searchsorted(nu.xs, sh.xs)
        dense[idx] = sh.ws
        diff = dense - prev
        if diff.min() < -1e-10:
            raise NegativeKernel(f"shadow increment {diff.min():.3e} below zero")
        diff = np.maximum(diff, 0.0)
        prev = dense
        for y, w in zip(nu.xs, diff):
            if w > 1e-14:
                xs_out.append(float(mu.xs[i]))
                ys_out.append(float(y))
                ws_out.append(float(w))
    return np.array(xs_out), np.array(ys_out), np.array(ws_out)


def joint_tv(a, b, pos_tol: float = POS_EPS) -> float:
    """Total-variation distance between two atomic joint measures.

    Each argument is an ``(xs, ys, ws)`` triple; atoms within ``pos_tol``
    in both coordinates are identified.
    """
    def _round(v):
        return np.round(v / pos_tol).astype(np.int64)

    table: dict[tuple[int, int], float] = {}
    for (xs, ys, ws), sign in ((a, 1.0), (b, -1.0)):
        for key_x, key_y, w in zip(_round(np.asarray(xs)), _round(np.asarray(ys)), ws):
            key = (int(key_x), int(key_y))
            table[key] = table.get(key, 0.0) + sign * float(w)
    return 0.5 * sum(abs(v) for v in table.values())


# -- pointwise reference -----------------------------------------------------


class PointConstruction(NamedTuple):
    """Destination data at one quantile level: ``r <= q <= g <= s``."""

    r: float
    q: float
    g: float
    s: float
    phi: float


def _drop_collinear(xs, ys, slope_left, slope_right, eps=MASS_TOL):
    """Breakpoints of a piecewise-linear function without those where its
    slope changes by at most ``eps``; an affine function keeps its first."""
    if xs.size < 2:
        return xs, ys
    slopes = np.concatenate(([slope_left], np.diff(ys) / np.diff(xs), [slope_right]))
    keep = np.abs(np.diff(slopes)) > eps
    if not keep.any():
        keep[0] = True
    return xs[keep], ys[keep]


def _left_slope(xs, ys, slope_left, slope_right, k, eps=POS_EPS) -> float:
    """Left derivative at ``k`` of a piecewise-linear function; a breakpoint
    within ``eps`` of ``k`` counts as ``k``."""
    slopes = np.concatenate(([slope_left], np.diff(ys) / np.diff(xs), [slope_right]))
    i = int(xs.searchsorted(k))
    if i < xs.size and abs(xs[i] - k) <= eps:
        return float(slopes[i])
    if i > 0 and abs(xs[i - 1] - k) <= eps:
        return float(slopes[i - 1])
    return float(slopes[i])


def contact_points(xs, excess, envelope, y, eps=CONTACT_EPS) -> tuple[float, float]:
    """Contact points of a function with its lower convex envelope around ``y``.

    ``excess`` and ``envelope`` are the values of the two at the
    breakpoints ``xs`` of the function (the envelope's vertices are among
    them and the two share their tail slopes).  Returns ``(X, Z)``, where
    ``X`` is the largest point ``<= y`` at which they agree and ``Z`` the
    smallest such point ``>= y``; ``-inf`` / ``+inf`` when the respective
    set is empty.  The difference is non-negative and piecewise linear
    with flat tails, so its zeros lie at its kinks (or fill whole segments
    whose end kinks then vanish too): a scan over the breakpoints where
    the difference bends is exhaustive.
    """
    gx, gy = _drop_collinear(np.asarray(xs, dtype=float), np.subtract(excess, envelope), 0.0, 0.0)
    if np.interp(y, gx, gy) <= eps:
        return float(y), float(y)
    zero = gy <= eps
    below = gx[zero & (gx <= y)]
    above = gx[zero & (gx >= y)]
    return (
        float(below[-1]) if below.size else -math.inf,
        float(above[0]) if above.size else math.inf,
    )


class PairReference:
    """Destination data ``(R, Q, G, S, phi)`` of one pair at any single level.

    ``mu`` and ``nu`` are probability measures in convex order, checked
    once on construction, and should form one irreducible component (the
    gap ``D = P_nu - P_mu`` positive between the support ends); use
    :func:`~leftcurtain.build_curtain` for general inputs.  Both potentials
    are evaluated once, on the union of the supports and centred at the
    barycentre.  At level ``u`` the excess potential ``E_u = P_nu -
    P_{mu_u}`` equals ``D`` at the points up to the quantile ``G(u)`` and
    ``P_nu(k) - P_mu(G(u)) - u (k - G(u))`` at the target atoms beyond it.
    ``Q`` and ``S`` are the contacts of ``E_u`` with its lower convex
    envelope on either side of ``G(u)``; ``phi`` is the envelope's left
    slope at ``S``; ``R`` is the leftmost point at or below ``G(u)`` where
    ``D`` meets the supporting line through ``(G(u), envelope(G(u)))``
    with slope ``phi``.  Breakpoints where a function does not bend (by
    more than ``MASS_TOL`` in slope) are dropped before contacts are sought.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        self.mu = mu
        self.nu = nu
        c = mu.mean / mu.mass
        grid = np.union1d(mu.xs, nu.xs)
        self._grid = grid
        self._is_target = np.isin(grid, nu.xs)
        self._p_nu = _put_values(nu.xs, nu.ws, c, grid)
        self._p_mu = _put_values(mu.xs, mu.ws, c, grid)
        self._d_grid = self._p_nu - self._p_mu
        # D vanishes on both tails exactly when the masses and means agree,
        # and is then >= 0 at the kinks, up to rounding of the spread's size
        d, tol = self._d_grid, MASS_TOL * max(1.0, c - grid[0], grid[-1] - c)
        worst = int(np.argmin(d))
        if abs(mu.mass - nu.mass) > MASS_TOL or abs(d[-1]) > tol or d[worst] < -tol:
            raise ValueError(f"inputs not in convex order (witness {grid[worst]})")
        self._d_slope_right = nu.mass - mu.mass
        self._d = _drop_collinear(grid, self._d_grid, 0.0, self._d_slope_right)

    def _excess(self, u: float):
        """``G(u)``, the breakpoints of ``E_u`` and its right tail slope."""
        if not 0.0 < u < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        mu = self.mu
        i = min(int(mu.cum_weights.searchsorted(u)), mu.n_atoms - 1)
        g = float(mu.xs[i])
        grid = self._grid
        left = grid <= g
        beyond = self._p_nu - self._p_mu[grid.searchsorted(g)] - u * (grid - g)
        keep = left | self._is_target
        ys = np.where(left, self._d_grid, beyond)[keep]
        # the right tail slope is the target's mass less the restriction's
        ws = mu.ws[: i + 1].copy()
        ws[-1] = u - (mu.cum_weights[i - 1] if i else 0.0)
        slope_right = self.nu.mass - float(ws.sum())
        return (g, *_drop_collinear(grid[keep], ys, 0.0, slope_right), slope_right)

    @staticmethod
    def _envelope(xs, ys, slope_right):
        return _drop_collinear(*convex_hull(xs, ys, 0.0, slope_right), 0.0, slope_right)

    def gap(self, k):
        """``D = P_nu - P_mu`` at ``k``; elementwise for an array ``k``."""
        return evaluate(*self._d, 0.0, self._d_slope_right, k)

    def excess(self, u: float, k):
        """``E_u`` at ``k``; elementwise for an array ``k``."""
        _, xs, ys, slope_right = self._excess(u)
        return evaluate(xs, ys, 0.0, slope_right, k)

    def envelope(self, u: float, k):
        """The lower convex envelope of ``E_u`` at ``k``; elementwise for an
        array ``k``."""
        _, xs, ys, slope_right = self._excess(u)
        return evaluate(*self._envelope(xs, ys, slope_right), 0.0, slope_right, k)

    def at(self, u: float) -> PointConstruction:
        """``(R, Q, G, S, phi)`` at the level ``u``."""
        g, xs, ys, slope_right = self._excess(u)
        hx, hy = self._envelope(xs, ys, slope_right)
        q, s = contact_points(xs, ys, evaluate(hx, hy, 0.0, slope_right, xs), g)
        if not (math.isfinite(q) and math.isfinite(s)):
            raise RuntimeError(f"unbounded contact pair ({q}, {s}) at u={u}")
        phi = _left_slope(hx, hy, 0.0, slope_right, s)
        r = self._ray_meets_gap(g, evaluate(hx, hy, 0.0, slope_right, g), phi)
        return PointConstruction(r, q, g, s, phi)

    def _ray_meets_gap(self, g: float, anchor_y: float, phi: float, eps: float = 1e-10) -> float:
        """Leftmost point ``k <= g`` where ``D`` meets the anchored ray.

        The ray supports ``D`` from below on ``(-inf, g]``, so meeting
        points sit at breakpoints of the non-negative difference (or fill
        whole segments whose endpoints then vanish too).  When the
        difference is identically zero on the whole left tail the literal
        infimum would be unbounded; the convention here returns the right
        end of that initial zero run (equal to ``g`` itself when the gap
        vanishes identically, as for equal marginals).  The kernel is
        unaffected: this happens only in degenerate configurations.
        """
        d_xs = self._d[0]
        cand = np.append(d_xs[d_xs <= g + POS_EPS], g)
        diff = self.gap(cand) - (anchor_y + phi * (cand - g))
        zero = diff <= eps
        if not zero.any():
            raise RuntimeError(f"ray through ({g}, {anchor_y}) with slope {phi} misses the gap")
        first = int(np.argmax(zero))
        if first == 0 and abs(phi) <= 1e-12 and abs(diff[0]) <= eps:
            run = 0
            while run + 1 < cand.size and zero[run + 1]:
                run += 1
            return float(cand[run])
        return float(cand[first])
