"""Geometric construction of the lifted left-curtain martingale coupling.

For a convex-ordered pair ``(mu, nu)`` and quantile level ``u``, the
restricted source ``mu_u`` (leftmost mass ``u``) defines an excess
potential ``E_u = P_nu - P_{mu_u}``.  The contact points of ``E_u`` with
its lower convex envelope on either side of the quantile ``G(u)`` yield
the lower and upper destination functions: mass entering at level ``u`` is
sent to the two contacts ``R(u) <= G(u) <= S(u)`` with the unique weights
that preserve the conditional mean.  ``phi(u)`` is the slope of the
envelope's linear piece through ``G(u)``.

Because all inputs are atomic, ``E_u`` is affine in ``u`` on ``[G(u),
oo)`` while ``u`` stays inside one source atom's quantile interval, so the
contact configuration is piecewise constant in ``u`` and its breakpoints
solve linear equations.  The table builder sweeps the levels of each
source atom once from left to right: a point kernel up to the closed-form
detachment level, then a chord whose contacts move outwards each time a
kink pierces it.  No hull is rebuilt, and no root finding or
discretisation in ``u`` is involved.  The sweep runs once over the whole
pair, in its global quantile levels, and reads the potentials from
:func:`leftcurtain.measures._pair_gap`, the one evaluation of the gap that
the order check, the sweep and the shadow share: prefix sums of segment
rises, with the levels and the cumulative weights taken from one array
per measure.  The pointwise reference, which computes the same data at
one level from the envelope itself, is
:class:`leftcurtain.oracle.PairReference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import (
    MASS_TOL,
    POS_EPS,
    DecomposeError,
    DiscreteMeasure,
    _order_and_gap,
    _PairGap,
    _rise,
)

#: kernels with spread below this emit a point mass at the current quantile
DEGENERATE_KERNEL_EPS = 1e-13

#: piercing levels (and tangent slopes) closer than this are one sweep
#: event; levels are the pair's global quantile levels
TIE_EPS = 1e-12

#: row layout of :attr:`CurtainTable.intervals`: a row's levels, its
#: kernel ``(g, r, s)`` and phi at its start
TABLE_DTYPE = np.dtype(
    [(name, np.float64) for name in ("u_lo", "u_hi", "g", "r", "s", "phi_lo")]
)

#: column names of :attr:`LiftedCoupling.intervals` and of its JSON rows
_COUPLING_ROW_KEYS = ("u_lo", "u_hi", "x", "r", "s")


class InternalGeometry(RuntimeError):
    """A source atom detaches with no kink to its left; indicates a geometry
    bug, not bad input."""


# -- curtain table ---------------------------------------------------------


def _two_point(x, r, s):
    """The kernels of rows ``(x, r, s)``: per row the lower destination, the
    share of the row's mass sent there, ``(s - x) / (s - r)``, and whether
    the kernel splits.  A point kernel (``s - r <= DEGENERATE_KERNEL_EPS``)
    sends its whole mass to ``x``, so its upper share is exactly 0."""
    split = s - r > DEGENERATE_KERNEL_EPS
    share = np.where(split, (s - x) / np.where(split, s - r, 1.0), 1.0)
    return np.where(split, r, x), share, split


@dataclass(frozen=True, eq=False)
class CurtainTable:
    """Piecewise-constant-in-``u`` representation of ``(G, R, S, phi)``.

    ``intervals`` is one structured array of dtype :data:`TABLE_DTYPE`,
    one row per quantile interval ``(u_lo, u_hi]`` in increasing order;
    pointwise queries at exact breakpoints follow the left-limit
    convention.  Point-kernel rows (``s - r <= DEGENERATE_KERNEL_EPS``)
    store ``r = g = s`` and keep phi constant.  On the other rows phi falls
    at the rate ``(S - G) / (S - R)``, the share of the row's mass that its
    kernel sends to ``R`` (``phi' = -(S - G) / (S - R)``), so ``phi_lo``
    fixes phi on the whole row.
    """

    intervals: np.ndarray

    @cached_property
    def _kernels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_two_point` of the rows ``(g, r, s)``."""
        t = self.intervals
        return _two_point(t["g"], t["r"], t["s"])


def _phi_hi(table: CurtainTable) -> np.ndarray:
    """phi at the top ``u_hi`` of every row of ``table``, on the row's line."""
    t = table.intervals
    _, share, split = table._kernels
    return t["phi_lo"] + np.where(split, -share, 0.0) * (t["u_hi"] - t["u_lo"])


def _sweep(pair: _PairGap, mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[tuple]:
    """Curtain rows of the probability pair ``(mu, nu)`` with the
    potentials ``pair``.

    One left-to-right sweep over the levels of each source atom ``x_i``.
    On the atom's quantile interval the excess potential is the gap ``D``
    at kinks ``p <= x_i`` and ``A(k) - u (k - x_i)`` at target kinks
    ``k > x_i``, with ``A = P_nu - P_mu(x_i)``.  The envelope touches at
    ``x_i`` (a point kernel) up to ``u_detach``; from then on its piece
    over ``x_i`` is a chord ``(q, s)`` with slope ``phi(u) = phi_a - phi_b
    u``.  A kink ``p < q`` pierces the chord when ``phi`` falls to the
    slope of ``D`` from ``p`` to ``q``, a kink ``k > s`` when it falls to
    the slope of the excess from ``s`` to ``k``; the outermost kink among
    simultaneous piercings becomes the new contact.  ``q`` only moves left
    and ``s`` only right, so every atom ends after finitely many steps.
    The chord an atom ends with carries over to the next atom if it spans
    that atom; otherwise the next atom starts as a point kernel.  Where
    ``D`` vanishes the envelope touches, so the sweep passes from one
    irreducible component to the next through point kernels.

    The potentials enter only through differences that the sweep divides
    by kink gaps: of ``D`` between kinks, and of ``P_nu`` from ``x_i`` or
    a target atom to a target atom (the chord's rise ``A(s) - D(q)`` is
    ``P_nu(s) - P_nu(x_i) + D(x_i) - D(q)``), both read from ``pair``
    (:func:`~leftcurtain.measures._pair_gap`).  The levels are ``mu``'s
    cumulative weights, the array ``pair`` reads ``F_mu`` from, from
    exactly 0 to exactly 1.  Rows are :data:`TABLE_DTYPE` tuples ``(u_lo,
    u_hi, g, r, s, phi_lo)`` in the pair's quantile levels.
    """
    kinks, d, p_nu = pair.kinks, pair.d, pair.p_nu
    xs, ys = mu.xs, nu.xs
    at_x, at_y = kinks.searchsorted(xs), kinks.searchsorted(ys)
    p_nu_ys = p_nu[:, at_y]
    # scalars are read as Python floats, which is faster than numpy's
    levels = [0.0, *mu.cum_weights.tolist()]
    kink_at, y_at, d_at = kinks.tolist(), ys.tolist(), d.tolist()
    levels[-1] = 1.0
    p_nu_x, p_nu_y = p_nu[:, at_x].T.tolist(), p_nu_ys.T.tolist()

    rows: list[tuple] = []
    q = s = -1  # chord contacts as indices into ``kinks`` and ``ys``; -1: none
    for i, xi in enumerate(xs.tolist()):
        lo, hi = levels[i], levels[i + 1]
        first_right = int(ys.searchsorted(xi + POS_EPS, side="right"))
        u = lo
        d_xi, p_nu_xi = d_at[at_x[i]], p_nu_x[i]
        if s < first_right:  # no chord spans x_i: point kernel until detachment
            n_left = int(kinks.searchsorted(xi - POS_EPS, side="left"))
            left = (d_xi - d[:n_left]) / (xi - kinks[:n_left])
            right = _rise(p_nu_ys[:, first_right:], p_nu_xi) / (ys[first_right:] - xi)
            sigma = max(0.0, float(left.max())) if n_left else 0.0
            u_detach = float(right.min()) - sigma if right.size else math.inf
            if u_detach >= hi - TIE_EPS:
                rows.append((lo, hi, xi, xi, xi, sigma))
                q = s = -1
                continue
            if u_detach > lo + TIE_EPS:
                rows.append((lo, u_detach, xi, xi, xi, sigma))
                u = u_detach
            if not n_left:
                raise InternalGeometry(f"source atom {xi} detaches with no kink to its left")
            # the tangents from (x_i, D(x_i)): outermost kinks of extreme slope
            q = int(np.flatnonzero(left >= left.max() - TIE_EPS)[0])
            s = first_right + int(np.flatnonzero(right <= right.min() + TIE_EPS)[-1])
        while True:
            x_q, x_s, d_q = kink_at[q], y_at[s], d_at[q]
            span = x_s - x_q
            phi_a = (_rise(p_nu_y[s], p_nu_xi) + (d_xi - d_q)) / span
            phi_b = (x_s - xi) / span
            scale = span / (xi - x_q)
            # chord slopes to the outer kinks; a kink pierces when phi(u)
            # falls to its slope, at a level monotone in the slope, so only
            # the extreme slope of each side is turned into a level at once
            left_slope = (d_q - d[:q]) / (x_q - kinks[:q])
            right_slope = _rise(p_nu_ys[:, s + 1 :], p_nu_ys[:, s]) / (ys[s + 1 :] - x_s)
            left_min = (phi_a - left_slope.max(initial=-math.inf)) / phi_b
            right_min = (right_slope.min(initial=math.inf) - phi_a) * scale
            nxt = min(left_min, right_min)
            if nxt >= hi - TIE_EPS:  # the chord lasts to the end of the atom
                rows.append((u, hi, xi, x_q, x_s, phi_a - phi_b * u))
                break
            if nxt > u + TIE_EPS:
                rows.append((u, nxt, xi, x_q, x_s, phi_a - phi_b * u))
                u = nxt
            if left_min <= nxt + TIE_EPS:
                q = int(np.flatnonzero((phi_a - left_slope) / phi_b <= nxt + TIE_EPS)[0])
            if right_min <= nxt + TIE_EPS:
                s += 1 + int(np.flatnonzero((right_slope - phi_a) * scale <= nxt + TIE_EPS)[-1])
    return rows


def build_curtain(mu: DiscreteMeasure, nu: DiscreteMeasure) -> CurtainTable:
    """Exact curtain table for a pair of probability measures in convex order.

    The pair's potentials are read once, by the order check
    (:func:`~leftcurtain.measures._pair_gap`), and serve one sweep over
    the whole pair in its global quantile levels: where the potential gap
    vanishes the sweep passes through point kernels, so irreducible
    components and static atoms need no separate treatment.
    Raises ``ValueError`` unless ``mu`` has unit mass and
    :class:`~leftcurtain.measures.DecomposeError` unless the pair is in
    convex order.
    """
    if abs(mu.mass - 1.0) > MASS_TOL:
        raise ValueError(f"inputs must be probability measures, mass={mu.mass}")
    order, pair = _order_and_gap(mu, nu)
    if not order:
        raise DecomposeError(
            f"inputs not in convex order (witness {order.witness}, gap {order.gap:.3e})"
        )
    table = np.array(_sweep(pair, mu, nu), dtype=TABLE_DTYPE)
    table.flags.writeable = False
    return CurtainTable(table)


# -- lifted coupling -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LiftedCoupling:
    """Curtain kernels integrated over the quantile level.

    ``intervals`` is an ``(N, 5)`` float array of ``(u_lo, u_hi, x, r, s)``
    rows; the flattened joint measure lives on source/destination pairs.
    """

    intervals: np.ndarray
    joint_x: np.ndarray
    joint_y: np.ndarray
    joint_w: np.ndarray

    def first_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.joint_x.copy(), self.joint_w.copy())

    def second_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.joint_y.copy(), self.joint_w.copy())

    def to_json(self, components=None) -> dict:
        return {
            "components": components if components is not None else [],
            "intervals": [dict(zip(_COUPLING_ROW_KEYS, row)) for row in self.intervals.tolist()],
            "joint": np.column_stack((self.joint_x, self.joint_y, self.joint_w)).tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "LiftedCoupling":
        rows = [[float(r[key]) for key in _COUPLING_ROW_KEYS] for r in obj["intervals"]]
        joint = np.array(obj["joint"], dtype=float).reshape(-1, 3)
        return LiftedCoupling(
            np.array(rows, dtype=float).reshape(-1, 5),
            joint[:, 0].copy(),
            joint[:, 1].copy(),
            joint[:, 2].copy(),
        )


def coupling(table: CurtainTable, mu: DiscreteMeasure) -> LiftedCoupling:
    """Integrate the two-point kernels of a curtain table over ``du``.

    The kernel is constant on every table interval, so the flattened joint
    measure is an exact finite sum; its first marginal is ``mu`` by
    construction and its second marginal is the target law.  Weights of
    equal ``(x, y)`` pairs are added in table order.
    """
    t = table.intervals
    lower, w_r, _ = table._kernels
    du = t["u_hi"] - t["u_lo"]
    xs = np.repeat(t["g"], 2)
    ys = np.column_stack((lower, t["s"])).ravel()
    ws = np.column_stack((du * w_r, du * (1.0 - w_r))).ravel()
    # a point kernel sends nothing to its upper atom; empty intervals carry no mass
    live = np.repeat(du > 0, 2) & (ws != 0)
    # numpy sorts complex numbers by (real, imag), so x + iy keys order the
    # (x, y) pairs like tuples; a 1-D unique is several times faster than
    # np.unique(..., axis=0) on small tables
    keys = np.empty(np.count_nonzero(live), dtype=complex)
    keys.real, keys.imag = xs[live], ys[live]
    pairs, inverse = np.unique(keys, return_inverse=True)
    weights = np.bincount(inverse, weights=ws[live], minlength=len(pairs))
    keep = weights > 0
    rows = np.column_stack([t[name] for name in TABLE_DTYPE.names[:5]])
    return LiftedCoupling(rows, pairs.real[keep], pairs.imag[keep], weights[keep])


def sample_y_many(table: CurtainTable, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Deterministic destinations of the pairs of uniforms ``(us, vs)``.

    The current quantile on point-kernel intervals; otherwise the lower
    destination where ``v`` is at most the mean-preserving share ``(S -
    G) / (S - R)`` and the upper one above it.
    """
    t = table.intervals
    lower, share, _ = table._kernels
    idx = np.minimum(np.searchsorted(t["u_hi"], us, side="left"), len(t) - 1)
    return np.where(vs <= share[idx], lower[idx], t["s"][idx])


def curve_rows(table: CurtainTable) -> np.ndarray:
    """Rows ``(u, G, R, Q, S, phi)`` at both endpoints of every interval;
    the contact ``Q`` of the envelope left of ``G`` is ``R`` itself."""
    t = table.intervals
    shape = [t[name] for name in ("g", "r", "r", "s")]
    lo = np.column_stack([t["u_lo"], *shape, t["phi_lo"]])
    hi = np.column_stack([t["u_hi"], *shape, _phi_hi(table)])
    return np.stack((lo, hi), axis=1).reshape(-1, 6)
