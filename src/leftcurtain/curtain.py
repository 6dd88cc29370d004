"""Geometric construction of the lifted left-curtain martingale coupling.

For a convex-ordered pair ``(mu, nu)`` and quantile level ``u``, the
restricted source ``mu_u`` (leftmost mass ``u``) defines an excess
potential ``E_u = P_nu - P_{mu_u}``.  The contact points of ``E_u`` with
its lower convex envelope on either side of the quantile ``G(u)`` yield
the lower and upper destination functions: mass entering at level ``u`` is
sent to the two contacts ``R(u) <= G(u) <= S(u)`` with the unique weights
that preserve the conditional mean.  ``phi(u)`` is the slope of the
envelope's linear piece through ``G(u)``.

The same data can be read without a potential.  The shadow of an atom in
the target mass not yet used is that mass restricted to a quantile
interval with the atom's mean, and taking the shadow of one atom after
another, each in what is left, gives the shadow of the whole source
(Beiglboeck and Juillet 2016, section 4).  So ``R(u)`` and ``S(u)`` are
the two ends of that interval as it widens, and the table builder walks
``nu``'s atoms once, keeping each atom's remaining mass: a row ends where
one of its two atoms runs empty or its source atom's levels end.  No hull
or tangent is taken, and no root finding or discretisation in ``u`` is
involved.  The pointwise reference, which computes the same data at one
level from the envelope itself, is
:class:`leftcurtain.oracle.PairReference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import (
    DEFAULT_TOL,
    MASS_TOL,
    POS_EPS,
    DecomposeError,
    DiscreteMeasure,
    _guide_table,
    _level_index,
    _reach,
)

#: column names of the rows of :class:`CurtainTable` and
#: :class:`LiftedCoupling`, and of the coupling's JSON rows: a row's levels,
#: its source ``x = G(u)`` and its kernel's two destinations ``r <= x <= s``
_COUPLING_ROW_KEYS = ("u_lo", "u_hi", "x", "r", "s")


# -- curtain table ---------------------------------------------------------


def _two_point(x, r, s):
    """The kernels of rows ``(x, r, s)``: per row the lower destination, the
    share of the row's mass sent there, ``(s - x) / (s - r)``, and whether
    the kernel splits, exactly when ``s > r``.  The walk writes a point row
    as exactly ``(x, x, x)``, and a split row's ``r`` and ``s`` are two
    target atoms, which :class:`DiscreteMeasure` keeps more than ``POS_TOL``
    apart.  A point kernel sends its whole mass to ``x``, so its upper share
    is exactly 0."""
    split = s > r
    share = np.where(split, (s - x) / np.where(split, s - r, 1.0), 1.0)
    return np.where(split, r, x), share, split


@dataclass(frozen=True, eq=False)
class _Rows:
    """``intervals`` is an ``(N, 5)`` float array of rows ``(u_lo, u_hi, x,
    r, s)`` (:data:`_COUPLING_ROW_KEYS`), one per quantile interval ``(u_lo,
    u_hi]``: on it the source ``x`` sends its levels to ``r`` and ``s`` by a
    mean-preserving kernel."""

    intervals: np.ndarray

    @cached_property
    def _kernels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_two_point` of the rows ``(x, r, s)``."""
        return _two_point(*self.intervals[:, 2:].T)


@dataclass(frozen=True, eq=False)
class CurtainTable(_Rows):
    """Piecewise-constant-in-``u`` representation of ``(G, R, S, phi)``.

    ``intervals`` holds the rows in increasing order of level, read-only,
    and :func:`coupling` hands them on as they are; ``x`` is ``G`` on the
    row.  Pointwise queries at exact breakpoints follow the left-limit
    convention.  Point-kernel rows store exactly ``r = x = s``.
    ``phi_lo`` is phi at each row's start, which fixes phi on the whole row
    (:func:`_phi_hi`).
    """

    phi_lo: np.ndarray

    @cached_property
    def _guide(self) -> tuple:
        """:func:`~leftcurtain.measures._guide_table` of the interior row
        ends ``u_hi[:-1]``."""
        return _guide_table(self.intervals[:-1, 1])


def _phi_hi(phi_lo: np.ndarray, width: np.ndarray, kernels: tuple) -> np.ndarray:
    """phi at the top of rows of level width ``width`` from ``phi_lo`` at their
    start: it falls at the rate ``share`` of the rows' ``kernels`` where they
    split (``phi' = -(S - G) / (S - R)``) and is constant on point rows."""
    _, share, split = kernels
    return phi_lo + np.where(split, -share, 0.0) * width


def _walk(
    mu: DiscreteMeasure, nu: DiscreteMeasure, end: float
) -> tuple[list[tuple], list[float]]:
    """Curtain rows of ``mu`` in ``nu``, and the mass ``left`` in each of
    ``nu``'s atoms after them: one walk over ``nu``'s atoms that uses up
    their mass.

    Source atom ``x`` sends its levels to a target atom within ``POS_EPS``
    of ``x`` while that atom has mass left (a point row ``(x, x, x)``), and
    otherwise splits them between the nearest atoms with mass left below
    and above ``x``, ``r`` and ``s``, at the mean-preserving rates ``(s -
    x) / (s - r)`` and ``(x - r) / (s - r)``.  A row ends where one of its
    atoms runs empty or where ``x``'s levels end.  Levels are cumulative
    masses, so events closer than ``MASS_TOL`` are one.  ``s`` only moves
    right, and every atom right of it is untouched; ``r`` steps back
    through ``prv``, the previous atom with mass left.  phi at a row's
    start is the mass of ``nu`` used up to and including its upper atom,
    less ``u``.  The levels are ``mu``'s cumulative weights, from exactly 0
    to exactly ``end``: 1 for a probability pair, ``mu.mass`` for a
    sub-probability source, whose shadow is the mass used up.  Rows are
    tuples ``(u_lo, u_hi, x, r, s, phi_lo)``.  The walk judges itself, so
    ``mu`` does not lie below ``nu`` in convex order where it raises
    :class:`~leftcurtain.measures.DecomposeError`: at a source atom with no
    target atom with mass left on one side of it (the atom is the witness,
    its levels not yet sent the gap), or at an overdraw of ``nu``'s atoms
    (:func:`_check_overdraw`).
    """
    # scalars are read as Python floats, which is faster than numpy's
    ys, f_nu, left = nu.xs.tolist(), nu.cum_weights.tolist(), nu.ws.tolist()
    levels = [0.0, *mu.cum_weights.tolist()]
    levels[-1] = end
    prv = [-1] * len(ys)
    rows: list[tuple] = []
    r, s = -1, 0  # the lower atom with mass left (-1: none) and the first atom right of it
    for i, x in enumerate(mu.xs.tolist()):
        u, hi = levels[i], levels[i + 1]
        while s < len(ys) and ys[s] <= x + POS_EPS:
            prv[s], r, s = r, s, s + 1
        while True:
            if r >= 0 and ys[r] >= x - POS_EPS:  # an atom at x: a point row
                y_r, y_s, w_r, w_s, upper = x, x, 1.0, 0.0, r
            elif r < 0 or s == len(ys):
                raise DecomposeError(
                    "inputs not in convex order: no target atom with mass left on one side"
                    f" of {x} for its last {hi - u:.3e} of mass",
                    x,
                    hi - u,
                )
            else:
                y_r, y_s, upper = ys[r], ys[s], s
                w_r, w_s = (y_s - x) / (y_s - y_r), (x - y_r) / (y_s - y_r)
            phi = f_nu[upper] - left[upper] - u
            # the last atom with mass on a side never runs empty: it takes up
            # the rounding of a pair that is in convex order within tolerance
            end_r = u + left[r] / w_r if prv[r] >= 0 and s < len(ys) else math.inf
            end_s = u + left[s] / w_s if w_s and s + 1 < len(ys) else math.inf
            nxt = min(end_r, end_s)
            last = nxt >= hi - MASS_TOL  # the row lasts to the end of x's levels
            if last:
                nxt = hi
            if last or nxt > u + MASS_TOL:
                rows.append((u, nxt, x, y_r, y_s, phi))
                left[r] -= (nxt - u) * w_r
                if w_s:
                    left[s] -= (nxt - u) * w_s
                u = nxt
            if last:
                break
            if end_r <= nxt + MASS_TOL:
                left[r], r = 0.0, prv[r]
            if end_s <= nxt + MASS_TOL:
                left[s], s = 0.0, s + 1
    _check_overdraw(nu, left)
    return rows, left


@dataclass(frozen=True)
class OrderResult:
    ordered: bool
    witness: float | None = None
    gap: float = 0.0

    def __bool__(self) -> bool:
        return self.ordered


def _ordered_walk(mu: DiscreteMeasure, nu: DiscreteMeasure, end: float) -> list[tuple]:
    """The rows of :func:`_walk` to level ``end``: the one convex-order
    verdict.  A pair of equal mass and mean is in convex order exactly when
    it has a martingale coupling, which the walk builds or fails to build
    (Beiglboeck and Juillet 2016, section 4).  So after the mass and mean
    tests it takes the walk's own verdict, as ``marginal_nu_tv`` of its
    coupling would read: the witness is an atom and the gap a mass.  The
    mean gap is judged relative to :func:`~leftcurtain.measures._reach`."""
    d_mass, d_mean = abs(mu.mass - nu.mass), abs(mu.mean - nu.mean)
    if d_mass > MASS_TOL or d_mean > MASS_TOL * _reach(nu):
        gap = d_mass if d_mass > MASS_TOL else d_mean
        raise DecomposeError(f"inputs not in convex order: mass or mean off by {gap:.3e}", gap=gap)
    return _walk(mu, nu, end)[0]


def _check_overdraw(nu: DiscreteMeasure, left: list[float]) -> None:
    """Raise :class:`~leftcurtain.measures.DecomposeError` where the mass
    ``left`` in ``nu``'s atoms after a walk overdraws them by more than
    ``DEFAULT_TOL`` in total, with the most overdrawn atom as witness."""
    over = -sum(w for w in left if w < 0.0)
    if over > DEFAULT_TOL:
        x = float(nu.xs[left.index(min(left))])
        raise DecomposeError(
            f"inputs not in convex order: the walk overdraws nu by {over:.3e}, most at {x}", x, over
        )


def check_convex_order(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OrderResult:
    """Convex-order test by the curtain walk to ``mu``'s mass
    (:func:`_ordered_walk`), with its witness and gap."""
    try:
        _ordered_walk(mu, nu, mu.mass)
    except DecomposeError as exc:
        return OrderResult(False, exc.witness, exc.gap)
    return OrderResult(True)


def _check_pair(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[tuple]:
    """The pair check of :func:`build_curtain`: unit mass, then the order
    verdict, whose rows it returns."""
    if abs(mu.mass - 1.0) > MASS_TOL:
        raise ValueError(f"inputs must be probability measures, mass={mu.mass}")
    return _ordered_walk(mu, nu, 1.0)


def build_curtain(mu: DiscreteMeasure, nu: DiscreteMeasure) -> CurtainTable:
    """Exact curtain table for a pair of probability measures in convex order.

    One walk over the whole pair in its global quantile levels uses up the
    target's atoms: where the shadow so far fills ``nu`` up to a source
    atom, the walk passes through point kernels, so irreducible components
    and static atoms need no separate treatment.  Raises ``ValueError``
    unless ``mu`` has unit mass and
    :class:`~leftcurtain.measures.DecomposeError` unless the walk finds the
    pair in convex order (:func:`_ordered_walk`).
    """
    rows = np.array(_check_pair(mu, nu), dtype=float).reshape(-1, 6)
    rows.flags.writeable = False
    return CurtainTable(rows[:, :5], rows[:, 5])


# -- lifted coupling -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LiftedCoupling(_Rows):
    """Curtain kernels integrated over the quantile level.

    The flattened joint measure on pairs ``(joint_x, joint_y)`` with
    weights ``joint_w`` is the rows' integral: each pair carries what the
    rows send from its source atom to its target atom.
    """

    joint_x: np.ndarray
    joint_y: np.ndarray
    joint_w: np.ndarray

    def to_json(self, components=None) -> dict:
        return {
            "components": components if components is not None else [],
            "intervals": [dict(zip(_COUPLING_ROW_KEYS, row)) for row in self.intervals.tolist()],
            "joint": np.column_stack((self.joint_x, self.joint_y, self.joint_w)).tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "LiftedCoupling":
        """The coupling of a JSON document as :meth:`to_json` writes it; a
        document of another shape, or an entry that is not a finite number,
        is a ``ValueError``."""
        try:
            rows = [[float(r[key]) for key in _COUPLING_ROW_KEYS] for r in obj["intervals"]]
            joint = np.array(obj["joint"], dtype=float)
        except TypeError as exc:
            raise ValueError(f"coupling entries must be finite numbers in rows ({exc})") from None
        if joint.size and joint.shape[1:] != (3,):
            raise ValueError("coupling joint rows must be [x, y, weight] triples of finite numbers")
        joint = joint.reshape(-1, 3)
        rows = np.array(rows, dtype=float).reshape(-1, 5)
        if not (np.isfinite(rows).all() and np.isfinite(joint).all() and (joint[:, 2] >= 0).all()):
            raise ValueError("coupling entries must be finite and joint weights non-negative")
        return LiftedCoupling(rows, joint[:, 0].copy(), joint[:, 1].copy(), joint[:, 2].copy())


def coupling(table: CurtainTable, mu: DiscreteMeasure) -> LiftedCoupling:
    """Integrate the two-point kernels of a curtain table over ``du``.

    The kernel is constant on every table interval, so the flattened joint
    measure is an exact finite sum; its first marginal is ``mu`` by
    construction and its second marginal is the target law.  Weights of
    equal ``(x, y)`` pairs are added in table order.  The coupling's rows
    are the table's own read-only array.  ``mu`` is unread, since the rows
    carry the source; it stays because ``perfbench`` passes it, until
    ROADMAP item 1 changes those calls.
    """
    u_lo, u_hi, x, _, s = table.intervals.T
    lower, w_r, _ = table._kernels
    du = u_hi - u_lo
    xs = np.repeat(x, 2)
    ys = np.column_stack((lower, s)).ravel()
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
    return LiftedCoupling(table.intervals, pairs.real[keep], pairs.imag[keep], weights[keep])


def sample_y_many(table: CurtainTable, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Deterministic destinations of the pairs of uniforms ``(us, vs)``.

    The current quantile on point-kernel intervals; otherwise the lower
    destination where ``v`` is at most the mean-preserving share ``(S -
    G) / (S - R)`` and the upper one above it.
    """
    _, u_hi, _, _, s = table.intervals.T
    lower, share, _ = table._kernels
    idx = _level_index(u_hi, us, table)
    return np.where(vs <= share[idx], lower[idx], s[idx])


def curve_rows(table: CurtainTable) -> np.ndarray:
    """Rows ``(u, G, R, Q, S, phi)`` at both endpoints of every interval;
    the contact ``Q`` of the envelope left of ``G`` is ``R`` itself."""
    u_lo, u_hi, x, r, s = table.intervals.T
    shape = (x, r, r, s)
    lo = np.column_stack((u_lo, *shape, table.phi_lo))
    phi_hi = _phi_hi(table.phi_lo, u_hi - u_lo, table._kernels)
    hi = np.column_stack((u_hi, *shape, phi_hi))
    return np.stack((lo, hi), axis=1).reshape(-1, 6)
