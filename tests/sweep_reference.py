"""The retired potential sweep of the curtain table, kept as a test reference.

``build_curtain`` used to find each row's contacts from tangents of the
potential gap ``D = P_nu - P_mu`` and of ``P_nu``; it now walks ``nu``'s
atoms and uses up their mass.  This module keeps the sweep, with its own
potentials and prefix sums, so the walk's tables can be compared with an
independent construction.  It shares no code with the walk: it reads only
the measures' positions and cumulative weights.

``sweep_rows(mu, nu)`` returns the sweep's rows ``(u_lo, u_hi, x, r, s,
phi_lo)`` for a probability pair in convex order.
"""

from __future__ import annotations

import math

import numpy as np

from leftcurtain.measures import POS_EPS, DiscreteMeasure

#: piercing levels (and tangent slopes) closer than this are one sweep event
TIE_EPS = 1e-12


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Prefix sums of ``x`` from 0, as rows ``(sums, compensations)``: the
    plain prefix sums and the prefix sums of their rounding errors, each
    error exact by TwoSum (Ogita, Rump and Oishi 2005, Sum2)."""
    s = np.concatenate(([0.0], np.cumsum(x)))
    b = s[1:] - s[:-1]
    err = (s[:-1] - (s[1:] - b)) + (x - b)
    return np.stack((s, np.concatenate(([0.0], np.cumsum(err)))))


def _rise(end, start):
    """``end - start`` for columns of :func:`_prefix_sums`, accurate
    relative to its own size."""
    return (end[0] - start[0]) + (end[1] - start[1])


def _potentials(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The kinks of the pair, the gap ``D`` at them and ``P_nu`` at them as
    compensated prefix sums of segment rises."""
    kinks = np.union1d(mu.xs, nu.xs)
    h = np.diff(kinks)
    f_mu = np.append(0.0, mu.cum_weights)[mu.xs.searchsorted(kinks[:-1], side="right")]
    f_nu = np.append(0.0, nu.cum_weights)[nu.xs.searchsorted(kinks[:-1], side="right")]
    d = np.concatenate(([0.0], np.cumsum((f_nu - f_mu) * h)))
    return kinks, d, _prefix_sums(f_nu * h)


def sweep_rows(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list[tuple]:
    """Curtain rows of the probability pair ``(mu, nu)``.

    One left-to-right sweep over the levels of each source atom ``x_i``.
    On the atom's quantile interval the excess potential is the gap ``D``
    at kinks ``p <= x_i`` and ``A(k) - u (k - x_i)`` at target kinks
    ``k > x_i``, with ``A = P_nu - P_mu(x_i)``.  The envelope touches at
    ``x_i`` (a point kernel) up to ``u_detach``; from then on its piece
    over ``x_i`` is a chord ``(q, s)`` with slope ``phi(u) = phi_a - phi_b
    u``.  A kink ``p < q`` pierces the chord when ``phi`` falls to the
    slope of ``D`` from ``p`` to ``q``, a kink ``k > s`` when it falls to
    the slope of the excess from ``s`` to ``k``; the outermost kink among
    simultaneous piercings becomes the new contact.  The chord an atom
    ends with carries over to the next atom if it spans that atom.
    """
    kinks, d, p_nu = _potentials(mu, nu)
    xs, ys = mu.xs, nu.xs
    at_x, at_y = kinks.searchsorted(xs), kinks.searchsorted(ys)
    p_nu_ys = p_nu[:, at_y]
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
                raise RuntimeError(f"source atom {xi} detaches with no kink to its left")
            q = int(np.flatnonzero(left >= left.max() - TIE_EPS)[0])
            s = first_right + int(np.flatnonzero(right <= right.min() + TIE_EPS)[-1])
        while True:
            x_q, x_s, d_q = kink_at[q], y_at[s], d_at[q]
            span = x_s - x_q
            phi_a = (_rise(p_nu_y[s], p_nu_xi) + (d_xi - d_q)) / span
            phi_b = (x_s - xi) / span
            scale = span / (xi - x_q)
            left_slope = (d_q - d[:q]) / (x_q - kinks[:q])
            right_slope = _rise(p_nu_ys[:, s + 1 :], p_nu_ys[:, s]) / (ys[s + 1 :] - x_s)
            left_min = (phi_a - left_slope.max(initial=-math.inf)) / phi_b
            right_min = (right_slope.min(initial=math.inf) - phi_a) * scale
            nxt = min(left_min, right_min)
            if nxt >= hi - TIE_EPS:
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
