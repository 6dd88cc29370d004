"""Shadow measure computed from the potential formula.

The shadow of ``mu`` in ``nu`` is the smallest measure in convex order
among those dominated by ``nu`` into which ``mu`` embeds; its put
potential equals ``P_nu`` minus the lower convex envelope of
``P_nu - P_mu``.  So the shadow is ``nu`` minus the slope jumps of that
one envelope: the gap is read on the union of both supports from
:func:`leftcurtain.measures._pair_gap`, one hull scan takes its envelope,
and each target atom loses the envelope's jump there.  The output's
defining properties are then validated; inputs not in extended convex
order are signalled through :class:`ShadowInvalid`.
"""

from __future__ import annotations

import numpy as np

from .measures import MASS_TOL, DiscreteMeasure, _pair_gap, _put_values, check_convex_order
from .pwl import convex_hull

#: slack allowed when checking atomwise domination by ``nu`` (absorbs
#: float error of slope-jump extraction)
DOMINATION_SLACK = 1e-10


class ShadowInvalid(ValueError):
    """Shadow output failed validation: inputs were not in extended convex
    order, or numerics broke down."""


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Shadow of ``mu`` in ``nu`` via the potential formula.

    Each weight is the ``nu`` weight minus the slope jump of the envelope
    of ``P_nu - P_mu`` at that point; weights up to 1e-13 are dropped, and
    a weight below -1e-9 (an envelope kink heavier than the target atom
    under it, or a kink off ``nu``'s atoms) raises.  The result is then
    checked for the three defining properties: domination by ``nu`` atom
    by atom, convex-order domination of ``mu``, and exact mass/mean
    agreement with ``mu``.  A source with the target's mass (within
    ``MASS_TOL``) has all of ``nu`` as its shadow when it lies below ``nu``
    in convex order, and ``nu`` itself is returned.
    """
    if mu.n_atoms == 0:
        return DiscreteMeasure([], [])
    if mu.mass > nu.mass + MASS_TOL:
        raise ShadowInvalid(f"source mass {mu.mass} exceeds target mass {nu.mass}")
    if mu.mass >= nu.mass - MASS_TOL:
        order = check_convex_order(mu, nu)
        if not order:
            raise ShadowInvalid(
                f"source not below target in convex order (witness {order.witness}, "
                f"gap {order.gap:.3e})"
            )
        return nu
    pair = _pair_gap(mu, nu)
    grid = pair.kinks
    ws = np.zeros(grid.size)  # nu's weights on the grid; the envelope's jumps come off below
    ws[grid.searchsorted(nu.xs)] = nu.ws
    slope_right = nu.mass - mu.mass
    hx, hy = convex_hull(grid, pair.d, 0.0, slope_right)
    # an envelope edge between neighbouring grid points runs along the gap,
    # whose slope there is F_nu - F_mu: a difference of cumulative weights,
    # free of the cancellation of a chord slope taken from potential values
    v = grid.searchsorted(hx)
    along = pair.f_nu - pair.f_mu
    chord = np.diff(hy) / np.diff(hx)
    slopes = np.concatenate(([0.0], np.where(np.diff(v) == 1, along[v[:-1]], chord), [slope_right]))
    ws[v] -= np.diff(slopes)
    worst = int(np.argmin(ws))
    if ws[worst] < -1e-9:
        raise ShadowInvalid(
            f"envelope kink at {grid[worst]} exceeds the target weight there by {-ws[worst]:.3e}"
        )
    keep = ws > 1e-13
    result = DiscreteMeasure(grid[keep], ws[keep])
    _validate(mu, nu, result)
    return result


def _validate(mu: DiscreteMeasure, nu: DiscreteMeasure, s: DiscreteMeasure) -> None:
    if abs(s.mass - mu.mass) > 1e-10:
        raise ShadowInvalid(f"shadow mass {s.mass} != source mass {mu.mass}")
    if abs(s.mean - mu.mean) > 1e-9 * max(1.0, abs(mu.mean)):
        raise ShadowInvalid(f"shadow mean {s.mean} != source mean {mu.mean}")
    # atomwise domination by nu
    cap = nu.atom_weight(s.xs)
    over = np.flatnonzero(s.ws > cap + DOMINATION_SLACK)
    if over.size:
        x, w, target = (float(a[over[0]]) for a in (s.xs, s.ws, cap))
        raise ShadowInvalid(f"shadow atom ({x}, {w}) exceeds target weight {target}")
    # mu below the shadow in convex order: equal mass and mean make the
    # potential gap vanish on both tails, so its values at the kinks suffice
    grid = np.union1d(s.xs, mu.xs)
    c = mu.mean / mu.mass
    gap = _put_values(s.xs, s.ws, c, grid) - _put_values(mu.xs, mu.ws, c, grid)
    if gap.min() < -1e-9:
        raise ShadowInvalid(f"source not dominated by shadow (gap {gap.min():.3e})")
