"""Shadow measure computed from the potential formula.

The shadow of ``mu`` in ``nu`` is the smallest measure in convex order
among those dominated by ``nu`` into which ``mu`` embeds; its put
potential equals ``P_nu`` minus the lower convex envelope of
``P_nu - P_mu``.  This module computes exactly that and validates the
defining properties of the output, signalling invalid inputs (measures
not in extended convex order) through :class:`ShadowInvalid`.
"""

from __future__ import annotations

import numpy as np

from .measures import DiscreteMeasure, put_potential
from .pwl import NonConvexPotential, PiecewiseLinear, convex_hull, measure_from_potential

#: slack allowed when checking atomwise domination by ``nu`` (absorbs
#: float error of slope-jump extraction)
DOMINATION_SLACK = 1e-10


class ShadowInvalid(ValueError):
    """Shadow output failed validation: inputs were not in extended convex
    order, or numerics broke down."""


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure, *, validate: bool = True) -> DiscreteMeasure:
    """Shadow of ``mu`` in ``nu`` via the potential formula.

    Computes the second derivative of ``P_nu - (P_nu - P_mu)^c`` and, when
    ``validate`` is set, checks the three defining properties: domination
    by ``nu`` atom by atom, convex-order domination of ``mu``, and exact
    mass/mean agreement with ``mu``.
    """
    if mu.n_atoms == 0:
        return DiscreteMeasure([], [])
    if mu.mass > nu.mass + 1e-12:
        raise ShadowInvalid(f"source mass {mu.mass} exceeds target mass {nu.mass}")
    p_nu = put_potential(nu)
    p_mu = put_potential(mu)
    excess = p_nu - p_mu
    try:
        result = measure_from_potential(p_nu - convex_hull(excess))
    except (NonConvexPotential, ValueError) as exc:
        raise ShadowInvalid(f"potential extraction failed: {exc}") from exc
    if validate:
        _validate(mu, nu, result, p_mu)
    return result


def _validate(
    mu: DiscreteMeasure, nu: DiscreteMeasure, s: DiscreteMeasure, p_mu: PiecewiseLinear
) -> None:
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
    # mu below the shadow in convex order
    p_s = put_potential(s)
    grid = np.union1d(p_s.xs, p_mu.xs)
    gap = p_s(grid) - p_mu(grid)
    if gap.min() < -1e-9:
        raise ShadowInvalid(f"source not dominated by shadow (gap {gap.min():.3e})")

