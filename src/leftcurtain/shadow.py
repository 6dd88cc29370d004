"""Shadow measure: the target mass that the curtain walk of the source
uses up.

The shadow of ``mu`` in ``nu`` is the smallest measure in convex order
among those dominated by ``nu`` into which ``mu`` embeds.  Shadows add
(Beiglboeck and Juillet 2016, section 4): the shadow of ``mu`` is the
shadow of its first atom in ``nu``, then of the next atom in what is left,
and so on.  That is the walk that builds the curtain table
(:func:`leftcurtain.curtain._walk`), run up to ``mu``'s mass, so the
shadow is ``nu`` less the mass the walk leaves in each atom, which the
walk's rows fill from ``mu`` by martingale kernels.  Inputs not in
extended convex order are signalled through :class:`ShadowInvalid`.
"""

from __future__ import annotations

import numpy as np

from .curtain import _ordered_walk, _walk
from .measures import MASS_TOL, DecomposeError, DiscreteMeasure

#: slack allowed when checking atomwise domination by ``nu`` (absorbs
#: the float error of the walk's rates)
DOMINATION_SLACK = 1e-10


class ShadowInvalid(ValueError):
    """Shadow output failed validation: inputs were not in extended convex
    order, or numerics broke down."""


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Shadow of ``mu`` in ``nu``: the mass of ``nu``'s atoms that the walk
    of ``mu`` uses up.

    A source atom with no target mass left on one side of it raises, and
    weights up to 1e-13 are dropped.  The result is then checked for
    domination by ``nu`` atom by atom, which rejects a walk that overdraws a
    target atom (the last atom on a side takes up what the others cannot),
    and for mass/mean agreement with ``mu``.  A source with the target's
    mass (within ``MASS_TOL``) has all of ``nu`` as its shadow when the
    walk's convex-order verdict (:func:`~leftcurtain.curtain._ordered_walk`)
    accepts the pair, and ``nu`` itself is returned.
    """
    if mu.n_atoms == 0:
        return DiscreteMeasure([], [])
    if mu.mass > nu.mass + MASS_TOL:
        raise ShadowInvalid(f"source mass {mu.mass} exceeds target mass {nu.mass}")
    try:
        if mu.mass >= nu.mass - MASS_TOL:
            _ordered_walk(mu, nu, mu.mass)
            return nu
        _, left = _walk(mu, nu, mu.mass)
    except DecomposeError as exc:
        raise ShadowInvalid(str(exc)) from exc
    ws = nu.ws - left
    keep = ws > 1e-13
    result = DiscreteMeasure(nu.xs[keep], ws[keep])
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
