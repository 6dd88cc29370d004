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
extended convex order are signalled through :class:`ShadowInvalid`; the
walk's overdraw of ``nu`` is judged by one rule whatever the source's mass
(:func:`~leftcurtain.curtain._check_overdraw`).
"""

from __future__ import annotations

from .curtain import _check_overdraw, _ordered_walk, _walk
from .measures import MASS_TOL, DecomposeError, DiscreteMeasure


class ShadowInvalid(ValueError):
    """Shadow output failed validation: inputs were not in extended convex
    order, or numerics broke down."""


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Shadow of ``mu`` in ``nu``: the mass of ``nu``'s atoms that the walk
    of ``mu`` uses up.

    A source atom with no target mass left on one side of it raises, and
    so does a walk that overdraws ``nu``'s atoms by more than
    ``DEFAULT_TOL`` in total (the last atom on a side takes up what the
    others cannot), the rule of the walk's convex-order verdict
    (:func:`~leftcurtain.curtain._ordered_walk`).  Weights up to 1e-13 are
    dropped, and the result is checked for mass/mean agreement with
    ``mu``.  A source with the target's mass (within ``MASS_TOL``) has all
    of ``nu`` as its shadow when that verdict accepts the pair, and ``nu``
    itself is returned.
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
        _check_overdraw(nu, left)
    except DecomposeError as exc:
        raise ShadowInvalid(str(exc)) from exc
    ws = nu.ws - left
    keep = ws > 1e-13
    result = DiscreteMeasure(nu.xs[keep], ws[keep])
    _validate(mu, result)
    return result


def _validate(mu: DiscreteMeasure, s: DiscreteMeasure) -> None:
    if abs(s.mass - mu.mass) > 1e-10:
        raise ShadowInvalid(f"shadow mass {s.mass} != source mass {mu.mass}")
    if abs(s.mean - mu.mean) > 1e-9 * max(1.0, abs(mu.mean)):
        raise ShadowInvalid(f"shadow mean {s.mean} != source mean {mu.mean}")
