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
extended convex order raise the walk's
:class:`~leftcurtain.measures.DecomposeError`.
"""

from __future__ import annotations

from .curtain import _ordered_walk, _walk
from .measures import DEFAULT_TOL, MASS_TOL, DecomposeError, DiscreteMeasure, _reach


def shadow(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Shadow of ``mu`` in ``nu``: the mass of ``nu``'s atoms that the walk
    of ``mu`` uses up.

    Every failure is a :class:`~leftcurtain.measures.DecomposeError`: a
    source heavier than ``nu``, with the excess as gap; the walk's own
    (:func:`~leftcurtain.curtain._walk`), with its witness and gap; and a
    result whose mass or mean is off ``mu``'s (:func:`_validate`).  A
    source with the target's mass (within ``MASS_TOL``) has all of ``nu``
    as its shadow when the walk's convex-order verdict
    (:func:`~leftcurtain.curtain._ordered_walk`) accepts the pair, and
    ``nu`` itself is returned.
    """
    if mu.n_atoms == 0:
        return DiscreteMeasure([], [])
    if mu.mass > nu.mass + MASS_TOL:
        excess = mu.mass - nu.mass
        raise DecomposeError(f"source mass {mu.mass} exceeds target mass {nu.mass}", gap=excess)
    if mu.mass >= nu.mass - MASS_TOL:
        _ordered_walk(mu, nu, mu.mass)
        return nu
    _, left = _walk(mu, nu, mu.mass)
    result = DiscreteMeasure(nu.xs, nu.ws - left)
    _validate(mu, result)
    return result


def _validate(mu: DiscreteMeasure, s: DiscreteMeasure) -> None:
    """Judge the shadow ``s`` of ``mu`` by the tolerances of ``measures``:
    its mass within ``DEFAULT_TOL``, the overdraw the walk allows, and its
    mean within ``DEFAULT_TOL`` times :func:`~leftcurtain.measures._reach`."""
    d_mass, d_mean = abs(s.mass - mu.mass), abs(s.mean - mu.mean)
    if d_mass > DEFAULT_TOL:
        raise DecomposeError(f"shadow mass {s.mass} != source mass {mu.mass}", gap=d_mass)
    if d_mean > DEFAULT_TOL * _reach(s):
        raise DecomposeError(f"shadow mean {s.mean} != source mean {mu.mean}", gap=d_mean)
