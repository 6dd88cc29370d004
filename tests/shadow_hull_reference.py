"""The retired hull route of the shadow, kept as a test reference.

``shadow`` used to take the lower convex envelope of the potential gap
``P_nu - P_mu`` on the union of both supports and read the shadow's
weights off the envelope's slope jumps; it now walks ``nu``'s atoms and
returns the mass the walk uses up.  This module keeps the hull route, with
its own gap evaluation, so the two can be compared: they must accept and
reject the same sources and agree in total variation.  The per-level
shadow check of ``tests/shadow_oracle.py`` takes its shadows from here, so
it reads no code of the walk it checks.  It takes its hull scan from
:mod:`leftcurtain.pwl`, and keeps frozen copies of the convex-order check
by potential domination (:func:`_check_order`) and of the validation
(:func:`_validate`, with its potential test) that the package applied
before the walk became its convex-order verdict.

``hull_shadow(mu, nu)`` returns the shadow of ``mu`` in ``nu`` and raises
:class:`~leftcurtain.shadow.ShadowInvalid` where the hull route did.
"""

import numpy as np

from leftcurtain import DecomposeError as ShadowInvalid
from leftcurtain.measures import MASS_TOL, DiscreteMeasure, _put_values
from leftcurtain.pwl import convex_hull

#: slack the hull route allowed when checking atomwise domination by ``nu``
DOMINATION_SLACK = 1e-10


def _pair_gap(mu, nu):
    """The gap ``D = P_nu - P_mu`` of two non-empty measures on the union of
    their supports: the union's points, the cumulative weights ``F_mu`` and
    ``F_nu`` on the segments between neighbouring points, and ``D`` at the
    points, as the prefix sums of the segment rises ``(F_nu - F_mu) h`` from
    0 at the left end of the support."""
    kinks = np.union1d(mu.xs, nu.xs)
    h = np.diff(kinks)
    f_mu = np.append(0.0, mu.cum_weights)[mu.xs.searchsorted(kinks[:-1], side="right")]
    f_nu = np.append(0.0, nu.cum_weights)[nu.xs.searchsorted(kinks[:-1], side="right")]
    d = np.concatenate(([0.0], np.cumsum((f_nu - f_mu) * h)))
    return kinks, f_mu, f_nu, d


def _check_order(mu, nu):
    """Raise unless ``mu`` lies below ``nu`` in convex order by potential
    domination: equal mass and mean, and the gap of :func:`_pair_gap` at its
    kinks at least ``-MASS_TOL`` times the largest distance of a kink from
    ``mu``'s barycentre (at least 1), since potential values, and their
    rounding, grow with the spread of the positions."""
    if abs(mu.mass - nu.mass) > MASS_TOL or abs(mu.mean - nu.mean) > MASS_TOL * max(
        1.0, abs(mu.mean)
    ):
        raise ShadowInvalid("source not below target in convex order: masses or means differ")
    kinks, _, _, d = _pair_gap(mu, nu)
    c = mu.mean / mu.mass
    worst = int(np.argmin(d))
    if d[worst] < -MASS_TOL * max(1.0, c - float(kinks[0]), float(kinks[-1]) - c):
        raise ShadowInvalid(
            f"source not below target in convex order (witness {kinks[worst]}, "
            f"gap {-d[worst]:.3e})"
        )


def _validate(mu, nu, s):
    """The shadow's mass, mean, atomwise domination by ``nu`` within
    ``DOMINATION_SLACK``, and ``mu`` below it in convex order by potential
    domination at the kinks."""
    if abs(s.mass - mu.mass) > 1e-10:
        raise ShadowInvalid(f"shadow mass {s.mass} != source mass {mu.mass}")
    if abs(s.mean - mu.mean) > 1e-9 * max(1.0, abs(mu.mean)):
        raise ShadowInvalid(f"shadow mean {s.mean} != source mean {mu.mean}")
    cap = nu.atom_weight(s.xs)
    over = np.flatnonzero(s.ws > cap + DOMINATION_SLACK)
    if over.size:
        x, w, target = (float(a[over[0]]) for a in (s.xs, s.ws, cap))
        raise ShadowInvalid(f"shadow atom ({x}, {w}) exceeds target weight {target}")
    # equal mass and mean make the potential gap vanish on both tails, so
    # its values at the kinks suffice
    grid = np.union1d(s.xs, mu.xs)
    c = mu.mean / mu.mass
    gap = _put_values(s.xs, s.ws, c, grid) - _put_values(mu.xs, mu.ws, c, grid)
    if gap.min() < -1e-9:
        raise ShadowInvalid(f"source not dominated by shadow (gap {gap.min():.3e})")


def hull_shadow(mu, nu):
    """Shadow of ``mu`` in ``nu`` as ``nu`` minus the slope jumps of the
    envelope of ``P_nu - P_mu``.

    Weights up to 1e-13 are dropped, and a weight below -1e-9 (an envelope
    kink heavier than the target atom under it, or a kink off ``nu``'s
    atoms) raises.  A source with the target's mass that lies below it in
    convex order has ``nu`` itself as its shadow.
    """
    if mu.n_atoms == 0:
        return DiscreteMeasure([], [])
    if mu.mass > nu.mass + MASS_TOL:
        raise ShadowInvalid(f"source mass {mu.mass} exceeds target mass {nu.mass}")
    if mu.mass >= nu.mass - MASS_TOL:
        _check_order(mu, nu)
        return nu
    grid, f_mu, f_nu, d = _pair_gap(mu, nu)
    ws = np.zeros(grid.size)  # nu's weights on the grid; the envelope's jumps come off below
    ws[grid.searchsorted(nu.xs)] = nu.ws
    slope_right = nu.mass - mu.mass
    hx, hy = convex_hull(grid, d, 0.0, slope_right)
    # an envelope edge between neighbouring grid points runs along the gap,
    # whose slope there is F_nu - F_mu: a difference of cumulative weights,
    # free of the cancellation of a chord slope taken from potential values
    v = grid.searchsorted(hx)
    along = f_nu - f_mu
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
