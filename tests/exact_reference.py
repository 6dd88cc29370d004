"""Exact-rational references over ``fractions.Fraction``.

Every float of the input is an exact rational, so the convex order of two
measures and the shadow of ``mu`` in ``nu`` can be decided with no
rounding and no tolerance.  The order holds exactly when the masses and
means are equal and ``P_mu <= P_nu`` at the union of both supports.  The
shadow is read off the put potentials at that union: the lower convex
envelope of their gap ``P_nu - P_mu`` with the gap's tail slopes, and the
shadow as ``nu`` minus the envelope's slope jumps.  It shares no code with
the package.
"""

from fractions import Fraction


def _atoms(eta):
    return [(Fraction(x), Fraction(w)) for x, w in zip(eta.xs.tolist(), eta.ws.tolist())]


def _put(atoms, k):
    return sum((w * (k - x) for x, w in atoms if x < k), Fraction(0))


def exact_order(mu, nu):
    """Whether ``mu`` lies below ``nu`` in convex order, exactly: equal mass
    and mean make the potential gap vanish on both tails, so its signs at
    the union of both supports decide."""
    mu_atoms, nu_atoms = _atoms(mu), _atoms(nu)
    for moment in (lambda x: 1, lambda x: x):
        if sum(w * moment(x) for x, w in mu_atoms) != sum(w * moment(x) for x, w in nu_atoms):
            return False
    grid = {x for x, _ in mu_atoms} | {x for x, _ in nu_atoms}
    return all(_put(mu_atoms, k) <= _put(nu_atoms, k) for k in grid)


def exact_shadow(mu, nu):
    """The shadow of ``mu`` in ``nu`` as a dict ``{position: weight}`` of
    exact rationals, without zero weights."""
    mu_atoms, nu_atoms = _atoms(mu), _atoms(nu)
    grid = sorted({x for x, _ in mu_atoms} | {x for x, _ in nu_atoms})
    gap = [_put(nu_atoms, k) - _put(mu_atoms, k) for k in grid]
    slope_right = sum(w for _, w in nu_atoms) - sum(w for _, w in mu_atoms)

    hull = []  # lower hull; a vertex on the chord of its neighbours is dropped
    for point in zip(grid, gap):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (point[0] - x1) < (point[1] - y1) * (x1 - x0):
                break
            hull.pop()
        hull.append(point)
    # the envelope keeps the gap's tail slopes 0 and slope_right: it starts at
    # the leftmost vertex of least y and ends at the rightmost of least
    # y - slope_right * x
    low = min(y for _, y in hull)
    first = next(i for i, (_, y) in enumerate(hull) if y == low)
    low = min(y - slope_right * x for x, y in hull)
    last = max(i for i, (x, y) in enumerate(hull) if y - slope_right * x == low)
    hull = hull[first : last + 1]

    slopes = [Fraction(0)]
    slopes += [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    slopes.append(slope_right)
    weights = dict(nu_atoms)
    for (x, _), left, right in zip(hull, slopes, slopes[1:]):
        weights[x] = weights.get(x, Fraction(0)) - (right - left)
    return {x: w for x, w in weights.items() if w != 0}
