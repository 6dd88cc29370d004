"""Gap-based reference for :func:`leftcurtain.decompose`.

Finds the zeros of the potential gap ``D = P_nu - P_mu`` on the union of
both supports, with tolerances of its own, and splits the pair into the
maximal open intervals where ``D > 0``.  Source mass on a zero stays in
place; the target mass left over at an interior zero goes to the two
neighbouring components by mass balance.  The package reads the same
components off the lifted coupling instead, so the tests compare the two.
The convex-order test is left to the package.
"""

import numpy as np

from leftcurtain import DiscreteMeasure, check_convex_order
from leftcurtain.measures import MASS_TOL
from leftcurtain.decompose import Decomposition, IrreducibleComponent
from conftest import atom_weight, tv_distance

#: gap values below this, times the pair's spread, count as zeros of D
ZERO_TOL = 1e-11

#: tolerance on component mass balance
BALANCE_TOL = 1e-10


def _put(eta, c, k):
    """Put potential of ``eta`` at the points ``k``, centred at ``c``."""
    j = np.searchsorted(eta.xs, k, side="left")
    cw = np.concatenate(([0.0], np.cumsum(eta.ws)))
    cm = np.concatenate(([0.0], np.cumsum(eta.ws * (eta.xs - c))))
    return cw[j] * (k - c) - cm[j]


def decompose_reference(mu, nu):
    """Irreducible components and static part of a convex-ordered pair."""
    order = check_convex_order(mu, nu)
    assert order, order
    if tv_distance(mu, nu) <= MASS_TOL:  # equal laws: everything stays
        return Decomposition((), mu)
    c = mu.mean / mu.mass
    grid = np.union1d(mu.xs, nu.xs)
    gap = _put(nu, c, grid) - _put(mu, c, grid)
    scale = max(1.0, c - float(grid[0]), float(grid[-1]) - c)
    zero_idx = np.flatnonzero(np.abs(gap) <= ZERO_TOL * scale)
    assert zero_idx[0] == 0 and zero_idx[-1] == grid.size - 1

    # static share and leftover target mass at every zero
    static_atoms = []
    residual = {}
    for i in zero_idx.tolist():
        x = float(grid[i])
        m_w, n_w = atom_weight(mu, x), atom_weight(nu, x)
        assert m_w <= n_w + BALANCE_TOL
        take = min(m_w, n_w)
        if take > 0:
            static_atoms.append((x, take))
        residual[i] = n_w - take

    components = []
    for left, right in zip(zero_idx[:-1].tolist(), zero_idx[1:].tolist()):
        if right == left + 1:
            continue  # adjacent zeros: no active mass between
        a, b = float(grid[left]), float(grid[right])
        mu_mask = (mu.xs > a) & (mu.xs < b)
        nu_mask = (nu.xs > a) & (nu.xs < b)
        mu_part = DiscreteMeasure(mu.xs[mu_mask], mu.ws[mu_mask])
        inner_x, inner_w = nu.xs[nu_mask], nu.ws[nu_mask]
        # the component opening at `a` takes what the one closing there left
        lam_a = residual.pop(left, 0.0)
        lam_b = mu_part.mass - float(inner_w.sum()) - lam_a
        avail_b = residual.get(right, 0.0)
        assert -BALANCE_TOL <= lam_b <= avail_b + BALANCE_TOL
        lam_b = min(max(lam_b, 0.0), avail_b)
        residual[right] = avail_b - lam_b
        extra = [(x, w) for x, w in ((a, lam_a), (b, lam_b)) if w > 0]
        nu_part = DiscreteMeasure(
            np.concatenate([inner_x, [x for x, _ in extra]]),
            np.concatenate([inner_w, [w for _, w in extra]]),
        )
        components.append(IrreducibleComponent(a, b, lam_a > 0, lam_b > 0, mu_part, nu_part))
    assert all(rem <= BALANCE_TOL for rem in residual.values())
    return Decomposition(tuple(components), DiscreteMeasure.from_atoms(static_atoms))
