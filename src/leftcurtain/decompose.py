"""Irreducible decomposition of a convex-ordered pair, read off its coupling.

Wherever the potential gap ``D = P_nu - P_mu`` vanishes, no martingale
transport may cross, so the pair splits into independent components on the
maximal open intervals where ``D > 0``, plus a static part that is
transported identically.  The left-curtain coupling already knows these
intervals: no split kernel's band ``(r, s)`` crosses a zero of ``D``, and
the bands of the split rows, merged where they overlap, are exactly the
components.  Source mass outside every component stays in place; the
target mass a component's rows send to its endpoints is its share of the
target atoms sitting on the zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curtain import LiftedCoupling
from .measures import DiscreteMeasure


@dataclass(frozen=True)
class IrreducibleComponent:
    """One maximal interval ``(a, b)`` with ``D > 0`` inside.

    ``mu_part`` and ``nu_part`` have equal mass and mean; ``nu_part`` may
    include partial target atoms at the endpoints (the boundary-mass
    allocation), in which case the matching inclusion flag is set.
    """

    a: float
    b: float
    includes_a: bool
    includes_b: bool
    mu_part: DiscreteMeasure
    nu_part: DiscreteMeasure

    @property
    def mass(self) -> float:
        return self.mu_part.mass


@dataclass(frozen=True)
class Decomposition:
    components: tuple[IrreducibleComponent, ...]
    static: DiscreteMeasure


def decompose(pi: LiftedCoupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> Decomposition:
    """Split ``(mu, nu)`` into irreducible components and a static part,
    given their coupling ``pi = coupling(build_curtain(mu, nu), mu)``."""
    _, _, _, r, s = pi.intervals.T
    split = pi._kernels[2]
    order = np.argsort(r[split], kind="stable")
    r, s = r[split][order], s[split][order]
    # a band opens a new component unless it starts inside the bands before it
    reach = np.maximum.accumulate(s)
    opens = np.ones(r.size, dtype=bool)
    opens[1:] = r[1:] >= reach[:-1]
    closes = np.ones(r.size, dtype=bool)
    closes[:-1] = opens[1:]

    components: list[IrreducibleComponent] = []
    inside = np.zeros(mu.n_atoms, dtype=bool)
    for a, b in zip(r[opens].tolist(), reach[closes].tolist()):
        mu_mask = (mu.xs > a) & (mu.xs < b)
        nu_mask = (nu.xs > a) & (nu.xs < b)
        inside |= mu_mask
        mu_part = DiscreteMeasure(mu.xs[mu_mask], mu.ws[mu_mask])
        # the joint destinations are the table's own positions, so the rows
        # that reach an endpoint match it exactly
        rows = (pi.joint_x > a) & (pi.joint_x < b)
        lam_a = float(pi.joint_w[rows & (pi.joint_y == a)].sum())
        lam_b = float(pi.joint_w[rows & (pi.joint_y == b)].sum())
        extra = [(y, w) for y, w in ((a, lam_a), (b, lam_b)) if w > 0]
        nu_part = DiscreteMeasure(
            np.concatenate([nu.xs[nu_mask], [y for y, _ in extra]]),
            np.concatenate([nu.ws[nu_mask], [w for _, w in extra]]),
        )
        components.append(IrreducibleComponent(a, b, lam_a > 0, lam_b > 0, mu_part, nu_part))
    static = DiscreteMeasure(mu.xs[~inside], mu.ws[~inside])
    return Decomposition(tuple(components), static)
