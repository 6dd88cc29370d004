"""Irreducible decomposition of a convex-ordered pair.

Wherever the potential gap ``D = P_nu - P_mu`` vanishes, no martingale
transport may cross, so the pair splits into independent components on the
maximal open intervals where ``D > 0``, plus a static part that is
transported identically.  Source mass sitting exactly on a zero of ``D``
stays in place (this needs the target to carry at least as much mass
there); leftover target mass at an interior zero is allocated to the two
neighbouring components by mass balance, and mean balance then holds
automatically because the potentials agree at the zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, Order, _gap_scale, _order_with_gap

#: potential values below this, times the pair's spread (``_gap_scale``),
#: count as zeros of D
ZERO_TOL = 1e-11

#: tolerance on component mass/mean balance
BALANCE_TOL = 1e-10


class DecomposeError(ValueError):
    """Component mass or mean balance failed; should be impossible for
    convex-ordered inputs."""


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


def decompose(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Decomposition:
    """Split ``(mu, nu)`` into irreducible components and a static part."""
    order, grid, dvals = _order_with_gap(mu, nu)
    if not order:
        raise DecomposeError(
            f"inputs not in convex order (witness {order.witness}, gap {order.gap:.3e})"
        )
    if order.status is Order.EQUAL_LAW:
        return Decomposition((), mu)

    zero_tol = ZERO_TOL * _gap_scale(grid, mu.mean / mu.mass)
    is_zero = np.abs(dvals) <= zero_tol
    if not is_zero[0] or not is_zero[-1]:
        raise DecomposeError("potential gap does not vanish at the support ends")

    # static share and leftover target mass at every zero grid point
    static_atoms: list[tuple[float, float]] = []
    residual: dict[int, float] = {}
    zero_idx = np.flatnonzero(is_zero)
    zero_x = grid[zero_idx]
    m_ws = mu.atom_weight(zero_x).tolist()
    n_ws = nu.atom_weight(zero_x).tolist()
    for i, x, m_w, n_w in zip(zero_idx.tolist(), zero_x.tolist(), m_ws, n_ws):
        if m_w > n_w + BALANCE_TOL:
            raise DecomposeError(
                f"source atom of weight {m_w} at zero {x} exceeds target weight {n_w}"
            )
        take = min(m_w, n_w)
        if take > 0:
            static_atoms.append((x, take))
        residual[i] = n_w - take

    components: list[IrreducibleComponent] = []
    for left, right in zip(zero_idx[:-1], zero_idx[1:]):
        if right == left + 1:
            continue  # adjacent zeros: identity region, no active mass between
        if np.any(np.abs(dvals[left + 1 : right]) <= zero_tol):
            raise DecomposeError("interior zero inside an active run")
        a, b = float(grid[left]), float(grid[right])
        mu_mask = (mu.xs > a) & (mu.xs < b)
        nu_mask = (nu.xs > a) & (nu.xs < b)
        mu_part = DiscreteMeasure(mu.xs[mu_mask], mu.ws[mu_mask])
        inner_x, inner_w = nu.xs[nu_mask], nu.ws[nu_mask]
        # the component opening at `a` absorbs the target mass the previous
        # component (processed first, left to right) did not take
        lam_a = residual.pop(int(left), 0.0)
        lam_b = mu_part.mass - float(inner_w.sum()) - lam_a
        avail_b = residual.get(int(right), 0.0)
        if lam_b < -BALANCE_TOL or lam_b > avail_b + BALANCE_TOL:
            raise DecomposeError(
                f"boundary allocation {lam_b:.3e} at {b} outside available mass {avail_b:.3e}"
            )
        lam_b = min(max(lam_b, 0.0), avail_b)
        residual[int(right)] = avail_b - lam_b
        extra_x: list[float] = []
        extra_w: list[float] = []
        if lam_a > 0:
            extra_x.append(a)
            extra_w.append(lam_a)
        if lam_b > 0:
            extra_x.append(b)
            extra_w.append(lam_b)
        nu_part = DiscreteMeasure(
            np.concatenate([inner_x, extra_x]), np.concatenate([inner_w, extra_w])
        )
        if abs(nu_part.mass - mu_part.mass) > BALANCE_TOL:
            raise DecomposeError(
                f"component mass mismatch on ({a}, {b}): {nu_part.mass} vs {mu_part.mass}"
            )
        if abs(nu_part.mean - mu_part.mean) > BALANCE_TOL * max(1.0, abs(mu_part.mean)):
            raise DecomposeError(
                f"component mean mismatch on ({a}, {b}): {nu_part.mean} vs {mu_part.mean}"
            )
        components.append(
            IrreducibleComponent(a, b, lam_a > 0, lam_b > 0, mu_part, nu_part)
        )

    for i, rem in residual.items():
        if rem > BALANCE_TOL:
            raise DecomposeError(f"unallocated target mass {rem:.3e} at zero {grid[i]}")

    static = DiscreteMeasure.from_atoms(static_atoms)
    return Decomposition(tuple(components), static)
