"""Executable checks of the construction's guarantees.

Each verifier turns one structural property of the left-curtain coupling
into a residual with a tolerance: marginal errors, the conditional-mean
(martingale) residual, left-monotonicity violations of the destination
functions, the quantile-form identity for the destination law, and
consistency of the coupling's growing second marginal with shadows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .curtain import CurtainTable, LiftedCoupling
from .measures import DiscreteMeasure
from .shadow import shadow_of_restriction

#: default residual tolerance for exact-arithmetic checks
DEFAULT_TOL = 1e-9

#: slack for strict-inequality monotonicity comparisons
MONO_EPS = 1e-12


@dataclass
class VerificationReport:
    """Named residuals plus per-check pass flags."""

    marginal_mu_tv: float | None = None
    marginal_nu_tv: float | None = None
    martingale_residual_max: float | None = None
    monotonicity_violations: int | None = None
    proby_residual_max: float | None = None
    phi_sandwich_violation_max: float | None = None
    shadow_consistency_tv_max: float | None = None
    checks: dict = field(default_factory=dict)

    def record(self, name: str, value: float, tol: float) -> None:
        self.checks[name] = {"value": float(value), "tol": float(tol), "pass": bool(value <= tol)}

    def passed(self) -> bool:
        return all(entry["pass"] for entry in self.checks.values())

    def to_json(self) -> str:
        payload = {
            "marginal_mu_tv": self.marginal_mu_tv,
            "marginal_nu_tv": self.marginal_nu_tv,
            "martingale_residual_max": self.martingale_residual_max,
            "monotonicity_violations": self.monotonicity_violations,
            "proby_residual_max": self.proby_residual_max,
            "phi_sandwich_violation_max": self.phi_sandwich_violation_max,
            "shadow_consistency_tv_max": self.shadow_consistency_tv_max,
            "checks": self.checks,
            "pass": self.passed(),
        }
        return json.dumps(payload, indent=2)


def verify_coupling(
    pi: LiftedCoupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Marginal and martingale checks of a flattened coupling."""
    rep = report or VerificationReport()
    rep.marginal_mu_tv = pi.first_marginal().tv_distance(mu)
    rep.marginal_nu_tv = pi.second_marginal().tv_distance(nu)
    rep.record("marginal_mu_tv", rep.marginal_mu_tv, tol)
    rep.record("marginal_nu_tv", rep.marginal_nu_tv, tol)

    residual = 0.0
    order = np.argsort(pi.joint_x, kind="stable")
    xs = pi.joint_x[order]
    ys = pi.joint_y[order]
    ws = pi.joint_w[order]
    i = 0
    while i < xs.size:
        j = i
        while j < xs.size and xs[j] - xs[i] <= 1e-11:
            j += 1
        w_here = ws[i:j]
        residual = max(residual, abs(float(((ys[i:j] - xs[i]) * w_here).sum())))
        i = j
    rep.martingale_residual_max = residual
    rep.record("martingale_residual_max", residual, tol)
    return rep


def verify_left_monotone(table: CurtainTable, report: VerificationReport | None = None) -> int:
    """Count of ordered interval pairs violating left-monotonicity.

    For interval indices ``i < j`` the upper function must not decrease and
    the later lower value must avoid the open band ``(R_i, S_i)``.
    """
    r = np.ascontiguousarray(table.intervals["r"])
    s = np.ascontiguousarray(table.intervals["s"])
    violations = 0
    for i in range(len(r) - 1):
        later_r = r[i + 1 :]
        violations += int(np.count_nonzero(s[i + 1 :] < s[i] - MONO_EPS))
        violations += int(
            np.count_nonzero((r[i] + MONO_EPS < later_r) & (later_r < s[i] - MONO_EPS))
        )
    if report is not None:
        report.monotonicity_violations = violations
        report.record("monotonicity_violations", violations, 0)
    return violations


def destination_cdf(table: CurtainTable, y: float) -> float:
    """Probability that the destination lies at or below ``y``.

    Exact for a piecewise-constant table: levels up to the inverse of the
    upper function all land at or below ``y``; above it, the lower branch
    contributes its kernel weight wherever the lower function stays at or
    below ``y``.
    """
    v = table.s_inverse(y)
    t = table.intervals
    lower, share = table._lower_branch
    above = int(t["u_hi"].searchsorted(v, side="right"))  # rows with u_hi > v
    frac = t["u_hi"][above:] - np.maximum(t["u_lo"][above:], v)
    return v + float((frac * share[above:])[lower[above:] <= y].sum())


def verify_marginal_identity(
    table: CurtainTable,
    nu: DiscreteMeasure,
    samples: int = 100,
    seed: int = 0,
    mu: DiscreteMeasure | None = None,
    report: VerificationReport | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Residual of the quantile-form identity for the destination law.

    At continuity points ``y`` of both marginals the destination law
    satisfies ``P[Y <= y] = S^{-1}(y) + integral-term = F_nu(y)``, where
    the integral term accumulates the lower-branch weights above
    ``S^{-1}(y)``; the returned residual is the maximum gap between that
    exact evaluation and ``F_nu(y)``.  The envelope slope sandwiches the
    same quantity: ``phi(S^{-1}(y)) <= F_nu(y) - S^{-1}(y) <=
    phi(S^{-1}(y)+)``; the maximal sandwich violation is recorded
    alongside (the slope itself may sit strictly inside the sandwich at
    levels where the upper function jumps across ``y``).
    """
    rng = np.random.default_rng(seed)
    atoms = nu.xs if mu is None else np.union1d(nu.xs, mu.xs)
    lo = float(atoms[0]) - 1.0
    hi = float(atoms[-1]) + 1.0
    ys: list[float] = []
    while len(ys) < samples:
        y = float(rng.uniform(lo, hi))
        if np.abs(atoms - y).min() > 1e-7:
            ys.append(y)
    worst = 0.0
    sandwich = 0.0
    for y, target in zip(ys, nu.cdf(np.array(ys)).tolist()):
        value = destination_cdf(table, y)
        worst = max(worst, abs(value - target))
        v = table.s_inverse(y)
        x = target - v
        if y >= nu.support_left:
            phi_left = table.phi(v) if v > 0 else 0.0
            phi_right = table.phi_right_limit(v)
            sandwich = max(sandwich, phi_left - x, x - phi_right)
    if report is not None:
        report.proby_residual_max = worst
        report.phi_sandwich_violation_max = sandwich
        report.record("proby_residual_max", worst, tol)
        report.record("phi_sandwich_violation_max", sandwich, 1e-8)
    return worst


def verify_shadow_consistency(
    table: CurtainTable,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    grid: int = 20,
    seed: int = 0,
    coupling_obj: LiftedCoupling | None = None,
    report: VerificationReport | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Max distance between restricted destination mass and shadows.

    At every table breakpoint (plus random levels), the destination mass of
    quantile levels up to ``u`` must reproduce the shadow of the restricted
    source.
    """
    from .curtain import coupling as _build_coupling

    pi = coupling_obj or _build_coupling(table, mu)
    rng = np.random.default_rng(seed)
    levels = set(float(b) for b in table.breakpoints if 0.0 < b <= 1.0)
    levels.update(float(u) for u in rng.uniform(1e-6, 1.0, size=grid))
    worst = 0.0
    for u in sorted(levels):
        expected = shadow_of_restriction(mu, nu, u)
        got = pi.restricted_second_marginal(u)
        worst = max(worst, got.tv_distance(expected))
    if report is not None:
        report.shadow_consistency_tv_max = worst
        report.record("shadow_consistency_tv_max", worst, tol)
    return worst


def verify_all(
    table: CurtainTable,
    pi: LiftedCoupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
    samples: int = 100,
    seed: int = 0,
    shadow_grid: int = 10,
) -> VerificationReport:
    """Run every verifier and collect one report."""
    rep = VerificationReport()
    verify_coupling(pi, mu, nu, tol, report=rep)
    verify_left_monotone(table, report=rep)
    verify_marginal_identity(table, nu, samples=samples, seed=seed, mu=mu, report=rep, tol=tol)
    verify_shadow_consistency(
        table, mu, nu, grid=shadow_grid, seed=seed, coupling_obj=pi, report=rep, tol=tol
    )
    return rep
