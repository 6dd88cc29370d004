"""Executable checks of the construction's guarantees.

Each verifier turns one structural property of the left-curtain coupling
into a residual with a tolerance: marginal errors, the conditional-mean
(martingale) residual, left-monotonicity violations of the destination
functions, the quantile-form identity for the destination law, and a
certificate that the coupling's lifted rows send every left part ``mu_u``
of the source onto its shadow in ``nu``.

The certificate reads only the rows ``(u_lo, u_hi, x, r, s)`` of the
coupling.  Let ``S_u`` be the destination mass of the levels up to ``u``.
It checks, in mass units:

(i)   the rows tile ``(0, 1]`` in order, carry the left quantile
      ``x = G(u)`` of ``mu`` at every level, and split it by martingale
      kernels ``r <= x <= s``;
(ii)  ``S_1 = nu``, in total variation;
(iii) no target atom ``k`` lies strictly inside the band ``(r, s)`` of a
      row below its fill level ``tau_k``, the top of the last row that
      sends mass to ``k``.

Together these hold exactly when ``S_u`` is the shadow of ``mu_u`` at
every level ``u``.  By (i) the first marginal of the rows up to ``u`` is ``mu_u``,
and ``P_{S_u} - P_{mu_u}`` is a sum of non-negative tents, each positive
exactly on the open band of a row that sends mass to both ``r`` and
``s``.  By (ii), and because ``S_u`` grows with ``u``, ``S_u <= nu``.  So
``h = P_nu - P_{S_u}`` is a convex minorant of ``f = P_nu - P_{mu_u}``
with the same tails.  The shadow's potential is ``P_nu`` minus the convex
envelope of ``f``, and ``h`` is that envelope exactly when ``h = f`` at
every kink of ``h``, that is at every atom ``k`` that ``nu - S_u`` still
charges.  Those are the atoms with ``u < tau_k``, and ``h = f`` at ``k``
says that no row below ``u`` has ``k`` inside its band.  Over all ``u``
this is (iii), so every level is checked, not a sample of them.  The
left-curtain coupling is the unique martingale coupling of ``mu`` and
``nu`` with this property (Beiglböck & Juillet, Ann. Probab. 44, 2016),
so the certificate passes on it and on no other coupling.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .curtain import CurtainTable, LiftedCoupling, _phi_hi, _two_point, coupling
from .measures import POS_EPS, DiscreteMeasure, _run_starts

#: default residual tolerance for exact-arithmetic checks
DEFAULT_TOL = 1e-9


@dataclass
class VerificationReport:
    """Named residuals plus per-check pass flags."""

    marginal_mu_tv: float | None = None
    marginal_nu_tv: float | None = None
    martingale_residual_max: float | None = None
    monotonicity_violations: int | None = None
    proby_residual_max: float | None = None
    phi_sandwich_violation_max: float | None = None
    shadow_certificate_max: float | None = None
    checks: dict = field(default_factory=dict)

    def record(self, name: str, value: float, tol: float) -> None:
        """Set the residual ``name`` to ``value`` and judge it against ``tol``."""
        setattr(self, name, value)
        self.checks[name] = {"value": float(value), "tol": float(tol), "pass": bool(value <= tol)}

    def passed(self) -> bool:
        return all(entry["pass"] for entry in self.checks.values())

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "pass": self.passed()}, indent=2)


def verify_coupling(
    pi: LiftedCoupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Marginal and martingale checks of a flattened coupling."""
    rep = report or VerificationReport()
    rep.record("marginal_mu_tv", pi.first_marginal().tv_distance(mu), tol)
    rep.record("marginal_nu_tv", pi.second_marginal().tv_distance(nu), tol)

    # sources within POS_EPS of the first of their run are one atom; bincount
    # adds each run's moments in order
    order = np.argsort(pi.joint_x, kind="stable")
    xs = pi.joint_x[order]
    starts = _run_starts(xs, POS_EPS)
    run = np.cumsum(starts) - 1
    moments = (pi.joint_y[order] - xs[starts][run]) * pi.joint_w[order]
    residual = float(np.abs(np.bincount(run, weights=moments)).max(initial=0.0))
    rep.record("martingale_residual_max", residual, tol)
    return rep


def verify_left_monotone(pi: LiftedCoupling, report: VerificationReport | None = None) -> int:
    """Count of ordered pairs of the coupling's lifted rows violating
    left-monotonicity.

    For row indices ``i < j`` the upper function must not decrease and the
    later lower value must avoid the open band ``(R_i, S_i)``.  Positions
    within ``POS_EPS`` are the same point, as in the walk that writes the
    rows, so both comparisons are strict beyond ``POS_EPS``.
    """
    r = np.ascontiguousarray(pi.intervals[:, 3])
    s = np.ascontiguousarray(pi.intervals[:, 4])
    violations = 0
    for i in range(len(r) - 1):
        later_r = r[i + 1 :]
        violations += int(np.count_nonzero(s[i + 1 :] < s[i] - POS_EPS))
        violations += int(
            np.count_nonzero((r[i] + POS_EPS < later_r) & (later_r < s[i] - POS_EPS))
        )
    if report is not None:
        report.record("monotonicity_violations", violations, 0)
    return violations


#: elements per temporary (samples x rows) block of :func:`destination_cdf`
_CDF_BLOCK = 1 << 18


def _s_inverse(table: CurtainTable, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right-continuous inverse ``S^{-1}(y)`` of the non-decreasing step
    function S at the points ``y``, with the index ``j`` it is read at: the
    rows below ``j`` have ``s <= y``, and ``S^{-1}(y)`` is the top of the
    last of them, 0 when there is none."""
    t = table.intervals
    j = t["s"].searchsorted(y, side="right")
    return np.append(0.0, t["u_hi"])[j], j


def destination_cdf(table: CurtainTable, y):
    """Probability that the destination lies at or below ``y``;
    elementwise for an array ``y``.

    Exact for a piecewise-constant table: levels up to the inverse of the
    upper function all land at or below ``y``; above it, the lower branch
    contributes its kernel weight wherever the lower function stays at or
    below ``y``.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    v, _ = _s_inverse(table, flat)
    t = table.intervals
    lower, share, _ = table._kernels
    above = t["u_hi"].searchsorted(v, side="right")  # per y, first row with u_hi > v
    rows = np.arange(len(t))
    total = np.empty(flat.size)
    step = max(1, _CDF_BLOCK // len(t))
    for c in range(0, flat.size, step):
        at = slice(c, c + step)
        frac = t["u_hi"] - np.maximum(t["u_lo"], v[at, None])
        keep = (rows >= above[at, None]) & (lower <= flat[at, None])
        total[at] = np.where(keep, frac * share, 0.0).sum(axis=1)
    out = (v + total).reshape(y.shape)
    return float(out) if out.ndim == 0 else out


def _sample_points(rng, atoms: np.ndarray, samples: int) -> np.ndarray:
    """``samples`` uniform draws on the atoms' range widened by 1, in the
    generator's order, skipping draws within 1e-7 of an atom."""
    fenced = np.concatenate(([-np.inf], atoms, [np.inf]))
    ys = np.empty(0)
    while ys.size < samples:
        y = rng.uniform(float(atoms[0]) - 1.0, float(atoms[-1]) + 1.0, size=samples - ys.size)
        i = fenced.searchsorted(y)
        gap = np.minimum(fenced[i] - y, y - fenced[i - 1])
        ys = np.concatenate((ys, y[gap > 1e-7]))
    return ys


def verify_marginal_identity(
    table: CurtainTable,
    nu: DiscreteMeasure,
    samples: int = 100,
    seed: int = 0,
    *,
    mu: DiscreteMeasure,
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
    ys = _sample_points(rng, np.union1d(nu.xs, mu.xs), samples)
    target = nu.cdf(ys)
    worst = float(np.abs(destination_cdf(table, ys) - target).max(initial=0.0))
    # S^{-1}(y) is the top of the rows below j, so phi is read at row ends:
    # on row j - 1 from the left (0 below the first row), at the start of
    # row j from the right (0 above the last)
    v, j = _s_inverse(table, ys)
    x = target - v
    phi_left = np.append(0.0, _phi_hi(table))[j]
    gaps = np.maximum(phi_left - x, x - np.append(table.intervals["phi_lo"], 0.0)[j])
    sandwich = float(gaps[ys >= nu.support_left].max(initial=0.0))
    if report is not None:
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
    """Certificate that the rows up to every level ``u`` send ``mu_u`` onto
    its shadow in ``nu``; returns the largest of its residuals.

    The residuals, all in mass units, are the module docstring's (i)-(iii):
    the gaps and overlaps of the rows' levels, the level mass of rows whose
    ``x`` is not ``mu``'s left quantile, the level mass of rows that break
    ``r <= x <= s``, ``TV(S_1, nu)`` from the rows' kernel shares, and the
    largest straddle mass of a target atom.  Together they are zero exactly
    when ``S_u`` is the shadow of ``mu_u`` at every level, not only at
    sampled ones.  Destinations are matched to target atoms by the rule of
    :meth:`DiscreteMeasure.atom_weight`, so "strictly inside a band" is an
    integer test on atom indices.  Cost ``O((N + n) log n)`` for ``N`` rows
    and ``n`` target atoms.

    The rows are ``coupling_obj.intervals`` (the coupling of ``table`` when
    it is ``None``); ``table`` is read only to build that coupling.
    ``grid`` and ``seed`` are unused: every level is checked.
    """
    pi = coupling_obj or coupling(table, mu)
    u_lo, u_hi, x, r, s = pi.intervals.T
    width = u_hi - u_lo
    mass = np.maximum(width, 0.0)

    # (i) tiling, left quantile and martingale kernels
    tiling = np.abs(np.append(u_lo, 1.0) - np.append(0.0, u_hi)).sum() + (mass - width).sum()
    i = mu.atom_index(x)
    cum = np.append(0.0, mu.cum_weights)
    on_atom = np.minimum(u_hi, cum[i + 1]) - np.maximum(u_lo, cum[i])
    wrong_x = (mass - np.where(i >= 0, np.clip(on_atom, 0.0, mass), 0.0)).sum()
    bad_kernel = mass[~((r <= x) & (x <= s))].sum()

    # (ii) the rows' second marginal; the last bin collects unmatched
    # destinations, and a point kernel sends nothing to its upper one
    lower, share, _ = _two_point(x, r, s)
    sent = mass[:, None] * np.column_stack((share, 1.0 - share))
    live = sent > 0
    k = nu.atom_index(np.column_stack((lower, s)))
    n = nu.n_atoms
    got = np.bincount(np.where(k >= 0, k, n)[live], weights=sent[live], minlength=n + 1)
    tv = 0.5 * np.abs(got - np.append(nu.ws, 0.0)).sum()

    # (iii) straddle mass below each atom's fill level
    tau = np.zeros(n)
    fills = live & (k >= 0)
    np.maximum.at(tau, k[fills], np.broadcast_to(u_hi[:, None], k.shape)[fills])
    first = np.where(k[:, 0] >= 0, k[:, 0] + 1, nu.xs.searchsorted(r, side="right"))
    last = np.where(k[:, 1] >= 0, k[:, 1] - 1, nu.xs.searchsorted(s, side="left") - 1)
    band = live.all(axis=1) & (first <= last)
    straddle = _straddle_max(first[band], last[band], u_lo[band], u_hi[band], tau)

    worst = float(max(tiling, wrong_x, bad_kernel, tv, straddle))
    if report is not None:
        report.record("shadow_certificate_max", worst, tol)
    return worst


def _straddle_max(first, last, lo, hi, tau: np.ndarray) -> float:
    """Largest straddle mass over the target atoms.

    Band row ``j`` covers the atom indices ``first[j]..last[j]`` and the
    levels ``(lo[j], hi[j]]``; the straddle mass of atom ``k`` is the level
    mass below ``tau[k]`` of the rows that cover ``k``.  One sweep takes
    the row ends in level order and the atoms in order of ``tau``.  A row
    adds ``(1, lo)`` to a (count, level) pair over its atom range at its
    lower end and ``(-1, -hi)`` at its upper end, so at level ``t`` an atom
    reads ``t * count - level``, the sum of ``clip(t - lo, 0, hi - lo)``
    over its rows.  The range adds and point queries run on a segment tree
    over the atom indices.  Unlike a Fenwick tree over differences, a row
    writes only to the nodes that make up its own range, so an atom that
    no started row covers reads exactly 0.
    """
    size = 1 << max(tau.size - 1, 0).bit_length()
    count = [0] * (2 * size)
    level = [0.0] * (2 * size)
    times = np.concatenate((lo, hi))
    order = np.argsort(times, kind="stable")
    ev_time = times[order].tolist()
    ev_lo = (np.concatenate((first, first))[order] + size).tolist()
    ev_hi = (np.concatenate((last, last))[order] + size + 1).tolist()
    ev_sign = np.repeat((1, -1), first.size)[order].tolist()
    worst = 0.0
    e = 0
    for atom in np.argsort(tau, kind="stable").tolist():
        t = float(tau[atom])
        while e < len(ev_time) and ev_time[e] < t:
            a, b, c = ev_lo[e], ev_hi[e], ev_sign[e]
            at = c * ev_time[e]
            while a < b:
                if a & 1:
                    count[a] += c
                    level[a] += at
                    a += 1
                if b & 1:
                    b -= 1
                    count[b] += c
                    level[b] += at
                a >>= 1
                b >>= 1
            e += 1
        j = atom + size
        c, lv = 0, 0.0
        while j:
            c += count[j]
            lv += level[j]
            j >>= 1
        worst = max(worst, t * c - lv)
    return worst


def verify_all(
    table: CurtainTable,
    pi: LiftedCoupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
    samples: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Run every verifier and collect one report.

    The coupling checks, the left-monotone count and the shadow certificate
    judge ``pi``; the quantile-form identity judges ``table``, which
    carries ``phi``.
    """
    rep = VerificationReport()
    verify_coupling(pi, mu, nu, tol, report=rep)
    verify_left_monotone(pi, report=rep)
    verify_marginal_identity(table, nu, samples=samples, seed=seed, mu=mu, report=rep, tol=tol)
    verify_shadow_consistency(table, mu, nu, coupling_obj=pi, report=rep, tol=tol)
    return rep
