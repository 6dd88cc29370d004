"""Executable checks of the construction's guarantees.

Each verifier reads only a coupling and its marginals, and turns one
structural property of the left-curtain coupling into a residual with a
tolerance.  Points are matched to atoms by one rule,
:meth:`DiscreteMeasure.atom_index`.  Per atom, the joint gives the
marginal errors and the conditional-mean (martingale) residual, and per
pair of atoms ``joint_rows_tv`` checks that it is the rows' integral.  The
rows give the left-monotonicity violations, the quantile-form identity for
the destination law, with phi read off them, and a certificate that they
send every left part ``mu_u`` of the source onto its shadow in ``nu``.

The certificate reads only the rows ``(u_lo, u_hi, x, r, s)`` of the
coupling.  Let ``S_u`` be the destination mass of the levels up to ``u``.
It checks, in mass units:

(i)   the rows tile ``(0, 1]`` in order, carry the left quantile
      ``x = G(u)`` of ``mu`` at every level, and split it by martingale
      kernels ``r <= x <= s``;
(ii)  ``S_1 = nu``, in total variation;
(iii) no target atom ``k`` lies strictly inside the band ``(r, s)`` of a
      row below its fill level ``tau_k``, the top of the last row that
      sends mass to ``k``.  The residual is the level mass of the rows
      that break it: each band row's levels below the highest ``tau_k``
      of the atoms inside its band.

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
from functools import lru_cache

import numpy as np

from .curtain import LiftedCoupling, _phi_hi
from .measures import DEFAULT_TOL, POS_EPS, DiscreteMeasure


@dataclass
class VerificationReport:
    """Named residuals plus per-check pass flags."""

    marginal_mu_tv: float | None = None
    marginal_nu_tv: float | None = None
    martingale_residual_max: float | None = None
    joint_rows_tv: float | None = None
    monotonicity_violations: int | None = None
    proby_residual_max: float | None = None
    phi_sandwich_violation_max: float | None = None
    shadow_certificate_max: float | None = None
    checks: dict = field(default_factory=dict)

    def record(self, name: str, value: float, tol: float) -> None:
        """Set the residual ``name`` to ``value`` and judge it against ``tol``."""
        if not 0.0 <= tol < np.inf:  # NaN fails too
            raise ValueError(f"tol must be finite and non-negative, got {tol}")
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
    """Marginal and martingale checks of the joint, and ``joint_rows_tv``:
    the total variation between the joint and the rows' sends, both summed
    per (source atom, target atom) pair, so the joint must be the rows'
    integral.  Points are matched to atoms by
    :meth:`DiscreteMeasure.atom_index`, as the rows are (:func:`_destinations`)."""
    rep = report or VerificationReport()
    i, k, w = mu.atom_index(pi.joint_x), nu.atom_index(pi.joint_y), pi.joint_w
    for name, index, eta in (("marginal_mu_tv", i, mu), ("marginal_nu_tv", k, nu)):
        gap = _per_atom(index, w, eta.n_atoms) - np.append(eta.ws, 0.0)
        rep.record(name, 0.5 * float(np.abs(gap).sum()), tol)
    moments = _per_atom(i, (pi.joint_y - pi.joint_x) * w, mu.n_atoms)
    rep.record("martingale_residual_max", float(np.abs(moments).max()), tol)
    # one key per (source atom, target atom), no atom (-1) the last of its
    # side; a stable sort uses the runs the keys come in.  A pair's joint
    # weights and its sends are each summed in order, as coupling() adds them
    src, dst, sent = _destinations(pi, mu, nu)
    m, n = mu.n_atoms + 1, nu.n_atoms + 1
    keys = np.concatenate((i % m * n + k % n, (src % m * n)[:, None] + dst % n), axis=None)
    pair = np.sort(keys, kind="stable").searchsorted(keys)
    rows = np.bincount(pair[w.size :], sent.ravel(), keys.size)
    tie = np.abs(np.bincount(pair[: w.size], w, keys.size) - rows).sum()
    rep.record("joint_rows_tv", 0.5 * float(tie), tol)
    return rep


def _per_atom(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sums of ``weights`` per atom ``index`` below ``n``, then as entry
    ``n`` the sum of those of no atom (-1) in absolute value, so that they
    cannot cancel."""
    return np.bincount(index % (n + 1), np.where(index < 0, np.abs(weights), weights), n + 1)


def verify_left_monotone(pi: LiftedCoupling, report: VerificationReport | None = None) -> int:
    """Count of ordered pairs of the coupling's lifted rows violating
    left-monotonicity.

    For row indices ``i < j`` the upper function must not decrease and the
    later lower value must avoid the open band ``(R_i, S_i)``.  Positions
    within ``POS_EPS`` are the same point, as in the walk that writes the
    rows, so both comparisons are strict beyond ``POS_EPS``.

    The rows are cut into leaves of ``_LEAF`` rows (a shorter table is one
    leaf), and the pairs inside a leaf are compared by the rule in one
    broadcast.  Merge levels then double the block width: with every
    block's values sorted, each row of an even block counts the values of
    its sibling block below its threshold by binary search.  The values
    inside a band are those below its top less those at or below its
    bottom.  Cost ``O(N log N)`` for ``N`` rows.
    """
    n = len(pi.intervals)
    leaf = max(min(n, _LEAF), 1)
    # rows padded with NaN to whole leaves; NaN compares false, as in the rule
    rows = np.full((2, -(-n // leaf) * leaf), np.nan)
    rows[:, :n] = pi.intervals[:, 3:5].T
    bottom, top = rows[0] + POS_EPS, rows[1] - POS_EPS
    # the later row of a pair runs along the last axis
    later_r, later_s = rows.reshape(2, -1, 1, leaf)
    low, high = bottom.reshape(-1, leaf, 1), top.reshape(-1, leaf, 1)
    later = _LATER[:leaf, :leaf]
    violations = np.count_nonzero((later_s < high) & later) + np.count_nonzero(
        (low < later_r) & (later_r < high) & later
    )
    # a NaN value counts as +inf, above every threshold that is searched: a
    # NaN top searches -inf, and a band with a NaN end is empty
    size = rows.shape[1]
    index = np.arange(size)
    keys = _complex(0.0, np.fmin(rows, np.inf))
    r_keys, s_keys = keys
    top = np.where(np.isnan(top), -np.inf, top)
    band = bottom < top
    width = leaf
    while width < size:
        block = index // width
        # sorted by block, then value; from the second level on, each block
        # holds two sorted runs, which a stable sort merges in linear time
        keys.real = block
        keys.sort(kind="stable")
        at = (block % 2 == 0) & ((block + 1) * width < size)
        sibling = block + 1
        drops = s_keys.searchsorted(_complex(sibling[at], top[at])) - sibling[at] * width
        at &= band
        below_top = r_keys.searchsorted(_complex(sibling[at], top[at]))
        at_bottom = r_keys.searchsorted(_complex(sibling[at], bottom[at]), side="right")
        violations += drops.sum() + (below_top - at_bottom).sum()
        width *= 2
    violations = int(violations)
    if report is not None:
        report.record("monotonicity_violations", violations, 0)
    return violations


#: rows per leaf of :func:`verify_left_monotone`, whose pairs are compared at once
_LEAF = 64
_LATER = np.triu(np.ones((_LEAF, _LEAF), dtype=bool), 1)


def _complex(real, imag) -> np.ndarray:
    """``real + i imag`` without the NaN that ``1j * inf`` gives.  numpy
    orders complex numbers by (real, imag), so block + i value keys sort
    by block and then by value."""
    out = np.empty(np.broadcast_shapes(np.shape(real), np.shape(imag)), dtype=complex)
    out.real, out.imag = real, imag
    return out


def _s_inverse(pi: LiftedCoupling, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right-continuous inverse ``S^{-1}(y)`` of the non-decreasing step
    function S of ``pi``'s rows at the points ``y``, with the index ``j`` it
    is read at: the rows below ``j`` have ``s <= y``, and ``S^{-1}(y)`` is
    the top of the last of them, 0 when there is none."""
    j = pi.intervals[:, 4].searchsorted(y, side="right")
    return np.append(0.0, pi.intervals[:, 1])[j], j


def _destination_cdf(pi: LiftedCoupling, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Probability that the destination of ``pi``'s rows lies at or below
    each point of a flat ``y``, given ``v = S^{-1}(y)`` (:func:`_s_inverse`).

    Exact for the piecewise-constant rows: the levels up to ``v`` all land
    at or below ``y``; above it, the lower branch contributes its kernel
    weight wherever the lower function stays at or below ``y``.  A point
    keeps the mass ``(u_hi - max(u_lo, v)) * share`` of each row
    from ``above``, the first row with ``u_hi > v``, whose lower value is at
    most ``y``.  The rows of ``above``'s leaf of ``_LEAF`` rows (the whole
    table when it is one leaf) are summed in one block.  A later leaf lies
    above ``v``, so its rows keep their whole width: sorted by lower value
    once, with prefix sums of ``width * share``, a leaf gives a point its
    kept mass from the number of its rows at or below ``y``.  Those counts
    are exact integers, from the ranks of the lower values among the
    sorted points, so each point's value depends on that point alone.
    Cost ``O(N log(_LEAF S) + S (_LEAF + N / _LEAF))`` for ``N`` rows and
    ``S`` points.
    """
    u_lo, u_hi = pi.intervals[:, :2].T
    lower, share, _ = pi._kernels
    above = u_hi.searchsorted(v, side="right")  # per y, first row with u_hi > v
    n = len(u_hi)
    if n <= _LEAF:
        return v + _kept_mass(np.arange(n), above, y, v, u_lo, u_hi, lower, share)
    # rows padded to whole leaves; a pad row has no mass and lower value inf
    leaves = -(-n // _LEAF)
    cols = np.zeros((4, leaves * _LEAF))
    cols[:, :n] = u_lo, u_hi, lower, share
    cols[2, n:] = np.inf
    lo, hi, low, part = blocks = cols.reshape(4, leaves, _LEAF)
    home = np.minimum(above // _LEAF, leaves - 1)  # above's leaf
    rows = home[:, None] * _LEAF + np.arange(_LEAF)
    own = _kept_mass(rows, above, y, v, *blocks.take(home, axis=1))
    # every leaf's rows stably sorted by lower value (a NaN one last), with
    # the prefix sums of their mass
    order = low.argsort(axis=1, kind="stable")
    prefix = np.zeros((leaves, _LEAF + 1))
    np.cumsum(np.take_along_axis((hi - lo) * part, order, axis=1), axis=1, out=prefix[:, 1:])
    # a row counts for the points of rank at least its lower value's rank
    # among the sorted points, so a leaf's counts are a cumulative histogram
    points = np.sort(y)
    leaf = np.arange(leaves)
    bins = points.searchsorted(low, side="left") + leaf[:, None] * (y.size + 1)
    counts = np.bincount(bins.ravel(), minlength=leaves * (y.size + 1)).reshape(leaves, -1)
    kept = counts.cumsum(axis=1).T[points.searchsorted(y, side="left")]
    later = np.where(leaf > home[:, None], prefix[leaf, kept], 0.0).sum(axis=1)
    return v + (own + later)


def _kept_mass(rows, above, y, v, u_lo, u_hi, lower, share) -> np.ndarray:
    """Per point, the mass of the ``rows`` from ``above`` on whose lower value
    is at most ``y``, past ``v``: one block of points x rows."""
    frac = u_hi - np.maximum(u_lo, v[:, None])
    keep = (rows >= above[:, None]) & (lower <= y[:, None])
    return np.where(keep, frac * share, 0.0).sum(axis=1)


def _sample_points(rng, atoms: np.ndarray, samples: int) -> np.ndarray:
    """``samples`` uniform draws on the sorted ``atoms``' range widened by 1,
    in the generator's order, skipping draws within 1e-7 of an atom."""
    fenced = np.concatenate(([-np.inf], atoms, [np.inf]))
    ys = np.empty(0)
    while ys.size < samples:
        y = rng.uniform(float(atoms[0]) - 1.0, float(atoms[-1]) + 1.0, size=samples - ys.size)
        i = fenced.searchsorted(y)
        gap = np.minimum(fenced[i] - y, y - fenced[i - 1])
        ys = np.concatenate((ys, y[gap > 1e-7]))
    return ys


@lru_cache(maxsize=1)
def _destinations(pi: LiftedCoupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple:
    """Per row of ``pi``, the atom of ``mu`` at its source ``x``, the target
    atoms of its lower and upper destination (-1: none) and the mass sent
    to each, none to a point kernel's upper one; read-only.  The last
    result is kept, so the verifiers of one coupling share it."""
    u_lo, u_hi, x, _, s = pi.intervals.T
    lower, share, _ = pi._kernels
    sent = (np.maximum(u_hi - u_lo, 0.0) * np.array((share, 1.0 - share))).T
    i, k = mu.atom_index(x), nu.atom_index(np.array((lower, s)).T)
    i.flags.writeable = k.flags.writeable = sent.flags.writeable = False
    return i, k, sent


def _row_phi(pi: LiftedCoupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """phi at each row's start, as the walk writes it, ``F_nu(upper) -
    left(upper) - u_lo``: the target mass below ``upper``, plus what the rows
    before sent to ``upper``, less ``u_lo``.  ``upper`` is the atom of ``s``
    on a split row and of ``x`` on a point row (phi is NaN if there is none);
    the sends are summed once over the destinations, stably sorted by atom."""
    _, k, sent = _destinations(pi, mu, nu)
    order = k.argsort(axis=None, kind="stable")
    run = k.take(order)
    total = np.concatenate(([0.0], sent.take(order).cumsum()))
    before = np.empty(k.size)
    before.put(order, total[:-1] - total[run.searchsorted(run)])
    upper = np.arange(0, k.size, 2) + pi._kernels[2]  # flat index of each upper destination
    below = np.concatenate((nu.cum_weights - nu.ws, [np.nan]))
    return below[k.take(upper)] + before[upper] - pi.intervals[:, 0]


def verify_marginal_identity(
    pi: LiftedCoupling,
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
    levels where the upper function jumps across ``y``).  Both read ``pi``'s
    rows; a row without phi (:func:`_row_phi`) is left to the certificate.
    The points ``y`` are ``samples`` draws of :func:`_sample_points`; with
    fewer than one nothing would be checked, which is a ``ValueError``.
    """
    if samples < 1:
        raise ValueError(f"the identity needs at least one sample point, got {samples}")
    rng = np.random.default_rng(seed)
    ys = _sample_points(rng, np.sort(np.concatenate((nu.xs, mu.xs))), samples)
    target = nu.cdf(ys)
    v, j = _s_inverse(pi, ys)
    worst = float(np.abs(_destination_cdf(pi, ys, v) - target).max(initial=0.0))
    # S^{-1}(y) is the top of the rows below j, so phi is read at row ends:
    # on row j - 1 from the left (0 below the first row), at the start of
    # row j from the right (0 above the last)
    x = target - v
    phi = _row_phi(pi, mu, nu)
    u_lo, u_hi = pi.intervals[:, :2].T
    phi_left = np.append(0.0, _phi_hi(phi, u_hi - u_lo, pi._kernels))[j]
    gaps = np.fmax(phi_left - x, x - np.append(phi, 0.0)[j])
    sandwich = float(np.fmax.reduce(gaps[ys >= nu.support_left], initial=0.0))
    if report is not None:
        report.record("proby_residual_max", worst, tol)
        report.record("phi_sandwich_violation_max", sandwich, 1e-8)
    return worst


def verify_shadow_consistency(
    table,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    grid: int = 20,
    seed: int = 0,
    *,
    coupling_obj: LiftedCoupling,
    report: VerificationReport | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Certificate that the rows up to every level ``u`` send ``mu_u`` onto
    its shadow in ``nu``; returns the largest of its residuals.

    The residuals, all in mass units, are the module docstring's (i)-(iii):
    the gaps and overlaps of the rows' levels, the level mass of rows whose
    ``x`` is not ``mu``'s left quantile, the level mass of rows that break
    ``r <= x <= s``, ``TV(S_1, nu)`` from the rows' kernel shares, and the
    level mass of the band rows below the highest fill level inside their
    band.  Together they are zero exactly when ``S_u`` is the shadow of
    ``mu_u`` at every level, not only at sampled ones.  Destinations are
    matched to target atoms by :meth:`DiscreteMeasure.atom_index`, so
    "strictly inside a band" is an integer test on atom indices.  Cost
    ``O((N + n) log n)`` for ``N`` rows and ``n`` target atoms, all of it in
    array operations: a binary search per destination and a sparse table
    of range maxima over the atoms.

    The rows are those of ``coupling_obj``, which is required: the verifier
    builds nothing.  ``table``, ``grid`` and ``seed`` are unread, and stay
    because ``perfbench`` passes them, until ROADMAP item 1 changes those
    calls.
    """
    u_lo, u_hi, x, r, s = coupling_obj.intervals.T
    width = u_hi - u_lo
    mass = np.maximum(width, 0.0)

    # (i) tiling, left quantile and martingale kernels
    tiling = np.abs(np.append(u_lo, 1.0) - np.append(0.0, u_hi)).sum() + (mass - width).sum()
    i, k, sent = _destinations(coupling_obj, mu, nu)
    cum = np.append(0.0, mu.cum_weights)
    on_atom = np.minimum(u_hi, cum[i + 1]) - np.maximum(u_lo, cum[i])
    wrong_x = (mass - np.where(i >= 0, np.clip(on_atom, 0.0, mass), 0.0)).sum()
    bad_kernel = mass[~((r <= x) & (x <= s))].sum()

    # (ii) the rows' second marginal
    live, n = sent > 0, nu.n_atoms
    tv = 0.5 * np.abs(_per_atom(k[live], sent[live], n) - np.append(nu.ws, 0.0)).sum()

    # (iii) level mass of band rows below the highest fill level in their band
    tau = np.zeros(n)
    fills = live & (k >= 0)
    np.maximum.at(tau, k[fills], np.broadcast_to(u_hi[:, None], k.shape)[fills])
    first = np.where(k[:, 0] >= 0, k[:, 0] + 1, nu.xs.searchsorted(r, side="right"))
    last = np.where(k[:, 1] >= 0, k[:, 1] - 1, nu.xs.searchsorted(s, side="left") - 1)
    band = live.all(axis=1) & (first <= last)
    straddle = _straddle_mass(first[band], last[band], u_lo[band], u_hi[band], tau)

    worst = float(max(tiling, wrong_x, bad_kernel, tv, straddle))
    if report is not None:
        report.record("shadow_certificate_max", worst, tol)
    return worst


def _straddle_mass(first, last, lo, hi, tau: np.ndarray) -> float:
    """Level mass of the band rows that break (iii).

    Band row ``j`` covers the atom indices ``first[j]..last[j]`` and the
    levels ``(lo[j], hi[j]]``.  It breaks (iii) on its levels below
    ``top_j``, the highest fill level ``tau`` of the atoms it covers, so
    its share is ``clip(top_j - lo_j, 0, hi_j - lo_j)``.  A sparse table of
    running maxima of ``tau`` over ``2**k`` atoms gives every ``top_j`` from
    two overlapping windows.  The sum is zero exactly when no atom inside a
    band fills above the band's lower level, and it is at least the
    straddle mass of any one atom, since every row that covers atom ``k``
    has ``tau_k <= top_j``.  Cost ``O(N + n log n)``.
    """
    depth = np.frexp(last - first + 1)[1] - 1  # floor(log2(atoms covered))
    levels = int(depth.max(initial=0)) + 1
    windows = np.empty((levels, tau.size))
    windows[0] = tau
    for k in range(1, levels):
        h = 1 << (k - 1)
        windows[k] = windows[k - 1]
        np.maximum(windows[k, :-h], windows[k - 1, h:], out=windows[k, :-h])
    top = np.maximum(windows[depth, first], windows[depth, last - (1 << depth) + 1])
    return float(np.clip(top - lo, 0.0, hi - lo).sum())


def verify_all(
    table,
    pi: LiftedCoupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    tol: float = DEFAULT_TOL,
    samples: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Run every verifier on the coupling ``pi`` and collect one report.

    ``table`` is unread: every check judges ``pi`` against ``mu`` and
    ``nu``, so the report depends on nothing else.  It stays because
    ``perfbench`` passes it, until ROADMAP item 1 changes those calls.
    """
    rep = VerificationReport()
    verify_coupling(pi, mu, nu, tol, report=rep)
    verify_left_monotone(pi, report=rep)
    verify_marginal_identity(pi, nu, samples=samples, seed=seed, mu=mu, report=rep, tol=tol)
    verify_shadow_consistency(None, mu, nu, coupling_obj=pi, report=rep, tol=tol)
    return rep
