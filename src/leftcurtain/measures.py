"""Finite measures with atoms: quantiles, quantisation and the JSON schema.

Measures are unnormalised throughout (restrictions and shadows have mass
below one), with weights strictly positive and positions strictly
increasing.  The first moment is kept unnormalised as well, i.e. ``mean``
is ``sum(x * w)`` and ``mean / mass`` is the barycentre.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

#: masses closer than this are the same level: probability mass and mean
#: equality, the walk's levels (cumulative masses) and the slopes of
#: potentials (differences of cumulative weights)
MASS_TOL = 1e-12

#: residual tolerance in mass units: the verifiers' default, and the most that
#: the curtain walk of a pair in convex order overdraws the target's atoms
DEFAULT_TOL = 1e-9

#: positions closer than this are merged into one atom on construction
POS_TOL = 1e-12

#: positions closer than this are the same point of the line when atoms are
#: matched: by :meth:`DiscreteMeasure.atom_index`, which the verifiers read,
#: by the curtain walk between a source atom and a target atom, and by the
#: left-monotone count
POS_EPS = 1e-11

#: the fewest levels in one lookup that read a guide table (see
#: :func:`_level_index`); smaller lookups take a binary search
_GUIDE_MIN_LEVELS = 2**12


class DiscreteMeasure:
    """Finite atomic measure: sorted positions ``xs`` and weights ``ws > 0``."""

    __slots__ = ("xs", "ws", "__dict__")

    def __init__(self, xs, ws):
        xs = np.asarray(xs, dtype=float).ravel()
        ws = np.asarray(ws, dtype=float).ravel()
        if xs.shape != ws.shape:
            raise ValueError("positions and weights must have equal length")
        if not (np.isfinite(xs).all() and np.isfinite(ws).all()):
            raise ValueError("atom positions and weights must be finite")
        if (ws < -1e-15).any():
            raise ValueError("atom weights must be non-negative")
        if xs.size:
            order = np.argsort(xs, kind="stable")
            xs, ws = xs[order], ws[order]
            xs, ws = _merge_atoms(xs, ws, POS_TOL)
            keep = ws > 0
            xs, ws = xs[keep], ws[keep]
        xs.flags.writeable = False
        ws.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)

    @staticmethod
    def from_atoms(pairs) -> "DiscreteMeasure":
        pairs = list(pairs)
        if not pairs:
            return DiscreteMeasure([], [])
        xs, ws = zip(*pairs)
        return DiscreteMeasure(xs, ws)

    @property
    def n_atoms(self) -> int:
        return int(self.xs.size)

    @cached_property
    def mass(self) -> float:
        return float(self.ws.sum())

    @cached_property
    def mean(self) -> float:
        """Unnormalised first moment ``sum(x * w)``."""
        return float((self.xs * self.ws).sum())

    @cached_property
    def cum_weights(self) -> np.ndarray:
        """Cumulative weights ``F(x_i)``: the plain prefix sums plus the
        prefix sums of their rounding errors, each error exact by TwoSum
        (Ogita, Rump and Oishi 2005, Sum2), so each is rounded once."""
        sums = np.cumsum(self.ws)
        before = np.concatenate(([0.0], sums[:-1]))
        b = sums - before
        return sums + np.cumsum((before - (sums - b)) + (self.ws - b))

    @cached_property
    def _guide(self) -> tuple:
        """:func:`_guide_table` of the interior levels ``cum_weights[:-1]``."""
        return _guide_table(self.cum_weights[:-1])

    @property
    def support_left(self) -> float:
        return float(self.xs[0])

    def cdf(self, k) -> np.ndarray | float:
        """Right-continuous distribution function ``F(k)``."""
        k = np.asarray(k, dtype=float)
        idx = np.searchsorted(self.xs, k, side="right")
        cw = np.concatenate(([0.0], self.cum_weights))
        out = cw[idx]
        return float(out) if out.ndim == 0 else out

    def atom_index(self, x) -> np.ndarray | int:
        """Index of the atom nearest to ``x`` if it lies within ``POS_EPS``,
        the left one of two equally near, or -1 if there is none;
        elementwise for an array ``x``."""
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -1, dtype=np.intp)
        if self.n_atoms:
            # i - 1 and i are the neighbours of x; an index out of range
            # clips onto the other one
            i = np.searchsorted(self.xs, x)
            left, right = np.maximum(i - 1, 0), np.minimum(i, self.n_atoms - 1)
            gap_left, gap_right = np.abs(self.xs[left] - x), np.abs(self.xs[right] - x)
            near = np.where(gap_right < gap_left, right, left)
            out = np.where(np.minimum(gap_left, gap_right) <= POS_EPS, near, out)
        return int(out) if out.ndim == 0 else out

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    def __repr__(self):
        if self.n_atoms == 0:
            return "DiscreteMeasure(empty)"
        return (
            f"DiscreteMeasure({self.n_atoms} atoms, mass={self.mass:.6g}, "
            f"mean={self.mean:.6g})"
        )


def _run_starts(xs: np.ndarray, pos_tol: float) -> np.ndarray:
    """Mask of the atoms of sorted ``xs`` that start a run: an atom joins
    the current run when it lies within ``pos_tol`` of the run's first atom
    and starts one otherwise."""
    starts = np.empty(xs.size, dtype=bool)
    starts[:1] = True
    np.greater(xs[1:] - xs[:-1], pos_tol, out=starts[1:])
    if starts.all():
        return starts
    first = np.flatnonzero(starts)
    last = np.append(first[1:], xs.size) - 1
    # a chain of small gaps can reach further than pos_tol from its first
    # atom: such rare runs start again at every atom beyond the anchor's reach
    wide = xs[last] - xs[first] > pos_tol
    for a, b in zip(first[wide], last[wide]):
        anchor = xs[a]
        for k in range(a + 1, b + 1):
            if xs[k] - anchor > pos_tol:
                starts[k] = True
                anchor = xs[k]
    return starts


def _merge_atoms(xs, ws, pos_tol):
    """Merge sorted atoms into the runs of :func:`_run_starts`.

    A run keeps its first position and the sum of its weights.  When
    nothing merges the input arrays are returned themselves, not copied.
    """
    starts = _run_starts(xs, pos_tol)
    if starts.all():
        return xs, ws
    first = np.flatnonzero(starts)
    return xs[first], np.add.reduceat(ws, first)


def _guide_table(breaks: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, list[int]]:
    """Guide table over the sorted ``breaks`` (Chen and Asau 1974).

    With ``m`` the least power of two at least ``2 * len(breaks)``,
    ``guide[b]`` counts the breaks below ``b / m`` for ``b <= m``.  A level
    ``u`` in ``[b / m, (b + 1) / m)`` has ``b = floor(u * m)``, exact for a
    power of two, and between ``guide[b]`` and ``guide[b + 1]`` breaks
    below it; the level 1 has ``guide[m]``.  A lower bound among them takes
    the ``steps``, one power of two per bit of the widest bucket's count,
    from the highest down to 1, in ``padded``: the breaks followed by
    ``inf``, as many as the largest step.
    """
    m = 1 << (2 * breaks.size - 1).bit_length()
    guide = np.searchsorted(breaks, np.arange(m + 1) / m, side="left")
    widest = int(np.diff(guide).max())
    steps = [1 << i for i in reversed(range(widest.bit_length()))]
    padded = np.append(breaks, np.full(steps[0] if steps else 0, np.inf))
    return float(m), guide, padded, steps


def _level_index(ends: np.ndarray, u, owner) -> np.ndarray:
    """Index of the row ``(ends[i - 1], ends[i]]`` of the sorted ``ends``
    that holds each level ``u``, or of the last row for a level above them
    all: ``np.searchsorted(ends, u)`` capped at ``len(ends) - 1``.

    A binary search mispredicts a branch at every step on random levels.
    So a lookup of at least ``_GUIDE_MIN_LEVELS`` levels in ``[0, 1]``,
    and of no fewer levels than interior ends, reads ``owner._guide``, the
    cached :func:`_guide_table` of ``ends[:-1]``: one gather and one
    branchless step per bit of its widest bucket, one step on evenly
    spread ends.  Any other lookup (a NaN fails the range test) takes the
    binary search; both give the same index.
    """
    size = np.size(u)
    if size >= _GUIDE_MIN_LEVELS and size >= ends.size - 1:
        u = np.asarray(u, dtype=float)
        if 0.0 <= u.min() and u.max() <= 1.0:
            m, guide, padded, steps = owner._guide
            # the cast to an integer truncates, so the bucket is floor(u * m)
            bucket = np.multiply(u, m, out=np.empty(u.shape, dtype=np.intp), casting="unsafe")
            index = guide.take(bucket)
            del bucket  # the steps' temporaries take its place
            for step in steps:
                below = padded[step - 1 :].take(index) < u
                index += below * step if step > 1 else below
            return index
    return np.minimum(np.searchsorted(ends, u, side="left"), ends.size - 1)


def quantile_left(eta: DiscreteMeasure, u):
    """Left-continuous quantile of a probability measure at ``u`` in (0, 1).

    ``G(u) = inf{x : F(x) >= u}``: on ``(F(x_{i-1}), F(x_i)]`` the value is
    ``x_i``.  A scalar level gives a float, an array of levels an array.
    """
    if abs(eta.mass - 1.0) > MASS_TOL:
        raise ValueError(f"quantile function requires a probability measure, mass={eta.mass}")
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise ValueError("quantile level must lie in (0, 1)")
    out = eta.xs[_level_index(eta.cum_weights, u_arr, eta)]
    return float(out) if out.ndim == 0 else out


class DecomposeError(ValueError):
    """The pair is not in convex order, so it has no martingale coupling and
    no irreducible decomposition: the curtain walk fails at ``witness`` (an
    atom, or None for unequal masses or means) by ``gap``."""

    def __init__(self, message: str, witness: float | None = None, gap: float = 0.0):
        super().__init__(message)
        self.witness, self.gap = witness, gap


def _reach(eta: DiscreteMeasure) -> float:
    """The largest ``|x|`` of ``eta``'s atoms (0 for none), the scale at which
    its first moment is rounded: mean gaps are judged relative to it."""
    return max(abs(float(eta.xs[0])), abs(float(eta.xs[-1]))) if eta.n_atoms else 0.0


def quantize_density(xs, pdf, n: int) -> DiscreteMeasure:
    """Mean-preserving n-point quantisation of a piecewise-linear density.

    The density given by linear interpolation of ``(xs, pdf)`` is split
    into ``n`` cells of equal mass; each cell collapses to one atom at its
    conditional mean, so every convex function decreases in expectation and
    the quantised measure is dominated by the input in convex order.
    """
    xs = np.asarray(xs, dtype=float)
    pdf = np.asarray(pdf, dtype=float)
    if xs.ndim != 1 or xs.shape != pdf.shape or xs.size < 2:
        raise ValueError("need at least two grid points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be strictly increasing")
    if np.any(pdf < 0):
        raise ValueError("density must be non-negative")
    if n < 1:
        raise ValueError("need at least one cell")
    seg_mass = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
    total = float(seg_mass.sum())
    if total <= 0:
        raise ValueError("density integrates to zero")
    cum = np.concatenate(([0.0], np.cumsum(seg_mass)))

    # every inner cell bound solves mass(t) = total * j / n on the segment
    # holding that mass: linearly where the density is flat, else by the
    # quadratic formula
    target = total * np.arange(1, n) / n
    j = np.clip(cum.searchsorted(target, side="right") - 1, 0, xs.size - 2)
    a, p, q = xs[j], pdf[j], pdf[j + 1]
    h = xs[j + 1] - a
    m = target - cum[j]
    slope = (q - p) / h
    flat = (np.abs(slope) < 1e-300) | (np.abs(slope) * h < 1e-12 * np.maximum(p, 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(
            flat,
            np.where(p > 0, m / p, h),
            (np.sqrt(np.maximum(p * p + 2.0 * slope * m, 0.0)) - p) / slope,
        )
    bounds = np.concatenate(([xs[0]], a + np.minimum(np.maximum(s, 0.0), h), [xs[-1]]))

    # first moment up to each bound: the whole segments below it from one
    # cumulative sum, plus the part of the segment that holds it
    whole = _segment_moment(xs, pdf, np.arange(xs.size - 1), xs[1:])
    cum_x = np.cumsum(np.concatenate(([0.0], whole)))
    k = xs.searchsorted(bounds, side="left")
    i = np.clip(k - 1, 0, xs.size - 2)
    xmom = np.where(k > 0, cum_x[i] + _segment_moment(xs, pdf, i, bounds), 0.0)
    return DiscreteMeasure(np.diff(xmom) / (total / n), np.full(n, 1.0 / n))


def _segment_moment(xs, pdf, j, t):
    """Integral of ``x`` times the density over ``[xs[j], min(t, xs[j + 1])]``
    on the grid segments ``j``, for ``t > xs[j]``.

    ``s**3`` is taken by the C library's ``pow``, one element at a time:
    numpy's vectorised power can differ from it in the last bit.
    """
    a, p, q = xs[j], pdf[j], pdf[j + 1]
    h = xs[j + 1] - a
    s = np.minimum(t - a, h)
    m = p * s + 0.5 * (q - p) * s * s / h
    cube = np.array([math.pow(v, 3.0) for v in s.tolist()])
    return a * m + 0.5 * p * s * s + (q - p) * cube / (3.0 * h)


#: mean-preserving split patterns ``(parts_left, parts_right)`` with
#: ``parts_left + parts_right`` a power of two, so dyadic weights stay dyadic
_SPLIT_PATTERNS = ((1, 1), (1, 3), (3, 1), (1, 7), (3, 5), (5, 3), (7, 1))

_SPLIT_STEPS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def random_cx_pair(seed: int, m_atoms: int, spread_steps: int):
    """Random convex-ordered pair ``(mu, nu)`` with exact dyadic data.

    ``mu`` gets ``m_atoms`` atoms with dyadic weights summing to one on a
    quarter-integer grid; ``nu`` starts equal to ``mu`` and each spread
    step replaces one atom by a two-point measure with the same mean
    (weights and offsets chosen so every quantity stays exactly
    representable).  The pair is convex-ordered by construction.
    """
    if m_atoms < 1:
        raise ValueError("need at least one atom")
    if spread_steps < 0:
        raise ValueError("spread_steps must be non-negative")
    rng = np.random.default_rng(seed)
    denom = 64
    counts = rng.multinomial(denom - m_atoms, np.full(m_atoms, 1.0 / m_atoms)) + 1
    positions = rng.choice(np.arange(-24, 25), size=m_atoms, replace=False)
    positions = np.sort(positions) / 4.0
    mu = DiscreteMeasure(positions, counts / denom)

    atoms = {float(x): float(w) for x, w in zip(mu.xs, mu.ws)}
    for _ in range(spread_steps):
        xs = sorted(atoms)
        x = xs[int(rng.integers(len(xs)))]
        w = atoms.pop(x)
        pl, pr = _SPLIT_PATTERNS[int(rng.integers(len(_SPLIT_PATTERNS)))]
        step = _SPLIT_STEPS[int(rng.integers(len(_SPLIT_STEPS)))]
        total = pl + pr
        c = x - step * pr
        d = x + step * pl
        atoms[c] = atoms.get(c, 0.0) + w * pl / total
        atoms[d] = atoms.get(d, 0.0) + w * pr / total
    nu = DiscreteMeasure.from_atoms(sorted(atoms.items()))
    return mu, nu


# -- JSON measure schema (shared with the command-line interface) ---------


def measure_to_json(eta: DiscreteMeasure) -> dict:
    return {"type": "atoms", "atoms": [[float(x), float(w)] for x, w in zip(eta.xs, eta.ws)]}


def measure_from_json(obj) -> DiscreteMeasure:
    """The measure of a JSON document of the schema in :mod:`leftcurtain.cli`.

    A document of another shape is a ``ValueError``, and so is a cell count
    ``n`` that is not a whole number: a boolean, ``null`` or ``2.7``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a measure must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "atoms":
        try:
            pairs = [(float(x), float(w)) for x, w in obj["atoms"]]
        except TypeError:
            raise ValueError("atoms must be a list of [x, w] pairs of numbers") from None
        return DiscreteMeasure.from_atoms(pairs)
    if kind == "grid-density":
        n = obj["n"]
        if not (type(n) is int or isinstance(n, float) and n.is_integer()):
            raise ValueError(f"grid-density n must be a whole number, got {n!r}")
        try:
            xs, pdf = np.asarray(obj["xs"], dtype=float), np.asarray(obj["pdf"], dtype=float)
        except TypeError:
            raise ValueError("grid-density xs and pdf must be lists of numbers") from None
        return quantize_density(xs, pdf, int(n))
    raise ValueError(f"unknown measure type: {kind!r}")
