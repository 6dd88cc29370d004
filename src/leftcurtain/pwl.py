"""Exact algebra for continuous piecewise-linear functions.

A function is stored as a list of breakpoints ``(x_i, y_i)`` with strictly
increasing ``x_i``, together with two asymptotic slopes: the function is
affine with slope ``slope_left`` on ``(-inf, x_0]``, linear between
consecutive breakpoints, and affine with slope ``slope_right`` on
``[x_n, +inf)``.  Put-option potentials of atomic measures, their
differences, and lower convex envelopes all live in this class, so the
whole construction carries no discretisation error beyond float rounding.

All geometric comparisons share a single absolute tolerance ``EPS_GEOM``;
collinear breakpoints are merged on construction so equality of functions
is testable on the canonical representation.
"""

from __future__ import annotations

import math

import numpy as np

#: absolute tolerance for slope-jump and collinearity tests
EPS_GEOM = 1e-12

#: tolerance for deciding that a function touches its convex envelope
CONTACT_EPS = 1e-10


class NonConvexPotential(ValueError):
    """Raised when a slope extraction meets a negative jump beyond tolerance."""


class PiecewiseLinear:
    """Continuous piecewise-linear function with affine tails.

    Instances are immutable; arithmetic returns new objects on the merged
    breakpoint grid.  Construction canonicalises the representation by
    dropping breakpoints whose slope change is below ``eps``.
    """

    __slots__ = ("xs", "ys", "slope_left", "slope_right")

    def __init__(self, xs, ys, slope_left, slope_right, *, eps=EPS_GEOM):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
            raise ValueError("xs and ys must be equal-length non-empty 1-D arrays")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoint x-coordinates must be strictly increasing")
        slope_left = float(slope_left)
        slope_right = float(slope_right)
        if xs.size > 1:
            keep = _collinear_mask(xs, ys, slope_left, slope_right, eps)
            xs, ys = xs[keep], ys[keep]
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "slope_left", slope_left)
        object.__setattr__(self, "slope_right", slope_right)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("PiecewiseLinear is immutable")

    # -- evaluation ------------------------------------------------------

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        y = np.interp(k, self.xs, self.ys)
        y = np.where(k < self.xs[0], self.ys[0] + self.slope_left * (k - self.xs[0]), y)
        y = np.where(k > self.xs[-1], self.ys[-1] + self.slope_right * (k - self.xs[-1]), y)
        return float(y) if y.ndim == 0 else y

    def segment_slopes(self) -> np.ndarray:
        """Slopes of the bounded linear pieces (length ``len(xs) - 1``)."""
        return np.diff(self.ys) / np.diff(self.xs)

    def all_slopes(self) -> np.ndarray:
        """Slopes of every affine piece from left tail to right tail."""
        return np.concatenate(([self.slope_left], self.segment_slopes(), [self.slope_right]))

    def one_sided_slopes(self, k: float, eps: float = EPS_GEOM) -> tuple[float, float]:
        """Left and right derivative at ``k``.

        Equal values on the interior of a linear piece; at a breakpoint the
        pair brackets the kink.  ``slope_minus <= slope_plus`` iff the
        function is locally convex at ``k``.
        """
        slopes = self.all_slopes()
        i = int(np.searchsorted(self.xs, k))
        if i < self.xs.size and abs(self.xs[i] - k) <= eps:
            return float(slopes[i]), float(slopes[i + 1])
        if i > 0 and abs(self.xs[i - 1] - k) <= eps:
            return float(slopes[i - 1]), float(slopes[i])
        s = float(slopes[i])
        return s, s

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other: "PiecewiseLinear", sign: float) -> "PiecewiseLinear":
        xs = np.union1d(self.xs, other.xs)
        ys = self(xs) + sign * other(xs)
        return PiecewiseLinear(
            xs,
            ys,
            self.slope_left + sign * other.slope_left,
            self.slope_right + sign * other.slope_right,
        )

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def allclose(self, other: "PiecewiseLinear", tol: float = 1e-9) -> bool:
        """Pointwise equality on the union grid and tails, within ``tol``."""
        xs = np.union1d(self.xs, other.xs)
        return (
            bool(np.all(np.abs(self(xs) - other(xs)) <= tol))
            and abs(self.slope_left - other.slope_left) <= tol
            and abs(self.slope_right - other.slope_right) <= tol
        )

    def is_convex(self, eps: float = EPS_GEOM) -> bool:
        return bool(np.all(np.diff(self.all_slopes()) >= -eps))

    def __repr__(self):
        return (
            f"PiecewiseLinear({self.xs.size} breakpoints on "
            f"[{self.xs[0]:g}, {self.xs[-1]:g}], slopes {self.slope_left:g}/{self.slope_right:g})"
        )


def _collinear_mask(xs, ys, slope_left, slope_right, eps):
    seg = np.diff(ys) / np.diff(xs)
    slopes = np.concatenate(([slope_left], seg, [slope_right]))
    keep = np.abs(np.diff(slopes)) > eps
    if not keep.any():
        keep[0] = True  # globally affine: keep one anchor
    return keep


# -- module-level operations ----------------------------------------------


def convex_hull(f: PiecewiseLinear, eps: float = EPS_GEOM) -> PiecewiseLinear:
    """Lower convex envelope of ``f``.

    Runs a monotone-chain lower-hull scan over the breakpoints, then clips
    the result so the envelope's asymptotic slopes equal those of ``f``:
    the leftmost retained vertex minimises ``y - slope_left * x`` and the
    rightmost minimises ``y - slope_right * x``, which anchors the two
    supporting tail lines.  O(n) on the sorted breakpoints and exact for
    piecewise-linear input.
    """
    if f.slope_left > f.slope_right + eps:
        raise ValueError("no finite convex minorant: slope_left > slope_right")
    xs = f.xs.tolist()
    ys = f.ys.tolist()
    # hs[j] is the slope into vertex j from the vertex below it, computed
    # once at the push; the bottom vertex gets -inf and is never popped
    hx = xs[:1]
    hy = ys[:1]
    hs = [-math.inf]
    for x, y in zip(xs[1:], ys[1:]):
        while True:
            s_out = (y - hy[-1]) / (x - hx[-1])
            if hs[-1] < s_out - eps:
                break
            hx.pop()
            hy.pop()
            hs.pop()
        hx.append(x)
        hy.append(y)
        hs.append(s_out)
    hx_arr = np.array(hx)
    hy_arr = np.array(hy)

    def _anchor(slope, leftmost):
        vals = hy_arr - slope * hx_arr
        m = vals.min()
        idx = np.flatnonzero(vals <= m + eps * max(1.0, abs(m)))
        return int(idx[0]) if leftmost else int(idx[-1])

    i_l = _anchor(f.slope_left, leftmost=True)
    i_r = _anchor(f.slope_right, leftmost=False)
    if i_l > i_r:  # cannot happen for slope_left <= slope_right
        raise ValueError("inconsistent hull anchors")
    return PiecewiseLinear(
        hx_arr[i_l : i_r + 1], hy_arr[i_l : i_r + 1], f.slope_left, f.slope_right, eps=eps
    )


def contact_points(
    f: PiecewiseLinear,
    fc: PiecewiseLinear,
    y: float,
    eps: float = CONTACT_EPS,
) -> tuple[float, float]:
    """Contact points of ``f`` with its convex envelope around ``y``.

    Returns ``(X, Z)`` where ``X`` is the largest point ``<= y`` with
    ``f = fc`` and ``Z`` the smallest such point ``>= y``; ``-inf`` /
    ``+inf`` when the respective set is empty.  Since ``f - fc`` is a
    non-negative piecewise-linear function, its zeros lie at breakpoints
    (or fill whole segments whose endpoints are then zeros too), so a
    breakpoint scan is exhaustive.
    """
    g = f - fc
    if g(y) <= eps:
        return float(y), float(y)
    vals = g(g.xs)
    zero = vals <= eps
    below = (g.xs <= y) & zero
    above = (g.xs >= y) & zero
    x_contact = float(g.xs[below][-1]) if below.any() else -math.inf
    z_contact = float(g.xs[above][0]) if above.any() else math.inf
    return x_contact, z_contact


def measure_from_potential(p: PiecewiseLinear, eps: float = 1e-9):
    """Recover the atomic measure whose put-potential is ``p``.

    Atoms sit at the breakpoints and get the slope jump as weight; total
    mass equals ``slope_right``.  Rejects inputs with a negative slope jump
    beyond ``eps`` or a left tail that is not flat.
    """
    from .measures import DiscreteMeasure  # local import avoids module cycle

    if abs(p.slope_left) > eps:
        raise NonConvexPotential(f"potential left slope must be 0, got {p.slope_left}")
    jumps = np.diff(p.all_slopes())
    if np.any(jumps < -eps):
        raise NonConvexPotential(f"negative slope jump {jumps.min():.3e} beyond tolerance")
    mask = jumps > 1e-13
    return DiscreteMeasure(p.xs[mask], jumps[mask])
