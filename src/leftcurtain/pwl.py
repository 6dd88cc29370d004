"""Lower convex envelopes of continuous piecewise-linear functions, on arrays.

A function is given by its breakpoints ``(xs, ys)``, with ``xs`` strictly
increasing, and two asymptotic slopes: it is affine with slope
``slope_left`` on ``(-inf, xs[0]]``, linear between consecutive
breakpoints, and affine with slope ``slope_right`` on ``[xs[-1], +inf)``.
Envelopes serve only the references: the pointwise reference in
:mod:`leftcurtain.oracle` takes the envelope of each level's excess
potential and evaluates such functions with :func:`evaluate`.  No solver
module imports this one; the shadow is the mass the curtain walk uses up.
The slopes the hull scan compares are differences of cumulative weights,
so its comparisons take the mass tolerance ``MASS_TOL`` of
:mod:`leftcurtain.measures`.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import MASS_TOL


def evaluate(xs, ys, slope_left, slope_right, k):
    """Value at ``k`` of the function with breakpoints ``(xs, ys)`` and the
    given tail slopes; elementwise for an array ``k``."""
    k = np.asarray(k, dtype=float)
    y = np.interp(k, xs, ys)
    y = np.where(k < xs[0], ys[0] + slope_left * (k - xs[0]), y)
    y = np.where(k > xs[-1], ys[-1] + slope_right * (k - xs[-1]), y)
    return float(y) if y.ndim == 0 else y


def convex_hull(xs, ys, slope_left, slope_right):
    """Vertices ``(hx, hy)`` of the lower convex envelope of a function.

    Runs a monotone-chain lower-hull scan over the breakpoints, then clips
    the result so the envelope's asymptotic slopes equal the function's:
    the leftmost retained vertex minimises ``y - slope_left * x`` and the
    rightmost minimises ``y - slope_right * x``, which anchors the two
    supporting tail lines.  The envelope has the function's tail slopes and
    is linear between the returned vertices, every one of which is a
    breakpoint of the function.  O(n) on the sorted breakpoints and exact
    for piecewise-linear input.
    """
    if slope_left > slope_right + MASS_TOL:
        raise ValueError("no finite convex minorant: slope_left > slope_right")
    xs = np.asarray(xs, dtype=float).tolist()
    ys = np.asarray(ys, dtype=float).tolist()
    # hs[j] is the slope into vertex j from the vertex below it, computed
    # once at the push; the bottom vertex gets -inf and is never popped
    hx = xs[:1]
    hy = ys[:1]
    hs = [-math.inf]
    for x, y in zip(xs[1:], ys[1:]):
        while True:
            s_out = (y - hy[-1]) / (x - hx[-1])
            if hs[-1] < s_out - MASS_TOL:
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
        idx = np.flatnonzero(vals <= m + MASS_TOL * max(1.0, abs(m)))
        return int(idx[0]) if leftmost else int(idx[-1])

    i_l = _anchor(slope_left, leftmost=True)
    i_r = _anchor(slope_right, leftmost=False)
    if i_l > i_r:  # cannot happen for slope_left <= slope_right
        raise ValueError("inconsistent hull anchors")
    return hx_arr[i_l : i_r + 1], hy_arr[i_l : i_r + 1]
