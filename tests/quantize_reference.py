"""Scalar reference for :func:`leftcurtain.quantize_density`.

One cell at a time: every cell bound ``total * j / n`` is inverted on its
own, and every atom's first moment is summed again over the grid segments
up to each of its two bounds (O(n m) for n cells on m grid points).  The
package computes the same atoms from cumulative arrays in one pass, with
each element's operations in the same order, so the tests compare the
two bit for bit on simple grids.  Input checks are left to the package.
"""

import math

import numpy as np


def quantize_reference(xs, pdf, n):
    """Positions of the ``n`` atoms of weight ``1 / n``, in cell order."""
    xs = np.asarray(xs, dtype=float)
    pdf = np.asarray(pdf, dtype=float)
    seg_mass = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
    total = float(seg_mass.sum())
    cum = np.concatenate(([0.0], np.cumsum(seg_mass)))

    def _xmom_upto(t):
        """integral of x * density on (-inf, t]"""
        out = 0.0
        for j in range(xs.size - 1):
            a, b = xs[j], xs[j + 1]
            if t <= a:
                break
            p, q = pdf[j], pdf[j + 1]
            h = b - a
            s = min(t - a, h)
            m = p * s + 0.5 * (q - p) * s * s / h
            out += a * m + 0.5 * p * s * s + (q - p) * s**3 / (3.0 * h)
        return out

    def _invert(target):
        """solve mass_upto(t) = target"""
        j = int(np.clip(np.searchsorted(cum, target, side="right") - 1, 0, xs.size - 2))
        a, b = xs[j], xs[j + 1]
        p, q = pdf[j], pdf[j + 1]
        h = b - a
        m = target - cum[j]
        slope = (q - p) / h
        if abs(slope) < 1e-300 or abs(slope) * h < 1e-12 * max(p, 1e-300):
            s = m / p if p > 0 else h
        else:
            disc = p * p + 2.0 * slope * m
            s = (math.sqrt(max(disc, 0.0)) - p) / slope
        return float(a + min(max(s, 0.0), h))

    bounds = [xs[0]] + [_invert(total * j / n) for j in range(1, n)] + [xs[-1]]
    cell = total / n
    atoms_x = np.empty(n)
    for j in range(n):
        xm = _xmom_upto(bounds[j + 1]) - _xmom_upto(bounds[j])
        atoms_x[j] = xm / cell
    return atoms_x
