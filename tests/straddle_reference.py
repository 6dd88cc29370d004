"""The retired segment-tree sweep of the shadow certificate's part (iii),
kept as a test reference.

``verify_shadow_consistency`` used to judge (iii) by the largest straddle
mass of one target atom: the level mass below the atom's fill level of the
band rows that cover it.  It now sums, over the band rows, the levels below
the highest fill level inside each row's band.  That sum is at least every
atom's straddle mass and is zero exactly when they all are, so the tests
compare the two on the inputs the certificate hands to its helper.

``straddle_max(first, last, lo, hi, tau)`` takes those inputs: the atom
range ``first[j]..last[j]`` and the levels ``(lo[j], hi[j]]`` of every
band row, and every atom's fill level ``tau``.
"""

import numpy as np


def straddle_max(first, last, lo, hi, tau: np.ndarray) -> float:
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
