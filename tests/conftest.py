from dataclasses import dataclass

import numpy as np
import pytest

from leftcurtain import (
    DiscreteMeasure,
    build_curtain,
    coupling,
    decompose,
    random_cx_pair,
    sample_y_many,
)
from leftcurtain.curtain import _COUPLING_ROW_KEYS, _two_point
from leftcurtain.measures import POS_EPS, _merge_atoms
from leftcurtain.verify import _destination_cdf, _s_inverse


def dm(*pairs):
    """Shorthand measure constructor from (position, weight) pairs."""
    return DiscreteMeasure.from_atoms(pairs)


def atom_weight(eta, x):
    """Weight of the atom of ``eta`` that :meth:`DiscreteMeasure.atom_index`
    matches to ``x``, or 0 if there is none; elementwise for an array ``x``."""
    out = np.append(eta.ws, 0.0)[eta.atom_index(x)]
    return float(out) if out.ndim == 0 else out


def tv_distance(a, b):
    """Total-variation distance between two measures, half the L1 weight
    difference.  Atoms of the two within ``POS_EPS`` of the first atom of
    their run are identified (the rule of the constructor's merge),
    absorbing float noise in positions."""
    xs = np.concatenate([a.xs, b.xs])
    ws = np.concatenate([a.ws, -b.ws])
    order = np.argsort(xs, kind="stable")
    _, merged = _merge_atoms(xs[order], ws[order], POS_EPS)
    return 0.5 * float(np.abs(merged).sum())


def scaled(eta, factor):
    """``eta`` with every weight multiplied by ``factor``."""
    return DiscreteMeasure(eta.xs, eta.ws * factor)


def measure_sum(a, b):
    """The sum of two measures; atoms at one position merge."""
    return DiscreteMeasure(np.concatenate([a.xs, b.xs]), np.concatenate([a.ws, b.ws]))


def reassemble(dec):
    """``(mu, nu)`` put back together from a decomposition's static part and
    the parts of its components."""
    mu = nu = dec.static
    for comp in dec.components:
        mu = measure_sum(mu, comp.mu_part)
        nu = measure_sum(nu, comp.nu_part)
    return mu, nu


def interior_zeros(dec):
    """Component boundaries interior to the overall support."""
    zeros = {z for comp in dec.components for z in (comp.a, comp.b)}
    if not zeros:
        return []
    lo, hi = min(zeros), max(zeros)
    return sorted(z for z in zeros if lo < z < hi)


def decompose_pair(mu, nu):
    """The irreducible decomposition of a pair, read off its coupling."""
    return decompose(coupling(build_curtain(mu, nu), mu), mu, nu)


def columns(table):
    """The columns of ``table``'s rows by name (``_COUPLING_ROW_KEYS``), and
    ``phi_lo``."""
    return {**dict(zip(_COUPLING_ROW_KEYS, table.intervals.T)), "phi_lo": table.phi_lo}


def row_at(table, i):
    """Row ``i`` of ``table`` as a dict of its named entries (:func:`columns`)."""
    return {name: column[i] for name, column in columns(table).items()}


def rows_of(table):
    """Every row of ``table``, in order, as by :func:`row_at`."""
    return [row_at(table, i) for i in range(len(table.intervals))]


def row_components(table, mu, nu):
    """Irreducible component of every row of ``table``, read off its
    coupling: the index of the component whose interval ``(a, b)`` strictly
    holds the row's ``x``, or -1 for a static atom."""
    x = columns(table)["x"]
    out = np.full(x.shape, -1, dtype=np.int64)
    for k, comp in enumerate(decompose(coupling(table, mu), mu, nu).components):
        out[(x > comp.a) & (x < comp.b)] = k
    return out


def breakpoints(table):
    """The levels that bound the rows of ``table``, from 0 to 1."""
    t = columns(table)
    return np.concatenate(([t["u_lo"][0]], t["u_hi"]))


def nontrivial_runs(table):
    """Maximal index runs of the rows of ``table`` whose kernel splits mass
    and whose upper function stays above the next row's quantile."""
    t = columns(table)
    split = t["s"] > t["r"]
    joined = np.zeros(len(split), dtype=bool)
    joined[1:] = split[:-1] & (t["x"][1:] < t["s"][:-1] - POS_EPS)
    idx = np.flatnonzero(split)
    if idx.size == 0:
        return []
    cuts = np.flatnonzero(~joined[idx])[1:]
    return [run.tolist() for run in np.split(idx, cuts)]


def locate(table, u):
    """Index of the row of ``table`` whose interval ``(u_lo, u_hi]`` holds
    the level ``u``."""
    u_hi = columns(table)["u_hi"]
    return min(int(u_hi.searchsorted(u, side="left")), len(u_hi) - 1)


def dphi(rows):
    """phi's slope on ``rows`` (:func:`columns` or :func:`row_at`): ``-(S -
    G) / (S - R)`` where the kernel splits, 0 on point rows."""
    _, share, split = _two_point(rows["x"], rows["r"], rows["s"])
    return np.where(split, -share, 0.0)[()]


def phi_at(rows, u):
    """phi at level ``u`` on the linear piece of ``rows``."""
    return rows["phi_lo"] + dphi(rows) * (u - rows["u_lo"])


def phi(table, u):
    """phi(u) of ``table``: left-continuous, with its right limit at
    ``u = 0``."""
    return float(table.phi_lo[0] if u <= 0.0 else phi_at(row_at(table, locate(table, u)), u))


def s_inverse(pi, y):
    """``S^{-1}(y)`` of the coupling ``pi`` at one point, as the verifiers read it."""
    return float(_s_inverse(pi, np.array([y], dtype=float))[0][0])


def destination_cdf(pi, y):
    """Probability that the destination of the coupling ``pi`` lies at or
    below ``y``, as the verifiers read it; elementwise for an array ``y``."""
    y = np.asarray(y, dtype=float)
    out = _destination_cdf(pi, y.ravel(), _s_inverse(pi, y.ravel())[0]).reshape(y.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StepMap:
    """Right-continuous step function of the source position.

    At genuine source atoms the underlying map may take several values over
    the atom's quantile interval; those positions are flagged and
    ``values_at`` returns the full list (``__call__`` returns the last,
    i.e. highest-level, value).
    """

    xs: np.ndarray
    values: tuple[tuple[float, ...], ...]
    multi_valued: np.ndarray

    def __call__(self, x: float) -> float:
        return self.values_at(x)[-1]

    def values_at(self, x: float) -> tuple[float, ...]:
        i = int(np.searchsorted(self.xs, x, side="right")) - 1
        if i < 0:
            raise ValueError(f"{x} lies left of the map's support")
        return self.values[i]


def td_tu(table):
    """Lower and upper destination maps (the paper's lower and upper
    functions) as step functions of the source position.

    These compose the table's lower/upper functions with the inverse
    quantile map; they are single-valued wherever one source atom carries
    one configuration and flagged multi-valued otherwise (genuine source
    atoms spanning several configurations).
    """
    t = columns(table)
    order = np.argsort(t["x"], kind="stable")
    g = t["x"][order]
    new_x = np.concatenate(([True], g[1:] != g[:-1]))
    firsts = np.flatnonzero(new_x)

    def step_values(column):
        """Distinct consecutive values per source position, in table order."""
        v = column[order]
        keep = new_x | np.concatenate(([True], v[1:] != v[:-1]))
        groups = np.split(v[keep], np.flatnonzero(new_x[keep])[1:])
        counts = np.add.reduceat(keep.astype(np.intp), firsts)
        return tuple(tuple(grp.tolist()) for grp in groups), counts > 1

    lo_vals, lo_multi = step_values(t["r"])
    up_vals, up_multi = step_values(t["s"])
    xs = g[new_x]
    multi = lo_multi | up_multi
    return StepMap(xs, lo_vals, multi.copy()), StepMap(xs, up_vals, multi.copy())


def sample_y(table, u, v):
    """Destination of the one pair of uniforms ``(u, v)``."""
    return float(sample_y_many(table, np.array([u]), np.array([v]))[0])


def straddle_mass(pi, z):
    """Joint mass of a coupling on pairs whose source and destination
    bracket ``z``."""
    lo = np.minimum(pi.joint_x, pi.joint_y)
    hi = np.maximum(pi.joint_x, pi.joint_y)
    mask = (lo < z - POS_EPS) & (hi > z + POS_EPS)
    return float(pi.joint_w[mask].sum())


@pytest.fixture
def two_point():
    """delta_0 spread to half/half on {-1, 1}."""
    return dm((0.0, 1.0)), dm((-1.0, 0.5), (1.0, 0.5))


@pytest.fixture
def three_atom():
    """Two source atoms into three target atoms; table is hand-checkable."""
    mu = dm((-1.0, 0.5), (1.0, 0.5))
    nu = dm((-3.0, 1 / 3), (0.0, 1 / 3), (3.0, 1 / 3))
    return mu, nu


@pytest.fixture
def near_atom():
    """A source atom 5e-12 below a target atom, within POS_EPS of it."""
    mu = dm((0.0, 0.5), (1.0 - 5e-12, 0.5))
    p = (1.0 - mu.mean) / 2
    return mu, dm((-1.0, p), (1.0, 1.0 - p))


@pytest.fixture
def near_atom_shifted():
    """The barycentres of consecutive groups of target atoms near 6e4; the
    last group has one atom, and its barycentre ``x w / w`` rounds 7.3e-12
    below that atom."""
    mu = DiscreteMeasure(
        [59999.99594949433, 60000.002081222796], [0.926194004417855, 0.07380599558214504]
    )
    nu = DiscreteMeasure(
        [59999.99315761971, 59999.997209325426, 60000.00026706794, 60000.0020812228],
        [0.33245859843866626, 0.5348107594900972, 0.05892464648909163, 0.07380599558214504],
    )
    return mu, nu


@pytest.fixture
def split_pair():
    """Pair with an interior zero of the potential gap at 0."""
    mu = dm((-1.0, 0.5), (1.0, 0.5))
    nu = dm((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25))
    return mu, nu


def bank_instance(seed):
    """Pair ``seed`` of the acceptance bank: up to 8 source and 14 target atoms."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    steps = int(rng.integers(0, min(6, 14 - m) + 1))
    return random_cx_pair(seed, m, steps)


def random_instance(seed, max_atoms=8, max_steps=6):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_atoms + 1))
    steps = int(rng.integers(0, max_steps + 1))
    return random_cx_pair(seed, m, steps)


def barrier_instance(seed, with_shared_atom=False):
    """Two independent pairs far apart, so the gap vanishes at 0.

    Both sides get at least one mean-preserving split, keeping genuine
    transport on each side of the barrier.  With ``with_shared_atom`` a
    scaled pattern carrying target mass exactly at the barrier is mixed
    in, exercising the boundary-atom allocation.
    """
    rng = np.random.default_rng(seed + 31337)
    mu_a, nu_a = random_cx_pair(
        seed * 2 + 1, int(rng.integers(1, 5)), int(rng.integers(1, 4))
    )
    mu_b, nu_b = random_cx_pair(
        seed * 2 + 2, int(rng.integers(1, 5)), int(rng.integers(1, 4))
    )
    shift = 40.0
    if not with_shared_atom:
        mu = DiscreteMeasure(
            np.concatenate([mu_a.xs - shift, mu_b.xs + shift]),
            np.concatenate([mu_a.ws * 0.5, mu_b.ws * 0.5]),
        )
        nu = DiscreteMeasure(
            np.concatenate([nu_a.xs - shift, nu_b.xs + shift]),
            np.concatenate([nu_a.ws * 0.5, nu_b.ws * 0.5]),
        )
        return mu, nu
    # pattern with target mass at the barrier point 0: each side needs a
    # quarter of the central atom
    s = 2.0
    mu_c = DiscreteMeasure([-s, s], [0.25, 0.25])
    nu_c = DiscreteMeasure([-2 * s, 0.0, 2 * s], [0.125, 0.25, 0.125])
    mu = DiscreteMeasure(
        np.concatenate([mu_a.xs - shift, mu_c.xs, mu_b.xs + shift]),
        np.concatenate([mu_a.ws * 0.25, mu_c.ws, mu_b.ws * 0.25]),
    )
    nu = DiscreteMeasure(
        np.concatenate([nu_a.xs - shift, nu_c.xs, nu_b.xs + shift]),
        np.concatenate([nu_a.ws * 0.25, nu_c.ws, nu_b.ws * 0.25]),
    )
    return mu, nu
