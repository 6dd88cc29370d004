"""The level lookup of ``sample_y_many`` and ``quantile_left`` against numpy's
binary search.

``_level_index`` reads a guide table only for a call of at least
``_GUIDE_MIN_LEVELS`` levels in ``[0, 1]`` and no fewer levels than interior
ends; every other call takes ``np.searchsorted``.  Either way the index must
be that of the binary search, bit for bit, on every input below.
"""

import numpy as np
import pytest

from leftcurtain import (
    CurtainTable,
    DiscreteMeasure,
    TABLE_DTYPE,
    build_curtain,
    quantile_left,
    quantize_density,
    random_cx_pair,
    sample_y_many,
)
from leftcurtain.measures import _GUIDE_MIN_LEVELS, _guide_table, _level_index

TINY = np.finfo(float).tiny


def binary_search(ends, u):
    """The lookup as a plain binary search: ``searchsorted`` capped at the last row."""
    return np.minimum(np.searchsorted(ends, u, side="left"), len(ends) - 1)


class Owner:
    """Holds the guide table of ``ends`` and counts how often it is read."""

    def __init__(self, ends):
        self.ends = ends
        self.reads = 0

    @property
    def _guide(self):
        self.reads += 1
        return _guide_table(self.ends[:-1])


def family(kind, k, rng):
    """``k`` sorted interior breakpoints of one kind, followed by the end 1."""
    if kind == "random":
        breaks = rng.uniform(0.0, 1.0, k)
    elif kind == "even":
        breaks = np.arange(1, k + 1) / (k + 1)
    elif kind == "clustered":  # half of them within 1e-9 of one level
        cluster = 0.3 + rng.uniform(0.0, 1e-9, k // 2)
        breaks = np.concatenate((rng.uniform(0.0, 1.0, k - k // 2), cluster))
    elif kind == "repeated":  # zero-width rows, at 0 and at 1 among them
        breaks = rng.choice(np.array([0.0, 0.25, 0.5, 1 / 3, 1.0]), k)
    else:  # a row of two-sided neighbours: rows one ulp wide
        start = np.full(k, 0.7)
        breaks = start + np.arange(k) * np.spacing(0.7)
    return np.append(np.sort(breaks), 1.0)


def edge_levels(ends):
    """Every end, one ulp either side of it, and the extreme levels, in ``[0, 1]``."""
    specials = np.array([0.0, 1.0, 5e-324, TINY, 1.0 - 1e-16, 0.5])
    near = np.concatenate((ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf), specials))
    return np.clip(near, 0.0, 1.0)


def guided_levels(ends, rng):
    """Random levels and :func:`edge_levels`, enough of them for the guide."""
    edges = edge_levels(ends)
    spare = max(_GUIDE_MIN_LEVELS, len(ends)) - edges.size
    return rng.permutation(np.concatenate((edges, rng.uniform(0.0, 1.0, max(spare, 0)))))


KINDS = ["random", "even", "clustered", "repeated", "ulps"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 64, 1000, 3000])
def test_guide_gives_the_binary_search_index(kind, k):
    rng = np.random.default_rng(k)
    ends = family(kind, k, rng)
    levels = guided_levels(ends, rng)
    owner = Owner(ends)
    got = _level_index(ends, levels, owner)
    assert owner.reads == 1
    assert np.array_equal(got, binary_search(ends, levels))


@pytest.mark.parametrize(
    "size, k, guided",
    [
        (_GUIDE_MIN_LEVELS, 1499, True),
        (_GUIDE_MIN_LEVELS - 1, 1499, False),
        (5000, 5000, True),  # as many levels as interior breakpoints
        (5000, 5001, False),
    ],
)
def test_size_rule(size, k, guided):
    rng = np.random.default_rng(size + k)
    ends = family("random", k, rng)
    levels = np.concatenate((edge_levels(ends), rng.uniform(0.0, 1.0, size)))
    levels = rng.permutation(levels)[:size]
    owner = Owner(ends)
    got = _level_index(ends, levels, owner)
    assert owner.reads == int(guided)
    assert np.array_equal(got, binary_search(ends, levels))


@pytest.mark.parametrize(
    "bad", [np.nan, -np.inf, np.inf, -1e-300, -0.5, np.nextafter(1.0, 2.0), 1.5]
)
def test_nan_or_out_of_range_levels_take_the_binary_search(bad):
    rng = np.random.default_rng(3)
    ends = family("random", 100, rng)
    levels = rng.uniform(0.0, 1.0, 2 * _GUIDE_MIN_LEVELS)
    levels[17] = bad
    owner = Owner(ends)
    got = _level_index(ends, levels, owner)
    assert owner.reads == 0
    assert np.array_equal(got, binary_search(ends, levels))


def test_negative_zero_and_other_shapes_take_the_guide():
    rng = np.random.default_rng(4)
    ends = family("random", 300, rng)
    levels = rng.uniform(0.0, 1.0, (64, 128))
    levels[0, 0] = -0.0
    owner = Owner(ends)
    got = _level_index(ends, levels, owner)
    assert owner.reads == 1
    assert got.shape == levels.shape
    assert np.array_equal(got, binary_search(ends, levels))
    listed = levels.ravel().tolist()
    assert np.array_equal(_level_index(ends, listed, owner), binary_search(ends, listed))
    assert owner.reads == 2


def reference_draws(table, us, vs):
    """``sample_y_many`` with the row found by the binary search."""
    t = table.intervals
    lower, share, _ = table._kernels
    idx = binary_search(t["u_hi"], us)
    return np.where(np.asarray(vs) <= share[idx], lower[idx], t["s"][idx])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def table_levels(table, rng):
    return np.clip(guided_levels(table.intervals["u_hi"], rng), TINY, 1.0 - 1e-16)


def test_uniform_pair_draws_and_quantiles_match_the_binary_search():
    mu = quantize_density([-1.0, 1.0], [0.5, 0.5], 1000)
    nu = quantize_density([-2.0, 2.0], [0.25, 0.25], 1000)
    table = build_curtain(mu, nu)
    rng = np.random.default_rng(5)
    at_atoms = np.clip(edge_levels(mu.cum_weights), TINY, 1 - 1e-16)
    us = np.concatenate((table_levels(table, rng), at_atoms))
    vs = rng.uniform(0.0, 1.0, us.size)
    assert same_bits(sample_y_many(table, us, vs), reference_draws(table, us, vs))
    assert "_guide" in table.__dict__
    assert same_bits(quantile_left(mu, us), mu.xs[binary_search(mu.cum_weights, us)])
    assert "_guide" in mu.__dict__


def test_every_bank_table_matches_the_binary_search():
    # the cx-bank pairs: 1 to 8 atoms, 0 to 6 spread steps, up to 19 rows
    rng = np.random.default_rng(6)
    for i in range(336):
        mu, nu = random_cx_pair(i, 1 + i % 8, (i // 8) % 7)
        table = build_curtain(mu, nu)
        us = table_levels(table, rng)
        vs = rng.uniform(0.0, 1.0, us.size)
        for levels in (us[:1000], us):  # the bank's call, then one that reads the guide
            draws = vs[: levels.size]
            want = reference_draws(table, levels, draws)
            assert same_bits(sample_y_many(table, levels, draws), want)
            assert ("_guide" in table.__dict__) == (levels.size >= _GUIDE_MIN_LEVELS)
        assert same_bits(quantile_left(mu, us), mu.xs[binary_search(mu.cum_weights, us)])


def test_table_of_zero_width_rows():
    u_hi = np.array([0.0, 0.25, 0.25, 0.5, 1.0, 1.0])
    rows = np.zeros(u_hi.size, dtype=TABLE_DTYPE)
    rows["u_lo"] = np.append(0.0, u_hi[:-1])
    rows["u_hi"] = u_hi
    rows["g"] = rows["r"] = rows["s"] = np.arange(u_hi.size, dtype=float)
    table = CurtainTable(rows)
    rng = np.random.default_rng(7)
    us = guided_levels(u_hi, rng)
    got = sample_y_many(table, us, np.full(us.size, 0.5))
    assert got.tolist() == binary_search(u_hi, us).astype(float).tolist()


def test_list_levels_and_the_readme_example():
    mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    nu = DiscreteMeasure([-3.0, 0.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
    table = build_curtain(mu, nu)
    assert sample_y_many(table, [0.75], [0.5]).tolist() == [3.0]
    assert same_bits(sample_y_many(table, [0.75], [0.5]), reference_draws(table, [0.75], [0.5]))
    rng = np.random.default_rng(8)
    us = table_levels(table, rng).tolist()
    vs = rng.uniform(0.0, 1.0, len(us)).tolist()
    assert same_bits(sample_y_many(table, us, vs), reference_draws(table, us, vs))
    assert "_guide" in table.__dict__
    assert same_bits(quantile_left(mu, us), mu.xs[binary_search(mu.cum_weights, us)])


@pytest.mark.parametrize("bad", [np.nan, -0.25, 1.25])
def test_draws_at_nan_or_out_of_range_levels_are_unchanged(bad):
    table = build_curtain(*random_cx_pair(9, 5, 4))
    rng = np.random.default_rng(9)
    us = rng.uniform(0.0, 1.0, 2 * _GUIDE_MIN_LEVELS)
    vs = rng.uniform(0.0, 1.0, us.size)
    us[::97] = bad
    assert same_bits(sample_y_many(table, us, vs), reference_draws(table, us, vs))
    assert "_guide" not in table.__dict__


def test_quantile_rejects_a_large_call_with_one_bad_level():
    mu = random_cx_pair(10, 6, 0)[0]
    us = np.random.default_rng(10).uniform(0.0, 1.0, 2 * _GUIDE_MIN_LEVELS)
    for bad in (np.nan, 0.0, 1.0):
        us[5] = bad
        with pytest.raises(ValueError, match="quantile level"):
            quantile_left(mu, us)
