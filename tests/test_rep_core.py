import itertools
import time
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter

import pytest

from metrocap import rep_core
from metrocap.rep_core import (
    UNBOUNDED,
    Decomposition,
    IrrepEntry,
    _weight_rows,
    decompose,
    multiplicity_su,
    partition_count,
    weight_count,
)
from reference import (
    check_rows,
    factorial_multinomial,
    hook_length_count,
    pairwise_weyl_dim,
    partition_rows,
    ssyt_count,
)


# ---------------------------------------------------------------- oracles

def brute_partitions(n, t):
    """Every non-increasing t-tuple of non-negatives summing to n."""
    out = set()
    for c in itertools.product(range(n + 1), repeat=t):
        if sum(c) == n and all(c[i] >= c[i + 1] for i in range(t - 1)):
            out.add(c)
    return out


def brute_weights(n, t):
    return {c for c in itertools.product(range(n + 1), repeat=t) if sum(c) == n}


def count_syt(rows):
    """Standard fillings counted by peeling corners off the diagram."""

    @lru_cache(maxsize=None)
    def rec(state):
        if sum(state) == 0:
            return 1
        total = 0
        for i, r in enumerate(state):
            if r > 0 and (i == len(state) - 1 or state[i + 1] < r):
                total += rec(state[:i] + (r - 1,) + state[i + 1 :])
        return total

    return rec(tuple(r for r in rows if r > 0))


# ---------------------------------------------------------------- types

# The row rules of a decomposition live in the slow reference check_rows,
# which test_decompose_completeness and the property tests run on the walks'
# own rows; these tests hold check_rows itself to each rule and its message.

def test_partition_checks_sign_before_order():
    with pytest.raises(ValueError, match="negative entry"):
        check_rows("su", 4, 3, [(1, -1, 2, 1, 1, 1)])  # breaks both rules


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="negative entry"):
        check_rows("mp", 1, 2, [(2, -1, 1, 1, 1)])


def test_decomposition_rejects_incomplete():
    with pytest.raises(ValueError, match="do not fill"):
        check_rows("su", 2, 2, [(2, 0, 3, 1, 3)])
    with pytest.raises(ValueError, match="duplicate"):
        check_rows("su", 2, 2, [(2, 0, 3, 1, 3), (2, 0, 1, 1, 1)])


# ---------------------------------------------------------------- enumeration

def test_enumerate_partitions_small():
    assert list(partition_rows(2, 2)) == [(2, 0), (1, 1)]
    assert list(partition_rows(4, 3)) == [
        (4, 0, 0),
        (3, 1, 0),
        (2, 2, 0),
        (2, 1, 1),
    ]
    assert list(partition_rows(0, 3)) == [(0, 0, 0)]


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 5, 9, 12])
def test_enumerate_partitions_brute(n, t):
    got = list(partition_rows(n, t))
    assert set(got) == brute_partitions(n, t)
    assert got == sorted(got, reverse=True)  # lexicographically descending
    assert len(got) == len(set(got))
    if t > 1:  # the library's shape walk serves t >= 2
        assert [row[:t] for row in rep_core._shape_rows(n, t)] == got


def test_partition_count_bound_sweep():
    for t in range(1, 5):
        for n in range(51):
            assert sum(1 for _ in partition_rows(n, t)) == partition_count(n, t)


def test_partition_count_closed_forms_at_t_2_and_3():
    """Without a row cap, t = 2 and t = 3 are counted in closed form: the
    same as the loop, which a cap of n leaves exact, and at n = 10^12,
    where the loop's list of n + 1 counts could not be made."""
    for n in range(600):
        assert partition_count(n, 2) == partition_count(n, 2, n) == n // 2 + 1
        assert partition_count(n, 3) == partition_count(n, 3, n)
    n = 10**12
    assert partition_count(n, 2) == n // 2 + 1
    assert partition_count(n, 3) == ((n + 3) ** 2 + 6) // 12


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_partition_count_refuses_a_negative_n(t):
    """n < 0 is refused before the closed forms and the loop alike, where
    it used to read 1, 0 or an IndexError depending on t and the cap."""
    for n in (-1, -3):
        for widest, above in ((None, None), (2, None), (None, 1), (2, 1)):
            with pytest.raises(ValueError, match="n must be non-negative"):
                partition_count(n, t, widest, above)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 5, 9, 12])
def test_partitions_under_a_row_cap_match_brute(n, t):
    """The Gaussian-binomial count of partitions with every row <= widest."""
    brute = brute_partitions(n, t)
    for widest in range(n + 2):
        assert partition_count(n, t, widest) == sum(1 for rows in brute if rows[0] <= widest)


def weights(n, t):
    return [row[:t] for row in _weight_rows(n, t)]


def test_enumerate_weights_small():
    assert weights(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(weights(4, 2)) == 5
    assert len(weights(2, 3)) == 6
    assert weights(0, 3) == [(0, 0, 0)]


@pytest.mark.parametrize("n,t", [(4, 2), (3, 3), (5, 3), (2, 4)])
def test_enumerate_weights_brute(n, t):
    got = weights(n, t)
    assert set(got) == brute_weights(n, t)
    assert len(got) == weight_count(n, t) == comb(n + t - 1, t - 1)
    assert got == sorted(got, reverse=True)


# ---------------------------------------------------------------- dimensions

def walk(n, t, **kwargs):
    """The shape walk's flat rows (*rows, dim, f, eff) as (rows, dim, f, eff)."""
    return [(row[:t], *row[t:]) for row in rep_core._shape_rows(n, t, **kwargs)]


def walk_rows(n, t):
    """Each shape's (dim, f) from the shape walk, by its zero-padded rows."""
    return {rows: (dim, f) for rows, dim, f, _ in walk(n, t)}


def test_weyl_dimension_known():
    assert walk_rows(2, 2)[(1, 1)][0] == 1
    assert walk_rows(2, 2)[(2, 0)][0] == 3
    assert walk_rows(3, 3)[(2, 1, 0)][0] == 8
    for n in (1, 4, 17):
        assert walk_rows(n, 2)[(n, 0)][0] == n + 1


def test_weyl_dimension_vs_ssyt():
    for t in range(2, 5):
        for n in range(9):
            for rows, dim, _, _ in walk(n, t):
                assert dim == ssyt_count(rows, t), rows


def test_weyl_dimension_bound():
    # d_lam <= (n+1)^(t(t-1)/2)
    for t in range(2, 5):
        for n in range(13):
            cap = (n + 1) ** (t * (t - 1) // 2)
            for _, dim, _, _ in walk(n, t):
                assert dim <= cap


@pytest.mark.parametrize("t", [2, 3, 5, 8, 13, 21, 40])
def test_weyl_dimension_telescoped_tail_matches_pairwise_product(t):
    """Shapes with zero rows, whose tail the walk telescopes, and shapes with
    every row occupied, which end in its last-two-rows loop; both against
    every pair."""
    for n in range(13):
        for rows, dim, _, _ in walk(n, t):
            assert dim == pairwise_weyl_dim(rows), rows


def test_weyl_dimension_at_large_t_matches_a_closed_form():
    """One row of n boxes is Sym^n(C^t), of dimension C(n+t-1, n), and one
    column of 3 boxes is Lambda^3(C^t), of dimension C(t, 3): the walk's first
    and last shapes, each with one tableau."""
    for t in (100, 1000):
        first = next(rep_core._shape_rows(20, t))
        assert first == (20,) + (0,) * (t - 1) + (comb(20 + t - 1, 20), 1, comb(20 + t - 1, 20))
        *_, last = rep_core._shape_rows(3, t)
        assert last == (1,) * 3 + (0,) * (t - 3) + (comb(t, 3), 1, comb(t, 3))


def test_multiplicity_su_known():
    assert walk_rows(5, 2)[(5, 0)][1] == 1
    assert walk_rows(2, 2)[(1, 1)][1] == 1
    assert walk_rows(3, 2)[(2, 1)][1] == 2


def test_multiplicity_su_vs_syt():
    for n in range(1, 9):
        for rows, _, f, _ in walk(n, max(n, 2)):
            assert f == count_syt(rows), rows


def test_multiplicity_mp_known():
    mult = {row[:2]: row[-2] for row in _weight_rows(4, 2)}
    assert mult[(4, 0)] == 1
    assert mult[(2, 2)] == 6
    assert {row[:3]: row[-2] for row in _weight_rows(3, 3)}[(1, 1, 1)] == 6


@pytest.mark.parametrize("n,t", [(4, 2), (5, 2), (4, 3)])
def test_multiplicity_mp_brute(n, t):
    strings = list(itertools.product(range(t), repeat=n))
    for *counts, _, mult, _ in _weight_rows(n, t):
        hits = sum(
            1
            for s in strings
            if all(s.count(level) == counts[level] for level in range(t))
        )
        assert mult == hits


# ---------------------------------------------------------------- decompose

def test_decompose_su_example():
    d = decompose("su", 2, 2, UNBOUNDED)
    assert d.rows == ((2, 0, 3, 1, 3), (1, 1, 1, 1, 1))


def test_decompose_mp_example():
    d = decompose("mp", 3, 2, 1)
    assert len(d.rows) == 4
    assert all(dim == 1 and eff == 1 for *_, dim, _, eff in d.rows)
    assert sorted(mult for *_, mult, _ in d.rows) == [1, 1, 3, 3]


def test_decompose_su_finite_reference():
    d = decompose("su", 3, 2, 1)
    table = {row[:2]: row[2:] for row in d.rows}
    assert table[(2, 1)] == (2, 2, 2)
    assert table[(3, 0)][2] == 1  # min(1*1, 4)
    d2 = decompose("su", 4, 2, 2)
    table2 = {row[:2]: row[-1] for row in d2.rows}
    assert table2[(3, 1)] == 3  # min(2*3, 3) saturates
    assert table2[(2, 2)] == 1  # min(2*2, 1)


@pytest.mark.parametrize("model", ["mp", "su"])
@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_decompose_completeness(model, n, t):
    """The blocks fill the space, and the walk's rows pass every row rule
    (check_rows)."""
    d = decompose(model, n, t, 1)
    if model == "mp":
        assert sum(mult for *_, mult, _ in d.rows) == t**n
    else:
        assert sum(dim * mult for *_, dim, mult, _ in d.rows) == t**n
    check_rows(model, n, t, d.rows)


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose("xx", 2, 2, 1)
    with pytest.raises(ValueError):
        decompose("mp", 0, 2, 1)
    with pytest.raises(ValueError):
        decompose("mp", 2, 1, 1)
    with pytest.raises(ValueError):
        decompose("mp", 2, 2, 0)
    with pytest.raises(ValueError):
        decompose("mp", 2, 2, 1.5)


def test_decompose_block_budget(monkeypatch):
    """su counts its shapes one part size at a time (by conjugation, one row
    count at a time) and refuses at the first count past a budget, naming it
    as a lower bound: of the 12 193 703 764 partitions of 1000 into at most 6
    parts, those into at most 4 already exceed MAX_BLOCKS.  mp names its
    exact count."""
    assert partition_count(1000, 3) <= rep_core.MAX_BLOCKS < partition_count(1000, 4) == 7049112
    with pytest.raises(ValueError, match="^at least 7049112 blocks .* of 1000000"):
        decompose("su", 1000, 6, 1)
    monkeypatch.setattr(rep_core, "MAX_BLOCKS", 10)
    assert len(decompose("mp", 3, 3, 1).rows) == 10  # C(5, 2), at the budget
    assert len(decompose("su", 8, 3, 1).rows) == 10  # p(8, <= 3 parts)
    with pytest.raises(ValueError, match="^15 blocks .* budget of 10"):
        decompose("mp", 4, 3, 1)
    with pytest.raises(ValueError, match="^at least 12 blocks .* budget of 10"):
        decompose("su", 9, 3, 1)
    with pytest.raises(ValueError, match="^at least 12 blocks .* budget of 10"):
        decompose("su", 9, 5, 1)  # 23 shapes; those of at most 3 rows already pass


def test_su_admission_stops_counting_at_the_budget():
    """At n = t = 10^5 the partitions into at most 2 parts, n/2 + 1 of them,
    already pass the 40 blocks of 10^5 label entries that MAX_LABEL_ENTRIES
    allows, so the refusal comes after two part sizes, not 10^5.  At
    n = 20 000 001, t = 3 that count passes MAX_BLOCKS, and it is named
    without a table of n counts."""
    for n, t, match in [(100_000, 100_000, "^at least 50001 blocks of 100000 label entries"),
                        (20_000_001, 3, "^at least 10000001 blocks exceed the enumeration")]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            decompose("su", n, t, 1)
        assert time.perf_counter() - start < 1.0


def test_decompose_label_entry_budget(monkeypatch):
    """Every label holds t entries, so blocks * t is bounded too."""
    with pytest.raises(ValueError, match="980700 blocks of 1400 label entries each"):
        rep_core._check_block_budget(weight_count(2, 1400), 1400)  # under MAX_BLOCKS
    with pytest.raises(ValueError, match="2001 blocks of 2001 label entries .* of 4000000"):
        decompose("mp", 1, 2001, 1)  # one past one qudit at t = 2000
    monkeypatch.setattr(rep_core, "MAX_LABEL_ENTRIES", 30)
    assert len(decompose("mp", 3, 3, 1).rows) == 10  # 30 entries, at the budget
    with pytest.raises(ValueError, match="6 blocks of 6 label entries .* budget of 30"):
        decompose("mp", 1, 6, 1)
    with pytest.raises(ValueError, match="^at least 12 blocks of 3 label entries"):
        decompose("su", 9, 3, 1)


# ---------------------------------------------------------------- raw rows

@pytest.mark.parametrize("model", ["mp", "su"])
@pytest.mark.parametrize("n,t", [(1, 2), (5, 2), (6, 3), (7, 4), (5, 5)])
# an explicit id: UNBOUNDED, which is None, would rename these tests to "None"
@pytest.mark.parametrize("l", [1, 2, pytest.param(UNBOUNDED, id="l2")])
def test_rows_match_slow_references(model, n, t, l):
    rows = decompose(model, n, t, l).rows
    assert all(type(row) is tuple and len(row) == t + 3 for row in rows)
    labels = [row[:t] for row in rows]
    assert labels == sorted(labels, reverse=True)
    if model == "mp":
        assert set(labels) == brute_weights(n, t)
        for label, row in zip(labels, rows):
            assert row[t:] == (1, factorial_multinomial(label), 1)
        return
    assert set(labels) == brute_partitions(n, t)
    for label, (dim, mult, eff) in zip(labels, map(itemgetter(slice(t, None)), rows)):
        assert dim == ssyt_count(label, t)
        assert mult == hook_length_count(label)
        assert eff == (dim if l is UNBOUNDED else min(l * mult, dim))


@pytest.mark.parametrize("model", ["mp", "su"])
@pytest.mark.parametrize("l", [1, 3, pytest.param(UNBOUNDED, id="l2")])  # the id, as above
def test_entries_wrap_the_rows(model, l):
    d = decompose(model, 9, 3, l)
    assert [(*e.label, e.dim, e.mult, e.eff_mult) for e in d.entries] == list(d.rows)
    assert all(len(e.label) == 3 for e in d.entries)
    assert all(type(e) is IrrepEntry for e in d.entries)


@pytest.mark.parametrize("rows,message", [
    ([(2, -1, 1, 1, 1)], "negative entry"),
    ([(1, 2, 1, 1, 1)], "non-increasing"),
    ([(2, 0, 3, 1, 3), (2, 0, 3, 1, 3)], "duplicate"),
    ([(2, 0, 0, 1, 1)], "positive"),
    ([(2, 0, 3, 0, 1)], "positive"),
    ([(2, 0, 3, 1, 4)], "eff_mult 4 outside"),
    ([(2, 0, 3, 1, 0)], "eff_mult 0 outside"),
    ([(2, 0, 3, 1, 3)], "do not fill"),
])
def test_decomposition_applies_every_block_check_to_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        check_rows("su", 2, 2, rows)


@pytest.mark.parametrize("model,rows,message", [
    ("su", [(2, 0, 0, 3, 1, 3), (1, 1, 1, 1, 1)],
     r"label \(2, 0, 0\) has 3 entries, expected t = 2"),
    ("mp", [(2, 1, 4, 1)], r"label \(2,\) has 1 entries, expected t = 2"),
    ("su", [(1, 4, 1)], r"label \(\) has 0 entries, expected t = 2"),
    ("mp", [(1, 1, 1), (2, 1, 1)], r"label \(\) has 0 entries, expected t = 2"),
    ("mp", [(5, 0, 1, 2, 1), (0, 7, 1, 2, 1)], r"label \(5, 0\) sums to 5, expected n = 2"),
    ("su", [(2, 0, 3, 1, 3), (1, 0, 1, 1, 1)], r"label \(1, 0\) sums to 1, expected n = 2"),
], ids=["longer", "shorter", "empty", "empty-twice", "mp-sum", "su-sum"])
def test_decomposition_checks_labels_against_n_and_t(model, rows, message):
    """Every label has t entries summing to n: a label of another length,
    the empty one included, or of another sum is refused, naming it.  The
    lengths come before the duplicates: two short rows share the label ()."""
    with pytest.raises(ValueError, match=message):
        check_rows(model, 2, 2, rows)


def test_decomposition_rows_in_any_order():
    """The rules hold for rows in any order, and a record keeps its rows as
    given."""
    rows = ((1, 1, 1, 1, 1), (2, 0, 3, 1, 3))  # ascending labels fill the space too
    check_rows("su", 2, 2, rows)
    assert Decomposition("su", 2, 2, 1, rows).rows is rows


def test_decomposition_is_a_read_only_record():
    """Fields cannot be reassigned, and decompositions with equal fields
    compare equal."""
    d = decompose("su", 4, 3, 2)
    with pytest.raises(AttributeError):
        d.rows = ()
    rebuilt = Decomposition(d.model, d.n, d.t, d.l, d.rows)
    assert rebuilt == d and rebuilt is not d
    assert d != decompose("su", 4, 3, 1)


def test_decomposition_keeps_mp_blocks_one_dimensional():
    rows = [(2, 0, 2, 1, 1), (1, 1, 1, 2, 1)]
    with pytest.raises(ValueError, match="one-dimensional"):
        check_rows("mp", 2, 2, rows)


def test_multiplicity_su_takes_partition_rows():
    """A shape's tableau count does not depend on its zero rows: (3, 2) has
    5 at every t."""
    for t in (2, 3, 9):
        assert walk_rows(5, t)[(3, 2) + (0,) * (t - 2)][1] == 5


MULTIPLICITY_GRID = {t: range(13) for t in range(2, 9)} | {40: (1, 2, 5, 9, 14),
                                                          1000: (1, 2, 3, 7, 20)}


@pytest.mark.parametrize("t", sorted(MULTIPLICITY_GRID))
def test_multiplicity_su_matches_hook_lengths_on_a_grid(t):
    """The walk's f = d M / Q is the hook-length count of every shape,
    whether the walk ends it by telescoping its zero rows or in its
    last-two-rows loop."""
    for n in MULTIPLICITY_GRID[t]:
        for rows, _, f, _ in walk(n, t):
            assert f == hook_length_count(rows), rows


def test_multiplicity_su_at_the_table_edges():
    """One box at t = 2000, and shapes at n = 200 with the longest and the
    shortest first rows, where the binomials of Q and M are largest and
    smallest: among all shapes at t = 2 and 3, and at t = 250 the walk's
    first shape, one row; its last, one column, at n = 30."""
    assert list(rep_core._shape_rows(1, 2000)) == [(1,) + (0,) * 1999 + (2000, 1, 2000)]
    for t in (2, 3):
        walked = walk_rows(200, t)
        for shape in [(200,), (100, 100), (67, 67, 66)]:
            if len(shape) <= t:
                rows = shape + (0,) * (t - len(shape))
                assert walked[rows][1] == hook_length_count(rows), (t, shape)
    assert next(rep_core._shape_rows(200, 250)) == \
        (200,) + (0,) * 249 + (comb(449, 200), 1, comb(449, 200))
    *_, last = rep_core._shape_rows(30, 250)
    assert last == (1,) * 30 + (0,) * 220 + (comb(250, 30), 1, comb(250, 30))


def test_two_row_tableau_counts_at_large_n():
    """f of (n-k, k) is the ballot number C(n, k) - C(n, k-1), here at the
    largest n whose su report is written.  The peak k is where the ratio
    f(k+1) / f(k) = (n-k+1)(n-2k-1) / ((k+1)(n-2k+1)) falls below 1."""
    n = 14298
    shapes = walk(n, 2)  # (n-k, k) comes k-th
    peak = next(k for k in range(n // 2) if (n - k + 1) * (n - 2 * k - 1) < (k + 1) * (n - 2 * k + 1))
    for k in (1, 2, 100, peak - 1, peak, peak + 1, n // 2 - 1, n // 2):
        rows, _, f, _ = shapes[k]
        assert (rows, f) == ((n - k, k), comb(n, k) - comb(n, k - 1)), k
    f = [shapes[k][2] for k in (peak - 1, peak, peak + 1)]
    assert f[0] < f[1] > f[2]


def test_multiplicity_su_guards_a_wrong_dimension():
    """A dimension for which d M / Q is not an integer is caught by the
    remainder: M = 3 and Q = 12 for the shape (2, 1, 0)."""
    assert multiplicity_su((2, 1, 0), 3, 8, (3, 12)) == 2
    with pytest.raises(ArithmeticError, match="non-integer tableau count"):
        multiplicity_su((2, 1, 0), 3, 7, (3, 12))


# ---------------------------------------------------------------- shape walk

# At t = 1000 the pairwise Weyl products of the 627 shapes of n = 20 take
# 25 s; there the first shape's dimension is held to a closed form, and every
# tableau count to its hook lengths (above).
WALK_GRID = {t: range(41) for t in range(2, 9)} | {12: range(9), 40: (3, 11, 17),
                                                  1000: (1, 2, 7)}


@pytest.mark.parametrize("t", sorted(WALK_GRID))
def test_shape_walk_matches_the_per_shape_api(t):
    """The walk gives every shape's rows, Weyl dimension and tableau count
    as the per-shape references partition_rows, pairwise_weyl_dim and
    hook_length_count do, entry for entry and in order; t > n gives labels
    that end in zero rows."""
    for n in WALK_GRID[t]:
        want = [rows + (pairwise_weyl_dim(rows), hook_length_count(rows), pairwise_weyl_dim(rows))
                for rows in partition_rows(n, t)]
        assert list(rep_core._shape_rows(n, t)) == want, n


@pytest.mark.parametrize("t", [2, 3, 4, 6, 9])
def test_shape_walk_matches_brute_references(t):
    """Each dimension is the pairwise Weyl product and each count the
    hook-length count, neither of which the walk uses."""
    for n in range(12):
        for rows, dim, f, _ in walk(n, t):
            assert (dim, f) == (pairwise_weyl_dim(rows), hook_length_count(rows)), rows


def test_shape_walk_counts_tableaux_through_multiplicity_su(monkeypatch):
    """Every f of the walk is one multiplicity_su call given the carried
    products, in the walk's order; without tableaux the walk gives the same
    rows and dimensions and calls it not once."""
    calls = []
    count = rep_core.multiplicity_su
    monkeypatch.setattr(rep_core, "multiplicity_su",
                        lambda rows, *args: calls.append(rows) or count(rows, *args))
    for n, t in ((7, 4), (3, 9)):
        shapes = list(rep_core._shape_rows(n, t))
        assert calls == [row[:t] for row in shapes]
        calls.clear()
        assert list(rep_core._shape_rows(n, t, False)) == [row[:t + 1] for row in shapes]
        assert calls == []


def test_shape_walk_guards_a_wrong_binomial(monkeypatch):
    """Binomials one too large make Q and M wrong, and the remainder of
    f = d M / Q says so, for a shape of the last-two-rows loop (t = 3) and
    one whose zero rows telescope (t = 9), rather than a wrong count."""
    monkeypatch.setattr(rep_core, "comb", lambda a, b: comb(a, b) + 1)
    for n, t in ((6, 3), (3, 9)):
        with pytest.raises(ArithmeticError, match="non-integer tableau count"):
            list(rep_core._shape_rows(n, t))


@pytest.mark.parametrize("n,t", [(0, 2), (1, 2), (9, 2), (12, 3), (7, 4), (5, 6), (1, 2000)])
def test_weight_runs_are_the_walk_by_its_last_two_levels(n, t):
    """Each run is one occupation vector (prefix, r) of the walk over t-1
    levels, in its order, with the multinomials of its blocks prefix + (a, r-a),
    a = r .. 0: its own multinomial times the binomial row C(r, .), by
    factorials.  Together the runs are the walk over t levels."""
    runs = list(rep_core._weight_runs(n, t))
    assert [prefix + (r,) for prefix, r, _ in runs] == \
        [counts for counts, _, _ in rep_core._weight_walk(n, t - 1)]
    for prefix, r, mults in runs:
        assert list(mults) == [factorial_multinomial(prefix + (r,)) * comb(r, a)
                               for a in range(r, -1, -1)]
        if factorial_multinomial(prefix + (r,)) > 1:  # made for half the row, then mirrored
            assert all(mults[a] is mults[r - a] for a in range(r + 1))
    assert [prefix + (a, r - a) for prefix, r, _ in runs for a in range(r, -1, -1)] == \
        [counts for counts, _, _ in rep_core._weight_walk(n, t)]


def test_row_generators_reach_large_t():
    """Iterative, so t far past the recursion limit works."""
    t = 1100
    assert sum(1 for _ in rep_core._weight_rows(1, t)) == weight_count(1, t) == t
    assert len(decompose("mp", 1, t, 1).rows) == t
    for n in (3, 10):
        assert sum(1 for _ in rep_core._shape_rows(n, t)) == partition_count(n, t)
    assert len(decompose("su", 3, t, 1).rows) == partition_count(3, t) == 3


def test_multinomials_stay_exact_when_huge():
    mults = [mult for *_, mult, _ in decompose("mp", 60, 2, 1).rows]
    assert mults == [comb(60, k) for k in range(61)]  # far past float precision
