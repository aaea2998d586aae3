import itertools
import json
from functools import lru_cache
from math import comb, factorial

import pytest

from metrocap import rep_core
from metrocap.rep_core import (
    UNBOUNDED,
    Decomposition,
    IrrepEntry,
    Model,
    Partition,
    WeightVector,
    decompose,
    enumerate_partitions,
    enumerate_weights,
    multiplicity_mp,
    multiplicity_su,
    partition_count,
    weight_count,
    weyl_dimension,
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


def count_ssyt(rows, t):
    """Semistandard fillings with entries 1..t: rows weakly increase, columns
    strictly increase."""
    shape = [r for r in rows if r > 0]
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    filling = {}

    def rec(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, filling[(i, j - 1)])
        if i > 0:
            lo = max(lo, filling[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, t + 1):
            filling[(i, j)] = v
            total += rec(k + 1)
        filling.pop((i, j), None)
        return total

    return rec(0)


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

def test_partition_validation():
    assert Partition((3, 1, 0)).n == 4
    assert Partition((3, 1, 0)).t == 3
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition(())


def test_partition_padded():
    assert Partition((2, 1)).padded(4) == (2, 1, 0, 0)
    assert Partition((2, 1, 0, 0)).padded(2) == (2, 1)
    with pytest.raises(ValueError):
        Partition((2, 1, 1)).padded(2)


def test_weight_vector_validation():
    assert WeightVector((1, 0, 2)).n == 3
    with pytest.raises(ValueError):
        WeightVector((1, -1))


def test_irrep_entry_bounds():
    lam = Partition((2, 0))
    IrrepEntry(lam, 3, 1, 3)
    with pytest.raises(ValueError):
        IrrepEntry(lam, 3, 1, 4)  # eff above dim
    with pytest.raises(ValueError):
        IrrepEntry(lam, 3, 1, 0)
    with pytest.raises(ValueError):
        IrrepEntry(lam, 0, 1, 1)


def test_decomposition_rejects_incomplete():
    lam = Partition((2, 0))
    with pytest.raises(ValueError):
        Decomposition(Model.SPECIAL_UNITARY, 2, 2, 1, (IrrepEntry(lam, 3, 1, 3),))
    with pytest.raises(ValueError):
        Decomposition(
            Model.SPECIAL_UNITARY,
            2,
            2,
            1,
            (IrrepEntry(lam, 3, 1, 3), IrrepEntry(lam, 1, 1, 1)),
        )  # duplicate labels


# ---------------------------------------------------------------- enumeration

def test_enumerate_partitions_small():
    assert [p.rows for p in enumerate_partitions(2, 2)] == [(2, 0), (1, 1)]
    assert [p.rows for p in enumerate_partitions(4, 3)] == [
        (4, 0, 0),
        (3, 1, 0),
        (2, 2, 0),
        (2, 1, 1),
    ]
    assert [p.rows for p in enumerate_partitions(0, 3)] == [(0, 0, 0)]


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 5, 9, 12])
def test_enumerate_partitions_brute(n, t):
    got = [p.rows for p in enumerate_partitions(n, t)]
    assert set(got) == brute_partitions(n, t)
    assert got == sorted(got, reverse=True)  # lexicographically descending
    assert len(got) == len(set(got))


def test_partition_count_bound_sweep():
    for t in range(1, 5):
        for n in range(51):
            assert len(enumerate_partitions(n, t)) == partition_count(n, t)


def test_enumerate_weights_small():
    assert [w.counts for w in enumerate_weights(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert len(enumerate_weights(4, 2)) == 5
    assert len(enumerate_weights(2, 3)) == 6
    assert [w.counts for w in enumerate_weights(0, 3)] == [(0, 0, 0)]


@pytest.mark.parametrize("n,t", [(4, 2), (3, 3), (5, 3), (2, 4)])
def test_enumerate_weights_brute(n, t):
    got = [w.counts for w in enumerate_weights(n, t)]
    assert set(got) == brute_weights(n, t)
    assert len(got) == weight_count(n, t) == comb(n + t - 1, t - 1)
    assert got == sorted(got, reverse=True)


def test_enumeration_input_validation():
    with pytest.raises(ValueError):
        enumerate_partitions(-1, 2)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 0)
    with pytest.raises(ValueError):
        enumerate_weights(3, 0)


# ---------------------------------------------------------------- dimensions

def test_weyl_dimension_known():
    assert weyl_dimension(Partition((1, 1)), 2) == 1
    assert weyl_dimension(Partition((2, 0)), 2) == 3
    assert weyl_dimension(Partition((2, 1, 0)), 3) == 8
    for n in (1, 4, 17):
        assert weyl_dimension(Partition((n, 0)), 2) == n + 1


def test_weyl_dimension_vs_ssyt():
    for t in range(2, 5):
        for n in range(9):
            for lam in enumerate_partitions(n, t):
                assert weyl_dimension(lam, t) == count_ssyt(lam.rows, t)


def test_weyl_dimension_bound():
    # d_lam <= (n+1)^(t(t-1)/2)
    for t in range(2, 5):
        for n in range(13):
            cap = (n + 1) ** (t * (t - 1) // 2)
            for lam in enumerate_partitions(n, t):
                assert weyl_dimension(lam, t) <= cap


def test_multiplicity_su_known():
    assert multiplicity_su(Partition((5, 0)), 5) == 1
    assert multiplicity_su(Partition((1, 1)), 2) == 1
    assert multiplicity_su(Partition((2, 1)), 3) == 2
    with pytest.raises(ValueError):
        multiplicity_su(Partition((2, 1)), 4)


def test_multiplicity_su_vs_syt():
    for n in range(1, 9):
        for lam in enumerate_partitions(n, n):
            assert multiplicity_su(lam, n) == count_syt(lam.rows)


def test_multiplicity_mp_known():
    assert multiplicity_mp(WeightVector((4, 0))) == 1
    assert multiplicity_mp(WeightVector((2, 2))) == 6
    assert multiplicity_mp(WeightVector((1, 1, 1))) == 6


@pytest.mark.parametrize("n,t", [(4, 2), (5, 2), (4, 3)])
def test_multiplicity_mp_brute(n, t):
    strings = list(itertools.product(range(t), repeat=n))
    for w in enumerate_weights(n, t):
        hits = sum(
            1
            for s in strings
            if all(s.count(level) == w.counts[level] for level in range(t))
        )
        assert multiplicity_mp(w) == hits


# ---------------------------------------------------------------- decompose

def test_decompose_su_example():
    d = decompose("su", 2, 2, UNBOUNDED)
    table = {e.label.rows: (e.dim, e.mult, e.eff_mult) for e in d.entries}
    assert table == {(2, 0): (3, 1, 3), (1, 1): (1, 1, 1)}


def test_decompose_mp_example():
    d = decompose("mp", 3, 2, 1)
    assert len(d.entries) == 4
    assert all(e.dim == 1 and e.eff_mult == 1 for e in d.entries)
    assert sorted(e.mult for e in d.entries) == [1, 1, 3, 3]


def test_decompose_su_finite_reference():
    d = decompose(Model.SPECIAL_UNITARY, 3, 2, 1)
    table = {e.label.rows: e for e in d.entries}
    assert (table[(2, 1)].dim, table[(2, 1)].mult, table[(2, 1)].eff_mult) == (2, 2, 2)
    assert table[(3, 0)].eff_mult == 1  # min(1*1, 4)
    d2 = decompose("su", 4, 2, 2)
    table2 = {e.label.rows: e for e in d2.entries}
    assert table2[(3, 1)].eff_mult == 3  # min(2*3, 3) saturates
    assert table2[(2, 2)].eff_mult == 1  # min(2*2, 1)


@pytest.mark.parametrize("model", ["mp", "su"])
@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_decompose_completeness(model, n, t):
    d = decompose(model, n, t, 1)
    if model == "mp":
        assert sum(e.mult for e in d.entries) == t**n
    else:
        assert sum(e.dim * e.mult for e in d.entries) == t**n


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
    with pytest.raises(ValueError, match=f"{partition_count(1000, 6)} blocks .* of 1000000"):
        decompose("su", 1000, 6, 1)
    monkeypatch.setattr(rep_core, "MAX_BLOCKS", 10)
    assert len(decompose("mp", 3, 3, 1).entries) == 10  # C(5, 2), at the budget
    assert len(decompose("su", 8, 3, 1).entries) == 10  # p(8, <= 3 parts)
    with pytest.raises(ValueError, match="15 blocks .* budget of 10"):
        decompose("mp", 4, 3, 1)
    with pytest.raises(ValueError, match="12 blocks .* budget of 10"):
        decompose("su", 9, 3, 1)


# ---------------------------------------------------------------- json

def test_decomposition_json_round_trip():
    d = decompose("su", 3, 2, UNBOUNDED)
    payload = json.loads(d.to_json())
    assert payload["model"] == "su"
    assert payload["l"] == "inf"
    assert payload["entries"][0] == {
        "label": [3, 0],
        "dim": "4",
        "mult": "1",
        "eff_mult": "4",
    }
    assert all(isinstance(e["dim"], str) for e in payload["entries"])

    d2 = decompose("mp", 2, 2, 3)
    assert json.loads(d2.to_json())["l"] == 3


def test_json_dims_stay_exact_when_huge():
    d = decompose("mp", 60, 2, 1)
    payload = d.to_json_dict()
    mults = [int(e["mult"]) for e in payload["entries"]]
    assert max(mults) == comb(60, 30)  # far past float precision
