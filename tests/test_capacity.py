import json
import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrocap import capacity as capacity_module
from metrocap import rep_core
from metrocap.capacity import (
    block_capacity,
    capacity,
    capacity_support,
    scaling_fit,
    su_square_sum,
)
from metrocap.cli import RunConfig, _build_scaling, main
from metrocap.rep_core import (
    MAX_BLOCKS,
    UNBOUNDED,
    Decomposition,
    _shape_rows,
    decompose,
    partition_count,
)
from reference import (
    block_state_mi,
    enumerated_square_sum,
    fano_bound,
    gapped_partitions,
    hook_length_count,
    log_fraction,
    orbit_rank,
    pairwise_weyl_dim,
    partition_rows,
    su_lower_bound,
)


def scaling_capacity(model, n, t):
    """The capacity of a scaling row: log capacity_support at l = 1 for mp,
    unbounded for su."""
    return math.log(capacity_support(model, n, t, 1 if model == "mp" else UNBOUNDED))


# ---------------------------------------------------------------- exact logs

def test_log_integer_small():
    """math.log, which every capacity is taken with, reads a small int as its
    float and refuses 0 and negative ints."""
    assert math.log(1) == 0.0
    assert math.log(10) == math.log(10.0)
    with pytest.raises(ValueError):
        math.log(0)
    with pytest.raises(ValueError):
        math.log(-3)


def test_log_integer_huge():
    """math.log reads an int past float range without converting it, which
    the capacity module's exactness rests on."""
    # way past float overflow; relative error must stay ~1e-15
    m = 10**400
    assert abs(math.log(m) - 400 * math.log(10)) < 1e-12 * math.log(m)
    m = 7**5000
    assert abs(math.log(m) - 5000 * math.log(7)) < 1e-12 * math.log(m)


def test_log_fraction():
    assert log_fraction(Fraction(1, 1)) == 0.0
    assert abs(log_fraction(Fraction(3, 4)) - math.log(0.75)) < 1e-15
    with pytest.raises(ValueError):
        log_fraction(Fraction(0))
    with pytest.raises(ValueError):
        log_fraction(Fraction(-1, 2))


# ---------------------------------------------------------------- capacity

def test_capacity_known_values():
    r = capacity(decompose("su", 2, 2, UNBOUNDED))
    assert r.value == math.log(10)
    assert r.support == 10
    assert capacity(decompose("mp", 3, 2, 1)).value == math.log(4)


def optimal_p(report):
    """The report's block distribution as exact fractions keyed by label."""
    return {row[:-2]: Fraction(*row[-2:]) for row in report.p_rows}


def test_capacity_single_trivial_block_is_zero():
    trivial = Decomposition("mp", 0, 2, 1, ((0, 0, 1, 1, 1),))
    assert capacity(trivial).value == 0.0


def test_capacity_optimal_p_exact():
    r = capacity(decompose("su", 2, 2, UNBOUNDED))
    assert r.p_rows == ((2, 0, 9, 10), (1, 1, 1, 10))
    assert sum(optimal_p(r).values()) == 1
    # weights 16 and 4 of 20: each p reduced by its own gcd, 4 and 4
    assert capacity(decompose("su", 3, 2, UNBOUNDED)).p_rows == ((3, 0, 4, 5), (2, 1, 1, 5))
    assert block_capacity(3, 2, UNBOUNDED).p_rows == ((3, 0, 4, 5), (2, 1, 1, 5))


@pytest.mark.parametrize("model,t", [("mp", 2), ("mp", 3), ("su", 2), ("su", 3)])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_capacity_matches_closed_paths(model, n, t):
    l = 1 if model == "mp" else UNBOUNDED
    assert scaling_capacity(model, n, t) == capacity(decompose(model, n, t, l)).value


@pytest.mark.parametrize("model,t", [("mp", 2), ("mp", 3), ("su", 2), ("su", 3), ("su", 4)])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
# an explicit id: UNBOUNDED, which is None, would rename these tests to "None"
@pytest.mark.parametrize("l", [1, 2, 3, pytest.param(UNBOUNDED, id="l3")])
def test_capacity_support_matches_enumeration(model, n, t, l):
    assert capacity_support(model, n, t, l) == capacity(decompose(model, n, t, l)).support


def test_block_capacity_checks_the_walk_against_the_closed_forms(monkeypatch):
    """One wrong Weyl dimension from the shape walk moves sum d^2 off the
    Cauchy total, and sum d f off t^n in decompose; one lost weight moves
    sum mult off t^n: all raise."""
    walk = rep_core._shape_rows

    def wrong_dim(n, t, *args, **kwargs):  # the full walk and the pruned one
        for row in walk(n, t, *args, **kwargs):
            yield row[:t] + (row[t] + (row[:t] == (3, 2, 1)),) + row[t + 1:]

    for module in (capacity_module, rep_core):
        monkeypatch.setattr(module, "_shape_rows", wrong_dim)
    for l in (UNBOUNDED, 3):
        with pytest.raises(ArithmeticError, match="Cauchy total"):
            block_capacity(6, 3, l)
        with pytest.raises(ArithmeticError, match="do not fill"):
            decompose("su", 6, 3, l)
    rows = rep_core._weight_rows
    monkeypatch.setattr(rep_core, "_weight_rows", lambda n, t: list(rows(n, t))[1:])
    with pytest.raises(ArithmeticError, match="do not fill"):
        decompose("mp", 6, 3, 1)


# t -> the sizes n of the block-capacity grid
BLOCK_CAPACITY_GRID = {2: range(1, 15), 3: range(1, 15), 4: range(1, 11), 5: range(1, 9)}


@pytest.mark.parametrize("t", sorted(BLOCK_CAPACITY_GRID))
def test_block_capacity_matches_capacity_of_decompose(t):
    """block_capacity, which merges the unsaturated shapes of the pruned walk
    into the full walk, gives capacity(decompose(...)) at every n of the grid
    and l = 1, 2, 3, inf; the grid holds exactly saturated shapes (l f = d),
    whose weight is d^2 = d l f either way, and shapes on both sides of them."""
    exact = 0
    for n in BLOCK_CAPACITY_GRID[t]:
        for l in (1, 2, 3, UNBOUNDED):
            d = decompose("su", n, t, l)
            assert block_capacity(n, t, l) == capacity(d), (n, t, l)
            if l is not UNBOUNDED:
                exact += sum(l * mult == dim for *_, dim, mult, _ in d.rows)
    assert exact


def test_capacity_json_takes_tableau_counts_only_for_unsaturated_shapes(capsys, monkeypatch):
    """At su n = 60, t = 5, l = 4 the JSON capacity report calls
    multiplicity_su no more often than the CSV one, whose support walks only
    the unsaturated shapes: far fewer than the 7 166 shapes it weighs."""
    calls = []
    count = rep_core.multiplicity_su

    def counted(*args):
        calls.append(args[0])
        return count(*args)

    monkeypatch.setattr(rep_core, "multiplicity_su", counted)
    args = ["capacity", "--model", "su", "--n", "60", "--t", "5", "--l", "4"]
    assert main(args + ["--format", "csv"]) == 0
    support_calls = len(calls)
    calls.clear()
    capsys.readouterr()
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["optimal_p"]) == partition_count(60, 5) == 7166
    assert 0 < len(calls) <= support_calls < 100


@pytest.mark.parametrize("where", ["first", "last", "dim", "twice"])
def test_block_capacity_refuses_an_unsaturated_shape_it_does_not_meet(monkeypatch, where):
    """A pruned walk that yields a shape the full walk lacks, before its
    own shapes or after them, a shape of the full walk with another
    dimension, or one shape twice, raises ArithmeticError naming the shape."""
    walk = rep_core._shape_rows
    stray = (4, 3, 0, 1, 1, 1)  # 7 boxes, no shape of n = 6

    def pruned_with_a_stray(n, t, tableaux=True, l=None, prune=False):
        rows = list(walk(n, t, tableaux, l, prune))
        if not prune:
            yield from rows
        elif where == "dim":  # (6, 0, 0) of dimension 28 comes first
            yield from [rows[0][:3] + (29,) + rows[0][4:]] + rows[1:]
        elif where == "twice":
            yield from rows[:1] + rows
        else:
            yield from [stray] + rows if where == "first" else rows + [stray]

    monkeypatch.setattr(capacity_module, "_shape_rows", pruned_with_a_stray)
    shape = {"dim": r"\(6, 0, 0\) of dimension 29",
             "twice": r"\(6, 0, 0\) of dimension 28"}.get(where, r"\(4, 3, 0\) of dimension 1")
    with pytest.raises(ArithmeticError, match=f"unsaturated shape {shape} is not among"):
        block_capacity(6, 3, 1)
    block_capacity(6, 3, UNBOUNDED)  # no pruned walk at an unbounded reference


def test_block_capacity_validates_like_decompose():
    for args in [(0, 2, 1), (3, 1, 1), (3, 2, 0)]:
        with pytest.raises(ValueError) as want:
            decompose("su", *args)
        with pytest.raises(ValueError, match=str(want.value)):
            block_capacity(*args)
    with pytest.raises(ValueError, match="MAX_BLOCKS"):
        block_capacity(2000, 4, 1)


def test_capacity_support_validates_like_decompose():
    """Both refuse the same arguments with the same messages: an n or t that
    is a bool or not an int is refused as such an l is, and a model is one
    of the tags "mp" and "su"."""
    for args in [("xx", 2, 2, 1), ("mp", 0, 2, 1), ("su", 2, 1, UNBOUNDED), ("su", 2, 2, 0),
                 ("mp", 2, 2, True), ("mp", True, 2, 1), ("mp", 3.0, 2, 1), ("su", 3, True, 1),
                 ("su", 3, 2.0, UNBOUNDED)]:
        with pytest.raises(ValueError) as want:
            decompose(*args)
        with pytest.raises(ValueError) as got:
            capacity_support(*args)
        assert str(got.value) == str(want.value)
    for args, message in [(("xx", 2, 2, 1), "unknown model tag 'xx'"),
                          (("mp", True, 2, 1), "n must be an integer, got True"),
                          (("su", 3, 2.0, UNBOUNDED), "t must be an integer, got 2.0")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            capacity_support(*args)


# t -> largest n of the finite-reference grid
DEFICIT_GRID = {2: 200, 3: 200, 4: 60, 5: 40}


@pytest.mark.parametrize("t", sorted(DEFICIT_GRID))
def test_deficit_support_matches_enumerated_blocks(t):
    """Cauchy total minus the deficit == sum dim * eff over decompose rows,
    at every n of the grid and l = 1..4."""
    for n in range(1, DEFICIT_GRID[t] + 1):
        blocks = [(dim, mult) for *_, dim, mult, _ in decompose("su", n, t, UNBOUNDED).rows]
        for l in (1, 2, 3, 4):
            want = sum(dim * min(l * mult, dim) for dim, mult in blocks)
            assert capacity_support("su", n, t, l) == want, (n, t, l)


# t -> largest n at which every shape is checked against the brute references
UNSATURATED_GRID = {2: 40, 3: 40, 4: 25, 5: 18, 6: 12, 7: 10}


@pytest.fixture
def budget_counts(monkeypatch):
    """The shape counts the pruned shape walk hands its block budget, in order."""
    counts = []
    monkeypatch.setattr(rep_core, "_check_block_budget",
                        lambda blocks, t: counts.append(blocks))
    return counts


@pytest.mark.parametrize("t", sorted(UNSATURATED_GRID))
def test_unsaturated_first_rows_are_a_run(t, budget_counts):
    """The first rows of the unsaturated shapes (l * f < d, by the brute
    hook-length count and pairwise Weyl product) are a run n, n-1, ..., c*,
    and the walk keeps exactly that run: before each kept first row c it hands
    the budget the number of shapes with first rows n..c, counted by brute
    enumeration."""
    for n in range(1, UNSATURATED_GRID[t] + 1):
        shapes = [(rows, hook_length_count(rows), pairwise_weyl_dim(rows))
                  for rows in partition_rows(n, t)]
        for l in (1, 2, 3, 4):
            firsts = {rows[0] for rows, f, d in shapes if l * f < d}
            run = range(n, n - len(firsts), -1)
            assert firsts == set(run), (n, t, l)
            want = list(accumulate(sum(1 for rows, _, _ in shapes if rows[0] == c) for c in run))
            budget_counts.clear()
            list(_shape_rows(n, t, l=l, prune=True))
            assert budget_counts == want, (n, t, l)


@pytest.mark.parametrize("t", sorted(UNSATURATED_GRID))
def test_unsaturated_walk_yields_exactly_the_unsaturated_shapes(t):
    """The pruned walk yields each shape of n with l * f < d once, by the
    brute hook-length count and pairwise Weyl product, with that d and f and
    eff = l f, in label order, and nothing else; unpruned, the same l gives
    every shape with eff = min(l f, d)."""
    for n in range(1, UNSATURATED_GRID[t] + 1):
        shapes = [(rows, hook_length_count(rows), pairwise_weyl_dim(rows))
                  for rows in partition_rows(n, t)]
        for l in (1, 2, 3, 4):
            want = [rows + (d, f, l * f) for rows, f, d in shapes if l * f < d]
            assert list(_shape_rows(n, t, l=l, prune=True)) == want, (n, t, l)
            assert list(_shape_rows(n, t, l=l)) == \
                [rows + (d, f, min(l * f, d)) for rows, f, d in shapes], (n, t, l)


def test_unsaturated_walk_visits_few_shapes(budget_counts):
    """At t = 5, n = 50 the walk counts the 27 shapes whose first rows start
    an unsaturated shape and yields the 15 unsaturated ones, of 3 765."""
    assert partition_count(50, 5) == 3765
    assert sum(1 for _ in _shape_rows(50, 5, l=1, prune=True)) == 15
    assert budget_counts[-1] == 27


def test_deficit_visits_few_shapes(budget_counts):
    """Where n is large only the longest first rows remain: at t = 3 the
    support of n = 2000 keeps first rows 2000..1998 and counts 4 of its
    334 334 shapes."""
    assert {row[0] for row in _shape_rows(2000, 3, l=1, prune=True)} == {2000, 1999, 1998}
    assert budget_counts == [1, 2, 4]
    assert partition_count(2000, 3) == 334334
    assert sum(partition_count(2000 - c, 2, c) for c in (2000, 1999, 1998)) == 4


def test_deficit_at_a_million_boxes():
    """At t = 2 only the shape (n) is unsaturated (f = 1 < d = n + 1), so
    the support is the Cauchy total C(n+3, 3) less n (n+1)."""
    n = 10**6
    start = time.perf_counter()
    assert capacity_support("su", n, 2, 1) == math.comb(n + 3, 3) - n * (n + 1)
    assert time.perf_counter() - start < 1.0


def test_a_huge_t_support_refuses_before_it_allocates():
    """At t = 10^7 a single shape of 5 boxes passes the label budget, and the
    walk refuses it without making anything of size t: a zero-padded label
    list alone would take 80 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_LABEL_ENTRIES"):
            capacity_support("su", 5, 10**7, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_wide_support_refuses_before_its_weyl_denominator():
    """At n = t = 1000 the unsaturated shapes pass the label budget, which
    is checked before the walk builds prod_{j<t} j! for shapes of t rows
    (about 8 s of products)."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="4508 blocks of 1000 label entries"):
        capacity_support("su", 1000, 1000, 1)
    assert time.perf_counter() - start < 2.0


# (n, t, l): the orbit spans t^n l at (3, 4, 2) and less at every other point
ORBIT_GRID = [(5, 2, 1), (4, 2, 3), (5, 3, 2), (6, 3, 1), (3, 4, 2), (3, 4, 5)]


@pytest.mark.parametrize("n,t,l", ORBIT_GRID)
def test_support_is_the_dimension_of_an_orbit_span(n, t, l):
    """The finite-reference su support is the rank of the orbit of a random
    input under U^(x)n (x) I_l, which needs no Weyl dimension, tableau count
    or shape."""
    assert capacity_support("su", n, t, l) == orbit_rank(n, t, l, np.random.default_rng(n * t * l))


def test_capacity_invariant_under_entry_order():
    d = decompose("su", 5, 2, UNBOUNDED)
    reversed_d = Decomposition(d.model, d.n, d.t, d.l, tuple(reversed(d.rows)))
    assert capacity(reversed_d).value == capacity(d).value
    assert capacity(reversed_d).p_rows == tuple(reversed(capacity(d).p_rows))


# ---------------------------------------------------------------- block MI

def test_block_state_mi_equals_capacity_at_optimum():
    for model, n, t, l in [
        ("mp", 4, 2, 1),
        ("mp", 3, 3, 1),
        ("su", 2, 2, UNBOUNDED),
        ("su", 5, 2, UNBOUNDED),
        ("su", 4, 3, 2),
        ("su", 6, 2, 1),
    ]:
        d = decompose(model, n, t, l)
        r = capacity(d)
        assert block_state_mi(optimal_p(r), d) == r.value  # bit-exact


def test_block_state_mi_point_mass():
    d = decompose("su", 2, 2, UNBOUNDED)
    lam = d.rows[0][:2]  # dim 3, eff 3
    assert block_state_mi({lam: Fraction(1)}, d) == math.log(9)


def test_block_state_mi_noon_support():
    d = decompose("mp", 3, 2, 1)
    extremes = [row[:2] for row in d.rows if row[-2] == 1]
    p = {label: Fraction(1, 2) for label in extremes}
    assert abs(block_state_mi(p, d) - math.log(2)) < 1e-15


def test_block_state_mi_handwritten():
    # p = (1/2, 1/2) on su n=2 blocks with l=1: H(p) + (1/2) log 3
    d = decompose("su", 2, 2, 1)
    p = {row[:2]: Fraction(1, 2) for row in d.rows}
    expected = math.log(2) + 0.5 * math.log(3)
    assert abs(block_state_mi(p, d) - expected) < 1e-15


@st.composite
def block_distributions(draw):
    """A small decomposition and an exact distribution over its blocks."""
    model = draw(st.sampled_from(["mp", "su"]))
    t = draw(st.integers(2, 3))
    n = draw(st.integers(1, 8))
    l = draw(st.sampled_from([1, 2, UNBOUNDED]))
    d = decompose(model, n, t, l)
    weights = draw(st.lists(st.integers(0, 20), min_size=len(d.rows), max_size=len(d.rows))
                   .filter(any))
    total = sum(weights)
    return d, {row[:t]: Fraction(w, total) for row, w in zip(d.rows, weights)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=block_distributions())
def test_block_state_mi_never_beats_capacity(case):
    d, p = case
    assert block_state_mi(p, d) <= capacity(d).value + 1e-12


def test_block_state_mi_validation():
    d = decompose("mp", 2, 2, 1)
    labels = [row[:2] for row in d.rows]
    with pytest.raises(ValueError):
        block_state_mi({labels[0]: Fraction(1, 2)}, d)  # unnormalized
    with pytest.raises(ValueError):
        block_state_mi({labels[0]: Fraction(3, 2), labels[1]: Fraction(-1, 2)}, d)
    with pytest.raises(ValueError):
        block_state_mi({"nope": Fraction(1)}, d)


# ---------------------------------------------------------------- closed forms

def test_mp_capacity_values():
    assert scaling_capacity("mp", 4, 2) == math.log(5)
    assert scaling_capacity("mp", 2, 3) == math.log(6)
    with pytest.raises(ValueError):
        scaling_capacity("mp", 0, 2)


def test_su_capacity_values():
    assert scaling_capacity("su", 2, 2) == math.log(10)
    assert scaling_capacity("su", 3, 2) == math.log(20)
    assert scaling_capacity("su", 2, 3) == math.log(45)
    with pytest.raises(ValueError):
        scaling_capacity("su", 0, 2)


def test_su_square_sum_needs_no_enumeration():
    """The Cauchy closed form answers where an enumeration would be refused."""
    assert partition_count(1000, 6) > MAX_BLOCKS
    assert su_square_sum(1000, 6) > 0
    with pytest.raises(ValueError):
        su_square_sum(-1, 3)
    with pytest.raises(ValueError):
        su_square_sum(5, 1)


def test_su2_closed_form_values():
    assert su_square_sum(1, 2) == 4
    assert su_square_sum(2, 2) == 10
    assert su_square_sum(12, 2) == 455


def test_su2_closed_form_single_polynomial():
    for n in range(1, 500):
        assert su_square_sum(n, 2) == (n + 1) * (n + 2) * (n + 3) // 6


def test_su2_closed_form_matches_sum():
    for n in list(range(1, 60)) + [101, 256, 999]:
        closed = (n + 1) * (n + 2) * (n + 3) // 6
        assert su_square_sum(n, 2) == closed == enumerated_square_sum(n, 2)
        assert scaling_capacity("su", n, 2) == math.log(closed)


def test_su2_asymptote_residual_examples():
    def residual(n):
        return abs(math.log(su_square_sum(n, 2)) - (3.0 * math.log(n) - math.log(6.0)))

    assert residual(10) <= 0.7
    assert residual(1000) <= 0.007
    residuals = [residual(n) for n in range(10, 200)]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))  # decreasing


# ---------------------------------------------------------------- lower bound

def test_gapped_partitions_counts():
    assert len(gapped_partitions(12, 2, 2)) == 5  # gap >= 3
    assert len(gapped_partitions(12, 2, 3)) == 6  # gap >= 2
    assert len(gapped_partitions(18, 3, 3)) == 19
    for rows in gapped_partitions(12, 2, 2):
        assert rows[0] - rows[1] >= 3


def test_gapped_partitions_validation():
    with pytest.raises(ValueError):
        gapped_partitions(12, 2, Fraction(5, 2))  # 12/5 not an integer
    with pytest.raises(ValueError):
        gapped_partitions(12, 2, 4)  # a outside [2, 3]
    with pytest.raises(ValueError):
        gapped_partitions(12, 2, 1)


def test_su_lower_bound_values():
    # log(count * (n/(a t^2))^(t(t-1)))
    assert abs(su_lower_bound(12, 2, 2) - math.log(5 * 2.25)) < 1e-12
    assert abs(su_lower_bound(12, 2, 3) - math.log(6)) < 1e-12


def test_su_lower_bound_below_capacity():
    for n, t, a in [(12, 2, 2), (12, 2, 3), (24, 2, 2), (18, 3, 3), (36, 3, 2)]:
        assert su_lower_bound(n, t, a) <= scaling_capacity("su", n, t)


def test_su_lower_bound_gap_stays_bounded():
    # same 3 log n leading term: the defect must not grow with n
    diffs = [scaling_capacity("su", n, 2) - su_lower_bound(n, 2, 2) for n in (12, 24, 48, 96)]
    assert all(d < 4.0 for d in diffs)
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))


# ---------------------------------------------------------------- misc values

def test_symmetric_subspace_mi():
    """2 log(n+1): the reference-assisted symmetric-input value at t = 2."""
    assert 2.0 * math.log(3) == math.log(9)
    assert 2.0 * math.log(2) == scaling_capacity("su", 1, 2) == math.log(4)
    assert 2.0 * math.log(5) == math.log(25)
    assert su_square_sum(4, 2) == 3 * 5 * 7 // 3  # = 35 = 5*6*7/6
    for n in range(2, 40):
        assert 2.0 * math.log(n + 1) < scaling_capacity("su", n, 2)


def test_fano_bound():
    assert fano_bound(0.0, 0.0) == math.log(2)
    assert abs(fano_bound(math.log(5), 0.5) - 2 * math.log(10)) < 1e-15
    assert fano_bound(1.0, 0.3) > fano_bound(1.0, 0.2) > fano_bound(0.9, 0.2)
    with pytest.raises(ValueError):
        fano_bound(1.0, 1.0)
    with pytest.raises(ValueError):
        fano_bound(-0.1, 0.5)


def test_standard_scaling_baseline():
    """A scaling row's baseline is (d/2) log n, d = t-1 (mp) or t^2-1 (su)."""
    for model, t, half_d in (("mp", 2, 0.5), ("su", 2, 1.5), ("mp", 4, 1.5)):
        report = _build_scaling(RunConfig("scaling", model=model, t=t, n_range=(50, 100, 25)))
        assert [baseline for _, _, baseline in report["rows"].rows] == \
            [half_d * math.log(n) for n in (50, 75, 100)]


# ---------------------------------------------------------------- slope fits

def test_scaling_fit_exact_line():
    pts = [(n, 3.0 * math.log(n)) for n in (10, 20, 40, 80)]
    assert abs(scaling_fit(pts) - 3.0) < 1e-12
    pts = [(n, 2.5 * math.log(n) + 1.0) for n in (5, 9, 33)]
    assert abs(scaling_fit(pts) - 2.5) < 1e-12


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        scaling_fit([(10, 1.0), (20, 2.0)])
    with pytest.raises(ValueError, match=r"^n values share the float log n = 2\.302585092994046, "
                                         "so no slope against log n can be fitted$"):
        scaling_fit([(10, 1.0), (10, 2.0), (20, 3.0)])


def test_scaling_fit_model_slopes():
    pts = [(n, scaling_capacity("mp", n, 3)) for n in range(100, 1001, 50)]
    assert 1.9 <= scaling_fit(pts) <= 2.1
    pts = [(n, scaling_capacity("su", n, 2)) for n in range(100, 1001, 50)]
    assert 2.9 <= scaling_fit(pts) <= 3.1
