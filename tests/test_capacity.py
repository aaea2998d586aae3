import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from metrocap.capacity import (
    block_state_mi,
    capacity,
    fano_bound,
    gapped_partitions,
    log_fraction,
    log_integer,
    mp_capacity,
    optimal_input,
    scaling_fit,
    standard_scaling_baseline,
    su2_asymptote_residual,
    su2_closed_form,
    su_capacity,
    su_lower_bound,
    su_square_sum,
    symmetric_subspace_mi,
)
from metrocap.rep_core import UNBOUNDED, Decomposition, decompose


# ---------------------------------------------------------------- exact logs

def test_log_integer_small():
    assert log_integer(1) == 0.0
    assert log_integer(10) == math.log(10)
    with pytest.raises(ValueError):
        log_integer(0)
    with pytest.raises(ValueError):
        log_integer(-3)


def test_log_integer_huge():
    # way past float overflow; relative error must stay ~1e-15
    m = 10**400
    assert abs(log_integer(m) - 400 * math.log(10)) < 1e-12 * log_integer(m)
    m = 7**5000
    assert abs(log_integer(m) - 5000 * math.log(7)) < 1e-12 * log_integer(m)


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
    assert r.log_base == "e"
    assert capacity(decompose("mp", 3, 2, 1)).value == math.log(4)


def test_capacity_single_trivial_block_is_zero():
    from metrocap.rep_core import IrrepEntry, Model, WeightVector

    trivial = Decomposition(
        Model.MULTI_PHASE, 0, 2, 1, (IrrepEntry(WeightVector((0, 0)), 1, 1, 1),)
    )
    assert capacity(trivial).value == 0.0


def test_capacity_optimal_p_exact():
    r = capacity(decompose("su", 2, 2, UNBOUNDED))
    p = {label.rows: frac for label, frac in r.optimal_p.items()}
    assert p == {(2, 0): Fraction(9, 10), (1, 1): Fraction(1, 10)}
    assert sum(r.optimal_p.values()) == 1


@pytest.mark.parametrize("model,t", [("mp", 2), ("mp", 3), ("su", 2), ("su", 3)])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_capacity_matches_closed_paths(model, n, t):
    if model == "mp":
        assert mp_capacity(n, t) == capacity(decompose("mp", n, t, 1)).value
    else:
        assert su_capacity(n, t) == capacity(decompose("su", n, t, UNBOUNDED)).value


def test_capacity_invariant_under_entry_order():
    d = decompose("su", 5, 2, UNBOUNDED)
    reversed_d = Decomposition(d.model, d.n, d.t, d.l, tuple(reversed(d.entries)))
    assert capacity(reversed_d).value == capacity(d).value
    assert capacity(reversed_d).optimal_p == capacity(d).optimal_p


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
        assert block_state_mi(r.optimal_p, d) == r.value  # bit-exact


def test_block_state_mi_point_mass():
    d = decompose("su", 2, 2, UNBOUNDED)
    lam = d.entries[0].label  # dim 3, eff 3
    assert block_state_mi({lam: Fraction(1)}, d) == math.log(9)


def test_block_state_mi_noon_support():
    d = decompose("mp", 3, 2, 1)
    extremes = [e.label for e in d.entries if e.mult == 1]
    p = {label: Fraction(1, 2) for label in extremes}
    assert abs(block_state_mi(p, d) - math.log(2)) < 1e-15


def test_block_state_mi_handwritten():
    # p = (1/2, 1/2) on su n=2 blocks with l=1: H(p) + (1/2) log 3
    d = decompose("su", 2, 2, 1)
    p = {e.label: Fraction(1, 2) for e in d.entries}
    expected = math.log(2) + 0.5 * math.log(3)
    assert abs(block_state_mi(p, d) - expected) < 1e-15


def test_block_state_mi_never_beats_capacity():
    rng = np.random.default_rng(20240814)
    for model, n, t, l in [("mp", 5, 2, 1), ("su", 4, 2, UNBOUNDED), ("su", 3, 3, 1)]:
        d = decompose(model, n, t, l)
        r = capacity(d)
        labels = [e.label for e in d.entries]
        for _ in range(100):
            raw = rng.dirichlet(np.ones(len(labels)))
            p = {label: float(x) for label, x in zip(labels, raw)}
            assert block_state_mi(p, d) <= r.value + 1e-12


def test_block_state_mi_validation():
    d = decompose("mp", 2, 2, 1)
    labels = [e.label for e in d.entries]
    with pytest.raises(ValueError):
        block_state_mi({labels[0]: Fraction(1, 2)}, d)  # unnormalized
    with pytest.raises(ValueError):
        block_state_mi({labels[0]: Fraction(3, 2), labels[1]: Fraction(-1, 2)}, d)
    with pytest.raises(ValueError):
        block_state_mi({"nope": Fraction(1)}, d)


def test_optimal_input_spec():
    d = decompose("su", 2, 2, UNBOUNDED)
    spec = optimal_input(d)
    assert sum(spec.weights.values()) == 1
    assert spec.weights[d.entries[0].label] == Fraction(9, 10)
    assert "entangled" in spec.blocks[d.entries[0].label]
    assert abs(spec.amplitude(d.entries[0].label) - math.sqrt(0.9)) < 1e-15

    dm = decompose("mp", 3, 2, 1)
    sm = optimal_input(dm)
    assert all(w == Fraction(1, 4) for w in sm.weights.values())


# ---------------------------------------------------------------- closed forms

def test_mp_capacity_values():
    assert mp_capacity(4, 2) == math.log(5)
    assert mp_capacity(2, 3) == math.log(6)
    assert mp_capacity(0, 2) == 0.0
    with pytest.raises(ValueError):
        mp_capacity(-1, 2)


def test_su_capacity_values():
    assert su_capacity(2, 2) == math.log(10)
    assert su_capacity(3, 2) == math.log(20)
    assert su_capacity(2, 3) == math.log(45)
    with pytest.raises(ValueError):
        su_capacity(0, 2)


def test_su2_closed_form_values():
    assert su2_closed_form(1) == 4
    assert su2_closed_form(2) == 10
    assert su2_closed_form(12) == 455
    with pytest.raises(ValueError):
        su2_closed_form(0)


def test_su2_closed_form_single_polynomial():
    for n in range(1, 500):
        assert su2_closed_form(n) == (n + 1) * (n + 2) * (n + 3) // 6


def test_su2_closed_form_matches_sum():
    for n in list(range(1, 60)) + [101, 256, 999]:
        assert su_square_sum(n, 2) == su2_closed_form(n)
        assert su_capacity(n, 2) == log_integer(su2_closed_form(n))


def test_su2_asymptote_residual_examples():
    assert su2_asymptote_residual(10) <= 0.7
    assert su2_asymptote_residual(1000) <= 0.007
    residuals = [su2_asymptote_residual(n) for n in range(10, 200)]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))  # decreasing


# ---------------------------------------------------------------- lower bound

def test_gapped_partitions_counts():
    assert len(gapped_partitions(12, 2, 2)) == 5  # gap >= 3
    assert len(gapped_partitions(12, 2, 3)) == 6  # gap >= 2
    assert len(gapped_partitions(18, 3, 3)) == 19
    for lam in gapped_partitions(12, 2, 2):
        assert lam.rows[0] - lam.rows[1] >= 3


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
        assert su_lower_bound(n, t, a) <= su_capacity(n, t)


def test_su_lower_bound_gap_stays_bounded():
    # same 3 log n leading term: the defect must not grow with n
    diffs = [su_capacity(n, 2) - su_lower_bound(n, 2, 2) for n in (12, 24, 48, 96)]
    assert all(d < 4.0 for d in diffs)
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))


# ---------------------------------------------------------------- misc values

def test_symmetric_subspace_mi():
    assert symmetric_subspace_mi(2, 2) == math.log(9)
    assert symmetric_subspace_mi(1, 2) == su_capacity(1, 2) == math.log(4)
    assert symmetric_subspace_mi(4, 2) == math.log(25)
    assert su2_closed_form(4) == 3 * 5 * 7 // 3  # = 35 = 5*6*7/6
    for n in range(2, 40):
        assert symmetric_subspace_mi(n, 2) < su_capacity(n, 2)


def test_fano_bound():
    assert fano_bound(0.0, 0.0) == math.log(2)
    assert abs(fano_bound(math.log(5), 0.5) - 2 * math.log(10)) < 1e-15
    assert fano_bound(1.0, 0.3) > fano_bound(1.0, 0.2) > fano_bound(0.9, 0.2)
    with pytest.raises(ValueError):
        fano_bound(1.0, 1.0)
    with pytest.raises(ValueError):
        fano_bound(-0.1, 0.5)


def test_standard_scaling_baseline():
    assert standard_scaling_baseline("mp", 100, 2) == 0.5 * math.log(100)
    assert standard_scaling_baseline("su", 100, 2) == 1.5 * math.log(100)
    assert standard_scaling_baseline("mp", 50, 4) == 1.5 * math.log(50)


# ---------------------------------------------------------------- slope fits

def test_scaling_fit_exact_line():
    pts = [(n, 3.0 * math.log(n)) for n in (10, 20, 40, 80)]
    assert abs(scaling_fit(pts) - 3.0) < 1e-12
    pts = [(n, 2.5 * math.log(n) + 1.0) for n in (5, 9, 33)]
    assert abs(scaling_fit(pts) - 2.5) < 1e-12


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        scaling_fit([(10, 1.0), (20, 2.0)])
    with pytest.raises(ValueError):
        scaling_fit([(10, 1.0), (10, 2.0), (20, 3.0)])


def test_scaling_fit_model_slopes():
    pts = [(n, mp_capacity(n, 3)) for n in range(100, 1001, 50)]
    assert 1.9 <= scaling_fit(pts) <= 2.1
    pts = [(n, su_capacity(n, 2)) for n in range(100, 1001, 50)]
    assert 2.9 <= scaling_fit(pts) <= 3.1
