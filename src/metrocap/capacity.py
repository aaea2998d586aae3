"""Mutual-information capacities of the block decompositions, exact where possible.

Capacities are logs of exact integer support sizes.  The integer is summed in
arbitrary precision first and only then sent through log, so the float result
is correctly rounded no matter how large n gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

from .rep_core import (
    Decomposition,
    Model,
    Partition,
    RefSize,
    _check_block_budget,
    _partition_rows,
    _weyl_dim_rows,
    partition_count,
    weight_count,
)


def log_integer(m: int) -> float:
    """Natural log of a positive integer.

    math.log reads arbitrary-size ints directly (no float conversion), so this
    stays accurate far past the 2**1024 overflow point.
    """
    if m < 1:
        raise ValueError(f"need a positive integer, got {m}")
    return math.log(m)


def log_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, as a difference of integer logs."""
    if q <= 0:
        raise ValueError(f"need a positive rational, got {q}")
    return log_integer(q.numerator) - log_integer(q.denominator)


@dataclass(frozen=True)
class CapacityReport:
    """Capacity value together with the distribution that attains it."""

    value: float
    log_base: str
    optimal_p: dict
    model: Model
    n: int
    t: int
    l: RefSize
    support: int  # exact integer whose log is `value`


@dataclass(frozen=True)
class InputStateSpec:
    """Recipe for the capacity-achieving input state.

    ``weights`` are exact squared amplitudes per block; ``blocks`` describes
    the maximally entangled construction inside each block.
    """

    weights: dict
    blocks: dict

    def amplitude(self, label) -> float:
        return math.sqrt(self.weights[label])


def capacity(decomp: Decomposition) -> CapacityReport:
    """log sum_b dim_b * eff_mult_b, with the attaining block distribution.

    The optimal distribution puts p_b proportional to dim_b * eff_mult_b; it
    is returned as exact fractions.  Value is in nats.
    """
    weights = [e.dim * e.eff_mult for e in decomp.entries]
    total = sum(weights)
    p = {e.label: Fraction(w, total) for e, w in zip(decomp.entries, weights)}
    return CapacityReport(
        value=log_integer(total),
        log_base="e",
        optimal_p=p,
        model=decomp.model,
        n=decomp.n,
        t=decomp.t,
        l=decomp.l,
        support=total,
    )


def block_state_mi(p: Mapping, decomp: Decomposition) -> float:
    """Mutual information H(p) + sum_b p_b log(dim_b * eff_mult_b) in nats.

    Accepts exact fractions or floats for p.  Terms are grouped by the exact
    ratio (dim * eff_mult) / p_b before any float log is taken, so feeding the
    optimal distribution reproduces capacity().value bit for bit.
    """
    sizes = {e.label: e.dim * e.eff_mult for e in decomp.entries}
    groups: dict[Fraction, Fraction] = {}
    total = Fraction(0)
    for label, prob in p.items():
        if label not in sizes:
            raise ValueError(f"{label!r} is not a block of this decomposition")
        q = Fraction(prob)
        if q < 0:
            raise ValueError(f"negative probability {prob} at {label!r}")
        if q == 0:
            continue
        total += q
        ratio = Fraction(sizes[label]) / q
        groups[ratio] = groups.get(ratio, Fraction(0)) + q
    if abs(total - 1) > Fraction(1, 10**9):
        raise ValueError(f"probabilities sum to {float(total)}, not 1")
    return sum(float(c) * log_fraction(r) for r, c in groups.items())


def optimal_input(decomp: Decomposition) -> InputStateSpec:
    """Capacity-achieving input: block weights plus per-block construction."""
    report = capacity(decomp)
    blocks = {}
    for e in decomp.entries:
        blocks[e.label] = (
            f"maximally entangled rank-{e.eff_mult} pairing of the "
            f"dim-{e.dim} irrep with the reference"
        )
    return InputStateSpec(weights=dict(report.optimal_p), blocks=blocks)


def mp_capacity(n: int, t: int) -> float:
    """log binomial(n+t-1, t-1): every weight block contributes one dimension."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 2:
        raise ValueError("t must be at least 2")
    return log_integer(weight_count(n, t))


def su_square_sum(n: int, t: int) -> int:
    """Exact sum of squared irrep dimensions over partitions of n into <= t rows."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 2:
        raise ValueError("t must be at least 2")
    _check_block_budget(partition_count(n, t))
    total = 0
    for rows in _partition_rows(n, t):
        d = _weyl_dim_rows(rows)
        total += d * d
    return total


def su_capacity(n: int, t: int) -> float:
    """log sum_lam dim_lam^2, the unbounded-reference SU(t) capacity."""
    if n < 1:
        raise ValueError("n must be positive")
    return log_integer(su_square_sum(n, t))


def su2_closed_form(n: int) -> int:
    """Exact sum of squared SU(2) dimensions: (n+1)(n+2)(n+3)/6 = C(n+3, 3)."""
    if n < 1:
        raise ValueError("n must be positive")
    return comb(n + 3, 3)


def su2_asymptote_residual(n: int) -> float:
    """|log(sum of squared dims) - (3 log n - log 6)| for t = 2."""
    if n < 1:
        raise ValueError("n must be positive")
    return abs(log_integer(su2_closed_form(n)) - (3.0 * math.log(n) - math.log(6.0)))


def gapped_partitions(n: int, t: int, a) -> list[Partition]:
    """Partitions of n into <= t rows whose consecutive row gaps are all >= n/(a*t).

    ``a`` may be any rational in [2, 3] such that n/(a*t) is a positive integer.
    """
    a = Fraction(a)
    if not Fraction(2) <= a <= Fraction(3):
        raise ValueError(f"a must lie in [2, 3], got {a}")
    gap = Fraction(n, t) / a
    if gap.denominator != 1 or gap <= 0:
        raise ValueError(f"n/(a*t) = {gap} must be a positive integer")
    g = int(gap)
    out = []
    for rows in _partition_rows(n, t):
        if all(rows[k] - rows[k + 1] >= g for k in range(t - 1)):
            out.append(Partition(rows))
    return out


def su_lower_bound(n: int, t: int, a) -> float:
    """log(count of gapped partitions) + t(t-1) log(n/(a t^2)).

    Counts the gap-constrained partitions exactly rather than through a
    binomial estimate; each such partition has dim >= (n/(a t^2))^(t(t-1)/2).
    """
    lams = gapped_partitions(n, t, a)
    if not lams:
        raise ValueError(f"no gapped partitions for n={n}, t={t}, a={a}")
    factor = Fraction(n) / (Fraction(a) * t * t)
    return log_integer(len(lams)) + t * (t - 1) * log_fraction(factor)


def symmetric_subspace_mi(n: int, t: int) -> float:
    """2 log binomial(n+t-1, t-1): the reference-assisted symmetric-input value."""
    if n < 1:
        raise ValueError("n must be positive")
    if t < 2:
        raise ValueError("t must be at least 2")
    return 2.0 * log_integer(comb(n + t - 1, t - 1))


def fano_bound(mi: float, eps: float) -> float:
    """(log 2 + mi) / (1 - eps): cap on log M at average error eps."""
    if mi < 0:
        raise ValueError("mutual information must be non-negative")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    return (math.log(2.0) + mi) / (1.0 - eps)


def standard_scaling_baseline(model: Union[Model, str], n: int, t: int) -> float:
    """(d/2) log n with d the parameter count: t-1 phases or t^2-1 generators."""
    model = Model(model)
    if n < 1:
        raise ValueError("n must be positive")
    d = (t - 1) if model is Model.MULTI_PHASE else (t * t - 1)
    return 0.5 * d * math.log(n)


def scaling_fit(points: Sequence[tuple]) -> float:
    """Least-squares slope of value against log n over (n, value) pairs."""
    if len(points) < 3:
        raise ValueError("need at least three points to fit a slope")
    xs = [math.log(n) for n, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("n values must be distinct")
    ys = [v for _, v in points]
    k = len(xs)
    xbar = math.fsum(xs) / k
    ybar = math.fsum(ys) / k
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / sxx
