"""Mutual-information capacities of the block decompositions, exact where possible.

Capacities are logs of exact integer support sizes.  The integer is summed in
arbitrary precision first and only then sent through log, so the float result
is correctly rounded no matter how large n gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Sequence, Union

from .rep_core import (
    UNBOUNDED,
    Decomposition,
    Model,
    RefSize,
    _check_config,
    _partition_rows,
    decompose,
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
    """Capacity in nats, the exact support whose log it is, and the block
    distribution that attains it.

    ``p_rows`` holds p_b for each block as (label tuple, numerator,
    denominator) in lowest terms, in the decomposition's row order.
    """

    value: float
    support: int
    p_rows: tuple[tuple[tuple[int, ...], int, int], ...]


def capacity(decomp: Decomposition) -> CapacityReport:
    """log sum_b dim_b * eff_mult_b, with the attaining block distribution.

    The optimal distribution puts p_b = w_b / sum_b w_b on each block, with
    w_b = dim_b * eff_mult_b; it is returned exactly, reduced by gcd.  Value
    is in nats.
    """
    weights = [(label, dim * eff) for label, dim, _, eff in decomp.rows]
    total = sum(w for _, w in weights)
    p_rows = []
    for label, w in weights:
        g = gcd(w, total)
        p_rows.append((label, w // g, total // g))
    return CapacityReport(value=log_integer(total), support=total, p_rows=tuple(p_rows))


def capacity_support(model: Union[Model, str], n: int, t: int, l: RefSize) -> int:
    """The support sum_b dim_b * eff_mult_b of decompose(model, n, t, l),
    from a closed form wherever one holds.

    mp blocks are one-dimensional, so every weight counts once at any l:
    C(n+t-1, t-1).  su with an unbounded reference saturates every block:
    the Cauchy sum C(n+t^2-1, t^2-1).  su with a finite l enumerates its
    blocks under the decompose block budget.  Arguments are validated as in
    decompose, with the same messages.
    """
    model = _check_config(model, n, t, l)
    if model is Model.MULTI_PHASE:
        return weight_count(n, t)
    if l is UNBOUNDED:
        return su_square_sum(n, t)
    return sum(dim * eff for _, dim, _, eff in decompose(model, n, t, l).rows)


def mp_capacity(n: int, t: int) -> float:
    """log binomial(n+t-1, t-1): every weight block contributes one dimension."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 2:
        raise ValueError("t must be at least 2")
    return log_integer(weight_count(n, t))


def su_square_sum(n: int, t: int) -> int:
    """Exact sum of squared irrep dimensions over partitions of n into <= t rows.

    By the Cauchy identity this is dim Sym^n(C^t (x) C^t) = C(n+t^2-1, t^2-1).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 2:
        raise ValueError("t must be at least 2")
    return comb(n + t * t - 1, t * t - 1)


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


def gapped_partitions(n: int, t: int, a) -> list[tuple[int, ...]]:
    """Rows of the partitions of n into <= t rows, zero-padded, whose
    consecutive row gaps are all >= n/(a*t).

    ``a`` may be any rational in [2, 3] such that n/(a*t) is a positive integer.
    """
    a = Fraction(a)
    if not Fraction(2) <= a <= Fraction(3):
        raise ValueError(f"a must lie in [2, 3], got {a}")
    gap = Fraction(n, t) / a
    if gap.denominator != 1 or gap <= 0:
        raise ValueError(f"n/(a*t) = {gap} must be a positive integer")
    g = int(gap)
    return [rows for rows in _partition_rows(n, t)
            if all(rows[k] - rows[k + 1] >= g for k in range(t - 1))]


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
