"""Mutual-information capacities of the block decompositions, exact where possible.

Capacities are logs of exact integer support sizes.  The integer is summed in
arbitrary precision first and only then sent through math.log, which reads
ints of any size directly, with no float conversion, so the float result
stays accurate far past the 2**1024 overflow point, however large n gets.

``block_capacity`` gives the su capacity with its optimal block weights
(the su ``capacity`` report in JSON; the mp one writes its labels from the
weight runs); ``capacity_support`` gives the support alone
(``bounds``, ``capacity`` in CSV and every ``scaling`` row), and
``scaling_fit`` the slope of a sweep.  ``capacity`` computes the same report
from a whole decomposition, with a reduction of its own: the slow route the
other two are tested against.  Every su shape, the unsaturated ones of the
finite-l support included, comes with its dimension, and with its tableau
count where one is read, from the one shape walk of rep_core;
block_capacity weighs, merges and checks each shape in one pass as the walk
yields it.
"""

from __future__ import annotations

import math
from collections import Counter
from math import comb, gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .rep_core import (
    UNBOUNDED,
    Decomposition,
    _admit,
    _check_config,
    _shape_rows,
    weight_count,
)


class CapacityReport(NamedTuple):
    """Capacity in nats, the exact support whose log it is, and the block
    distribution that attains it.

    ``p_rows`` holds p_b for each block as one flat row (*label, numerator,
    denominator), in lowest terms, in the decomposition's row order.
    """

    value: float
    support: int
    p_rows: tuple[tuple[int, ...], ...]


def capacity(decomp: Decomposition) -> CapacityReport:
    """log sum_b dim_b * eff_mult_b, with the attaining block distribution.

    The optimal distribution puts p_b = w_b / sum_b w_b on each block, with
    w_b = dim_b * eff_mult_b; it is returned exactly, reduced by gcd.  Value
    is in nats.
    """
    weights = [row[-3] * row[-1] for row in decomp.rows]
    total = sum(weights)
    p_rows = tuple(row[:-3] + (w // gcd(w, total), total // gcd(w, total))
                   for row, w in zip(decomp.rows, weights))
    return CapacityReport(value=math.log(total), support=total, p_rows=p_rows)


def block_capacity(n: int, t: int, l: Optional[int]) -> CapacityReport:
    """capacity(decompose("su", n, t, l)), block for block, without the
    decomposition: only the weights w_b = dim_b * eff_mult_b are made.

    A su shape of dimension d has weight d min(l f, d): d^2 when it
    saturates (l f >= d, every shape with an unbounded reference), else
    d l f.  The total is the support: the Cauchy total C(n+t^2-1, t^2-1)
    less the deficit of the unsaturated shapes, which the pruned walk gives
    with their d and f, as capacity_support has it.  The full shape walk
    (without the multinomial) is then read once: each shape weighs d^2,
    unless it is the next unsaturated shape, with the same rows and the
    same d, which weighs d l f; so no saturated shape's tableau count is
    made, and each shape is held only as its p row (*rows, w / g, total / g),
    g = gcd(w, total).  Before any row is returned the walk is checked
    against the closed form: sum d^2 must be the Cauchy total; and an
    unsaturated shape that the full walk does not hold after the one before,
    with the same d, raises ArithmeticError, naming it.  Arguments and the
    block budget are checked as in su decompose, with the same messages.
    """
    _admit("su", n, t, l)
    unsaturated = [] if l is UNBOUNDED else list(_shape_rows(n, t, l=l, prune=True))
    squares = su_square_sum(n, t)
    total = squares - _deficit(unsaturated)
    pending = iter(unsaturated)  # rows (*rows, d, f, l f), met in label order
    due = next(pending, ())
    p_rows, walked = [], 0
    for shape in _shape_rows(n, t, False):  # (*rows, d)
        dim = shape[-1]
        w = dim * dim
        walked += w
        if shape == due[:-2]:  # the next unsaturated shape: l f < d
            w = dim * due[-1]
            due = next(pending, ())
        g = gcd(w, total)
        p_rows.append(shape[:-1] + (w // g, total // g))
    if walked != squares:
        raise ArithmeticError(f"the squared dimensions of n = {n}, t = {t} miss the Cauchy total")
    if due:
        raise ArithmeticError(f"the unsaturated shape {due[:-3]} of dimension {due[-3]} is not "
                              f"among the shapes of n = {n}, t = {t} in label order")
    return CapacityReport(value=math.log(total), support=total, p_rows=tuple(p_rows))


def capacity_support(model: str, n: int, t: int, l: Optional[int]) -> int:
    """The support sum_b dim_b * eff_mult_b of decompose(model, n, t, l),
    without building the decomposition.

    mp blocks are one-dimensional, so every weight counts once at any l:
    C(n+t-1, t-1).  su with an unbounded reference saturates every block:
    the Cauchy sum C(n+t^2-1, t^2-1).  su with a finite l is that sum minus
    the deficit d (d - l f) of the unsaturated shapes (l f < d), which the
    shape walk _shape_rows gives with their d and f when handed l, without
    visiting the saturated ones.  Their first rows are a run n, n-1, ..., c*,
    and the shapes with those first rows are counted under the block budgets
    before any is visited.  Arguments are validated as in decompose, with the
    same messages, on every call: a scaling sweep makes one call per n.
    """
    _check_config(model, n, t, l)
    if model == "mp":
        return weight_count(n, t)
    if l is UNBOUNDED:
        return su_square_sum(n, t)
    return su_square_sum(n, t) - _deficit(_shape_rows(n, t, l=l, prune=True))


def _deficit(unsaturated: Iterable[tuple[int, ...]]) -> int:
    """sum d (d - l f) over the rows (*rows, d, f, l f) of the pruned walk:
    how far the unsaturated shapes fall short of weighing d^2."""
    return sum(dim * (dim - l_f) for *_, dim, f, l_f in unsaturated)


def su_square_sum(n: int, t: int) -> int:
    """Exact sum of squared irrep dimensions over partitions of n into <= t rows.

    By the Cauchy identity this is dim Sym^n(C^t (x) C^t) = C(n+t^2-1, t^2-1).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if t < 2:
        raise ValueError("t must be at least 2")
    return comb(n + t * t - 1, t * t - 1)


def scaling_fit(points: Sequence[tuple]) -> float:
    """Least-squares slope of value against log n over (n, value) pairs.

    Points whose float log n coincide, as equal n do and distinct n past
    about 10^16 may, are refused with the coincident values named: the fit
    could not tell those n apart.
    """
    if len(points) < 3:
        raise ValueError("need at least three points to fit a slope")
    xs = [math.log(n) for n, _ in points]
    if len(set(xs)) != len(xs):
        tied = sorted(x for x, count in Counter(xs).items() if count > 1)
        raise ValueError(f"n values share the float log n = {', '.join(map(repr, tied))}, "
                         "so no slope against log n can be fitted")
    ys = [v for _, v in points]
    k = len(xs)
    xbar = math.fsum(xs) / k
    ybar = math.fsum(ys) / k
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / sxx
