"""Mutual-information capacities of the block decompositions, exact where possible.

Capacities are logs of exact integer support sizes.  The integer is summed in
arbitrary precision first and only then sent through log, so the float result
is correctly rounded no matter how large n gets.

``block_capacity`` gives the capacity with its optimal block weights (the
su ``capacity`` report in JSON; the mp one writes its labels from the weight
runs); ``capacity_support`` gives the support alone
(``bounds``, ``capacity`` in CSV and every ``scaling`` row), and
``scaling_fit`` the slope of a sweep.  ``capacity`` computes the same report
from a whole decomposition: the slow route the other two are tested against.
Every su shape, the unsaturated ones of the finite-l support included, comes
with its dimension, and with its tableau count where one is read, from the
one shape walk of rep_core.
"""

from __future__ import annotations

import math
from collections import Counter
from math import comb, gcd
from typing import NamedTuple, Sequence, Union

from .rep_core import (
    UNBOUNDED,
    Decomposition,
    Model,
    RefSize,
    _admit,
    _check_config,
    _shape_rows,
    _weight_walk,
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


class CapacityReport(NamedTuple):
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
    return _weighted_report([(label, dim * eff) for label, dim, _, eff in decomp.rows])


def _weighted_report(weights: list) -> CapacityReport:
    """The report of the blocks' (label, w_b) pairs: p_b = w_b / sum w, each
    reduced by its gcd."""
    total = sum(w for _, w in weights)
    p_rows = []
    for label, w in weights:
        g = gcd(w, total)
        p_rows.append((label, w // g, total // g))
    return CapacityReport(value=log_integer(total), support=total, p_rows=tuple(p_rows))


def block_capacity(model: Union[Model, str], n: int, t: int, l: RefSize) -> CapacityReport:
    """capacity(decompose(model, n, t, l)), block for block, without the
    decomposition: only the weights w_b = dim_b * eff_mult_b are made.

    mp blocks are one-dimensional weights, each of weight 1, so every label of
    the weight walk gets p = 1 / C(n+t-1, t-1).  A su shape of dimension d
    has weight d min(l f, d): d^2 when it saturates (l f >= d, every shape
    with an unbounded reference), else d l f.  Every d comes from the shape
    walk _shape_rows without the multinomial; at a finite l the unsaturated
    shapes come with their f from the pruned walk _shape_rows(n, t, l=l), in
    the same label order, and are merged in, so no saturated shape's
    tableau count is made.  The total is the sum of the weights.
    Before any row is returned the walk is checked against a closed form:
    its row count against C(n+t-1, t-1) (mp), and sum d^2 against the Cauchy
    total C(n+t^2-1, t^2-1) (su); an unsaturated shape the merge does not
    meet raises ArithmeticError, naming it.  Arguments and the block budget
    are checked as in decompose, with the same messages.
    """
    model = _admit(model, n, t, l)
    if model is Model.MULTI_PHASE:
        total = weight_count(n, t)
        p_rows = tuple([(label, 1, total) for label, _, _ in _weight_walk(n, t)])
        if len(p_rows) != total:
            raise ArithmeticError(f"{len(p_rows)} weights, expected C(n+t-1, t-1) = {total}")
        return CapacityReport(value=log_integer(total), support=total, p_rows=p_rows)
    unsaturated = iter(()) if l is UNBOUNDED else _shape_rows(n, t, l=l)
    shape, _, f = next(unsaturated, (None, None, None))
    weights = []
    squares = 0
    for rows, dim, _ in _shape_rows(n, t, False):
        square = dim * dim
        squares += square
        if rows == shape:  # l f < d
            weights.append((rows, dim * l * f))
            shape, _, f = next(unsaturated, (None, None, None))
        else:
            weights.append((rows, square))
    if shape is not None:
        raise ArithmeticError(f"the unsaturated shape {shape} is not among the shapes of "
                              f"n = {n}, t = {t} in label order")
    if squares != su_square_sum(n, t):
        raise ArithmeticError(f"the squared dimensions of n = {n}, t = {t} miss the Cauchy total")
    return _weighted_report(weights)


def capacity_support(model: Union[Model, str], n: int, t: int, l: RefSize) -> int:
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
    same messages.
    """
    return _support_of(_check_config(model, n, t, l), n, t, l)


def _support_of(model: Model, n: int, t: int, l: RefSize) -> int:
    """capacity_support of arguments already validated (_check_config), as a
    scaling sweep's rows are, once for the whole sweep."""
    if model is Model.MULTI_PHASE:
        return weight_count(n, t)
    if l is UNBOUNDED:
        return su_square_sum(n, t)
    deficit = sum(dim * (dim - l * f) for _, dim, f in _shape_rows(n, t, l=l))
    return su_square_sum(n, t) - deficit


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
