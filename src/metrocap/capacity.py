"""Mutual-information capacities of the block decompositions, exact where possible.

Capacities are logs of exact integer support sizes.  The integer is summed in
arbitrary precision first and only then sent through log, so the float result
is correctly rounded no matter how large n gets.

``block_capacity`` gives the capacity with its optimal block weights (the
``capacity`` report in JSON); ``capacity_support`` gives the support alone
(``bounds``, ``capacity`` in CSV and every ``scaling`` row), and
``scaling_fit`` the slope of a sweep.  ``capacity`` computes the same report
from a whole decomposition: the slow route the other two are tested against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from math import comb, gcd
from typing import Iterator, Sequence, Union

from .rep_core import (
    UNBOUNDED,
    Decomposition,
    Model,
    RefSize,
    _admit,
    _check_block_budget,
    _check_config,
    _shape_rows,
    _weight_walk,
    _weyl_dim_rows,
    multiplicity_su,
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
    has weight d^2 with an unbounded reference, and d min(l f, d) otherwise,
    d and f from the shape walk _shape_rows, which carries no multinomial
    when l is unbounded.  The total is the sum of the weights.
    Before any row is returned the walk is checked against a closed form:
    its row count against C(n+t-1, t-1) (mp), and sum d^2 against the Cauchy
    total C(n+t^2-1, t^2-1) (su).  Arguments and the block budget are checked
    as in decompose, with the same messages.
    """
    model = _admit(model, n, t, l)
    if model is Model.MULTI_PHASE:
        total = weight_count(n, t)
        p_rows = tuple([(label, 1, total) for label, _, _ in _weight_walk(n, t)])
        if len(p_rows) != total:
            raise ArithmeticError(f"{len(p_rows)} weights, expected C(n+t-1, t-1) = {total}")
        return CapacityReport(value=log_integer(total), support=total, p_rows=p_rows)
    weights = []
    squares = 0
    for rows, dim, mult in _shape_rows(n, t, l is not UNBOUNDED):
        square = dim * dim
        squares += square
        weights.append((rows, square if l is UNBOUNDED else dim * min(l * mult, dim)))
    if squares != su_square_sum(n, t):
        raise ArithmeticError(f"the squared dimensions of n = {n}, t = {t} miss the Cauchy total")
    return _weighted_report(weights)


def capacity_support(model: Union[Model, str], n: int, t: int, l: RefSize) -> int:
    """The support sum_b dim_b * eff_mult_b of decompose(model, n, t, l),
    without building the decomposition.

    mp blocks are one-dimensional, so every weight counts once at any l:
    C(n+t-1, t-1).  su with an unbounded reference saturates every block:
    the Cauchy sum C(n+t^2-1, t^2-1).  su with a finite l is that sum minus
    the deficit d (d - l f) of the unsaturated shapes (l f < d), which
    _unsaturated_shapes walks from the first row down without visiting the
    saturated ones, each f from multiplicity_su given d.  Their first rows
    are a run n, n-1, ..., c*, and the shapes with those first rows are
    counted under the block budgets before any is visited.  Arguments are
    validated as in decompose, with the same messages.
    """
    model = _check_config(model, n, t, l)
    if model is Model.MULTI_PHASE:
        return weight_count(n, t)
    if l is UNBOUNDED:
        return su_square_sum(n, t)
    deficit = 0
    for rows in _unsaturated_shapes(n, t, l):
        dim = _weyl_dim_rows(rows)
        deficit += dim * (dim - l * multiplicity_su(rows, n, dim))
    return su_square_sum(n, t) - deficit


def _unsaturated_shapes(n: int, t: int, l: int) -> Iterator[tuple[int, ...]]:
    """The rows of every shape of n into <= t rows with l f < d, in no
    particular order.

    By multiplicity_su, d / f = Q / M with the multinomial
    M = n! / prod_i r_i! and Q = prod_i C(r_i+t-1-i, r_i), so a shape is
    unsaturated exactly when Q > l M.  With the shifted rows
    s_i = r_i + t-1-i, Q / M = P / n! for P = prod_i s_i! / (t-1-i)!.  The
    rows are chosen top-down, from the first, and each prefix carries its
    factors of Q and M.  Among the completions of fixed top rows by a given
    number of boxes under a row cap, the greedy fill (every row as long as
    the cap allows) majorizes every other, in r and so in s; log x! is
    convex, so by Karamata's inequality the greedy fill has the largest P,
    and so the largest Q / M.  A prefix whose greedy fill is saturated is
    dropped with every shape below it.  With r chosen for the next row, the
    best completion is the greedy fill under cap r, which falls in
    majorization as r falls, so the first dropped r ends the loop over r.
    For the first row this says that the greedy fill G(c) = (c, ..., c, rest)
    has the largest Q / M of the shapes with first row c, and is itself one
    of them: the first rows of the unsaturated shapes are exactly the run
    c = n, n-1, ..., c* before the first saturated G(c).

    So the walk visits the unsaturated shapes, their prefixes and one dropped
    choice per prefix.  Each prefix it keeps is the top of its own greedy
    fill, a shape whose first row is in the run, and distinct prefixes of one
    length top distinct shapes, so the walk keeps at most t prefixes per shape
    with a first row in the run.  Those shapes, partition_count(n-c, t-1, c)
    for each kept c, are counted as the first rows are kept, before any
    longer prefix is visited; more than MAX_BLOCKS of them, or more than
    MAX_LABEL_ENTRIES shapes times t (each yield is a t-row label), are
    refused, naming the count.  Iterative, so any t works.
    """

    def greedy(q: int, m: int, i: int, boxes: int, cap: int) -> tuple[int, int]:
        """(Q, M) of the prefix whose rows 0..i-1 give (q, m), filled greedily."""
        while boxes:
            r = min(cap, boxes)
            q *= comb(r + t - 1 - i, r)
            m *= comb(boxes, r)
            boxes, i = boxes - r, i + 1
        return q, m

    shapes = 0
    stack = [((), 1, 1, n)]
    while stack:
        rows, q, m, boxes = stack.pop()
        i = len(rows)
        if not boxes:
            yield rows + (0,) * (t - i)
            continue
        for r in range(min(rows[-1] if rows else n, boxes), -(-boxes // (t - i)) - 1, -1):
            here = q * comb(r + t - 1 - i, r), m * comb(boxes, r)
            fill_q, fill_m = greedy(*here, i + 1, boxes - r, r)
            if fill_q <= l * fill_m:
                break
            if not rows:  # a first row: count its shapes before any is visited
                shapes += partition_count(boxes - r, t - 1, r)
                _check_block_budget(shapes, t)
            stack.append((rows + (r,), *here, boxes - r))


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
