"""Exact irrep bookkeeping for the two tensor-power metrology models.

Enumerates the irreducible blocks that appear when a diagonal-phase group
or SU(t) acts on n copies of a t-dimensional system, together with exact
dimensions, multiplicities and reference-limited effective multiplicities.
Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

from math import comb
from itertools import chain, repeat
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Optional

# A reference system large enough that every block saturates: no reference
# size, None, as the shape walk spells it.
UNBOUNDED = None

# Most blocks an enumeration may build, and most label entries (blocks times
# t, one per level of every label) it may hold and a report may write; larger
# requests are refused before they start.  On a 2-vCPU Xeon VM (Python 3.11),
# in-process, best of 5, with the host's speed drifting by a third between
# runs: the mp runs (_weight_runs) cost 0.13 us per block at n = 400 and
# t = 3, and 0.47 us at n = 1400 (982 101 blocks in 0.46 s), most of it
# multiplying each run's multinomial, grown to 2800 bits, into half its
# binomial row.  A whole mp decompose request with its JSON report costs
# 0.67-0.89 us per block at n = 250..400, t = 3, and a whole mp JSON capacity
# request 0.25-0.27 us; both read their cells from the runs and hold no rows.  A
# whole su decompose request, its rows made flat by the shape walk and
# written as they are, costs 1.6-2.3 us per block at n <= 280 (t = 3..5)
# and 4.2-4.4 us at n = 1000, t = 3 (CSV).  These request costs are with the
# cyclic collector paused, as cli.main runs every request; left on, it made
# them 10-75% longer (best of 3 each, a quarter at most sizes).
# The shape walk's dimension and tableau count take 1.8 us per shape at
# n = 1000, t = 3, and 5.3 us at t = 3 near the budget (n = 3400, 5.2 s for
# 965 034 shapes), where the multinomial it carries has grown to n log t
# bits; the dimension alone takes 0.4 us.  su decompose stops short of
# that: writing the integers of n = 3400, t = 3 (1.2 GB) takes 37 s, and
# the CLI's digit-work budget (cli.MAX_DIGIT_WORK) refuses t = 3 past
# n = 2140, as it refuses mp past n = 1368.  JSON capacity reads the tableau
# count of the unsaturated shapes only and, in one pass over the walk, holds
# each shape only as its p row, so a whole request at n = 3000, t = 3
# (751 501 shapes) takes 1.7-3.0 s at l = 1 and unbounded alike and peaks at
# 177 MiB of RSS.  A whole CSV decompose request at n = 2000, t = 3
# (334 334 blocks, 256 MB) takes 3.9-4.6 s, 1.2 s of it making the rows and
# most of the rest writing the report, and peaks at 192 MiB of RSS, since
# the report is written one chunk at a time (whole processes, the host's
# speed drifting by a third between runs).
# The label budget admits every t = 3 request under MAX_BLOCKS and one qudit
# at t = 2000 (a 44 MB report), and refuses e.g. two qudits at t = 1400
# (980 700 blocks of 1400 entries each).
MAX_BLOCKS = 1_000_000
MAX_LABEL_ENTRIES = 4_000_000

# One block as one flat tuple: the label's t entries, then dim, mult and
# eff_mult.  The walks make it and the report writer reads its cells as they
# are; Decomposition.rows has this layout.
Row = tuple[int, ...]


class IrrepEntry(NamedTuple):
    """One block as named fields: a view of a row for the benchmark tracer,
    its only reader.  It goes when the tracer reads ``Decomposition.rows``."""

    label: tuple[int, ...]
    dim: int
    mult: int
    eff_mult: int


class Decomposition(NamedTuple):
    """Full isotypic decomposition of one model at given (n, t, l).

    The model is its tag as given, "mp" or "su".  The blocks are flat rows
    (*label, dim, mult, eff_mult), the label's t entries first: weight
    vectors for mp, zero-padded partitions for su.  A plain record, its
    fields stored as given: decompose builds it from its walks' rows once
    their fill is checked, and a record built from outside is not checked
    at all; tests/reference.py::check_rows holds the row rules.
    """

    model: str
    n: int
    t: int
    l: Optional[int]
    rows: tuple[Row, ...]

    @property
    def entries(self) -> tuple[IrrepEntry, ...]:
        """The rows as IrrepEntry named tuples, for the benchmark tracer only,
        built on each read."""
        rows = self.rows
        return tuple(map(IrrepEntry, map(itemgetter(slice(None, -3)), rows),
                         map(itemgetter(-3), rows), map(itemgetter(-2), rows),
                         map(itemgetter(-1), rows)))


def _check_fill(total: int, n: int, t: int) -> None:
    """Check that the blocks' sum dim * mult, ``total``, is t^n: a walk's
    self-check, which no valid input fails, so it raises ArithmeticError."""
    if total != t**n:
        raise ArithmeticError("blocks do not fill the full space")


def multiplicity_su(rows: tuple[int, ...], n: int, dim: int, carried: tuple[int, int]) -> int:
    """Number of standard Young tableaux of the shape with non-increasing
    ``rows`` (zero-padded to t) of n boxes, as f = d M / Q, from its Weyl
    dimension ``dim`` and the pair ``carried`` = (M, Q) that the shape walk
    _shape_rows builds from prefix products.

    By the hook-length and Weyl formulas in the shifted rows
    s_i = r_i + t-1-i, f = n! prod_{i<j} (s_i - s_j) / prod_i s_i! and
    d = prod_{i<j} (s_i - s_j) / prod_i (t-1-i)!, so d / f = Q / M with the
    multinomial M = n! / prod_i r_i! and Q = prod_i C(r_i+t-1-i, r_i); zero
    rows add a factor 1 to both.  The one division, by Q of at most about
    t^2 log(n+t) bits, is exact; a remainder, which only wrong products can
    leave, raises ArithmeticError naming the shape.
    """
    multinomial, binomials = carried
    q, rem = divmod(dim * multinomial, binomials)
    if rem:  # the quotient is always an integer; guard against misuse
        raise ArithmeticError(f"non-integer tableau count for rows {rows} of {n} boxes")
    return q


def _shape_rows(n: int, t: int, tableaux: bool = True, l: Optional[int] = None,
                prune: bool = False) -> Iterator[Row]:
    """The su block row (*rows, dim, f, eff) of every partition of n into at
    most t rows, the rows zero-padded to t and lexicographically descending:
    the Weyl dimension d, the tableau count f and eff = min(l f, d), from
    products carried down the rows instead of rebuilt per shape; eff is d
    without a reference size ``l`` (an unbounded one).  With ``tableaux``
    false each row is (*rows, dim) and the multinomial is not carried.  With
    ``prune``, an ``l`` and n >= 1, only the unsaturated shapes (l f < d)
    come, in the same order.

    The rows are chosen top-down, from the first, on a stack.  A prefix of k
    rows carries its shifted rows u_i = r_i - i, their Vandermonde
    V = prod_{i<j<k} (u_i - u_j), its part of the multinomial M,
    prod_i C(boxes left before row i, r_i), its part of Q,
    prod_i C(r_i+t-1-i, r_i), and H = prod_{i<k} (r_i+k-1-i)! / r_i!, which
    is prod_{j<k} j! times prod_i C(r_i+k-1-i, r_i) and which a next row
    multiplies by prod_{i<k} (u_i + k).  A prefix that uses up the boxes with
    k < t rows is a shape whose zero rows telescope: the Weyl factors of an
    occupied row i over the zero rows k <= j < t multiply to
    C(r_i+t-1-i, r_i) / C(r_i+k-1-i, r_i), so d = V Q / H, and the label is
    the rows followed by t - k zeros.  Every other shape fills the last two
    rows (a, boxes - a) in one loop, where the Weyl product runs over all t
    rows, d = V / prod_{j<t} j!, Q gains C(a+1, a) = a+1, and the
    multinomial moves from C(boxes, a) to C(boxes, a-1) by one multiply and
    one exact division.  Each f is multiplicity_su given d, M and Q, and each
    row is made once, whole, as it is yielded.  Iterative, so any t works,
    and nothing of size t is made before the budgets are checked; a
    non-integer dim or f raises ArithmeticError.

    With ``prune``, the saturated shapes are pruned.  As d / f = Q / M, a
    shape is unsaturated exactly when Q > l M, and with the shifted rows
    s_i = r_i + t-1-i, Q / M = P / n! for P = prod_i s_i! / (t-1-i)!.  Among
    the completions of a prefix by its boxes under a row cap, the greedy fill
    (every row as long as the cap allows) majorizes every other, in r and so
    in s; log x! is convex, so by Karamata's inequality the greedy fill has
    the largest P.  A next row r is kept while the greedy fill under cap r is
    unsaturated, from the widest down: that fill falls in majorization as r
    falls, so the first saturated one drops r and every narrower row.  In the
    last-two-rows loop (a, boxes - a) falls in majorization as a falls, so the
    loop stops at the first saturated shape.  For the first row this says
    that the greedy fill (c, ..., c, rest) has the largest Q / M of the
    shapes with first row c and is one of them: the first rows of the
    unsaturated shapes are exactly a run n, n-1, ..., c*.  So each prefix
    kept is the top of its own unsaturated greedy fill, and the walk keeps at
    most t prefixes per shape with a first row in the run.  Those shapes,
    partition_count(n-c, t-1, c) for each kept c, are counted as the first
    rows are kept, before any longer prefix is visited; more than MAX_BLOCKS
    of them, or more than MAX_LABEL_ENTRIES shapes times t, are refused,
    naming the count.
    """
    shapes = 0  # shapes under the kept first rows, for the budgets
    last = t - 2  # the rows above the last two
    weyl_den = 0  # prod_{j<t} j!, the Weyl denominator of t rows, once a shape needs it
    stack = [((), (), 1, 1, 1, 1, n)]  # rows of a prefix, their u_i, its V, M, Q and H, boxes left
    while stack:
        rows, shifted, v, m, q, h, boxes = stack.pop()
        k = len(rows)
        if not boxes:  # k < t occupied rows: telescope the zero rows
            dim, rem = divmod(v * q, h)
            if rem:  # the product is always divisible; guard against misuse
                raise ArithmeticError(f"non-integer dimension for rows {rows}")
            shape = rows + (0,) * (t - k)
            if not tableaux:
                yield shape + (dim,)
                continue
            f = multiplicity_su(shape, n, dim, (m, q))
            yield shape + (dim, f, dim if l is None else min(l * f, dim))
            continue
        widest = min(rows[-1], boxes) if rows else boxes
        if k < last:  # push the next rows, the widest last so it comes first
            for u in shifted:
                h *= u + k
            floor = -(-boxes // (t - k))
            if prune:  # keep the rows r whose greedy fill is unsaturated
                r = widest
                while r >= floor:
                    fill_m, fill_q, i, left = m, q, k, boxes
                    while left:
                        s = min(r, left)
                        fill_m *= comb(left, s)
                        fill_q *= comb(s + t - 1 - i, s)
                        i, left = i + 1, left - s
                    if fill_q <= l * fill_m:
                        break
                    if not k:  # a first row: count its shapes before any is visited
                        shapes += partition_count(boxes - r, t - 1, r)
                        _check_block_budget(shapes, t)
                    r -= 1
                floor = r + 1
            for r in range(floor, widest + 1):
                x = r - k
                w = v
                for u in shifted:
                    w *= u - x
                stack.append((rows + (r,), shifted + (x,), w,
                              m * comb(boxes, r) if tableaux else m,
                              q * comb(r + t - 1 - k, r), h, boxes - r))
            continue
        if not weyl_den:  # made here, after the first rows' budget check (t >= 3; 1 at t = 2)
            weyl_den = factorial = 1
            for j in range(1, t):
                factorial *= j
                weyl_den *= factorial
        if tableaux:
            m *= comb(boxes, widest)
        for a in range(widest, boxes - boxes // 2 - 1, -1):
            b = boxes - a
            x, y = a - k, b - k - 1
            w = v * (x - y)
            for u in shifted:
                w *= (u - x) * (u - y)
            dim, rem = divmod(w, weyl_den)
            shape = rows + (a, b)
            if rem:  # the product is always divisible; guard against misuse
                raise ArithmeticError(f"non-integer dimension for rows {shape}")
            if not tableaux:
                yield shape + (dim,)
                continue
            f = multiplicity_su(shape, n, dim, (m, q * (a + 1)))
            if l is None:
                eff = dim
            else:
                eff = l * f
                if eff >= dim:  # saturated
                    if prune:
                        break
                    eff = dim
                elif prune and not k:  # t = 2: each shape is a first row
                    shapes += partition_count(boxes - a, t - 1, a)
                    _check_block_budget(shapes, t)
            yield shape + (dim, f, eff)
            m, rem = divmod(m * a, b + 1)  # C(boxes, a) -> C(boxes, a-1)
            if rem:  # binomials are integers; guard against misuse
                raise ArithmeticError(f"non-integer binomial C({boxes}, {a - 1})")


def _weight_walk(n: int, t: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every occupation vector of n over t levels, lexicographically
    descending, with the factor num / den that takes the multinomial
    n! / prod counts! of the vector before it to its own (1 / 1 first).

    Iterative.  Each step takes one unit from the last level k < t-1 with a
    non-zero count and moves the last level's c units plus that one to level
    k+1, which changes the multinomial by the factor counts[k] / (c + 1).
    """
    counts = [n] + [0] * (t - 1)
    last = t - 1
    live = [0] if n and last else []  # levels below `last` with a non-zero count
    ck = moved = 1
    while True:
        yield tuple(counts), ck, moved
        if not live:
            return
        k = live[-1]
        ck = counts[k]
        moved = counts[last] + 1
        counts[k] = ck - 1
        if ck == 1:
            live.pop()
        if k + 1 < last:
            counts[k + 1] = moved
            counts[last] = 0
            live.append(k + 1)
        else:
            counts[last] = moved


def _weight_runs(n: int, t: int) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The mp blocks of n over t >= 2 levels in runs, the blocks that share
    their first t-2 levels: one (prefix, r, mults) per occupation vector
    (prefix, r) of n over t-1 levels, in the order of _weight_walk(n, t-1).
    The run's blocks are the labels prefix + (a, r-a) for a = r, ..., 0, in
    the order of _weight_walk(n, t), and ``mults`` holds their multinomials
    M C(r, a), where M = n! / (prod prefix! r!) is the run's own, one small
    multiply and one exact division per run.

    C(r, a) = C(r, r-a), so the binomial row reads the same for a falling.
    When r rose by one from the run before, as it does at t >= 3 everywhere
    but at a reset to r = 0, the row is the one before by one Pascal step;
    else (the one run at t = 2, and every r = 0) it is built from
    C(r, a) = C(r, a-1) (r-a+1) / a.  M is multiplied into the row's first
    half only, a <= r/2, by C-level iterators, with no Python loop, and the
    second half is the first mirrored: the same int objects, so a list of
    runs holds half the big ints.  A run with M = 1 hands out the row itself.
    """
    row = ()
    mult = 1
    for counts, num, den in _weight_walk(n, t - 1):
        mult, rem = divmod(mult * num, den)
        if rem:  # the multinomials are integers; guard against misuse
            raise ArithmeticError(f"non-integer multinomial at {counts}")
        r = counts[-1]
        if row and r == len(row):  # r rose by one
            row = tuple(map(add, row + (0,), (0,) + row))
        else:
            c, row = 1, [1]
            for a in range(1, r + 1):
                c = c * (r - a + 1) // a  # exact: C(r, a-1) (r-a+1) is a multiple of a
                row.append(c)
            row = tuple(row)
        if mult == 1:
            yield counts[:-1], r, row
        else:
            half = tuple(map(mul, repeat(mult), row[:r // 2 + 1]))
            yield counts[:-1], r, half + half[:(r + 1) // 2][::-1]


def _run_rows(runs: Iterable[tuple]) -> Iterator[Row]:
    """The flat rows of the mp blocks of ``runs``, each (prefix, r, *columns)
    as _weight_runs yields them with its columns: the rows
    (*prefix, a, r-a, *cells) for a = r, ..., 0, a run's column cells in
    that order, made by C-level iterators, with no Python loop per block."""
    return chain.from_iterable(
        map(add, repeat(prefix), zip(range(r, -1, -1), range(r + 1), *columns))
        for prefix, r, *columns in runs)


def _weight_rows(n: int, t: int) -> tuple[Row, ...]:
    """mp block rows (*counts, 1, n! / prod counts!, 1) for every occupation
    vector of n over t >= 2 levels, in the order of _weight_walk: the runs of
    _weight_runs expanded by _run_rows."""
    return tuple(_run_rows((prefix, r, repeat(1), mults, repeat(1))
                           for prefix, r, mults in _weight_runs(n, t)))


def _check_config(model: str, n: int, t: int, l: Optional[int]) -> None:
    """Validate a (model, n, t, l) configuration: the model is the tag "mp"
    or "su", n and t are ints (not bools), n >= 1 and t >= 2, and l is a
    positive int or UNBOUNDED, which is None."""
    if model not in ("mp", "su"):
        raise ValueError(f"unknown model tag {model!r}")
    for name, value in (("n", n), ("t", t)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if t < 2:
        raise ValueError("t must be at least 2")
    if l is not UNBOUNDED and (not isinstance(l, int) or isinstance(l, bool) or l < 1):
        raise ValueError(f"reference size must be a positive integer or UNBOUNDED, got {l!r}")


def decompose(model: str, n: int, t: int, l: Optional[int]) -> Decomposition:
    """Full isotypic list for the model tagged ``model``, "mp" or "su", with
    a reference system of size l.

    Effective multiplicities are min(l * mult, dim); UNBOUNDED (None), no
    reference size, saturates every block at its full dimension.  Blocks
    come as flat rows (*label, dim, mult, eff_mult) in lexicographically
    descending label order, collected as the walks make them: the weight
    runs' for mp, the shape walk _shape_rows's for su.  Arguments and the
    enumeration budget are always checked (_admit) before the first block
    is made.
    The walks make every row a well-formed block by construction, so only
    the fill sum dim * mult = t^n is checked at run time; the tests hold the
    walks' rows to the full row rules (tests/reference.py::check_rows).
    """
    _admit(model, n, t, l)
    if model == "mp":
        rows = tuple(_weight_rows(n, t))
    else:
        rows = tuple(_shape_rows(n, t, l=l))
    _check_fill(sum(map(mul, map(itemgetter(-3), rows), map(itemgetter(-2), rows))), n, t)
    return Decomposition(model, n, t, l, rows)


def _admit(model: str, n: int, t: int, l: Optional[int]) -> int:
    """Check a decomposition request's arguments and its block budget (the
    model's block count: weights for mp, partitions for su); returns its
    exact block count.  The su count stops once it passes a budget, and the
    refusal names the count reached."""
    _check_config(model, n, t, l)
    if model == "mp":
        blocks = weight_count(n, t)
        _check_block_budget(blocks, t)
    else:
        budget = min(MAX_BLOCKS, MAX_LABEL_ENTRIES // t)  # blocks * t > L iff blocks > L // t
        blocks = partition_count(n, t, above=budget)
        _check_block_budget(blocks, t, exact=False)
    return blocks


def partition_count(n: int, t: int, widest: Optional[int] = None,
                    above: Optional[int] = None) -> int:
    """Exact number of partitions of n into at most t parts, each at most
    ``widest`` (default n), in O(n t).

    By conjugation these are the partitions of n into parts of size <= t,
    counted by adding the part sizes 1..t one at a time: the coefficient of
    q^n in prod_i 1/(1 - q^i).  A row cap multiplies in the factors
    (1 - q^(widest+i)) of the Gaussian binomial [widest+t choose t]_q.  After
    each part size p the count is that of the partitions with parts <= p, so
    it never falls; with ``above`` given, the count stops at the first part
    size where it passes ``above`` and is then a lower bound; after part
    sizes 1 and 2 it is n // 2 + 1, returned at once if that passes
    ``above`` >= 1.  Without a row cap the counts of t = 2 and t = 3 are
    closed forms, n // 2 + 1 and round((n+3)^2 / 12), and no list is made.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if widest is None and (t == 2 or above is not None and t > 2 and n // 2 + 1 > above >= 1):
        return n // 2 + 1
    if widest is None and t == 3:  # the nearest integer to (n+3)^2 / 12
        return ((n + 3) ** 2 + 6) // 12
    counts = [1] + [0] * n
    for part in range(1, min(t, n) + 1):  # larger parts fit no partition of n
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
        if widest is not None:
            drop = widest + part
            for m in range(n, drop - 1, -1):
                counts[m] -= counts[m - drop]
        if above is not None and counts[n] > above:
            break
    return counts[n]


def _check_block_budget(blocks: int, t: int, exact: bool = True) -> None:
    """Refuse an enumeration of more than MAX_BLOCKS blocks or MAX_LABEL_ENTRIES
    label entries (blocks * t); a count that is only a lower bound
    (``exact=False``) is named as "at least"."""
    count = blocks if exact else f"at least {blocks}"
    if blocks > MAX_BLOCKS:
        raise ValueError(
            f"{count} blocks exceed the enumeration budget of {MAX_BLOCKS} (MAX_BLOCKS)"
        )
    if blocks * t > MAX_LABEL_ENTRIES:
        raise ValueError(
            f"{count} blocks of {t} label entries each exceed the budget of "
            f"{MAX_LABEL_ENTRIES} label entries (MAX_LABEL_ENTRIES)"
        )


def weight_count(n: int, t: int) -> int:
    """Exact number of occupation vectors: binomial(n+t-1, t-1)."""
    return comb(n + t - 1, t - 1)
