"""Exact irrep bookkeeping for the two tensor-power metrology models.

Enumerates the irreducible blocks that appear when a diagonal-phase group
or SU(t) acts on n copies of a t-dimensional system, together with exact
dimensions, multiplicities and reference-limited effective multiplicities.
Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import comb
from typing import Iterator, NamedTuple, Optional, Union


class Model(str, Enum):
    """The two supported unitary models."""

    MULTI_PHASE = "mp"
    SPECIAL_UNITARY = "su"


class _UnboundedType:
    """Marker for a reference system large enough that every block saturates."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _UnboundedType()

RefSize = Union[int, _UnboundedType]

# Most blocks an enumeration may build, and most label entries (blocks times
# t, one per level of every label) it may hold and a report may write; larger
# requests are refused before they start.  On a 2-vCPU Xeon VM (Python 3.11)
# decompose costs about 3 us per mp block at n = 400 and t = 3, 4.5 us at
# n = 1400 (982 101 blocks in 4.5 s; the multinomials grow to 2800 bits), and
# a whole mp decompose request about 11 us per block with its JSON report.  A
# su block costs 14-16 us at n <= 280, but its integers grow with n: at t = 3
# near the budget (n = 3400) about 0.36 ms, so the largest admitted su
# requests run for minutes.  The label budget admits every t = 3 request under
# MAX_BLOCKS and one qudit at t = 2000 (a 44 MB report), and refuses e.g. two
# qudits at t = 1400 (980 700 blocks of 1400 entries each).
MAX_BLOCKS = 1_000_000
MAX_LABEL_ENTRIES = 4_000_000

# One raw block: (label, dim, mult, eff_mult), the label a plain tuple.
Row = tuple[tuple[int, ...], int, int, int]


class IrrepEntry(NamedTuple):
    """One block as named fields: a view of a row for the benchmark tracer,
    its only reader.  It goes when the tracer reads ``Decomposition.rows``."""

    label: tuple[int, ...]
    dim: int
    mult: int
    eff_mult: int


@dataclass(frozen=True)
class Decomposition:
    """Full isotypic decomposition of one model at given (n, t, l).

    The blocks are raw rows (label, dim, mult, eff_mult), the labels plain
    tuples: weight vectors for mp, zero-padded partitions for su.  The rows
    are checked here, in any order: labels non-negative, partition labels
    non-increasing, mp blocks one-dimensional, 1 <= eff_mult <= dim, no label
    twice, and together they must fill the space: sum dim * mult = t^n.
    """

    model: Model
    n: int
    t: int
    l: RefSize
    rows: tuple[Row, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        labels = [row[0] for row in rows]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate irrep labels")
        partitions = self.model is Model.SPECIAL_UNITARY
        filled = 0
        for label, dim, mult, eff in rows:
            if min(label) < 0:
                raise ValueError(f"negative entry in label {label}")
            if partitions:
                if any(map(int.__lt__, label, label[1:])):
                    raise ValueError(f"rows must be non-increasing, got {label}")
            elif dim != 1:
                raise ValueError("multi-phase blocks must be one-dimensional")
            if dim < 1 or mult < 1:
                raise ValueError("dim and mult must be positive")
            if not 1 <= eff <= dim:
                raise ValueError(f"eff_mult {eff} outside [1, dim={dim}]")
            filled += dim * mult
        if filled != self.t**self.n:
            raise ValueError("blocks do not fill the full space")

    @cached_property
    def entries(self) -> tuple[IrrepEntry, ...]:
        """The rows as IrrepEntry named tuples, for the benchmark tracer only."""
        return tuple(map(IrrepEntry._make, self.rows))


def _partition_rows(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """Raw row tuples of all partitions of n into at most t parts.

    Lexicographically descending, zero-padded to length t.  Iterative: each
    step lowers the rightmost row that can give a box to the rows below it
    and refills those rows greedily, so any t works.
    """
    rows = [n] + [0] * (t - 1)
    occupied = 1 if n else 0  # rows[occupied:] are all zero
    while True:
        yield tuple(rows)
        below = 0  # boxes in the rows after k
        for k in range(occupied - 1, -1, -1):
            cap = rows[k] - 1
            if below < cap * (t - 1 - k):  # room for below + 1 boxes at most cap each
                break
            below += rows[k]
        else:
            return
        rows[k] = cap
        full, rest = divmod(below + 1, cap)
        end = k + 1 + full
        rows[k + 1:end] = [cap] * full
        if rest:
            rows[end] = rest
            end += 1
        if end < occupied:
            rows[end:occupied] = [0] * (occupied - end)
        occupied = end


def _weyl_dim_rows(rows: tuple[int, ...]) -> int:
    """Exact dimension from the Weyl product over non-increasing rows: the
    factor (r_i - r_j + j - i) / (j - i) of every pair i < j.

    A pair of zero rows contributes 1.  Over the zero rows z <= j < t the
    factors of an occupied row i telescope to C(r_i+t-1-i, r_i) / C(r_i+z-1-i, r_i),
    so only pairs of occupied rows are multiplied out.
    """
    t = len(rows)
    z = rows.index(0) if rows[-1] == 0 else t  # the occupied rows
    num = 1
    den = 1
    for i in range(z):
        ri = rows[i]
        for j in range(i + 1, z):
            num *= ri - rows[j] + j - i
            den *= j - i
        if z < t:
            num *= comb(ri + t - 1 - i, ri)
            den *= comb(ri + z - 1 - i, ri)
    q, r = divmod(num, den)
    if r:  # the product is always divisible; guard against misuse
        raise ArithmeticError(f"non-integer dimension for rows {rows}")
    return q


def multiplicity_su(rows: tuple[int, ...], n: int) -> int:
    """Number of standard Young tableaux of the shape with non-increasing
    ``rows``, by the Frobenius formula
    n! * prod_{i<j} (l_i - l_j) / prod_i l_i! over the k occupied rows, with
    shifted lengths l_i = lam_i + k - 1 - i.

    The l_i sum to n + k(k-1)/2, so n! / prod l_i! is taken as the multinomial
    of the l_i (a running product of binomials) over (n+1)...(sum l_i): the one
    division is by a product of k(k-1)/2 small factors.
    """
    occupied = [r for r in rows if r > 0]
    if sum(occupied) != n:
        raise ValueError(f"partition fills {sum(occupied)} boxes, expected {n}")
    k = len(occupied)
    shifted = [r + k - 1 - i for i, r in enumerate(occupied)]
    num = 1
    filled = 0
    for i in range(k):
        li = shifted[i]
        filled += li
        num *= comb(filled, li)
        for j in range(i + 1, k):
            num *= li - shifted[j]
    den = 1
    for m in range(n + 1, filled + 1):
        den *= m
    q, r = divmod(num, den)
    if r:  # the quotient is always an integer; guard against misuse
        raise ArithmeticError(f"non-integer tableau count for rows {rows}")
    return q


def _weight_rows(n: int, t: int) -> Iterator[Row]:
    """mp block rows (counts, 1, n! / prod counts!, 1) for every occupation
    vector of n over t levels, lexicographically descending.

    Iterative.  Each step takes one unit from the last level k < t-1 with a
    non-zero count and moves the last level's c units plus that one to level
    k+1, which changes the multinomial by the factor counts[k] / (c + 1): one
    small multiply and one exact division per weight, for any t.
    """
    counts = [n] + [0] * (t - 1)
    last = t - 1
    live = [0] if n and last else []  # levels below `last` with a non-zero count
    mult = 1
    while True:
        yield tuple(counts), 1, mult, 1
        if not live:
            return
        k = live[-1]
        ck = counts[k]
        moved = counts[last] + 1
        mult, r = divmod(mult * ck, moved)
        if r:  # the multinomials are integers; guard against misuse
            raise ArithmeticError(f"non-integer multinomial after {counts}")
        counts[k] = ck - 1
        if ck == 1:
            live.pop()
        if k + 1 < last:
            counts[k + 1] = moved
            counts[last] = 0
            live.append(k + 1)
        else:
            counts[last] = moved


def _check_ref_size(l: RefSize) -> None:
    if isinstance(l, _UnboundedType):
        return
    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        raise ValueError(f"reference size must be a positive integer or UNBOUNDED, got {l!r}")


def _check_config(model: Union[Model, str], n: int, t: int, l: RefSize) -> Model:
    """Validate a (model, n, t, l) configuration; returns the model."""
    model = Model(model)  # rejects unsupported tags
    if n < 1:
        raise ValueError("n must be positive")
    if t < 2:
        raise ValueError("t must be at least 2")
    _check_ref_size(l)
    return model


def _su_rows(n: int, t: int, l: RefSize) -> Iterator[Row]:
    unbounded = isinstance(l, _UnboundedType)
    for rows in _partition_rows(n, t):
        dim = _weyl_dim_rows(rows)
        mult = multiplicity_su(rows, n)
        yield rows, dim, mult, dim if unbounded else min(l * mult, dim)


def decompose(model: Union[Model, str], n: int, t: int, l: RefSize) -> Decomposition:
    """Full isotypic list for one model with a reference system of size l.

    Effective multiplicities are min(l * mult, dim); UNBOUNDED saturates every
    block at its full dimension.  Blocks come as raw rows in lexicographically
    descending label order; arguments and the enumeration budget are checked
    before the first one is made.
    """
    model = _admit(model, n, t, l)
    rows = _weight_rows(n, t) if model is Model.MULTI_PHASE else _su_rows(n, t, l)
    return Decomposition(model, n, t, l, tuple(rows))


def _admit(model: Union[Model, str], n: int, t: int, l: RefSize) -> Model:
    """Check a decomposition request's arguments and its block budget (the
    model's block count: weights for mp, partitions for su)."""
    model = _check_config(model, n, t, l)
    blocks = weight_count(n, t) if model is Model.MULTI_PHASE else partition_count(n, t)
    _check_block_budget(blocks, t)
    return model


def partition_count(n: int, t: int, widest: Optional[int] = None) -> int:
    """Exact number of partitions of n into at most t parts, each at most
    ``widest`` (default n), in O(n t).

    By conjugation these are the partitions of n into parts of size <= t,
    counted by adding the part sizes 1..t one at a time: the coefficient of
    q^n in prod_i 1/(1 - q^i).  A row cap multiplies in the factors
    (1 - q^(widest+i)) of the Gaussian binomial [widest+t choose t]_q.
    """
    counts = [1] + [0] * n
    for part in range(1, min(t, n) + 1):  # larger parts fit no partition of n
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
        if widest is not None:
            drop = widest + part
            for m in range(n, drop - 1, -1):
                counts[m] -= counts[m - drop]
    return counts[n]


def _check_block_budget(blocks: int, t: int) -> None:
    """Refuse an enumeration of more than MAX_BLOCKS blocks or MAX_LABEL_ENTRIES
    label entries (blocks * t)."""
    if blocks > MAX_BLOCKS:
        raise ValueError(
            f"{blocks} blocks exceed the enumeration budget of {MAX_BLOCKS} (MAX_BLOCKS)"
        )
    if blocks * t > MAX_LABEL_ENTRIES:
        raise ValueError(
            f"{blocks} blocks of {t} label entries each exceed the budget of "
            f"{MAX_LABEL_ENTRIES} label entries (MAX_LABEL_ENTRIES)"
        )


def weight_count(n: int, t: int) -> int:
    """Exact number of occupation vectors: binomial(n+t-1, t-1)."""
    return comb(n + t - 1, t - 1)
