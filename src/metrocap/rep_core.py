"""Exact irrep bookkeeping for the two tensor-power metrology models.

Enumerates the irreducible blocks that appear when a diagonal-phase group
or SU(t) acts on n copies of a t-dimensional system, together with exact
dimensions, multiplicities and reference-limited effective multiplicities.
Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator, Union


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

# Most blocks an enumeration may build; larger ones are refused before they
# start.  A block costs 6-25 us at n <= 500 on a 2-vCPU Xeon VM (Python 3.11),
# but its integers grow with n: at t = 3 near the budget a mp block (n = 1400)
# costs about 90 us and a su block (n = 3400) about 0.34 ms, so the largest
# admitted requests run for minutes.
MAX_BLOCKS = 1_000_000


@dataclass(frozen=True)
class Partition:
    """Young diagram: non-increasing non-negative rows, zero-padded."""

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(map(int, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("partition needs at least one row slot")
        if min(rows) < 0:
            raise ValueError(f"negative row in {rows}")
        if any(map(int.__lt__, rows, rows[1:])):
            raise ValueError(f"rows must be non-increasing, got {rows}")

    @property
    def n(self) -> int:
        """Total number of boxes."""
        return sum(self.rows)

    @property
    def t(self) -> int:
        """Row budget (including trailing zero rows)."""
        return len(self.rows)

    def padded(self, t: int) -> tuple[int, ...]:
        """Rows as a length-t tuple; error if more than t rows are occupied."""
        occupied = [r for r in self.rows if r > 0]
        if len(occupied) > t:
            raise ValueError(f"{self.rows} has more than {t} nonzero rows")
        return tuple(occupied) + (0,) * (t - len(occupied))

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Partition{self.rows}"


@dataclass(frozen=True)
class WeightVector:
    """Occupation numbers (n_0, ..., n_{t-1}) of the t levels."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(map(int, self.counts))
        object.__setattr__(self, "counts", counts)
        if not counts:
            raise ValueError("weight vector needs at least one component")
        if min(counts) < 0:
            raise ValueError(f"negative count in {counts}")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def t(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __repr__(self) -> str:
        return f"WeightVector{self.counts}"


Label = Union[Partition, WeightVector]


@dataclass(frozen=True)
class IrrepEntry:
    """One isotypic block: label, dimension, multiplicity, effective multiplicity."""

    label: Label
    dim: int
    mult: int
    eff_mult: int

    def __post_init__(self):
        if self.dim < 1 or self.mult < 1:
            raise ValueError("dim and mult must be positive")
        if not 1 <= self.eff_mult <= self.dim:
            raise ValueError(
                f"eff_mult {self.eff_mult} outside [1, dim={self.dim}]"
            )


@dataclass(frozen=True)
class Decomposition:
    """Full isotypic decomposition of one model at given (n, t, l)."""

    model: Model
    n: int
    t: int
    l: RefSize
    entries: tuple[IrrepEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate irrep labels")
        if self.model is Model.MULTI_PHASE:
            if any(e.dim != 1 for e in self.entries):
                raise ValueError("multi-phase blocks must be one-dimensional")
            if sum(e.mult for e in self.entries) != self.t**self.n:
                raise ValueError("multiplicities do not fill the full space")
        else:
            if sum(e.dim * e.mult for e in self.entries) != self.t**self.n:
                raise ValueError("blocks do not fill the full space")

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.value,
            "n": self.n,
            "t": self.t,
            "l": "inf" if isinstance(self.l, _UnboundedType) else self.l,
            "entries": [
                {
                    "label": list(e.label),
                    "dim": str(e.dim),
                    "mult": str(e.mult),
                    "eff_mult": str(e.eff_mult),
                }
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _partition_rows(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """Raw row tuples of all partitions of n into at most t parts.

    Lexicographically descending, zero-padded to length t.
    """

    def rec(rem: int, rowsleft: int, maxpart: int) -> Iterator[tuple[int, ...]]:
        if rowsleft == 1:
            yield (rem,)
            return
        lo = -(-rem // rowsleft)  # smallest feasible leading part
        for v in range(min(rem, maxpart), lo - 1, -1):
            for tail in rec(rem - v, rowsleft - 1, v):
                yield (v,) + tail

    yield from rec(n, t, n)


def _weyl_dim_rows(rows: tuple[int, ...]) -> int:
    """Exact dimension from the pairwise row/offset product."""
    t = len(rows)
    num = 1
    den = 1
    for i in range(t):
        ri = rows[i]
        for j in range(i + 1, t):
            num *= ri - rows[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:  # the product is always divisible; guard against misuse
        raise ArithmeticError(f"non-integer dimension for rows {rows}")
    return q


def enumerate_partitions(n: int, t: int) -> list[Partition]:
    """All partitions of n into at most t parts.

    Canonical non-increasing rows, zero-padded to length t, returned in
    lexicographically descending order without duplicates.
    """
    if t < 1:
        raise ValueError("row budget t must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    return [Partition(rows) for rows in _partition_rows(n, t)]


def weyl_dimension(lam: Partition, t: int) -> int:
    """Dimension of the SU(t) irrep labelled by ``lam``, as an exact integer."""
    if t < 1:
        raise ValueError("t must be at least 1")
    return _weyl_dim_rows(lam.padded(t))


def multiplicity_su(lam: Partition, n: int) -> int:
    """Number of standard Young tableaux of shape ``lam``, by the Frobenius
    formula n! * prod_{i<j} (l_i - l_j) / prod_i l_i! over the k occupied
    rows, with shifted lengths l_i = lam_i + k - 1 - i.

    The l_i sum to n + k(k-1)/2, so n! / prod l_i! is taken as the multinomial
    of the l_i (a running product of binomials) over (n+1)...(sum l_i): the one
    division is by a product of k(k-1)/2 small factors.
    """
    if lam.n != n:
        raise ValueError(f"partition fills {lam.n} boxes, expected {n}")
    rows = [r for r in lam.rows if r > 0]
    k = len(rows)
    shifted = [r + k - 1 - i for i, r in enumerate(rows)]
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
        raise ArithmeticError(f"non-integer tableau count for rows {lam.rows}")
    return q


def _weight_rows(n: int, t: int) -> Iterator[tuple[int, ...]]:
    if t == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for tail in _weight_rows(n - first, t - 1):
            yield (first,) + tail


def enumerate_weights(n: int, t: int) -> list[WeightVector]:
    """All occupation vectors of n excitations over t levels, lexicographically
    descending; there are binomial(n+t-1, t-1) of them."""
    if t < 1:
        raise ValueError("dimension t must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    return [WeightVector(c) for c in _weight_rows(n, t)]


def multiplicity_mp(weight: WeightVector) -> int:
    """Multinomial coefficient n! / (n_0! ... n_{t-1}!), as a running product
    of binomials C(n_0 + ... + n_k, n_k)."""
    out = 1
    filled = 0
    for c in weight.counts:
        filled += c
        out *= comb(filled, c)
    return out


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


def decompose(model: Union[Model, str], n: int, t: int, l: RefSize) -> Decomposition:
    """Full isotypic list for one model with a reference system of size l.

    Effective multiplicities are min(l * mult, dim); UNBOUNDED saturates every
    block at its full dimension.
    """
    model = _check_config(model, n, t, l)
    mp = model is Model.MULTI_PHASE
    _check_block_budget(weight_count(n, t) if mp else partition_count(n, t))
    unbounded = isinstance(l, _UnboundedType)
    entries = []
    if mp:
        for counts in _weight_rows(n, t):
            w = WeightVector(counts)
            entries.append(IrrepEntry(w, 1, multiplicity_mp(w), 1))
    else:
        for rows in _partition_rows(n, t):
            lam = Partition(rows)
            dim = _weyl_dim_rows(rows)
            mult = multiplicity_su(lam, n)
            eff = dim if unbounded else min(l * mult, dim)
            entries.append(IrrepEntry(lam, dim, mult, eff))
    return Decomposition(model, n, t, l, tuple(entries))


def partition_count(n: int, t: int) -> int:
    """Exact number of partitions of n into at most t parts, in O(n t).

    By conjugation these are the partitions of n into parts of size <= t,
    counted by adding the part sizes 1..t one at a time.
    """
    counts = [1] + [0] * n
    for part in range(1, t + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def _check_block_budget(blocks: int) -> None:
    """Refuse an enumeration of more than MAX_BLOCKS blocks."""
    if blocks > MAX_BLOCKS:
        raise ValueError(
            f"{blocks} blocks exceed the enumeration budget of {MAX_BLOCKS} (MAX_BLOCKS)"
        )


def weight_count(n: int, t: int) -> int:
    """Exact number of occupation vectors: binomial(n+t-1, t-1)."""
    return comb(n + t - 1, t - 1)
