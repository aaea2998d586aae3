"""Slow, independent references for the closed forms and fast routes.

The library computes tableau counts by the Frobenius formula, multinomials
by updating the neighbouring weight's, SU(t) dimensions by the Weyl product
with its zero-row tail telescoped, the sum of squared SU(t) dimensions by the
Cauchy identity, the finite-reference SU(t) support as that sum minus the
deficit of the unsaturated shapes, walked from the first row, and the phase
twirl by exact weight equality, and writes report rows through one
%-template per report; the tests check them against these brute
computations, never against themselves.
"""

import itertools
import math
from fractions import Fraction
from math import factorial

import numpy as np

from metrocap.capacity import log_fraction
from metrocap.cli import _CSV
from metrocap.distinguish import mp_lattice
from metrocap.oracle import DensityOperator, _digit_counts, mp_unitary
from metrocap.rep_core import _partition_rows


def hook_length_count(rows) -> int:
    """Standard Young tableaux of shape ``rows``: n! over the product of hook
    lengths, one box at a time."""
    rows = [r for r in rows if r > 0]
    if not rows:
        return 1
    col_heights = [0] * rows[0]
    for row in rows:
        for j in range(row):
            col_heights[j] += 1
    hooks = math.prod([(row - j) + (col_heights[j] - i) - 1
                       for i, row in enumerate(rows) for j in range(row)])
    return factorial(sum(rows)) // hooks


def pairwise_weyl_dim(rows) -> int:
    """SU(t) dimension of the non-increasing ``rows`` (t = len(rows)) as the
    Weyl product of (r_i - r_j + j - i) / (j - i) over every pair i < j with
    an occupied row i."""
    t = len(rows)
    num = den = 1
    for i in range(t):
        if not rows[i]:
            break
        for j in range(i + 1, t):
            num *= rows[i] - rows[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def enumerated_square_sum(n: int, t: int) -> int:
    """Sum of squared SU(t) Weyl dimensions over every partition of n into at
    most t rows, enumerated one partition at a time."""
    return sum(pairwise_weyl_dim(rows) ** 2 for rows in _partition_rows(n, t))


def enumerated_su_support(n: int, t: int, l: int) -> int:
    """Finite-reference SU(t) support sum_lam d_lam min(l f_lam, d_lam) over
    every partition of n into at most t rows, from the pairwise Weyl product
    and the hook-length count."""
    total = 0
    for rows in _partition_rows(n, t):
        dim = pairwise_weyl_dim(rows)
        total += dim * min(l * hook_length_count(rows), dim)
    return total


def factorial_multinomial(counts) -> int:
    """n! / (c_0! c_1! ...) for n = sum(counts), from the factorials."""
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def ssyt_count(rows, t: int) -> int:
    """SU(t) dimension of the shape ``rows`` as the number of semistandard
    fillings with entries 1..t: rows weakly increase, columns strictly."""
    shape = [r for r in rows if r > 0]
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    filling = {}

    def rec(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, filling[(i, j - 1)])
        if i > 0:
            lo = max(lo, filling[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, t + 1):
            filling[(i, j)] = v
            total += rec(k + 1)
        filling.pop((i, j), None)
        return total

    return rec(0)


def block_state_mi(p, decomp) -> float:
    """Mutual information H(p) + sum_b p_b log(dim_b * eff_mult_b) in nats of
    the block distribution ``p``, a mapping from row labels to probabilities.

    Accepts exact fractions or floats for p.  Terms are grouped by the exact
    ratio (dim * eff_mult) / p_b before any float log is taken, so feeding the
    optimal distribution reproduces capacity().value bit for bit.
    """
    sizes = {label: dim * eff for label, dim, _, eff in decomp.rows}
    groups = {}
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


def grid_twirl(rho, n: int, t: int, N: int):
    """Phase twirl of ``rho`` as the average of U rho U^dagger over the grid
    of N points per phase axis.  Matrix elements depend on each phase through
    trigonometric polynomials of degree at most n, so any N >= n+1 gives the
    continuous Haar average; a smaller N aliases distinct weights."""
    counts = _digit_counts(n, t)
    if rho.ref_dim > 1:
        counts = np.repeat(counts, rho.ref_dim, axis=0)
    axis = 2.0 * np.pi * np.arange(N) / N
    thetas = np.array(list(itertools.product(axis, repeat=t - 1)))
    v = np.exp(1j * (counts @ thetas.T))  # dim x N^(t-1)
    mask = (v @ v.conj().T) / v.shape[1]  # 1 where weights agree, else averages to 0
    return DensityOperator(rho.matrix * mask, n=n, t=t, ref_dim=rho.ref_dim)


def lattice_unitaries(n: int, t: int = 2) -> list:
    """The local unitaries of the phase lattice codebook of ``mp_lattice(n, t)``,
    the codebook form ``srm_discrimination`` takes."""
    return [mp_unitary(theta, t) for theta in mp_lattice(n, t).elements]


def renyi_entropy(spectrum, alpha: float) -> float:
    """Order-alpha Renyi entropy of a probability spectrum, in nats.

    alpha must be positive and not 1; eigenvalues below 1e-12 are dropped.
    """
    if alpha <= 0 or alpha == 1:
        raise ValueError(f"alpha must be positive and not 1, got {alpha}")
    if any(p < -1e-12 for p in spectrum):
        raise ValueError("spectrum has a negative weight")
    total = math.fsum(max(p, 0.0) for p in spectrum)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"spectrum sums to {total}, not 1")
    z = math.fsum(p**alpha for p in spectrum if p > 1e-12)
    return math.log(z) / (1.0 - alpha)


def shannon_entropy(spectrum) -> float:
    """-sum p log p over weights above 1e-12, in nats."""
    total = math.fsum(max(p, 0.0) for p in spectrum)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"spectrum sums to {total}, not 1")
    return -math.fsum(p * math.log(p) for p in spectrum if p > 1e-12)


def torus_distance(x, y) -> float:
    """Sup-metric distance on the torus, each axis modulo 2 pi."""
    if len(x) != len(y):
        raise ValueError("phase vectors must have equal length")
    worst = 0.0
    for a, b in zip(x, y):
        d = math.fmod(abs(a - b), 2.0 * math.pi)
        worst = max(worst, min(d, 2.0 * math.pi - d))
    return worst


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):  # a label
        return "|".join(map(str, value))
    return str(value)


def report_to_csv(report: dict) -> str:
    """CSV of a parsed JSON report, one dict row and one cell at a time; a
    column that a row lacks is read from the report itself."""
    key, header = _CSV[report["command"]]
    header = header.format(u="nats" if report.get("log_base", "e") == "e" else "bits")
    lines = [header]
    for row in report[key] if key else [report]:
        lines.append(",".join(_csv_cell(row[c] if c in row else report[c])
                              for c in header.split(",")))
    return "\n".join(lines) + "\n"
