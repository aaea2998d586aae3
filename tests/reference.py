"""Slow, independent references for the closed forms of the exact path.

The library computes tableau counts by the Frobenius formula, multinomials
by updating the neighbouring weight's, SU(t) dimensions by the Weyl product
and the sum of squared SU(t) dimensions by the Cauchy identity; the tests
check them against these brute computations, never against themselves.
"""

from math import factorial

from metrocap.rep_core import _partition_rows, _weyl_dim_rows


def hook_length_count(rows) -> int:
    """Standard Young tableaux of shape ``rows``: n! over the product of hook
    lengths, one box at a time."""
    rows = [r for r in rows if r > 0]
    if not rows:
        return 1
    col_heights = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    hooks = 1
    for i, row in enumerate(rows):
        for j in range(row):
            hooks *= (row - j) + (col_heights[j] - i) - 1
    return factorial(sum(rows)) // hooks


def enumerated_square_sum(n: int, t: int) -> int:
    """Sum of squared SU(t) Weyl dimensions over every partition of n into at
    most t rows, enumerated one partition at a time."""
    return sum(_weyl_dim_rows(rows) ** 2 for rows in _partition_rows(n, t))


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
