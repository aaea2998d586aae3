"""Slow, independent references for the closed forms of the exact path.

The library computes tableau counts by the Frobenius formula and the sum of
squared SU(t) dimensions by the Cauchy identity; the tests check both against
these brute computations, never against the closed forms themselves.
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
