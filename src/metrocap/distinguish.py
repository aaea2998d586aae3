"""Distinguishability brackets.

Two-sided bounds on the number of states distinguishable at error eps from
Renyi entropies (the ``bounds`` report).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .capacity import capacity
from .rep_core import Decomposition


class RenyiBounds(NamedTuple):
    """Two-sided bracket on log M_eps, as m_bounds_general made it from
    checked arguments.

    beta = 0 records the exact beta -> 0 limit of the upper bound.
    """

    alpha: float
    beta: float
    epsilon: float
    lower: float
    upper: float


def m_bounds_general(
    s_alpha: float, s_beta: float, alpha: float, beta: Optional[float], eps: float
) -> RenyiBounds:
    """Bracket log M_eps between Renyi entropies of the twirled state.

    lower: S_alpha - (log 2 - log eps)/(alpha - 1), for 1 < alpha <= 2.
    upper: S_beta + log(1 - eps)/(beta - 1), for 0 < beta < 1; beta=None
    takes its exact beta -> 0 limit S_beta - log(1 - eps), recorded as beta = 0.

    The caller has checked 0 < eps < 1.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if beta is None:
        beta = 0.0
    elif not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    lower = s_alpha - (math.log(2.0) - math.log(eps)) / (alpha - 1.0)
    upper = s_beta + math.log1p(-eps) / (beta - 1.0)
    return RenyiBounds(alpha, beta, eps, lower, upper)


def m_eps_capacity_bounds(decomp: Decomposition, eps: float) -> RenyiBounds:
    """The bracket at alpha = 2 and beta -> 0 of a flat twirled spectrum at
    R = capacity(decomp): every Renyi entropy of the optimal input is R."""
    r = capacity(decomp).value
    return m_bounds_general(r, r, 2.0, None, eps)
