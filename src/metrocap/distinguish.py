"""Distinguishability brackets.

Two-sided bounds on the number of states distinguishable at error eps from
Renyi entropies (the ``bounds`` report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capacity import capacity
from .rep_core import Decomposition


@dataclass(frozen=True)
class RenyiBounds:
    """Two-sided bracket on log M_eps, as m_bounds_general or m_eps_bounds
    made it from checked arguments.

    beta = 0 records the exact beta -> 0 limit of the upper bound.
    """

    alpha: float
    beta: float
    epsilon: float
    lower: float
    upper: float


def m_bounds_general(
    s_alpha: float, s_beta: float, alpha: float, beta: float, eps: float
) -> RenyiBounds:
    """Bracket log M_eps between Renyi entropies of the twirled state.

    lower: S_alpha - (log 2 - log eps)/(alpha - 1), for 1 < alpha <= 2.
    upper: S_beta + log(1 - eps)/(beta - 1), for 0 < beta < 1.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lower = s_alpha - (math.log(2.0) - math.log(eps)) / (alpha - 1.0)
    upper = s_beta + math.log1p(-eps) / (beta - 1.0)
    return RenyiBounds(alpha, beta, eps, lower, upper)


def m_eps_capacity_bounds(decomp: Decomposition, eps: float) -> RenyiBounds:
    """Capacity-based bracket of ``m_eps_bounds`` at R = capacity(decomp)."""
    return m_eps_bounds(capacity(decomp).value, eps)


def m_eps_bounds(r: float, eps: float) -> RenyiBounds:
    """Capacity-based bracket: all Renyi entropies of the optimal twirled state
    coincide with the capacity r, so alpha = 2 and the beta -> 0 limit give

        r - (log 2 - log eps) <= log M_eps <= r - log(1 - eps).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lower = r - (math.log(2.0) - math.log(eps))
    upper = r - math.log1p(-eps)
    return RenyiBounds(2.0, 0.0, eps, lower, upper)

