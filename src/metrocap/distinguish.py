"""Distinguishability counts and estimation-radius bounds.

Two-sided bounds on the number of states distinguishable at error eps from
Renyi entropies, plus the sup-metric ball-volume argument converting a count
into a guaranteed estimation radius on the phase torus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .capacity import capacity
from .rep_core import Decomposition

_RADIUS_TOL = 1e-10


@dataclass(frozen=True)
class RenyiBounds:
    """Two-sided bracket on log M_eps.

    beta = 0 records the exact beta -> 0 limit of the upper bound.
    """

    alpha: float
    beta: float
    epsilon: float
    lower: float
    upper: float

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


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


def ball_volume_mp(radius: float, t: int) -> float:
    """Normalized volume of a sup-metric ball of given radius on the (t-1)-torus.

    Each axis contributes min(1, radius/pi); the whole torus has volume 1.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if t < 2:
        raise ValueError("t must be at least 2")
    return min(1.0, radius / math.pi) ** (t - 1)


def radius_bound(m: float, ball_volume: Callable[[float], float]) -> float:
    """Smallest radius whose ball volume reaches 1/m, by bisection to 1e-10.

    Any m >= 1 distinguishable states force the estimation radius below this
    value; ball_volume must be non-decreasing in the radius.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    target = 1.0 / m
    hi = 1.0
    while ball_volume(hi) < target:
        hi *= 2.0
        if hi > 1e30:
            raise ValueError("ball volume never reaches 1/m")
    lo = 0.0
    while hi - lo > _RADIUS_TOL:
        mid = 0.5 * (lo + hi)
        if ball_volume(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LatticeCodebook:
    """Uniform product lattice on the (t-1)-torus with N points per axis."""

    t: int
    N: int
    elements: tuple

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("t must be at least 2")
        if self.N < 1:
            raise ValueError("N must be positive")
        if len(self.elements) != self.N ** (self.t - 1):
            raise ValueError("element count must be N^(t-1)")

    def __len__(self) -> int:
        return len(self.elements)


def mp_lattice(n: int, t: int) -> LatticeCodebook:
    """The (n+1)-per-axis phase lattice {2 pi k / (n+1)} used at n copies.

    Its covering radius pi/(n+1) realizes the 1/n estimation scaling.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if t < 2:
        raise ValueError("t must be at least 2")
    N = n + 1
    axis = [2.0 * math.pi * k / N for k in range(N)]
    elements = tuple(itertools.product(axis, repeat=t - 1))
    return LatticeCodebook(t=t, N=N, elements=elements)
