"""Acceptance gate: the twelve headline checks, one pass/fail line each.

Run under pytest, or directly (python3 tests/test_acceptance.py) for a plain
numbered report.  Tolerances are pinned here and nowhere else.
"""

import math
import time
import warnings
from fractions import Fraction

import pytest

from metrocap.capacity import capacity_support, log_integer, scaling_fit, su_square_sum
from metrocap.distinguish import m_eps_capacity_bounds
from metrocap.oracle import (
    empirical_mi,
    lattice_srm_success,
    mp_optimal_state,
    mp_twirl,
    noon_state,
    pure_density,
    su2_optimal_state,
    su2_twirl,
    twirled_spectrum,
    von_neumann_entropy,
)
from metrocap.rep_core import UNBOUNDED, _weyl_dim_rows, decompose
from reference import (
    ball_volume_mp,
    enumerated_square_sum,
    fano_bound,
    gapped_partitions,
    lattice_unitaries,
    radius_bound,
    srm_discrimination,
    su_lower_bound,
)

CRITERIA = []


def mp_capacity(n, t):
    """The mp capacity a scaling row reports: log C(n+t-1, t-1)."""
    return log_integer(capacity_support("mp", n, t, 1))


def su_capacity(n, t):
    """The su capacity a scaling row reports, at an unbounded reference:
    log sum_lam dim_lam^2."""
    return log_integer(capacity_support("su", n, t, UNBOUNDED))


def criterion(number, description):
    def register(fn):
        CRITERIA.append((number, description, fn))
        return fn

    return register


@criterion(1, "exact closed forms match the integer dimension sums, n = 1..1000, < 1 s")
def check_su2_closed_forms():
    start = time.perf_counter()
    for n in range(1, 1001):
        expected = enumerated_square_sum(n, 2)
        closed = (n + 1) * (n + 2) * (n + 3) // 6
        assert su_square_sum(n, 2) == closed == expected, f"mismatch at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.2f} s"


@criterion(2, "asymptote residual |log sum - (3 log n - log 6)| <= 7/n for 10 <= n <= 1000")
def check_asymptote_residual():
    for n in range(10, 1001):
        r = abs(log_integer(su_square_sum(n, 2)) - (3.0 * math.log(n) - math.log(6.0)))
        assert r <= 7.0 / n, f"residual {r} above 7/{n}"


@criterion(3, "SU capacity slope over n in [100, 300]: 3 +- 0.15 (t=2), 8 +- 0.5 (t=3), < 30 s")
def check_su_slopes():
    start = time.perf_counter()
    ns = range(100, 301, 10)
    slope2 = scaling_fit([(n, su_capacity(n, 2)) for n in ns])
    assert abs(slope2 - 3.0) <= 0.15, f"t=2 slope {slope2}"
    slope3 = scaling_fit([(n, su_capacity(n, 3)) for n in ns])
    assert abs(slope3 - 8.0) <= 0.5, f"t=3 slope {slope3}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"slopes took {elapsed:.2f} s"


@criterion(4, "MP capacity slope over n in [100, 1000]: (t-1) +- 0.1 for t in {2,3,4}")
def check_mp_slopes():
    for t in (2, 3, 4):
        slope = scaling_fit([(n, mp_capacity(n, t)) for n in range(100, 1001, 25)])
        assert abs(slope - (t - 1)) <= 0.1, f"t={t} slope {slope}"


@criterion(5, "su_capacity(n, t) <= (t^2 - 1) log(n+1) for n <= 100, t in {2,3}")
def check_dimension_count_bound():
    for t in (2, 3):
        for n in range(1, 101):
            assert su_capacity(n, t) <= (t * t - 1) * math.log(n + 1) + 1e-12


@criterion(6, "gapped-partition lower bound <= capacity, with per-block dimension floor")
def check_su_lower_bound():
    admissible = 0
    for t in (2, 3):
        for a in (Fraction(2), Fraction(5, 2), Fraction(3)):
            for n in range(6 * t, 121, 6 * t):
                if (Fraction(n) / (a * t)).denominator != 1:
                    continue
                admissible += 1
                bound = su_lower_bound(n, t, a)
                assert bound <= su_capacity(n, t) + 1e-12, (n, t, a)
                floor = (Fraction(n) / (a * t * t)) ** (t * (t - 1) // 2)
                for rows in gapped_partitions(n, t, a):
                    assert Fraction(_weyl_dim_rows(rows)) >= floor, (rows, n, t, a)
    assert admissible >= 30, f"only {admissible} admissible (n, t, a) combinations"


@criterion(7, "MP twirl entropies: step state -> log(n+1), NOON -> log 2, within 1e-9, n <= 8")
def check_mp_twirl_entropies():
    for n in range(1, 9):
        flat = von_neumann_entropy(mp_twirl(pure_density(mp_optimal_state(n)), n, 2))
        assert abs(flat - math.log(n + 1)) <= 1e-9, (n, flat)
        noon = von_neumann_entropy(mp_twirl(pure_density(noon_state(n)), n, 2))
        assert abs(noon - math.log(2)) <= 1e-9, (n, noon)


@criterion(8, "SU(2) twirl of the optimal state matches capacity log C(n+3, 3): "
              "dense twirl n <= 6 within 1e-6, block route n <= 12 within 1e-12")
def check_su2_twirl_entropies():
    for n in range(1, 13):
        r = su_capacity(n, 2)
        assert r == math.log(math.comb(n + 3, 3)), (n, r)
        psi = su2_optimal_state(n)
        s = empirical_mi(twirled_spectrum(psi, "su", n, 2))
        assert abs(s - r) <= 1e-12, (n, s, r)
        if n <= 6:
            s = von_neumann_entropy(su2_twirl(pure_density(psi), n))
            assert abs(s - r) <= 1e-6, (n, s, r)


def _lattice_runs(psi, n):
    """(M, SRM success, twirled entropy) of the lattice codebook at n copies,
    once from the closed form simulate uses and once from the dense Gram
    matrix of the coded states."""
    spectrum = twirled_spectrum(psi, "mp", n, 2)
    mi = empirical_mi(spectrum)
    return [(n + 1, lattice_srm_success(spectrum, n, 2), mi),
            (n + 1, srm_discrimination(lattice_unitaries(n), psi, n, 2), mi)]


@criterion(9, "SRM success 1 within 1e-9 on the Fourier codebook; log(n+1) inside the bracket")
def check_srm_achievability():
    for n in range(1, 9):
        for _, success, _ in _lattice_runs(mp_optimal_state(n), n):
            assert abs(success - 1.0) <= 1e-9, (n, success)
        log_m = math.log(n + 1)
        for eps in (0.1, 0.5):
            b = m_eps_capacity_bounds(decompose("mp", n, 2, 1), eps)
            assert b.lower <= log_m <= b.upper, (n, eps, b)


@criterion(10, "Fano consistency: log M <= (log 2 + MI)/(1 - observed error) for every run")
def check_fano_consistency():
    runs = []
    for n in range(1, 9):
        runs += _lattice_runs(mp_optimal_state(n), n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rank-deficient NOON runs
        for n in range(2, 9):
            runs += _lattice_runs(noon_state(n), n)
    for m, success, mi in runs:
        observed_error = max(0.0, 1.0 - success)
        assert math.log(m) <= fano_bound(mi, observed_error) + 1e-9, (m, success, mi)


@criterion(11, "symmetric-subspace value 2 log(n+1) < su_capacity(n, 2) for 2 <= n <= 100")
def check_symmetric_subspace_comparison():
    assert 2.0 * math.log(2) == su_capacity(1, 2)
    for n in range(2, 101):
        assert 2.0 * math.log(n + 1) < su_capacity(n, 2), n


@criterion(12, "radius bound pi/(n+1) within 1e-9 up to n = 10^4: O(1/n) estimation radius")
def check_radius_scaling():
    ns = list(range(1, 101, 7)) + [100, 500, 1000, 2000, 5000, 10000]
    for t in (2, 3):
        for n in ns:
            m = float((n + 1) ** (t - 1))
            r = radius_bound(m, lambda x: ball_volume_mp(x, t))
            assert abs(r - math.pi / (n + 1)) <= 1e-9, (t, n, r)


@pytest.mark.parametrize(
    "number,description,fn",
    CRITERIA,
    ids=[f"criterion_{number:02d}" for number, _, _ in CRITERIA],
)
def test_acceptance(number, description, fn):
    fn()
    print(f"criterion {number:2d} PASS - {description}")


def _main():
    failures = 0
    for number, description, fn in CRITERIA:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"criterion {number:2d} FAIL - {description}: {exc}")
        else:
            print(f"criterion {number:2d} PASS - {description}")
    return failures


if __name__ == "__main__":
    raise SystemExit(1 if _main() else 0)
