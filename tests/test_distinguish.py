import math

import numpy as np
import pytest

from metrocap.capacity import capacity
from metrocap.distinguish import (
    LatticeCodebook,
    RenyiBounds,
    ball_volume_mp,
    m_bounds_general,
    m_eps_capacity_bounds,
    mp_lattice,
    radius_bound,
    renyi_entropy,
    shannon_entropy,
    torus_distance,
)
from metrocap.rep_core import UNBOUNDED, decompose

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- entropies

def test_renyi_flat_and_pure():
    for alpha in (0.3, 0.5, 1.5, 2.0):
        assert abs(renyi_entropy([0.25] * 4, alpha) - math.log(4)) < 1e-12
        assert abs(renyi_entropy([1.0, 0.0, 0.0], alpha)) < 1e-12


def test_renyi_known_value():
    # (3/4, 1/4) at alpha=2: -log(10/16)
    got = renyi_entropy([0.75, 0.25], 2.0)
    assert abs(got - math.log(16.0 / 10.0)) < 1e-12


def test_renyi_approaches_shannon():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        s1 = shannon_entropy(p)
        assert abs(renyi_entropy(p, 1.0 + 1e-4) - s1) < 1e-3
        assert abs(renyi_entropy(p, 1.0 - 1e-4) - s1) < 1e-3


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = rng.dirichlet(np.ones(5))
        s1 = shannon_entropy(p)
        for alpha in (1.2, 1.7, 2.0):
            assert renyi_entropy(p, alpha) <= s1 + 1e-12
        for beta in (0.2, 0.5, 0.9):
            assert renyi_entropy(p, beta) >= s1 - 1e-12


def test_renyi_validation():
    with pytest.raises(ValueError):
        renyi_entropy([0.5, 0.5], 1.0)
    with pytest.raises(ValueError):
        renyi_entropy([0.5, 0.5], 0.0)
    with pytest.raises(ValueError):
        renyi_entropy([0.7, 0.2], 2.0)  # not normalized
    with pytest.raises(ValueError):
        renyi_entropy([1.1, -0.1], 2.0)
    # tiny negatives are clamped, not fatal
    assert abs(renyi_entropy([1.0 + 1e-13, -1e-13], 2.0)) < 1e-10


# ---------------------------------------------------------------- M bounds

def test_m_bounds_general_flat():
    d = 1024
    b = m_bounds_general(math.log(d), math.log(d), 2.0, 0.5, 0.5)
    assert abs(b.lower - (math.log(d) - 2.0 * math.log(2))) < 1e-12
    assert b.upper >= math.log(d)  # log(1-eps)/(beta-1) > 0


def test_m_bounds_general_eps_limits():
    lo_mid = m_bounds_general(5.0, 5.0, 2.0, 0.5, 0.5)
    lo_close = m_bounds_general(5.0, 5.0, 2.0, 0.5, 0.999)
    assert lo_close.lower > lo_mid.lower  # lower -> S_alpha as eps -> 1
    assert lo_close.upper > lo_mid.upper  # upper -> +inf


def test_m_bounds_general_validation():
    for alpha, beta, eps in [
        (1.0, 0.5, 0.5),
        (2.5, 0.5, 0.5),
        (2.0, 0.0, 0.5),
        (2.0, 1.0, 0.5),
        (2.0, 0.5, 0.0),
        (2.0, 0.5, 1.0),
    ]:
        with pytest.raises(ValueError):
            m_bounds_general(1.0, 1.0, alpha, beta, eps)


def test_renyi_bounds_type_validation():
    RenyiBounds(2.0, 0.0, 0.5, 0.0, 1.0)  # beta=0 marks the exact limit
    with pytest.raises(ValueError):
        RenyiBounds(1.0, 0.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        RenyiBounds(2.0, 1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        RenyiBounds(2.0, 0.0, 0.0, 0.0, 1.0)


def test_m_eps_capacity_bounds_known():
    b = m_eps_capacity_bounds(decompose("mp", 3, 2, 1), 0.5)
    assert abs(b.lower - 0.0) < 1e-12
    assert abs(b.upper - math.log(8)) < 1e-12
    b = m_eps_capacity_bounds(decompose("su", 2, 2, UNBOUNDED), 0.5)
    assert abs(b.lower - math.log(2.5)) < 1e-12
    assert abs(b.upper - math.log(20)) < 1e-12


def test_m_eps_gap_is_model_independent():
    for model, n, t, l, eps in [
        ("mp", 3, 2, 1, 0.1),
        ("su", 4, 2, UNBOUNDED, 0.1),
        ("su", 3, 3, 2, 0.25),
    ]:
        b = m_eps_capacity_bounds(decompose(model, n, t, l), eps)
        gap = (math.log(2) - math.log(eps)) - math.log1p(-eps)
        assert abs((b.upper - b.lower) - gap) < 1e-12


def test_m_eps_bracket_contains_capacity_shift():
    d = decompose("su", 5, 2, UNBOUNDED)
    r = capacity(d).value
    b = m_eps_capacity_bounds(d, 0.1)
    assert b.lower < r < b.upper


# ---------------------------------------------------------------- geometry

def test_ball_volume_values():
    assert ball_volume_mp(math.pi, 2) == 1.0
    assert ball_volume_mp(4.0, 5) == 1.0
    assert abs(ball_volume_mp(math.pi / 2, 2) - 0.5) < 1e-15
    assert abs(ball_volume_mp(math.pi / 2, 3) - 0.25) < 1e-15
    assert ball_volume_mp(0.0, 2) == 0.0
    with pytest.raises(ValueError):
        ball_volume_mp(-0.1, 2)
    with pytest.raises(ValueError):
        ball_volume_mp(1.0, 1)


def test_radius_bound_values():
    assert abs(radius_bound(1.0, lambda r: ball_volume_mp(r, 2)) - math.pi) < 1e-9
    assert abs(radius_bound(5.0, lambda r: ball_volume_mp(r, 2)) - math.pi / 5) < 1e-9
    assert abs(radius_bound(25.0, lambda r: ball_volume_mp(r, 3)) - math.pi / 5) < 1e-9


def test_radius_bound_composed_with_volume():
    for t in (2, 3, 4):
        for m in (2.0, 7.0, 100.0, 12345.0):
            got = radius_bound(m, lambda r: ball_volume_mp(r, t))
            assert abs(got - math.pi / m ** (1.0 / (t - 1))) < 1e-9


def test_radius_bound_validation():
    with pytest.raises(ValueError):
        radius_bound(0.5, lambda r: ball_volume_mp(r, 2))
    with pytest.raises(ValueError):
        radius_bound(2.0, lambda r: 0.0)  # volume never reaches 1/m


# ---------------------------------------------------------------- lattice

def test_mp_lattice_small():
    lat = mp_lattice(3, 2)
    phases = sorted(theta[0] for theta in lat.elements)
    expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert all(abs(a - b) < 1e-15 for a, b in zip(phases, expected))
    assert abs(lat.covering_radius() - math.pi / 4) < 1e-15

    lat1 = mp_lattice(1, 2)
    assert sorted(th[0] for th in lat1.elements) == [0.0, math.pi]
    assert abs(lat1.covering_radius() - math.pi / 2) < 1e-15

    lat9 = mp_lattice(2, 3)
    assert len(lat9) == 9
    assert abs(lat9.covering_radius() - math.pi / 3) < 1e-15


def test_lattice_type_validation():
    with pytest.raises(ValueError):
        LatticeCodebook(t=2, N=3, elements=((0.0,),))
    with pytest.raises(ValueError):
        mp_lattice(0, 2)
    with pytest.raises(ValueError):
        mp_lattice(3, 1)


def test_lattice_closed_under_addition():
    for n, t in [(2, 2), (3, 2), (2, 3)]:
        lat = mp_lattice(n, t)
        keyed = {tuple(round(p / (TWO_PI / lat.N)) % lat.N for p in th) for th in lat.elements}
        for a in lat.elements:
            for b in lat.elements:
                s = tuple((x + y) % TWO_PI for x, y in zip(a, b))
                key = tuple(round(p / (TWO_PI / lat.N)) % lat.N for p in s)
                assert key in keyed


def test_lattice_covers_at_covering_radius():
    rng = np.random.default_rng(17)
    for n, t in [(4, 2), (3, 3)]:
        lat = mp_lattice(n, t)
        for _ in range(200):
            point = rng.uniform(0.0, TWO_PI, size=t - 1)
            nearest = min(torus_distance(point, el) for el in lat.elements)
            assert nearest <= lat.covering_radius() + 1e-12


def test_lattice_packing_inequality():
    # |codebook| * B(packing radius) <= 1, with equality for this lattice
    for n, t in [(1, 2), (4, 2), (2, 3), (3, 3)]:
        lat = mp_lattice(n, t)
        packing = math.pi / lat.N  # half the nearest-neighbor distance 2pi/N
        assert len(lat) * ball_volume_mp(packing, t) <= 1.0 + 1e-12


def test_torus_distance():
    assert abs(torus_distance([0.1], [TWO_PI - 0.1]) - 0.2) < 1e-12
    assert torus_distance([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert abs(torus_distance([0.5, 1.0], [0.5, 2.0]) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        torus_distance([0.0], [0.0, 1.0])


def test_lattice_json():
    lat = mp_lattice(1, 3)
    assert lat.to_json_list() == [[0.0, 0.0], [0.0, math.pi], [math.pi, 0.0], [math.pi, math.pi]]
