import ast
import math
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest

from metrocap import oracle
from metrocap.capacity import capacity, su_square_sum
from metrocap.oracle import (
    _EIG_FLOOR,
    DensityOperator,
    PureState,
    empirical_mi,
    mp_optimal_state,
    lattice_srm_success,
    mp_twirl,
    noon_state,
    pure_density,
    random_pure_state,
    schur_basis_su2,
    su2_optimal_state,
    su2_twirl,
    twirled_spectrum,
)
from metrocap.rep_core import UNBOUNDED, decompose
from reference import (
    dense_entropy,
    grid_twirl,
    haar_su2,
    lattice_unitaries,
    mp_unitary,
    schur_basis_su2_dense,
    srm_discrimination,
    tensor_power_apply,
)


def tensor_power(u, n):
    out = u
    for _ in range(n - 1):
        out = np.kron(out, u)
    return out


# ---------------------------------------------------------------- independence

def test_oracle_imports_nothing_from_the_package():
    """The oracle checks the exact layers only while it shares no code with
    them: no relative import, and no import of metrocap."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [name for name in imported
                if name.startswith(".") or name.split(".")[0] == "metrocap"]


# ---------------------------------------------------------------- types

def test_pure_state_validation():
    PureState(np.array([1.0, 0.0]), n=1, t=2)
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), n=1, t=2)  # norm sqrt(2)
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0, 0.0]), n=1, t=2)  # wrong length


def test_density_operator_validation():
    DensityOperator(np.eye(2) / 2, n=1, t=2)
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2), n=1, t=2)  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.3], [0.1, 0.5]]), n=1, t=2)  # not hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(4) / 4, n=1, t=2)  # dims metadata mismatch


def test_density_operator_psd_check():
    """A hermitian operator of trace 1 is accepted; its entropy refuses a
    negative eigenvalue."""
    rho = DensityOperator(np.diag([1.5, -0.5]), n=1, t=2)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        empirical_mi(np.linalg.eigvalsh(rho.matrix))
    with pytest.raises(ValueError, match="deviates from 1"):
        empirical_mi(np.array([0.5, 0.6]))
    assert empirical_mi(np.linalg.eigvalsh(np.diag([0.5, 0.5]))) == math.log(2)


# ---------------------------------------------------------------- unitaries

def test_mp_unitary_values():
    assert np.allclose(mp_unitary([0.0], 2), np.eye(2))
    assert np.allclose(mp_unitary([math.pi], 2), np.diag([1.0, -1.0]))
    assert np.allclose(
        mp_unitary([math.pi / 2, math.pi], 3), np.diag([1.0, 1j, -1.0])
    )
    with pytest.raises(ValueError):
        mp_unitary([0.1, 0.2], 2)


def test_tensor_power_apply_identity_and_phase():
    psi = noon_state(2)
    out = tensor_power_apply(np.eye(2), 2, psi)
    assert np.allclose(out.amplitudes, psi.amplitudes)

    eleven = PureState(np.array([0, 0, 0, 1.0]), n=2, t=2)
    out = tensor_power_apply(np.diag([1.0, -1.0]), 2, eleven)
    assert np.allclose(out.amplitudes, eleven.amplitudes)  # (-1)^2 = 1


def test_tensor_power_apply_weight_phases():
    theta = 0.7331
    psi = mp_optimal_state(3)
    out = tensor_power_apply(mp_unitary([theta], 2), 3, psi)
    support = [2**k - 1 for k in range(4)]  # k trailing ones
    expected = np.exp(1j * theta * np.arange(4)) / 2.0
    assert np.allclose(out.amplitudes[support], expected)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_tensor_power_apply_leaves_reference_alone():
    ref = 3
    local = np.zeros(4, dtype=complex)
    local[1] = 1.0
    amps = np.kron(local, np.eye(ref)[2])
    psi = PureState(amps, n=2, t=2, ref_dim=ref)
    u = haar_su2(np.random.default_rng(3))
    out = tensor_power_apply(u, 2, psi)
    expected = np.kron(tensor_power(u, 2) @ local, np.eye(ref)[2])
    assert np.allclose(out.amplitudes, expected)


def test_tensor_power_apply_validation():
    psi = noon_state(2)
    with pytest.raises(ValueError):
        tensor_power_apply(np.eye(3), 2, psi)
    with pytest.raises(ValueError):
        tensor_power_apply(np.eye(2), 3, psi)


# ---------------------------------------------------------------- states

def test_mp_optimal_state_amplitudes():
    psi = mp_optimal_state(2)
    # strings 00, 01, 11 at indices 0, 1, 3
    expected = np.zeros(4, dtype=complex)
    expected[[0, 1, 3]] = 1.0 / math.sqrt(3)
    assert np.allclose(psi.amplitudes, expected)
    assert mp_optimal_state(1).amplitudes == pytest.approx(
        noon_state(1).amplitudes
    )


def test_noon_state_support():
    psi = noon_state(3)
    assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(psi.amplitudes[7] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(psi.amplitudes) == 2


def test_noon_bs4_overlap():
    for n in range(1, 9):
        ov = abs(np.vdot(noon_state(n).amplitudes, mp_optimal_state(n).amplitudes)) ** 2
        assert abs(ov - 2.0 / (n + 1)) < 1e-12


def test_state_caps():
    with pytest.raises(ValueError):
        mp_optimal_state(13)  # 2^13 > 4096
    with pytest.raises(ValueError):
        noon_state(0)
    with pytest.raises(ValueError):
        su2_optimal_state(13)


# ---------------------------------------------------------------- mp twirl

def test_mp_twirl_fixes_invariant_state():
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    rho = pure_density(PureState(zero, n=3, t=2))
    out = mp_twirl(rho, 3, 2)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


def test_mp_twirl_entropies():
    for n in range(1, 9):
        flat = dense_entropy(mp_twirl(pure_density(mp_optimal_state(n)), n, 2))
        assert abs(flat - math.log(n + 1)) < 1e-9
        two = dense_entropy(mp_twirl(pure_density(noon_state(n)), n, 2))
        assert abs(two - math.log(2)) < 1e-9


def test_mp_twirl_grid_exactness():
    """The weight-equality mask against the Haar average over a phase grid,
    exact from n+1 points per axis; n points alias weights n apart."""
    rng = np.random.default_rng(23)
    for n, t, ref_dim in [(2, 2, 1), (5, 2, 1), (8, 2, 1), (3, 3, 1), (2, 4, 1), (3, 2, 3)]:
        rho = pure_density(random_pure_state(rng, n, t, ref_dim))
        a = mp_twirl(rho, n, t).matrix
        for N in (n + 1, n + 2):
            assert np.abs(a - grid_twirl(rho, n, t, N).matrix).max() < 1e-12
        assert np.abs(a - grid_twirl(rho, n, t, n).matrix).max() > 1e-9


def test_mp_twirl_idempotent():
    rng = np.random.default_rng(29)
    rho = pure_density(random_pure_state(rng, 4, 2))
    once = mp_twirl(rho, 4, 2)
    twice = mp_twirl(once, 4, 2)
    assert np.abs(once.matrix - twice.matrix).max() < 1e-12


def test_mp_twirl_commutes_with_group():
    rng = np.random.default_rng(31)
    for n, t in [(4, 2), (2, 3)]:
        rho = pure_density(random_pure_state(rng, n, t))
        tw = mp_twirl(rho, n, t).matrix
        for _ in range(20):
            theta = rng.uniform(0.0, 2 * math.pi, size=t - 1)
            u = tensor_power(mp_unitary(theta, t), n)
            assert np.linalg.norm(u @ tw - tw @ u, 2) < 1e-9


def test_mp_twirl_handles_reference():
    rng = np.random.default_rng(37)
    rho = pure_density(random_pure_state(rng, 2, 2, ref_dim=3))
    out = mp_twirl(rho, 2, 2)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12
    # twirling must not touch the reference marginal
    ref_in = np.einsum("aiaj->ij", rho.matrix.reshape(4, 3, 4, 3))
    ref_out = np.einsum("aiaj->ij", out.matrix.reshape(4, 3, 4, 3))
    assert np.abs(ref_in - ref_out).max() < 1e-12


def test_mp_twirl_validation():
    rho = pure_density(noon_state(2))
    with pytest.raises(ValueError):
        mp_twirl(rho, 3, 2)


# ---------------------------------------------------------------- schur basis

def test_schur_basis_orthonormal_and_complete():
    for n in range(1, 11):
        basis, blocks = schur_basis_su2(n)
        d = 2**n
        assert basis.shape == (d, d)
        assert np.abs(basis.T @ basis - np.eye(d)).max() < 1e-10
        assert sum((two_j + 1) * mult for two_j, mult, _ in blocks) == d


@pytest.mark.parametrize("n", range(1, 9))
def test_schur_basis_matches_dense_reference(n):
    """The coupled build against the dense lowering operator: the same
    blocks, and each block the reference's times I_d (x) O_j for one
    orthogonal O_j, both within 1e-12; the multiplicity basis is defined
    only up to that rotation."""
    basis, blocks = schur_basis_su2(n)
    dense, dense_blocks = schur_basis_su2_dense(n)
    assert blocks == dense_blocks
    for two_j, mult, off in blocks:
        cols = slice(off, off + (two_j + 1) * mult)
        rotation = dense[:, off : off + mult].T @ basis[:, off : off + mult]
        assert np.abs(rotation.T @ rotation - np.eye(mult)).max() < 1e-12
        assert np.abs(basis[:, cols] - dense[:, cols] @ np.kron(np.eye(two_j + 1), rotation)
                      ).max() < 1e-12


def _popcounts(n):
    return ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).sum(axis=1)


def _lower(n, vecs):
    """J- applied to the rows of vecs, J- adding one set bit: row y is the
    sum of the rows y with one of its set bits cleared."""
    index = np.arange(2**n)
    out = np.zeros_like(vecs)
    for i in range(n):
        have = index[(index >> i) & 1 == 1]
        out[have] += vecs[have ^ (1 << i)]
    return out


def _spin_lowering(two_j):
    """The spin-j lowering matrix in the basis m = j, j-1, ..., -j."""
    j = two_j / 2
    out = np.zeros((two_j + 1, two_j + 1))
    for i in range(two_j):
        m = j - i
        out[i + 1, i] = math.sqrt(j * (j + 1) - m * (m - 1))
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_schur_basis_layout_of_jz(n):
    """basis^T J_z basis is diagonal with m = j, ..., -j in each block, each
    projection repeated over the multiplicity index (projection major); a
    set bit is spin down, so J_z = n/2 - popcount."""
    basis, blocks = schur_basis_su2(n)
    inside = basis.T @ ((n / 2 - _popcounts(n))[:, None] * basis)
    assert [off for _, _, off in blocks] == list(
        np.cumsum([0] + [(two_j + 1) * mult for two_j, mult, _ in blocks])[:-1])
    expected = np.concatenate([np.repeat(np.arange(two_j, -two_j - 1, -2) / 2, mult)
                               for two_j, mult, _ in blocks])
    assert np.abs(inside - np.diag(expected)).max() < 1e-10


@pytest.mark.parametrize("n", range(1, 11))
def test_schur_basis_layout_of_lowering(n):
    """basis^T J- basis is the direct sum over blocks of the spin-j lowering
    matrix (x) I_mult: what lets su2_twirl contract the projection index and
    su2_optimal_state pair projection i of multiplicity copy 0 with
    reference state i."""
    basis, blocks = schur_basis_su2(n)
    inside = basis.T @ _lower(n, basis)
    expected = np.zeros_like(inside)
    for two_j, mult, off in blocks:
        width = (two_j + 1) * mult
        expected[off : off + width, off : off + width] = np.kron(_spin_lowering(two_j),
                                                                 np.eye(mult))
    assert np.abs(inside - expected).max() < 1e-10


def test_class_check_sees_every_class():
    """The build checks orthonormality only through _check_classes, one
    weight class at a time: an entry off by 1e-6 in any class, or a class
    one column short, must raise."""
    n = 4
    basis, blocks = schur_basis_su2(n)
    classes = [np.flatnonzero(_popcounts(n) == w) for w in range(n + 1)]
    columns = [[] for _ in range(n + 1)]
    for two_j, mult, off in blocks:
        k = (n - two_j) // 2
        for i in range(two_j + 1):  # projection i lies in class k + i
            columns[k + i] += range(off + i * mult, off + (i + 1) * mult)
    oracle._check_classes(basis, classes, columns)
    for w, (rows, cols) in enumerate(zip(classes, columns)):
        bad = basis.copy()
        bad[rows[-1], cols[-1]] += 1e-6
        with pytest.raises(ArithmeticError, match="lost orthonormality"):
            oracle._check_classes(bad, classes, columns)
        short = [list(c) for c in columns]
        short[w].pop()
        with pytest.raises(ArithmeticError, match=f"weight class {w} holds"):
            oracle._check_classes(basis, classes, short)


def test_schur_basis_block_structure():
    _, blocks = schur_basis_su2(4)
    assert [(two_j, mult) for two_j, mult, _ in blocks] == [(4, 1), (2, 3), (0, 2)]


def test_schur_basis_diagonalizes_casimir():
    for n in (2, 3, 5):
        basis, blocks = schur_basis_su2(n)
        d = 2**n
        sz = np.diag([1.0, -1.0]) / 2
        sp = np.array([[0.0, 1.0], [0.0, 0.0]])
        jz = np.zeros((d, d))
        jp = np.zeros((d, d))
        for i in range(n):
            ops_z = [np.eye(2)] * n
            ops_z[i] = sz
            ops_p = [np.eye(2)] * n
            ops_p[i] = sp
            zi, pi = ops_z[0], ops_p[0]
            for k in range(1, n):
                zi = np.kron(zi, ops_z[k])
                pi = np.kron(pi, ops_p[k])
            jz += zi
            jp += pi
        jm = jp.T
        casimir = jm @ jp + jz @ jz + jz  # J^2 = J-J+ + Jz^2 + Jz
        assert np.abs(jp @ jm + jz @ jz - jz - casimir).max() < 1e-12  # = J+J- + Jz^2 - Jz
        inside = basis.T @ casimir @ basis
        expected = np.zeros(d)
        for two_j, mult, off in blocks:
            j = two_j / 2.0
            width = (two_j + 1) * mult
            expected[off : off + width] = j * (j + 1)
        assert np.abs(inside - np.diag(expected)).max() < 1e-9


# ---------------------------------------------------------------- su2 twirl

def test_su2_twirl_fixes_maximally_mixed():
    rho = DensityOperator(np.eye(8) / 8, n=3, t=2)
    out = su2_twirl(rho, 3)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_su2_twirl_idempotent():
    rng = np.random.default_rng(41)
    rho = pure_density(random_pure_state(rng, 3, 2))
    once = su2_twirl(rho, 3)
    twice = su2_twirl(once, 3)
    assert np.abs(once.matrix - twice.matrix).max() < 1e-9


def test_su2_twirl_commutes_with_group():
    rng = np.random.default_rng(43)
    for n in (2, 4):
        rho = pure_density(random_pure_state(rng, n, 2))
        tw = su2_twirl(rho, n).matrix
        for _ in range(20):
            u = tensor_power(haar_su2(rng), n)
            assert np.linalg.norm(u @ tw - tw @ u, 2) < 1e-8


def test_su2_twirl_monte_carlo_cross_check():
    rng = np.random.default_rng(0)
    n = 2
    rho = pure_density(random_pure_state(rng, n, 2))
    exact = su2_twirl(rho, n).matrix
    acc = np.zeros_like(exact)
    samples = 10_000
    for _ in range(samples):
        u = tensor_power(haar_su2(rng), n)
        acc += u @ rho.matrix @ u.conj().T
    acc /= samples
    trace_distance = 0.5 * float(np.abs(np.linalg.eigvalsh(acc - exact)).sum())
    assert trace_distance < 1e-2


def test_su2_twirl_validation():
    rho = pure_density(noon_state(3))
    with pytest.raises(ValueError):
        su2_twirl(rho, 2)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        su2_twirl(pure_density(random_pure_state(rng, 2, 3)), 2)


# ---------------------------------------------------------------- optimal state

def test_su2_optimal_state_block_weights():
    psi = su2_optimal_state(2)
    basis, blocks = schur_basis_su2(2)
    ref = psi.ref_dim
    schur = (basis.T @ psi.amplitudes.reshape(4, ref)).reshape(-1)
    weights = []
    for two_j, mult, off in blocks:
        width = (two_j + 1) * mult * ref
        weights.append(float(np.sum(np.abs(schur[off * ref : off * ref + width]) ** 2)))
    assert weights == pytest.approx([9 / 10, 1 / 10], abs=1e-12)


def test_su2_optimal_state_blocks_maximally_entangled():
    # reduced state on every isotypic block must be proportional to identity
    for n in (1, 2, 3, 4):
        psi = su2_optimal_state(n)
        tw = su2_twirl(pure_density(psi), n)
        eigs = np.linalg.eigvalsh(tw.matrix)
        support = eigs[eigs > 1e-12]
        total = sum((two_j + 1) ** 2 for two_j, _, _ in schur_basis_su2(n)[1])
        assert len(support) == total
        assert np.abs(support - 1.0 / total).max() < 1e-12


def test_su2_optimal_twirled_entropy_matches_capacity():
    for n in (1, 2, 3, 4, 5):
        s = dense_entropy(su2_twirl(pure_density(su2_optimal_state(n)), n))
        assert abs(s - math.log(su_square_sum(n, 2))) < 1e-6


# ---------------------------------------------------------------- entropy

def test_von_neumann_entropy_values():
    """The entropy of a spectrum, empirical_mi, on the eigenvalues of a pure,
    a maximally mixed and a diagonal state."""
    for rho, expected in [
        (pure_density(noon_state(2)), 0.0),
        (DensityOperator(np.eye(8) / 8, n=3, t=2), math.log(8)),
        (DensityOperator(np.diag([0.75, 0.25]), n=1, t=2),
         0.75 * math.log(4 / 3) + 0.25 * math.log(4)),
    ]:
        assert empirical_mi(np.linalg.eigvalsh(rho.matrix)) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- srm

def test_srm_single_element():
    assert srm_discrimination([mp_unitary((0.0,), 2)], mp_optimal_state(3), 3, 2) == \
        pytest.approx(1.0)


def test_srm_fourier_codebook_perfect():
    for n in range(1, 9):
        p = srm_discrimination(lattice_unitaries(n), mp_optimal_state(n), n, 2)
        assert abs(p - 1.0) < 1e-9


def test_srm_noon_is_degenerate():
    with pytest.warns(RuntimeWarning, match="degenerate codebook"):
        p = srm_discrimination(lattice_unitaries(4), noon_state(4), 4, 2)
    assert p < 1.0
    # rank-2 span, 5 states; pseudo-root noise floor is sqrt(eps) ~ 1e-8
    assert p == pytest.approx(2.0 / 5.0, abs=1e-6)


def test_srm_matches_explicit_povm():
    # independent route: Pi_j = S^{-1/2} |psi_j><psi_j| S^{-1/2}
    rng = np.random.default_rng(47)
    n, t = 3, 2
    psi = random_pure_state(rng, n, t)
    thetas = tuple((float(x),) for x in sorted(rng.uniform(0, 2 * math.pi, size=4)))
    unitaries = [mp_unitary(th, t) for th in thetas]
    states = [tensor_power_apply(u, n, psi).amplitudes for u in unitaries]
    avg = sum(np.outer(v, v.conj()) for v in states)
    eigs, vecs = np.linalg.eigh(avg)
    inv_root = vecs @ np.diag([e**-0.5 if e > 1e-12 else 0.0 for e in eigs]) @ vecs.conj().T
    success = np.mean(
        [abs(np.vdot(v, inv_root @ np.outer(v, v.conj()) @ inv_root @ v)) for v in states]
    )
    assert srm_discrimination(unitaries, psi, n, t) == pytest.approx(float(success), abs=1e-10)


def test_srm_su2_codebook_runs():
    rng = np.random.default_rng(53)
    unitaries = [haar_su2(rng) for _ in range(3)]
    p = srm_discrimination(unitaries, su2_optimal_state(2), 2, 2)
    assert 0.0 <= p <= 1.0


def test_codebook_validation():
    psi = mp_optimal_state(2)
    srm_discrimination([mp_unitary((0.0,), 2), mp_unitary((math.pi,), 2)], psi, 2, 2)
    rng = np.random.default_rng(0)
    srm_discrimination([haar_su2(rng), np.eye(2)], psi, 2, 2)
    with pytest.raises(ValueError):
        srm_discrimination([], psi, 2, 2)
    with pytest.raises(ValueError, match="norm"):  # a non-unitary element
        srm_discrimination([2 * np.eye(2)], psi, 2, 2)
    with pytest.raises(ValueError, match="shape"):  # not a local t x t unitary
        srm_discrimination([np.eye(3)], psi, 2, 2)


def test_srm_validation():
    with pytest.raises(ValueError):
        srm_discrimination([], mp_optimal_state(2), 2, 2)
    with pytest.raises(ValueError):
        srm_discrimination(lattice_unitaries(2), mp_optimal_state(2), 3, 2)


# ---------------------------------------------------------------- lattice SRM closed form

def _warnings_of(fn, *args):
    """fn(*args) and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return value, [str(w.message) for w in caught]


# bs4 and noon at t = 2; random states at t = 2, 3, 4 with ref_dim 1 and 2.
# Every t >= 3 codebook and every noon one has a rank-deficient Gram matrix.
@pytest.mark.parametrize("state,n,t,ref", [
    *[("bs4", n, 2, 1) for n in (1, 3, 6, 8)],
    *[("noon", n, 2, 1) for n in (2, 4, 7, 8)],
    *[("random", n, t, ref)
      for t, ns in ((2, (1, 3, 6)), (3, (1, 2, 3)), (4, (1, 2, 3)))
      for n in ns for ref in (1, 2)],
])
def test_lattice_srm_success_matches_dense(state, n, t, ref):
    """The closed form against the dense Gram-matrix SRM of the coded states:
    within 1e-10 at full rank, and within 1e-7 where the dense pseudo-root
    works at its noise floor; the degenerate-codebook warning fires on the
    same codebooks."""
    if state == "bs4":
        psi = mp_optimal_state(n)
    elif state == "noon":
        psi = noon_state(n)
    else:
        psi = random_pure_state(np.random.default_rng([n, t, ref, 1]), n, t, ref_dim=ref)
    dense, dense_warnings = _warnings_of(srm_discrimination, lattice_unitaries(n, t), psi, n, t)
    closed, closed_warnings = _warnings_of(
        lattice_srm_success, twirled_spectrum(psi, "mp", n, t), n, t)
    degenerate = t >= 3 or state == "noon"
    assert bool(dense_warnings) == bool(closed_warnings) == degenerate
    assert abs(closed - dense) < (1e-7 if degenerate else 1e-10)


def test_lattice_srm_success_exact_values():
    """bs4 is perfectly distinguishable; noon spreads over two weights, so
    (2 sqrt(1/2))^2 / (n+1) = 2/(n+1); one lattice point always succeeds."""
    for n in range(1, 13):
        assert lattice_srm_success(twirled_spectrum(mp_optimal_state(n), "mp", n, 2), n, 2) \
            == pytest.approx(1.0, abs=1e-15)
    assert lattice_srm_success(twirled_spectrum(mp_optimal_state(3), "mp", 3, 2), 3, 2) == 1.0
    with pytest.warns(RuntimeWarning, match="Gram eigenvalue 0.000e[+]00 below 1e-12"):
        noon = lattice_srm_success(twirled_spectrum(noon_state(12), "mp", 12, 2), 12, 2)
    assert noon == pytest.approx(2 / 13, abs=1e-15)


def test_lattice_srm_success_validation():
    spectrum = twirled_spectrum(mp_optimal_state(3), "mp", 3, 2)
    with pytest.raises(ValueError, match="one mass per weight"):
        lattice_srm_success(spectrum, 4, 2)
    with pytest.raises(ValueError, match="one mass per weight"):
        lattice_srm_success(twirled_spectrum(su2_optimal_state(2), "su", 2, 2), 2, 2)


# ---------------------------------------------------------------- empirical MI

def test_empirical_mi_examples():
    assert empirical_mi(twirled_spectrum(mp_optimal_state(3), "mp", 3, 2)) == pytest.approx(
        math.log(4), abs=1e-9
    )
    assert empirical_mi(twirled_spectrum(noon_state(3), "mp", 3, 2)) == pytest.approx(
        math.log(2), abs=1e-9
    )
    assert empirical_mi(twirled_spectrum(su2_optimal_state(2), "su", 2, 2)) == pytest.approx(
        math.log(10), abs=1e-6
    )


def test_empirical_mi_never_beats_capacity():
    rng = np.random.default_rng(59)
    cap_mp = capacity(decompose("mp", 5, 2, 1)).value
    for _ in range(50):
        psi = random_pure_state(rng, 5, 2)
        assert empirical_mi(twirled_spectrum(psi, "mp", 5, 2)) <= cap_mp + 1e-9
    cap_su = capacity(decompose("su", 4, 2, 1)).value
    for _ in range(50):
        psi = random_pure_state(rng, 4, 2)
        assert empirical_mi(twirled_spectrum(psi, "su", 4, 2)) <= cap_su + 1e-9


def test_empirical_mi_validation():
    psi = random_pure_state(np.random.default_rng(1), 2, 3)
    with pytest.raises(ValueError):
        empirical_mi(twirled_spectrum(psi, "su", 2, 3))


# ---------------------------------------------------------------- block route

def _check_block_route(psi, model):
    """twirled_spectrum and its empirical_mi against eigvalsh and the entropy
    of the dense twirl of pure_density(psi)."""
    n, t = psi.n, psi.t
    rho = pure_density(psi)
    dense = mp_twirl(rho, n, t) if model == "mp" else su2_twirl(rho, n)
    want = np.linalg.eigvalsh(dense.matrix)
    spectrum = twirled_spectrum(psi, model, n, t)
    want = np.sort(want[want > _EIG_FLOOR])
    got = np.sort(spectrum[spectrum > _EIG_FLOOR])
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12
    assert abs(empirical_mi(spectrum) - dense_entropy(dense)) < 1e-12


# n <= 6 and ref_dim <= 3, except mp at t = 3, n = 6, ref_dim >= 2, where the
# dense eigensolve of dimension 1458 or 2187 takes seconds; su also at
# n = 7 ... 10 without a reference
@pytest.mark.parametrize("model,t,n,ref", [
    *[(model, t, n, ref)
      for model, t in (("mp", 2), ("mp", 3), ("su", 2))
      for n in range(1, 7)
      for ref in (1, 2, 3)
      if t**n * ref <= 1024],
    *[("su", 2, n, 1) for n in range(7, 11)],
])
def test_twirled_spectrum_matches_dense_random(model, t, n, ref):
    rng = np.random.default_rng([n, t, ref])
    _check_block_route(random_pure_state(rng, n, t, ref_dim=ref), model)


@pytest.mark.parametrize("model", ["mp", "su"])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("state", [mp_optimal_state, noon_state, su2_optimal_state])
def test_twirled_spectrum_matches_dense_shipped(state, n, model):
    _check_block_route(state(n), model)


# su up to n = 10 wherever the dense twirl has dimension <= 1024
@pytest.mark.parametrize("state,n", [
    *[(noon_state, n) for n in range(7, 11)],
    (su2_optimal_state, 7),
])
def test_twirled_spectrum_matches_dense_shipped_su(state, n):
    _check_block_route(state(n), "su")


def test_twirled_spectrum_block_sizes():
    # mp: one eigenvalue per weight class, whatever the reference size
    psi = random_pure_state(np.random.default_rng(71), 3, 3, ref_dim=2)
    assert twirled_spectrum(psi, "mp", 3, 3).shape == (comb(5, 2),)
    # su, optimal state: flat on sum_j d_j^2 eigenvalues, up to the copy cap
    for n in (8, oracle.SU2_COPY_CAP):
        spectrum = twirled_spectrum(su2_optimal_state(n), "su", n, 2)
        kept = spectrum[spectrum > _EIG_FLOOR]
        assert len(kept) == su_square_sum(n, 2)
        assert np.abs(kept - 1.0 / su_square_sum(n, 2)).max() < 1e-15


def test_twirled_spectrum_validation():
    with pytest.raises(ValueError, match="metadata"):
        twirled_spectrum(noon_state(3), "mp", 2, 2)
    with pytest.raises(ValueError, match="t = 2"):
        twirled_spectrum(random_pure_state(np.random.default_rng(5), 2, 3), "su", 2, 3)
    with pytest.raises(ValueError):
        twirled_spectrum(noon_state(2), "xx", 2, 2)


# ---------------------------------------------------------------- haar

def test_haar_su2_is_special_unitary():
    rng = np.random.default_rng(61)
    for _ in range(50):
        u = haar_su2(rng)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
