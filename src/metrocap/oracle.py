"""Explicit-state simulation for small copy counts.

Explicit states, exact twirls and square-root-measurement discrimination,
kept deliberately independent of the combinatorial modules so the two routes
can check each other: nothing is imported from the package, and a model is
its plain tag, ``"mp"`` or ``"su"``.  The twirled spectrum of a pure input is
taken block by block from its amplitudes (``twirled_spectrum``): weight
classes of the product basis for ``mp``, Schur blocks for SU(2).  The dense
density-matrix twirls (``mp_twirl``, ``su2_twirl``) and
``von_neumann_entropy`` work in the computational product basis and are the
reference the block route is checked against.  Dimensions are capped to keep dense linear algebra honest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

DENSE_DIM_CAP = 4096  # largest full Hilbert-space dimension handled densely
SU2_COPY_CAP = 8

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_NORM_TOL = 1e-12
_EIG_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class PureState:
    """Dense state vector on (C^t)^{x n} tensored with an optional reference."""

    amplitudes: np.ndarray
    n: int
    t: int
    ref_dim: int = 1

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        expected = self.t**self.n * self.ref_dim
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, expected {expected}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense density matrix with the same dimension metadata as PureState."""

    matrix: np.ndarray
    n: int
    t: int
    ref_dim: int = 1

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        expected = self.t**self.n * self.ref_dim
        if m.shape != (expected, expected):
            raise ValueError(f"matrix shape {m.shape}, expected square dim {expected}")
        if np.abs(m - m.conj().T).max() > _HERM_TOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {_TRACE_TOL}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_density(psi: PureState) -> DensityOperator:
    """Projector |psi><psi| as a DensityOperator."""
    v = psi.amplitudes
    return DensityOperator(np.outer(v, v.conj()), n=psi.n, t=psi.t, ref_dim=psi.ref_dim)


def mp_unitary(theta: Sequence[float], t: int) -> np.ndarray:
    """diag(1, e^{i theta_1}, ..., e^{i theta_{t-1}})."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape != (t - 1,):
        raise ValueError(f"need {t - 1} phases, got {theta.shape[0]}")
    return np.diag(np.exp(1j * np.concatenate(([0.0], theta))))


def tensor_power_apply(u: np.ndarray, n: int, psi: PureState) -> PureState:
    """Apply u on every one of the n factors, leaving the reference alone."""
    u = np.asarray(u, dtype=complex)
    t = psi.t
    if u.shape != (t, t):
        raise ValueError(f"unitary shape {u.shape} does not match local dim {t}")
    if n != psi.n:
        raise ValueError(f"copy count {n} does not match state metadata {psi.n}")
    amps = psi.amplitudes.reshape((t,) * n + (psi.ref_dim,))
    for axis in range(n):
        amps = np.moveaxis(np.tensordot(u, amps, axes=([1], [axis])), 0, axis)
    return PureState(amps.reshape(-1), n=n, t=t, ref_dim=psi.ref_dim)


def mp_optimal_state(n: int) -> PureState:
    """Uniform superposition of the n+1 step strings 0^j 1^{n-j} (t = 2).

    This is the capacity-achieving input for the single-phase model; its
    twirl is flat on the n+1 weight blocks.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if 2**n > DENSE_DIM_CAP:
        raise ValueError(f"2^{n} exceeds the dense cap {DENSE_DIM_CAP}")
    amps = np.zeros(2**n, dtype=complex)
    for ones in range(n + 1):
        amps[2**ones - 1] = 1.0  # trailing block of `ones` ones
    return PureState(amps / math.sqrt(n + 1), n=n, t=2)


def noon_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 1:
        raise ValueError("n must be positive")
    if 2**n > DENSE_DIM_CAP:
        raise ValueError(f"2^{n} exceeds the dense cap {DENSE_DIM_CAP}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(amps, n=n, t=2)


def _digit_counts(n: int, t: int) -> np.ndarray:
    """counts[x, j-1] = how often digit j appears in the n-digit base-t index x."""
    d = t**n
    counts = np.zeros((d, t - 1))
    rem = np.arange(d)
    for _ in range(n):
        rem, dig = np.divmod(rem, t)
        for j in range(1, t):
            counts[:, j - 1] += dig == j
    return counts


def mp_twirl(rho: DensityOperator, n: int, t: int) -> DensityOperator:
    """Exact phase-group twirl: keeps the matrix elements between product-basis
    indices of equal weight, whatever their reference index, and zeroes the
    rest, whose phases average to 0 over the torus."""
    if (rho.n, rho.t) != (n, t):
        raise ValueError("density operator metadata does not match (n, t)")
    counts = _digit_counts(n, t)
    if rho.ref_dim > 1:
        counts = np.repeat(counts, rho.ref_dim, axis=0)
    mask = (counts[:, None] == counts[None, :]).all(-1)
    return DensityOperator(rho.matrix * mask, n=n, t=t, ref_dim=rho.ref_dim)


@lru_cache(maxsize=None)
def schur_basis_su2(n: int):
    """Orthonormal basis aligning (C^2)^{x n} with its total-spin blocks.

    Returns (basis, blocks).  basis is real orthogonal, 2^n x 2^n; blocks is
    a tuple of (two_j, mult, offset) and the block occupies columns
    offset .. offset + (two_j+1)*mult, spin projection major (m = j down to
    -j), multiplicity index minor.  Columns with equal multiplicity index are
    related by the lowering operator, which is what makes the factorization
    U_j x C^mult explicit.

    The lowering operator J- is the 0/1 matrix adding one set bit; the
    highest weights with k set bits are the SVD null space of J+ = J-^T
    from k to k-1 set bits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > SU2_COPY_CAP:
        raise ValueError(f"n must stay <= {SU2_COPY_CAP} for dense feasibility")
    d = 2**n
    index = np.arange(d)
    ones = np.zeros(d, dtype=int)
    jminus = np.zeros((d, d))
    for i in range(n):
        bit = (index >> i) & 1
        ones += bit
        unset = index[bit == 0]
        jminus[unset | (1 << i), unset] = 1.0
    by_ones = [np.flatnonzero(ones == k) for k in range(n + 1)]

    cols = []
    blocks = []
    offset = 0
    for k in range(n // 2 + 1):
        two_j = n - 2 * k
        idx_k = by_ones[k]
        if k == 0:
            null = np.eye(1)
        else:
            raise_map = jminus[np.ix_(idx_k, by_ones[k - 1])].T
            _, s, vt = np.linalg.svd(raise_map)
            rank = int(np.sum(s > 1e-10))
            null = vt[rank:].T
        mult = null.shape[1]
        expected = comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)
        if mult != expected:
            raise ArithmeticError(f"multiplicity {mult} != {expected} at n={n}, k={k}")
        highest = np.zeros((d, mult))
        highest[idx_k, :] = null
        block_cols = [highest]
        vecs = highest
        for two_m in range(two_j, -two_j, -2):
            coef = math.sqrt((two_j + two_m) * (two_j - two_m + 2)) / 2.0
            vecs = (jminus @ vecs) / coef
            block_cols.append(vecs)
        cols.append(np.concatenate(block_cols, axis=1))
        blocks.append((two_j, mult, offset))
        offset += (two_j + 1) * mult

    basis = np.concatenate(cols, axis=1)
    gram_err = np.abs(basis.T @ basis - np.eye(d)).max()
    if gram_err > 1e-10:
        raise ArithmeticError(f"schur basis lost orthonormality: {gram_err}")
    return basis, tuple(blocks)


def su2_twirl(rho: DensityOperator, n: int) -> DensityOperator:
    """Haar average over SU(2) acting as U^{x n} (x) I_ref.

    Conjugates into the Schur-aligned basis, replaces each isotypic block by
    (I/d_j) (x) partial trace over the spin factor, and conjugates back.
    """
    if rho.t != 2:
        raise ValueError("su2 twirl needs local dimension 2")
    if rho.n != n:
        raise ValueError(f"copy count {n} does not match metadata {rho.n}")
    basis, blocks = schur_basis_su2(n)
    r = rho.ref_dim
    w = basis if r == 1 else np.kron(basis, np.eye(r))
    sigma = w.T @ rho.matrix @ w
    out = np.zeros_like(sigma)
    for two_j, mult, off in blocks:
        dim_u = two_j + 1
        width = mult * r
        lo = off * r
        hi = lo + dim_u * width
        blk = sigma[lo:hi, lo:hi].reshape(dim_u, width, dim_u, width)
        reduced = np.einsum("iaib->ab", blk)
        out[lo:hi, lo:hi] = np.kron(np.eye(dim_u) / dim_u, reduced)
    return DensityOperator(w @ out @ w.T, n=n, t=2, ref_dim=r)


def su2_optimal_state(n: int) -> PureState:
    """Capacity-achieving SU(2) input: per-block maximally entangled states
    with the reference, block weighted by dim^2 / (sum of squared dims)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > SU2_COPY_CAP:
        raise ValueError(f"n must stay <= {SU2_COPY_CAP} for dense feasibility")
    basis, blocks = schur_basis_su2(n)
    ref = n + 1  # >= every block dimension
    total = sum((two_j + 1) ** 2 for two_j, _, _ in blocks)
    schur_amps = np.zeros(2**n * ref, dtype=complex)
    for two_j, mult, off in blocks:
        dim_u = two_j + 1
        # sqrt(p_j / dim) on each of the dim entangled pairs
        amp = dim_u / math.sqrt(total) / math.sqrt(dim_u)
        for i in range(dim_u):  # projection i of multiplicity copy 0, reference state i
            schur_amps[(off + i * mult) * ref + i] = amp
    full = (basis @ schur_amps.reshape(2**n, ref)).reshape(-1)
    return PureState(full, n=n, t=2, ref_dim=ref)


def _spectrum_entropy(tr: float, eigs: np.ndarray) -> float:
    """-sum eig log eig over eigenvalues above 1e-12, in nats, after checking
    the trace and the sign of the spectrum."""
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"trace {tr} deviates from 1 beyond 1e-8")
    if float(eigs.min()) < -1e-10:
        raise ValueError(f"negative eigenvalue {eigs.min()}")
    kept = eigs[eigs > _EIG_FLOOR]
    return float(-np.sum(kept * np.log(kept)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum eig log eig over eigenvalues above 1e-12, in nats."""
    tr = complex(np.trace(rho.matrix)).real
    return _spectrum_entropy(tr, np.linalg.eigvalsh(rho.matrix))


def srm_discrimination(unitaries: Sequence[np.ndarray], psi: PureState, n: int, t: int) -> float:
    """Average success of the square-root measurement on {u_j^{x n}|psi>}.

    The codebook is a sequence of local t x t unitaries u_j (``mp_unitary``
    of each phase vector for mp); a non-unitary one fails the norm check of
    its coded state.  Success = (1/M) sum_j sqrt(G)_{jj}^2 with G the Gram
    matrix of the coded states; rank-deficient Gram matrices trigger a
    degenerate-codebook warning and are handled through the pseudo-inverse
    square root.
    """
    if len(unitaries) < 1:
        raise ValueError("codebook must contain at least one element")
    if (psi.n, psi.t) != (n, t):
        raise ValueError("state metadata does not match (n, t)")
    states = [tensor_power_apply(u, n, psi).amplitudes for u in unitaries]
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    eigs, vecs = np.linalg.eigh(gram)
    if float(eigs.min()) < _EIG_FLOOR:
        warnings.warn(
            f"degenerate codebook: Gram eigenvalue {eigs.min():.3e} below "
            f"{_EIG_FLOOR}; measurement restricted to the span",
            RuntimeWarning,
        )
    root = vecs @ np.diag(np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    diag = np.real(np.diag(root))
    return float(np.mean(diag**2))


def twirled_spectrum(psi: PureState, model: str, n: int, t: int) -> np.ndarray:
    """Eigenvalues of the twirled input |psi><psi|, taken block by block.

    Every eigenvalue the dense twirl can have above zero is returned (in no
    particular order); the remaining ones are exactly zero.  With the
    amplitudes as a (t^n x ref_dim) matrix A:

    - ``mp``: the twirl keeps the entries between product-basis indices of
      equal weight, whatever their reference index, so each weight class is
      one rank-one block: its eigenvalue is the squared norm of its rows of A.
    - ``su`` (t = 2): in Schur coordinates block j of A is a
      d_j x (mult * ref_dim) matrix M_j, and the twirl maps it to
      (I / d_j) (x) M_j^T conj(M_j): each squared singular value of M_j,
      divided by d_j, appears d_j times.
    """
    if model not in ("mp", "su"):
        raise ValueError(f"unknown model tag {model!r}")
    if model == "su" and t != 2:
        raise ValueError("SU(t) twirl is only implemented for t = 2")
    if (psi.n, psi.t) != (n, t):
        raise ValueError("state metadata does not match (n, t)")
    amps = psi.amplitudes.reshape(t**n, psi.ref_dim)
    if model == "mp":
        # the weight vector of each index as one base-(n+1) integer; its
        # digits are counts <= n, so the float key is exact
        keys = _digit_counts(n, t) @ (n + 1) ** np.arange(t - 1)
        _, weight_class = np.unique(keys, return_inverse=True)
        return np.bincount(weight_class, weights=np.sum(np.abs(amps) ** 2, axis=1))
    basis, blocks = schur_basis_su2(n)
    schur = basis.T @ amps
    parts = []
    for two_j, mult, off in blocks:
        dim_u = two_j + 1
        block = schur[off : off + dim_u * mult].reshape(dim_u, mult * psi.ref_dim)
        s2 = np.linalg.svd(block, compute_uv=False) ** 2
        parts.append(np.repeat(s2 / dim_u, dim_u))
    return np.concatenate(parts)


def empirical_mi(psi: PureState, model: str, n: int, t: int) -> float:
    """Entropy of the twirled input: the accessible information of this state.

    Computed from ``twirled_spectrum``; it agrees with ``von_neumann_entropy``
    of the dense ``mp_twirl``/``su2_twirl`` of ``pure_density(psi)``.
    """
    spectrum = twirled_spectrum(psi, model, n, t)
    return _spectrum_entropy(float(np.sum(spectrum)), spectrum)


def random_pure_state(
    rng: np.random.Generator, n: int, t: int, ref_dim: int = 1
) -> PureState:
    """Haar-random state vector at the given dimensions."""
    d = t**n * ref_dim
    if d > DENSE_DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the dense cap {DENSE_DIM_CAP}")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), n=n, t=t, ref_dim=ref_dim)
