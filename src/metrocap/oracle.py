"""Explicit-state simulation for small copy counts.

Explicit states, exact twirls and the square-root-measurement success of the
phase lattice codebook, kept deliberately independent of the combinatorial
modules so the two routes can check each other: nothing is imported from the
package, and a model is its plain tag, ``"mp"`` or ``"su"``.  The twirled
spectrum of a pure input is taken block by block from its amplitudes
(``twirled_spectrum``): weight classes of the product basis for ``mp``, Schur
blocks for SU(2), whose basis (``schur_basis_su2``) is coupled one qubit at a
time by Clebsch-Gordan coefficients.  Both the entropy (``empirical_mi``) and
the lattice SRM success (``lattice_srm_success``, a closed form in the weight
masses) are read off that spectrum.  The dense density-matrix twirls
(``mp_twirl``, ``su2_twirl``) and ``von_neumann_entropy`` work in the
computational product basis and are the reference the block route is checked
against; the dense Gram-matrix SRM that checks the closed form, and the dense
lowering-operator Schur basis, live in ``tests/reference.py``.  Dimensions are
capped to keep dense linear algebra honest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

DENSE_DIM_CAP = 4096  # largest full Hilbert-space dimension handled densely
SU2_COPY_CAP = 12

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


def _check_classes(basis: np.ndarray, classes, columns) -> None:
    """Orthonormality of a basis whose every column lies in the rows of one
    weight class, listed in columns[w]: basis^T basis is then block-diagonal
    over the classes, so each class must hold C(n, w) columns whose Gram
    matrix is the identity."""
    for w, (rows, cols) in enumerate(zip(classes, columns)):
        if len(cols) != len(rows):
            raise ArithmeticError(
                f"weight class {w} holds {len(cols)} columns, expected {len(rows)}")
        part = basis[np.ix_(rows, cols)]
        gram_err = np.abs(part.T @ part - np.eye(len(rows))).max()
        if gram_err > 1e-10:
            raise ArithmeticError(f"schur basis lost orthonormality: {gram_err}")


@lru_cache(maxsize=None)
def schur_basis_su2(n: int):
    """Orthonormal basis aligning (C^2)^{x n} with its total-spin blocks.

    Returns (basis, blocks).  basis is real orthogonal, 2^n x 2^n; blocks is
    a tuple of (two_j, mult, offset) and the block occupies columns
    offset .. offset + (two_j+1)*mult, spin projection major (m = j down to
    -j), multiplicity index minor.  Columns with equal multiplicity index are
    related by the lowering operator, which is what makes the factorization
    U_j x C^mult explicit.

    The blocks are coupled one qubit at a time, each new qubit the top bit
    (the Schur transform of Bacon, Chuang and Harrow, PRL 97, 170502, 2006);
    a set bit is spin down.  spins[two_j][i] holds the vectors of projection
    m = j - i of k qubits, one column per multiplicity index, on the rows of
    their weight class w: the C(k, w) indices with w set bits, ascending.
    Those with the new bit clear are class w of k - 1 qubits and those with
    it set follow as class w - 1, so a coupled vector is two old ones scaled
    by the Clebsch-Gordan coefficients of j' (x) 1/2 and stacked:

      up from j - 1/2:   sqrt((j + m) / 2j) |m - 1/2>|0> + sqrt((j - m) / 2j) |m + 1/2>|1>
      down from j + 1/2: -sqrt((j - m + 1) / (2j + 2)) |m - 1/2>|0>
                         + sqrt((j + m + 1) / (2j + 2)) |m + 1/2>|1>

    and the multiplicity space of j is the one coupled up followed by the
    one coupled down.  The coupling is orthogonal, so no null space is
    sought.  Each vector is written once into the dense basis, into the rows
    of its class, so the orthonormality check is one C(n, w) x C(n, w) Gram
    matrix per class (``_check_classes``) rather than one of size 2^n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > SU2_COPY_CAP:
        raise ValueError(f"n must stay <= {SU2_COPY_CAP} for dense feasibility")
    spins = {0: [np.ones((1, 1))]}  # no qubit: one spin-0 vector
    for k in range(1, n + 1):
        coupled = {}
        for two_j in range(k, -1, -2):
            up, down = spins.get(two_j - 1), spins.get(two_j + 1)
            mult_up = up[0].shape[1] if up else 0
            mult = mult_up + (down[0].shape[1] if down else 0)
            coupled[two_j] = []
            for i in range(two_j + 1):
                w = (k - two_j) // 2 + i
                clear = comb(k - 1, w)  # the rows whose new bit is clear
                vec = np.zeros((comb(k, w), mult))
                if up and i < two_j:
                    vec[:clear, :mult_up] = math.sqrt((two_j - i) / two_j) * up[i]
                if up and i > 0:
                    vec[clear:, :mult_up] = math.sqrt(i / two_j) * up[i - 1]
                if down:
                    vec[:clear, mult_up:] = -math.sqrt((i + 1) / (two_j + 2)) * down[i + 1]
                    vec[clear:, mult_up:] = math.sqrt((two_j + 1 - i) / (two_j + 2)) * down[i]
                coupled[two_j].append(vec)
        spins = coupled

    ones = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    classes = [np.flatnonzero(ones == w) for w in range(n + 1)]
    basis = np.zeros((2**n, 2**n))
    columns = [[] for _ in range(n + 1)]  # the columns written into each class
    blocks = []
    offset = 0
    for two_j in range(n, -1, -2):
        vecs = spins.pop(two_j)  # freed once written
        mult = vecs[0].shape[1]
        for i, vec in enumerate(vecs):
            w = (n - two_j) // 2 + i
            start = offset + i * mult
            basis[classes[w], start : start + mult] = vec
            columns[w].extend(range(start, start + mult))
        blocks.append((two_j, mult, offset))
        offset += (two_j + 1) * mult

    _check_classes(basis, classes, columns)
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
    # real and imaginary parts apart: a real-by-complex product would make a
    # complex copy of w
    sigma = w.T @ rho.matrix.real @ w + 1j * (w.T @ rho.matrix.imag @ w)
    out = np.zeros_like(sigma)
    for two_j, mult, off in blocks:
        dim_u = two_j + 1
        width = mult * r
        lo = off * r
        hi = lo + dim_u * width
        blk = sigma[lo:hi, lo:hi].reshape(dim_u, width, dim_u, width)
        reduced = np.einsum("iaib->ab", blk)
        out[lo:hi, lo:hi] = np.kron(np.eye(dim_u) / dim_u, reduced)
    return DensityOperator(w @ out.real @ w.T + 1j * (w @ out.imag @ w.T), n=n, t=2, ref_dim=r)


def su2_optimal_state(n: int) -> PureState:
    """Capacity-achieving SU(2) input: per-block maximally entangled states
    with the reference, block weighted by dim^2 / (sum of squared dims)."""
    basis, blocks = schur_basis_su2(n)
    ref = n + 1  # >= every block dimension
    total = sum((two_j + 1) ** 2 for two_j, _, _ in blocks)
    schur_amps = np.zeros((2**n, ref))  # real, as is the basis
    for two_j, mult, off in blocks:
        dim_u = two_j + 1
        # sqrt(p_j / dim) on each of the dim entangled pairs
        amp = dim_u / math.sqrt(total) / math.sqrt(dim_u)
        for i in range(dim_u):  # projection i of multiplicity copy 0, reference state i
            schur_amps[off + i * mult, i] = amp
    full = (basis @ schur_amps).reshape(-1)
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
    # real and imaginary parts apart: a real-by-complex product would make a
    # complex copy of the basis
    schur = basis.T @ amps.real + 1j * (basis.T @ amps.imag)
    parts = []
    for two_j, mult, off in blocks:
        dim_u = two_j + 1
        block = schur[off : off + dim_u * mult].reshape(dim_u, mult * psi.ref_dim)
        s2 = np.linalg.svd(block, compute_uv=False) ** 2
        parts.append(np.repeat(s2 / dim_u, dim_u))
    return np.concatenate(parts)


def empirical_mi(spectrum: np.ndarray) -> float:
    """Entropy of a twirled spectrum: the accessible information of the
    input it was taken from.

    For ``twirled_spectrum(psi, model, n, t)`` it agrees with
    ``von_neumann_entropy`` of the dense ``mp_twirl``/``su2_twirl`` of
    ``pure_density(psi)``.
    """
    return _spectrum_entropy(float(np.sum(spectrum)), spectrum)


def lattice_srm_success(spectrum: np.ndarray, n: int, t: int) -> float:
    """Average square-root-measurement success on the phase lattice
    {2 pi k / (n+1)}^(t-1), from the mp twirled spectrum of the input: one
    mass p_w per weight w.

    The M = (n+1)^(t-1) codewords are the input's orbit under Z_(n+1)^(t-1),
    so their Gram matrix is group-circulant.  Weights are distinct mod n+1,
    so its eigenvalues are M p_w, one per weight, and 0 at the characters no
    weight reaches (some, at t >= 3).  The SRM success
    (1/M) sum_j sqrt(G)_jj^2 is then (sum_w sqrt(p_w))^2 / M (Ban, Kurokawa,
    Momose, Hirota, Int. J. Theor. Phys. 36, 1997).  A smallest eigenvalue
    below 1e-12 is reported as a degenerate codebook.
    """
    m = (n + 1) ** (t - 1)
    if len(spectrum) != comb(n + t - 1, t - 1):
        raise ValueError(f"need one mass per weight, C({n + t - 1}, {t - 1}), "
                         f"got {len(spectrum)}")
    smallest = m * float(np.min(spectrum)) if len(spectrum) == m else 0.0
    if smallest < _EIG_FLOOR:
        warnings.warn(
            f"degenerate codebook: Gram eigenvalue {smallest:.3e} below "
            f"{_EIG_FLOOR}; measurement restricted to the span",
            RuntimeWarning,
        )
    return float(np.sum(np.sqrt(spectrum))) ** 2 / m


def random_pure_state(
    rng: np.random.Generator, n: int, t: int, ref_dim: int = 1
) -> PureState:
    """Haar-random state vector at the given dimensions."""
    d = t**n * ref_dim
    if d > DENSE_DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the dense cap {DENSE_DIM_CAP}")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), n=n, t=t, ref_dim=ref_dim)
