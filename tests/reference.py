"""Slow, independent references for the closed forms and fast routes.

The library computes SU(t) dimensions and tableau counts (f = d M / Q) only
in one top-down walk over the shapes that carries the products of shared top
rows, multinomials by updating the neighbouring weight's, the sum of squared
SU(t) dimensions by the Cauchy identity, the finite-reference SU(t) support
as that sum minus the deficit of the unsaturated shapes, which the same walk
yields when it prunes the saturated ones, the phase twirl by exact weight
equality, the entropy of a twirl from its block spectrum, and the
square-root measurement on the phase lattice as (sum_w sqrt(p_w))^2 / M over
the weight masses, and writes report rows through one %-template per report;
the tests check them against these brute computations, never against
themselves.  The finite-reference support is also the dimension of an orbit
span, the numerical rank of random orbit vectors (``orbit_rank``), and a
dense twirl's entropy comes from its full eigensolve (``dense_entropy``).

The dense square-root measurement is here: the lattice codebook
(``mp_lattice``), its local unitaries (``mp_unitary``, ``lattice_unitaries``),
their tensor powers on a state (``tensor_power_apply``), and the SRM success
from the Gram matrix of the coded states and its eigensolve
(``srm_discrimination``), which also takes codebooks of any local unitaries.

The shapes themselves come one at a time from ``partition_rows``, whose
order the walk must keep; the occupation vectors from ``weight_vectors``.
The rules every block row of a decomposition keeps (labels of t entries
summing to n, su labels non-increasing, mp blocks one-dimensional, positive
dim and mult, 1 <= eff_mult <= dim, distinct labels and the fill), which the
walks make true by construction and ``decompose`` checks only the fill of,
are ``check_rows``, run on the walks' own rows.
The conversion work of a decompose report, the sum of squared digit counts
of the integers it writes, which the CLI's closed-form estimate must bound,
is brute force over both (``digit_work``).

Three counts check the shape walk's dimensions and tableau counts through
Robinson-Schensted-Knuth, with no hook-length or Weyl formula: over shapes of
at most t rows, sum f^2 counts the permutations of n with no decreasing
subsequence longer than t, sum f the involutions among them
(``short_decreasing_counts``, by patience sorting), and sum d the symmetric
t x t matrices over the naturals whose entries on and above the diagonal,
those above counted twice, add up to n (``symmetric_matrix_count``).

It also holds the paper's bounds that no command reports, which the
acceptance criteria check against the capacities: the gapped-partition lower
bound (``gapped_partitions``, ``su_lower_bound``, with ``log_fraction``), the
Fano converse (``fano_bound``), the sup-metric ball volume and the radius it
forces (``ball_volume_mp``, ``radius_bound``), and a Haar SU(2) sampler
(``haar_su2``) for the invariance tests.

The SU(2) Schur basis, which the library builds one weight class at a time
from gather tables, is built here from the dense lowering operator
(``schur_basis_su2_dense``).
"""

import bisect
import itertools
import math
import warnings
from fractions import Fraction
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from metrocap.cli import _COMMANDS
from metrocap.oracle import _EIG_FLOOR, DensityOperator, PureState, _digit_counts


def partition_rows(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """Raw row tuples of all partitions of n into at most t parts.

    Lexicographically descending, zero-padded to length t.  Iterative: each
    step lowers the rightmost row that can give a box to the rows below it
    and refills those rows greedily, so any t works.
    """
    rows = [n] + [0] * (t - 1)
    occupied = 1 if n else 0  # rows[occupied:] are all zero
    while True:
        yield tuple(rows)
        below = 0  # boxes in the rows after k
        for k in range(occupied - 1, -1, -1):
            cap = rows[k] - 1
            if below < cap * (t - 1 - k):  # room for below + 1 boxes at most cap each
                break
            below += rows[k]
        else:
            return
        rows[k] = cap
        full, rest = divmod(below + 1, cap)
        end = k + 1 + full
        rows[k + 1:end] = [cap] * full
        if rest:
            rows[end] = rest
            end += 1
        if end < occupied:
            rows[end:occupied] = [0] * (occupied - end)
        occupied = end


def hook_length_count(rows) -> int:
    """Standard Young tableaux of shape ``rows``: n! over the product of hook
    lengths, one box at a time."""
    rows = [r for r in rows if r > 0]
    if not rows:
        return 1
    col_heights = [0] * rows[0]
    for row in rows:
        for j in range(row):
            col_heights[j] += 1
    hooks = math.prod([(row - j) + (col_heights[j] - i) - 1
                       for i, row in enumerate(rows) for j in range(row)])
    return factorial(sum(rows)) // hooks


def pairwise_weyl_dim(rows) -> int:
    """SU(t) dimension of the non-increasing ``rows`` (t = len(rows)) as the
    Weyl product of (r_i - r_j + j - i) / (j - i) over every pair i < j with
    an occupied row i."""
    t = len(rows)
    num = den = 1
    for i in range(t):
        if not rows[i]:
            break
        num *= math.prod(rows[i] - rows[j] + j - i for j in range(i + 1, t))
        den *= math.prod(range(1, t - i))  # j - i for j = i+1 .. t-1
    assert num % den == 0
    return num // den


def enumerated_square_sum(n: int, t: int) -> int:
    """Sum of squared SU(t) Weyl dimensions over every partition of n into at
    most t rows, enumerated one partition at a time."""
    return sum(pairwise_weyl_dim(rows) ** 2 for rows in partition_rows(n, t))


def enumerated_su_support(n: int, t: int, l: int) -> int:
    """Finite-reference SU(t) support sum_lam d_lam min(l f_lam, d_lam) over
    every partition of n into at most t rows, from the pairwise Weyl product
    and the hook-length count."""
    total = 0
    for rows in partition_rows(n, t):
        dim = pairwise_weyl_dim(rows)
        total += dim * min(l * hook_length_count(rows), dim)
    return total


def factorial_multinomial(counts) -> int:
    """n! / (c_0! c_1! ...) for n = sum(counts), from the factorials."""
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def weight_vectors(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """Every occupation vector of n over t levels, by stars and bars: the
    t-1 bars among n+t-1 places, the counts between them."""
    for bars in itertools.combinations(range(n + t - 1), t - 1):
        ends = (-1, *bars, n + t - 1)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def check_rows(model, n: int, t: int, rows) -> None:
    """The rules every block row (*label, dim, mult, eff_mult) of a
    decomposition of (n, t) keeps, in any order: each label has t
    non-negative entries summing to n, non-increasing for su (a partition);
    mp blocks are one-dimensional; dim >= 1, mult >= 1 and
    1 <= eff_mult <= dim; no label comes twice; and together the blocks fill
    the space, sum dim * mult = t^n.  decompose's walks make them true by
    construction and check only the fill.  Raises ValueError naming the
    first rule broken; the lengths come before the duplicates, since short
    rows share the label ()."""
    labels = [row[:-3] for row in rows]
    for label, row in zip(labels, rows):
        if len(row) != t + 3:
            raise ValueError(f"label {label} has {max(len(row) - 3, 0)} entries, "
                             f"expected t = {t}")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate irrep labels")
    partitions = model == "su"
    for label, row in zip(labels, rows):
        dim, mult, eff = row[-3:]
        if min(label) < 0:
            raise ValueError(f"negative entry in label {label}")
        if partitions:
            if any(a < b for a, b in zip(label, label[1:])):
                raise ValueError(f"rows must be non-increasing, got {label}")
        elif dim != 1:
            raise ValueError("multi-phase blocks must be one-dimensional")
        if sum(label) != n:
            raise ValueError(f"label {label} sums to {sum(label)}, expected n = {n}")
        if dim < 1 or mult < 1:
            raise ValueError("dim and mult must be positive")
        if not 1 <= eff <= dim:
            raise ValueError(f"eff_mult {eff} outside [1, dim={dim}]")
    if sum(row[-3] * row[-2] for row in rows) != t**n:
        raise ValueError("blocks do not fill the full space")


def digit_work(model: str, n: int, t: int) -> int:
    """Sum of D^2 over the integers a decompose report of (n, t) with an
    unbounded reference writes, D an integer's decimal digit count: for mp
    the factorial multinomial of every occupation vector (its dim and
    eff_mult are the literal 1), for su every partition's pairwise Weyl
    dimension, twice (eff_mult = dim), and its hook-length count.  A finite
    reference writes eff_mult <= dim, so no more."""
    if model == "mp":
        return sum(len(str(factorial_multinomial(c))) ** 2 for c in weight_vectors(n, t))
    return sum(2 * len(str(pairwise_weyl_dim(rows))) ** 2 + len(str(hook_length_count(rows))) ** 2
               for rows in partition_rows(n, t))


def longest_decreasing(seq) -> int:
    """Length of the longest strictly decreasing subsequence, by patience
    sorting: each value goes on the leftmost pile whose top is not above it,
    or starts a new pile, and the piles then number that length."""
    tops = []  # negated pile tops, increasing
    for x in seq:
        i = bisect.bisect_left(tops, -x)
        tops[i:i + 1] = [-x]
    return len(tops)


def short_decreasing_counts(n: int, t: int) -> tuple[int, int]:
    """(permutations, involutions) of n with no decreasing subsequence longer
    than t, by brute force over all n! permutations."""
    perms = involutions = 0
    for p in itertools.permutations(range(n)):
        if longest_decreasing(p) <= t:
            perms += 1
            involutions += all(p[x] == i for i, x in enumerate(p))
    return perms, involutions


def symmetric_matrix_count(n: int, t: int) -> int:
    """Symmetric t x t matrices over the naturals whose t diagonal entries
    and e = C(t, 2) entries above it, those counted twice, add up to n: the
    coefficient of q^n in (1-q)^(-t) (1-q^2)^(-e), summed over the total k
    above the diagonal."""
    e = math.comb(t, 2)
    return sum(math.comb(n - 2 * k + t - 1, t - 1) * math.comb(k + e - 1, e - 1)
               for k in range(n // 2 + 1))


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


def log_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, as a difference of integer logs."""
    if q <= 0:
        raise ValueError(f"need a positive rational, got {q}")
    return math.log(q.numerator) - math.log(q.denominator)


def block_state_mi(p, decomp) -> float:
    """Mutual information H(p) + sum_b p_b log(dim_b * eff_mult_b) in nats of
    the block distribution ``p``, a mapping from row labels to probabilities.

    Accepts exact fractions or floats for p.  Terms are grouped by the exact
    ratio (dim * eff_mult) / p_b before any float log is taken, so feeding the
    optimal distribution reproduces capacity().value bit for bit.
    """
    sizes = {row[:-3]: row[-3] * row[-1] for row in decomp.rows}
    groups = {}
    total = Fraction(0)
    for label, prob in p.items():
        if label not in sizes:
            raise ValueError(f"{label!r} is not a block of this decomposition")
        q = Fraction(prob)
        if q < 0:
            raise ValueError(f"negative probability {prob} at {label!r}")
        if q == 0:
            continue
        total += q
        ratio = Fraction(sizes[label]) / q
        groups[ratio] = groups.get(ratio, Fraction(0)) + q
    if abs(total - 1) > Fraction(1, 10**9):
        raise ValueError(f"probabilities sum to {float(total)}, not 1")
    return sum(float(c) * log_fraction(r) for r, c in groups.items())


def gapped_partitions(n: int, t: int, a) -> list[tuple[int, ...]]:
    """Rows of the partitions of n into <= t rows, zero-padded, whose
    consecutive row gaps are all >= n/(a*t).

    ``a`` may be any rational in [2, 3] such that n/(a*t) is a positive integer.
    """
    a = Fraction(a)
    if not Fraction(2) <= a <= Fraction(3):
        raise ValueError(f"a must lie in [2, 3], got {a}")
    gap = Fraction(n, t) / a
    if gap.denominator != 1 or gap <= 0:
        raise ValueError(f"n/(a*t) = {gap} must be a positive integer")
    g = int(gap)
    return [rows for rows in partition_rows(n, t)
            if all(rows[k] - rows[k + 1] >= g for k in range(t - 1))]


def su_lower_bound(n: int, t: int, a) -> float:
    """log(count of gapped partitions) + t(t-1) log(n/(a t^2)).

    Counts the gap-constrained partitions exactly rather than through a
    binomial estimate; each such partition has dim >= (n/(a t^2))^(t(t-1)/2).
    """
    lams = gapped_partitions(n, t, a)
    if not lams:
        raise ValueError(f"no gapped partitions for n={n}, t={t}, a={a}")
    factor = Fraction(n) / (Fraction(a) * t * t)
    return math.log(len(lams)) + t * (t - 1) * log_fraction(factor)


def fano_bound(mi: float, eps: float) -> float:
    """(log 2 + mi) / (1 - eps): cap on log M at average error eps."""
    if mi < 0:
        raise ValueError("mutual information must be non-negative")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    return (math.log(2.0) + mi) / (1.0 - eps)


def ball_volume_mp(radius: float, t: int) -> float:
    """Normalized volume of a sup-metric ball of given radius on the (t-1)-torus.

    Each axis contributes min(1, radius/pi); the whole torus has volume 1.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if t < 2:
        raise ValueError("t must be at least 2")
    return min(1.0, radius / math.pi) ** (t - 1)


_RADIUS_TOL = 1e-10


def radius_bound(m: float, ball_volume) -> float:
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


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed SU(2) element."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (r.diagonal() / np.abs(r.diagonal()))
    return q / np.sqrt(np.linalg.det(q))


def orbit_rank(n: int, t: int, l: int, rng: np.random.Generator) -> int:
    """Dimension of the span of the orbit (U^(x)n (x) I_l) psi of a random
    psi in (C^t)^(x)n (x) C^l under Haar U(t): the numerical rank of
    t^n l + 40 orbit vectors.

    The span is the module the tensor-power algebra generates from psi; for
    a generic psi it has dimension sum_lam d_lam min(l f_lam, d_lam), the
    finite-reference su support, here counted with no Weyl, hook-length or
    shape-walk formula.  A rank without a singular-value gap of 10^6 is
    refused.
    """
    dim = t**n * l
    psi = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)).reshape((t,) * n + (l,))
    vectors = np.empty((dim + 40, dim), dtype=complex)
    for k in range(dim + 40):
        z = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
        q, r = np.linalg.qr(z)
        u = q * (r.diagonal() / np.abs(r.diagonal()))
        v = psi
        for axis in range(n):
            v = np.moveaxis(np.tensordot(u, v, axes=([1], [axis])), 0, axis)
        vectors[k] = v.reshape(-1)
    s = np.linalg.svd(vectors, compute_uv=False)
    rank = int(np.sum(s > s[0] * 1e-9))
    if rank < len(s) and s[rank - 1] < 1e6 * s[rank]:
        raise ArithmeticError(f"no singular-value gap at rank {rank}: {s[rank - 1]}, {s[rank]}")
    return rank


def schur_basis_su2_dense(n: int):
    """The SU(2) Schur basis from the dense 2^n x 2^n lowering operator, in
    the layout of ``oracle.schur_basis_su2``: (basis, blocks).

    J- is the 0/1 matrix adding one set bit, filled index by index; the
    highest weights with k set bits are the SVD null space of J+ = J-^T from
    k to k-1 set bits, each is lowered by one dense product per spin
    projection, and the whole basis is checked by its 2^n x 2^n Gram matrix.
    """
    if n < 1:
        raise ValueError("n must be positive")
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
        expected = math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)
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


def grid_twirl(rho, n: int, t: int, N: int):
    """Phase twirl of ``rho`` as the average of U rho U^dagger over the grid
    of N points per phase axis.  Matrix elements depend on each phase through
    trigonometric polynomials of degree at most n, so any N >= n+1 gives the
    continuous Haar average; a smaller N aliases distinct weights."""
    counts = _digit_counts(n, t)
    if rho.ref_dim > 1:
        counts = np.repeat(counts, rho.ref_dim, axis=0)
    axis = 2.0 * np.pi * np.arange(N) / N
    thetas = np.array(list(itertools.product(axis, repeat=t - 1)))
    v = np.exp(1j * (counts @ thetas.T))  # dim x N^(t-1)
    mask = (v @ v.conj().T) / v.shape[1]  # 1 where weights agree, else averages to 0
    return DensityOperator(rho.matrix * mask, n=n, t=t, ref_dim=rho.ref_dim)


def mp_lattice(n: int, t: int) -> tuple[tuple[float, ...], ...]:
    """The phase vectors of the (n+1)-per-axis lattice {2 pi k / (n+1)} on
    the (t-1)-torus, the codebook used at n copies.

    Its covering radius pi/(n+1) realizes the 1/n estimation scaling.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if t < 2:
        raise ValueError("t must be at least 2")
    N = n + 1
    axis = [2.0 * math.pi * k / N for k in range(N)]
    return tuple(itertools.product(axis, repeat=t - 1))


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


def lattice_unitaries(n: int, t: int = 2) -> list:
    """The local unitaries of the phase lattice codebook of ``mp_lattice(n, t)``,
    the codebook form ``srm_discrimination`` takes."""
    return [mp_unitary(theta, t) for theta in mp_lattice(n, t)]


def renyi_entropy(spectrum, alpha: float) -> float:
    """Order-alpha Renyi entropy of a probability spectrum, in nats.

    alpha must be positive and not 1; eigenvalues below 1e-12 are dropped.
    """
    if alpha <= 0 or alpha == 1:
        raise ValueError(f"alpha must be positive and not 1, got {alpha}")
    if any(p < -1e-12 for p in spectrum):
        raise ValueError("spectrum has a negative weight")
    total = math.fsum(max(p, 0.0) for p in spectrum)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"spectrum sums to {total}, not 1")
    z = math.fsum(p**alpha for p in spectrum if p > 1e-12)
    return math.log(z) / (1.0 - alpha)


def shannon_entropy(spectrum) -> float:
    """-sum p log p over weights above 1e-12, in nats."""
    total = math.fsum(max(p, 0.0) for p in spectrum)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"spectrum sums to {total}, not 1")
    return -math.fsum(p * math.log(p) for p in spectrum if p > 1e-12)


def dense_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy of a dense density operator, in nats: the Shannon
    entropy of its full eigensolve."""
    return shannon_entropy(np.linalg.eigvalsh(rho.matrix))


def torus_distance(x, y) -> float:
    """Sup-metric distance on the torus, each axis modulo 2 pi."""
    if len(x) != len(y):
        raise ValueError("phase vectors must have equal length")
    worst = 0.0
    for a, b in zip(x, y):
        d = math.fmod(abs(a - b), 2.0 * math.pi)
        worst = max(worst, min(d, 2.0 * math.pi - d))
    return worst


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):  # a label
        return "|".join(map(str, value))
    return str(value)


def report_to_csv(report: dict) -> str:
    """CSV of a parsed JSON report, one dict row and one cell at a time; a
    column that a row lacks is read from the report itself."""
    header = _COMMANDS[report["command"]].csv.format(
        u="nats" if report.get("log_base", "e") == "e" else "bits")
    names = header.split(",")
    *_, last = report.values()
    lines = [header]
    # a report that holds every column is one row; else its last item holds the rows
    for row in [report] if set(names) <= report.keys() else last:
        lines.append(",".join(_csv_cell(row[c] if c in row else report[c]) for c in names))
    return "\n".join(lines) + "\n"
