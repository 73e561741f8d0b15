"""Dense numerics kernels for dimensions up to 8.

Hermitian eigendecomposition with a deterministic ordering rule, Takagi
factorization of complex symmetric matrices (null-space columns are a
deterministic orthonormal completion), the partial-transpose separability
witness for qubit-qutrit states, and Haar-random unitary sampling, whose
batches the searches screen in qqent._screen.  Everything is plain numpy,
without compiled extensions.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import as_budget, as_density_matrix, as_seed, as_square_matrix, differs
from .errors import DTooLarge, DTooSmall, InvalidState, NotHermitian, NotSymmetric
from .errors import ValidationError

HERMITICITY_TOL = 1e-10
DEGENERACY_TOL = 1e-10
REAL_SYMMETRIC_TOL = 1e-12
_SUPPORT_TOL = 1e-8
HAAR_MAX_DIM = 8
#: eigenvalues above this count toward a state's rank
RANK_TOL = 1e-12
#: matrices per stacked batch in the sampling loops; bounds their memory
BATCH_SIZE = 2048


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues in descending order; vectors[:, k] belongs to values[k]."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class TakagiFactorization:
    """T = unitary @ diag(values) @ unitary.T with nonnegative descending values."""

    unitary: np.ndarray
    values: np.ndarray


def _consecutive_clusters(vals):
    """Spans (lo, hi) of consecutive entries closer than DEGENERACY_TOL."""
    spans = []
    lo = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[i - 1]) > DEGENERACY_TOL:
            spans.append((lo, i))
            lo = i
    return spans


def _lead(v):
    """Row and value of each column's first component above _SUPPORT_TOL
    (row 0 if there is none)."""
    idx = np.argmax(np.abs(v) > _SUPPORT_TOL, axis=0)
    return idx, v[idx, np.arange(v.shape[1])]


def _fix_phases(v):
    """Each column of ``v`` (each with a component above _SUPPORT_TOL, as a
    unit vector has) times the phase that makes its lead component real
    positive, bit for bit as column by column: np.hypot rounds as abs() of one
    complex number does, which np.abs's vector loop need not, and a 2-D phase
    row keeps a 1 x 1 product on the loop that a column times a scalar takes."""
    z = _lead(v)[1]
    return v * (np.hypot(z.real, z.imag) / z)[None, :]


def _canonical_subspace_basis(block):
    """Deterministic orthonormal basis of span(block).

    Built by Gram-Schmidt over projections of the standard basis, so the
    result depends only on the subspace, not on the basis eigh happened to
    return.  Vectors are phase-fixed (first significant component real
    positive) and ordered by descending magnitude of that component, ties
    broken by its index.
    """
    n, k = block.shape
    proj = block @ block.conj().T
    basis = []
    for j in range(n):
        cand = proj[:, j].copy()
        for b in basis:
            cand -= b * np.vdot(b, cand)
        norm = np.linalg.norm(cand)
        if norm > _SUPPORT_TOL:
            basis.append(cand / norm)
        if len(basis) == k:
            break
    basis = _fix_phases(np.column_stack(basis))
    idx, z = _lead(basis)
    return basis[:, np.lexsort((idx, -np.hypot(z.real, z.imag)))]


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The output basis is deterministic: eigenvalues whose adjacent gaps are at
    most DEGENERACY_TOL (1e-10) form one degenerate cluster, whose eigenbasis
    is rebuilt canonically from the cluster projector; every eigenvector's
    phase is fixed so its first significant component is real positive.  A
    cluster keeps eigh's values, so V diag(w) V^H reconstructs the input only
    to within the cluster's spread (its largest minus smallest value).
    """
    a = as_square_matrix(a)
    if differs(a, a.conj().T, HERMITICITY_TOL):
        raise NotHermitian("matrix is not Hermitian to 1e-10")
    return _finite(_hermitian_eig_unchecked(a))


def _finite(fact):
    """A factorization of a checked matrix, refused (InvalidState) where the
    entries are so large that its values overflow to inf."""
    if not np.isfinite(fact.values).all():
        raise InvalidState("matrix entries so large that its values overflow the float range")
    return fact


def _hermitian_eig_unchecked(a, cut=-np.inf):
    """hermitian_eig for a finite complex square matrix already known Hermitian.

    A caller that keeps only the values above ``cut`` passes it: the clusters
    whose top value is at or below it keep eigh's columns, unphased.  Every
    other column, a cluster that straddles the cut included, is hermitian_eig's.
    """
    w, v = np.linalg.eigh(a)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    singles = []
    for lo, hi in _consecutive_clusters(w):
        if w[lo] <= cut:
            break
        if hi - lo > 1:
            v[:, lo:hi] = _canonical_subspace_basis(v[:, lo:hi])
        else:
            singles.append(lo)
    v[:, singles] = _fix_phases(v[:, singles])
    return HermitianEig(values=w, vectors=v)


def _takagi_embedded(t):
    """Takagi factorization of a complex symmetric T = A + iB from the real
    symmetric M = [[A, B], [B, -A]] (Horn & Johnson, Matrix Analysis, 2nd ed.,
    sec. 4.4).  M [x; y] = s [x; y] says T conj(u) = s u for u = x + iy, and
    [x; y] -> [-y; x] maps M's +s eigenspace onto its -s one, so any
    orthonormal top-n eigenvectors give orthonormal u, degenerate s included.
    Only T's null space, where +0 and -0 mix, is completed: by the kernel of
    the projector on the columns kept above REAL_SYMMETRIC_TOL."""
    n = t.shape[0]
    m = np.empty((2 * n, 2 * n))
    m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:] = t.real, t.imag, t.imag, -t.real
    w, v = np.linalg.eigh(m)
    w, v = w[n:][::-1], v[:, n:][:, ::-1]
    u = v[:n] + 1j * v[n:]
    k = np.count_nonzero(w > REAL_SYMMETRIC_TOL)
    if k < n:
        u[:, k:] = np.linalg.eigh(u[:, :k] @ u[:, :k].conj().T)[1][:, :n - k]
    return TakagiFactorization(unitary=u, values=np.maximum(w, 0.0))


def takagi_symmetric(t):
    """Autonne-Takagi factorization T = U diag(d) U^T of a complex symmetric T.

    Returns a unitary U and nonnegative values d sorted descending; the
    values equal the singular values of T as a multiset.  Real and complex T
    take one route, the real symmetric embedding of _takagi_embedded.  U's
    columns for values at or below 1e-12 are a deterministic orthonormal
    completion; in a degenerate cluster U is one Takagi basis of many.
    """
    t = as_square_matrix(t)
    if differs(t, t.T, HERMITICITY_TOL):
        raise NotSymmetric("matrix is not symmetric to 1e-10")
    return _finite(_takagi_embedded(t))


def _negativity_unchecked(rho, dims=(2, 3)):
    n1, n2 = dims
    pt = rho.reshape(n1, n2, n1, n2).transpose(2, 1, 0, 3).reshape(n1 * n2, n1 * n2)
    eigs = np.linalg.eigvalsh(pt)
    return float(0.0 - eigs[eigs < 0.0].sum())  # +0.0, not -0.0, when none is negative


def partial_transpose_negativity(rho):
    """Sum of |negative eigenvalues| of the mode-1 partial transpose.

    Zero iff the 2x3 state is separable (positive partial transpose is
    necessary and sufficient in 2x3).  Level ordering is
    |1..6> = |1,1>,|1,2>,|1,3>,|2,1>,|2,2>,|2,3>.
    """
    rho = as_density_matrix(rho, dim=6)
    return _negativity_unchecked(rho)


def haar_unitary(dim, seed, count=None):
    """Haar-distributed unitary (or a stack of ``count`` of them), 2 <= dim <= 8.

    Deterministic for a fixed seed.  ``seed`` may be a nonnegative int or a numpy
    Generator; the construction is QR of a complex Gaussian matrix with the
    triangular factor's diagonal phases divided out.  Each unitary consumes
    2 * dim**2 consecutive normals (real part, then imaginary part), so row i
    of a stack is the same for every ``count > i`` and
    ``haar_unitary(dim, s, count=n)[0]`` equals ``haar_unitary(dim, s)``.
    The searches draw the same normals and QR-factor only the first k
    columns they read (see _haar_columns and qqent._screen).  A bad ``dim``
    raises DTooSmall or DTooLarge (ValidationError if not an integer), a bad
    ``count`` InvalidBudget, a bad seed InvalidSeed.
    """
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ValidationError(f"dim={dim!r} must be an integer")
    if not 2 <= dim <= HAAR_MAX_DIM:
        raise (DTooSmall if dim < 2 else DTooLarge)(f"dim={dim} outside 2..{HAAR_MAX_DIM}")
    count = None if count is None else as_budget(count, "count")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(as_seed(seed))
    return _haar_columns(_haar_normals(rng, dim, count), dim)


def _haar_normals(rng, dim, count=None, out=None):
    """The normals haar_unitary consumes, shape ([count,] 2, dim, dim),
    written into ``out`` when given."""
    return rng.standard_normal((2, dim, dim) if count is None else (count, 2, dim, dim), out=out)


def _haar_columns(g, k):
    """First k columns of the Haar unitaries built from the normals ``g``.

    ``g`` comes from _haar_normals, shape (..., 2, D, D).  Householder QR
    makes column j of Q and R[j, j] from the first j + 1 input columns only,
    so factoring only the first k columns yields exactly (bit for bit) the
    first k columns of the full construction, at a fraction of the cost.
    """
    q, r = np.linalg.qr((g[..., 0, :, :k] + 1j * g[..., 1, :, :k]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
