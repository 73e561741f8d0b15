"""Dense complex matrix kernel for dimensions up to 8.

Hermitian eigendecomposition with a deterministic ordering rule, Takagi
factorization of complex symmetric matrices, the partial-transpose
separability witness for qubit-qutrit states, and Haar-random unitary
sampling.  Everything is plain numpy on small dense arrays.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import as_density_matrix, as_square_matrix
from .errors import NotHermitian, NotSymmetric

HERMITICITY_TOL = 1e-10
DEGENERACY_TOL = 1e-10
REAL_SYMMETRIC_TOL = 1e-12
_SUPPORT_TOL = 1e-8
_SV_GROUP_TOL = 1e-8
HAAR_MAX_DIM = 8
#: eigenvalues above this count toward a state's rank
RANK_TOL = 1e-12
#: matrices per stacked batch in the sampling loops; bounds their memory
BATCH_SIZE = 4096


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


def _consecutive_clusters(vals, tol=DEGENERACY_TOL):
    """Spans (lo, hi) of consecutive entries closer than ``tol``."""
    spans = []
    lo = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[i - 1]) > tol:
            spans.append((lo, i))
            lo = i
    return spans


def _first_significant(vec):
    sig = np.flatnonzero(np.abs(vec) > _SUPPORT_TOL)
    return int(sig[0]) if sig.size else 0


def _fix_phase(vec):
    z = vec[_first_significant(vec)]
    if abs(z) == 0.0:
        return vec
    return vec * (abs(z) / z)


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
    if len(basis) < k:
        # projector too ill-conditioned to resolve; keep eigh's basis
        return np.column_stack([_fix_phase(block[:, j]) for j in range(k)])
    basis = [_fix_phase(b) for b in basis]

    def key(b):
        idx = _first_significant(b)
        return (-abs(b[idx]), idx)

    return np.column_stack(sorted(basis, key=key))


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The output basis is deterministic: eigenvalues within 1e-10 are treated
    as one degenerate cluster and its eigenbasis is rebuilt canonically from
    the cluster projector; every eigenvector's phase is fixed so its first
    significant component is real positive.
    """
    a = as_square_matrix(a)
    if np.max(np.abs(a - a.conj().T)) > HERMITICITY_TOL:
        raise NotHermitian("matrix is not Hermitian to 1e-10")
    w, v = np.linalg.eigh(a)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for lo, hi in _consecutive_clusters(w):
        if hi - lo > 1:
            v[:, lo:hi] = _canonical_subspace_basis(v[:, lo:hi])
        else:
            v[:, lo] = _fix_phase(v[:, lo])
    return HermitianEig(values=w, vectors=v)


def _takagi_real(t):
    # real symmetric shortcut: eigendecompose, then turn each negative
    # eigenvalue's sign into a factor of i on its eigenvector
    w, v = np.linalg.eigh(t)
    phases = np.where(w < 0.0, 1j, 1.0 + 0.0j)
    u = v.astype(complex) * phases
    vals = np.abs(w)
    order = np.argsort(-vals, kind="stable")
    return TakagiFactorization(unitary=u[:, order], values=vals[order])


def _sym_unitary_sqrt(z):
    """Symmetric principal square root of a symmetric unitary matrix.

    Re(z) and Im(z) are commuting real symmetric matrices; a common
    orthogonal eigenbasis turns z into unit-modulus phases whose half-angles
    give the root.
    """
    z = (z + z.T) / 2.0
    x, y = z.real, z.imag
    wx, o = np.linalg.eigh(x)
    for lo, hi in _consecutive_clusters(wx, tol=1e-8):
        if hi - lo > 1:
            sub = o[:, lo:hi]
            _, p = np.linalg.eigh(sub.T @ y @ sub)
            o[:, lo:hi] = sub @ p
    theta = np.angle(np.diagonal(o.T @ z @ o))
    return (o * np.exp(0.5j * theta)) @ o.T


def _takagi_svd(t):
    # SVD route for genuinely complex symmetric input; degenerate singular
    # values are handled group-wise with a symmetric matrix square root
    a, s, bh = np.linalg.svd(t)
    w = bh.conj().T
    n = t.shape[0]
    q = np.zeros((n, n), dtype=complex)
    for lo, hi in _consecutive_clusters(s, tol=_SV_GROUP_TOL):
        if s[lo] <= REAL_SYMMETRIC_TOL:
            q[lo:hi, lo:hi] = np.eye(hi - lo)
        else:
            z = a[:, lo:hi].T @ w[:, lo:hi]
            q[lo:hi, lo:hi] = _sym_unitary_sqrt(z)
    return TakagiFactorization(unitary=a @ q.conj(), values=s.copy())


def takagi_symmetric(t):
    """Autonne-Takagi factorization T = U diag(d) U^T of a complex symmetric T.

    Returns a unitary U and nonnegative values d sorted descending; the
    values equal the singular values of T as a multiset.
    """
    t = as_square_matrix(t)
    if np.max(np.abs(t - t.T)) > HERMITICITY_TOL:
        raise NotSymmetric("matrix is not symmetric to 1e-10")
    n = t.shape[0]
    if not np.any(np.abs(t) > 0.0):
        return TakagiFactorization(unitary=np.eye(n, dtype=complex), values=np.zeros(n))
    if np.max(np.abs(t.imag)) <= REAL_SYMMETRIC_TOL:
        return _takagi_real(t.real)
    return _takagi_svd(t)


def _negativity_unchecked(rho, dims=(2, 3)):
    n1, n2 = dims
    pt = rho.reshape(n1, n2, n1, n2).transpose(2, 1, 0, 3).reshape(n1 * n2, n1 * n2)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0.0].sum())


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

    Deterministic for a fixed seed.  ``seed`` may be an int or a numpy
    Generator; the construction is QR of a complex Gaussian matrix with the
    triangular factor's diagonal phases divided out.
    """
    if not 2 <= dim <= HAAR_MAX_DIM:
        raise ValueError(f"dim must be between 2 and {HAAR_MAX_DIM}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shape = (dim, dim) if count is None else (int(count), dim, dim)
    return _haar_from_normals(rng.standard_normal(shape), rng.standard_normal(shape))


def _haar_from_normals(re, im):
    """Haar unitaries from the real and imaginary Gaussian parts, stacked or not."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
