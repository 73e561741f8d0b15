"""Dense numerics kernels for dimensions up to 8.

Hermitian eigendecomposition with a deterministic ordering rule, Takagi
factorization of complex symmetric matrices (null-space columns are a
deterministic orthonormal completion), the partial-transpose separability
witness for qubit-qutrit states, and Haar-random unitary sampling.  The
Haar screens' batch kernels sit here too: Gram-Schmidt columns with a
conditioning certificate and an unpivoted Cholesky test, each over a whole
batch as struct-of-arrays stacks with the draw axis last, and the rule
(_candidates) that picks the draws scored exactly.  Everything is plain
numpy, without compiled extensions.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import as_budget, as_density_matrix, as_seed, as_square_matrix
from .errors import DTooLarge, DTooSmall, NotHermitian, NotSymmetric, ValidationError

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
    if len(basis) < k:
        # projector too ill-conditioned to resolve; keep eigh's basis
        return _fix_phases(block)
    basis = _fix_phases(np.column_stack(basis))
    idx, z = _lead(basis)
    return basis[:, np.lexsort((idx, -np.hypot(z.real, z.imag)))]


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
    return _hermitian_eig_unchecked(a)


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


def _takagi_real(t):
    # real symmetric shortcut: eigendecompose, then turn each negative
    # eigenvalue's sign into a factor of i on its eigenvector
    w, v = np.linalg.eigh(t)
    phases = np.where(w < 0.0, 1j, 1.0 + 0.0j)
    u = v.astype(complex) * phases
    vals = np.abs(w)
    order = np.argsort(-vals, kind="stable")
    return TakagiFactorization(unitary=u[:, order], values=vals[order])


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
    values equal the singular values of T as a multiset.  For complex T, U's
    columns for values at or below 1e-12 are a deterministic orthonormal
    completion; in a degenerate cluster U is one Takagi basis of many.
    """
    t = as_square_matrix(t)
    if np.max(np.abs(t - t.T)) > HERMITICITY_TOL:
        raise NotSymmetric("matrix is not symmetric to 1e-10")
    return _takagi_unchecked(t)


def _takagi_unchecked(t):
    """takagi_symmetric for a finite complex square matrix already known symmetric."""
    if np.max(np.abs(t.imag)) <= REAL_SYMMETRIC_TOL:
        return _takagi_real(t.real)
    return _takagi_embedded(t)


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
    The searches read only the first k columns and draw the same normals.
    The decomposition rows QR-factor only those columns, which gives the
    same columns bit for bit.  The minimum-average search and the
    gen-preconcurrence screen orthonormalize their first columns of the same
    normals by Gram-Schmidt instead (equal to round-off, enough for an
    estimate) and rebuild the few draws they score exactly through the same
    QR.  A bad ``dim`` raises DTooSmall or DTooLarge (ValidationError if
    not an integer), a bad ``count`` InvalidBudget, a bad seed InvalidSeed.
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


#: Candidate margin of the Gram-Schmidt screens.  A screen estimates each
#: draw's value from the first r columns of its Haar unitary, built by
#: _gram_schmidt, and rescores exactly (through _haar_columns) the draws
#: that _candidates returns.  If every unflagged estimate lies within half
#: the margin of its exact value, the exact best draw, and every draw that
#: ties it, is among those, so the answer and its tie rule are the same bit
#: for bit as scoring every draw exactly.  Both screens stay far inside that:
#:
#: - measures.sampled_gen_preconcurrence estimates sigma1 - sigma2 =
#:   sqrt(||b||_F^2 - 2 |det b|) of the r x r block b = sqrt(L_r) V_r sqrt(L_r)
#:   when r <= 2, and sqrt(eigvalsh(b^H b)) otherwise.  ||b||_2 <= lam1 <= 1,
#:   so a backward-stable eigvalsh puts each eigenvalue within c * eps of
#:   sigma^2, and each square root within sqrt(c * eps) ~ 1e-7 of sigma
#:   (|sqrt(x) - sqrt(y)| <= sqrt(|x - y|)); the r = 2 closed form has one
#:   such square root.  The preconcurrence sums at most six values with
#:   coefficients +-1, so an estimate is within 1e-6 of the exact SVD value.
#: - decompositions.min_average_search estimates the average sum_j E(bar_j),
#:   bar_j = sum_k U_jk sqrt(lam_k) v_k.  E is degree-2 homogeneous:
#:   E(x) = 2 ||m(x, x)|| with m the bilinear 2 x 2 minors of x as a 2 x 3
#:   array, ||m(x, y)|| <= sqrt(2) ||x|| ||y||, so
#:   |E(x) - E(y)| <= 2 sqrt(2) ||x - y|| (||x|| + ||y||).  Since
#:   sum_j ||bar_j||^2 = tr rho = 1 and ||d bar||_F <= ||dU_r||_F, Cauchy-Schwarz
#:   gives |d avg| <= 4 sqrt(2) ||dU_r||_F <= 4 sqrt(2) sqrt(r) c kappa eps
#:   ~ 4e-8 at kappa = 1e5 (c < 120, see SCREEN_KAPPA).  The estimate also
#:   counts members with p_j <= 1e-14, which the exact average drops; as
#:   E(x) <= ||x||^2 that adds at most D * 1e-14.
#:
#: At r >= 3 the preconcurrence screen runs eigvalsh only on draws it cannot
#: rule out, from two lower bounds of ||b||_* that cost no recursion.  One is
#: the trace bound T = tr(b V_r^H) = sum_ij s_i s_j |V_ij|^2, s = sqrt(L): von
#: Neumann's trace inequality gives T <= ||V_r|| ||b||_*, and V_r is a block
#: of the columns Q that CGS2 returns, so ||V_r|| <= 1 + ||Q^H Q - I||, a few
#: eps from 1 below the kappa cap.  The other is F / sigma1, F = ||b||_F^2 =
#: tr H, H = b^H b, as sum sigma_k^2 <= sigma1 sum sigma_k.  Let L0 be an
#: eigvalsh estimate of some unflagged draw of the batch, t = L0 - 2 SCREEN_MARGIN
#: and y the larger of (t + T) / 2 and (t + sqrt(t^2 + 8 F)) / 4, the root of
#: 2 y - F / y = t.  A draw for which x I - H, x = y^2, passes the Cholesky
#: recursion (_cholesky_passes) is certified: sigma1 < y, so its value
#: 2 sigma1 - ||b||_* is below 2 y - T = t, or, 2 sigma - F / sigma rising in
#: sigma, below 2 y - F / y = t.  A recursion that runs to completion is
#: exact for some x I - H + E with ||E|| <= gamma_(r+1) r tr(x I - H + E)
#: (Demmel, SIAM J. Matrix Anal. Appl. 10, 1989), at most ~6e-14 x, so
#: sigma1^2 < x (1 + 1e-13).  T's terms are at most 1, so it is rounded by
#: about r^2 eps; F, summed from H's rounded diagonal, by about r eps F; and
#: eigvalsh puts each estimated sigma_k within sqrt(c eps) ~ 1e-7 of H's
#: (see above).  So a pruned draw's estimate is below L0 - 2 SCREEN_MARGIN
#: + 2e-6, more than SCREEN_MARGIN under the batch's best, and _candidates
#: would not have returned it.  Any lower bound of ||b||_* keeps that
#: argument, so the answer does not depend on which bound certifies a draw.
#: Flagged draws are never pruned.
SCREEN_MARGIN = 1e-5

#: Conditioning cap of the screens' Gram-Schmidt.  Classical Gram-Schmidt
#: with one reorthogonalization pass (CGS2) on the D x r normals A_r returns
#: columns within c * kappa * eps of A_r's exact Q factor, c ~ D * r^1.5
#: <= 8 * 6^1.5 < 120 (Giraud, Langou, Rozloznik, van den Eshof, Numer. Math.
#: 101, 87 (2005); the QR perturbation bound turns their backward error into
#: a kappa-relative one), and the Householder QR of the exact path is as
#: close.  kappa(A_r) <= ||A_r||_F^r / prod R_jj, since prod R_jj =
#: prod sigma_k <= sigma_r ||A_r||_F^(r-1) and sigma_1 <= ||A_r||_F.  In the
#: preconcurrence screen a change dV moves each singular value of
#: sqrt(L) V sqrt(L) by at most lam1 ||dV||_2 <= ||dV||, so below this cap
#: the Gram-Schmidt adds at most 12 * 120 * 1e5 * 2.2e-16 ~ 3e-8 to its 1e-6
#: error budget.  Draws above the cap (about 1 in 1000 at rank 6, none seen
#: below rank 5) are always scored exactly.
SCREEN_KAPPA = 1e5


def _candidates(score, kappa):
    """Indices of the draws a screen scores exactly: each with ``kappa`` over
    SCREEN_KAPPA, whatever its ``score``, and each other unpruned (not -inf)
    one within SCREEN_MARGIN of the best unflagged score (higher is better)."""
    flagged = kappa > SCREEN_KAPPA
    cut = np.max(score, where=~flagged, initial=-np.inf) - SCREEN_MARGIN
    return np.flatnonzero(flagged | (score >= cut) & (score > -np.inf))


def _gram_schmidt(g, r):
    """The first r columns of the Haar unitaries from the normals ``g``, by
    CGS2 over the whole batch.

    ``g`` comes from _haar_normals, shape (N, 2, D, D).  Struct of arrays:
    the real and imaginary parts come back as separate (r, D, N) arrays,
    column first and draw last, each copied out of ``g`` in turn and
    orthogonalized in its output slot.  The input is not scaled by
    1/sqrt(2) and no phase is fixed: Gram-Schmidt's R has a positive
    diagonal, like haar_unitary's, so the columns equal _haar_columns(g, r)
    to round-off.
    Also returns, per draw, the conditioning certificate
    ||A_r||_F^r / prod R_jj, an upper bound on kappa(A_r).
    """
    n, _, d, _ = g.shape
    qr, qi = np.empty((r, d, n)), np.empty((r, d, n))
    prod_r, frob2 = np.ones(n), np.zeros(n)
    for j in range(r):
        vr, vi = qr[j], qi[j]  # row, draw
        np.copyto(vr, g[:, 0, :, j].T)
        np.copyto(vi, g[:, 1, :, j].T)
        frob2 += np.einsum("in,in->n", vr, vr) + np.einsum("in,in->n", vi, vi)
        pr, pi = qr[:j], qi[:j]
        for _ in range(2 if j else 0):
            cr = np.einsum("kin,in->kn", pr, vr) + np.einsum("kin,in->kn", pi, vi)
            ci = np.einsum("kin,in->kn", pr, vi) - np.einsum("kin,in->kn", pi, vr)
            vr -= np.einsum("kin,kn->in", pr, cr) - np.einsum("kin,kn->in", pi, ci)
            vi -= np.einsum("kin,kn->in", pr, ci) + np.einsum("kin,kn->in", pi, cr)
        norm = np.sqrt(np.einsum("in,in->n", vr, vr) + np.einsum("in,in->n", vi, vi))
        vr /= norm
        vi /= norm
        prod_r *= norm
    return qr, qi, np.sqrt(frob2) ** r / prod_r


#: a pivot of _cholesky_passes at or below this fails the recursion
_PIVOT_FLOOR = 1e-12


def _cholesky_passes(hr, hi):
    """Whether every pivot of the unpivoted Cholesky recursion of each
    Hermitian matrix hr + i hi, struct of arrays (r, r, N) with the draw
    axis last, exceeds _PIVOT_FLOOR, which certifies it positive definite.

    A failed pivot is replaced by 1, so the rest of that draw's recursion
    stays finite.  Reads and overwrites only the lower triangle, with the
    diagonal, of both inputs.
    """
    r = hr.shape[0]
    ok = np.ones(hr.shape[-1], dtype=bool)
    scratch = np.empty(hr.shape[1:])
    for k in range(r):
        ok &= hr[k, k] > _PIVOT_FLOOR
        root = np.sqrt(np.where(ok, hr[k, k], 1.0))
        # l, in place: no later step reads column k
        lr, li = (np.divide(h[k + 1:, k], root, out=h[k + 1:, k]) for h in (hr, hi))
        for j in range(1, r - k):  # lower triangle of the trailing block minus l l^H, by rows
            x, y, s = lr[j - 1], li[j - 1], scratch[:j]
            hr[k + j, k + 1:k + j + 1] -= np.multiply(x, lr[:j], out=s)
            hr[k + j, k + 1:k + j + 1] -= np.multiply(y, li[:j], out=s)
            hi[k + j, k + 1:k + j + 1] -= np.multiply(y, lr[:j], out=s)
            hi[k + j, k + 1:k + j + 1] += np.multiply(x, li[:j], out=s)
    return ok
