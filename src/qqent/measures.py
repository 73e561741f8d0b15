"""Entanglement functionals for 2x2 and 2x3 states.

Mixed-state values are convex-roof minima only where the closed forms are
valid (minimal TGX / minimal SGX input); the form gates raise otherwise.
"""

import math

import numpy as np

from ._checks import as_budget, as_density_matrix, as_seed, as_spectrum, as_unit_ket
from .errors import (
    InvalidQuartet,
    NotMinimalSGX,
    NotMinimalTGX,
    NotTGXForm,
    NotXForm,
)
from .numerics import (
    BATCH_SIZE, SCREEN_KAPPA, SCREEN_MARGIN, _candidates, _cholesky_passes, _gram_schmidt,
    _haar_columns, _haar_normals,
)
from .states import DELTA_TOL, QUARTETS, ZERO_TOL, _class_of, _classify, _coherent_quartet
from .states import _offdiag_support, _physical_pair, build_alpha_beta, e_mems

#: QUARTETS as 0-based level indices, and the index grid of each quartet's 4x4 block.
_QUARTET_IDX = tuple(tuple(k - 1 for k in q) for q in QUARTETS)
_GRID = tuple(np.ix_(i, i) for i in _QUARTET_IDX)

#: sigma_y (x) sigma_y, the two-qubit spin flip.
SPIN_FLIP_4 = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
)

#: eigh round-off of a 4x4 block per unit of its top eigenvalue (<= 3.2 eps seen)
_EIG_ROUNDOFF = 8 * np.finfo(float).eps


def _block_tau(w, v):
    """Rows u_k = sqrt(w_k) v[:, k] of the eigenpairs (w, v, sorted either way)
    of a 4x4 block, zero where w_k is eigh round-off (<= _EIG_ROUNDOFF times
    the top one), and the symmetrized spin-flip overlap tau_kl = <u_k|F|u_l*>.
    tau's singular (Takagi) values are the block's concurrence singular values;
    building them from u never squares the data, so they come out at machine
    precision and a real w_k, however small, adds about sqrt(w_k)."""
    u = np.zeros((4, 4), dtype=complex)
    keep = w > _EIG_ROUNDOFF * max(w[0], w[-1], 0.0)
    u[keep] = (v[:, keep] * np.sqrt(w[keep])).T
    tau = u.conj() @ SPIN_FLIP_4 @ u.conj().T
    return u, (tau + tau.T) / 2.0


def _concurrence_block(block):
    """Concurrence max{0, xi1 - xi2 - xi3 - xi4} of a possibly subnormalized
    4x4 block (degree-1 homogeneous; a zero block gives 0), from _block_tau of
    its raw eigh, whose basis the values do not depend on."""
    xi = np.linalg.svd(_block_tau(*np.linalg.eigh(block))[1], compute_uv=False)
    return float(max(0.0, xi[0] - xi[1] - xi[2] - xi[3]))


def concurrence_2x2(rho):
    """Two-qubit concurrence max{0, xi1 - xi2 - xi3 - xi4}."""
    return _concurrence_block(as_density_matrix(rho, dim=4))


def _require_x_form(rho):
    bad = [divmod(f, 4) for f in (1, 2, 7, 11) if abs(rho.item(f)) > ZERO_TOL]
    if bad:
        raise NotXForm(f"nonzero entries off the X pattern at {bad}")


def x_concurrence(rho):
    """Closed form for X states: 2 max{0, |r14| - sqrt(r22 r33), |r23| - sqrt(r11 r44)}."""
    return _x_concurrence(as_density_matrix(rho, dim=4))


def _x_concurrence(rho):
    _require_x_form(rho)
    return 2.0 * max(0.0, *_x_pair(rho, _clipped_diagonal(rho), 0, 1, 2, 3))


def _clipped_diagonal(rho):
    """The real diagonal as floats, negatives (and -0.0) clipped to 0.0."""
    return [v if v > 0.0 else 0.0 for v in rho.diagonal().real.tolist()]


def _x_pair(rho, diag, a, b, c, d):
    """X-form arguments |r_ad| - sqrt(r_bb r_cc), |r_bc| - sqrt(r_aa r_dd), 0-based."""
    return (abs(rho.item(a, d)) - math.sqrt(diag[b] * diag[c]),
            abs(rho.item(b, c)) - math.sqrt(diag[a] * diag[d]))


def quartet_x_concurrence(rho, quartet):
    """Quartet-subspace concurrence of a TGX state, via the X shortcut.

    Indices in the formula refer to the 6x6 parent state; valid because
    every quartet subspace of a TGX state has X form.
    """
    rho = as_density_matrix(rho, dim=6)
    if tuple(quartet) not in QUARTETS:
        raise InvalidQuartet(f"{quartet} is not a 2x3 product quartet")
    if not _classify(rho).is_tgx:
        raise NotTGXForm("state is not in TGX form")
    return 2.0 * max(0.0, *_x_pair(rho, _clipped_diagonal(rho), *(k - 1 for k in quartet)))


def subspace_concurrence_vector(rho):
    """Concurrences of the three (unnormalized) quartet subspaces."""
    rho = as_density_matrix(rho, dim=6)
    return np.array([_concurrence_block(rho[g]) for g in _GRID])


def _pure_i_unnormalized(a):
    # 2-norm of the three pairwise amplitude cross terms; degree-2 in the
    # ket, so subnormalized kets contribute p * E(normalized ket); the
    # last axis holds the amplitudes, so a stack of kets works too
    return 2.0 * np.sqrt(
        abs(a[..., 0] * a[..., 4] - a[..., 1] * a[..., 3]) ** 2
        + abs(a[..., 0] * a[..., 5] - a[..., 2] * a[..., 3]) ** 2
        + abs(a[..., 1] * a[..., 5] - a[..., 2] * a[..., 4]) ** 2
    )


def pure_i_concurrence(psi):
    """I-concurrence of a pure 2x3 ket: sqrt(2 (1 - purity of a reduction))."""
    psi = as_unit_ket(psi, 6)
    return float(_pure_i_unnormalized(psi))


def min_tgx_i_concurrence(rho):
    """I-concurrence of a minimal TGX state (coherence in one quartet).

    The six-argument max runs over both X positions of all three quartets;
    equal to the convex-roof minimum average over all decompositions.
    """
    return _min_tgx_i_concurrence(as_density_matrix(rho, dim=6))


def _min_tgx_i_concurrence(rho):
    if not _classify(rho).is_min_tgx:
        raise NotMinimalTGX("state is not in minimal TGX form")
    d = _clipped_diagonal(rho)
    return 2.0 * max(0.0, *(v for q in _QUARTET_IDX for v in _x_pair(rho, d, *q)))


def min_sgx_i_concurrence(rho):
    """I-concurrence of a minimal SGX state: the full (not X-shortcut)
    concurrence of its coherent quartet (``states._coherent_quartet``), with
    the block's eigh round-off eigenvalues cut (see _concurrence_block).  The
    other two quartet blocks hold only qubit-local coherences |1,a><2,a|, so
    they are block-diagonal in the qutrit, hence separable, with concurrence 0."""
    return _min_sgx_i_concurrence(as_density_matrix(rho, dim=6))


def _min_sgx_i_concurrence(rho):
    nz = _offdiag_support(rho)
    if not _class_of(nz).is_min_sgx:
        raise NotMinimalSGX("state is not in minimal SGX form")
    return _concurrence_block(rho[_GRID[_coherent_quartet(nz)]])


def mems_entanglement(spectrum):
    """max{0, lam1 - lam5 - 2 sqrt(lam4 lam6)}: the largest I-concurrence of
    the code's minimal-TGX family for the spectrum (see states.e_mems)."""
    return max(0.0, e_mems(spectrum))


def e_alpha_beta(spectrum, alpha, beta):
    """I-concurrence of the two-angle minimal TGX family: the minimal-TGX
    closed form of build_alpha_beta's state, whose coherences
    (lam1 - lam5)/2 sin 2alpha and (lam4 - lam6)/2 sin 2beta are the X-pair
    entries of quartet {1,3,4,6}.  In the 1e-12 band above pi/2 that the
    angle check admits, sin 2theta < 0 and the value is the built state's,
    which takes each coherence by its modulus."""
    return _min_tgx_i_concurrence(build_alpha_beta(spectrum, alpha, beta))


def alpha_solve(spectrum, entanglement):
    """Angle alpha with e_alpha_beta(spectrum, alpha, 0) == entanglement.

    alpha = arcsin((E + 2 sqrt(lam4 lam6)) / (lam1 - lam5)) / 2 when
    lam1 != lam5, else pi/4.  The arcsine argument is clamped to [0, 1]:
    beyond round-off that only happens when e_mems < 0, where the only
    physical E is 0 and pi/4 still satisfies the round-trip.
    """
    lam, e = _physical_pair(spectrum, entanglement)
    gap = lam[0] - lam[4]
    if gap <= DELTA_TOL:
        return np.pi / 4
    arg = min((e + 2.0 * np.sqrt(lam[3] * lam[5])) / gap, 1.0)
    return float(np.arcsin(arg) / 2.0)


def gen_concurrence_max(spectrum):
    """Spectral maximum of the generalized concurrence.

    max{0, lam1 - lam4 - 2 sqrt(lam2 lam6) - 2 sqrt(lam3 lam5)}; differs
    from mems_entanglement, so the two measures are not equal.
    """
    return _gen_concurrence_max(as_spectrum(spectrum, 6))


def _gen_concurrence_max(lam):
    l1, l2, l3, l4, l5, l6 = lam.tolist()
    return max(0.0, l1 - l4 - 2.0 * math.sqrt(l2 * l6) - 2.0 * math.sqrt(l3 * l5))


def _screened_preconcurrence(g, root, r):
    """Estimated preconcurrence of each draw in the normals ``g``, from V's
    first r columns, and their Gram-Schmidt certificate, for _candidates;
    ``root`` is sqrt(L), zero past index r - 1.  At r >= 3, flagged draws
    and draws certified to lie more than SCREEN_MARGIN below the best
    estimate get -inf instead of an estimate (see SCREEN_MARGIN)."""
    qr, qi, kappa = _gram_schmidt(g, r)
    lam = (root * root).tolist()
    if r == 1:
        est = lam[0] * np.hypot(qr[0, 0], qi[0, 0])
    elif r == 2:
        # sigma1 - sigma2 of b_ij = sqrt(lam_i lam_j) V_ij; v[j, i] is V_ij
        v = qr[:, :2] + 1j * qi[:, :2]
        w = v.real ** 2 + v.imag ** 2
        l1, l2 = lam[0], lam[1]
        frob2 = l1 * l1 * w[0, 0] + l1 * l2 * (w[0, 1] + w[1, 0]) + l2 * l2 * w[1, 1]
        det = l1 * l2 * np.abs(v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0])
        est = np.sqrt(np.clip(frob2 - 2.0 * det, 0.0, None))
    else:
        trace = _trace_bound(qr, qi, root, r)
        hr, hi = _block_gram(qr, qi, root, r)
        live = kappa <= SCREEN_KAPPA
        if np.count_nonzero(live) > _PROBES:
            live &= ~_pruned(hr, hi, live, trace)
        rows = np.flatnonzero(live)
        est = np.full(len(kappa), -np.inf)
        est[rows] = _gram_estimates(hr[..., rows], hi[..., rows])
    return est, kappa


#: draws whose eigvalsh estimate sets the pruning threshold, per batch
_PROBES = 16


def _trace_bound(qr, qi, root, r):
    """T = tr(b V_r^H) = sum_ij s_i s_j |V_ij|^2 <= ||b||_* of each r x r
    block b = sqrt(L_r) V_r sqrt(L_r), s = ``root``, from _gram_schmidt's
    unscaled columns (V_ij at [j, i]); see SCREEN_MARGIN."""
    w = root[:r, None] * root[:r]
    qr, qi = qr[:, :r], qi[:, :r]
    return np.einsum("ji,jin,jin->n", w, qr, qr) + np.einsum("ji,jin,jin->n", w, qi, qi)


def _block_gram(qr, qi, root, r):
    """H = b^H b of the r x r blocks b = sqrt(L_r) V_r sqrt(L_r), as real and
    imaginary (r, r, N) arrays, draw axis last, written over the first r
    rows of _gram_schmidt's columns ``qr``, ``qi``.  Those are scaled to b
    in place; row j of H reads only b's columns j and up, so it overwrites
    column j, and its part left of the diagonal is the conjugate of the
    rows above: H comes out exactly Hermitian."""
    w = (root[:r, None] * root[:r])[..., None]
    hr, hi = (np.multiply(q[:, :r], w, out=q[:, :r]) for q in (qr, qi))  # b_ij at [j, i]
    for j in range(r):
        br, bi = hr[j:], hi[j:]  # columns j and up of b
        row_r = np.einsum("in,kin->kn", br[0], br) + np.einsum("in,kin->kn", bi[0], bi)
        row_i = np.einsum("in,kin->kn", br[0], bi) - np.einsum("in,kin->kn", bi[0], br)
        row_i[0] = 0.0
        hr[j, j:], hi[j, j:] = row_r, row_i
        hr[j, :j], hi[j, :j] = hr[:j, j], -hi[:j, j]
    return hr, hi


def _gram_estimates(hr, hi):
    """2 sigma1 - sum sigma_k of each b, from eigvalsh of its H (see _block_gram)."""
    h = (hr + 1j * hi).transpose(2, 0, 1)
    s = np.sqrt(np.clip(np.linalg.eigvalsh(h), 0.0, None))
    return 2.0 * s[:, -1] - s.sum(axis=1)


def _pruned(hr, hi, live, d):
    """Draws whose value is certified below t = L0 - 2 SCREEN_MARGIN, L0 the
    best estimate of the _PROBES ``live`` draws with the largest
    2 sqrt(max H_kk) - d, d <= ||b||_* the _trace_bound of each draw.

    A passing Cholesky recursion on x I - H, x = y^2, certifies sigma1 < y,
    so 2 sigma1 - ||b||_* < t, for the larger of y = (t + d) / 2 and the
    root y of 2 y - tr H / y = t (||b||_* >= ||b||_F^2 / sigma1, and
    ||b||_F^2 = tr H); see SCREEN_MARGIN for the rounding.  The recursion
    runs in place on H's lower triangle, rebuilt from the upper one after
    it, so H comes back as it was and is never copied."""
    diag = np.arange(hr.shape[0])
    h = hr[diag, diag]
    lead = np.where(live, 2.0 * np.sqrt(h.max(axis=0)) - d, -np.inf)
    probes = np.argpartition(lead, -_PROBES)[-_PROBES:]
    t = _gram_estimates(hr[..., probes], hi[..., probes]).max() - 2.0 * SCREEN_MARGIN
    y = np.maximum(0.5 * (t + d), 0.25 * (t + np.sqrt(t * t + 8.0 * h.sum(axis=0))))  # >= 0
    _mirror(hr, hi, y * y - h, -1.0)
    ok = _cholesky_passes(hr, hi)
    _mirror(hr, hi, h, 1.0)
    return ok


def _mirror(hr, hi, diag, sign):
    """Set the lower triangle of hr + i hi to ``sign`` times the conjugate
    of its upper triangle, pair by pair, and the diagonal to ``diag``."""
    for j in range(len(hr)):
        np.multiply(hr[:j, j], sign, out=hr[j, :j])
        np.multiply(hi[:j, j], -sign, out=hi[j, :j])
        hr[j, j] = diag[j]


def _exact_preconcurrence(g, root):
    """sigma1 - sum of the rest of sqrt(L) V sqrt(L), by the full 6 x 6 SVD."""
    s = np.linalg.svd(root[:, None] * _haar_columns(g, 6) * root, compute_uv=False)
    return s[:, 0] - s[:, 1:].sum(axis=1)


def sampled_gen_preconcurrence(spectrum, samples, seed=0):
    """Monte-Carlo maximum of the generalized preconcurrence.

    Draws Haar unitaries V on the full 6-level space and maximizes
    (sigma1 - sum of the rest) of sqrt(L) V sqrt(L); always bounded above by
    gen_concurrence_max(spectrum).  Deterministic per seed; ``samples`` not
    an integer of at least 1 raises InvalidBudget, a negative or non-integer
    seed InvalidSeed.

    Each batch of up to 2048 draws is screened, then confirmed.  With r the
    index past the last nonzero eigenvalue, V's first r columns are built by
    Gram-Schmidt (CGS2) over the whole batch, without LAPACK, and each
    draw's value is estimated from the r x r block b of sqrt(L) V sqrt(L):
    lam1 |V11| for r = 1, sigma1 - sigma2 = sqrt(||b||_F^2 - 2 |det b|) for
    r = 2, and the square roots of eigvalsh(b^H b) for r >= 3.  At r >= 3,
    eigvalsh runs only on draws that one Cholesky recursion cannot rule out:
    with two lower bounds of ||b||_* that cost no recursion, the trace bound
    tr(b V_r^H) and ||b||_F^2 / sigma1, a positive definite x I - H,
    H = b^H b, proves the value below a threshold 2 SCREEN_MARGIN under the
    best of 16 probe estimates (see SCREEN_MARGIN).  On random spectra that
    rules out nearly all of a batch.  H is built over V's columns, so a
    screen holds about 1.4 batches of normals at its peak.
    The draws that numerics._candidates returns (those too ill-conditioned
    to estimate, and about one more per batch) are rebuilt whole and scored
    by the exact 6 x 6 SVD; the largest of those is the answer, the same
    bit for bit as scoring every draw by SVD.  A rank-6 spectrum so flat
    that the screen would keep too many draws to pay for itself skips the
    screen.  Every batch's normals are drawn into one buffer allocated once
    per call.
    """
    lam = as_spectrum(spectrum, 6)
    samples = as_budget(samples, "samples")
    root = np.sqrt(lam)
    r = int(np.flatnonzero(lam)[-1]) + 1
    # Expanding s = sqrt(lam) about its mean m, every draw's value lies, to
    # first order, in a window of width 2 m (2 s1 - max_k (s_k + s_{7-k})):
    # the values are -4 m^2 + 2 m^2 h with h the largest eigenvalue of
    # V^H E V + E, E = diag(s / m - 1), and Weyl's and Horn's inequalities
    # bound h.  (s1 - s6)^2 / m covers the second-order terms (it bounded
    # the observed spread of every near-flat family tried).  At rank 6 the
    # screen costs about 0.2 of the exact path when it rules out nearly
    # every draw and 0.6 when it rules out none, so it pays only if it
    # keeps under ~40% of the draws; below a window of 50 margins some
    # families keep more (up to 46% at 30), above it at most 30% were kept.
    # Either way the answer is the same.
    s, m = root.tolist(), float(root.mean())
    window = 2.0 * m * (2.0 * s[0] - max(s[k] + s[5 - k] for k in range(3)))
    screened = window + (s[0] - s[5]) ** 2 / m > 50.0 * SCREEN_MARGIN
    rng = np.random.default_rng(as_seed(seed))
    buf = np.empty((min(samples, BATCH_SIZE), 2, 6, 6))
    best = -np.inf
    for lo in range(0, samples, BATCH_SIZE):
        n = min(samples - lo, BATCH_SIZE)
        g = _haar_normals(rng, 6, n, out=buf[:n])
        if screened:
            g = g[_candidates(*_screened_preconcurrence(g, root, r))]
        best = max(best, float(_exact_preconcurrence(g, root).max()))
    return best
