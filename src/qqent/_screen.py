"""Which draws of a Haar sampling batch are scored exactly.

Both Haar searches, the gen-preconcurrence Monte Carlo (a maximum) and the
D >= 3 minimum-average search, take their draws from draws(): each batch of
up to BATCH_SIZE draws is drawn, in stream order, into one buffer allocated
once per call.  An estimator scores each draw of a batch from the first r
columns of its unitary, built by Gram-Schmidt over the whole batch with a
conditioning certificate per draw (no LAPACK).  Only the draws that
_candidates returns, the ill-conditioned ones and those within SCREEN_MARGIN
of the best estimate, are rebuilt by haar_unitary's QR and scored exactly,
so the answer and its tie rule are the same bit for bit as scoring every
draw, at any batch size.  The Monte Carlo's estimator runs eigvalsh at
r >= 3 only on the draws that one Cholesky recursion cannot rule out (see
SCREEN_MARGIN); the search's is decompositions._screened_averages.
"""

import numpy as np

from .numerics import BATCH_SIZE, _haar_columns, _haar_normals

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
#: tr H, H = b^H b, as sum sigma_k^2 <= sigma1 sum sigma_k.  H is kept in its
#: upper triangle and diagonal; the lower one is the recursion's scratch.  Let
#: L0 be an eigvalsh estimate of an unflagged draw, t = L0 - 2 SCREEN_MARGIN
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

#: draws whose eigvalsh estimate sets the pruning threshold, per batch
_PROBES = 16

#: a pivot of _cholesky_passes at or below this fails the recursion
_PIVOT_FLOOR = 1e-12


def draws(seed, d, n, k, estimate=None):
    """Yield (stream indices, first k columns of their unitaries) for the n
    draws of haar_unitary(d, seed, count=n), batch by batch.

    With ``estimate``, which maps a batch's normals to each draw's score
    (higher is better) and Gram-Schmidt certificate, only the draws that
    _candidates returns for them are yielded.
    """
    rng = np.random.default_rng(seed)
    buf = np.empty((min(n, BATCH_SIZE), 2, d, d))
    for lo in range(0, n, BATCH_SIZE):
        m = min(BATCH_SIZE, n - lo)
        g = _haar_normals(rng, d, m, out=buf[:m])
        index = np.arange(lo, lo + m)
        if estimate is not None:
            keep = _candidates(*estimate(g))
            g, index = g[keep], index[keep]
        yield index, _haar_columns(g, k)


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


def preconcurrence_estimator(root):
    """The Monte Carlo's estimator for the levels ``root`` = sqrt(L), or None
    for a rank-6 spectrum so near flat that the screen would keep too many
    draws to pay for itself."""
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
    if window + (s[0] - s[5]) ** 2 / m <= 50.0 * SCREEN_MARGIN:
        return None
    r = int(np.flatnonzero(root)[-1]) + 1
    return lambda g: _screened_preconcurrence(g, root, r)


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
    column j from the diagonal on.  H is its upper triangle and diagonal;
    the lower triangle keeps b's leftover entries, as scratch for _pruned."""
    w = (root[:r, None] * root[:r])[..., None]
    hr, hi = (np.multiply(q[:, :r], w, out=q[:, :r]) for q in (qr, qi))  # b_ij at [j, i]
    for j in range(r):
        br, bi = hr[j:], hi[j:]  # columns j and up of b
        row_r = np.einsum("in,kin->kn", br[0], br) + np.einsum("in,kin->kn", bi[0], bi)
        row_i = np.einsum("in,kin->kn", br[0], bi) - np.einsum("in,kin->kn", bi[0], br)
        row_i[0] = 0.0
        hr[j, j:], hi[j, j:] = row_r, row_i
    return hr, hi


def _gram_estimates(hr, hi):
    """2 sigma1 - sum sigma_k of each b, by eigvalsh of H's upper triangle (see _block_gram)."""
    h = (hr + 1j * hi).transpose(2, 0, 1)
    s = np.sqrt(np.clip(np.linalg.eigvalsh(h, UPLO="U"), 0.0, None))
    return 2.0 * s[:, -1] - s.sum(axis=1)


def _pruned(hr, hi, live, d):
    """Draws whose value is certified below t = L0 - 2 SCREEN_MARGIN, L0 the
    best estimate of the _PROBES ``live`` draws with the largest
    2 sqrt(max H_kk) - d, d <= ||b||_* the _trace_bound of each draw.

    A passing Cholesky recursion on x I - H, x = y^2, certifies sigma1 < y,
    so 2 sigma1 - ||b||_* < t, for the larger of y = (t + d) / 2 and the
    root y of 2 y - tr H / y = t (||b||_* >= ||b||_F^2 / sigma1, and
    ||b||_F^2 = tr H); see SCREEN_MARGIN for the rounding.  The recursion
    runs in place on x I - H, written once into H's lower triangle and
    diagonal; H's upper triangle is untouched and its diagonal restored."""
    diag = np.arange(hr.shape[0])
    h = hr[diag, diag]
    lead = np.where(live, 2.0 * np.sqrt(h.max(axis=0)) - d, -np.inf)
    probes = np.argpartition(lead, -_PROBES)[-_PROBES:]
    t = _gram_estimates(hr[..., probes], hi[..., probes]).max() - 2.0 * SCREEN_MARGIN
    y = np.maximum(0.5 * (t + d), 0.25 * (t + np.sqrt(t * t + 8.0 * h.sum(axis=0))))  # >= 0
    for j in range(len(hr)):  # row j of x I - H left of the diagonal: -conj(H_ij), i < j
        hr[j, :j], hi[j, :j] = -hr[:j, j], hi[:j, j]
    hr[diag, diag] = y * y - h
    ok = _cholesky_passes(hr, hi)
    hr[diag, diag] = h
    return ok


def _cholesky_passes(hr, hi):
    """Whether every pivot of the unpivoted Cholesky recursion of each
    Hermitian matrix hr + i hi, struct of arrays (r, r, N) with the draw
    axis last, exceeds _PIVOT_FLOOR, which certifies it positive definite.

    A failed pivot is replaced by 1, so the rest of that draw's recursion
    stays finite.  Reads and overwrites only the lower triangle and the
    diagonal of both inputs: H's scratch half in _pruned (see _block_gram).
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
