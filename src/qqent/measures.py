"""Entanglement functionals for 2x2 and 2x3 states.

Mixed-state values are convex-roof minima only where the closed forms are
valid (minimal TGX / minimal SGX input); the form gates raise otherwise.
"""

import math

import numpy as np

from ._checks import as_budget, as_density_matrix, as_seed, as_spectrum, as_unit_ket
from ._screen import draws, preconcurrence_estimator
from .errors import NotMinimalTGX, NotTGXForm, NotXForm
from .states import _GRID, _QUARTET_IDX, DELTA_TOL, ZERO_TOL, _classify, _min_sgx_quartet
from .states import _physical_pair, _quartet_index
from .states import build_alpha_beta, e_mems

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
    k = _quartet_index(quartet)
    if not _classify(rho).is_tgx:
        raise NotTGXForm("state is not in TGX form")
    return 2.0 * max(0.0, *_x_pair(rho, _clipped_diagonal(rho), *_QUARTET_IDX[k]))


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
    concurrence of its coherent quartet (``states._min_sgx_quartet``), with
    the block's eigh round-off eigenvalues cut (see _concurrence_block).  The
    other two quartet blocks hold only qubit-local coherences |1,a><2,a|, so
    they are block-diagonal in the qutrit, hence separable, with concurrence 0."""
    return _min_sgx_i_concurrence(as_density_matrix(rho, dim=6))


def _min_sgx_i_concurrence(rho):
    return _concurrence_block(rho[_GRID[_min_sgx_quartet(rho)]])


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


def _exact_preconcurrence(v, root):
    """sigma1 - sum of the rest of sqrt(L) V sqrt(L) for each of the unitaries
    ``v``, by the full 6 x 6 SVD."""
    s = np.linalg.svd(root[:, None] * v * root, compute_uv=False)
    return s[:, 0] - s[:, 1:].sum(axis=1)


def sampled_gen_preconcurrence(spectrum, samples, seed=0):
    """Monte-Carlo maximum of the generalized preconcurrence.

    Draws Haar unitaries V on the full 6-level space and maximizes
    (sigma1 - sum of the rest) of sqrt(L) V sqrt(L); always bounded above by
    gen_concurrence_max(spectrum).  Deterministic per seed; ``samples`` not
    an integer of at least 1 raises InvalidBudget, a negative or non-integer
    seed InvalidSeed.  Each batch is screened (see qqent._screen), and only
    the draws the screen keeps are scored by the SVD; the answer is the same
    bit for bit as scoring every draw.
    """
    lam = as_spectrum(spectrum, 6)
    samples = as_budget(samples, "samples")
    root = np.sqrt(lam)
    batches = draws(as_seed(seed), 6, samples, 6, preconcurrence_estimator(root))
    # map, unlike a loop variable, holds no batch while draws() makes the next
    return max(map(lambda batch: float(_exact_preconcurrence(batch[1], root).max()), batches))
