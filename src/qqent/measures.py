"""Entanglement functionals for 2x2 and 2x3 states.

Mixed-state values are convex-roof minima only where the closed forms are
valid (minimal TGX / minimal SGX input); the form gates raise otherwise.
"""

import math

import numpy as np

from ._checks import as_density_matrix, as_seed, as_spectrum, as_unit_ket
from .errors import (
    InvalidBudget,
    InvalidQuartet,
    NotMinimalSGX,
    NotMinimalTGX,
    NotTGXForm,
    NotXForm,
)
from .numerics import BATCH_SIZE, haar_unitary
from .states import QUARTETS, ZERO_TOL, e_mems, subspace_extract
from .states import _check_angles, _classify, _physical_pair, DELTA_TOL

#: QUARTETS as 0-based level indices.
_QUARTET_IDX = tuple(tuple(k - 1 for k in q) for q in QUARTETS)

#: sigma_y (x) sigma_y, the two-qubit spin flip.
SPIN_FLIP_4 = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
)


def _concurrence_singular_values(block):
    """Concurrence singular values of a possibly subnormalized 4x4 block.

    Computed as the singular values of the spin-flip overlap matrix
    tau_kl = <u_k|F|u_l*> built from sqrt(eigenvalue)-weighted eigenvectors.
    Unlike taking square roots of the eigenvalues of rho * rho~, this never
    squares the data, so near-zero values come out at machine precision
    (and no matrix square root of a near-singular rho is ever needed).
    """
    w, v = np.linalg.eigh(block)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    tau = x.conj().T @ SPIN_FLIP_4 @ x.conj()
    xi = np.linalg.svd(tau, compute_uv=False)
    return xi  # descending


def _concurrence_block(block):
    """Concurrence of a possibly subnormalized 4x4 block.

    Degree-1 homogeneity makes renormalization unnecessary, and a
    zero-trace block gives 0.
    """
    xi = _concurrence_singular_values(block)
    return float(max(0.0, xi[0] - xi[1] - xi[2] - xi[3]))


def concurrence_2x2(rho):
    """Two-qubit concurrence max{0, xi1 - xi2 - xi3 - xi4}."""
    rho = as_density_matrix(rho, dim=4)
    return _concurrence_block(rho)


def _require_x_form(rho):
    bad = [
        (i, j)
        for i in range(4)
        for j in range(i + 1, 4)
        if (i, j) not in ((0, 3), (1, 2)) and abs(rho[i, j]) > ZERO_TOL
    ]
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
    return _subspace_concurrence_vector(as_density_matrix(rho, dim=6))


def _subspace_concurrence_vector(rho):
    return np.array([_concurrence_block(subspace_extract(rho, q)) for q in QUARTETS])


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
    """I-concurrence of a minimal SGX state: infinity norm of the
    subspace concurrence vector, with full (not X-shortcut) concurrences."""
    return _min_sgx_i_concurrence(as_density_matrix(rho, dim=6))


def _min_sgx_i_concurrence(rho):
    if not _classify(rho).is_min_sgx:
        raise NotMinimalSGX("state is not in minimal SGX form")
    return float(_subspace_concurrence_vector(rho).max())


def mems_entanglement(spectrum):
    """max{0, lam1 - lam5 - 2 sqrt(lam4 lam6)}: the spectral ceiling."""
    return max(0.0, e_mems(spectrum))


def e_alpha_beta(spectrum, alpha, beta):
    """I-concurrence of the two-angle minimal TGX family, closed form."""
    lam = as_spectrum(spectrum, 6)
    _check_angles(alpha, beta)
    ca2, sa2 = np.cos(alpha) ** 2, np.sin(alpha) ** 2
    cb2, sb2 = np.cos(beta) ** 2, np.sin(beta) ** 2
    arg1 = (lam[0] - lam[4]) / 2 * np.sin(2 * alpha) - np.sqrt(
        (lam[3] * cb2 + lam[5] * sb2) * (lam[3] * sb2 + lam[5] * cb2)
    )
    arg2 = (lam[3] - lam[5]) / 2 * np.sin(2 * beta) - np.sqrt(
        (lam[0] * ca2 + lam[4] * sa2) * (lam[0] * sa2 + lam[4] * ca2)
    )
    return 2.0 * max(0.0, arg1, arg2)


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
    from the I-concurrence ceiling, so the two measures are not equal.
    """
    return _gen_concurrence_max(as_spectrum(spectrum, 6))


def _gen_concurrence_max(lam):
    l1, l2, l3, l4, l5, l6 = lam.tolist()
    return max(0.0, l1 - l4 - 2.0 * math.sqrt(l2 * l6) - 2.0 * math.sqrt(l3 * l5))


def sampled_gen_preconcurrence(spectrum, samples, seed=0):
    """Monte-Carlo maximum of the generalized preconcurrence.

    Draws Haar unitaries V on the full 6-level space and maximizes
    (sigma1 - sum of the rest) of sqrt(L) V sqrt(L); always bounded above by
    gen_concurrence_max(spectrum).  Deterministic per seed; samples < 1 raise
    InvalidBudget, a negative or non-integer seed raises InvalidSeed.
    """
    lam = as_spectrum(spectrum, 6)
    samples = int(samples)
    if samples < 1:
        raise InvalidBudget(f"samples={samples} must be at least 1")
    root = np.sqrt(lam)
    rng = np.random.default_rng(as_seed(seed))
    best = -np.inf
    remaining = samples
    while remaining > 0:
        batch = min(remaining, BATCH_SIZE)
        v = haar_unitary(6, rng, count=batch)
        m = root[None, :, None] * v * root[None, None, :]
        s = np.linalg.svd(m, compute_uv=False)
        best = max(best, float((s[:, 0] - s[:, 1:].sum(axis=1)).max()))
        remaining -= batch
    return best
