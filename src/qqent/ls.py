"""Lewenstein-Sanpera decompositions: rho = p_E rho_E + (1 - p_E) rho_S.

The split is optimal: the entangled part is pure, the remainder is
separable, and p_E * E(rho_E) equals the state's convex-roof I-concurrence.
Two routes are provided: a closed form in (spectrum, E) for the canonical
constructed family, and a numeric Takagi route for any minimal SGX state
(coherence confined to a single quartet).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_density_matrix
from .measures import SPIN_FLIP_4, _block_tau
from .numerics import RANK_TOL, _hermitian_eig_unchecked, _takagi_unchecked
from .states import (
    _COMPLEMENT_GRID,
    _GRID,
    _QUARTET_IDX,
    DELTA_TOL,
    ZERO_TOL,
    _epu_core,
    _min_sgx_quartet,
    _physical_pair,
    _physical_pair_2x2,
    _quartet_index,
)


@dataclass(frozen=True)
class LSDecomposition:
    """p_e * rho_e + (1 - p_e) * rho_s reconstructs the input state.

    ``xi`` holds the four concurrence singular values (xi[0] maximal; the
    rest are not necessarily sorted); ``x_kets`` the four subnormalized
    decomposition kets with sum_a |x_a><x_a| equal to the 0-embedded
    entanglement quartet.  ``n1``/``n2`` are the closed-form normalization
    factors, absent on the numeric route.
    """

    p_e: float
    rho_e: np.ndarray
    rho_s: np.ndarray
    xi: np.ndarray
    x_kets: np.ndarray  # shape (4, 6), rows are kets
    n1: float | None = None
    n2: float | None = None


def spin_flip_operator(quartet=(1, 3, 4, 6)):
    """The two-qubit spin flip embedded in a quartet, zero elsewhere."""
    s = np.zeros((6, 6))
    s[_GRID[_quartet_index(quartet)]] = SPIN_FLIP_4
    return s


def _epu_xi(lam, e):
    """Delta, Omega, sqrt(Delta^2 - Omega) and the four xi values (a list)
    of the canonical family, from the states EPU core; ``lam`` is the
    spectrum as a list of floats."""
    l1, _, _, l4, l5, l6 = lam
    gap, _, omega, delta = _epu_core(l1, l5, l4, l6, e)
    rem = math.sqrt(max(delta**2 - omega, 0.0))
    inner = math.sqrt(4.0 * l1 * l5 * delta**2 + gap**2 * rem**2)
    xi34 = math.sqrt(l4 * l6)
    xi = [(inner + gap * rem) / (2.0 * delta), (inner - gap * rem) / (2.0 * delta), xi34, xi34]
    return delta, omega, rem, xi


def xi_explicit(spectrum, entanglement):
    """Concurrence singular values of the canonical constructed state.

    xi3 = xi4 = sqrt(lam4 lam6), and max{0, xi1 - xi2 - xi3 - xi4} recovers
    the entanglement (E when Q >= 0, zero when Q < 0).
    """
    lam, e = _physical_pair(spectrum, entanglement)
    return np.array(_epu_xi(lam.tolist(), e)[3])


def xi_explicit_2x2(spectrum, concurrence):
    """Two-qubit transplant of the closed-form xi values: xi_explicit on the
    six-level embedding of the spectrum (see states.build_epu_x_2x2)."""
    lam, c = _physical_pair_2x2(spectrum, concurrence)
    return np.array(_epu_xi(lam.tolist(), c)[3])


def _fix_ket_phase(ket):
    """Normalize the free +-1 phase: the largest-magnitude component gets a
    nonnegative real part (nonnegative imaginary part on a pure-imaginary tie).
    ``ket`` holds Python complex numbers; the first largest one decides."""
    mags = [abs(z) for z in ket]
    top = max(mags)
    if top <= RANK_TOL:
        return ket
    z = ket[mags.index(top)]
    if z.real < -ZERO_TOL or (abs(z.real) <= ZERO_TOL and z.imag < 0.0):
        return [-v for v in ket]
    return ket


def wootters_xkets_explicit(spectrum, entanglement):
    """Closed-form subnormalized decomposition kets of the canonical family.

    Returns (x, n1, n2) with x of shape (4, 6); the kets satisfy the tilde
    orthogonality <x_a|S|x_b*> = xi_a delta_ab and sum to the 0-embedded
    {1,3,4,6} block of the state.
    """
    lam, e = _physical_pair(spectrum, entanglement)
    lam = lam.tolist()
    return _wootters_xkets(lam, _epu_xi(lam, e))


def _wootters_xkets(lam, core):
    """``lam`` is the spectrum as a list of floats, ``core`` is _epu_xi's."""
    delta, omega, rem, xi = core
    l1, _, _, l4, l5, l6 = lam
    prod = l1 * l5 * omega
    # Kronecker guard: fires when lam5 * Omega vanishes
    a_fac = (math.sqrt(prod) + (delta if l5 * omega <= DELTA_TOL else 0.0)) / delta
    b1 = (xi[0] * delta - l1 * rem) / delta
    b2 = (xi[1] * delta - l5 * rem) / delta
    n1 = math.sqrt(b1**2 + a_fac**2)
    n2 = math.sqrt(b2**2 + a_fac**2)
    root = math.sqrt(omega)
    cp = math.sqrt(max((delta + root) / (2.0 * delta), 0.0))
    cm = math.sqrt(max((delta - root) / (2.0 * delta), 0.0))
    r1, r5 = math.sqrt(l1), math.sqrt(l5)
    h4, h6 = math.sqrt(l4 / 2.0), math.sqrt(l6 / 2.0)
    # complex entries throughout, so a phase flip also flips the zeros' signs
    z = 0j
    kets = (
        (1j / n1 * (a_fac * r1 * cp - b1 * r5 * cm), z, z, z, z,
         1j / n1 * (a_fac * r1 * cm + b1 * r5 * cp)),
        (complex((b2 * r1 * cp + a_fac * r5 * cm) / n2), z, z, z, z,
         complex((b2 * r1 * cm - a_fac * r5 * cp) / n2)),
        (z, z, complex(h4), complex(h6), z, z),
        (z, z, 1j * h4, -1j * h6, z, z),
    )
    return np.array([_fix_ket_phase(k) for k in kets]), n1, n2


def _assemble(x, xi, extra_separable):
    """Shared LS assembly from x kets, xi values (a list of floats), and the
    complex separable remainder outside the entanglement quartet."""
    xi1, xi2, xi3, xi4 = xi
    rest = xi2 + xi3 + xi4
    d_xi1 = 1.0 if xi1 <= DELTA_TOL else 0.0
    e_val = max(0.0, xi1 - rest)
    norm1 = float(np.vdot(x[0], x[0]).real)
    # np.outer of each ket, in numpy: Python's complex product rounds differently
    outer = x[:, :, None] * x.conj()[:, None, :]
    if norm1 > RANK_TOL:
        p_e = min(max(e_val * norm1 / (xi1 + d_xi1), 0.0), 1.0)
        rho_e = outer[0] / norm1
    else:
        p_e = 0.0
        rho_e = np.zeros((6, 6), dtype=complex)
    d_pe = 1.0 if abs(p_e - 1.0) <= DELTA_TOL else 0.0
    sep = extra_separable + ((min(xi1, rest) + d_xi1) / (xi1 + d_xi1)) * outer[0]
    for a in range(1, 4):
        sep += outer[a]
    return p_e, rho_e, sep / (1.0 - p_e + d_pe)


def ls_explicit(spectrum, entanglement):
    """Closed-form optimal split for the canonical constructed state.

    p_e * E(rho_e) = max{0, xi1 - xi2 - xi3 - xi4} equals the entanglement
    (E for Q >= 0, zero for Q < 0), and rho_s has positive partial
    transpose.  For p_e = 1 the separable part degenerates to zero.
    """
    return _ls_explicit(*_physical_pair(spectrum, entanglement))


def _ls_explicit(lam, e):
    lam = lam.tolist()
    core = _epu_xi(lam, e)
    x, n1, n2 = _wootters_xkets(lam, core)
    outside = np.zeros((6, 6), dtype=complex)
    outside[1, 1] = lam[1]
    outside[4, 4] = lam[2]
    p_e, rho_e, rho_s = _assemble(x, core[3], outside)
    return LSDecomposition(
        p_e=p_e, rho_e=rho_e, rho_s=rho_s, xi=np.array(core[3]), x_kets=x, n1=n1, n2=n2
    )


def _tau(rho, k):
    """_block_tau of quartet k's block, with u 0-embedded in the full space.
    The eigenbasis is canonical above RANK_TOL, since the kets are output, so
    within a near-degenerate cluster (see hermitian_eig) sum_a |x_a><x_a|
    reconstructs the block only to within the cluster's spread."""
    eig = _hermitian_eig_unchecked(rho[_GRID[k]], RANK_TOL)
    u = np.zeros((4, 6), dtype=complex)
    u[:, _QUARTET_IDX[k]], tau = _block_tau(eig.values, eig.vectors)
    return u, tau


def tau_matrix(rho, quartet):
    """Spin-flip overlap matrix tau_kl = <u_k|S|u_l*> of the quartet block.

    Always 4x4 and complex symmetric; its Takagi values are the concurrence
    singular values of the (unnormalized) quartet subspace.  Rows come from the
    canonical eigenbasis, not eigh's raw one, so entries match the closed form.
    """
    rho = as_density_matrix(rho, dim=6)
    return _tau(rho, _min_sgx_quartet(rho, _quartet_index(quartet)))[1]


def ls_numeric(rho):
    """Numeric optimal split for any minimal SGX state.

    Uses a Takagi factorization of the quartet spin-flip matrix; agrees
    with ls_explicit on p_e and the xi multiset for canonical inputs.
    General TGX states with coherence in more than one quartet are
    rejected.
    """
    return _ls_numeric(as_density_matrix(rho, dim=6))


def _ls_numeric(rho):
    k = _min_sgx_quartet(rho)
    u, tau = _tau(rho, k)
    fact = _takagi_unchecked(tau)
    xi = fact.values
    x = np.array([_fix_ket_phase(ket) for ket in (fact.unitary.T @ u).tolist()])
    outside = np.zeros((6, 6), dtype=complex)
    outside[_COMPLEMENT_GRID[k]] = rho[_COMPLEMENT_GRID[k]]
    p_e, rho_e, rho_s = _assemble(x, xi.tolist(), outside)
    return LSDecomposition(p_e=p_e, rho_e=rho_e, rho_s=rho_s, xi=xi, x_kets=x)
