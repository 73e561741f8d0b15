"""Lewenstein-Sanpera decompositions: rho = p_E rho_E + (1 - p_E) rho_S.

The split is optimal: the entangled part is pure, the remainder is
separable, and p_E * E(rho_E) equals the state's convex-roof I-concurrence.
Two routes are provided: a closed form in (spectrum, E) for the canonical
constructed family, and a numeric Takagi route for any minimal SGX state
(coherence confined to a single quartet).
"""

from dataclasses import dataclass

import numpy as np

from ._checks import as_density_matrix, as_spectrum
from .errors import AmbiguousQuartet, InvalidQuartet, NotMinimalSGX
from .measures import SPIN_FLIP_4
from .numerics import RANK_TOL, hermitian_eig, takagi_symmetric
from .states import (
    COMPLEMENT_PAIRS,
    DELTA_TOL,
    QUARTETS,
    ZERO_TOL,
    _check_physical,
    classify,
    e_mems,
    matched_sgx_templates,
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
    if tuple(quartet) not in QUARTETS:
        raise InvalidQuartet(f"{quartet} is not a 2x3 product quartet")
    s = np.zeros((6, 6))
    idx = np.array(quartet) - 1
    s[np.ix_(idx, idx)] = SPIN_FLIP_4
    return s


def _epu_core(l1, l5, l4, l6, e):
    """Delta, Omega, Q, and the four xi values for the canonical family."""
    gap = l1 - l5
    delta = gap + (1.0 if gap <= DELTA_TOL else 0.0)
    q = gap**2 - (e + 2.0 * np.sqrt(l4 * l6)) ** 2
    omega = max(0.0, q)
    rem = np.sqrt(max(delta**2 - omega, 0.0))
    inner = np.sqrt(4.0 * l1 * l5 * delta**2 + gap**2 * rem**2)
    xi1 = (inner + gap * rem) / (2.0 * delta)
    xi2 = (inner - gap * rem) / (2.0 * delta)
    xi34 = np.sqrt(l4 * l6)
    return delta, omega, q, np.array([xi1, xi2, xi34, xi34])


def xi_explicit(spectrum, entanglement):
    """Concurrence singular values of the canonical constructed state.

    xi3 = xi4 = sqrt(lam4 lam6), and max{0, xi1 - xi2 - xi3 - xi4} recovers
    the entanglement (E when Q >= 0, zero when Q < 0).
    """
    lam = as_spectrum(spectrum, 6)
    e = _check_physical(entanglement, max(0.0, e_mems(lam)))
    _, _, _, xi = _epu_core(lam[0], lam[4], lam[3], lam[5], e)
    return xi


def xi_explicit_2x2(spectrum, concurrence):
    """Two-qubit transplant of the closed-form xi values."""
    lam = as_spectrum(spectrum, 4)
    cap = max(0.0, lam[0] - lam[2] - 2.0 * np.sqrt(lam[1] * lam[3]))
    c = _check_physical(concurrence, cap, what="C")
    _, _, _, xi = _epu_core(lam[0], lam[2], lam[1], lam[3], c)
    return xi


def _fix_ket_phase(ket):
    """Normalize the free +-1 phase: the largest-magnitude component gets a
    nonnegative real part (nonnegative imaginary part on a pure-imaginary tie)."""
    mags = np.abs(ket)
    if mags.max() <= RANK_TOL:
        return ket
    z = ket[int(np.argmax(mags))]
    if z.real < -ZERO_TOL or (abs(z.real) <= ZERO_TOL and z.imag < 0.0):
        return -ket
    return ket


def wootters_xkets_explicit(spectrum, entanglement):
    """Closed-form subnormalized decomposition kets of the canonical family.

    Returns (x, n1, n2) with x of shape (4, 6); the kets satisfy the tilde
    orthogonality <x_a|S|x_b*> = xi_a delta_ab and sum to the 0-embedded
    {1,3,4,6} block of the state.
    """
    lam = as_spectrum(spectrum, 6)
    e = _check_physical(entanglement, max(0.0, e_mems(lam)))
    delta, omega, _, xi = _epu_core(lam[0], lam[4], lam[3], lam[5], e)
    rem = np.sqrt(max(delta**2 - omega, 0.0))
    prod = lam[0] * lam[4] * omega
    # Kronecker guard: fires when lam5 * Omega vanishes
    a_fac = (np.sqrt(prod) + (delta if lam[4] * omega <= DELTA_TOL else 0.0)) / delta
    b1 = (xi[0] * delta - lam[0] * rem) / delta
    b2 = (xi[1] * delta - lam[4] * rem) / delta
    n1 = float(np.sqrt(b1**2 + a_fac**2))
    n2 = float(np.sqrt(b2**2 + a_fac**2))
    cp = np.sqrt(max((delta + np.sqrt(omega)) / (2.0 * delta), 0.0))
    cm = np.sqrt(max((delta - np.sqrt(omega)) / (2.0 * delta), 0.0))
    r1, r5 = np.sqrt(lam[0]), np.sqrt(lam[4])
    x = np.zeros((4, 6), dtype=complex)
    x[0, 0] = 1j / n1 * (a_fac * r1 * cp - b1 * r5 * cm)
    x[0, 5] = 1j / n1 * (a_fac * r1 * cm + b1 * r5 * cp)
    x[1, 0] = (b2 * r1 * cp + a_fac * r5 * cm) / n2
    x[1, 5] = (b2 * r1 * cm - a_fac * r5 * cp) / n2
    x[2, 2] = np.sqrt(lam[3] / 2.0)
    x[2, 3] = np.sqrt(lam[5] / 2.0)
    x[3, 2] = 1j * np.sqrt(lam[3] / 2.0)
    x[3, 3] = -1j * np.sqrt(lam[5] / 2.0)
    for a in range(4):
        x[a] = _fix_ket_phase(x[a])
    return x, n1, n2


def _assemble(x, xi, extra_separable, p_denominator_trace=1.0):
    """Shared LS assembly from x kets, xi values, and the separable remainder
    outside the entanglement quartet."""
    xi1 = float(xi[0])
    d_xi1 = 1.0 if xi1 <= DELTA_TOL else 0.0
    e_val = max(0.0, xi1 - float(xi[1] + xi[2] + xi[3]))
    norm1 = float(np.vdot(x[0], x[0]).real)
    if norm1 > RANK_TOL:
        p_e = min(max(e_val * norm1 / (xi1 + d_xi1), 0.0), 1.0)
        rho_e = np.outer(x[0], x[0].conj()) / norm1
    else:
        p_e = 0.0
        rho_e = np.zeros((6, 6), dtype=complex)
    d_pe = 1.0 if abs(p_e - 1.0) <= DELTA_TOL else 0.0
    sep = extra_separable.astype(complex).copy()
    sep += (
        (min(xi1, float(xi[1] + xi[2] + xi[3])) + d_xi1) / (xi1 + d_xi1)
    ) * np.outer(x[0], x[0].conj())
    for a in range(1, 4):
        sep += np.outer(x[a], x[a].conj())
    rho_s = sep / (p_denominator_trace - p_e + d_pe)
    return p_e, rho_e, rho_s


def ls_explicit(spectrum, entanglement):
    """Closed-form optimal split for the canonical constructed state.

    p_e * E(rho_e) = max{0, xi1 - xi2 - xi3 - xi4} equals the entanglement
    (E for Q >= 0, zero for Q < 0), and rho_s has positive partial
    transpose.  For p_e = 1 the separable part degenerates to zero.
    """
    lam = as_spectrum(spectrum, 6)
    e = _check_physical(entanglement, max(0.0, e_mems(lam)))
    xi = xi_explicit(lam, e)
    x, n1, n2 = wootters_xkets_explicit(lam, e)
    outside = np.zeros((6, 6))
    outside[1, 1] = lam[1]
    outside[4, 4] = lam[2]
    p_e, rho_e, rho_s = _assemble(x, xi, outside)
    return LSDecomposition(
        p_e=p_e, rho_e=rho_e, rho_s=rho_s, xi=xi, x_kets=x, n1=n1, n2=n2
    )


def _entanglement_quartet(rho):
    """The quartet hosting the coherence of a minimal SGX state.

    Among matching templates, one whose quartet block is nondiagonal wins;
    a fully diagonal-compatible state defaults to the canonical {1,3,4,6}.
    """
    matched = matched_sgx_templates(rho)
    with_coherence = []
    for k in matched:
        idx = np.array(QUARTETS[k]) - 1
        block = rho[np.ix_(idx, idx)]
        if np.max(np.abs(block - np.diag(block.diagonal()))) > ZERO_TOL:
            with_coherence.append(k)
    if with_coherence:
        return QUARTETS[with_coherence[0]]
    return QUARTETS[1] if 1 in matched else QUARTETS[matched[0]]


def _require_min_sgx(rho):
    flags = classify(rho)
    if not flags.is_min_sgx:
        if flags.is_tgx:
            raise AmbiguousQuartet("coherence spans more than one quartet")
        raise NotMinimalSGX("state is not in minimal SGX form")


def _subnormalized_quartet_vectors(rho, quartet):
    """Four sqrt(eigenvalue)-weighted eigenvectors of the quartet block,
    0-embedded in the full space; zero rows pad ranks below 4."""
    idx = np.array(quartet) - 1
    block = rho[np.ix_(idx, idx)]
    eig = hermitian_eig(block)
    u = np.zeros((4, 6), dtype=complex)
    for k in range(4):
        if eig.values[k] > RANK_TOL:
            u[k, idx] = np.sqrt(eig.values[k]) * eig.vectors[:, k]
    return u


def tau_matrix(rho, quartet):
    """Spin-flip overlap matrix tau_kl = <u_k|S|u_l*> of the quartet block.

    Always 4x4 and complex symmetric; its Takagi values are the concurrence
    singular values of the (unnormalized) quartet subspace.
    """
    rho = as_density_matrix(rho, dim=6)
    quartet = tuple(quartet)
    if quartet not in QUARTETS:
        raise InvalidQuartet(f"{quartet} is not a 2x3 product quartet")
    _require_min_sgx(rho)
    if QUARTETS.index(quartet) not in matched_sgx_templates(rho):
        raise NotMinimalSGX(f"coherence is not confined to quartet {quartet}")
    u = _subnormalized_quartet_vectors(rho, quartet)
    s = spin_flip_operator(quartet)
    tau = u.conj() @ s @ u.conj().T
    return (tau + tau.T) / 2.0


def ls_numeric(rho):
    """Numeric optimal split for any minimal SGX state.

    Uses a Takagi factorization of the quartet spin-flip matrix; agrees
    with ls_explicit on p_e and the xi multiset for canonical inputs.
    General TGX states with coherence in more than one quartet are
    rejected.
    """
    rho = as_density_matrix(rho, dim=6)
    _require_min_sgx(rho)
    quartet = _entanglement_quartet(rho)
    u = _subnormalized_quartet_vectors(rho, quartet)
    s = spin_flip_operator(quartet)
    tau = u.conj() @ s @ u.conj().T
    fact = takagi_symmetric((tau + tau.T) / 2.0)
    xi = fact.values
    x = fact.unitary.T @ u
    for a in range(4):
        x[a] = _fix_ket_phase(x[a])
    comp = np.array(COMPLEMENT_PAIRS[QUARTETS.index(quartet)]) - 1
    outside = np.zeros((6, 6), dtype=complex)
    outside[np.ix_(comp, comp)] = rho[np.ix_(comp, comp)]
    p_e, rho_e, rho_s = _assemble(x, xi, outside)
    return LSDecomposition(p_e=p_e, rho_e=rho_e, rho_s=rho_s, xi=xi, x_kets=x)
