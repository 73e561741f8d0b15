"""Qubit-qutrit state families, quartet machinery, and classification.

Level convention: |1..6> = |1,1>,|1,2>,|1,3>,|2,1>,|2,2>,|2,3> (row-major
coincidence index).  All level and quartet indices in the public API are
1-based to match that labeling.
"""

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

import numpy as np

from ._checks import SPECTRUM_MATCH_TOL, as_angle, as_density_matrix, as_indices, as_real
from ._checks import as_spectrum, as_square_matrix, differs
from .errors import AmbiguousQuartet, EtaOutOfRange, IndexOutOfRange, InvalidQuartet
from .errors import NotMinimalSGX, SpectrumMismatch, UnphysicalEntanglement
from .numerics import _hermitian_eig_unchecked

#: The three 2x2 product subspaces of the 2x3 level set, in canonical order.
QUARTETS = ((1, 2, 4, 5), (1, 3, 4, 6), (2, 3, 5, 6))

#: Two-level supports of the maximally entangled TGX kets.
ME_TUPLES = ((1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5))

#: Levels outside each quartet, index-aligned with QUARTETS.
COMPLEMENT_PAIRS = tuple(tuple(k for k in range(1, 7) if k not in q) for q in QUARTETS)

ZERO_TOL = 1e-10
DELTA_TOL = 1e-12

#: QUARTETS and COMPLEMENT_PAIRS as 0-based levels, and the index grids of their blocks.
_QUARTET_IDX = tuple(tuple(k - 1 for k in q) for q in QUARTETS)
_GRID = tuple(np.ix_(i, i) for i in _QUARTET_IDX)
_COMPLEMENT_GRID = tuple(np.ix_(i, i) for i in ((a - 1, b - 1) for a, b in COMPLEMENT_PAIRS))

# allowed strictly-upper off-diagonal positions (0-based) per template: TGX
# holds every ME support, minimal TGX the two inside one quartet
_TGX_POSITIONS = frozenset((a - 1, b - 1) for a, b in ME_TUPLES)
_MIN_TGX_TEMPLATES = tuple(frozenset(p for p in _TGX_POSITIONS if set(p) <= set(i))
                           for i in _QUARTET_IDX)
_X6_POSITIONS = frozenset((i, 5 - i) for i in range(3))
# a minimal SGX template: a whole quartet, and the pair outside it
_MIN_SGX_TEMPLATES = tuple(
    frozenset(combinations(i, 2)) | {(a - 1, b - 1)}
    for i, (a, b) in zip(_QUARTET_IDX, COMPLEMENT_PAIRS)
)

# A support mask has bit k set when the k-th strictly-upper entry (row-major)
# exceeds ZERO_TOL; a state fits a template iff ``nz & ~mask == 0``.
_UPPER = np.flatnonzero(np.triu(np.ones((6, 6), dtype=bool), 1))
_UPPER_BITS = 1 << np.arange(_UPPER.size)
_BIT = {divmod(int(f), 6): 1 << k for k, f in enumerate(_UPPER)}


def _mask(positions):
    return sum(_BIT[p] for p in positions)


_TGX_MASK = _mask(_TGX_POSITIONS)
_X6_MASK = _mask(_X6_POSITIONS)
_SINGLE_MASKS = tuple(_BIT[p] for p in _TGX_POSITIONS)
_MIN_TGX_MASKS = tuple(map(_mask, _MIN_TGX_TEMPLATES))
_MIN_SGX_MASKS = tuple(map(_mask, _MIN_SGX_TEMPLATES))
_QUARTET_MASKS = tuple(_mask(combinations(i, 2)) for i in _QUARTET_IDX)

#: enumerate_lpus' matrices: those of the level maps 3a + b -> 3 p1[a] + p2[b] (0-based).
_LPUS = tuple(np.ascontiguousarray(np.eye(6)[:, [3 * a + b for a in p1 for b in p2]])
              for p1 in permutations(range(2)) for p2 in permutations(range(3)))


@dataclass(frozen=True)
class StateClass:
    """Structural flags: each is a pure zero-pattern test at tolerance 1e-10."""

    is_x: bool
    is_tgx: bool
    is_min_tgx: bool
    is_min_sgx: bool
    is_epu_min_tgx: bool
    is_mems_form: bool
    is_diagonal: bool


@dataclass(frozen=True)
class EpuParams:
    """Case parameters of the spectrum/entanglement-preserving construction."""

    q: float
    omega: float
    delta: float


def quartets():
    """The three product quartets, canonical order."""
    return [tuple(q) for q in QUARTETS]


def _quartet_index(quartet):
    """The index into QUARTETS of ``quartet``; anything else raises InvalidQuartet."""
    try:
        return QUARTETS.index(as_indices(quartet, "quartet entries", InvalidQuartet))
    except ValueError as exc:  # integers, but not a product quartet
        raise InvalidQuartet(f"{quartet} is not a 2x3 product quartet") from exc


def subspace_extract(rho, levels):
    """Extract the (unnormalized) subspace matrix rho[levels, levels].

    ``levels`` are strictly increasing 1-based integers; the block is returned
    as-is, with trace <= 1.
    """
    rho = as_square_matrix(rho)
    idx = as_indices(levels, "levels", IndexOutOfRange)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise IndexOutOfRange("levels must be strictly increasing")
    if not idx or idx[0] < 1 or idx[-1] > rho.shape[0]:
        raise IndexOutOfRange(f"levels must lie in 1..{rho.shape[0]}")
    sel = np.array(idx) - 1
    return rho[np.ix_(sel, sel)].copy()


def _offdiag_support(rho):
    """Support mask of a 6x6 matrix's strictly-upper entries."""
    return int((np.abs(rho.ravel()[_UPPER]) > ZERO_TOL) @ _UPPER_BITS)


def classify(rho):
    """Zero-pattern classification of a 2x3 state.

    Template flags are true iff every entry the template requires to vanish
    has magnitude <= 1e-10; values are never compared, so a diagonal state
    matches every template.  The minimal TGX / minimal SGX / EPU flags accept
    any of the local-permutation variants of their template.
    """
    return _classify(as_density_matrix(rho, dim=6))


def _classify(rho):
    return _class_of(_offdiag_support(rho))


@cache  # at most 2**15 support masks, each mapped to one frozen StateClass
def _class_of(nz):
    # coherence confined to (at most) a single two-level ME support
    single = any(nz & ~m == 0 for m in _SINGLE_MASKS)
    return StateClass(
        is_x=nz & ~_X6_MASK == 0,
        is_tgx=nz & ~_TGX_MASK == 0,
        is_min_tgx=any(nz & ~m == 0 for m in _MIN_TGX_MASKS),
        is_min_sgx=any(nz & ~m == 0 for m in _MIN_SGX_MASKS),
        is_epu_min_tgx=single,
        is_mems_form=single,
        is_diagonal=nz == 0,
    )


def matched_sgx_templates(rho):
    """Indices (into quartets()) of the minimal SGX templates a state fits."""
    return _sgx_matches(_offdiag_support(as_density_matrix(rho, dim=6)))


def _sgx_matches(nz):
    return [k for k, m in enumerate(_MIN_SGX_MASKS) if nz & ~m == 0]


def _min_sgx_quartet(rho, k=None):
    """The minimal-SGX gate of a validated 6x6 state: the index (into QUARTETS)
    of the quartet holding its coherence, the first matched template whose
    quartet has a set bit, else {1,3,4,6} if it matches, else the first match.
    With ``k`` given, k if quartet k's template fits.  TGX coherence in more
    than one quartet raises AmbiguousQuartet, any other misfit NotMinimalSGX."""
    nz = _offdiag_support(rho)
    matched = _sgx_matches(nz)
    if not matched:
        if _class_of(nz).is_tgx:
            raise AmbiguousQuartet("coherence spans more than one quartet")
        raise NotMinimalSGX("state is not in minimal SGX form")
    if k is not None:
        if k not in matched:
            raise NotMinimalSGX(f"coherence is not confined to quartet {QUARTETS[k]}")
        return k
    return next((j for j in matched if nz & _QUARTET_MASKS[j]), 1 if 1 in matched else matched[0])


def enumerate_lpus():
    """All 2! * 3! = 12 local-permutation unitaries as 6x6 0/1 matrices,
    qubit permutation outer; each call returns new arrays."""
    return [u.copy() for u in _LPUS]


def me_tgx_states():
    """The twelve balanced two-level maximally entangled kets.

    Ordered so that states[:6] and states[6:] each form a complete
    orthonormal (maximally entangled) basis of the 6-level space.
    """
    out = []
    for a, b in ((1, 5), (2, 6), (3, 4), (1, 6), (2, 4), (3, 5)):
        for sign in (1.0, -1.0):
            ket = np.zeros(6, dtype=complex)
            ket[a - 1] = 1.0 / np.sqrt(2.0)
            ket[b - 1] = sign / np.sqrt(2.0)
            out.append(ket)
    return out


def e_mems(spectrum):
    """lam1 - lam5 - 2*sqrt(lam4*lam6): the spectral pre-entanglement.

    May be negative; max{0, .} is the largest I-concurrence of the code's
    minimal-TGX family for this spectrum.  Other states with the spectrum
    can carry more.
    """
    return _e_mems(as_spectrum(spectrum, 6))


def _e_mems(lam):
    l1, _, _, l4, l5, l6 = lam.tolist()
    return l1 - l5 - 2.0 * math.sqrt(l4 * l6)


def physical_entanglement(spectrum, eta):
    """eta * max{0, e_mems(spectrum)} for eta in [0, 1]."""
    if not 0.0 <= as_real(eta, "eta", EtaOutOfRange) <= 1.0:
        raise EtaOutOfRange(f"eta={eta} outside [0, 1]")
    return float(eta * max(0.0, e_mems(spectrum)))


def _check_physical(e, cap, what="E"):
    # written so that NaN fails it: every comparison with NaN is false
    if not -DELTA_TOL <= as_real(e, what, UnphysicalEntanglement) <= cap + DELTA_TOL:
        raise UnphysicalEntanglement(
            f"{what}={e} outside [0, {cap}], the built family's cap for this spectrum"
        )
    return min(max(float(e), 0.0), cap)


def _state(diag, *coherences):
    """6x6 complex state from its diagonal and real symmetric ((i, j), value) coherences."""
    rho = np.zeros((6, 6), dtype=complex)
    rho.flat[::7] = diag
    for (i, j), c in coherences:
        rho[i, j] = rho[j, i] = c
    return rho


def _physical_pair(spectrum, entanglement):
    """Validated spectrum and its entanglement, clamped into [0, max{0, e_mems}]."""
    lam = as_spectrum(spectrum, 6)
    return lam, _check_physical(entanglement, max(0.0, _e_mems(lam)))


def _physical_pair_2x2(spectrum, concurrence):
    """Validated two-qubit spectrum embedded as the six levels (lam1, 0, 0, lam2, lam3,
    lam4), and C clamped into [0, max{0, e_mems}] of it: lam1 - lam3 - 2 sqrt(lam2 lam4)."""
    l1, l2, l3, l4 = as_spectrum(spectrum, 4).tolist()
    lam = np.array([l1, 0.0, 0.0, l2, l3, l4])
    return lam, _check_physical(concurrence, max(0.0, _e_mems(lam)), what="C")


def build_mems(spectrum):
    """The state of the code's minimal-TGX family with the largest
    I-concurrence for its spectrum, max{0, e_mems}; canonical orientation."""
    l1, l2, l3, l4, l5, l6 = as_spectrum(spectrum, 6).tolist()
    return _state(((l1 + l5) / 2, l2, l4, l6, l3, (l1 + l5) / 2), ((0, 5), (l1 - l5) / 2))


def build_epu_min_tgx(spectrum, entanglement):
    """State with the given spectrum and I-concurrence, minimal TGX form.

    Entanglement must lie in the family's range 0 <= E <= max{0, e_mems(spectrum)}.
    Returns the 6x6 matrix and the case parameters (Q, Omega, Delta).  For
    Q >= 0 the minimal-TGX I-concurrence of the result is exactly E; for
    Q < 0 the only physical E is 0 and the result is separable.
    """
    return _epu_min_tgx(*_physical_pair(spectrum, entanglement))


def _epu_core(l1, l5, l4, l6, e):
    """(gap, Q, Omega, Delta) of the construction, the one copy ls shares:
    gap = lam1 - lam5, Q = gap^2 - (E + 2 sqrt(lam4 lam6))^2, Omega = max{0, Q},
    Delta = gap, plus 1 when gap vanishes."""
    gap = l1 - l5
    q = gap**2 - (e + 2.0 * math.sqrt(l4 * l6)) ** 2
    return gap, q, max(0.0, q), gap + (1.0 if gap <= DELTA_TOL else 0.0)


def _epu_min_tgx(lam, e):
    l1, l2, l3, l4, l5, l6 = lam.tolist()
    gap, q, omega, delta = _epu_core(l1, l5, l4, l6, e)
    root = math.sqrt(omega)
    rho = _state(
        ((l1 + l5 + root) / 2, l2, l4, l6, l3, (l1 + l5 - root) / 2),
        ((0, 5), math.sqrt(max(gap**2 - omega, 0.0)) / 2),
    )
    return rho, EpuParams(q=q, omega=omega, delta=delta)


def build_epu_x_2x2(spectrum, concurrence):
    """Two-qubit analog: X state of given spectrum and concurrence.

    It is the {1,3,4,6} block of the 2x3 construction on the six levels
    (lam1, 0, 0, lam2, lam3, lam4), which runs the same arithmetic.
    """
    return _epu_min_tgx(*_physical_pair_2x2(spectrum, concurrence))[0][_GRID[1]]


def build_alpha_beta(spectrum, alpha, beta):
    """Minimal TGX state from the two-angle eigenvector family.

    alpha rotates within the {1,6} pair, beta within {3,4}; at
    (alpha, beta) = (pi/4, 0) the result is exactly build_mems(spectrum).
    """
    l1, l2, l3, l4, l5, l6 = as_spectrum(spectrum, 6).tolist()
    alpha, beta = as_angle(alpha, "alpha"), as_angle(beta, "beta")
    ca2, sa2 = np.cos(alpha) ** 2, np.sin(alpha) ** 2
    cb2, sb2 = np.cos(beta) ** 2, np.sin(beta) ** 2
    return _state(
        (l1 * ca2 + l5 * sa2, l2, l4 * cb2 + l6 * sb2,
         l4 * sb2 + l6 * cb2, l3, l1 * sa2 + l5 * ca2),
        ((0, 5), (l1 - l5) / 2 * np.sin(2 * alpha)),
        ((2, 3), (l4 - l6) / 2 * np.sin(2 * beta)),
    )


def epu_unitary(rho, target):
    """Unitary U with U rho U^dagger = target for states of equal spectrum.

    Built from the two deterministic eigenvector matrices; works under
    degeneracy because the shared eigenvalues are block-scalar on each
    degenerate cluster, so any cluster basis reconstructs the target.
    """
    rho = as_density_matrix(rho)
    target = as_density_matrix(target, dim=rho.shape[0])
    er = _hermitian_eig_unchecked(rho)
    et = _hermitian_eig_unchecked(target)
    if differs(er.values, et.values, SPECTRUM_MATCH_TOL):
        raise SpectrumMismatch("states do not share a spectrum to 1e-9")
    return et.vectors @ er.vectors.conj().T
