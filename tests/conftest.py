"""Shared random-input helpers for the test suite."""

import ctypes
import glob
import os
import tracemalloc

import numpy as np
from hypothesis import settings

from qqent._invariants import _random_spectrum as random_spectrum
from qqent.measures import SPIN_FLIP_4
from qqent.numerics import haar_unitary

# every property test is seeded: the same examples on every run
settings.register_profile("seeded", derandomize=True, deadline=None)
settings.load_profile("seeded")

def blas_platform():
    """numpy's version and the run-time config and core of its scipy-openblas
    (None where the library or symbol is absent), for the message of a failed
    output digest: LAPACK's last bits depend on the kernels that ran."""
    found = dict.fromkeys(("config", "corename"))
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for key in found:
            get = getattr(lib, f"scipy_openblas_get_{key}64_", None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                found[key] = get().decode()
    return f"numpy {np.__version__}, OpenBLAS config {found['config']!r}, core {found['corename']!r}"


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while fn(*args) runs, above what was
    traced before; numpy reports its buffers to tracemalloc, on every thread."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


QUARTET_IDX = {
    (1, 2, 4, 5): np.array([0, 1, 3, 4]),
    (1, 3, 4, 6): np.array([0, 2, 3, 5]),
    (2, 3, 5, 6): np.array([1, 2, 4, 5]),
}


def random_density(rng, dim, rank=None):
    lam = random_spectrum(rng, dim, rank)
    v = haar_unitary(dim, rng)
    return (v * lam) @ v.conj().T


def random_ket(rng, dim=6):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_x_state(rng):
    """Random PSD 4x4 X-form density matrix."""
    d = rng.dirichlet(np.ones(4))
    m = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(m, d)
    m[0, 3] = rng.uniform() * np.sqrt(d[0] * d[3]) * np.exp(2j * np.pi * rng.uniform())
    m[1, 2] = rng.uniform() * np.sqrt(d[1] * d[2]) * np.exp(2j * np.pi * rng.uniform())
    m[3, 0] = m[0, 3].conjugate()
    m[2, 1] = m[1, 2].conjugate()
    return m


def quartet_embedded_unitary(u4, quartet=(1, 3, 4, 6)):
    """Embed a 4x4 unitary on the quartet levels, identity elsewhere."""
    big = np.eye(6, dtype=complex)
    idx = QUARTET_IDX[tuple(quartet)]
    big[np.ix_(idx, idx)] = u4
    return big


def rotated_min_sgx(base, unitary_seed):
    """Haar-rotate the {1,3,4,6} quartet of a canonical state into dense
    minimal SGX form."""
    big = quartet_embedded_unitary(haar_unitary(4, unitary_seed))
    return big @ base @ big.conj().T


def concurrence_singular_values(block):
    """Independent concurrence-singular-value oracle of a 4x4 block: raw eigh,
    eigenvalues clipped at 0 (not cut at a rank tolerance), plain SVD of the
    unsymmetrized spin-flip overlap tau_kl = <u_k|F|u_l*>; descending."""
    w, v = np.linalg.eigh(block)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    return np.linalg.svd(x.conj().T @ SPIN_FLIP_4 @ x.conj(), compute_uv=False)


def ls_round_off_tail_state(w):
    """0.9 (1/2 |Phi+><Phi+| + (1/2 - w) |01><01| + w |10><10|) on quartet
    {1,3,4,6}, plus 0.06 |2><2| + 0.04 |5><5|: a real block eigenvalue w
    below RANK_TOL that is still worth about sqrt(w) of concurrence."""
    rho = np.zeros((6, 6))
    rho[np.ix_([0, 5], [0, 5])] = 0.9 * 0.25
    rho[2, 2], rho[3, 3] = 0.9 * (0.5 - w), 0.9 * w
    rho[1, 1], rho[4, 4] = 0.06, 0.04
    return rho


def brute_force_negativity(rho):
    """Independent partial-transpose oracle via explicit index loops."""
    pt = np.zeros((6, 6), dtype=complex)
    for a in range(2):
        for b in range(3):
            for ap in range(2):
                for bp in range(3):
                    pt[3 * a + b, 3 * ap + bp] = rho[3 * ap + b, 3 * a + bp]
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0].sum())


def reduction_purity_entanglement(psi):
    """Independent pure-state oracle: sqrt(2 (1 - purity of mode-1 reduction))."""
    m = np.asarray(psi, dtype=complex).reshape(2, 3)
    red = m @ m.conj().T
    return float(np.sqrt(max(2.0 * (1.0 - np.trace(red @ red).real), 0.0)))


# -- reference kernels: the earlier algorithms, kept to pin the fast ones ----

_REF_SUPPORT_TOL = 1e-8


def _ref_first_significant(vec):
    sig = np.flatnonzero(np.abs(vec) > _REF_SUPPORT_TOL)
    return int(sig[0]) if sig.size else 0


def ref_fix_phase(vec):
    """One column phase-fixed: first significant component real positive."""
    z = vec[_ref_first_significant(vec)]
    if abs(z) == 0.0:
        return vec
    return vec * (abs(z) / z)


def _ref_canonical_subspace_basis(block):
    n, k = block.shape
    proj = block @ block.conj().T
    basis = []
    for j in range(n):
        cand = proj[:, j].copy()
        for b in basis:
            cand -= b * np.vdot(b, cand)
        norm = np.linalg.norm(cand)
        if norm > _REF_SUPPORT_TOL:
            basis.append(cand / norm)
        if len(basis) == k:
            break
    if len(basis) < k:
        return np.column_stack([ref_fix_phase(block[:, j]) for j in range(k)])
    basis = [ref_fix_phase(b) for b in basis]

    def key(b):
        idx = _ref_first_significant(b)
        return (-abs(b[idx]), idx)

    return np.column_stack(sorted(basis, key=key))


def _ref_clusters(vals, tol):
    spans, lo = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or abs(vals[i] - vals[i - 1]) > tol:
            spans.append((lo, i))
            lo = i
    return spans


def ref_hermitian_eig(a):
    """(values, vectors) of the full canonical eig: every cluster rebuilt,
    every singleton phase-fixed column by column."""
    w, v = np.linalg.eigh(a)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for lo, hi in _ref_clusters(w, 1e-10):
        if hi - lo > 1:
            v[:, lo:hi] = _ref_canonical_subspace_basis(v[:, lo:hi])
        else:
            v[:, lo] = ref_fix_phase(v[:, lo])
    return w, v
