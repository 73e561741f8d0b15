"""Shared input-validation helpers."""

import numpy as np

from .errors import InvalidSeed, InvalidSpectrum, InvalidState, NotNormalized

DENSITY_TOL = 1e-10
SPECTRUM_TOL = 1e-12
KET_NORM_TOL = 1e-10


def as_square_matrix(m, dim=None):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidState(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise InvalidState(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise InvalidState("matrix has a NaN or infinite entry")
    return m


def as_density_matrix(rho, dim=None):
    """Validate Hermiticity, unit trace, and positivity (all to 1e-10)."""
    return density_and_eigvals(rho, dim)[0]


def density_and_eigvals(rho, dim=None):
    """as_density_matrix that also returns the ascending eigenvalues it checked."""
    rho = as_square_matrix(rho, dim)
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
        raise InvalidState("density matrix is not Hermitian to 1e-10")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > DENSITY_TOL or abs(trace.imag) > DENSITY_TOL:
        raise InvalidState("density matrix does not have unit trace to 1e-10")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -DENSITY_TOL:
        raise InvalidState("density matrix has an eigenvalue below -1e-10")
    return rho, w


def as_spectrum(values, n):
    """Validate a descending, nonnegative spectrum summing to 1 (to 1e-12)."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise InvalidSpectrum(f"expected {n} eigenvalues, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise InvalidSpectrum("spectrum has a NaN or infinite eigenvalue")
    if np.any(arr[1:] - arr[:-1] > SPECTRUM_TOL):
        raise InvalidSpectrum("spectrum is not in descending order")
    if np.any(arr < -SPECTRUM_TOL):
        raise InvalidSpectrum("spectrum has a negative eigenvalue")
    if abs(arr.sum() - 1.0) > SPECTRUM_TOL:
        raise InvalidSpectrum(f"spectrum sums to {arr.sum()!r}, not 1")
    return np.clip(arr, 0.0, None)


def as_unit_ket(psi, dim):
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (dim,):
        raise InvalidState(f"expected a {dim}-component ket, got {psi.shape[0]}")
    if not np.isfinite(psi).all():
        raise InvalidState("ket has a NaN or infinite entry")
    if abs(np.linalg.norm(psi) - 1.0) > KET_NORM_TOL:
        raise NotNormalized("ket is not unit-norm to 1e-10")
    return psi


def as_seed(seed):
    """Validate a nonnegative integer seed, the kind ``default_rng`` accepts."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidSeed(f"seed={seed!r} must be a nonnegative integer")
    return int(seed)
