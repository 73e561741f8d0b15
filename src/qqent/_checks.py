"""Shared input-validation helpers."""

import numpy as np

from .errors import InvalidSpectrum, InvalidState, NotNormalized

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
    rho = as_square_matrix(rho, dim)
    if np.max(np.abs(rho - rho.conj().T)) > DENSITY_TOL:
        raise InvalidState("density matrix is not Hermitian to 1e-10")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL or abs(np.trace(rho).imag) > DENSITY_TOL:
        raise InvalidState("density matrix does not have unit trace to 1e-10")
    if np.linalg.eigvalsh(rho).min() < -DENSITY_TOL:
        raise InvalidState("density matrix has an eigenvalue below -1e-10")
    return rho


def as_spectrum(values, n):
    """Validate a descending, nonnegative spectrum summing to 1 (to 1e-12)."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise InvalidSpectrum(f"expected {n} eigenvalues, got {arr.shape[0]}")
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
    if abs(np.linalg.norm(psi) - 1.0) > KET_NORM_TOL:
        raise NotNormalized("ket is not unit-norm to 1e-10")
    return psi
