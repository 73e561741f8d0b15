"""Shared input-validation helpers."""

import math

import numpy as np

from .errors import InvalidBudget, InvalidSeed, InvalidSpectrum, InvalidState, NotNormalized

DENSITY_TOL = 1e-10
SPECTRUM_TOL = 1e-12
KET_NORM_TOL = 1e-10

# Thresholds on computed results rather than on inputs:
#: LS weight p_E counted as 0 (or 1) by the CLI's LS residuals (qqent ls, verify ls)
LS_WEIGHT_TOL = 1e-12
#: verify suites: residual limit, and the separable remainder's negativity limit
VERIFY_TOL = 1e-9
VERIFY_NEGATIVITY_TOL = 1e-8
#: verify formulas: pure-state consistency and LPU invariance
VERIFY_FORMULA_TOL = 1e-10
#: ls --route explicit: largest entry gap to the canonical EPU layout
CANONICAL_FORM_TOL = 1e-8
#: mixer_2 accepts theta up to pi/2 plus this
ANGLE_TOL = 1e-12
#: epu_unitary: largest eigenvalue gap of two states taken to share a spectrum
SPECTRUM_MATCH_TOL = 1e-9


def _as_array(values, dtype, error):
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError as exc:  # a Python int at or beyond 2**1024
        raise error(f"entry outside the float range: {exc}") from exc


def as_square_matrix(m, dim=None):
    m = _as_array(m, complex, InvalidState)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InvalidState(f"expected a non-empty square matrix, got shape {m.shape}")
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
    trace = rho.trace()
    if abs(trace.real - 1.0) > DENSITY_TOL or abs(trace.imag) > DENSITY_TOL:
        raise InvalidState("density matrix does not have unit trace to 1e-10")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -DENSITY_TOL:
        raise InvalidState("density matrix has an eigenvalue below -1e-10")
    return rho, w


def as_spectrum(values, n):
    """Validate a descending, nonnegative spectrum summing to 1 (to 1e-12)."""
    arr = _as_array(values, float, InvalidSpectrum).reshape(-1)
    if arr.shape != (n,):
        raise InvalidSpectrum(f"expected {n} eigenvalues, got {arr.shape[0]}")
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        raise InvalidSpectrum("spectrum has a NaN or infinite eigenvalue")
    if any(b - a > SPECTRUM_TOL for a, b in zip(vals, vals[1:])):
        raise InvalidSpectrum("spectrum is not in descending order")
    if min(vals) < -SPECTRUM_TOL:
        raise InvalidSpectrum("spectrum has a negative eigenvalue")
    # numpy's sum, not Python's (compensated from 3.12): it decides the 1e-12 edge
    total = arr.sum()
    if abs(total - 1.0) > SPECTRUM_TOL:
        raise InvalidSpectrum(f"spectrum sums to {total!r}, not 1")
    return np.array([v if v > 0.0 else 0.0 for v in vals])


def as_unit_ket(psi, dim):
    psi = _as_array(psi, complex, InvalidState).reshape(-1)
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


def as_budget(value, name):
    """Validate a sample or trial count: an integer (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidBudget(f"{name}={value!r} must be an integer of at least 1")
    return int(value)
