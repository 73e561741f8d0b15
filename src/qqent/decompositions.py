"""Pure-state decompositions of mixed states and the minimum-average search.

Any rank-r state expands as rho = sum_j p_j |w_j><w_j| with D >= r terms,
one decomposition per D x D unitary mixing matrix; the average I-concurrence
over a decomposition is what the closed-form measures minimize.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import as_angle, as_budget, as_density_matrix, as_mixer, as_real, as_seed
from ._checks import density_and_eigvals
from ._screen import _gram_schmidt, draws
from .errors import AngleOutOfRange, DTooLarge, DTooSmall, ValidationError
from .measures import _pure_i_unnormalized
from .numerics import BATCH_SIZE, HAAR_MAX_DIM, RANK_TOL, _hermitian_eig_unchecked

ZERO_WEIGHT_TOL = 1e-14
DEFAULT_GRID_BUDGET = 900
DEFAULT_SAMPLE_BUDGET = 1000


@dataclass(frozen=True)
class PureDecomposition:
    """weights sum to trace(rho); kets[j] is unit-norm (zero ket if weight ~ 0)."""

    weights: np.ndarray
    kets: np.ndarray  # shape (D, n), rows are kets

    def reconstruct(self):
        return (self.kets.T * self.weights) @ self.kets.conj()


@dataclass(frozen=True)
class MixerParams:
    """Parameters of the mixing unitary that achieved a search minimum.

    D = 2 gives the lattice angles (theta, phi).  D >= 3 gives the search
    ``seed`` and the ``trial`` index, and the mixer is
    ``haar_unitary(d, seed, count=trial + 1)[trial]``.
    """

    d: int
    theta: float | None = None
    phi: float | None = None
    seed: int | None = None
    trial: int | None = None


def rank_of(rho):
    """Number of eigenvalues above the 1e-12 rank threshold."""
    return int(np.sum(density_and_eigvals(rho)[1] > RANK_TOL))


def _spectral_factors(rho):
    """sqrt(lam_k) and eigenvector rows v_k^T over the rank-supporting eigenvalues.

    ``rho`` must already have passed ``as_density_matrix``.
    """
    eig = _hermitian_eig_unchecked(rho, RANK_TOL)
    r = int(np.sum(eig.values > RANK_TOL))
    return np.sqrt(np.clip(eig.values[:r], 0.0, None)), eig.vectors[:, :r].T


def _mix(u, root, vt):
    """Subnormalized kets (rows) and weights p_j = sum_k |U_jk|^2 lam_k.

    ``u`` is one D x D mixer or a stack of them; the result stacks alike.
    """
    amp = u[..., : root.size] * root
    return amp @ vt, np.sum(np.abs(amp) ** 2, axis=-1)


def _averages(u, root, vt):
    """Decomposition average for each mixer in the stack ``u``.

    Pure I-concurrence is homogeneous of degree 2, so E(bar_j) = p_j E(ket_j)
    and no ket needs normalizing; members with p_j <= 1e-14 count as zero.
    """
    bars, weights = _mix(u, root, vt)
    e = _pure_i_unnormalized(bars)
    return np.where(weights > ZERO_WEIGHT_TOL, e, 0.0).sum(axis=-1)


def decompose(rho, mixer):
    """Decomposition of rho from a D x D unitary, D >= rank(rho).

    Weights are p_j = sum_k |U_jk|^2 lam_k over the rank-supporting
    eigenvalues; members with p_j <= 1e-14 keep a zero ket and are skipped
    in averages but retained for reconstruction accounting.  The searches
    score the same mixing arithmetic on whole stacks of mixers, so any
    search row replays through this function: row i of a D >= 3 search with
    seed s is decompose(rho, haar_unitary(D, s, count=i + 1)[i]).
    """
    rho = as_density_matrix(rho)
    u = as_mixer(mixer)
    root, vt = _spectral_factors(rho)
    if len(u) < root.size:
        raise DTooSmall(f"D={len(u)} below rank {root.size}")
    bars, weights = _mix(u, root, vt)
    kets = np.zeros_like(bars)
    keep = weights > ZERO_WEIGHT_TOL
    kets[keep] = bars[keep] / np.sqrt(weights[keep])[:, None]
    return PureDecomposition(weights=weights, kets=kets)


def mixer_2(theta, phi):
    """The two-parameter special unitary [[c, s e^{i phi}], [-s e^{-i phi}, c]]."""
    as_angle(theta, "theta")
    if not 0.0 <= as_real(phi, "phi", AngleOutOfRange) < 2 * np.pi:
        raise AngleOutOfRange(f"phi={phi} outside [0, 2*pi)")
    return _mixer_2_stack(theta, phi)


def _mixer_2_stack(theta, phi):
    """mixer_2 without the angle gates; array angles give a stack of mixers."""
    b = np.sin(theta) * np.exp(1j * phi)
    u = np.empty(np.shape(b) + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = np.cos(theta)
    u[..., 0, 1] = b
    u[..., 1, 0] = -np.conj(b)
    return u


def average_entanglement(dec):
    """sum_j p_j * (pure I-concurrence of ket j) for a 2x3 decomposition."""
    e = dec.weights * _pure_i_unnormalized(dec.kets)
    return float(np.where(dec.weights > ZERO_WEIGHT_TOL, e, 0.0).sum())


def _search_budget(d, budget):
    """The number of trials a search runs: ``budget``, or the default for D
    (900 grid points at D = 2, 1000 Haar trials otherwise) when it is None."""
    if budget is None:
        return DEFAULT_GRID_BUDGET if d == 2 else DEFAULT_SAMPLE_BUDGET
    return as_budget(budget, "budget")


def _screened_averages(g, root, vt):
    """The search's estimator (see qqent._screen): the negated estimated
    average of each trial in the normals ``g``, the score that _candidates
    ranks, with the Gram-Schmidt certificate of its mixer columns.

    Struct of arrays with the trial axis last, one member at a time: one
    small product forms member j's kets in every trial, and no stacked
    matmul or chunk-sized temporary is needed.
    """
    qr, qi, kappa = _gram_schmidt(g, root.size)
    wt = (root[:, None] * vt).T  # column k is sqrt(lam_k) v_k
    bars = (wt @ (qr[:, j] + 1j * qi[:, j]) for j in range(qr.shape[1]))
    return -sum(_pure_i_unnormalized(b.T) for b in bars), kappa


def _search_chunks(rho, d, budget, seed, screen=False):
    """Yield (params, averages) for successive chunks of the search protocol.

    rho, already validated, is eigendecomposed once; each chunk of at most
    BATCH_SIZE trials is scored as one stacked array.  ``params`` lists the
    per-trial parameter tuples, ``averages`` is the matching float array.
    A D >= 3 chunk builds only the first r = rank columns of its Haar
    mixers, bit-identical to those of haar_unitary(D, seed, count=n), since
    the average reads no others.  With ``screen`` a D >= 3 chunk yields only
    the trials that can hold its minimum (see qqent._screen).
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValidationError(f"D={d!r} must be an integer")
    root, vt = _spectral_factors(rho)
    r = root.size
    if d < r:
        raise DTooSmall(f"D={d} below rank {r}")
    if d > r * r:
        raise DTooLarge(f"D={d} above rank^2 = {r * r}")
    if d > HAAR_MAX_DIM:
        raise DTooLarge(f"D={d} above the Haar sampler's limit of {HAAR_MAX_DIM}")
    budget = _search_budget(d, budget)
    seed = as_seed(seed)
    if d == 1:
        yield [()], _averages(np.ones((1, 1, 1), dtype=complex), root, vt)
        return
    if d == 2:
        n_theta = max(2, int(np.sqrt(budget)))
        n_phi = max(1, budget // n_theta)
        thetas = np.linspace(0.0, np.pi / 2, n_theta)
        phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
        for lo in range(0, n_theta * n_phi, BATCH_SIZE):
            index = np.arange(lo, min(lo + BATCH_SIZE, n_theta * n_phi))
            theta, phi = thetas[index // n_phi], phis[index % n_phi]
            params = list(zip(theta.tolist(), phi.tolist()))
            yield params, _averages(_mixer_2_stack(theta, phi), root, vt)
        return
    estimate = (lambda g: _screened_averages(g, root, vt)) if screen else None

    def scored(batch):
        return [(k,) for k in batch[0].tolist()], _averages(batch[1], root, vt)

    # map, unlike a loop variable, holds no batch while draws() makes the next
    yield from map(scored, draws(seed, d, budget, r, estimate))


def iter_decomposition_samples(rho, d, budget=None, seed=0):
    """Yield (trial_index, params, average) over the standard search protocol.

    D = 2 sweeps a uniform (theta, phi) lattice of about ``budget`` points
    (default 30 x 30, endpoints included in theta); D >= 3 draws ``budget``
    Haar unitaries in order from one ``np.random.default_rng(seed)``, so row
    i replays as decompose(rho, haar_unitary(D, seed, count=i + 1)[i]) and a
    larger budget extends a search without reshuffling its first rows.
    ``params`` is (theta, phi) for the grid, (trial_index,) for sampling, and
    () for the trivial D = 1 case.  D must be an integer (ValidationError),
    ``seed`` a nonnegative integer (InvalidSeed).  The search is batched:
    rho is eigendecomposed once and trials are scored in stacked chunks of
    BATCH_SIZE (2048), so memory stays bounded for any budget.
    """
    index = 0
    for params, averages in _search_chunks(as_density_matrix(rho, dim=6), d, budget, seed):
        for p, avg in zip(params, averages.tolist()):
            yield index, p, avg
            index += 1


def min_average_search(rho, d, budget=None, seed=0):
    """Smallest decomposition average found, with the achieving parameters.

    A stochastic upper-bound estimator for D >= 3 (not an optimizer); the
    result can never fall below the convex-roof value beyond round-off.
    Ties go to the earliest trial.  The trials are those of
    iter_decomposition_samples, and so is the result, bit for bit; at
    D >= 3 each chunk is screened first (see qqent._screen).
    """
    best = np.inf
    best_params = ()
    chunks = _search_chunks(as_density_matrix(rho, dim=6), d, budget, seed, True)
    for params, averages in chunks:
        k = int(np.argmin(averages))
        if averages[k] < best:
            best, best_params = float(averages[k]), params[k]
    if d == 2:
        return best, MixerParams(d=2, theta=best_params[0], phi=best_params[1])
    if d == 1:
        return best, MixerParams(d=1)
    return best, MixerParams(d=d, seed=int(seed), trial=best_params[0])
