import numpy as np
import pytest

from qqent.decompositions import (
    _haar_stack,
    average_entanglement,
    decompose,
    iter_decomposition_samples,
    min_average_search,
    mixer_2,
    rank_of,
)
from qqent.errors import (
    AngleOutOfRange,
    DTooLarge,
    DTooSmall,
    InvalidBudget,
    InvalidState,
    NotUnitary,
)
from qqent.measures import min_sgx_i_concurrence, min_tgx_i_concurrence, pure_i_concurrence
from qqent.numerics import haar_unitary, hermitian_eig
from qqent.states import build_alpha_beta, build_epu_min_tgx, physical_entanglement

from conftest import random_density, random_ket, random_spectrum, rotated_min_sgx


class TestDecompose:
    def test_identity_mixer_gives_eigendecomposition(self):
        rho = random_density(np.random.default_rng(0), 6, rank=4)
        eig = hermitian_eig(rho)
        dec = decompose(rho, np.eye(4))
        assert np.allclose(dec.weights, eig.values[:4], atol=1e-12)
        for j in range(4):
            assert np.max(np.abs(dec.kets[j] - eig.vectors[:, j])) < 1e-10

    def test_balanced_mixer_equal_weights(self):
        rho = build_alpha_beta((0.5, 0.5, 0, 0, 0, 0), 0.9, 0.0)
        dec = decompose(rho, mixer_2(np.pi / 4, 0.0))
        assert np.allclose(dec.weights, [0.5, 0.5], atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rho = random_density(rng, 6)
            dec = decompose(rho, haar_unitary(6, rng))
            assert abs(dec.weights.sum() - 1.0) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4, 6):
            rho = random_density(rng, 6, rank=2)
            dec = decompose(rho, haar_unitary(d, rng))
            assert np.max(np.abs(dec.reconstruct() - rho)) < 1e-9

    def test_gates(self):
        rho = random_density(np.random.default_rng(3), 6, rank=3)
        with pytest.raises(DTooSmall):
            decompose(rho, np.eye(2))
        with pytest.raises(NotUnitary):
            decompose(rho, np.ones((4, 4)))


class TestMixer2:
    def test_theta_zero_identity(self):
        assert np.allclose(mixer_2(0.0, 0.0), np.eye(2))

    def test_theta_half_pi_swap(self):
        assert np.allclose(mixer_2(np.pi / 2, 0.0), [[0, 1], [-1, 0]], atol=1e-15)

    def test_unitarity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = mixer_2(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15

    def test_angle_gates(self):
        with pytest.raises(AngleOutOfRange):
            mixer_2(-0.1, 0.0)
        with pytest.raises(AngleOutOfRange):
            mixer_2(0.3, 7.0)


class TestAverageEntanglement:
    def test_separable_diagonal_zero(self):
        rho = np.diag([0.4, 0.2, 0.15, 0.1, 0.1, 0.05]).astype(complex)
        dec = decompose(rho, np.eye(6))
        assert average_entanglement(dec) == 0.0

    def test_pure_state_independent_of_mixer(self):
        rng = np.random.default_rng(5)
        psi = random_ket(rng)
        rho = np.outer(psi, psi.conj())
        ref = pure_i_concurrence(psi)
        for d in (1, 2, 5):
            mixer = np.eye(1) if d == 1 else haar_unitary(d, rng)
            dec = decompose(rho, mixer)
            assert abs(average_entanglement(dec) - ref) < 1e-10


class TestMinAverageSearch:
    def test_d_bounds(self):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.5)  # rank 2
        with pytest.raises(DTooSmall):
            min_average_search(rho, 1)
        with pytest.raises(DTooLarge):
            min_average_search(rho, 5)

    def test_pure_input_returns_pure_value(self):
        psi = np.zeros(6)
        psi[1] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi)
        val, params = min_average_search(rho, 1)
        assert abs(val - 1.0) < 1e-12
        assert params.d == 1

    def test_grid_includes_eigendecomposition(self):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)
        val, params = min_average_search(rho, 2, budget=900)
        assert abs(val - 0.693) < 1e-12
        assert params.d == 2 and params.theta in (0.0, np.pi / 2)

    def test_lower_bound_property_min_tgx(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            lam = random_spectrum(rng, rank=int(rng.integers(2, 4)))
            e = physical_entanglement(lam, rng.uniform())
            rho, _ = build_epu_min_tgx(lam, e)
            floor = min_tgx_i_concurrence(rho)
            r = rank_of(rho)
            d = int(rng.integers(r, r * r + 1))
            for _, _, avg in iter_decomposition_samples(rho, d, budget=60, seed=int(rng.integers(1000))):
                assert avg >= floor - 1e-9

    def test_lower_bound_property_min_sgx(self):
        base, _ = build_epu_min_tgx((0.73, 0.27, 0, 0, 0, 0), 0.5)
        rho = rotated_min_sgx(base, unitary_seed=7)
        floor = min_sgx_i_concurrence(rho)
        for d in (2, 3, 4):
            for _, _, avg in iter_decomposition_samples(rho, d, budget=100, seed=1):
                assert avg >= floor - 1e-9

    def test_conjugation_symmetry_of_grid(self):
        # real states: (theta, phi) and (theta, 2 pi - phi) give equal averages
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = random_spectrum(rng, rank=2)
            e = physical_entanglement(lam, rng.uniform())
            rho, _ = build_epu_min_tgx(lam, e)
            theta = rng.uniform(0, np.pi / 2)
            phi = rng.uniform(1e-6, 2 * np.pi - 1e-6)
            a1 = average_entanglement(decompose(rho, mixer_2(theta, phi)))
            a2 = average_entanglement(decompose(rho, mixer_2(theta, 2 * np.pi - phi)))
            assert abs(a1 - a2) < 1e-10

    def test_seeded_determinism(self):
        rho, _ = build_epu_min_tgx((0.6, 0.3, 0.1, 0, 0, 0), 0.3)  # rank 3
        v1, p1 = min_average_search(rho, 3, budget=50, seed=9)
        v2, p2 = min_average_search(rho, 3, budget=50, seed=9)
        assert v1 == v2 and p1 == p2


def reference_mixer(d, params):
    """The mixer a search row claims: identity, mixer_2 or haar_unitary."""
    if d == 1:
        return np.eye(1)
    if d == 2:
        return mixer_2(*params)
    return haar_unitary(d, params[0])


def assert_rows_match_per_trial_reference(rho, d, rows):
    for _, params, avg in rows:
        ref = average_entanglement(decompose(rho, reference_mixer(d, params)))
        assert abs(avg - ref) < 1e-14, (d, params, avg, ref)


class TestBatchedSearch:
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_rows_replay_per_trial(self, rank):
        rng = np.random.default_rng(100 + rank)
        rho = random_density(rng, 6, rank=rank)
        assert rank_of(rho) == rank
        for d in range(rank, min(rank * rank, 8) + 1):
            seed = int(rng.integers(1000))
            rows = list(iter_decomposition_samples(rho, d, budget=16, seed=seed))
            assert [row[0] for row in rows] == list(range(len(rows)))
            assert_rows_match_per_trial_reference(rho, d, rows)
            if d >= 3:
                seeds = [params[0] for _, params, _ in rows]
                assert seeds == [seed ^ k for k in range(16)]
                for u, s in zip(_haar_stack(d, seeds), seeds):
                    assert np.array_equal(u, haar_unitary(d, s))
        if rank * rank > 8:
            with pytest.raises(DTooLarge):
                min_average_search(rho, 9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_budget_above_chunk_size(self, d):
        rho = random_density(np.random.default_rng(11), 6, rank=2)
        rows = list(iter_decomposition_samples(rho, d, budget=5000, seed=3))
        if d == 2:  # 70 x 71 lattice, theta-major
            thetas = np.linspace(0.0, np.pi / 2, 70)
            phis = np.linspace(0.0, 2 * np.pi, 71, endpoint=False)
            assert [row[1] for row in rows] == [(t, f) for t in thetas for f in phis]
        else:
            assert [row[1] for row in rows] == [(3 ^ k,) for k in range(5000)]
        assert [row[0] for row in rows] == list(range(len(rows)))
        assert_rows_match_per_trial_reference(rho, d, rows)

    def test_min_search_takes_first_minimum_and_replays(self):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.5)  # rank 2
        for d in (2, 3, 4):
            best, params = min_average_search(rho, d, budget=200, seed=5)
            rows = list(iter_decomposition_samples(rho, d, budget=200, seed=5))
            avgs = [avg for _, _, avg in rows]
            first = avgs.index(min(avgs))
            assert best == avgs[first]
            if d == 2:
                assert (params.theta, params.phi) == rows[first][1]
            else:
                assert params.seed == rows[first][1][0]
                replay = average_entanglement(decompose(rho, haar_unitary(d, params.seed)))
                assert abs(replay - best) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_budget_below_one_rejected(self, d):
        psi = np.zeros(6)
        psi[1] = psi[3] = 1 / np.sqrt(2)
        base, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.5)  # rank 2
        rho = np.outer(psi, psi) if d == 1 else base
        for budget in (0, -4):
            with pytest.raises(InvalidBudget):
                min_average_search(rho, d, budget=budget)
            with pytest.raises(InvalidBudget):
                list(iter_decomposition_samples(rho, d, budget=budget))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, bad):
        rho = np.full((6, 6), bad, dtype=complex)
        with pytest.raises(InvalidState):
            min_average_search(rho, 2)
        rho = np.eye(6, dtype=complex) / 6
        rho[0, 0] = bad
        with pytest.raises(InvalidState):
            decompose(rho, np.eye(6))
