import numpy as np
import pytest

import qqent.decompositions as decompositions
from qqent import _screen
from qqent._checks import as_density_matrix
from qqent._screen import SCREEN_KAPPA, SCREEN_MARGIN
from qqent.decompositions import (
    MixerParams,
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
    InvalidSeed,
    InvalidState,
    NotUnitary,
)
from qqent.measures import min_sgx_i_concurrence, min_tgx_i_concurrence, pure_i_concurrence
from qqent.numerics import BATCH_SIZE, _haar_columns, haar_unitary, hermitian_eig
from qqent.states import build_alpha_beta, build_epu_min_tgx, physical_entanglement

from conftest import random_density, random_ket, random_spectrum, rotated_min_sgx, traced_peak


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

    def test_equals_member_loop(self):
        # the masked sum against the member-by-member loop it replaced; an
        # identity mixer wider than the rank gives zero-weight members
        def loop(dec):
            total = 0.0
            for w, ket in zip(dec.weights, dec.kets):
                if w > decompositions.ZERO_WEIGHT_TOL:
                    total += w * pure_i_concurrence(ket)
            return total

        rng = np.random.default_rng(17)
        for _ in range(300):
            rank = int(rng.integers(1, 7))
            rho = random_density(rng, 6, rank=rank)
            d = int(rng.integers(max(2, rank), 9))
            for mixer in (haar_unitary(d, rng), np.eye(d)):
                dec = decompose(rho, mixer)
                assert abs(average_entanglement(dec) - loop(dec)) <= 1e-15


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


def reference_mixer(d, params, seed):
    """The mixer a search row claims: identity, mixer_2 or a row of haar_unitary."""
    if d == 1:
        return np.eye(1)
    if d == 2:
        return mixer_2(*params)
    i = params[0]
    return haar_unitary(d, seed, count=i + 1)[i]


def assert_rows_match_per_trial_reference(rho, d, rows, seed, mixers=None):
    """Every row's average replays through decompose to 1e-14.

    ``mixers`` (one per row) are the mixer columns the search itself scored:
    when given, they must be the replayed unitary's first rank(rho) columns,
    the only ones an average reads, bit for bit.
    """
    if mixers is not None:
        assert mixers.shape[1:] == (d, rank_of(rho))
    for _, params, avg in rows:
        mixer = reference_mixer(d, params, seed)
        if mixers is not None:
            assert np.array_equal(mixers[params[0]], mixer[:, : mixers.shape[-1]]), (d, params)
        ref = average_entanglement(decompose(rho, mixer))
        assert abs(avg - ref) < 1e-14, (d, params, avg, ref)


@pytest.fixture
def scored_mixers(monkeypatch):
    """Record every mixer stack the search scores, concatenated in order."""
    stacks = []
    averages = decompositions._averages

    def recording(u, root, vt):
        stacks.append(u)
        return averages(u, root, vt)

    monkeypatch.setattr(decompositions, "_averages", recording)

    def take():
        out = np.concatenate(stacks)
        stacks.clear()
        return out

    return take


class TestBatchedSearch:
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_rows_replay_per_trial(self, rank, scored_mixers):
        rng = np.random.default_rng(100 + rank)
        rho = random_density(rng, 6, rank=rank)
        assert rank_of(rho) == rank
        for d in range(rank, min(rank * rank, 8) + 1):
            seed = int(rng.integers(1000))
            rows = list(iter_decomposition_samples(rho, d, budget=16, seed=seed))
            mixers = scored_mixers()
            assert [row[0] for row in rows] == list(range(len(rows)))
            if d >= 3:
                assert [params for _, params, _ in rows] == [(k,) for k in range(16)]
            assert_rows_match_per_trial_reference(rho, d, rows, seed, mixers if d >= 3 else None)
        if rank * rank > 8:
            with pytest.raises(DTooLarge):
                min_average_search(rho, 9)

    def test_unscreened_call_working_set(self):
        # unscreened rows: each batch's mixer columns are freed before the next
        # batch is drawn (the previous batch's, still held, took the peak to
        # 6.4 batches)
        rho = random_density(np.random.default_rng(5), 6, rank=6)

        def run():
            for _ in iter_decomposition_samples(rho, 6, 9000, 3):
                pass

        run()
        batch_bytes = np.empty((BATCH_SIZE, 2, 6, 6)).nbytes  # the normals of one batch
        assert traced_peak(run) <= 5.8 * batch_bytes

    @pytest.mark.parametrize("d", [2, 3])
    def test_budget_above_chunk_size(self, d, scored_mixers):
        rho = random_density(np.random.default_rng(11), 6, rank=2)
        rows = list(iter_decomposition_samples(rho, d, budget=5000, seed=3))
        mixers = scored_mixers()
        assert [row[0] for row in rows] == list(range(len(rows)))
        if d == 2:  # 70 x 71 lattice, theta-major
            thetas = np.linspace(0.0, np.pi / 2, 70)
            phis = np.linspace(0.0, 2 * np.pi, 71, endpoint=False)
            assert [row[1] for row in rows] == [(t, f) for t in thetas for f in phis]
            assert_rows_match_per_trial_reference(rho, d, rows, 3)
            return
        assert [row[1] for row in rows] == [(k,) for k in range(5000)]
        # every scored mixer is row i of one stack drawn from seed 3, cut to
        # the rank-2 columns an average reads ...
        full = haar_unitary(d, 3, count=5000)
        assert np.array_equal(mixers, full[..., :2])
        # ... which is haar_unitary(d, 3, count=i + 1)[i]; checked on both
        # sides of every chunk boundary (the rest: test_stack_prefix)
        edges = [k + i for k in range(BATCH_SIZE, 5000, BATCH_SIZE) for i in (-1, 0, 1)]
        assert edges
        boundary = [rows[i] for i in (0, 1, 17, *edges, 4999)]
        assert_rows_match_per_trial_reference(rho, d, boundary, 3, mixers)
        for _, (i,), avg in rows:
            ref = average_entanglement(decompose(rho, full[i]))
            assert abs(avg - ref) < 1e-14, (i, avg, ref)

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
                assert (params.seed, params.trial) == (5, first)
                assert rows[first][1] == (first,)
                mixer = haar_unitary(d, params.seed, count=params.trial + 1)[params.trial]
                replay = average_entanglement(decompose(rho, mixer))
                assert abs(replay - best) < 1e-14

    def test_larger_budget_extends_search(self):
        rho = random_density(np.random.default_rng(12), 6, rank=3)
        short = list(iter_decomposition_samples(rho, 3, budget=50, seed=8))
        long = list(iter_decomposition_samples(rho, 3, budget=5000, seed=8))
        assert short == long[:50]

    def test_seeds_give_different_minima(self):
        # the fig-2 state at D = 4: each seed draws its own set of unitaries
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)
        minima = {min_average_search(rho, 4, budget=1000, seed=s)[0] for s in (0, 1, 3)}
        assert len(minima) == 3

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_invalid_seed_rejected(self, d, seed):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.5)  # rank 2
        with pytest.raises(InvalidSeed):
            min_average_search(rho, d, budget=5, seed=seed)
        with pytest.raises(InvalidSeed):
            list(iter_decomposition_samples(rho, d, budget=5, seed=seed))

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


def first_minimum(rows, d, seed):
    """The smallest row average and the MixerParams of the earliest row holding it."""
    avgs = [avg for _, _, avg in rows]
    k = avgs.index(min(avgs))
    params = rows[k][1]
    if d == 1:
        return avgs[k], MixerParams(d=1)
    if d == 2:
        return avgs[k], MixerParams(d=2, theta=params[0], phi=params[1])
    return avgs[k], MixerParams(d=d, seed=seed, trial=params[0])


#: the one-trial edge, one full chunk, and across the chunk boundaries
SCREEN_BUDGETS = (1, 1000, BATCH_SIZE, 5000)

#: the screen's worst-case average error at kappa = SCREEN_KAPPA (see SCREEN_MARGIN)
SCREEN_ERROR = 4e-8


class TestScreenedSearch:
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_equals_first_minimum_of_rows(self, rank):
        # every D the rank allows, three states and seeds each: the screened
        # minimum is the exact rows' first minimum, bit for bit
        rng = np.random.default_rng(200 + rank)
        for d in range(rank, min(rank * rank, 8) + 1):
            for _ in range(3):
                rho = random_density(rng, 6, rank=rank)
                seed = int(rng.integers(1000))
                rows = list(iter_decomposition_samples(rho, d, max(SCREEN_BUDGETS), seed))
                for budget in SCREEN_BUDGETS:
                    # a D >= 3 search's first rows do not depend on its budget
                    ref = rows[:budget] if d != 2 else list(
                        iter_decomposition_samples(rho, d, budget, seed)
                    )
                    got = min_average_search(rho, d, budget, seed)
                    assert got == first_minimum(ref, d, seed), (d, budget, seed)

    @pytest.mark.parametrize("d", [3, 4])
    def test_ties_go_to_the_earliest_trial(self, d):
        # on a product support every member is a product ket, so all averages tie
        rho = np.diag([0.6, 0.4, 0, 0, 0, 0]).astype(complex)
        rows = list(iter_decomposition_samples(rho, d, 1000, 2))
        assert {avg for _, _, avg in rows} == {0.0}
        assert min_average_search(rho, d, 1000, 2) == first_minimum(rows, d, 2)

    @pytest.mark.parametrize("rank, d", [(2, 3), (3, 4), (6, 6)])
    def test_near_ties_resolved_exactly(self, rank, d, monkeypatch):
        # trials 0-63 copy the best draw's normals, each scaled by its own
        # factor: the same mixer, so their exact averages differ by round-off
        # only, in an order the screen's own round-off does not follow
        rho = random_density(np.random.default_rng(31 + rank), 6, rank=rank)
        best = min_average_search(rho, d, 1000, 6)[1].trial
        normals = _screen._haar_normals

        def copies(rng, dim, count=None, out=None):
            g = normals(rng, dim, count, out)
            g[:64] = g[best] * np.linspace(1.0, 3.0, 64)[:, None, None, None]
            return g

        monkeypatch.setattr(_screen, "_haar_normals", copies)
        rows = list(iter_decomposition_samples(rho, d, 1000, 6))
        assert len({avg for _, _, avg in rows[:64]}) > 1
        assert min_average_search(rho, d, 1000, 6) == first_minimum(rows, d, 6)

    def test_screen_error_far_below_margin(self):
        rng = np.random.default_rng(23)
        for rank in range(2, 7):
            rho = as_density_matrix(random_density(rng, 6, rank=rank))
            root, vt = decompositions._spectral_factors(rho)
            for d in range(max(3, rank), min(rank * rank, 8) + 1):
                g = rng.standard_normal((512, 2, d, d))
                score, kappa = decompositions._screened_averages(g, root, vt)
                est = -score
                exact = decompositions._averages(_haar_columns(g, rank), root, vt)
                kept = kappa <= SCREEN_KAPPA
                assert np.max(np.abs(est - exact)[kept]) < SCREEN_ERROR, (rank, d)
        assert 2 * SCREEN_ERROR < SCREEN_MARGIN

    @pytest.mark.parametrize("rank", range(2, 7))
    def test_ill_conditioned_trials_rescored_exactly(self, rank, monkeypatch):
        # crafted normals: in trials 0-15 one of the first `rank` columns
        # copies another plus 1e-9 noise
        rho = random_density(np.random.default_rng(60 + rank), 6, rank=rank)
        d = min(rank * rank, 8)
        normals = _screen._haar_normals

        def crafted(rng, dim, count=None, out=None):
            g = normals(rng, dim, count, out)
            for n in range(16):
                noise = np.random.default_rng(n).standard_normal((2, dim))
                g[n, :, :, (n + 1) % rank] = g[n, :, :, n % rank] + 1e-9 * noise
            return g

        monkeypatch.setattr(_screen, "_haar_normals", crafted)
        g = crafted(np.random.default_rng(5), d, 1000)
        root, vt = decompositions._spectral_factors(as_density_matrix(rho))
        _, kappa = decompositions._screened_averages(g, root, vt)
        assert (kappa[:16] > SCREEN_KAPPA).all()
        # every flagged trial is among the ones the min search scores exactly
        chunks = decompositions._search_chunks(as_density_matrix(rho), d, 1000, 5, True)
        scored = [p[0] for params, _ in chunks for p in params]
        assert set(range(16)) <= set(scored)
        rows = list(iter_decomposition_samples(rho, d, 1000, 5))
        assert min_average_search(rho, d, 1000, 5) == first_minimum(rows, d, 5)

    def test_min_search_factors_only_candidates(self, monkeypatch):
        factored = []
        columns = _screen._haar_columns
        monkeypatch.setattr(
            _screen, "_haar_columns", lambda g, k: factored.append(len(g)) or columns(g, k)
        )
        rng = np.random.default_rng(13)
        for rank, d in ((2, 3), (2, 4), (3, 4), (3, 8), (6, 6)):
            rho = random_density(rng, 6, rank=rank)
            factored.clear()
            list(iter_decomposition_samples(rho, d, 5000, 4))
            assert factored == [BATCH_SIZE] * (5000 // BATCH_SIZE) + [5000 % BATCH_SIZE]
            factored.clear()
            min_average_search(rho, d, 5000, 4)
            chunks = -(-5000 // BATCH_SIZE)
            assert len(factored) == chunks and max(factored) <= 8, (rank, d, factored)
