import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqent import measures
from qqent.errors import (
    InvalidBudget,
    InvalidQuartet,
    InvalidSeed,
    NotMinimalSGX,
    NotMinimalTGX,
    NotNormalized,
    NotTGXForm,
    NotXForm,
)
from qqent.ls import ls_numeric
from qqent.measures import (
    SPIN_FLIP_4,
    alpha_solve,
    concurrence_2x2,
    e_alpha_beta,
    gen_concurrence_max,
    mems_entanglement,
    min_sgx_i_concurrence,
    min_tgx_i_concurrence,
    pure_i_concurrence,
    quartet_x_concurrence,
    sampled_gen_preconcurrence,
    subspace_concurrence_vector,
    x_concurrence,
)
from qqent.numerics import BATCH_SIZE, haar_unitary, partial_transpose_negativity
from qqent.states import (
    COMPLEMENT_PAIRS,
    ME_TUPLES,
    build_alpha_beta,
    build_epu_min_tgx,
    build_mems,
    e_mems,
    enumerate_lpus,
    physical_entanglement,
    quartets,
)

from conftest import (
    random_density,
    random_ket,
    random_spectrum,
    random_x_state,
    reduction_purity_entanglement,
    rotated_min_sgx,
)


def bell_2x2():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi)


def small_eigenvalue_x_state(eps=5e-13):
    """X state 1/2 |Phi+><Phi+| + (1/2 - eps)|01><01| + eps |10><10|."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return 0.5 * np.outer(phi, phi) + np.diag([0.0, 0.5 - eps, eps, 0.0])


class TestConcurrence2x2:
    def test_bell(self):
        assert abs(concurrence_2x2(bell_2x2()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence_2x2(np.eye(4) / 4) == 0.0

    def test_x_state_example(self):
        rho = np.diag([0.35, 0.1, 0.1, 0.45]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.3
        assert abs(x_concurrence(rho) - 0.4) < 1e-15  # 2*(0.3 - sqrt(0.01))
        assert abs(concurrence_2x2(rho) - x_concurrence(rho)) < 1e-10

    def test_agrees_with_x_shortcut_on_random_x_states(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            rho = random_x_state(rng)
            assert abs(concurrence_2x2(rho) - x_concurrence(rho)) < 1e-9
        # a real eigenvalue 5e-13 adds sqrt-sized terms (C = 0.5 - 1e-6):
        # only eigh round-off may be cut from tau, not RANK_TOL-sized values
        assert abs(concurrence_2x2(small_eigenvalue_x_state()) - (0.5 - 1e-6)) < 1e-9


class TestXConcurrence:
    def test_bell_as_x(self):
        assert abs(x_concurrence(bell_2x2()) - 1.0) < 1e-12

    def test_uniform(self):
        assert x_concurrence(np.eye(4) / 4) == 0.0

    def test_rejects_non_x(self):
        rho = np.full((4, 4), 0.25, dtype=complex) * np.eye(4)
        rho[0, 1] = rho[1, 0] = 0.1
        with pytest.raises(NotXForm):
            x_concurrence(rho)

    def test_names_off_x_positions(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = rho[2, 3] = rho[3, 2] = 0.05
        with pytest.raises(NotXForm, match=r"at \[\(0, 1\), \(2, 3\)\]$"):
            x_concurrence(rho)


class TestQuartetXConcurrence:
    def test_bell_analog(self):
        psi = np.zeros(6)
        psi[0] = psi[5] = 1 / np.sqrt(2)
        assert abs(quartet_x_concurrence(np.outer(psi, psi), (1, 3, 4, 6)) - 1.0) < 1e-12

    def test_diagonal_zero(self):
        rho = np.diag([0.4, 0.2, 0.15, 0.1, 0.1, 0.05])
        for q in quartets():
            assert quartet_x_concurrence(rho, q) == 0.0

    def test_fig2_quartet(self):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)
        assert abs(quartet_x_concurrence(rho, (1, 3, 4, 6)) - 0.693) < 1e-12

    def test_matches_min_tgx_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            lam = random_spectrum(rng)
            rho = build_alpha_beta(lam, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
            per_quartet = max(quartet_x_concurrence(rho, q) for q in quartets())
            assert abs(per_quartet - min_tgx_i_concurrence(rho)) < 1e-12

    def test_gates(self):
        with pytest.raises(InvalidQuartet):
            quartet_x_concurrence(np.eye(6) / 6, (1, 2, 3, 6))
        with pytest.raises(NotTGXForm):
            quartet_x_concurrence(random_density(np.random.default_rng(2), 6), (1, 3, 4, 6))


class TestSubspaceConcurrenceVector:
    def test_bell_analog_vector(self):
        psi = np.zeros(6)
        psi[0] = psi[5] = 1 / np.sqrt(2)
        vec = subspace_concurrence_vector(np.outer(psi, psi))
        assert np.allclose(vec, [0, 1, 0], atol=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(subspace_concurrence_vector(np.eye(6) / 6), 0.0)

    def test_pure_two_norm_equals_i_concurrence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            psi = random_ket(rng)
            vec = subspace_concurrence_vector(np.outer(psi, psi.conj()))
            assert abs(np.linalg.norm(vec) - pure_i_concurrence(psi)) < 1e-10


class TestPureIConcurrence:
    def test_product_state(self):
        psi = np.zeros(6)
        psi[0] = 1.0
        assert pure_i_concurrence(psi) == 0.0

    def test_me_tgx_state(self):
        psi = np.zeros(6)
        psi[1] = psi[3] = 1 / np.sqrt(2)  # levels 2 and 4
        assert abs(pure_i_concurrence(psi) - 1.0) < 1e-12

    def test_three_level_example(self):
        psi = np.zeros(6)
        psi[0] = psi[2] = psi[4] = 1 / np.sqrt(3)
        val = pure_i_concurrence(psi)
        assert abs(val - 2 * np.sqrt(2) / 3) < 1e-12
        assert abs(val - reduction_purity_entanglement(psi)) < 1e-10

    def test_purity_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            psi = random_ket(rng)
            assert abs(pure_i_concurrence(psi) - reduction_purity_entanglement(psi)) < 1e-10

    def test_lu_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            psi = random_ket(rng)
            u_lu = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
            assert abs(pure_i_concurrence(u_lu @ psi) - pure_i_concurrence(psi)) < 1e-10

    def test_pure_tgx_single_quartet(self):
        # pure TGX kets light up at most one entry of the concurrence vector
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = ME_TUPLES[rng.integers(len(ME_TUPLES))]
            psi = np.zeros(6, dtype=complex)
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amps /= np.linalg.norm(amps)
            psi[a - 1], psi[b - 1] = amps
            vec = subspace_concurrence_vector(np.outer(psi, psi.conj()))
            assert np.sum(vec > 1e-12) <= 1

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            pure_i_concurrence(np.ones(6))


class TestMinTgx:
    def test_fig2(self):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)
        assert abs(min_tgx_i_concurrence(rho) - 0.693) < 1e-12

    def test_diagonal_zero(self):
        assert min_tgx_i_concurrence(np.diag([0.5, 0.2, 0.1, 0.1, 0.05, 0.05])) == 0.0

    def test_gate(self):
        with pytest.raises(NotMinimalTGX):
            min_tgx_i_concurrence(random_density(np.random.default_rng(7), 6))

    def test_lpu_invariance(self):
        rng = np.random.default_rng(8)
        lpus = enumerate_lpus()
        for _ in range(50):
            lam = random_spectrum(rng)
            rho = build_alpha_beta(lam, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
            ref = min_tgx_i_concurrence(rho)
            for u in lpus:
                assert abs(min_tgx_i_concurrence(u @ rho @ u.T) - ref) < 1e-10


class TestMinSgx:
    def test_matches_min_tgx_on_subset(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lam = random_spectrum(rng)
            rho = build_alpha_beta(lam, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
            assert abs(min_sgx_i_concurrence(rho) - min_tgx_i_concurrence(rho)) < 1e-10
        # LPU-permuted EPU states of every rank, every fifth at the cap: the
        # block's round-off eigenvalues (sqrt ~ 3e-9) must not enter tau
        lpus = enumerate_lpus()
        for n in range(300):
            lam = random_spectrum(rng, rank=1 + n % 6)
            e = physical_entanglement(lam, 1.0 if n % 5 == 0 else rng.uniform())
            u = lpus[int(rng.integers(len(lpus)))]
            rho = u @ build_epu_min_tgx(lam, e)[0] @ u.T
            val = min_sgx_i_concurrence(rho)
            xi = ls_numeric(rho).xi
            assert abs(val - e) < 1e-12, n
            assert abs(val - max(0.0, xi[0] - xi[1] - xi[2] - xi[3])) < 1e-13, n
        # a minimal TGX state whose coherent block has the real eigenvalue 4.5e-13
        rho = np.diag([0.0, 0.06, 0.0, 0.0, 0.04, 0.0]).astype(complex)
        rho[np.ix_([0, 2, 3, 5], [0, 2, 3, 5])] += 0.9 * small_eigenvalue_x_state()
        assert abs(min_sgx_i_concurrence(rho) - min_tgx_i_concurrence(rho)) < 1e-9

    def test_diagonal_zero(self):
        assert min_sgx_i_concurrence(np.diag([0.5, 0.2, 0.1, 0.1, 0.05, 0.05])) == 0.0

    def test_dense_quartet_state(self):
        base, _ = build_epu_min_tgx((0.73, 0.27, 0, 0, 0, 0), 0.5)
        rho = rotated_min_sgx(base, unitary_seed=7)
        val = min_sgx_i_concurrence(rho)
        assert 0.0 < val <= 0.73 + 1e-12
        with pytest.raises(NotMinimalTGX):
            min_tgx_i_concurrence(rho)

    def test_gate(self):
        with pytest.raises(NotMinimalSGX):
            min_sgx_i_concurrence(random_density(np.random.default_rng(10), 6))

    @staticmethod
    def block_state(rng, k, rank):
        """w * (rank-``rank`` state on quartet k) + (1 - w) * (state on its
        complement pair): a minimal SGX state of template k."""
        q, pair = (np.array(levels) - 1 for levels in (quartets()[k], COMPLEMENT_PAIRS[k]))
        rho = np.zeros((6, 6), dtype=complex)
        w = rng.uniform()
        rho[np.ix_(q, q)] = w * random_density(rng, 4, rank)
        rho[np.ix_(pair, pair)] = (1 - w) * random_density(rng, 2)
        return rho

    def test_evaluates_the_coherent_quartet(self):
        """Exactly the coherent quartet's entry of the subspace vector: the
        separable blocks' round-off never becomes the value."""
        rng = np.random.default_rng(8)
        for n in range(300):
            rho = self.block_state(rng, n % 3, rank=3)
            assert min_sgx_i_concurrence(rho) == subspace_concurrence_vector(rho)[n % 3], n

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_negativity_lower_bound(self, seed):
        """E >= 2 N (Chen, Albeverio & Fei, PRL 95, 040504 (2005)) on
        LPU-rotated minimal SGX states; the wrong quartet would give 0."""
        rng = np.random.default_rng(seed)
        u = enumerate_lpus()[int(rng.integers(12))]
        rho = u @ self.block_state(rng, int(rng.integers(3)), rank=None) @ u.T
        assert min_sgx_i_concurrence(rho) >= 2 * partial_transpose_negativity(rho) - 1e-13


class TestSpectralMeasures:
    def test_mems_entanglement_values(self):
        assert abs(mems_entanglement((1, 0, 0, 0, 0, 0)) - 1.0) < 1e-15
        assert mems_entanglement(np.ones(6) / 6) == 0.0
        lam = (0.5, 0.3, 0.1, 0.1, 0, 0)
        assert abs(mems_entanglement(lam) - 0.5) < 1e-15
        assert abs(min_tgx_i_concurrence(build_mems(lam)) - 0.5) < 1e-12

    def test_gen_concurrence_max_values(self):
        assert abs(gen_concurrence_max((1, 0, 0, 0, 0, 0)) - 1.0) < 1e-15
        assert gen_concurrence_max(np.ones(6) / 6) == 0.0
        lam = (0.4, 0.3, 0.2, 0.1, 0, 0)
        assert abs(gen_concurrence_max(lam) - 0.3) < 1e-15
        assert abs(e_mems(lam) - 0.4) < 1e-15  # differs: not the I-concurrence ceiling


class TestAlphaBetaFamily:
    def test_trivial_points(self):
        assert abs(e_alpha_beta((1, 0, 0, 0, 0, 0), np.pi / 4, 0.0) - 1.0) < 1e-12
        assert e_alpha_beta((0.4, 0.3, 0.2, 0.1, 0, 0), 0.0, 0.0) == 0.0

    def test_matches_constructed_state(self):
        rng = np.random.default_rng(11)
        edge = (np.pi / 2, np.pi / 2 + 1e-12)
        angles = [tuple(rng.uniform(0, np.pi / 2, size=2)) for _ in range(50)]
        angles += [(e, rng.uniform(0, np.pi / 2)) for e in edge]
        angles += [(rng.uniform(0, np.pi / 2), e) for e in edge] + [edge, edge[::-1]]
        for a, b in angles:
            lam = random_spectrum(rng)
            assert e_alpha_beta(lam, a, b) == min_tgx_i_concurrence(build_alpha_beta(lam, a, b))
        # past pi/2 sin 2alpha < 0, and the coherence enters by its modulus
        lam, a = (0.7, 0.3, 0, 0, 0, 0), np.pi / 2 + 1e-12
        assert e_alpha_beta(lam, a, 0.0) == min_tgx_i_concurrence(build_alpha_beta(lam, a, 0.0)) > 0

    def test_alpha_solve_examples(self):
        assert abs(alpha_solve((1, 0, 0, 0, 0, 0), 1.0) - np.pi / 4) < 1e-12
        assert alpha_solve((0.2, 0.2, 0.2, 0.2, 0.2, 0.0), 0.0) == np.pi / 4
        a = alpha_solve((0.7, 0.3, 0, 0, 0, 0), 0.693)
        assert abs(a - 0.5 * np.arcsin(0.99)) < 1e-12
        assert abs(e_alpha_beta((0.7, 0.3, 0, 0, 0, 0), a, 0.0) - 0.693) < 1e-12

    def test_round_trip_includes_separable_regime(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            lam = random_spectrum(rng, rank=6)
            e = physical_entanglement(lam, rng.uniform())
            assert abs(e_alpha_beta(lam, alpha_solve(lam, e), 0.0) - e) < 1e-10
        # spectrum with negative pre-entanglement: only E = 0 is physical
        lam = np.array([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
        assert e_mems(lam) < 0
        assert e_alpha_beta(lam, alpha_solve(lam, 0.0), 0.0) == 0.0


SCREEN_SPECTRA = ("random", "flat", "near_degenerate", "tiny", "inner_zero")


def screen_spectrum(kind, rank, rng):
    """A spectrum of the given rank (one more for "tiny" and "inner_zero"
    below rank 6): Dirichlet, flat, split by 1e-14 steps, with a 1e-300 tail
    entry, or with a zero followed by a 1e-13 entry (descending to 1e-12)."""
    lam = np.zeros(6)
    if kind == "flat":
        lam[:rank] = 1.0 / rank
    elif kind == "near_degenerate":
        lam[:rank] = 1.0 / rank + 1e-14 * np.arange(rank)[::-1]
    else:
        lam[:rank] = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    if kind == "tiny" and rank < 6:
        lam[rank] = 1e-300
    if kind == "inner_zero" and rank < 5:
        lam[rank + 1] = 1e-13
    return lam


def unpruned_screen(g, root, r):
    """The screen's estimate of every draw, none pruned; flagged draws exact."""
    if r <= 2:
        return measures._screened_preconcurrence(g, root, r)
    qr, qi, kappa = measures._gram_schmidt(g, r)
    est = measures._gram_estimates(*measures._block_gram(qr, qi, root, r))
    flagged = kappa > measures.SCREEN_KAPPA
    if flagged.any():
        est[flagged] = measures._exact_preconcurrence(g[flagged], root)
    return est


def ill_conditioned_normals(rng, rank):
    """A batch of normals in which draws 0-15 have one of the first `rank`
    columns copy another plus 1e-9 noise, draws 16-31 have those columns a
    rank-(rank-1) product plus 1e-9 noise, and the rest are plain Gaussian."""
    g = rng.standard_normal((BATCH_SIZE, 2, 6, 6))
    for n in range(32):
        a = g[n, 0, :, :rank] + 1j * g[n, 1, :, :rank]
        if n < 16 and rank > 1:
            i, j = rng.choice(rank, 2, replace=False)
            a[:, j] = a[:, i]
        elif rank > 1:
            b = rng.standard_normal((6, rank - 1)) + 1j * rng.standard_normal((6, rank - 1))
            a = b @ (rng.standard_normal((rank - 1, rank)) + 0j)
        else:
            a = a * 1e-9  # a single column is never ill-conditioned
        a = a + 1e-9 * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))
        g[n, 0, :, :rank], g[n, 1, :, :rank] = a.real, a.imag
    return g


def near_tie_normals(rng, count=256):
    """Normals whose unitaries are all within about 1e-4 of the identity:
    the values lie within about 1e-7 of 2 lam1 - sum lam, and since b is
    nearly diagonal the pruning certificate is tight (d ~ ||b||_*)."""
    g = 1e-4 * rng.standard_normal((count, 2, 6, 6))
    g[:, 0] += np.eye(6)
    return g


def full_svd_preconcurrence(lam, samples, seed):
    """The pre-screen algorithm: every draw scored by its full 6 x 6 SVD."""
    root = np.sqrt(lam)
    rng = np.random.default_rng(seed)
    best = -np.inf
    remaining = samples
    while remaining > 0:
        batch = min(remaining, BATCH_SIZE)
        v = haar_unitary(6, rng, count=batch)
        m = root[None, :, None] * v * root[None, None, :]
        s = np.linalg.svd(m, compute_uv=False)
        best = max(best, float((s[:, 0] - s[:, 1:].sum(axis=1)).max()))
        remaining -= batch
    return best


#: sample counts for the helper thread: one batch, one draw past it, two
#: batches, a split last batch and a one-draw last batch
THREAD_SAMPLES = (4096, 4097, 8192, 9000, 12289)


def full_svd_values(lam, samples, seed):
    """Every draw's value as full_svd_preconcurrence scores it, in stream
    order; the normals do not depend on the batching, so the maximum of the
    first n is full_svd_preconcurrence(lam, n, seed)."""
    root = np.sqrt(lam)
    v = haar_unitary(6, np.random.default_rng(seed), count=samples)
    s = np.linalg.svd(root[None, :, None] * v * root[None, None, :], compute_uv=False)
    return s[:, 0] - s[:, 1:].sum(axis=1)


class HelperFailed(Exception):
    pass


class TestSampledGenPreconcurrence:
    def test_matches_independent_reimplementation(self):
        lam = np.array([0.4, 0.3, 0.2, 0.1, 0, 0])
        got = sampled_gen_preconcurrence(lam, 500, seed=5)
        root = np.sqrt(lam)
        vs = haar_unitary(6, np.random.default_rng(5), count=500)
        svs = np.linalg.svd(root[None, :, None] * vs * root[None, None, :], compute_uv=False)
        expected = float((svs[:, 0] - svs[:, 1:].sum(axis=1)).max())
        assert abs(got - expected) < 1e-12

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            lam = random_spectrum(rng)
            bound = gen_concurrence_max(lam)
            assert sampled_gen_preconcurrence(lam, 300, seed=int(rng.integers(2**31))) <= bound + 1e-9

    def test_samples_below_one_rejected(self):
        with pytest.raises(InvalidBudget):
            sampled_gen_preconcurrence((0.7, 0.3, 0, 0, 0, 0), 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSeed):
            sampled_gen_preconcurrence((0.7, 0.3, 0, 0, 0, 0), 10, seed=-1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(InvalidSeed):
            sampled_gen_preconcurrence((0.7, 0.3, 0, 0, 0, 0), 10, seed=1.5)

    def test_monotone_in_samples(self):
        lam = (0.4, 0.3, 0.2, 0.1, 0, 0)
        v1 = sampled_gen_preconcurrence(lam, 100, seed=3)
        v2 = sampled_gen_preconcurrence(lam, 1000, seed=3)
        assert v2 >= v1 - 1e-15

    @settings(max_examples=25)
    @given(
        kind=st.sampled_from(SCREEN_SPECTRA),
        rank=st.integers(1, 6),
        samples=st.sampled_from((1, 4096, 4097, 9000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_screen_equals_full_svd(self, kind, rank, samples, seed):
        lam = screen_spectrum(kind, rank, np.random.default_rng(seed))
        assert sampled_gen_preconcurrence(lam, samples, seed) == full_svd_preconcurrence(
            lam, samples, seed
        )

    def test_screen_error_below_margin(self):
        # the margin argument: every draw's estimate lies within 1e-6 of its
        # exact value, and the screen returns that estimate or, pruned, -inf
        rng = np.random.default_rng(21)
        for kind in SCREEN_SPECTRA:
            for rank in range(1, 7):
                root = np.sqrt(screen_spectrum(kind, rank, rng))
                r = int(np.flatnonzero(root)[-1]) + 1
                g = rng.standard_normal((512, 2, 6, 6))
                estimates = unpruned_screen(g, root, r)
                exact = measures._exact_preconcurrence(g, root)
                assert np.max(np.abs(estimates - exact)) < 1e-6
                screened = measures._screened_preconcurrence(g, root, r)
                kept = screened > -np.inf
                assert (screened[kept] == estimates[kept]).all()
                assert kept.all() or r >= 3
        assert 2e-6 < measures.SCREEN_MARGIN

    def test_flat_spectrum_skips_screen(self, monkeypatch):
        calls = []
        screen = measures._screened_preconcurrence
        monkeypatch.setattr(
            measures, "_screened_preconcurrence", lambda *a: calls.append(1) or screen(*a)
        )
        for lam, screened in (([1 / 6] * 6, False), ([0.2] * 5 + [0.0], True)):
            calls.clear()
            got = sampled_gen_preconcurrence(lam, 5000, seed=2)
            assert got == full_svd_preconcurrence(np.array(lam), 5000, 2)
            assert bool(calls) == screened

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_ill_conditioned_draws_scored_exactly(self, rank, monkeypatch):
        rng = np.random.default_rng(40 + rank)
        root = np.sqrt(screen_spectrum("random", rank, rng))
        g = ill_conditioned_normals(rng, rank)
        qr, qi, kappa = measures._gram_schmidt(g, rank)
        flagged = kappa > measures.SCREEN_KAPPA
        assert flagged[:32].all() if rank > 1 else not flagged.any()
        # below the cap the columns are orthonormal to a few eps; with one pass
        # (CGS1) the plain rank-6 draws lose about 3e-14
        q = (qr + 1j * qi).transpose(2, 1, 0)[~flagged]
        gram = q.conj().swapaxes(1, 2) @ q
        assert np.max(np.abs(gram - np.eye(rank))) < 5e-15
        rows = []
        exact = measures._exact_preconcurrence
        monkeypatch.setattr(
            measures, "_exact_preconcurrence", lambda g, root: rows.append(len(g)) or exact(g, root)
        )
        screened = measures._screened_preconcurrence(g, root, rank)
        assert sum(rows) == flagged.sum()
        assert (screened[flagged] == exact(g[flagged], root)).all()
        # every other draw's estimate is within 1e-6, and pruned ones far below the best
        estimates = unpruned_screen(g, root, rank)
        assert np.max(np.abs(estimates - exact(g, root))) < 1e-6
        pruned = screened == -np.inf
        assert (estimates[pruned] < screened.max() - measures.SCREEN_MARGIN).all()

    def test_screen_calls_no_lapack_qr(self, monkeypatch):
        # outside the exact scoring of flagged draws the screen calls no QR,
        # for r <= 2 no np.linalg routine at all, and for r >= 3 only eigvalsh
        calls, inside = [], []

        def recording(name, func):
            def wrapper(*args, **kwargs):
                if not inside:
                    calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        for name in np.linalg.__all__:
            func = getattr(np.linalg, name)
            if callable(func) and not isinstance(func, type):
                monkeypatch.setattr(np.linalg, name, recording(name, func))
        exact = measures._exact_preconcurrence

        def scored_exactly(g, root):
            inside.append(1)
            try:
                return exact(g, root)
            finally:
                inside.pop()

        monkeypatch.setattr(measures, "_exact_preconcurrence", scored_exactly)
        rng = np.random.default_rng(8)
        for rank in range(1, 7):
            root = np.sqrt(screen_spectrum("random", rank, rng))
            calls.clear()
            measures._screened_preconcurrence(rng.standard_normal((4096, 2, 6, 6)), root, rank)
            assert "qr" not in calls
            assert (calls == []) if rank <= 2 else (set(calls) == {"eigvalsh"})

    @settings(max_examples=30)
    @given(
        kind=st.sampled_from(SCREEN_SPECTRA + ("ill_conditioned", "near_tie")),
        rank=st.integers(3, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruning_keeps_every_candidate(self, kind, rank, seed):
        # the draws the all-draws estimate keeps are exactly those the pruned
        # screen keeps, so each is still scored exactly; on random spectra
        # eigvalsh sees under a quarter of the batch.  Near ties, where the
        # certificate is tight, need the pruning threshold's margin.
        rng = np.random.default_rng(seed)
        root = np.sqrt(screen_spectrum(kind if kind in SCREEN_SPECTRA else "random", rank, rng))
        if kind == "ill_conditioned":
            g = ill_conditioned_normals(rng, rank)
        elif kind == "near_tie":
            g = near_tie_normals(rng)
        else:
            g = rng.standard_normal((BATCH_SIZE, 2, 6, 6))
        r = int(np.flatnonzero(root)[-1]) + 1
        rows, eigvalsh = [], np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
            screened = measures._screened_preconcurrence(g, root, r)
        estimates = unpruned_screen(g, root, r)
        margin = measures.SCREEN_MARGIN
        assert screened.max() == estimates.max()
        assert ((screened > screened.max() - margin) == (estimates > estimates.max() - margin)).all()
        kept = screened > -np.inf
        assert (screened[kept] == estimates[kept]).all()
        if kind == "random":
            assert sum(rows) < BATCH_SIZE / 4, sum(rows)

    def test_near_flat_spectra_cost_no_more_than_full_svd(self, monkeypatch):
        # rows through the exact path, plus screened draws at the screen's
        # cost relative to it (about 0.6 at rank 6), never exceed the samples
        # that scoring every draw exactly would take
        rows, screened = [], []
        exact, screen = measures._exact_preconcurrence, measures._screened_preconcurrence
        monkeypatch.setattr(
            measures, "_exact_preconcurrence", lambda g, root: rows.append(len(g)) or exact(g, root)
        )
        monkeypatch.setattr(
            measures, "_screened_preconcurrence",
            lambda g, root, r: screened.append(len(g)) or screen(g, root, r),
        )
        # near-flat spectra 1 + 6 gap x, normalized, so lam1 - lam6 is about gap
        shapes = ([1, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 0], [5, 4, 3, 2, 1, 0])
        for gap in (1e-7, 1e-5, 1e-4, 3e-4, 1e-3):
            for x in shapes:
                lam = 1.0 + 6.0 * gap * np.array(x) / max(x)
                rows.clear()
                screened.clear()
                sampled_gen_preconcurrence(lam / lam.sum(), BATCH_SIZE, seed=4)
                if screened:
                    assert 0.6 * sum(screened) + sum(rows) <= BATCH_SIZE, (gap, x)
                else:
                    assert sum(rows) == BATCH_SIZE, (gap, x)
                # the screen still runs where it pays: the even spread at gap 1e-3
                if gap == 1e-3 and x[1] == 4:
                    assert screened and sum(rows) < 0.01 * BATCH_SIZE

    @pytest.mark.parametrize("kind", SCREEN_SPECTRA)
    def test_helper_on_and_off_equal_full_svd(self, kind, monkeypatch):
        # the helper thread, forced on and off through the CPU probe, changes
        # neither the stream nor the answer; it draws every batch after the
        # first and, at r >= 3, screens half of every full batch, one call
        # at a time
        rng = np.random.default_rng(SCREEN_SPECTRA.index(kind))
        calls, screens = [], []
        screen, call = measures._screened_preconcurrence, measures._Call

        def counted(fn, *args):
            calls.append(("draw" if fn is measures._haar_normals else "screen",
                          threading.active_count()))
            return call(fn, *args)

        monkeypatch.setattr(measures, "_Call", counted)
        monkeypatch.setattr(
            measures, "_screened_preconcurrence",
            lambda g, root, r: screens.append(threading.current_thread()) or screen(g, root, r))
        alone = threading.active_count()
        for rank in range(1, 7):
            lam = screen_spectrum(kind, rank, rng)
            seed = int(rng.integers(2**32))
            values = full_svd_values(lam, max(THREAD_SAMPLES), seed)
            r = int(np.flatnonzero(lam)[-1]) + 1
            for cpus in (1, 2):
                monkeypatch.setattr(measures, "_usable_cpus", lambda: cpus)
                for samples in THREAD_SAMPLES:
                    calls.clear()
                    screens.clear()
                    got = sampled_gen_preconcurrence(lam, samples, seed)
                    assert got == values[:samples].max(), (rank, cpus, samples)
                    split = r >= 3 and bool(screens)
                    batches = -(-samples // BATCH_SIZE)
                    names = sorted(name for name, _ in calls)
                    assert names == sorted(
                        ["draw"] * (batches - 1) + ["screen"] * (samples // BATCH_SIZE) * split
                    ) * (cpus > 1)
                    assert all(count == alone for _, count in calls)
                    on_helper = [t for t in screens if t is not threading.main_thread()]
                    assert len(on_helper) == names.count("screen")

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch):
        # the affinity mask decides, not the machine's CPU count
        monkeypatch.setattr(measures.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(measures.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(measures, "_Call", lambda *a: pytest.fail("helper thread started"))
        assert measures._usable_cpus() == 1
        lam = screen_spectrum("random", 6, np.random.default_rng(5))
        assert sampled_gen_preconcurrence(lam, 9000, 2) == full_svd_preconcurrence(lam, 9000, 2)
        monkeypatch.delattr(measures.os, "sched_getaffinity")
        assert measures._usable_cpus() == 8

    def test_helper_exception_reaches_caller(self, monkeypatch):
        screen = measures._screened_preconcurrence

        def failing_on_helper(g, root, r):
            if threading.current_thread() is not threading.main_thread():
                raise HelperFailed("raised on the helper thread")
            return screen(g, root, r)

        lam = screen_spectrum("random", 6, np.random.default_rng(3))
        monkeypatch.setattr(measures, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        assert sampled_gen_preconcurrence(lam, 9000, 1) == full_svd_preconcurrence(lam, 9000, 1)
        assert threading.active_count() == before
        monkeypatch.setattr(measures, "_screened_preconcurrence", failing_on_helper)
        with pytest.raises(HelperFailed):
            sampled_gen_preconcurrence(lam, 9000, 1)
        assert threading.active_count() == before

    def test_concurrent_calls_keep_their_streams(self, monkeypatch):
        # three calls at once, each with its own helper (six threads on fewer
        # cores), under a short switch interval: a draw taken out of order or
        # a job handed to the wrong call would change some answer
        monkeypatch.setattr(measures, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(17)
        cases = [(screen_spectrum("random", rank, rng), 9000, seed)
                 for rank, seed in ((2, 1), (4, 2), (6, 3))]
        got = [None] * len(cases)

        def call(k):
            got[k] = sampled_gen_preconcurrence(*cases[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [full_svd_preconcurrence(*case) for case in cases]

    def test_bound_is_attained_by_pairing_unitary(self):
        # the level pairing (1)(4)(2<->6)(3<->5) achieves the spectral maximum
        lam = np.array([0.4, 0.3, 0.2, 0.1, 0, 0])
        perm = np.zeros((6, 6))
        for i, j in ((0, 0), (3, 3), (1, 5), (5, 1), (2, 4), (4, 2)):
            perm[i, j] = 1.0
        root = np.sqrt(lam)
        s = np.linalg.svd(root[:, None] * perm * root[None, :], compute_uv=False)
        assert abs((s[0] - s[1:].sum()) - gen_concurrence_max(lam)) < 1e-12


class TestRange:
    def test_measures_in_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            lam = random_spectrum(rng)
            rho = build_alpha_beta(lam, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
            for val in (
                min_tgx_i_concurrence(rho),
                min_sgx_i_concurrence(rho),
                mems_entanglement(lam),
                gen_concurrence_max(lam),
            ):
                assert -1e-12 <= val <= 1.0 + 1e-12
            psi = random_ket(rng)
            assert 0.0 <= pure_i_concurrence(psi) <= 1.0 + 1e-12
