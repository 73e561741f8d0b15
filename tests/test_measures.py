import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqent import _screen, measures
from qqent.decompositions import min_average_search
from qqent.errors import (
    InvalidBudget,
    InvalidQuartet,
    InvalidSeed,
    NotMinimalSGX,
    NotMinimalTGX,
    NotNormalized,
    NotTGXForm,
    NotXForm,
    UnphysicalEntanglement,
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
from qqent.numerics import BATCH_SIZE, _haar_columns, haar_unitary, partial_transpose_negativity
from qqent.states import (
    COMPLEMENT_PAIRS,
    ME_TUPLES,
    build_alpha_beta,
    build_epu_min_tgx,
    build_mems,
    classify,
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
    traced_peak,
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
        for psi in (np.ones(6), np.full(6, 1e308)):  # the huge ket's norm overflows
            with pytest.raises(NotNormalized):
                pure_i_concurrence(psi)


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

    def test_ceiling_witness(self):
        # rho = (|psi1><psi1| + |psi2><psi2|) / 2, psi1 on levels 1, 5 and psi2
        # on 2, 6, carries more than mems_entanglement of its spectrum: every
        # ket a psi1 + b psi2 of its support has I-concurrence
        # sqrt(1 - |a|^2 |b|^2) >= sqrt(3)/2, so E(rho) >= sqrt(3)/2 > 0.5
        psi = np.zeros((2, 6))
        psi[0, [0, 4]] = psi[1, [1, 5]] = 1 / np.sqrt(2)
        rho = psi.T @ psi / 2
        lam = (0.5, 0.5, 0, 0, 0, 0)
        assert np.allclose(np.linalg.eigvalsh(rho)[::-1], lam, rtol=0, atol=1e-15)
        assert mems_entanglement(lam) == 0.5
        negativity_bound = 2 * partial_transpose_negativity(rho)
        assert abs(negativity_bound - 0.6180339887) < 1e-9
        assert negativity_bound > mems_entanglement(lam)
        cls = classify(rho)
        assert cls.is_tgx and not cls.is_min_tgx and not cls.is_min_sgx
        rng = np.random.default_rng(23)
        for ab in rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2)):
            assert pure_i_concurrence(ab @ psi / np.linalg.norm(ab)) >= np.sqrt(3) / 2 - 1e-12
        best = min_average_search(rho, 2, 2500, 0)[0]
        assert np.sqrt(3) / 2 - 1e-9 <= best <= 0.8662
        # the builder refuses E = 0.8, which rho's unitary orbit takes: it
        # runs from the separable diagonal state up to sqrt(3)/2
        with pytest.raises(UnphysicalEntanglement):
            build_epu_min_tgx(lam, 0.8)

    #: lam1 -> (2N, the D = 2 search minimum with 2500 trials and seed 0)
    CEILING_GAP_TABLE = {
        0.5: (0.6180, 0.8662), 0.6: (0.6325, 0.8719), 0.7: (0.6769, 0.8889),
        0.8: (0.7534, 0.9166), 0.85: (0.8040, 0.9341), 0.9: (0.8624, 0.9540),
        0.99: (0.9851, 0.9950),
    }

    @pytest.mark.parametrize("lam1", (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.99))
    def test_ceiling_gap_family(self, lam1):
        # rho = lam1 |psi1><psi1| + (1 - lam1) |psi2><psi2|, with the witness's
        # kets: its cap is lam1.  A ket a psi1 + b psi2 of its support with
        # z = |a|^2 - |b|^2 has I-concurrence h(z) = sqrt(3 + z^2)/2, convex in
        # z, and every decomposition averages z to 2 lam1 - 1, so by Jensen
        # E(rho) = h(2 lam1 - 1), reached by sqrt(lam1) psi1 +- sqrt(1 - lam1) psi2
        # with weight 1/2 each; h(2 lam1 - 1) > lam1 on all of [1/2, 1)
        psi = np.zeros((2, 6))
        psi[0, [0, 4]] = psi[1, [1, 5]] = 1 / np.sqrt(2)
        rho = (psi.T * (lam1, 1 - lam1)) @ psi
        assert mems_entanglement((lam1, 1 - lam1, 0, 0, 0, 0)) == lam1
        exact = np.sqrt(3 + (2 * lam1 - 1) ** 2) / 2
        assert exact > lam1
        pair = np.array([[np.sqrt(lam1), s * np.sqrt(1 - lam1)] for s in (1, -1)]) @ psi
        assert np.max(np.abs(pair.T @ pair / 2 - rho)) < 1e-15
        assert abs(sum(pure_i_concurrence(k) for k in pair) / 2 - exact) < 1e-15
        rng = np.random.default_rng(23)
        for ab in rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2)):
            assert pure_i_concurrence(ab @ psi / np.linalg.norm(ab)) >= np.sqrt(3) / 2 - 1e-12
        best = min_average_search(rho, 2, 2500, 0)[0]
        assert exact <= best <= exact + 2e-4
        two_n = 2 * partial_transpose_negativity(rho)
        assert np.allclose((two_n, best), self.CEILING_GAP_TABLE[lam1], rtol=0, atol=1e-4)
        if lam1 > np.sqrt(3) / 2:
            # above sqrt(3)/2 the certified bound 2N lies below the cap, while
            # the exact E, and so the search's upper bound, lie above it
            assert two_n < lam1 < exact <= best

    def test_negativity_below_searched_rank_two_minima(self):
        # 2N, a certified lower bound of E (Chen, Albeverio & Fei), stays below
        # the D = 2 grid and D = 3 Haar search minima, which bound E from
        # above, on random rank-2 states; 2N is above mems_entanglement of the
        # spectrum for none of these 100 (for 2 of 1000 with this seed)
        rng = np.random.default_rng(11)
        for n in range(100):
            a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            rho = a @ a.conj().T / np.vdot(a, a).real
            best = min(min_average_search(rho, d, None, 0)[0] for d in (2, 3))
            assert 2 * partial_transpose_negativity(rho) <= best + 1e-9, n


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
    """The screen's estimate of every draw, flagged ones included and none
    pruned, with the Gram-Schmidt certificates."""
    if r <= 2:
        return _screen._screened_preconcurrence(g, root, r)
    qr, qi, kappa = _screen._gram_schmidt(g, r)
    return _screen._gram_estimates(*_screen._block_gram(qr, qi, root, r)), kappa


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


#: sample counts at the batch boundaries: one batch, one draw past it, two
#: batches, a partial last batch and a one-draw last batch
BOUNDARY_SAMPLES = (BATCH_SIZE, BATCH_SIZE + 1, 2 * BATCH_SIZE, 2 * BATCH_SIZE + 808,
                    3 * BATCH_SIZE + 1)


def full_svd_values(lam, samples, seed):
    """Every draw's value as full_svd_preconcurrence scores it, in stream
    order; the normals do not depend on the batching, so the maximum of the
    first n is full_svd_preconcurrence(lam, n, seed)."""
    root = np.sqrt(lam)
    v = haar_unitary(6, np.random.default_rng(seed), count=samples)
    s = np.linalg.svd(root[None, :, None] * v * root[None, None, :], compute_uv=False)
    return s[:, 0] - s[:, 1:].sum(axis=1)


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
        # the margin argument: every unflagged draw's estimate lies within
        # 1e-6 of its exact value, the screen returns that estimate or,
        # pruned, -inf, and every flagged draw is a candidate
        rng = np.random.default_rng(21)
        for kind in SCREEN_SPECTRA:
            for rank in range(1, 7):
                root = np.sqrt(screen_spectrum(kind, rank, rng))
                r = int(np.flatnonzero(root)[-1]) + 1
                g = rng.standard_normal((512, 2, 6, 6))
                estimates, kappa = unpruned_screen(g, root, r)
                unflagged = kappa <= _screen.SCREEN_KAPPA
                exact = measures._exact_preconcurrence(_haar_columns(g, 6), root)
                assert np.max(np.abs(estimates - exact)[unflagged]) < 1e-6
                screened, screened_kappa = _screen._screened_preconcurrence(g, root, r)
                assert (screened_kappa == kappa).all()
                kept = screened > -np.inf
                assert (screened[kept] == estimates[kept]).all()
                assert kept.all() or r >= 3
                candidates = _screen._candidates(screened, kappa)
                assert set(np.flatnonzero(~unflagged)) <= set(candidates)
        assert 2e-6 < _screen.SCREEN_MARGIN

    def test_flat_spectrum_skips_screen(self, monkeypatch):
        calls = []
        screen = _screen._screened_preconcurrence
        monkeypatch.setattr(
            _screen, "_screened_preconcurrence", lambda *a: calls.append(1) or screen(*a)
        )
        for lam, screened in (([1 / 6] * 6, False), ([0.2] * 5 + [0.0], True)):
            calls.clear()
            got = sampled_gen_preconcurrence(lam, 5000, seed=2)
            assert got == full_svd_preconcurrence(np.array(lam), 5000, 2)
            assert bool(calls) == screened

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_ill_conditioned_draws_scored_exactly(self, rank, monkeypatch):
        rng = np.random.default_rng(40 + rank)
        lam = screen_spectrum("random", rank, rng)
        root = np.sqrt(lam)
        g = ill_conditioned_normals(rng, rank)
        qr, qi, kappa = _screen._gram_schmidt(g, rank)
        flagged = kappa > _screen.SCREEN_KAPPA
        assert flagged[:32].all() if rank > 1 else not flagged.any()
        # below the cap the columns are orthonormal to a few eps; with one pass
        # (CGS1) the plain rank-6 draws lose about 3e-14
        q = (qr + 1j * qi).transpose(2, 1, 0)[~flagged]
        gram = q.conj().swapaxes(1, 2) @ q
        assert np.max(np.abs(gram - np.eye(rank))) < 5e-15
        rows, v = [], _haar_columns(g, 6)
        exact = measures._exact_preconcurrence
        monkeypatch.setattr(
            measures, "_exact_preconcurrence", lambda v, root: rows.append(len(v)) or exact(v, root)
        )
        # the screen scores nothing exactly and leaves every flagged draw a candidate
        screened, kappa = _screen._screened_preconcurrence(g, root, rank)
        assert rows == []
        assert set(np.flatnonzero(flagged)) <= set(_screen._candidates(screened, kappa))
        # every unflagged draw's estimate is within 1e-6, and pruned ones far below the best
        estimates = unpruned_screen(g, root, rank)[0]
        assert np.max(np.abs(estimates - exact(v, root))[~flagged]) < 1e-6
        pruned = (screened == -np.inf) & ~flagged
        best = screened[~flagged].max()
        assert (estimates[pruned] < best - _screen.SCREEN_MARGIN).all()
        # end to end, every flagged draw reaches the exact scorer, and the
        # answer is the full SVD's on the same normals
        scored, screens = [], []
        screen = _screen._screened_preconcurrence
        monkeypatch.setattr(_screen, "_haar_normals", lambda *a, out: np.copyto(out, g) or out)
        monkeypatch.setattr(
            measures, "_exact_preconcurrence", lambda v, root: scored.append(v) or exact(v, root)
        )
        monkeypatch.setattr(
            _screen, "_screened_preconcurrence", lambda *a: screens.append(1) or screen(*a)
        )
        assert sampled_gen_preconcurrence(lam, BATCH_SIZE) == exact(v, root).max()
        assert screens == [1]
        seen = {row.tobytes() for batch in scored for row in batch}
        assert {v[k].tobytes() for k in np.flatnonzero(flagged)} <= seen

    @pytest.mark.parametrize("rank", range(3, 7))
    def test_block_gram_equals_matmul_reference(self, rank):
        # H = b^H b of b = sqrt(L_r) V_r sqrt(L_r), V_r from the Householder
        # path, in the upper triangle and diagonal, the part H is kept in
        rng = np.random.default_rng(60 + rank)
        root = np.sqrt(screen_spectrum("random", rank, rng))
        g = rng.standard_normal((512, 2, 6, 6))
        hr, hi = _screen._block_gram(*_screen._gram_schmidt(g, rank)[:2], root, rank)
        b = root[:rank, None] * _haar_columns(g, rank)[:, :rank] * root[:rank]
        h = np.matmul(b.conj().swapaxes(1, 2), b)
        upper = np.triu_indices(rank)
        assert np.max(np.abs((hr + 1j * hi)[upper] - h[:, upper[0], upper[1]].T)) < 1e-14

    @pytest.mark.parametrize("rank", range(3, 7))
    def test_pruning_leaves_gram_matrices_unchanged(self, rank):
        # the recursion runs on the lower triangle, and the diagonal it
        # overwrites is restored: H's upper triangle and diagonal keep every bit
        rng = np.random.default_rng(80 + rank)
        root = np.sqrt(screen_spectrum("random", rank, rng))
        g = rng.standard_normal((512, 2, 6, 6))
        qr, qi, _ = _screen._gram_schmidt(g, rank)
        trace = _screen._trace_bound(qr, qi, root, rank)
        hr, hi = _screen._block_gram(qr, qi, root, rank)
        upper = np.triu_indices(rank)
        before = hr[upper].tobytes(), hi[upper].tobytes()
        _screen._pruned(hr, hi, np.ones(len(g), dtype=bool), trace)
        assert (hr[upper].tobytes(), hi[upper].tobytes()) == before

    @pytest.mark.parametrize("rank", range(3, 7))
    def test_gram_estimates_read_only_the_upper_triangle(self, rank):
        # a NaN-filled lower triangle leaves every estimate's bits unchanged
        rng = np.random.default_rng(110 + rank)
        root = np.sqrt(screen_spectrum("random", rank, rng))
        qr, qi, _ = _screen._gram_schmidt(rng.standard_normal((512, 2, 6, 6)), rank)
        hr, hi = _screen._block_gram(qr, qi, root, rank)
        before = _screen._gram_estimates(hr, hi)
        lower = np.tril_indices(rank, -1)
        hr[lower], hi[lower] = np.nan, np.nan
        assert _screen._gram_estimates(hr, hi).tobytes() == before.tobytes()
        assert np.isfinite(before).all()

    @pytest.mark.parametrize("rank", range(3, 7))
    def test_block_gram_overwrites_its_columns(self, rank):
        # H is written over the columns it is built from, not beside them
        rng = np.random.default_rng(100 + rank)
        root = np.sqrt(screen_spectrum("random", rank, rng))
        qr, qi, _ = _screen._gram_schmidt(rng.standard_normal((64, 2, 6, 6)), rank)
        hr, hi = _screen._block_gram(qr, qi, root, rank)
        assert np.shares_memory(hr, qr) and np.shares_memory(hi, qi)

    @pytest.mark.parametrize("rank", range(3, 7))
    def test_trace_bound_below_nuclear_norm(self, rank):
        # T = tr(b V_r^H) is at most ||b||_* of b built from the Householder
        # columns, on plain draws, on the draws below the kappa cap of an
        # ill-conditioned batch, and on near ties, where it is tight; a draw
        # certified at the Frobenius radius y for a threshold t has its SVD
        # value below 2 y - tr H / y (= t)
        rng = np.random.default_rng(90 + rank)
        for kind in SCREEN_SPECTRA:
            root = np.sqrt(screen_spectrum(kind, rank, rng))
            r = int(np.flatnonzero(root)[-1]) + 1
            for g in (rng.standard_normal((512, 2, 6, 6)), ill_conditioned_normals(rng, r),
                      near_tie_normals(rng)):
                qr, qi, kappa = _screen._gram_schmidt(g, r)
                below = kappa <= _screen.SCREEN_KAPPA
                trace = _screen._trace_bound(qr, qi, root, r)
                b = root[:r, None] * _haar_columns(g, r)[:, :r] * root[:r]
                nuclear = np.linalg.svd(b, compute_uv=False).sum(axis=1)
                assert (trace[below] <= nuclear[below] + 1e-12).all()
                hr, hi = _screen._block_gram(qr, qi, root, r)
                exact = measures._exact_preconcurrence(_haar_columns(g, 6), root)
                frob2 = np.einsum("kkn->n", hr)
                # the Hermitian H from its upper triangle and diagonal
                upper = np.triu((hr + 1j * hi).transpose(2, 0, 1))
                h = upper + np.triu(upper, 1).conj().swapaxes(1, 2)
                for t in np.quantile(exact, (0.5, 0.9, 0.99, 1.0)) - 2 * _screen.SCREEN_MARGIN:
                    y = 0.25 * (t + np.sqrt(t * t + 8.0 * frob2))
                    xr, xi = -h.real.transpose(1, 2, 0), -h.imag.transpose(1, 2, 0)
                    xr[range(r), range(r)] += y * y
                    certified = _screen._cholesky_passes(xr, xi) & below
                    assert (exact[certified] <= 2 * y[certified] - frob2[certified] / y[certified]
                            + 1e-12).all()

    @pytest.mark.parametrize("lam", (
        (0.5, 0.3, 0.15, 0.05, 1e-6, 1e-9), (1, 1, 1, 1, 1, 0.5), ("tiny", 3), ("tiny", 4),
        ("tiny", 5), ("inner_zero", 3), ("inner_zero", 4), ("inner_zero", 5),
    ))
    def test_screen_prunes_tiny_tails_and_equal_top(self, lam, monkeypatch):
        # a tiny or zero-then-tiny last level (r = 3-6) gives H a pivot at
        # or below the floor, and five equal levels a pivot sum far below
        # ||b||_*; the trace and Frobenius bounds need no pivots, and a
        # 10k-sample call sends under a fifth of its draws to eigvalsh
        if isinstance(lam[0], str):
            kind, r = lam
            lam = screen_spectrum(kind, r - (1 if kind == "tiny" else 2),
                                  np.random.default_rng(41 + r))
            assert int(np.flatnonzero(lam)[-1]) + 1 == r
        lam = np.array(lam) / sum(lam)
        rows, estimates = [], _screen._gram_estimates
        monkeypatch.setattr(
            _screen, "_gram_estimates", lambda hr, hi: rows.append(hr.shape[-1]) or estimates(hr, hi)
        )
        assert sampled_gen_preconcurrence(lam, 10000, 7) == full_svd_preconcurrence(lam, 10000, 7)
        assert 0 < sum(rows) < 2000, sum(rows)

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_gram_schmidt_certificate_equals_qr_reference(self, rank):
        # ||A_r||_F^r / prod |R_jj| of the complex normals A_r, by LAPACK
        g = np.random.default_rng(70 + rank).standard_normal((512, 2, 6, 6))
        kappa = _screen._gram_schmidt(g, rank)[2]
        a = g[:, 0, :, :rank] + 1j * g[:, 1, :, :rank]
        diag = np.abs(np.diagonal(np.linalg.qr(a, mode="r"), axis1=1, axis2=2))
        ref = np.linalg.norm(a, axis=(1, 2)) ** rank / diag.prod(axis=1)
        assert np.max(np.abs(kappa / ref - 1.0)) < 1e-12

    def test_screen_calls_no_lapack_qr(self, monkeypatch):
        # the screen calls no QR, for r <= 2 no np.linalg routine at all, and
        # for r >= 3 only eigvalsh
        calls = []

        def recording(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        for name in np.linalg.__all__:
            func = getattr(np.linalg, name)
            if callable(func) and not isinstance(func, type):
                monkeypatch.setattr(np.linalg, name, recording(name, func))
        rng = np.random.default_rng(8)
        for rank in range(1, 7):
            root = np.sqrt(screen_spectrum("random", rank, rng))
            calls.clear()
            _screen._screened_preconcurrence(rng.standard_normal((4096, 2, 6, 6)), root, rank)
            assert "qr" not in calls
            assert (calls == []) if rank <= 2 else (set(calls) == {"eigvalsh"})

    @settings(max_examples=30)
    @given(
        kind=st.sampled_from(SCREEN_SPECTRA + ("ill_conditioned", "near_tie")),
        rank=st.integers(3, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruning_keeps_every_candidate(self, kind, rank, seed):
        # the candidates of the all-draws estimate are exactly those of the
        # pruned screen, so each is still scored exactly; on random spectra
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
            mp.setattr(np.linalg, "eigvalsh",
                       lambda a, UPLO="L": rows.append(len(a)) or eigvalsh(a, UPLO=UPLO))
            screened, kappa = _screen._screened_preconcurrence(g, root, r)
        estimates = unpruned_screen(g, root, r)[0]
        unflagged = kappa <= _screen.SCREEN_KAPPA
        assert screened[unflagged].max() == estimates[unflagged].max()
        candidates = _screen._candidates(screened, kappa)
        assert (candidates == _screen._candidates(estimates, kappa)).all()
        kept = screened > -np.inf
        assert (screened[kept] == estimates[kept]).all()
        if kind == "random":
            assert sum(rows) < BATCH_SIZE / 4, sum(rows)

    def test_near_flat_spectra_cost_no_more_than_full_svd(self, monkeypatch):
        # rows through the exact path, plus screened draws at the screen's
        # cost relative to it (about 0.6 at rank 6), never exceed the samples
        # that scoring every draw exactly would take
        rows, screened = [], []
        exact, screen = measures._exact_preconcurrence, _screen._screened_preconcurrence
        monkeypatch.setattr(
            measures, "_exact_preconcurrence", lambda v, root: rows.append(len(v)) or exact(v, root)
        )
        monkeypatch.setattr(
            _screen, "_screened_preconcurrence",
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
    def test_one_thread_equals_full_svd(self, kind, monkeypatch):
        # the calling thread draws every batch, in stream order, into one
        # buffer per call and screens it itself; the answer is the full SVD's
        rng = np.random.default_rng(SCREEN_SPECTRA.index(kind))
        draw, buffers = _screen._haar_normals, []

        def recorded(gen, dim, count, out):
            buffers.append(out)
            return draw(gen, dim, count, out)

        monkeypatch.setattr(_screen, "_haar_normals", recorded)
        alone = threading.active_count()
        for rank in range(1, 7):
            lam = screen_spectrum(kind, rank, rng)
            seed = int(rng.integers(2**32))
            values = full_svd_values(lam, max(BOUNDARY_SAMPLES), seed)
            for samples in BOUNDARY_SAMPLES:
                buffers.clear()
                got = sampled_gen_preconcurrence(lam, samples, seed)
                assert got == values[:samples].max(), (rank, samples)
                assert len(buffers) == -(-samples // BATCH_SIZE)
                assert all(np.shares_memory(b, buffers[0]) for b in buffers)
                assert threading.active_count() == alone

    def test_concurrent_calls_keep_their_streams(self):
        # three calls at once on threads of their own (more than the cores),
        # under a short switch interval: a draw taken out of order or a
        # buffer shared between calls would change some answer
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

    def test_screen_working_set(self):
        # a rank-6 screen keeps only what its next stage reads
        rng = np.random.default_rng(11)
        root = np.sqrt(screen_spectrum("random", 6, rng))
        g = rng.standard_normal((BATCH_SIZE, 2, 6, 6))
        _screen._screened_preconcurrence(g, root, 6)
        assert traced_peak(_screen._screened_preconcurrence, g, root, 6) <= 1.6 * g.nbytes

    @pytest.mark.parametrize("calls", (1, 2))
    def test_call_working_set(self, calls):
        # full batches and a partial one, all drawn into one buffer; calls
        # in a row peak no higher than one, so each frees its buffer
        lam = screen_spectrum("random", 6, np.random.default_rng(12))
        sampled_gen_preconcurrence(lam, 9000, 3)

        def run():
            for _ in range(calls):
                sampled_gen_preconcurrence(lam, 9000, 3)

        batch_bytes = np.empty((BATCH_SIZE, 2, 6, 6)).nbytes  # the normals of one batch
        assert traced_peak(run) <= 2.6 * batch_bytes

    def test_unscreened_call_working_set(self):
        # a rank-6 spectrum too flat to screen yields every draw's columns;
        # each batch's are freed before the next batch is factored (the
        # previous batch's, still held, took the peak to 6.2 batches)
        lam = [1 / 6] * 6
        assert measures.preconcurrence_estimator(np.sqrt(lam)) is None
        sampled_gen_preconcurrence(lam, 9000, 3)
        batch_bytes = np.empty((BATCH_SIZE, 2, 6, 6)).nbytes
        assert traced_peak(sampled_gen_preconcurrence, lam, 9000, 3) <= 5.6 * batch_bytes

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
