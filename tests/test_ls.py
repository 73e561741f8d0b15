import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqent.errors import AmbiguousQuartet, InvalidQuartet, NotMinimalSGX
from qqent.ls import (
    ls_explicit,
    ls_numeric,
    spin_flip_operator,
    tau_matrix,
    wootters_xkets_explicit,
    xi_explicit,
    xi_explicit_2x2,
)
from qqent.measures import (
    concurrence_2x2,
    min_sgx_i_concurrence,
    min_tgx_i_concurrence,
    pure_i_concurrence,
)
from qqent.numerics import _negativity_unchecked, hermitian_eig
from qqent.states import (
    QUARTETS,
    _min_sgx_quartet,
    build_epu_min_tgx,
    build_epu_x_2x2,
    build_mems,
    e_mems,
    enumerate_lpus,
    physical_entanglement,
    subspace_extract,
)

from conftest import (
    concurrence_singular_values,
    ls_round_off_tail_state,
    random_density,
    random_spectrum,
    rotated_min_sgx,
)


def random_physical_pair(rng, rank=None):
    lam = random_spectrum(rng, rank=rank)
    return lam, physical_entanglement(lam, rng.uniform())


def entangled_part_value(dec):
    """p_e * E(rho_e) with E taken from the dominant eigenvector."""
    if dec.p_e <= 1e-12:
        return 0.0
    top = hermitian_eig(dec.rho_e).vectors[:, 0]
    return dec.p_e * pure_i_concurrence(top)


def two_quartet_tgx():
    """A TGX state with coherence in quartets {1,2,4,5} and {1,3,4,6}."""
    tgx = np.diag([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]).astype(complex)
    tgx[0, 4] = tgx[4, 0] = 0.05
    tgx[0, 5] = tgx[5, 0] = 0.05
    return tgx


@pytest.mark.parametrize("entry", [
    min_sgx_i_concurrence, ls_numeric, lambda rho: tau_matrix(rho, (1, 3, 4, 6)),
], ids=["min_sgx_i_concurrence", "ls_numeric", "tau_matrix"])
def test_minimal_sgx_entry_points_share_one_gate(entry):
    # the closed form, the numeric split and tau_matrix raise the same error,
    # which an except NotMinimalSGX still catches
    with pytest.raises(NotMinimalSGX) as exc:
        entry(two_quartet_tgx())
    assert exc.type is AmbiguousQuartet


class TestSpinFlip:
    def test_canonical_matrix(self):
        s = spin_flip_operator((1, 3, 4, 6))
        expected = np.zeros((6, 6))
        expected[0, 5] = expected[5, 0] = -1.0
        expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(s, expected)

    def test_squares_to_identity_on_quartet(self):
        for quartet in ((1, 2, 4, 5), (1, 3, 4, 6), (2, 3, 5, 6)):
            s = spin_flip_operator(quartet)
            idx = np.array(quartet) - 1
            assert np.allclose((s @ s)[np.ix_(idx, idx)], np.eye(4))

    def test_rejects_non_quartet(self):
        with pytest.raises(InvalidQuartet):
            spin_flip_operator((1, 2, 3, 6))


class TestTauMatrix:
    def test_matches_closed_form_generic(self):
        # compare entrywise against the closed-form tau of the constructed family
        lam = np.array([0.4, 0.25, 0.15, 0.1, 0.07, 0.03])
        e = physical_entanglement(lam, 0.6)
        rho, params = build_epu_min_tgx(lam, e)
        tau = tau_matrix(rho, (1, 3, 4, 6))
        delta, omega = params.delta, params.omega
        rem = np.sqrt(delta**2 - omega)
        expected = np.zeros((4, 4))
        expected[0, 0] = -lam[0] * rem / delta
        expected[2, 2] = lam[4] * rem / delta
        expected[0, 2] = expected[2, 0] = np.sqrt(lam[0] * lam[4] * omega) / delta
        expected[1, 3] = expected[3, 1] = np.sqrt(lam[3] * lam[5])
        assert np.max(np.abs(tau - expected)) < 1e-10

    def test_degenerate_boundary_pattern(self):
        rho, _ = build_epu_min_tgx((0.2, 0.2, 0.2, 0.2, 0.2, 0.0), 0.0)
        tau = tau_matrix(rho, (1, 3, 4, 6))
        sv = np.linalg.svd(tau, compute_uv=False)
        assert np.allclose(sv, [0.2, 0.2, 0, 0], atol=1e-12)

    def test_mems_with_vanishing_tail_single_entry(self):
        # Omega = 0 with lam4 = lam6 = 0: tau collapses to -lam1 at (1,1)
        lam = (0.6, 0.25, 0.15, 0, 0, 0)
        rho = build_mems(lam)
        tau = tau_matrix(rho, (1, 3, 4, 6))
        expected = np.zeros((4, 4))
        expected[0, 0] = -0.6
        assert np.max(np.abs(tau - expected)) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lam, e = random_physical_pair(rng)
            rho, _ = build_epu_min_tgx(lam, e)
            tau = tau_matrix(rho, (1, 3, 4, 6))
            assert np.max(np.abs(tau - tau.T)) < 1e-12

    def test_gates(self):
        rho = random_density(np.random.default_rng(1), 6)
        with pytest.raises(NotMinimalSGX):
            tau_matrix(rho, (1, 3, 4, 6))
        # two-quartet TGX coherence is ambiguous
        with pytest.raises(AmbiguousQuartet):
            tau_matrix(two_quartet_tgx(), (1, 3, 4, 6))
        # valid state but wrong quartet requested
        rho2, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.5)
        with pytest.raises(NotMinimalSGX):
            tau_matrix(rho2, (1, 2, 4, 5))
        with pytest.raises(InvalidQuartet):
            tau_matrix(rho2, (1, 2, 3, 6))


class TestXiExplicit:
    def test_degenerate_boundary(self):
        xi = xi_explicit((0.2, 0.2, 0.2, 0.2, 0.2, 0.0), 0.0)
        assert np.allclose(xi, [0.2, 0.2, 0, 0], atol=1e-14)

    def test_pure_bell_analog(self):
        assert np.allclose(xi_explicit((1, 0, 0, 0, 0, 0), 1.0), [1, 0, 0, 0], atol=1e-14)

    def test_recovers_entanglement(self):
        xi = xi_explicit((0.7, 0.3, 0, 0, 0, 0), 0.693)
        assert abs(max(0.0, xi[0] - xi[1] - xi[2] - xi[3]) - 0.693) < 1e-12

    def test_identity_all_cases(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lam, e = random_physical_pair(rng)
            xi = xi_explicit(lam, e)
            expected = e
            assert abs(max(0.0, xi[0] - xi[1] - xi[2] - xi[3]) - expected) < 1e-12

    def test_xi1_dominant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lam, e = random_physical_pair(rng)
            xi = xi_explicit(lam, e)
            assert xi[0] >= max(xi[1:]) - 1e-12

    def test_matches_quartet_spin_flip_singulars(self):
        # oracle: concurrence singular values of the {1,3,4,6} block
        rng = np.random.default_rng(4)
        for _ in range(100):
            lam, e = random_physical_pair(rng)
            rho, _ = build_epu_min_tgx(lam, e)
            block = subspace_extract(rho, (1, 3, 4, 6))
            oracle = concurrence_singular_values(block)
            xi = xi_explicit(lam, e)
            assert np.max(np.abs(np.sort(oracle) - np.sort(xi))) < 1e-9


class TestWoottersXkets:
    def test_rank1_ket(self):
        x, n1, n2 = wootters_xkets_explicit((1, 0, 0, 0, 0, 0), 1.0)
        expected = np.zeros(6, dtype=complex)
        expected[0] = expected[5] = 1j / np.sqrt(2)
        assert np.max(np.abs(x[0] - expected)) < 1e-12
        assert np.max(np.abs(x[1:])) < 1e-12

    def test_balanced_tail_pair(self):
        lam = np.array([0.4, 0.2, 0.15, 0.1, 0.05, 0.1])
        lam = np.sort(lam)[::-1]
        e = physical_entanglement(lam, 0.5)
        x, _, _ = wootters_xkets_explicit(lam, e)
        # |x3>, |x4> carry sqrt(lam4/2), sqrt(lam6/2) on levels 3 and 4
        assert abs(abs(x[2][2]) - np.sqrt(lam[3] / 2)) < 1e-12
        assert abs(abs(x[2][3]) - np.sqrt(lam[5] / 2)) < 1e-12
        assert abs(np.vdot(x[3], x[3]).real - (lam[3] + lam[5]) / 2) < 1e-12

    def test_tilde_orthogonality(self):
        rng = np.random.default_rng(5)
        s = spin_flip_operator((1, 3, 4, 6))
        for _ in range(100):
            lam, e = random_physical_pair(rng)
            x, _, _ = wootters_xkets_explicit(lam, e)
            xi = xi_explicit(lam, e)
            overlap = x.conj() @ s @ x.conj().T
            assert np.max(np.abs(overlap - np.diag(xi))) < 1e-9

    def test_sum_reconstructs_quartet_block(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            lam, e = random_physical_pair(rng)
            rho, _ = build_epu_min_tgx(lam, e)
            total = sum(np.outer(k, k.conj()) for k in wootters_xkets_explicit(lam, e)[0])
            embedded = np.zeros((6, 6), dtype=complex)
            idx = np.array([0, 2, 3, 5])
            embedded[np.ix_(idx, idx)] = subspace_extract(rho, (1, 3, 4, 6))
            assert np.max(np.abs(total - embedded)) < 1e-9


class TestLsExplicit:
    def test_pure_case(self):
        dec = ls_explicit((1, 0, 0, 0, 0, 0), 1.0)
        assert abs(dec.p_e - 1.0) < 1e-12
        psi = np.zeros(6)
        psi[0] = psi[5] = 1 / np.sqrt(2)
        assert np.max(np.abs(dec.rho_e - np.outer(psi, psi))) < 1e-12
        assert np.max(np.abs(dec.rho_s)) < 1e-12  # degenerates to zero

    def test_separable_case(self):
        dec = ls_explicit(np.ones(6) / 6, 0.0)
        assert dec.p_e == 0.0
        assert np.max(np.abs(dec.rho_s - np.eye(6) / 6)) < 1e-12

    def test_fig2_identities(self):
        lam = (0.7, 0.3, 0, 0, 0, 0)
        dec = ls_explicit(lam, 0.693)
        rho, _ = build_epu_min_tgx(lam, 0.693)
        recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
        assert np.max(np.abs(recon - rho)) < 1e-9
        assert abs(entangled_part_value(dec) - 0.693) < 1e-9
        assert _negativity_unchecked(dec.rho_s) < 1e-8

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            lam, e = random_physical_pair(rng)
            rho, _ = build_epu_min_tgx(lam, e)
            dec = ls_explicit(lam, e)
            recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
            assert np.max(np.abs(recon - rho)) < 1e-9
            expected = e
            assert abs(entangled_part_value(dec) - expected) < 1e-9
            assert abs(max(0.0, dec.xi[0] - dec.xi[1] - dec.xi[2] - dec.xi[3]) - expected) < 1e-9
            if dec.p_e < 1 - 1e-12:
                assert _negativity_unchecked(dec.rho_s) < 1e-8


class TestLsNumeric:
    def test_agrees_with_explicit(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            lam, e = random_physical_pair(rng)
            rho, _ = build_epu_min_tgx(lam, e)
            num = ls_numeric(rho)
            exp = ls_explicit(lam, e)
            assert abs(num.p_e - exp.p_e) < 1e-8
            assert np.max(np.abs(np.sort(num.xi) - np.sort(exp.xi))) < 1e-8

    def test_separable_min_sgx(self):
        rho = np.diag([0.4, 0.25, 0.15, 0.1, 0.07, 0.03]).astype(complex)
        rho[1, 4] = rho[4, 1] = 0.05  # separable {2,5} coherence
        dec = ls_numeric(rho)
        assert dec.p_e == 0.0
        assert np.max(np.abs(dec.rho_s - rho)) < 1e-9

    def test_dense_quartet_state(self):
        base, _ = build_epu_min_tgx((0.73, 0.27, 0, 0, 0, 0), 0.5)
        rho = rotated_min_sgx(base, unitary_seed=7)
        dec = ls_numeric(rho)
        recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
        assert np.max(np.abs(recon - rho)) < 1e-9
        assert abs(entangled_part_value(dec) - min_sgx_i_concurrence(rho)) < 1e-8
        assert _negativity_unchecked(dec.rho_s) < 1e-8

    def test_lpu_variant_orientations(self):
        rng = np.random.default_rng(9)
        rho, _ = build_epu_min_tgx((0.5, 0.25, 0.15, 0.1, 0, 0), 0.2)
        ref = min_tgx_i_concurrence(rho)
        for u in enumerate_lpus():
            var = u @ rho @ u.T
            dec = ls_numeric(var)
            recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
            assert np.max(np.abs(recon - var)) < 1e-9
            assert abs(entangled_part_value(dec) - ref) < 1e-8

    def test_complex_phase_coherence(self):
        # a phase on the off-diagonal leaves minimal TGX form; numeric route handles it
        rho, _ = build_epu_min_tgx((0.6, 0.2, 0.1, 0.1, 0, 0), 0.25)
        phase = np.exp(0.7j)
        rho = rho.astype(complex)
        rho[0, 5] *= phase
        rho[5, 0] = rho[0, 5].conjugate()
        dec = ls_numeric(rho)
        recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
        assert np.max(np.abs(recon - rho)) < 1e-9
        assert abs(entangled_part_value(dec) - min_tgx_i_concurrence(rho)) < 1e-8

    def test_gates(self):
        with pytest.raises(NotMinimalSGX):
            ls_numeric(random_density(np.random.default_rng(10), 6))
        with pytest.raises(AmbiguousQuartet):
            ls_numeric(two_quartet_tgx())


class TestLsNumericRoundOffCut:
    @pytest.mark.parametrize("w", [5e-13, 1e-13])
    def test_eigenvalue_below_rank_tol_counts(self, w):
        rho = ls_round_off_tail_state(w)
        dec = ls_numeric(rho)
        ref = min_tgx_i_concurrence(rho)
        xi1, xi2, xi3, xi4 = dec.xi
        assert abs(max(0.0, xi1 - xi2 - xi3 - xi4) - ref) < 1e-10
        assert abs(entangled_part_value(dec) - ref) < 1e-10


def contract_state(seed, family, rank):
    """A minimal SGX state: an EPU state (xi3 = xi4), an LPU-rotated one, or
    its quartet Haar-rotated into dense minimal SGX form."""
    rng = np.random.default_rng(seed)
    rho, _ = build_epu_min_tgx(*random_physical_pair(rng, rank))
    if family == "lpu":
        u = enumerate_lpus()[int(rng.integers(12))]
        return u @ rho @ u.T
    if family == "dense":
        return rotated_min_sgx(rho, rng)
    return rho


class TestLsNumericContract:
    """The kets of the numeric route are a Takagi basis of the quartet block,
    whatever basis the kernel picks inside degenerate or null xi clusters."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["epu", "lpu", "dense"]),
           rank=st.integers(1, 6))
    def test_kets_tilde_orthogonal_and_complete(self, seed, family, rank):
        rho = contract_state(seed, family, rank)
        quartet = QUARTETS[_min_sgx_quartet(rho)]
        dec = ls_numeric(rho)
        x = dec.x_kets
        overlap = x.conj() @ spin_flip_operator(quartet) @ x.conj().T
        assert np.max(np.abs(overlap - np.diag(dec.xi))) < 1e-14
        idx = np.array(quartet) - 1
        embedded = np.zeros((6, 6), dtype=complex)
        embedded[np.ix_(idx, idx)] = rho[np.ix_(idx, idx)]
        assert np.max(np.abs(x.T @ x.conj() - embedded)) < 1e-14
        sv = np.linalg.svd(tau_matrix(rho, quartet), compute_uv=False)
        assert np.max(np.abs(dec.xi - sv)) < 1e-14


class TestTransplant2x2:
    def test_xi_multiset_matches_spin_flip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            cap = max(0.0, lam[0] - lam[2] - 2 * np.sqrt(lam[1] * lam[3]))
            c = rng.uniform() * cap
            xi = xi_explicit_2x2(lam, c)
            rho = build_epu_x_2x2(lam, c)
            oracle = concurrence_singular_values(rho)
            assert np.max(np.abs(np.sort(xi) - np.sort(oracle))) < 1e-9
            assert abs(max(0.0, xi[0] - xi[1] - xi[2] - xi[3]) - concurrence_2x2(rho)) < 1e-9


class TestBoundaryContinuity:
    def test_mems_boundary_stable_under_perturbation(self):
        # at E = e_mems the split varies smoothly with the spectrum
        rng = np.random.default_rng(12)
        lam = np.array([0.35, 0.25, 0.18, 0.12, 0.07, 0.03])
        base = ls_explicit(lam, e_mems(lam))
        recon0 = base.p_e * base.rho_e + (1 - base.p_e) * base.rho_s
        for _ in range(10):
            bump = rng.standard_normal(6) * 1e-8
            lam2 = np.sort(np.clip(lam + bump, 0, None))[::-1]
            lam2 = lam2 / lam2.sum()
            dec = ls_explicit(lam2, max(0.0, e_mems(lam2)))
            recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
            assert np.max(np.abs(recon - recon0)) < 1e-6

    def test_negative_q_near_boundary_stable(self):
        rng = np.random.default_rng(13)
        lam = np.array([0.28, 0.2, 0.17, 0.15, 0.12, 0.08])
        q = (lam[0] - lam[4]) ** 2 - 4 * lam[3] * lam[5]
        assert q < 0
        base = ls_explicit(lam, 0.0)
        recon0 = base.p_e * base.rho_e + (1 - base.p_e) * base.rho_s
        for _ in range(10):
            bump = rng.standard_normal(6) * 1e-8
            lam2 = np.sort(np.clip(lam + bump, 0, None))[::-1]
            lam2 = lam2 / lam2.sum()
            dec = ls_explicit(lam2, 0.0)
            recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
            assert np.max(np.abs(recon - recon0)) < 1e-6
