import numpy as np
import pytest

from qqent import states
from qqent.errors import (
    AngleOutOfRange,
    EtaOutOfRange,
    IndexOutOfRange,
    InvalidSpectrum,
    SpectrumMismatch,
    UnphysicalEntanglement,
)
from qqent.numerics import haar_unitary, hermitian_eig
from qqent.states import (
    ME_TUPLES,
    StateClass,
    build_alpha_beta,
    build_epu_min_tgx,
    build_epu_x_2x2,
    build_mems,
    classify,
    e_mems,
    enumerate_lpus,
    epu_unitary,
    me_tgx_states,
    physical_entanglement,
    quartets,
    subspace_extract,
)

from conftest import random_density, random_spectrum


def coincidence(level):
    """1-based level -> (mode1, mode2) labels."""
    return ((level - 1) // 3 + 1, (level - 1) % 3 + 1)


class TestQuartets:
    def test_exact_list(self):
        assert quartets() == [(1, 2, 4, 5), (1, 3, 4, 6), (2, 3, 5, 6)]

    def test_inseparable_pairs(self):
        # outer {a,d} and inner {b,c} must differ in both modes
        for a, b, c, d in quartets():
            for x, y in ((a, d), (b, c)):
                m1x, m2x = coincidence(x)
                m1y, m2y = coincidence(y)
                assert m1x != m1y and m2x != m2y

    def test_non_product_quartet_excluded(self):
        assert (1, 2, 3, 6) not in quartets()


class TestSubspaceExtract:
    def test_maximally_mixed_pair(self):
        block = subspace_extract(np.eye(6) / 6, (2, 5))
        assert np.allclose(block, np.eye(2) / 6)

    def test_corner_pattern(self):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.5)
        block = subspace_extract(rho, (1, 3, 4, 6))
        assert abs(block[0, 3] - rho[0, 5]) < 1e-15
        assert abs(block[0, 0] - rho[0, 0]) < 1e-15
        assert abs(block[1, 1] - rho[2, 2]) < 1e-15

    def test_full_space(self):
        rho = random_density(np.random.default_rng(0), 6)
        assert np.allclose(subspace_extract(rho, range(1, 7)), rho)

    def test_bad_levels(self):
        rho = np.eye(6) / 6
        with pytest.raises(IndexOutOfRange):
            subspace_extract(rho, (2, 2))
        with pytest.raises(IndexOutOfRange):
            subspace_extract(rho, (0, 3))
        with pytest.raises(IndexOutOfRange):
            subspace_extract(rho, (4, 7))


class TestClassify:
    def test_diagonal_matches_everything(self):
        flags = classify(np.diag([0.4, 0.3, 0.1, 0.1, 0.07, 0.03]))
        assert all(
            (flags.is_x, flags.is_tgx, flags.is_min_tgx, flags.is_min_sgx,
             flags.is_epu_min_tgx, flags.is_mems_form, flags.is_diagonal)
        )

    def test_constructed_state_chain(self):
        rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)
        flags = classify(rho)
        assert flags.is_epu_min_tgx
        assert flags.is_min_tgx and flags.is_tgx and flags.is_min_sgx
        assert not flags.is_diagonal

    def test_dense_random_is_unstructured(self):
        rho = random_density(np.random.default_rng(1), 6)
        flags = classify(rho)
        assert not any(
            (flags.is_x, flags.is_tgx, flags.is_min_tgx, flags.is_min_sgx,
             flags.is_epu_min_tgx, flags.is_mems_form, flags.is_diagonal)
        )

    def test_lpu_variant_still_minimal_tgx(self):
        rho, _ = build_epu_min_tgx((0.6, 0.2, 0.1, 0.1, 0, 0), 0.2)
        for u in enumerate_lpus():
            assert classify(u @ rho @ u.T).is_min_tgx

    def test_two_quartet_coherence_is_tgx_not_minimal(self):
        rho = np.diag([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]).astype(complex)
        rho[0, 4] = rho[4, 0] = 0.05  # quartet {1,2,4,5}
        rho[0, 5] = rho[5, 0] = 0.05  # quartet {1,3,4,6}
        flags = classify(rho)
        assert flags.is_tgx
        assert not flags.is_min_tgx and not flags.is_min_sgx


class TestSupportMasks:
    """The bitmask form gates against the set-based definitions."""

    @staticmethod
    def reference_support(rho):
        return {
            (i, j) for i in range(6) for j in range(i + 1, 6) if abs(rho[i, j]) > states.ZERO_TOL
        }

    @staticmethod
    def reference_class(nz):
        single = any(nz <= {pos} for pos in states._TGX_POSITIONS)
        return StateClass(
            is_x=nz <= states._X6_POSITIONS,
            is_tgx=nz <= states._TGX_POSITIONS,
            is_min_tgx=any(nz <= t for t in states._MIN_TGX_TEMPLATES),
            is_min_sgx=any(nz <= t for t in states._MIN_SGX_TEMPLATES),
            is_epu_min_tgx=single,
            is_mems_form=single,
            is_diagonal=not nz,
        )

    def test_every_support_pattern(self):
        """All 2**15 strictly-upper patterns; entries at exactly ZERO_TOL count
        as zero, entries one ulp above it as nonzero."""
        tol = states.ZERO_TOL
        upper = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        on = (np.nextafter(tol, 1.0), 0.3, -0.2j, np.nextafter(tol, 1.0) * 1j)
        off = (tol, 0.0, -tol, tol * 1j)
        base = np.diag(np.linspace(0.3, 0.05, 6)).astype(complex)
        for pattern in range(2**15):
            rho = base.copy()
            for k, (i, j) in enumerate(upper):
                v = (on if pattern >> k & 1 else off)[(pattern + k) % 4]
                rho[i, j], rho[j, i] = v, np.conj(v)
            nz = self.reference_support(rho)
            assert len(nz) == bin(pattern).count("1")
            assert states._classify(rho) == self.reference_class(nz), pattern
            assert states._matched_sgx(rho) == [
                k for k, t in enumerate(states._MIN_SGX_TEMPLATES) if nz <= t
            ], pattern


class TestLPUs:
    def test_twelve_distinct_permutation_unitaries(self):
        lpus = enumerate_lpus()
        assert len(lpus) == 12
        assert len({u.tobytes() for u in lpus}) == 12
        for u in lpus:
            assert np.array_equal(u @ u.T, np.eye(6))
            assert np.all((u == 0) | (u == 1))

    def test_contains_identity_and_mode2_reversal(self):
        lpus = enumerate_lpus()
        assert any(np.array_equal(u, np.eye(6)) for u in lpus)
        rev3 = np.fliplr(np.eye(3))
        target = np.kron(np.eye(2), rev3)
        assert any(np.array_equal(u, target) for u in lpus)


class TestMeTgxStates:
    def test_first_state(self):
        kets = me_tgx_states()
        expected = np.zeros(6)
        expected[0] = expected[4] = 1 / np.sqrt(2)
        assert np.allclose(kets[0], expected)

    def test_supports_are_me_tuples(self):
        for ket in me_tgx_states():
            support = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(ket) > 1e-12))
            assert support in ME_TUPLES
            assert np.allclose(np.abs(ket[np.abs(ket) > 1e-12]), 1 / np.sqrt(2))

    def test_two_orthonormal_bases(self):
        kets = me_tgx_states()
        for group in (np.array(kets[:6]), np.array(kets[6:])):
            assert np.max(np.abs(group @ group.conj().T - np.eye(6))) < 1e-12


class TestBuildMems:
    def test_rank1_is_bell_analog(self):
        rho = build_mems((1, 0, 0, 0, 0, 0))
        psi = np.zeros(6)
        psi[0] = psi[5] = 1 / np.sqrt(2)
        assert np.allclose(rho, np.outer(psi, psi), atol=1e-15)

    def test_uniform_is_maximally_mixed(self):
        assert np.allclose(build_mems(np.ones(6) / 6), np.eye(6) / 6, atol=1e-15)

    def test_template_and_spectrum(self):
        lam = (0.5, 0.3, 0.1, 0.1, 0, 0)
        rho = build_mems(lam)
        assert abs(rho[0, 0] - 0.25) < 1e-15 and abs(rho[5, 5] - 0.25) < 1e-15
        assert abs(rho[0, 5] - 0.25) < 1e-15
        assert np.allclose(np.diag(rho)[1:5].real, [0.3, 0.1, 0, 0.1])
        assert np.allclose(hermitian_eig(rho).values, lam, atol=1e-12)

    def test_rejects_bad_spectrum(self):
        with pytest.raises(InvalidSpectrum):
            build_mems((0.3, 0.7, 0, 0, 0, 0))


class TestBuildEpuMinTgx:
    def test_rank1_computational_limit(self):
        rho, params = build_epu_min_tgx((1, 0, 0, 0, 0, 0), 0.0)
        assert params.q == 1.0 and params.omega == 1.0
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_uniform_negative_q(self):
        rho, params = build_epu_min_tgx(np.ones(6) / 6, 0.0)
        assert params.q < 0 and params.omega == 0.0
        assert abs(params.q + 1.0 / 9.0) < 1e-14
        assert np.allclose(rho, np.eye(6) / 6, atol=1e-15)

    def test_fig2_state(self):
        rho, params = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)
        assert params.q >= 0
        assert np.allclose(hermitian_eig(rho).values, [0.7, 0.3, 0, 0, 0, 0], atol=1e-12)
        from qqent.measures import min_tgx_i_concurrence

        assert abs(min_tgx_i_concurrence(rho) - 0.693) < 1e-12

    def test_spectrum_preserved_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam = random_spectrum(rng)
            e = physical_entanglement(lam, rng.uniform())
            rho, _ = build_epu_min_tgx(lam, e)
            assert np.max(np.abs(hermitian_eig(rho).values - lam)) < 1e-9

    def test_boundary_entanglement_accepted(self):
        lam = np.array([0.5, 0.2, 0.15, 0.1, 0.05, 0.0])
        build_epu_min_tgx(lam, max(0.0, e_mems(lam)))

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalEntanglement):
            build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.71)
        with pytest.raises(UnphysicalEntanglement):
            build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), -0.1)


class TestBuildEpuX2x2:
    def test_bell_limit(self):
        rho = build_epu_x_2x2((1, 0, 0, 0), 1.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        assert np.allclose(rho, expected, atol=1e-15)

    def test_q_zero_mems_form(self):
        from qqent.measures import x_concurrence

        rho = build_epu_x_2x2((0.5, 0.5, 0, 0), 0.5)
        assert abs(x_concurrence(rho) - 0.5) < 1e-12

    def test_uniform_forces_zero(self):
        from qqent.measures import x_concurrence

        rho = build_epu_x_2x2(np.ones(4) / 4, 0.0)
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-15)
        assert x_concurrence(rho) == 0.0


class TestBuildAlphaBeta:
    def test_mems_special_point(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = random_spectrum(rng)
            assert np.max(np.abs(
                build_alpha_beta(lam, np.pi / 4, 0.0) - build_mems(lam)
            )) < 1e-12

    def test_zero_angles_diagonal_arrangement(self):
        lam = np.array([0.4, 0.25, 0.15, 0.1, 0.07, 0.03])
        rho = build_alpha_beta(lam, 0.0, 0.0)
        assert np.allclose(
            np.diag(rho).real, [lam[0], lam[1], lam[3], lam[5], lam[2], lam[4]]
        )
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) < 1e-15

    def test_spectrum_and_form(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lam = random_spectrum(rng)
            rho = build_alpha_beta(lam, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
            assert classify(rho).is_min_tgx
            assert np.max(np.abs(hermitian_eig(rho).values - lam)) < 1e-9

    def test_angle_range(self):
        with pytest.raises(AngleOutOfRange):
            build_alpha_beta(np.ones(6) / 6, -0.1, 0.0)
        with pytest.raises(AngleOutOfRange):
            build_alpha_beta(np.ones(6) / 6, 0.0, 2.0)


class TestEpuUnitary:
    def test_identity_on_same_state(self):
        rho = random_density(np.random.default_rng(5), 6)
        u = epu_unitary(rho, rho)
        assert np.max(np.abs(u @ rho @ u.conj().T - rho)) < 1e-10

    def test_mems_equals_epu_at_boundary(self):
        lam = np.array([0.5, 0.2, 0.15, 0.1, 0.05, 0.0])
        target, _ = build_epu_min_tgx(lam, max(0.0, e_mems(lam)))
        mems = build_mems(lam)
        assert np.max(np.abs(mems - target)) < 1e-12  # boundary case coincides
        u = epu_unitary(mems, target)
        assert np.max(np.abs(u @ mems @ u.conj().T - target)) < 1e-10

    def test_recovers_from_haar_rotation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            lam = random_spectrum(rng)
            target, _ = build_epu_min_tgx(lam, physical_entanglement(lam, rng.uniform()))
            w = haar_unitary(6, rng)
            rho = w @ target @ w.conj().T
            u = epu_unitary(rho, target)
            assert np.max(np.abs(u @ rho @ u.conj().T - target)) < 1e-8

    def test_spectrum_mismatch(self):
        with pytest.raises(SpectrumMismatch):
            epu_unitary(np.eye(6) / 6, np.diag([0.5, 0.5, 0, 0, 0, 0]))


class TestSpectrumScalars:
    def test_e_mems_values(self):
        assert abs(e_mems((1, 0, 0, 0, 0, 0)) - 1.0) < 1e-15
        assert abs(e_mems(np.ones(6) / 6) + 1.0 / 3.0) < 1e-15
        assert abs(e_mems((0.5, 0.5, 0, 0, 0, 0)) - 0.5) < 1e-15

    def test_physical_entanglement(self):
        assert physical_entanglement((0.4, 0.3, 0.2, 0.1, 0, 0), 0.0) == 0.0
        assert abs(physical_entanglement((1, 0, 0, 0, 0, 0), 1.0) - 1.0) < 1e-15
        assert abs(physical_entanglement((0.7, 0.3, 0, 0, 0, 0), 0.99) - 0.693) < 1e-12
        with pytest.raises(EtaOutOfRange):
            physical_entanglement(np.ones(6) / 6, 1.5)
