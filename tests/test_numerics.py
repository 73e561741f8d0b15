import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqent import decompositions
from qqent._screen import SCREEN_KAPPA, SCREEN_MARGIN, _candidates
from qqent._checks import as_density_matrix
from qqent.errors import DTooLarge, DTooSmall, InvalidState, NotHermitian, NotSymmetric
from qqent.numerics import (
    DEGENERACY_TOL,
    RANK_TOL,
    REAL_SYMMETRIC_TOL,
    _fix_phases,
    _haar_columns,
    _hermitian_eig_unchecked,
    _takagi_embedded,
    haar_unitary,
    hermitian_eig,
    partial_transpose_negativity,
    takagi_symmetric,
)
from qqent.states import build_mems

from conftest import (
    brute_force_negativity,
    random_density,
    random_spectrum,
    ref_fix_phase,
    ref_hermitian_eig,
)


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(4))
        assert np.allclose(eig.values, 1.0)
        assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(4))) < 1e-10

    def test_diagonal_swap(self):
        eig = hermitian_eig(np.diag([0.3, 0.7]))
        assert np.allclose(eig.values, [0.7, 0.3], atol=1e-14)
        assert np.allclose(eig.vectors, [[0, 1], [1, 0]], atol=1e-12)

    def test_mems_rank2_spectrum(self):
        # characteristic polynomial factors into the input eigenvalues
        rho = build_mems((0.5, 0.5, 0, 0, 0, 0))
        eig = hermitian_eig(rho)
        assert np.allclose(eig.values, [0.5, 0.5, 0, 0, 0, 0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = a + a.conj().T
            eig = hermitian_eig(a)
            scale = max(np.max(np.abs(a)), 1.0)
            recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
            assert np.max(np.abs(recon - a)) < 1e-9 * scale
            assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(n))) < 1e-10
            assert np.all(np.diff(eig.values) <= 1e-14)

    def test_eigen_equation(self):
        rng = np.random.default_rng(1)
        a = random_density(rng, 6)
        eig = hermitian_eig(a)
        for k in range(6):
            res = a @ eig.vectors[:, k] - eig.values[k] * eig.vectors[:, k]
            assert np.max(np.abs(res)) < 1e-9

    def test_deterministic_and_canonical_for_degenerate(self):
        # a degenerate subspace should come back as the canonical basis
        eig = hermitian_eig(np.eye(4) * 0.25)
        assert np.allclose(eig.vectors, np.eye(4), atol=1e-12)
        a = random_density(np.random.default_rng(5), 5)
        e1 = hermitian_eig(a)
        e2 = hermitian_eig(a.copy())
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTakagi:
    def test_sign_to_phase(self):
        fact = takagi_symmetric(np.diag([-2.0, 1.0]))
        assert np.allclose(fact.values, [2.0, 1.0])
        # U = diag(i, 1) up to column phases
        assert abs(abs(fact.unitary[0, 0]) - 1.0) < 1e-12
        assert abs(fact.unitary[0, 0] ** 2 + 1.0) < 1e-12  # squares to -1

    def test_zero_matrix(self):
        fact = takagi_symmetric(np.zeros((3, 3)))
        assert np.allclose(fact.values, 0.0)
        assert np.allclose(fact.unitary, np.eye(3))

    def test_degenerate_quintet_tau_values(self):
        # tau of the five-fold degenerate boundary state: values {1/5, 1/5, 0, 0}
        from qqent.ls import tau_matrix
        from qqent.states import build_epu_min_tgx

        rho, _ = build_epu_min_tgx((0.2, 0.2, 0.2, 0.2, 0.2, 0.0), 0.0)
        tau = tau_matrix(rho, (1, 3, 4, 6))
        fact = takagi_symmetric(tau)
        assert np.allclose(np.sort(fact.values), [0, 0, 0.2, 0.2], atol=1e-12)

    def test_random_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            t = t + t.T
            fact = takagi_symmetric(t)
            u, d = fact.unitary, fact.values
            assert np.all(d >= 0)
            assert d[0] >= d.max() - 1e-12
            assert np.max(np.abs(u @ np.diag(d) @ u.T - t)) < 1e-9
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10
            sv = np.linalg.svd(t, compute_uv=False)
            assert np.max(np.abs(np.sort(sv) - np.sort(d))) < 1e-9

    def test_degenerate_complex_singular_values(self):
        # a repeated and a zero singular value of a complex tau
        rng = np.random.default_rng(3)
        w = haar_unitary(4, rng)
        t = w @ np.diag([0.7, 0.7, 0.2, 0.0]) @ w.T
        fact = takagi_symmetric(t)
        assert np.max(np.abs(fact.unitary @ np.diag(fact.values) @ fact.unitary.T - t)) < 1e-9

    def test_real_symmetric_route(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((5, 5))
        t = t + t.T
        fact = takagi_symmetric(t)
        assert np.max(np.abs(fact.unitary @ np.diag(fact.values) @ fact.unitary.T - t)) < 1e-10

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetric):
            takagi_symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestNegativity:
    def test_maximally_mixed(self):
        # separable, no negative eigenvalue of the partial transpose: +0.0, never -0.0
        neg = partial_transpose_negativity(np.eye(6) / 6)
        assert neg == 0.0 and math.copysign(1.0, neg) == 1.0

    def test_bell_analog_half(self):
        psi = np.zeros(6)
        psi[0] = psi[5] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi)
        assert abs(partial_transpose_negativity(rho) - 0.5) < 1e-12
        assert abs(brute_force_negativity(rho) - 0.5) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rho = random_density(rng, 6)
            assert abs(partial_transpose_negativity(rho) - brute_force_negativity(rho)) < 1e-12

    def test_rejects_bad_state(self):
        with pytest.raises(InvalidState):
            partial_transpose_negativity(np.eye(6))  # trace 6


class TestHaar:
    def test_unit_determinant_magnitude(self):
        u = haar_unitary(2, 123)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(4, 42), haar_unitary(4, 42))

    def test_first_entry_moment(self):
        # Haar moment E|U_11|^2 = 1/dim
        us = haar_unitary(2, 7, count=10_000)
        assert abs(np.mean(np.abs(us[:, 0, 0]) ** 2) - 0.5) < 0.02

    def test_unitarity_all_dims(self):
        rng = np.random.default_rng(8)
        for dim in range(2, 7):
            us = haar_unitary(dim, rng, count=1000)
            res = us.conj().transpose(0, 2, 1) @ us - np.eye(dim)
            assert np.max(np.abs(res)) < 1e-12

    def test_stack_prefix(self):
        # row i of a stack depends only on the seed and i, not on count
        for dim in (2, 3, 6):
            full = haar_unitary(dim, 11, count=9)
            assert np.array_equal(full[0], haar_unitary(dim, 11))
            for n in range(1, 9):
                assert np.array_equal(haar_unitary(dim, 11, count=n), full[:n])
            # drawing in chunks from one generator continues the same stream
            rng = np.random.default_rng(11)
            chunks = [haar_unitary(dim, rng, count=n) for n in (4, 1, 4)]
            assert np.array_equal(np.concatenate(chunks), full)

    def test_column_helper_matches_full_stack(self):
        # QR of the first k columns gives the full construction's columns bit for bit
        for d in range(2, 9):
            for n in (1, 4097):
                full = haar_unitary(d, 40 + d, count=n)
                g = np.random.default_rng(40 + d).standard_normal((n, 2, d, d))
                for k in range(1, d + 1):
                    assert np.array_equal(_haar_columns(g, k), full[..., :k]), (d, n, k)

    def test_dim_bounds(self):
        with pytest.raises(DTooSmall):
            haar_unitary(1, 0)
        with pytest.raises(DTooLarge):
            haar_unitary(9, 0)


class TestCandidates:
    """The one rule that picks the screened draws scored exactly."""

    def test_flagged_draw_returned_whatever_its_score(self):
        # draw 4's score would lead, but flagged draws do not set the best
        score = np.array([0.5, np.nan, -np.inf, 0.1, 10.0, 0.5 - 2 * SCREEN_MARGIN])
        kappa = np.array([1.0, 2 * SCREEN_KAPPA, np.inf, 1.0, 1e6, 1.0])
        assert _candidates(score, kappa).tolist() == [0, 1, 2, 4]

    def test_all_flagged_batch_returns_every_draw(self):
        score = np.array([np.nan, -np.inf, 0.3, np.inf, -0.2])
        assert _candidates(score, np.full(5, 2 * SCREEN_KAPPA)).tolist() == [0, 1, 2, 3, 4]

    def test_pruned_draw_never_returned(self):
        kappa = np.ones(4)
        score = np.array([-np.inf, 0.2, -np.inf, 0.2 - SCREEN_MARGIN / 2])
        assert _candidates(score, kappa).tolist() == [1, 3]
        # nor when every unflagged draw is pruned
        assert _candidates(np.full(4, -np.inf), kappa).tolist() == []
        kappa[2] = 2 * SCREEN_KAPPA
        assert _candidates(np.full(4, -np.inf), kappa).tolist() == [2]

    def test_score_at_margin_edge_returned(self):
        edge = 0.7 - SCREEN_MARGIN
        score = np.array([0.7, edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)])
        assert _candidates(score, np.ones(4)).tolist() == [0, 1, 3]

    def test_equals_min_search_rule_it_replaced(self):
        # the search kept the flagged trials and each estimate at or below
        # the least unflagged one plus SCREEN_MARGIN; negating the estimates
        # is exact, so the kept trials are the same
        def replaced(est, kappa):
            flagged = kappa > SCREEN_KAPPA
            cut = np.min(est, where=~flagged, initial=np.inf) + SCREEN_MARGIN
            return np.flatnonzero(flagged | (est <= cut))

        rng = np.random.default_rng(31)
        for rank in range(2, 7):
            rho = as_density_matrix(random_density(rng, 6, rank=rank))
            root, vt = decompositions._spectral_factors(rho)
            for d in range(max(3, rank), min(rank * rank, 8) + 1):
                g = rng.standard_normal((512, 2, d, d))
                g[:8, :, :, 1] = g[:8, :, :, 0] + 1e-9 * g[:8, :, :, 1]  # flagged
                score, kappa = decompositions._screened_averages(g, root, vt)
                est = -score
                assert (kappa[:8] > SCREEN_KAPPA).all() and (kappa[8:12] <= SCREEN_KAPPA).all()
                assert np.array_equal(_candidates(-est, kappa), replaced(est, kappa))
                # a tie with the least, the cut, and one ulp either side of it
                low = est[8:][kappa[8:] <= SCREEN_KAPPA].min()
                cut = low + SCREEN_MARGIN
                est[8:12] = low, cut, np.nextafter(cut, np.inf), np.nextafter(cut, -np.inf)
                assert np.array_equal(_candidates(-est, kappa), replaced(est, kappa))
                assert {8, 9, 11} <= set(replaced(est, kappa)) and 10 not in replaced(est, kappa)


def same_bytes(x, y):
    """Equal shape and bytes: -0.0 and 0.0 differ."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


SEEDS = st.integers(0, 2**32 - 1)
HERMITIAN_KINDS = ("dense", "spectrum", "degenerate", "basis")


def hermitian_case(seed, n, rank, kind):
    """A Hermitian n x n matrix: ``dense`` Gaussian; ``spectrum`` a Dirichlet
    spectrum of the given rank, Haar-rotated; ``degenerate`` the same with a
    run of levels made equal; ``basis`` the spectrum on standard basis vectors
    with phases, so eigenvectors hold exact zeros."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a + a.conj().T
    lam = random_spectrum(rng, n, min(rank, n))
    if kind == "degenerate":
        lo, hi = sorted(rng.choice(n + 1, size=2, replace=False))
        lam[lo:hi] = lam[lo:hi].mean()
    if kind == "basis":
        u = np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.uniform(size=n))
    else:
        u = haar_unitary(n, rng)
    return (u * lam) @ u.conj().T


class TestEigKernelMatchesReference:
    """The cluster-cut, vectorized eig kernel against the full canonical eig
    with its per-column phase fix, compared bytewise."""

    @settings(max_examples=300)
    @given(seed=SEEDS, n=st.sampled_from([4, 6]), rank=st.integers(1, 6),
           kind=st.sampled_from(HERMITIAN_KINDS))
    def test_full_and_cut_forms(self, seed, n, rank, kind):
        a = hermitian_case(seed, n, rank, kind)
        w, v = ref_hermitian_eig(a)
        full = hermitian_eig(a)
        assert same_bytes(full.values, w) and same_bytes(full.vectors, v)
        cut = _hermitian_eig_unchecked(a, RANK_TOL)
        keep = w > RANK_TOL
        assert same_bytes(cut.values, w)
        assert same_bytes(cut.vectors[:, keep], v[:, keep])
        if not keep.all():  # the clusters under the cut keep eigh's own columns
            first = np.flatnonzero(~keep)[0]
            if w[first - 1] - w[first] > DEGENERACY_TOL:
                assert same_bytes(cut.vectors[:, first:], np.linalg.eigh(a)[1][:, ::-1][:, first:])

    @settings(max_examples=200)
    @given(seed=SEEDS, n=st.integers(1, 6), k=st.integers(1, 6))
    def test_fix_phases(self, seed, n, k):
        # unit columns with components at all scales, some below the support
        # cut, some 0 or -0.0, some real
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        v *= 10.0 ** rng.integers(-10, 2, size=(n, k))
        v[rng.uniform(size=(n, k)) < 0.2] = complex(0.0, -0.0)
        v[rng.uniform(size=(n, k)) < 0.2] = complex(-0.0, 0.0)
        if rng.uniform() < 0.2:
            v = v.real + 0.0j
        v[rng.integers(n, size=k), np.arange(k)] += 1.0  # no zero column
        v /= np.linalg.norm(v, axis=0)
        ref = np.column_stack([ref_fix_phase(v[:, j]) for j in range(k)])
        assert same_bytes(_fix_phases(v), ref)
        assert same_bytes(_fix_phases(v[:, ::-1]), ref[:, ::-1])  # a strided view

    def test_straddling_cluster_is_rebuilt_whole(self):
        # eigenvalues 3e-11 and 0: one cluster at DEGENERACY_TOL, on both sides of RANK_TOL
        u = haar_unitary(4, 2024)
        a = (u * np.array([0.6, 0.4 - 3e-11, 3e-11, 0.0])) @ u.conj().T
        w, v = ref_hermitian_eig(a)
        assert w[2] > RANK_TOL >= w[3] and w[2] - w[3] <= DEGENERACY_TOL
        cut = _hermitian_eig_unchecked(a, RANK_TOL)
        assert same_bytes(cut.vectors[:, 2:], v[:, 2:])  # the kept column and its cluster mate
        # a phase fix of eigh's own column would not give the kept column
        raw = ref_fix_phase(np.linalg.eigh(a)[1][:, ::-1][:, 2])
        assert not np.allclose(raw, v[:, 2], atol=1e-6)


TAU_KINDS = ("generic", "zero", "two_zero", "three_zero", "all_zero",
             "repeated_top", "repeated_low", "repeated_zero")


def tau_case(seed, kind, n=4, smallest=None):
    """A complex symmetric n x n W diag(s) W^T with zero or repeated singular
    values (set through slices, so a kind clips to n), its smallest one then
    set to ``smallest`` if given; also returns s, descending."""
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    if kind == "zero":
        s[-1:] = 0.0
    elif kind == "two_zero":
        s[-2:] = 0.0
    elif kind == "three_zero":
        s[-3:] = 0.0
    elif kind == "all_zero":
        s[:] = 0.0
    elif kind == "repeated_top":
        s[1:2] = s[0]
    elif kind == "repeated_low":
        s[2:3] = s[1:2]
    elif kind == "repeated_zero":
        s[1:2], s[2:] = s[0], 0.0
    if smallest is not None:
        s[-1] = smallest
    w = haar_unitary(n, rng) if n > 1 else np.exp(2j * np.pi * rng.uniform(size=(1, 1)))
    t = (w * s) @ w.T
    return (t + t.T) / 2.0, s


def assert_takagi(t, s):
    """Unitarity, values and reconstruction of the embedded kernel on T = W diag(s) W^T.
    Values at or below REAL_SYMMETRIC_TOL get null-space columns whose phase
    is free, so each adds up to twice itself to the reconstruction error."""
    fact = _takagi_embedded(t)
    u, d = fact.unitary, fact.values
    n = t.shape[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-14
    assert np.max(np.abs(d - np.linalg.svd(t, compute_uv=False))) < 1e-14
    assert np.all(d >= 0.0) and np.all(np.diff(d) <= 0.0)
    free = 2.0 * s[s <= REAL_SYMMETRIC_TOL].sum()
    assert np.max(np.abs((u * d) @ u.T - t)) < 1e-14 + free


class TestTakagiKernelMatchesReference:
    """The embedded Takagi kernel against its reference, np.linalg.svd's values,
    and its own residuals: reconstruction and unitarity."""

    @settings(max_examples=300)
    @given(seed=SEEDS, kind=st.sampled_from(TAU_KINDS), n=st.integers(1, 6))
    def test_unitary_and_values(self, seed, kind, n):
        assert_takagi(*tau_case(seed, kind, n))

    @pytest.mark.parametrize("smallest", [1e-6, 1e-9, 1e-11, 2e-12, 5e-13])
    @pytest.mark.parametrize("kind", ["generic", "repeated_top", "repeated_low"])
    def test_small_singular_value(self, smallest, kind):
        for seed in range(50):
            assert_takagi(*tau_case(seed, kind, 4, smallest))

    @pytest.mark.parametrize("z", [complex(x, y) for x in (1.0, -1.0) for y in (0.0, -0.0)]
                             + [complex(x, y) for x in (0.0, -0.0) for y in (1.0, -1.0)])
    def test_signed_zero_phases(self, z):
        # an exact real or imaginary phase with a signed zero in the embedding
        fact = _takagi_embedded(np.array([[z]]))
        assert fact.values.tolist() == [1.0]
        assert abs(fact.unitary[0, 0] ** 2 - z) < 1e-15
