"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances are fixed here, not calibrated elsewhere.  Random inputs use
fixed seeds so every run is reproducible; the decomposition-search criteria
print their measured margins.
"""

import time

import numpy as np

from qqent.decompositions import iter_decomposition_samples, min_average_search
from qqent.ls import ls_explicit, ls_numeric, xi_explicit
from qqent.measures import (
    concurrence_2x2,
    e_alpha_beta,
    alpha_solve,
    gen_concurrence_max,
    min_sgx_i_concurrence,
    min_tgx_i_concurrence,
    pure_i_concurrence,
    sampled_gen_preconcurrence,
    subspace_concurrence_vector,
    x_concurrence,
)
from qqent.numerics import _negativity_unchecked, haar_unitary, hermitian_eig
from qqent.states import (
    build_alpha_beta,
    build_epu_min_tgx,
    build_epu_x_2x2,
    classify,
    e_mems,
    enumerate_lpus,
    physical_entanglement,
)

from conftest import (
    random_ket,
    random_spectrum,
    random_x_state,
    reduction_purity_entanglement,
    rotated_min_sgx,
)

GRID_TOL = 2e-3
SAMPLE_TOL = 0.05
FLOOR_TOL = 1e-9


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def entangled_part_value(dec):
    if dec.p_e <= 1e-12:
        return 0.0
    top = hermitian_eig(dec.rho_e).vectors[:, 0]
    return dec.p_e * pure_i_concurrence(top)


def sweep_protocol(rho, formula, seed=0):
    """D=2 grid of 900 plus 1000 Haar draws at D=3 and D=4; returns the
    worst violation of the floor and the three minima."""
    floor_violation = 0.0
    minima = {}
    vals = []
    for _, _, avg in iter_decomposition_samples(rho, 2, budget=900):
        vals.append(avg)
        floor_violation = max(floor_violation, formula - avg)
    minima[2] = min(vals)
    for d in (3, 4):
        best, _ = min_average_search(rho, d, budget=1000, seed=seed)
        floor_violation = max(floor_violation, formula - best)
        minima[d] = best
    return floor_violation, minima


def test_criterion_1_epu_round_trip():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_spec = 0.0
    worst_ent = 0.0
    for _ in range(1000):
        lam = random_spectrum(rng)
        e = physical_entanglement(lam, rng.uniform())
        rho, _ = build_epu_min_tgx(lam, e)
        worst_spec = max(worst_spec, float(np.max(np.abs(hermitian_eig(rho).values - lam))))
        expected = e
        worst_ent = max(worst_ent, abs(min_tgx_i_concurrence(rho) - expected))
    elapsed = time.time() - start
    ok = worst_spec <= 1e-9 and worst_ent <= 1e-9 and elapsed < 10.0
    report(
        "criterion 1: EPU round-trip (1000 spectra)",
        ok,
        f"spec_res={worst_spec:.2e} ent_res={worst_ent:.2e} t={elapsed:.1f}s",
    )


def test_criterion_2_fig2_reproduction():
    start = time.time()
    rho, _ = build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)
    floor_violation, minima = sweep_protocol(rho, 0.693, seed=0)
    elapsed = time.time() - start
    ok = (
        floor_violation <= FLOOR_TOL
        and abs(minima[2] - 0.693) <= GRID_TOL
        and 0.693 - FLOOR_TOL <= minima[3] <= 0.693 + SAMPLE_TOL
        and 0.693 - FLOOR_TOL <= minima[4] <= 0.693 + SAMPLE_TOL
        and elapsed < 30.0
    )
    report(
        "criterion 2: rank-2 (0.7, 0.3) state, E=0.693 sweep",
        ok,
        f"min2={minima[2]:.6f} min3={minima[3]:.6f} min4={minima[4]:.6f} t={elapsed:.1f}s",
    )


def test_criterion_3_equal_weight_min_tgx():
    alpha = np.random.default_rng(3).uniform(0.0, np.pi / 2)
    rho = build_alpha_beta((0.5, 0.5, 0, 0, 0, 0), alpha, 0.0)
    formula = min_tgx_i_concurrence(rho)
    floor_violation, minima = sweep_protocol(rho, formula, seed=0)
    ok = (
        floor_violation <= FLOOR_TOL
        and abs(minima[2] - formula) <= GRID_TOL
        and formula - FLOOR_TOL <= minima[3] <= formula + SAMPLE_TOL
        and formula - FLOOR_TOL <= minima[4] <= formula + SAMPLE_TOL
    )
    report(
        "criterion 3: rank-2 equal-weight minimal TGX sweep",
        ok,
        f"alpha={alpha:.4f} E={formula:.6f} "
        f"min2={minima[2]:.6f} min3={minima[3]:.6f} min4={minima[4]:.6f}",
    )


def test_criterion_4_dense_quartet_min_sgx():
    base, _ = build_epu_min_tgx(
        (0.73, 0.27, 0, 0, 0, 0),
        physical_entanglement((0.73, 0.27, 0, 0, 0, 0), 0.9),
    )
    rho = rotated_min_sgx(base, unitary_seed=7)
    assert classify(rho).is_min_sgx and not classify(rho).is_min_tgx
    formula = min_sgx_i_concurrence(rho)
    floor_violation, minima = sweep_protocol(rho, formula, seed=0)
    ok = (
        floor_violation <= FLOOR_TOL
        and abs(minima[2] - formula) <= GRID_TOL
        and formula - FLOOR_TOL <= minima[3] <= formula + SAMPLE_TOL
        and formula - FLOOR_TOL <= minima[4] <= formula + SAMPLE_TOL
    )
    report(
        "criterion 4: rank-2 (0.73, 0.27) dense-quartet sweep",
        ok,
        f"E={formula:.6f} min2={minima[2]:.6f} min3={minima[3]:.6f} min4={minima[4]:.6f}",
    )


def test_criterion_5_ls_identities():
    rng = np.random.default_rng(105)
    cases = [
        (np.ones(6) / 6, 0.0),                                   # Q < 0
        (np.array([0.2, 0.2, 0.2, 0.2, 0.2, 0.0]), 0.0),         # xi = (1/5, 1/5, 0, 0)
        (np.array([1.0, 0, 0, 0, 0, 0]), 1.0),                   # p_e = 1
    ]
    while len(cases) < 200:
        lam = random_spectrum(rng)
        cases.append((lam, physical_entanglement(lam, rng.uniform())))
    worst_recon = worst_ent = worst_neg = 0.0
    for lam, e in cases:
        rho, _ = build_epu_min_tgx(lam, e)
        dec = ls_explicit(lam, e)
        recon = dec.p_e * dec.rho_e + (1 - dec.p_e) * dec.rho_s
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - rho))))
        expected = e
        xi_val = max(0.0, dec.xi[0] - dec.xi[1] - dec.xi[2] - dec.xi[3])
        worst_ent = max(
            worst_ent,
            abs(entangled_part_value(dec) - xi_val),
            abs(xi_val - expected),
        )
        if dec.p_e < 1 - 1e-12:
            worst_neg = max(worst_neg, _negativity_unchecked(dec.rho_s))
    xi_deg = xi_explicit((0.2, 0.2, 0.2, 0.2, 0.2, 0.0), 0.0)
    deg_ok = np.allclose(xi_deg, [0.2, 0.2, 0, 0], atol=1e-12)
    pe_pure = ls_explicit((1, 0, 0, 0, 0, 0), 1.0).p_e
    ok = (
        worst_recon <= 1e-9
        and worst_ent <= 1e-9
        and worst_neg <= 1e-8
        and deg_ok
        and abs(pe_pure - 1.0) < 1e-12
    )
    report(
        "criterion 5: optimal-split identities (200 cases)",
        ok,
        f"recon={worst_recon:.2e} ent={worst_ent:.2e} neg={worst_neg:.2e}",
    )


def test_criterion_6_cross_route_oracle():
    rng = np.random.default_rng(106)
    worst_pe = worst_xi = 0.0
    for k in range(100):
        lam = random_spectrum(rng)
        if k % 5 == 0:
            e = max(0.0, e_mems(lam))  # Q = 0 boundary
        else:
            e = physical_entanglement(lam, rng.uniform())
        rho, _ = build_epu_min_tgx(lam, e)
        num = ls_numeric(rho)
        exp = ls_explicit(lam, e)
        worst_pe = max(worst_pe, abs(num.p_e - exp.p_e))
        worst_xi = max(
            worst_xi, float(np.max(np.abs(np.sort(num.xi) - np.sort(exp.xi))))
        )
    ok = worst_pe <= 1e-8 and worst_xi <= 1e-8
    report(
        "criterion 6: numeric vs closed-form split (100 states)",
        ok,
        f"p_e={worst_pe:.2e} xi={worst_xi:.2e}",
    )


def test_criterion_7_pure_state_equivalence():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(500):
        psi = random_ket(rng)
        vec = subspace_concurrence_vector(np.outer(psi, psi.conj()))
        worst = max(worst, abs(float(np.linalg.norm(vec)) - reduction_purity_entanglement(psi)))
    ok = worst <= 1e-10
    report("criterion 7: pure-state formula equivalence (500 kets)", ok, f"res={worst:.2e}")


def test_criterion_8_two_qubit_formulas():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        rho = random_x_state(rng)
        worst = max(worst, abs(concurrence_2x2(rho) - x_concurrence(rho)))
    worst_spec = worst_conc = 0.0
    for _ in range(200):
        lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        cap = max(0.0, lam[0] - lam[2] - 2 * np.sqrt(lam[1] * lam[3]))
        c = rng.uniform() * cap
        rho = build_epu_x_2x2(lam, c)
        worst_spec = max(
            worst_spec, float(np.max(np.abs(hermitian_eig(rho).values - lam)))
        )
        expected = c
        worst_conc = max(worst_conc, abs(x_concurrence(rho) - expected))
    ok = worst <= 1e-9 and worst_spec <= 1e-9 and worst_conc <= 1e-9
    report(
        "criterion 8: two-qubit formula cross-checks",
        ok,
        f"x_vs_full={worst:.2e} spec={worst_spec:.2e} conc={worst_conc:.2e}",
    )


def test_criterion_9_angle_inversion():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(1000):
        lam = random_spectrum(rng, rank=6)
        e = physical_entanglement(lam, rng.uniform())
        worst = max(worst, abs(e_alpha_beta(lam, alpha_solve(lam, e), 0.0) - e))
    ok = worst <= 1e-10
    report("criterion 9: angle inversion round-trip (1000 spectra)", ok, f"res={worst:.2e}")


def test_criterion_10_generalized_concurrence_bound():
    rng = np.random.default_rng(110)
    worst = -np.inf
    for _ in range(100):
        lam = random_spectrum(rng)
        bound = gen_concurrence_max(lam)
        val = sampled_gen_preconcurrence(lam, 10_000, seed=int(rng.integers(2**31)))
        worst = max(worst, val - bound)
    demo = (0.4, 0.3, 0.2, 0.1, 0, 0)
    demo_ok = (
        abs(gen_concurrence_max(demo) - 0.3) < 1e-12 and abs(e_mems(demo) - 0.4) < 1e-12
    )
    ok = worst <= 1e-9 and demo_ok
    report(
        "criterion 10: generalized-concurrence spectral bound",
        ok,
        f"worst_excess={worst:.2e} bound(0.4,0.3,0.2,0.1)=0.3 vs e_mems=0.4",
    )


def test_criterion_11_invariance_suites():
    rng = np.random.default_rng(111)
    lpus = enumerate_lpus()
    worst_lpu = 0.0
    for _ in range(200):
        lam = random_spectrum(rng)
        rho = build_alpha_beta(lam, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
        ref = min_tgx_i_concurrence(rho)
        for u in lpus:
            worst_lpu = max(worst_lpu, abs(min_tgx_i_concurrence(u @ rho @ u.T) - ref))
    worst_lu = 0.0
    for _ in range(500):
        psi = random_ket(rng)
        u_lu = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
        worst_lu = max(worst_lu, abs(pure_i_concurrence(u_lu @ psi) - pure_i_concurrence(psi)))
    ok = worst_lpu <= 1e-10 and worst_lu <= 1e-10
    report(
        "criterion 11: permutation and local-unitary invariance",
        ok,
        f"lpu={worst_lpu:.2e} lu={worst_lu:.2e}",
    )
