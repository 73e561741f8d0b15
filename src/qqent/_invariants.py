"""The invariants that ``qqent verify`` checks, each suite a per-trial function
``trial(rng) -> (residuals, detail)`` with a limit per residual, and the
residuals of an LS split, which ``qqent ls`` also reports."""

import numpy as np

from .ls import ls_explicit
from .measures import concurrence_2x2, gen_concurrence_max, min_tgx_i_concurrence
from .measures import pure_i_concurrence, sampled_gen_preconcurrence, x_concurrence
from .numerics import RANK_TOL, _hermitian_eig_unchecked, _negativity_unchecked, hermitian_eig
from .states import _LPUS, _e_mems, _physical_pair_2x2, build_alpha_beta, build_epu_min_tgx
from .states import build_epu_x_2x2, physical_entanglement

#: LS weight p_E counted as 0 (or 1) by the LS residuals (qqent ls, verify ls)
LS_WEIGHT_TOL = 1e-12
#: verify suites: residual limit, and the separable remainder's negativity limit
VERIFY_TOL = 1e-9
VERIFY_NEGATIVITY_TOL = 1e-8
#: verify formulas: pure-state consistency and LPU invariance
VERIFY_FORMULA_TOL = 1e-10


def _ls_residuals(rho, dec, target):
    """Residuals of the LS split ``dec`` of ``rho``: reconstruction, |p_E E(rho_E) - target|
    with ``target`` an independent value of rho's I-concurrence (the split's
    own xi would move with it), and the negativity of the separable remainder."""
    recon = dec.p_e * dec.rho_e + (1.0 - dec.p_e) * dec.rho_s
    if dec.p_e > LS_WEIGHT_TOL:
        top = _hermitian_eig_unchecked(dec.rho_e, RANK_TOL).vectors[:, 0]
        optimality = abs(dec.p_e * pure_i_concurrence(top) - target)
    else:
        optimality = abs(target)
    neg = 0.0 if dec.p_e >= 1.0 - LS_WEIGHT_TOL else _negativity_unchecked(dec.rho_s)
    return {
        "reconstruction": float(np.max(np.abs(recon - rho))),
        "optimality": float(optimality),
        "separable_negativity": float(neg),
    }


def _random_spectrum(rng, n=6, rank=None):
    """n descending Dirichlet eigenvalues, zero past ``rank`` (drawn in 1..n if None)."""
    rank = int(rng.integers(1, n + 1)) if rank is None else rank
    lam = np.zeros(n)
    lam[:rank] = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    return lam


def _random_epu(rng):
    """A random spectrum, a physical E for it, and the EPU-minimal TGX state of both."""
    lam = _random_spectrum(rng)
    e = physical_entanglement(lam, rng.uniform())
    return lam, e, build_epu_min_tgx(lam, e)[0]


def _trial_epu(rng):
    lam, e, rho = _random_epu(rng)
    residuals = {
        "spectrum": float(np.max(np.abs(hermitian_eig(rho).values - lam))),
        "entanglement": abs(min_tgx_i_concurrence(rho) - e),
    }
    return residuals, f"spectrum={lam.tolist()} E={e}"


def _trial_ls(rng):
    lam, e, rho = _random_epu(rng)
    return _ls_residuals(rho, ls_explicit(lam, e), e), f"spectrum={lam.tolist()} E={e}"


def _trial_formulas(rng):
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi /= np.linalg.norm(psi)
    red = psi.reshape(2, 3) @ psi.reshape(2, 3).conj().T
    oracle = np.sqrt(max(2.0 * (1.0 - float(np.trace(red @ red).real)), 0.0))
    lam4 = np.sort(rng.dirichlet(np.ones(4)))[::-1]
    cap = max(0.0, _e_mems(_physical_pair_2x2(lam4, 0.0)[0]))
    rho4 = build_epu_x_2x2(lam4, rng.uniform() * cap)
    lam = _random_spectrum(rng)
    rho = build_alpha_beta(lam, rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2))
    ref = min_tgx_i_concurrence(rho)
    u = _LPUS[int(rng.integers(len(_LPUS)))]
    residuals = {
        "pure_consistency": abs(pure_i_concurrence(psi) - oracle),
        "x_equivalence": abs(concurrence_2x2(rho4) - x_concurrence(rho4)),
        "lpu_invariance": abs(min_tgx_i_concurrence(u @ rho @ u.T) - ref),
    }
    return residuals, ""


def _trial_genconc(rng):
    lam = _random_spectrum(rng)
    val = sampled_gen_preconcurrence(lam, 200, seed=int(rng.integers(2**31)))
    return {"bound_excess": val - gen_concurrence_max(lam)}, f"spectrum={lam.tolist()}"


#: suite name -> (trial function, limit of each residual, in output order)
_SUITES = {
    "epu": (_trial_epu, {"spectrum": VERIFY_TOL, "entanglement": VERIFY_TOL}),
    "ls": (_trial_ls, {"reconstruction": VERIFY_TOL, "optimality": VERIFY_TOL,
                       "separable_negativity": VERIFY_NEGATIVITY_TOL}),
    "formulas": (_trial_formulas, {"pure_consistency": VERIFY_FORMULA_TOL,
                                   "x_equivalence": VERIFY_TOL,
                                   "lpu_invariance": VERIFY_FORMULA_TOL}),
    "genconc": (_trial_genconc, {"bound_excess": VERIFY_TOL}),
}


def _run_suite(suite, trials, seed):
    """(passed, worst value of each residual, offending input); stops at the first
    trial that takes a residual past its limit."""
    trial, limits = _SUITES[suite]
    rng = np.random.default_rng(seed)
    worst = {}
    for t in range(trials):
        residuals, detail = trial(rng)
        for name, value in residuals.items():
            worst[name] = max(worst.get(name, value), value)
        if any(residuals[name] > limit for name, limit in limits.items()):
            return False, worst, f"trial {t}: {detail}" if detail else f"trial {t}"
    return True, worst, ""
