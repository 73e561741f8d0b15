"""The residuals and limits that ``qqent verify`` and ``qqent ls`` report,
checked against known errors and against the paper's LS splits."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqent._invariants import _SUITES, _ls_residuals
from qqent.ls import ls_explicit, ls_numeric
from qqent.states import build_epu_min_tgx, enumerate_lpus, physical_entanglement

from conftest import random_spectrum

LAM = np.array([0.35, 0.25, 0.18, 0.12, 0.07, 0.03])
#: the verify ls limit of each LS residual
LS_LIMITS = _SUITES["ls"][1]


def epu_split(eta=0.6):
    """An EPU-minimal TGX state, its I-concurrence and its explicit LS split."""
    e = physical_entanglement(LAM, eta)
    return build_epu_min_tgx(LAM, e)[0], e, ls_explicit(LAM, e)


@pytest.mark.parametrize("delta", [1e-6, -3e-7])
def test_reconstruction_reads_an_entry_error(delta):
    rho, e, dec = epu_split()
    assert 0.0 < dec.p_e < 1.0
    rho_s = dec.rho_s.copy()
    rho_s[1, 4] += delta
    residuals = _ls_residuals(rho, dataclasses.replace(dec, rho_s=rho_s), e)
    assert abs(residuals["reconstruction"] - (1.0 - dec.p_e) * abs(delta)) <= 1e-15
    assert residuals["optimality"] == _ls_residuals(rho, dec, e)["optimality"]


@pytest.mark.parametrize("eps", [1e-7, -2e-9])
def test_optimality_reads_a_target_error(eps):
    rho, e, dec = epu_split()
    assert abs(_ls_residuals(rho, dec, e + eps)["optimality"] - abs(eps)) <= 1e-15


def test_separable_split_reads_the_target():
    # a state with E = 0 splits with p_E = 0, so the optimality is |target| itself
    rho, e, dec = epu_split(eta=0.0)
    assert e == 0.0 and dec.p_e == 0.0
    assert _ls_residuals(rho, dec, 0.25)["optimality"] == 0.25


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 6), eta=st.floats(0.0, 1.0),
       lpu=st.integers(0, 11))
def test_ls_splits_within_verify_limits(seed, rank, eta, lpu):
    # both routes on the paper's construction: the explicit split of the
    # canonical state, the numeric one of an LPU-rotated copy
    lam = random_spectrum(np.random.default_rng(seed), rank=rank)
    e = physical_entanglement(lam, eta)
    rho = build_epu_min_tgx(lam, e)[0]
    u = enumerate_lpus()[lpu]
    rotated = u @ rho @ u.T
    for state, dec in ((rho, ls_explicit(lam, e)), (rotated, ls_numeric(rotated))):
        residuals = _ls_residuals(state, dec, e)
        assert all(residuals[name] <= limit for name, limit in LS_LIMITS.items()), residuals
