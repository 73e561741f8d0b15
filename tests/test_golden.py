"""Pinned outputs of the sampling routines.

One sha256 covers the gen-preconcurrence Monte Carlo and the D >= 3
minimum-average search on fixed inputs, at sample and trial counts on
both sides of the batch boundaries that the code has used (2048 and
4096).  Their streams do not depend on the batching, so a change of
batch size, threading or screen must leave the digest as it is; an
intended output change updates it and says so.
"""

import hashlib
import struct

import pytest

from qqent import haar_unitary, measures, min_average_search, sampled_gen_preconcurrence

#: one spectrum per rank 1-6
SPECTRA = (
    (1.0, 0, 0, 0, 0, 0),
    (0.7, 0.3, 0, 0, 0, 0),
    (0.5, 0.3, 0.2, 0, 0, 0),
    (0.4, 0.3, 0.2, 0.1, 0, 0),
    (0.35, 0.25, 0.2, 0.12, 0.08, 0),
    (0.35, 0.25, 0.18, 0.12, 0.07, 0.03),
)
SAMPLES = (1, 2047, 2048, 2049, 4096, 4097, 10000)
SEEDS = (0, 1)
SEARCH_DS = (3, 4, 5, 6)
SEARCH_BUDGETS = (1, 2048, 5000)

#: Recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (Haswell kernels).
#: The values pass through LAPACK (QR, SVD, eigvalsh), whose last bits can
#: differ on another CPU or OpenBLAS build, so a mismatch there need not
#: mean a wrong answer: compare with the same numpy build first.
SAMPLING_SHA256 = "6fb30797ade582af9088e5fbd92e4baf72d959a0523ffbfb5032d5e0c7bf0d1b"


def sampling_digest():
    h = hashlib.sha256()
    for lam in SPECTRA:
        for seed in SEEDS:
            for samples in SAMPLES:
                h.update(struct.pack("<d", sampled_gen_preconcurrence(lam, samples, seed)))
    v = haar_unitary(6, 7)
    rho = (v[:, :3] * SPECTRA[2][:3]) @ v[:, :3].conj().T  # a dense rank-3 state
    for d in SEARCH_DS:
        for budget in SEARCH_BUDGETS:
            best, params = min_average_search(rho, d, budget, seed=5)
            h.update(struct.pack("<d", best) + repr(params).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cpus", (1, 2))
def test_sampling_outputs_pinned(cpus, monkeypatch):
    # with and without the helper thread that draws ahead
    monkeypatch.setattr(measures, "_usable_cpus", lambda: cpus)
    assert sampling_digest() == SAMPLING_SHA256
