"""Pinned outputs of the sampling routines.

One sha256 covers the gen-preconcurrence Monte Carlo and the D >= 3
minimum-average search on fixed inputs, at sample and trial counts on
both sides of the batch boundaries that the code has used (2048 and
4096).  Their streams do not depend on the batching, so a change of
batch size, threading or screen must leave the digest as it is; an
intended output change updates it and says so.  A second sha256 covers
the unscreened D >= 3 rows of iter_decomposition_samples and the stdout
of ``qqent sample`` over them, in CSV and in JSON.
"""

import hashlib
import json
import struct

import pytest

from qqent import (
    cli,
    haar_unitary,
    iter_decomposition_samples,
    min_average_search,
    sampled_gen_preconcurrence,
)
from qqent.cli import state_to_wire

from conftest import blas_platform

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
ROW_BUDGETS = (1, 2048, 2049, 5000)
SAMPLE_ARGV = ("--D", "4", "--budget", "4097", "--seed", "3")

#: Recorded with numpy 2.4.6 on scipy-openblas 0.3.31, whose DYNAMIC_ARCH
#: build ran its SkylakeX kernels (numpy.show_config() names Haswell, the
#: build's baseline target, not the core chosen at run time).  The values
#: pass through LAPACK (QR, SVD, eigvalsh), whose last bits differ between
#: cores: under OPENBLAS_CORETYPE=Haswell both digests fail on the same
#: host.  So a mismatch need not mean a wrong answer: compare on the numpy
#: build and core that the failure message names first.
SAMPLING_SHA256 = "6fb30797ade582af9088e5fbd92e4baf72d959a0523ffbfb5032d5e0c7bf0d1b"
ROWS_SHA256 = "7e25b1c61b5048a653a7eaf5247677aec2f2fa7f61807b04e576f91af536410d"


def dense_rank3():
    v = haar_unitary(6, 7)
    return (v[:, :3] * SPECTRA[2][:3]) @ v[:, :3].conj().T


def sampling_digest():
    h = hashlib.sha256()
    for lam in SPECTRA:
        for seed in SEEDS:
            for samples in SAMPLES:
                h.update(struct.pack("<d", sampled_gen_preconcurrence(lam, samples, seed)))
    rho = dense_rank3()
    for d in SEARCH_DS:
        for budget in SEARCH_BUDGETS:
            best, params = min_average_search(rho, d, budget, seed=5)
            h.update(struct.pack("<d", best) + repr(params).encode())
    return h.hexdigest()


def rows_digest(capsys):
    """The rows, then ``qqent sample`` on rank3.json in the working directory."""
    h = hashlib.sha256()
    rho = dense_rank3()
    for d in SEARCH_DS:
        for budget in ROW_BUDGETS:
            for seed in SEEDS:
                for index, params, avg in iter_decomposition_samples(rho, d, budget, seed):
                    h.update(struct.pack("<qqd", index, *params, avg))
    with open("rank3.json", "w") as fh:
        json.dump(state_to_wire(rho, (2, 3)), fh)
    for fmt in ("csv", "json"):
        assert cli.main(["sample", "rank3.json", *SAMPLE_ARGV, "--format", fmt]) == 0
        h.update(capsys.readouterr().out.encode())
    return h.hexdigest()


@pytest.mark.parametrize("calls", (1, 2))
def test_sampling_outputs_pinned(calls):
    # each run in one process gives the digest: no call leaves state behind
    for _ in range(calls):
        assert sampling_digest() == SAMPLING_SHA256, blas_platform()


def test_search_rows_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert rows_digest(capsys) == ROWS_SHA256, blas_platform()
