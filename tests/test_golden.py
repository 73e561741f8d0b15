"""Pinned outputs: one sha256 per public function and per CLI subcommand.

``tests/golden.json`` maps each key, a public function of qqent or a
``qqent`` command, to the sha256 of its outputs over the fixed, seeded
input set below, and names the numpy and OpenBLAS build it was recorded
under.  An input that a function refuses adds the name of its error type to
the digest, so the form and validation gates are pinned with the values.
The sampling keys run sample and trial counts at and on both sides of the
batch boundaries that the code has used (2048 and 4096), and over five
batches (10000), each over seeds 0 and 1; their streams do not depend on
the batching, so a change of batch size, threading or screen leaves them
as they are.

An intended output change rewrites the file (``PYTHONPATH=src python
tests/test_golden.py``) and names each key it moved.  The values pass
through LAPACK, whose last bits differ between OpenBLAS cores, so a
mismatch need not mean a wrong answer: compare on the build and core that
golden.json names first.  The digest tests carry the ``digest`` marker.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import qqent as qq
from qqent import cli
from qqent._invariants import VERIFY_NEGATIVITY_TOL, VERIFY_TOL, _ls_residuals
from qqent.cli import state_to_wire
from qqent.errors import QQEntError

from conftest import blas_platform

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: one spectrum per rank 1-6
SPECTRA = (
    (1.0, 0, 0, 0, 0, 0),
    (0.7, 0.3, 0, 0, 0, 0),
    (0.5, 0.3, 0.2, 0, 0, 0),
    (0.4, 0.3, 0.2, 0.1, 0, 0),
    (0.35, 0.25, 0.2, 0.12, 0.08, 0),
    (0.35, 0.25, 0.18, 0.12, 0.07, 0.03),
)
#: degenerate spectra, and spectra with a level at, above and below RANK_TOL (1e-12)
EDGE_SPECTRA = (
    (0.5, 0.5, 0, 0, 0, 0),
    (0.25, 0.25, 0.25, 0.25, 0, 0),
    (0.2, 0.2, 0.2, 0.2, 0.2, 0),
    (1 / 6,) * 6,
    (0.4, 0.2, 0.2, 0.1, 0.1, 0),
    (0.5, 0.5 - 2e-12, 2e-12, 0, 0, 0),
    (0.5, 0.5 - 1e-12, 1e-12, 0, 0, 0),
    (0.5, 0.5 - 5e-13, 5e-13, 0, 0, 0),
    (0.4, 0.3, 0.2, 0.1 - 2e-12, 1e-12, 1e-12),
)
ALL_SPECTRA = SPECTRA + EDGE_SPECTRA
#: fractions of the family's cap, max{0, e_mems}
ETAS = (0.0, 0.5, 1.0)
ANGLES = ((0.0, 0.0), (0.3, 0.7), (np.pi / 4, 0.0), (np.pi / 2, np.pi / 2))
SPECTRA_4 = ((1.0, 0, 0, 0), (0.7, 0.3, 0, 0), (0.5, 0.3, 0.2, 0), (0.4, 0.3, 0.2, 0.1),
             (0.25, 0.25, 0.25, 0.25), (0.6, 0.2, 0.2, 0))
#: lam1 of the rank-2 ceiling witness family
WITNESS_LAM1 = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99)

SAMPLES = (1, 2047, 2048, 2049, 4096, 4097, 10000)
SEEDS = (0, 1)
SEARCH_DS = (3, 4, 5, 6)
SEARCH_BUDGETS = (1, 2048, 5000)
ROW_BUDGETS = (1, 2048, 2049, 5000)
SAMPLE_ARGV = ("--D", "4", "--budget", "4097", "--seed", "3")


# -- the input set ---------------------------------------------------------

def hermitize(rho):
    return (rho + rho.conj().T) / 2


def dense_state(lam, seed):
    v = qq.haar_unitary(6, seed)
    return hermitize((v * np.asarray(lam, dtype=float)) @ v.conj().T)


def dense_rank3():
    v = qq.haar_unitary(6, 7)
    return (v[:, :3] * SPECTRA[2][:3]) @ v[:, :3].conj().T


def quartet_rotated(rho, u4, k=1):
    """rho with u4 applied on the levels of quartet k (0-based into QUARTETS)."""
    idx = np.array(qq.quartets()[k]) - 1
    big = np.eye(6, dtype=complex)
    big[np.ix_(idx, idx)] = u4
    return hermitize(big @ rho @ big.conj().T)


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def with_outside_coherence(rho, fraction):
    """rho with a real coherence on levels (2, 5), the pair outside quartet
    {1,3,4,6}, at ``fraction`` of its bound sqrt(rho22 rho55)."""
    rho = rho.copy()
    rho[1, 4] = rho[4, 1] = fraction * np.sqrt(rho[1, 1].real * rho[4, 4].real)
    return rho


def witness(lam1):
    """lam1 |psi1><psi1| + (1 - lam1) |psi2><psi2|, psi1 on levels 1, 5 and
    psi2 on 2, 6: the ceiling witness family."""
    psi = np.zeros((2, 6))
    psi[0, [0, 4]] = psi[1, [1, 5]] = 1 / np.sqrt(2)
    return (psi.T * (lam1, 1 - lam1)) @ psi


def epu(lam, eta):
    return qq.build_epu_min_tgx(lam, eta * qq.mems_entanglement(lam))[0]


def template_bases():
    """Minimal TGX and minimal SGX states in quartet {1,3,4,6}: the LPUs take
    each to the other quartets and X positions.  The EPU states have
    xi3 = xi4 = sqrt(lam4 lam6), a degenerate pair (a zero pair at rank <= 4);
    a local rotation of the quartet keeps the xi values and makes it dense,
    real for a real rotation, complex for a Haar one."""
    rank6, rank4 = SPECTRA[5], SPECTRA[3]
    flat = EDGE_SPECTRA[1]
    local = np.kron(qq.haar_unitary(2, 31), qq.haar_unitary(2, 32))
    return (
        epu(rank6, 0.5), epu(rank4, 1.0), epu(flat, 0.0),
        qq.build_alpha_beta(rank6, 0.3, 0.7),
        with_outside_coherence(quartet_rotated(epu(rank6, 0.5),
                                               np.kron(rotation(0.4), rotation(1.1))), 0.6),
        quartet_rotated(epu(rank4, 0.5), local),
        with_outside_coherence(quartet_rotated(epu(rank6, 1.0), qq.haar_unitary(4, 33)), -0.3),
    )


def states_6():
    """The 6x6 inputs: dense and diagonal states of every spectrum, the
    canonical EPU states, the template states under the 12 LPUs, and the
    ceiling witness family."""
    out = []
    for i, lam in enumerate(ALL_SPECTRA):
        out += [dense_state(lam, 100 + i), np.diag(np.asarray(lam, dtype=complex))]
        out += [epu(lam, eta) for eta in ETAS]
    lpus = qq.enumerate_lpus()
    out += [hermitize(u @ rho @ u.T) for rho in template_bases() for u in lpus]
    out += [witness(lam1) for lam1 in WITNESS_LAM1]
    return out


def states_4():
    """The 4x4 inputs: seeded X states, the built two-qubit family, one dense state."""
    rng = np.random.default_rng(41)
    out = []
    for _ in range(8):
        d = rng.dirichlet(np.ones(4))
        m = np.diag(d).astype(complex)
        m[0, 3] = rng.uniform() * np.sqrt(d[0] * d[3]) * np.exp(2j * np.pi * rng.uniform())
        m[1, 2] = rng.uniform() * np.sqrt(d[1] * d[2]) * np.exp(2j * np.pi * rng.uniform())
        out.append(m + np.triu(m, 1).conj().T)
    out += [qq.build_epu_x_2x2(lam, eta * cap_2x2(lam)) for lam in SPECTRA_4 for eta in ETAS]
    v = qq.haar_unitary(4, 42)
    out.append(hermitize((v * [0.4, 0.3, 0.2, 0.1]) @ v.conj().T))
    return out


def cap_2x2(lam):
    l1, l2, l3, l4 = lam
    return max(0.0, l1 - l3 - 2 * np.sqrt(l2 * l4))


def symmetric_matrices():
    """Seeded complex symmetric T = W diag(s) W^T, and real symmetric
    O diag(w) O^T with +-w pairs, zero pairs and rank deficiency."""
    rng = np.random.default_rng(51)
    out = []
    for n in (1, 2, 3, 4, 6):
        for w in (rng.uniform(-1, 1, n), np.r_[rng.uniform(0.1, 1, n // 2), np.zeros(n - n // 2)]):
            o = np.linalg.qr(rng.standard_normal((n, n)))[0]
            out.append((o * w) @ o.T)
            s = np.abs(w)
            u = qq.haar_unitary(n, rng) if n > 1 else np.exp(2j * np.pi * rng.uniform(size=(1, 1)))
            out.append((u * s) @ u.T)
    a, b = rng.uniform(0.1, 1, 2)
    for w in ((a, -a, b, -b), (a, -a, 0, 0), (a, a, -a, 0), (0, 0, 0, 0)):
        o = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        out.append((o * np.array(w)) @ o.T)
    out.append(np.diag([-2.0, 1.0]))
    return [(t + t.T) / 2 for t in out]


# -- hashing ---------------------------------------------------------------

def feed(h, out):
    """Add one output to the hash: dataclasses field by field, sequences item
    by item, arrays and numbers by dtype, shape and bytes."""
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, (list, tuple)):
        h.update(b"[%d" % len(out))
        for v in out:
            feed(h, v)
    elif out is None or isinstance(out, (bool, int, str)):
        h.update(repr(out).encode())
    else:
        a = np.asarray(out)
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def calls(fn, *arg_lists):
    """sha256 of fn over the zipped argument lists; a refused call adds its error type."""
    h = hashlib.sha256()
    for args in zip(*arg_lists):
        try:
            feed(h, fn(*args))
        except QQEntError as exc:
            h.update(type(exc).__name__.encode())
    return h.hexdigest()


def over(fn, inputs, *extra):
    return calls(lambda x: fn(x, *extra), inputs)


def once(fn):
    return calls(lambda _: fn(), [None])


def per_quartet(fn, rhos):
    return calls(fn, [r for r in rhos for _ in range(3)], [q for _ in rhos for q in qq.quartets()])


def spectral(fn, with_e=False):
    """fn over every spectrum, and with E = eta * cap for every eta when ``with_e``."""
    if not with_e:
        return over(fn, ALL_SPECTRA)
    pairs = [(lam, eta * qq.mems_entanglement(lam)) for lam in ALL_SPECTRA for eta in ETAS]
    return calls(fn, *zip(*pairs))


def taus(rhos):
    out = []
    for rho in rhos:
        for q in qq.quartets():
            try:
                out.append(qq.tau_matrix(rho, q))
            except QQEntError:
                pass
    return out


def cli_digest(argvs, files=()):
    """sha256 of the exit code, stdout and stderr of ``qqent`` on each argv,
    run in the working directory after writing ``files`` (name, document)."""
    for name, doc in files:
        Path(name).write_text(json.dumps(doc))
    h = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        feed(h, [code, out.getvalue(), err.getvalue()])
    return h.hexdigest()


def state_files(rhos, dims=(2, 3), prefix="s"):
    return [(f"{prefix}{i}.json", state_to_wire(rho, dims)) for i, rho in enumerate(rhos)]


def ls_cli_digest(route, rhos):
    files = state_files(rhos)
    return cli_digest([("ls", name, "--route", route) for name, _ in files], files)


def sampled_digest():
    return calls(qq.sampled_gen_preconcurrence,
                 *zip(*[(lam, n, s) for lam in SPECTRA for s in SEEDS for n in SAMPLES]))


def search_digest():
    rho = dense_rank3()
    args = [(rho, d, b, 5) for d in SEARCH_DS for b in SEARCH_BUDGETS]
    args += [(witness(lam1), 2, 400, 0) for lam1 in WITNESS_LAM1]
    return calls(qq.min_average_search, *zip(*args))


def rows_digest():
    h = hashlib.sha256()
    args = [(dense_rank3(), d, b, s) for d in SEARCH_DS for b in ROW_BUDGETS for s in SEEDS]
    args += [(witness(0.7), 2, 400, 0), (witness(0.7), 1, None, 0), (SPECTRA[1], 2, 1, 0)]
    for rho, d, budget, seed in args:
        try:
            index, params, avg = zip(*qq.iter_decomposition_samples(rho, d, budget, seed))
            feed(h, [np.array(index), np.array(params), np.array(avg)])
        except QQEntError as exc:
            feed(h, type(exc).__name__)
    return h.hexdigest()


def sample_cli_digest():
    argvs = [("sample", "rank3.json", *SAMPLE_ARGV, "--format", fmt) for fmt in ("csv", "json")]
    argvs += [("sample", "w.json", "--D", "2", "--budget", "100")]
    return cli_digest(argvs, [("rank3.json", state_to_wire(dense_rank3(), (2, 3))),
                              ("w.json", state_to_wire(witness(0.8), (2, 3)))])


def digests():
    """key -> a function of no arguments that returns that key's sha256."""
    s6, s4 = states_6(), states_4()
    lpus = qq.enumerate_lpus()
    templates = [hermitize(u @ rho @ u.T) for rho in template_bases() for u in lpus[::3]]
    canonical = [epu(lam, 0.5) for lam in ALL_SPECTRA]
    mixer = qq.haar_unitary(6, 61)
    rng = np.random.default_rng(62)
    kets = qq.me_tgx_states() + [z / np.linalg.norm(z) for z in
                                 rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))]
    measure_files = state_files(s6[::8]) + state_files(s4, (2, 2), "x")
    construct = [("construct", "epu-min-tgx", "--spectrum", ",".join(map(repr, lam)),
                  "--eta", "0.5") for lam in ALL_SPECTRA]
    construct += [("construct", "mems", "--spectrum", "0.4,0.3,0.2,0.1,0,0"),
                  ("construct", "alpha-beta", "--spectrum", "0.4,0.3,0.2,0.1,0,0",
                   "--alpha", "0.3", "--beta", "0.7"),
                  ("construct", "epu-x-2x2", "--spectrum", "0.5,0.3,0.2,0", "--eta", "1"),
                  ("construct", "epu-min-tgx", "--spectrum", "0.5,0.5,0,0,0,0",
                   "--entanglement", "0.8")]
    return {
        "alpha_solve": lambda: spectral(qq.alpha_solve, True),
        "average_entanglement": lambda: over(
            lambda r: qq.average_entanglement(qq.decompose(r, mixer)), s6),
        "build_alpha_beta": lambda: calls(
            qq.build_alpha_beta, *zip(*[(lam, a, b) for lam in ALL_SPECTRA for a, b in ANGLES])),
        "build_epu_min_tgx": lambda: spectral(qq.build_epu_min_tgx, True),
        "build_epu_x_2x2": lambda: calls(qq.build_epu_x_2x2, *zip(
            *[(lam, eta * cap_2x2(lam)) for lam in SPECTRA_4 for eta in ETAS])),
        "build_mems": lambda: spectral(qq.build_mems),
        "classify": lambda: over(qq.classify, s6),
        "concurrence_2x2": lambda: over(qq.concurrence_2x2, s4),
        "decompose": lambda: over(qq.decompose, s6, mixer),
        "e_alpha_beta": lambda: calls(
            qq.e_alpha_beta, *zip(*[(lam, a, b) for lam in ALL_SPECTRA for a, b in ANGLES])),
        "e_mems": lambda: spectral(qq.e_mems),
        "enumerate_lpus": lambda: once(qq.enumerate_lpus),
        "epu_unitary": lambda: calls(
            qq.epu_unitary, s6, [u @ r @ u.T for r, u in zip(s6, qq.enumerate_lpus() * 30)]),
        "gen_concurrence_max": lambda: spectral(qq.gen_concurrence_max),
        "haar_unitary": lambda: calls(qq.haar_unitary, *zip(
            *[(d, s, c) for d in range(2, 9) for s in (0, 9) for c in (None, 1, 3)])),
        "hermitian_eig": lambda: over(qq.hermitian_eig, s6 + s4),
        "iter_decomposition_samples": rows_digest,
        "ls_explicit": lambda: spectral(qq.ls_explicit, True),
        "ls_numeric": lambda: over(qq.ls_numeric, s6),
        "me_tgx_states": lambda: once(qq.me_tgx_states),
        "mems_entanglement": lambda: spectral(qq.mems_entanglement),
        "min_average_search": search_digest,
        "min_sgx_i_concurrence": lambda: over(qq.min_sgx_i_concurrence, s6),
        "min_tgx_i_concurrence": lambda: over(qq.min_tgx_i_concurrence, s6),
        "mixer_2": lambda: calls(qq.mixer_2, *zip(
            *[(t, p) for t in (0.0, 0.4, np.pi / 2) for p in (0.0, 1.0, 2 * np.pi - 1e-9)])),
        "partial_transpose_negativity": lambda: over(qq.partial_transpose_negativity, s6),
        "physical_entanglement": lambda: calls(
            qq.physical_entanglement, *zip(*[(lam, eta) for lam in ALL_SPECTRA for eta in ETAS])),
        "pure_i_concurrence": lambda: over(qq.pure_i_concurrence, kets),
        "quartet_x_concurrence": lambda: per_quartet(qq.quartet_x_concurrence, s6),
        "quartets": lambda: once(qq.quartets),
        "rank_of": lambda: over(qq.rank_of, s6 + s4),
        "sampled_gen_preconcurrence": sampled_digest,
        "spin_flip_operator": lambda: over(qq.spin_flip_operator, qq.quartets()),
        "subspace_concurrence_vector": lambda: over(qq.subspace_concurrence_vector, s6),
        "subspace_extract": lambda: calls(
            qq.subspace_extract, s6 * 2, [(1, 3, 4, 6)] * len(s6) + [(2, 5)] * len(s6)),
        "takagi_symmetric": lambda: over(qq.takagi_symmetric, taus(s6) + symmetric_matrices()),
        "tau_matrix": lambda: per_quartet(qq.tau_matrix, s6),
        "wootters_xkets_explicit": lambda: spectral(qq.wootters_xkets_explicit, True),
        "x_concurrence": lambda: over(qq.x_concurrence, s4),
        "xi_explicit": lambda: spectral(qq.xi_explicit, True),
        "xi_explicit_2x2": lambda: calls(qq.xi_explicit_2x2, *zip(
            *[(lam, eta * cap_2x2(lam)) for lam in SPECTRA_4 for eta in ETAS])),
        "qqent construct": lambda: cli_digest(construct),
        "qqent measure": lambda: cli_digest(
            [("measure", name) for name, _ in measure_files], measure_files),
        "qqent ls --route explicit": lambda: ls_cli_digest("explicit", canonical + templates[:8]),
        "qqent ls --route numeric": lambda: ls_cli_digest("numeric", templates + s6[:10]),
        "qqent sample": sample_cli_digest,
        "qqent verify": lambda: cli_digest(
            [("verify", suite, "--trials", "20", "--seed", str(seed))
             for suite in ("epu", "ls", "formulas") for seed in (0, 1)]
            + [("verify", "genconc", "--trials", "3", "--seed", "2")]),
    }


DIGESTS = digests()
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {"sha256": {}}


def recorded(key):
    return GOLDEN["sha256"].get(key), f"recorded under {GOLDEN.get('platform')}, " \
                                      f"running under {blas_platform()}"


def test_every_public_function_and_subcommand_has_a_key():
    functions = {name for name in qq.__all__ if not isinstance(getattr(qq, name), type)}
    actions = cli.build_parser()._actions
    commands = set(next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices)
    keys = set(DIGESTS)
    assert keys == set(GOLDEN["sha256"])
    assert {k for k in keys if not k.startswith("qqent ")} == functions
    assert {k.split()[1] for k in keys if k.startswith("qqent ")} == commands


@pytest.mark.digest
@pytest.mark.parametrize("key", sorted(set(DIGESTS) - {
    "sampled_gen_preconcurrence", "min_average_search", "iter_decomposition_samples",
    "qqent sample"}))
def test_outputs_pinned(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest, where = recorded(key)
    assert DIGESTS[key]() == digest, where


@pytest.mark.digest
@pytest.mark.parametrize("calls", (1, 2))
def test_sampling_outputs_pinned(calls):
    # each run in one process gives the digest: no call leaves state behind
    for _ in range(calls):
        for key in ("sampled_gen_preconcurrence", "min_average_search"):
            digest, where = recorded(key)
            assert DIGESTS[key]() == digest, (key, where)


@pytest.mark.digest
def test_search_rows_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for key in ("iter_decomposition_samples", "qqent sample"):
        digest, where = recorded(key)
        assert DIGESTS[key]() == digest, (key, where)


def test_ls_numeric_residuals_on_golden_inputs():
    # every input that the numeric split takes, with an independent target
    for rho in states_6():
        try:
            dec = qq.ls_numeric(rho)
        except QQEntError:
            continue
        res = _ls_residuals(rho, dec, qq.min_sgx_i_concurrence(rho))
        assert res["reconstruction"] <= VERIFY_TOL and res["optimality"] <= VERIFY_TOL, res
        assert res["separable_negativity"] <= VERIFY_NEGATIVITY_TOL, res


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            sha = {key: DIGESTS[key]() for key in sorted(DIGESTS)}
        finally:
            os.chdir(cwd)
    GOLDEN_PATH.write_text(json.dumps({"platform": blas_platform(), "sha256": sha}, indent=2)
                           + "\n")
    print(f"wrote {len(sha)} keys to {GOLDEN_PATH}")
