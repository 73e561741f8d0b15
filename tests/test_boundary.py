"""The validation boundary: public functions check their input once, and
the unchecked kernels behind them never check it again.

Every public entry point that takes a density matrix or a spectrum must
reject invalid input with its typed ``ValidationError`` subclass, and the
closed-form and LS entry points must each call a ``_checks`` validator
exactly once per call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qqent as qq
from qqent import _checks, cli, decompositions, ls, measures, numerics, states
from qqent.errors import (
    AngleOutOfRange,
    DTooLarge,
    DTooSmall,
    EtaOutOfRange,
    IndexOutOfRange,
    InvalidBudget,
    InvalidQuartet,
    InvalidSeed,
    InvalidSpectrum,
    InvalidState,
    NotHermitian,
    NotSymmetric,
    NotUnitary,
    UnphysicalEntanglement,
    ValidationError,
)

from conftest import random_density, random_spectrum, rotated_min_sgx

SETTINGS = settings(max_examples=40)

MATRIX_KINDS = ("nan", "inf", "non_hermitian", "trace", "negative", "shape", "empty", "overflow",
                "huge", "non_numeric", "ragged")
SPECTRUM_KINDS = ("nan", "inf", "unsorted", "negative", "sum", "shape", "overflow", "huge",
                  "non_numeric", "ragged")

#: Public entry points taking a 2x3 density matrix; every bad kind is InvalidState.
DENSITY_6 = {
    "classify": qq.classify,
    "matched_sgx_templates": states.matched_sgx_templates,
    "epu_unitary.rho": lambda r: qq.epu_unitary(r, np.eye(6) / 6),
    "epu_unitary.target": lambda r: qq.epu_unitary(np.eye(6) / 6, r),
    "quartet_x_concurrence": lambda r: qq.quartet_x_concurrence(r, (1, 3, 4, 6)),
    "subspace_concurrence_vector": qq.subspace_concurrence_vector,
    "min_tgx_i_concurrence": qq.min_tgx_i_concurrence,
    "min_sgx_i_concurrence": qq.min_sgx_i_concurrence,
    "tau_matrix": lambda r: qq.tau_matrix(r, (1, 3, 4, 6)),
    "ls_numeric": qq.ls_numeric,
    "partial_transpose_negativity": qq.partial_transpose_negativity,
    "decompose": lambda r: qq.decompose(r, np.eye(6)),
    "rank_of": qq.rank_of,
    "min_average_search": lambda r: qq.min_average_search(r, 6, 4),
    "iter_decomposition_samples": lambda r: list(qq.iter_decomposition_samples(r, 6, 4)),
}
#: Public entry points taking a two-qubit density matrix.
DENSITY_4 = {
    "concurrence_2x2": qq.concurrence_2x2,
    "x_concurrence": qq.x_concurrence,
}
#: Public entry points taking a six-level spectrum; every bad kind is InvalidSpectrum.
SPECTRUM_6 = {
    "e_mems": qq.e_mems,
    "mems_entanglement": qq.mems_entanglement,
    "gen_concurrence_max": qq.gen_concurrence_max,
    "physical_entanglement": lambda lam: qq.physical_entanglement(lam, 0.5),
    "build_mems": qq.build_mems,
    "build_epu_min_tgx": lambda lam: qq.build_epu_min_tgx(lam, 0.0),
    "build_alpha_beta": lambda lam: qq.build_alpha_beta(lam, 0.0, 0.0),
    "e_alpha_beta": lambda lam: qq.e_alpha_beta(lam, 0.0, 0.0),
    "alpha_solve": lambda lam: qq.alpha_solve(lam, 0.0),
    "sampled_gen_preconcurrence": lambda lam: qq.sampled_gen_preconcurrence(lam, 1),
    "xi_explicit": lambda lam: qq.xi_explicit(lam, 0.0),
    "wootters_xkets_explicit": lambda lam: qq.wootters_xkets_explicit(lam, 0.0),
    "ls_explicit": lambda lam: qq.ls_explicit(lam, 0.0),
}
#: Public entry points taking a four-level spectrum.
SPECTRUM_4 = {
    "build_epu_x_2x2": lambda lam: qq.build_epu_x_2x2(lam, 0.0),
    "xi_explicit_2x2": lambda lam: qq.xi_explicit_2x2(lam, 0.0),
}


def raised(fn, arg):
    """The ValidationError type ``fn(arg)`` raises, or None; other errors propagate."""
    try:
        fn(arg)
    except ValidationError as exc:
        return type(exc)
    return None


def corrupt_matrix(rng, dim, kind):
    """A dim x dim density matrix broken in one way only."""
    if kind == "empty":
        return np.zeros((0, 0))
    if kind == "negative":
        lam = random_spectrum(rng, dim, rank=dim)
        lam[-1], lam[0] = -1e-9, lam[0] + 1e-9 + lam[-1]
        v = qq.haar_unitary(dim, rng)
        rho = (v * lam) @ v.conj().T
        return (rho + rho.conj().T) / 2
    rho = random_density(rng, dim)
    i, j = (int(k) for k in rng.integers(dim, size=2))
    if kind in ("nan", "inf"):
        rho[i, j] = float(kind)
    elif kind == "overflow":  # a Python int beyond the float range
        rho = rho.astype(object)
        rho[i, j] = 2**1024
    elif kind == "huge":  # two finite diagonal entries whose sum, the trace, overflows
        rho[i, i] = rho[(i + 1) % dim, (i + 1) % dim] = 1e308 if j % 2 else -1e308
    elif kind == "non_numeric":  # numpy's conversion raises ValueError for "x", TypeError for {}
        rho = rho.astype(object)
        rho[i, j] = "x" if j % 2 else {}
    elif kind == "ragged":  # nested lists, one row short
        rho = rho.tolist()
        rho[i] = rho[i][:-1]
    elif kind == "non_hermitian":
        rho[i, (i + 1) % dim] += 1e-6
    elif kind == "trace":
        rho = rho * (1.0 + 1e-9)
    else:
        rho = rho[:, : dim - 1]
    return rho


def corrupt_spectrum(rng, n, kind):
    """A descending n-level spectrum summing to 1, broken in one way only."""
    lam = random_spectrum(rng, n)
    if kind in ("nan", "inf"):
        lam[int(rng.integers(n))] = float(kind)
    elif kind == "overflow":
        lam = lam.astype(object)
        lam[int(rng.integers(n))] = 2**1024
    elif kind == "huge":  # finite, but the sum overflows
        lam[:2] = 1e308
    elif kind == "non_numeric":
        lam = lam.astype(object)
        lam[int(rng.integers(n))] = "x"
    elif kind == "ragged":
        lam = [lam[:1].tolist(), lam[1:].tolist()]
    elif kind == "unsorted":
        lam = lam[::-1]
    elif kind == "negative":
        lam[-1], lam[0] = -1e-9, lam[0] + 1e-9 + lam[-1]
    elif kind == "sum":
        lam[0] += 1e-9
    else:
        lam = lam[: n - 1]
    return lam


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(MATRIX_KINDS))
def test_density_entry_points_reject_invalid_matrices(seed, kind):
    for table, dim in ((DENSITY_6, 6), (DENSITY_4, 4)):
        rho = corrupt_matrix(np.random.default_rng(seed), dim, kind)
        got = {name: raised(fn, rho.copy()) for name, fn in table.items()}
        assert got == dict.fromkeys(table, InvalidState)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SPECTRUM_KINDS))
def test_spectrum_entry_points_reject_invalid_spectra(seed, kind):
    for table, n in ((SPECTRUM_6, 6), (SPECTRUM_4, 4)):
        lam = corrupt_spectrum(np.random.default_rng(seed), n, kind)
        got = {name: raised(fn, lam.copy()) for name, fn in table.items()}
        assert got == dict.fromkeys(table, InvalidSpectrum)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("nan", "inf", "non_hermitian", "shape", "empty", "huge", "non_numeric",
                          "ragged")),
)
def test_kernel_entry_points_reject_invalid_matrices(seed, kind):
    """hermitian_eig and takagi_symmetric check shape, finiteness and symmetry
    (not trace or sign, which a general matrix need not have)."""
    rho = corrupt_matrix(np.random.default_rng(seed), 6, kind)
    if kind == "huge":  # finite +-1e308 entries whose difference in the gates overflows
        rho = np.zeros((6, 6))
        rho[seed % 5, seed % 5 + 1], rho[seed % 5 + 1, seed % 5] = 1e308, -1e308
    if kind in ("non_hermitian", "huge"):
        assert raised(qq.hermitian_eig, rho) is NotHermitian
        assert raised(qq.takagi_symmetric, rho.real) is NotSymmetric
    else:
        assert raised(qq.hermitian_eig, rho) is InvalidState
        as_is = kind in ("shape", "non_numeric", "ragged")
        assert raised(qq.takagi_symmetric, rho if as_is else rho + rho.T) is InvalidState


#: Spectra at the edges of the 1e-12 spectrum check, with the outcome the
#: check has always given: the clipped array (as float.hex, no -0.0 left) or
#: the error message.  "sum" cases sit on either side of 1 +- 1e-12 as numpy
#: sums them.
_T = 1e-12
SPECTRUM_EDGES = {
    "minus_zero": ([0.5, 0.5, 0.0, 0.0, 0.0, -0.0], ["0x1.0p-1", "0x1.0p-1"] + ["0x0.0p+0"] * 4),
    "minus_zeros_inside": (
        [0.5, 0.25, 0.25, -0.0, -0.0, -0.0],
        ["0x1.0p-1", "0x1.0p-2", "0x1.0p-2"] + ["0x0.0p+0"] * 3,
    ),
    "negative_at_tol": ([1.0 + _T, 0, 0, 0, 0, -_T], ["0x1.0000000001198p+0"] + ["0x0.0p+0"] * 5),
    "negative_below_tol": (
        [1.0 + _T, 0, 0, 0, 0, np.nextafter(-_T, -1.0)],
        "spectrum has a negative eigenvalue",
    ),
    "step_at_tol": (
        [1.0 - _T, 0, _T, 0, 0, 0],
        ["0x1.fffffffffdcd1p-1", "0x0.0p+0", "0x1.19799812dea11p-40"] + ["0x0.0p+0"] * 3,
    ),
    "step_above_tol": (
        [1.0 - np.nextafter(_T, 1.0), 0, np.nextafter(_T, 1.0), 0, 0, 0],
        "spectrum is not in descending order",
    ),
    "sum_plus_tol": (
        [0.7 + _T, 0.3, 0, 0, 0, 0],
        ["0x1.6666666668995p-1", "0x1.3333333333333p-2"] + ["0x0.0p+0"] * 4,
    ),
    "sum_minus_tol": (
        [0.7 - _T, 0.3, 0, 0, 0, 0],
        "spectrum sums to np.float64(0.9999999999989999), not 1",
    ),
    "sum_one_plus_tol": (
        [1.0 + _T, 0, 0, 0, 0, 0],
        "spectrum sums to np.float64(1.000000000001), not 1",
    ),
    "sum_one_minus_tol": ([1.0 - _T, 0, 0, 0, 0, 0], ["0x1.fffffffffdcd1p-1"] + ["0x0.0p+0"] * 5),
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_EDGES))
def test_spectrum_edges(name):
    values, expected = SPECTRUM_EDGES[name]
    if isinstance(expected, str):
        with pytest.raises(InvalidSpectrum) as info:
            _checks.as_spectrum(np.array(values), 6)
        assert str(info.value) == expected
        return
    got = _checks.as_spectrum(np.array(values), 6)
    assert got.dtype == np.float64
    assert [float(v).hex() for v in got] == [float.fromhex(h).hex() for h in expected]
    assert not np.signbit(got).any()


#: Mixers that decompose refuses with NotUnitary.  Before, a NaN or inf mixer
#: gave NaN weights, 1e308 I stopped on an overflow warning in the gate, and
#: "x" and ragged rows raised a builtin ValueError.
BAD_MIXERS = {
    "nan": np.where(np.eye(6) > 0, np.nan, 0.0),
    "inf": np.diag(np.full(6, np.inf)),
    "huge": np.eye(6) * 1e308,
    "non_numeric": "x",
    "ragged": [[1.0, 0.0], [0.0]],
    "non_square": np.eye(6)[:, :5],
    "not_unitary": 2.0 * np.eye(6),
}
#: Matrices that subspace_extract refuses with InvalidState; a vector used to
#: raise IndexError, the others a builtin ValueError or a NaN block.
BAD_BLOCK_SOURCES = {
    "vector": [1, 2, 3],
    "non_numeric": "x",
    "ragged": [[1.0, 0.0], [0.0]],
    "nan": np.full((6, 6), np.nan),
    "non_square": np.eye(6)[:, :5],
}
MATRIX_ARGUMENTS = [
    *((f"decompose-{k}", lambda m: qq.decompose(np.eye(6) / 6, m), m, NotUnitary)
      for k, m in BAD_MIXERS.items()),
    *((f"subspace_extract-{k}", lambda m: qq.subspace_extract(m, [1]), m, InvalidState)
      for k, m in BAD_BLOCK_SOURCES.items()),
    # a 0 x 0 mixer passes the unitarity gate and is below every rank (was a ValueError)
    ("decompose-empty", lambda m: qq.decompose(np.eye(6) / 6, m), np.zeros((0, 0)), DTooSmall),
]


@pytest.mark.parametrize("fn, value, error", [c[1:] for c in MATRIX_ARGUMENTS],
                         ids=[c[0] for c in MATRIX_ARGUMENTS])
def test_matrix_arguments_rejected(fn, value, error):
    assert raised(fn, value) is error


#: Quartets that are not a product quartet, and levels that are not 1-based
#: integers.  Before, each raised a builtin TypeError or ValueError, except
#: [1.5, 2.7], which returned the block of levels 1 and 2.
INDEX_ARGUMENTS = [
    ("quartet_x_concurrence-int", lambda q: qq.quartet_x_concurrence(np.eye(6) / 6, q), 5,
     InvalidQuartet),
    ("tau_matrix-None", lambda q: qq.tau_matrix(np.eye(6) / 6, q), None, InvalidQuartet),
    ("spin_flip_operator-int", qq.spin_flip_operator, 5, InvalidQuartet),
    ("subspace_extract-str", lambda v: qq.subspace_extract(np.eye(6) / 6, v), ["x"],
     IndexOutOfRange),
    ("subspace_extract-int", lambda v: qq.subspace_extract(np.eye(6) / 6, v), 3, IndexOutOfRange),
    ("subspace_extract-float", lambda v: qq.subspace_extract(np.eye(6) / 6, v), [1.5, 2.7],
     IndexOutOfRange),
    # a bool or an integral float is not an index, as for seeds and budgets
    ("subspace_extract-bool", lambda v: qq.subspace_extract(np.eye(6) / 6, v), [True, 2],
     IndexOutOfRange),
    ("quartet_x_concurrence-bool", lambda q: qq.quartet_x_concurrence(np.eye(6) / 6, q),
     (True, 3, 4, 6), InvalidQuartet),
    ("spin_flip_operator-float", qq.spin_flip_operator, (1.0, 3.0, 4.0, 6.0), InvalidQuartet),
]


@pytest.mark.parametrize("fn, value, error", [c[1:] for c in INDEX_ARGUMENTS],
                         ids=[c[0] for c in INDEX_ARGUMENTS])
def test_index_arguments_rejected(fn, value, error):
    assert raised(fn, value) is error


def test_index_arguments_accept_ranges_and_numpy_integers():
    rho = random_density(np.random.default_rng(3), 6)
    assert np.array_equal(qq.subspace_extract(rho, range(1, 7)), rho)
    assert np.array_equal(qq.subspace_extract(rho, np.array([2, 5])), rho[np.ix_([1, 4], [1, 4])])
    assert np.array_equal(qq.spin_flip_operator(np.array([1, 2, 4, 5])),
                          qq.spin_flip_operator((1, 2, 4, 5)))


#: Scalar arguments (angle, eta, entanglement, concurrence) that are not a
#: real number in range.  Before, a string, None, a complex number or a list
#: raised a builtin TypeError, and True ran as 1.
BAD_SCALARS = ["x", "0.5", None, 1j, np.complex128(0.5), [0.5], True, 2**1024, float("nan")]
LAM_4 = (0.5, 0.3, 0.2, 0.0)
#: entry point of each scalar argument, with the error it raises
SCALAR_ARGUMENTS = {
    "mixer_2.theta": (lambda x: qq.mixer_2(x, 0.0), AngleOutOfRange),
    "mixer_2.phi": (lambda x: qq.mixer_2(0.0, x), AngleOutOfRange),
    "build_alpha_beta.alpha": (lambda x: qq.build_alpha_beta(LAM_2, x, 0.0), AngleOutOfRange),
    "build_alpha_beta.beta": (lambda x: qq.build_alpha_beta(LAM_2, 0.0, x), AngleOutOfRange),
    "e_alpha_beta.alpha": (lambda x: qq.e_alpha_beta(LAM_2, x, 0.0), AngleOutOfRange),
    "physical_entanglement.eta": (lambda x: qq.physical_entanglement(LAM_2, x), EtaOutOfRange),
    "build_epu_min_tgx.E": (lambda x: qq.build_epu_min_tgx(LAM_2, x), UnphysicalEntanglement),
    "build_epu_x_2x2.C": (lambda x: qq.build_epu_x_2x2(LAM_4, x), UnphysicalEntanglement),
    "xi_explicit.E": (lambda x: qq.xi_explicit(LAM_2, x), UnphysicalEntanglement),
}


@pytest.mark.parametrize("value", BAD_SCALARS, ids=repr)
@pytest.mark.parametrize("name", sorted(SCALAR_ARGUMENTS))
def test_scalar_arguments_rejected(name, value):
    fn, error = SCALAR_ARGUMENTS[name]
    assert raised(fn, value) is error


def test_scalar_arguments_accept_numpy_reals():
    assert qq.mixer_2(np.float64(0.3), np.int64(1)).tolist() == qq.mixer_2(0.3, 1.0).tolist()
    assert qq.physical_entanglement(LAM_2, np.float64(0.5)) == qq.physical_entanglement(LAM_2, 0.5)
    assert np.array_equal(qq.build_alpha_beta(LAM_2, np.float64(0.2), 1),
                          qq.build_alpha_beta(LAM_2, 0.2, 1.0))


#: Public entry points taking a spectrum and an entanglement (or concurrence).
ENTANGLEMENT_ENTRY_POINTS = {
    "build_epu_min_tgx": (qq.build_epu_min_tgx, 6),
    "ls_explicit": (qq.ls_explicit, 6),
    "xi_explicit": (qq.xi_explicit, 6),
    "wootters_xkets_explicit": (qq.wootters_xkets_explicit, 6),
    "alpha_solve": (qq.alpha_solve, 6),
    "build_epu_x_2x2": (qq.build_epu_x_2x2, 4),
    "xi_explicit_2x2": (qq.xi_explicit_2x2, 4),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", sorted(ENTANGLEMENT_ENTRY_POINTS))
def test_non_finite_entanglement_rejected(name, value):
    fn, n = ENTANGLEMENT_ENTRY_POINTS[name]
    lam = [0.7, 0.3, 0, 0, 0, 0] if n == 6 else [0.5, 0.3, 0.2, 0]
    with pytest.raises(UnphysicalEntanglement):
        fn(lam, value)


#: counts that used to be truncated (2.5 ran 2, True ran 1, "12" ran 12) or
#: ended in an untyped ValueError, OverflowError or TypeError
BAD_BUDGETS = [2.5, 3.0, np.float64(3.0), True, False, "12", float("nan"), float("inf"),
               0, -1, np.int64(0), [3]]
LAM_2 = (0.7, 0.3, 0, 0, 0, 0)
RHO_2 = qq.build_epu_min_tgx(LAM_2, 0.5)[0]
#: public entry points taking a sample or trial count
BUDGET_ENTRY_POINTS = {
    "sampled_gen_preconcurrence": lambda n: qq.sampled_gen_preconcurrence(LAM_2, n),
    "min_average_search.grid": lambda n: qq.min_average_search(RHO_2, 2, n),
    "min_average_search.haar": lambda n: qq.min_average_search(RHO_2, 3, n),
    "iter_decomposition_samples": lambda n: list(qq.iter_decomposition_samples(RHO_2, 3, n)),
}


@pytest.mark.parametrize("value", BAD_BUDGETS, ids=repr)
@pytest.mark.parametrize("name", sorted(BUDGET_ENTRY_POINTS))
def test_bad_budgets_rejected(name, value):
    with pytest.raises(InvalidBudget):
        BUDGET_ENTRY_POINTS[name](value)


def test_budget_types():
    assert qq.sampled_gen_preconcurrence(LAM_2, np.int32(5)) == qq.sampled_gen_preconcurrence(
        LAM_2, 5)
    with pytest.raises(InvalidBudget):
        qq.sampled_gen_preconcurrence(LAM_2, None)
    # None is the search default: 900 grid points at D = 2, 1000 trials otherwise
    assert len(list(qq.iter_decomposition_samples(RHO_2, 3, None))) == 1000


#: haar_unitary arguments that used to run truncated (count 2.5 gave 2
#: unitaries, True 1, "3" 3), return an empty stack (count 0) or raise a
#: builtin ValueError or TypeError, with the typed error each raises now
BAD_HAAR_CALLS = {
    "count=2.5": ((4, 0, 2.5), InvalidBudget),
    "count=True": ((4, 0, True), InvalidBudget),
    "count='3'": ((4, 0, "3"), InvalidBudget),
    "count=0": ((4, 0, 0), InvalidBudget),
    "count=-2": ((4, 0, -2), InvalidBudget),
    "dim=1": ((1, 0), DTooSmall),
    "dim=9": ((9, 0), DTooLarge),
    "dim=4.5": ((4.5, 0), ValidationError),
    "dim=True": ((True, 0), ValidationError),
    "seed=-1": ((4, -1), InvalidSeed),
    "seed=1.5": ((4, 1.5), InvalidSeed),
}


@pytest.mark.parametrize("name", sorted(BAD_HAAR_CALLS))
def test_haar_unitary_rejects_bad_arguments(name):
    args, error = BAD_HAAR_CALLS[name]
    assert raised(lambda a: qq.haar_unitary(*a), args) is error


#: D values that a range check alone let through to the wrong error: 4.5
#: raised DTooLarge on this rank-2 state, True DTooSmall, "3" and 3.0 a
#: builtin TypeError
BAD_SEARCH_DS = (4.5, True, "3", 3.0)
SEARCHES = {
    "min_average_search": lambda d: qq.min_average_search(RHO_2, d, 10),
    "iter_decomposition_samples": lambda d: list(qq.iter_decomposition_samples(RHO_2, d, 10)),
}


@pytest.mark.parametrize("d", BAD_SEARCH_DS, ids=repr)
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_rejects_non_integer_d(name, d):
    assert raised(SEARCHES[name], d) is ValidationError


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_accepts_numpy_integer_d(name):
    assert SEARCHES[name](np.int64(3)) == SEARCHES[name](3)


def test_haar_unitary_valid_arguments():
    one = qq.haar_unitary(4, 0)
    assert one.shape == (4, 4)
    assert np.array_equal(qq.haar_unitary(np.int64(4), np.int64(0), count=np.int32(1))[0], one)
    assert np.array_equal(qq.haar_unitary(4, np.random.default_rng(0), count=2)[0], one)
    assert qq.haar_unitary(qq.numerics.HAAR_MAX_DIM, 1).shape == (8, 8)


# -- validate once ------------------------------------------------------------

VALIDATORS = ("as_square_matrix", "as_density_matrix", "density_and_eigvals", "as_spectrum")


@pytest.fixture
def validations(monkeypatch):
    """Count the _checks validator calls made from every module that imports one."""
    calls = []
    for module in (states, measures, ls, numerics, decompositions, cli):
        for name in VALIDATORS:
            if hasattr(module, name):
                real = getattr(_checks, name)

                def counted(*args, _real=real, _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


LAM = np.array([0.4, 0.3, 0.15, 0.1, 0.05, 0.0])
E = 0.8 * qq.mems_entanglement(LAM)
LPU = qq.enumerate_lpus()[5]
TGX = LPU @ qq.build_alpha_beta(LAM, 0.5, 0.9) @ LPU.T
SGX = rotated_min_sgx(qq.build_epu_min_tgx(LAM, E)[0], 7)

ONCE = {
    "classify": lambda: qq.classify(TGX),
    "min_tgx_i_concurrence": lambda: qq.min_tgx_i_concurrence(TGX),
    "min_sgx_i_concurrence": lambda: qq.min_sgx_i_concurrence(SGX),
    "ls_numeric.tgx": lambda: qq.ls_numeric(TGX),
    "ls_numeric.sgx": lambda: qq.ls_numeric(SGX),
    "ls_explicit": lambda: qq.ls_explicit(LAM, E),
    "quartet_x_concurrence": lambda: qq.quartet_x_concurrence(TGX, (1, 2, 4, 5)),
    "tau_matrix": lambda: qq.tau_matrix(SGX, (1, 3, 4, 6)),
    "alpha_solve": lambda: qq.alpha_solve(LAM, E),
    "xi_explicit": lambda: qq.xi_explicit(LAM, E),
    "wootters_xkets_explicit": lambda: qq.wootters_xkets_explicit(LAM, E),
    "build_epu_min_tgx": lambda: qq.build_epu_min_tgx(LAM, E),
    "rank_of": lambda: qq.rank_of(SGX),
}


@pytest.mark.parametrize("name", sorted(ONCE))
def test_validates_once(validations, name):
    ONCE[name]()
    assert len(validations) == 1, validations


def test_rank_of_solves_once(monkeypatch):
    solves = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            solves.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert qq.rank_of(SGX) == 5
    assert solves == ["eigvalsh"]
