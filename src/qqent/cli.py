"""Command-line front end.

Subcommands: construct, measure, ls, sample, verify.  States travel as JSON
documents with complex entries encoded as [re, im] pairs (row-major);
sample streams are CSV.  All floating-point output uses 17 significant
digits so every value round-trips exactly, and identical command lines with
identical seeds produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 input validation,
3 form precondition.
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from ._checks import (
    CANONICAL_FORM_TOL,
    as_budget,
    as_density_matrix,
    as_seed,
    differs,
)
from ._invariants import _SUITES, _ls_residuals, _run_suite
from .decompositions import _search_budget, _search_chunks
from .errors import (
    FormError,
    InvalidOutput,
    InvalidSeed,
    InvalidSpectrum,
    InvalidState,
    NotMinimalSGX,
    NotMinimalTGX,
    NotXForm,
    QQEntError,
    UnphysicalEntanglement,
)
from .ls import _ls_explicit, _ls_numeric
from .measures import (
    _concurrence_block,
    _gen_concurrence_max,
    _min_sgx_i_concurrence,
    _min_tgx_i_concurrence,
    _x_concurrence,
    pure_i_concurrence,
)
from .numerics import RANK_TOL, _hermitian_eig_unchecked, _negativity_unchecked
from .states import (
    _check_physical,
    _classify,
    _e_mems,
    _epu_min_tgx,
    _physical_pair_2x2,
    build_alpha_beta,
    build_epu_min_tgx,
    build_epu_x_2x2,
    build_mems,
    physical_entanglement,
)

PURITY_TOL = 1e-10


# -- deterministic serialization ------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def dumps_json(obj, indent=0):
    """Minimal JSON emitter with floats printed to 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None or isinstance(obj, (bool, str)):  # bool ahead of the int test
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 2)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps_json(v) for v in seq) + "]"
        items = ",\n".join(f"{inner}{dumps_json(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_wire(m):
    m = np.asarray(m, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def state_to_wire(rho, mode_dims):
    return {"mode_dims": list(mode_dims), "matrix": matrix_to_wire(rho)}


def _json_object(doc):
    if not isinstance(doc, dict):
        raise InvalidState(f"malformed state file: a {type(doc).__name__}, not a JSON object")
    return doc


#: the mode_dims a state document may declare: a qubit-qutrit and two qubits
MODE_DIMS = ((2, 3), (2, 2))


def state_from_wire(doc):
    """Parse a state document; accepts a record wrapping one under 'state'.

    A document (or wrapped state) that is not a JSON object, whose
    mode_dims are not the JSON integers [2, 3] or [2, 2], or whose matrix
    holds true, false or an int beyond the float range, raises InvalidState.
    """
    doc = _json_object(doc)
    if "state" in doc and "matrix" not in doc:
        doc = _json_object(doc["state"])
    if isinstance(doc.get("outputs"), dict) and "state" in doc["outputs"]:
        doc = _json_object(doc["outputs"]["state"])
    dims = doc.get("mode_dims")
    # type(v) is int refuses JSON floats, true and false, and strings
    if not (isinstance(dims, (list, tuple)) and [type(v) for v in dims] == [int, int]
            and tuple(dims) in MODE_DIMS):
        raise InvalidState(
            f"unsupported mode_dims {json.dumps(dims, default=repr)}: must be [2, 3] or [2, 2]"
        )
    n1, n2 = dims
    try:
        entries = np.array(
            [complex(re, im) for re, im in doc["matrix"]], dtype=complex
        )
        if any(type(v) is bool for pair in doc["matrix"] for v in pair):
            raise TypeError("matrix entries must be numbers, not true or false")
        rho = entries.reshape(n1 * n2, n1 * n2)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidState(f"malformed state file: {exc}") from exc
    return as_density_matrix(rho, dim=n1 * n2), (n1, n2)


@contextlib.contextmanager
def _open_output(output):
    """stdout, or the --output file opened for writing (InvalidOutput if it cannot be)."""
    if output is None or output == "-":
        yield sys.stdout
        return
    try:
        fh = open(output, "w", encoding="utf-8")
    except OSError as exc:
        raise InvalidOutput(f"cannot write output file: {exc}") from exc
    with fh:
        yield fh


def _write(text, output):
    with _open_output(output) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _load_state(path):
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise InvalidState(f"cannot read state file: {exc}") from exc
    return state_from_wire(doc)


def _record(args, inputs, outputs):
    return {
        "tool": "qqent",
        "version": __version__,
        "command": args.command_echo,
        "inputs": inputs,
        "outputs": outputs,
    }


def _parse_spectrum(text, n):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InvalidSpectrum(f"cannot parse spectrum {text!r}") from exc
    if len(vals) != n:
        raise InvalidSpectrum(f"expected {n} eigenvalues, got {len(vals)}")
    arr = np.array(vals)
    srt = np.sort(arr)[::-1]
    if np.any(np.abs(srt - arr) > 0):
        print("warning: spectrum was not descending; sorted", file=sys.stderr)
    return srt


def _default_seed(args):
    if args.seed is not None:
        return as_seed(args.seed)
    text = os.environ.get("QQ_SEED", "0")
    try:
        return as_seed(int(text))
    except ValueError as exc:
        raise InvalidSeed(f"QQ_SEED={text!r} is not an integer") from exc


# -- subcommands -----------------------------------------------------------
# Commands pass the state _load_state validated (to 1e-10) to the kernels, and its clipped
# eigenvalues to the spectral ones: as_spectrum would re-check them at 1e-12.

def cmd_construct(args):
    kind = args.kind
    n = 4 if kind == "epu-x-2x2" else 6
    lam = _parse_spectrum(args.spectrum, n)
    inputs = {"kind": kind, "spectrum": list(lam)}
    outputs = {}
    if kind == "mems":
        rho = build_mems(lam)
    elif kind == "alpha-beta":
        if args.alpha is None or args.beta is None:
            raise InvalidState("alpha-beta requires --alpha and --beta")
        inputs["alpha"] = args.alpha
        inputs["beta"] = args.beta
        rho = build_alpha_beta(lam, args.alpha, args.beta)
    else:
        if (args.entanglement is None) == (args.eta is None):
            raise InvalidState(f"{kind} requires exactly one of --entanglement/--eta")
        if kind == "epu-min-tgx":
            e = (
                args.entanglement
                if args.entanglement is not None
                else physical_entanglement(lam, args.eta)
            )
            inputs["entanglement"] = e
            if args.eta is not None:
                inputs["eta"] = args.eta
            rho, params = build_epu_min_tgx(lam, e)
            outputs.update({"q": params.q, "omega": params.omega, "delta": params.delta})
        else:  # epu-x-2x2
            if args.eta is not None and not 0.0 <= args.eta <= 1.0:
                raise UnphysicalEntanglement(f"eta={args.eta} outside [0, 1]")
            c = args.entanglement
            if c is None:  # eta times the cap of the validated spectrum
                c = args.eta * max(0.0, _e_mems(_physical_pair_2x2(lam, 0.0)[0]))
            inputs["concurrence"] = c
            rho = build_epu_x_2x2(lam, c)
    dims = (2, 2) if kind == "epu-x-2x2" else (2, 3)
    outputs["state"] = state_to_wire(rho, dims)
    _write(dumps_json(_record(args, inputs, outputs)), args.output)
    return 0


def _spectral(rho):
    """rho's eigenpairs, canonical above RANK_TOL, and its purity tr rho^2."""
    return _hermitian_eig_unchecked(rho, RANK_TOL), float(np.trace(rho @ rho).real)


def _closed_forms(rho, flags, eig, purity):
    """The closed-form I-concurrences of the 2x3 state rho of class ``flags``,
    None where one does not apply: (min-TGX, min-SGX, pure).  A formula is
    the first that does."""
    return (
        _min_tgx_i_concurrence(rho) if flags.is_min_tgx else None,
        _min_sgx_i_concurrence(rho) if flags.is_min_sgx else None,
        pure_i_concurrence(eig.vectors[:, 0]) if purity >= 1.0 - PURITY_TOL else None,
    )


def cmd_measure(args):
    rho, dims = _load_state(args.input)
    flags = _classify(rho) if dims == (2, 3) else None
    eig, purity = _spectral(rho)
    lam = np.clip(eig.values, 0.0, None)
    outputs = {
        "mode_dims": list(dims),
        "spectrum": list(eig.values),
        "purity": purity,
        "negativity": _negativity_unchecked(rho, dims),
    }
    if dims == (2, 3):
        outputs["classification"] = dataclasses.asdict(flags)
        outputs["e_mems"] = _e_mems(lam)
        outputs["mems_entanglement"] = max(0.0, outputs["e_mems"])
        outputs["gen_concurrence_max"] = _gen_concurrence_max(lam)
        tgx, sgx, pure = _closed_forms(rho, flags, eig, purity)
        outputs["min_tgx_i_concurrence"] = tgx
        if tgx is None:
            outputs["min_tgx_reason"] = "NotMinimalTGX"
        outputs["min_sgx_i_concurrence"] = sgx
        if sgx is None:
            outputs["min_sgx_reason"] = "NotMinimalSGX"
        if pure is not None:
            outputs["pure_i_concurrence"] = pure
    else:
        outputs["concurrence"] = _concurrence_block(rho)
        try:
            outputs["x_concurrence"] = _x_concurrence(rho)
        except NotXForm:
            outputs["x_concurrence"] = None
            outputs["x_concurrence_reason"] = "NotXForm"
    _write(dumps_json(_record(args, {"input": args.input}, outputs)), args.output)
    return 0


def cmd_ls(args):
    rho, dims = _load_state(args.input)
    if dims != (2, 3):
        raise InvalidState("ls requires a 2x3 state")
    if args.route == "explicit":
        if not _classify(rho).is_epu_min_tgx:
            raise NotMinimalTGX("explicit route requires the constructed single-coherence form")
        eig = _hermitian_eig_unchecked(rho, RANK_TOL)
        lam = np.clip(eig.values, 0.0, None)
        e = _min_tgx_i_concurrence(rho)
        e_phys = _check_physical(e, max(0.0, _e_mems(lam)))
        ref, _ = _epu_min_tgx(lam, e_phys)
        if differs(rho, ref, CANONICAL_FORM_TOL):
            raise NotMinimalSGX(
                "explicit route requires the canonical orientation (coherence at levels 1,6)"
            )
        dec = _ls_explicit(lam, e_phys)
        inputs = {"route": "explicit", "spectrum": list(eig.values), "entanglement": e}
    else:
        dec = _ls_numeric(rho)
        e = _min_sgx_i_concurrence(rho)
        inputs = {"route": "numeric"}
    outputs = {
        "p_e": dec.p_e,
        "xi": list(dec.xi),
        "x_kets": [matrix_to_wire(k) for k in dec.x_kets],
        "rho_e": state_to_wire(dec.rho_e, dims),
        "rho_s": state_to_wire(dec.rho_s, dims),
        "residuals": _ls_residuals(rho, dec, e),
    }
    if dec.n1 is not None:
        outputs["n1"] = dec.n1
        outputs["n2"] = dec.n2
    _write(dumps_json(_record(args, inputs, outputs)), args.output)
    return 0


def cmd_sample(args):
    """Write the search rows chunk by chunk, so memory stays bounded for any budget."""
    rho, dims = _load_state(args.input)
    if dims != (2, 3):
        raise InvalidState("sample requires a 2x3 state")
    seed = _default_seed(args)
    grid = args.D == 2
    header = ["trial_index", *(["theta", "phi"] if grid else []), "avg_E"]
    chunks = _search_chunks(rho, args.D, args.budget, seed)
    chunks = itertools.chain([next(chunks)], chunks)  # input errors raise before any output
    forms = _closed_forms(rho, _classify(rho), *_spectral(rho))
    formula = next((v for v in forms if v is not None), None)
    budget = _search_budget(args.D, args.budget)
    inputs = {"input": args.input, "D": args.D, "budget": budget, "seed": seed}

    def frame(best):
        """The JSON record split around its rows: (before the first, after the last)."""
        marker = "\0rows"  # stands in for the rows; no command-line string holds a NUL
        outputs = {"columns": header, "rows": [marker], "min_avg_E": best, "formula_E": formula}
        return (dumps_json(_record(args, inputs, outputs)) + "\n").rsplit(json.dumps(marker), 1)

    as_json = args.format == "json"
    if as_json:  # rows sit at indent 6 of the record
        head, sep, row = frame(np.inf)[0], ",\n      ", lambda cells: f"[{', '.join(cells)}]"
    else:
        head, sep, row = ",".join(header) + "\n", "\n", ",".join
    best = np.inf
    index = 0
    with _open_output(args.output) as fh:
        fh.write(head)
        for params, averages in chunks:
            best = min(best, float(averages.min()))
            lines = [
                row([str(index + k), *map(_fmt, p if grid else ()), _fmt(avg)])
                for k, (p, avg) in enumerate(zip(params, averages.tolist()))
            ]
            fh.write((sep if index else "") + sep.join(lines))
            index += len(lines)
        if as_json:
            fh.write(frame(best)[1])
        else:
            formula_text = "" if formula is None else _fmt(formula)
            fh.write(f"\nmin_avg_E,{_fmt(best)},formula_E,{formula_text}\n")
    return 0


def cmd_verify(args):
    as_budget(args.trials, "trials")
    seed = _default_seed(args)
    ok, worst, detail = _run_suite(args.suite, args.trials, seed)
    status = "PASS" if ok else "FAIL"
    residuals = " ".join(f"{k}={_fmt(v)}" for k, v in worst.items())
    line = f"{status} suite={args.suite} trials={args.trials} seed={seed} {residuals}"
    _write(line, args.output)
    if not ok:
        print(f"  offending input: {detail}", file=sys.stderr)
        return 1
    return 0


# -- entry point ------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qqent", description="Qubit-qutrit entanglement toolkit"
    )
    parser.add_argument("--version", action="version", version=f"qqent {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build a state file")
    p.add_argument("kind", choices=["epu-min-tgx", "mems", "alpha-beta", "epu-x-2x2"])
    p.add_argument("--spectrum", required=True, help="comma-separated descending eigenvalues")
    p.add_argument("--entanglement", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("measure", help="classify a state and report measures")
    p.add_argument("input", help="state file path or - for stdin")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("ls", help="entangled/separable optimal split")
    p.add_argument("input")
    p.add_argument("--route", choices=["explicit", "numeric"], default="numeric")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("sample", help="stream decomposition averages as CSV")
    p.add_argument("input")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run a randomized invariant suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = argv
    try:
        return args.func(args)
    except FormError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except QQEntError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
