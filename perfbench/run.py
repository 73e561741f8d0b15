"""Layered benchmark of the qqent toolkit.

    python3 perfbench/run.py --workload {closed-form,search,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qqent is imported from ./src.  One
process drives one closed-loop client.  ``--trace 0`` times the workload
and reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics from a traced run (see README.md).  Stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

import time

T0 = time.perf_counter()  # set-up is measured from the first line

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from harness import (  # noqa: E402
    RunResult, Tracer, Untraced, digest_hex, median, run_rounds, tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # scratch state files, removed at exit
OUT = ROOT / ".perfbench_out"  # full reports and spans, kept
SETUP_REPEATS = 5  # set-ups per timed run (this process and four children) for setup_s
SETUP_TIMEOUT_S = 150

END_TO_END = ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")

#: Per-layer metrics read from span durations: metric -> (span name, scale, unit).
SPAN_METRICS = {
    "numerics.hermitian_eig.degenerate_us": ("numerics.hermitian_eig.degenerate", 1e6, "us"),
    "numerics.hermitian_eig.generic_us": ("numerics.hermitian_eig.generic", 1e6, "us"),
    "numerics.takagi_symmetric.real_us": ("numerics.takagi_symmetric.real", 1e6, "us"),
    "numerics.takagi_symmetric.complex_us": ("numerics.takagi_symmetric.complex", 1e6, "us"),
    "numerics.partial_transpose_negativity_us": ("numerics.partial_transpose_negativity", 1e6, "us"),
    "numerics.haar_unitary.single_us": ("numerics.haar_unitary.single", 1e6, "us"),
    # per unitary of a 4096 batch
    "numerics.haar_unitary.batch_us": ("numerics.haar_unitary.batch", 1e6 / 4096, "us"),
    "states.build_us": ("states.build", 1e6, "us"),
    "states.classify_us": ("states.classify", 1e6, "us"),
    "measures.min_tgx_i_concurrence_us": ("measures.min_tgx_i_concurrence", 1e6, "us"),
    "measures.min_sgx_i_concurrence_us": ("measures.min_sgx_i_concurrence", 1e6, "us"),
    "measures.sampled_gen_preconcurrence_ms": ("measures.sampled_gen_preconcurrence", 1e3, "ms"),
    "ls.ls_explicit_us": ("ls.ls_explicit", 1e6, "us"),
    "ls.ls_numeric_us": ("ls.ls_numeric", 1e6, "us"),
    "decompositions.decompose_us": ("decompositions.decompose", 1e6, "us"),
    "decompositions.search_grid_ms": ("decompositions.search_grid", 1e3, "ms"),
    "decompositions.search_haar_ms": ("decompositions.search_haar", 1e3, "ms"),
    "cli.numpy_import_ms": ("cli.numpy_import", 1e3, "ms"),
    "cli.startup_ms": ("cli.startup", 1e3, "ms"),
    "cli.inprocess_ms.construct": ("cli.inprocess.construct", 1e3, "ms"),
    "cli.inprocess_ms.measure": ("cli.inprocess.measure", 1e3, "ms"),
    "cli.inprocess_ms.ls": ("cli.inprocess.ls", 1e3, "ms"),
    "cli.inprocess_ms.sample": ("cli.inprocess.sample", 1e3, "ms"),
    "cli.inprocess_ms.verify": ("cli.inprocess.verify", 1e3, "ms"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("closed-form", "search", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print setup_s and exit")
    return p.parse_args(argv)


def load_qqent():
    """Import qqent from this checkout's src/, never from an installed copy."""
    if not (SRC / "qqent" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qqent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qqent

    if Path(qqent.__file__).resolve().parent != SRC / "qqent":
        sys.exit(f"perfbench: imported qqent from {qqent.__file__}, not from {SRC}")
    return qqent


# -- provenance ------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    info = {"env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (KeyError, TypeError):
        pass
    try:  # the runtime thread count of the OpenBLAS numpy actually loaded
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
        for path in libs:
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if fn is not None:
                        info["threads"] = int(fn())
                        cfg = getattr(lib, f"{prefix}get_config{suffix}")
                        cfg.restype = ctypes.c_char_p
                        info["config"] = cfg().decode()
                        return info
    except (OSError, AttributeError):
        pass
    return info


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed):
    src = hashlib.sha256()
    for path in sorted((SRC / "qqent").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


# -- metrics ------------------------------------------------------------------------

def end_to_end(res, setups, peak_rss_kb):
    lat_ms = np.asarray(res.latencies) * 1e3
    n = len(lat_ms)
    p = tail_percentile(n)
    # ops per second of op time, per round; the median over rounds keeps a
    # slow stretch of the host out of the figure
    round_s = lat_ms.reshape(res.rounds, -1).sum(axis=1) / 1e3
    return {
        "throughput_ops_s": {
            "value": float(np.median(n / res.rounds / round_s)), "unit": "1/s",
            "ops": n, "rounds": res.rounds,
        },
        "latency_p50_ms": {"value": float(np.median(lat_ms)), "unit": "ms", "samples": n},
        "latency_tail_ms": {
            "value": float(np.percentile(lat_ms, p)), "unit": "ms", "percentile": p, "samples": n,
        },
        "setup_s": {"value": float(np.median(setups)), "unit": "s", "samples": setups},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        "error_rate": {
            "value": res.failed / res.attempted, "unit": "share",
            "failed": res.failed, "attempted": res.attempted,
        },
    }


def per_layer(tracer, workloads, overhead_pct):
    metrics = {}
    for name, (span, scale, unit) in SPAN_METRICS.items():
        metrics[name] = {"value": median(tracer.durations(span)) * scale, "unit": unit}
    for wl in workloads:
        for name, (value, unit) in wl.layer_stats(tracer).items():
            metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


def ops_by_kind(res):
    """Count, median latency and failures per op kind, with the digest of
    each kind's first-round outputs so a changed answer shows by kind."""
    kinds, first = {}, {}
    for kind, lat in zip(res.kinds, res.latencies):
        kinds.setdefault(kind, []).append(lat)
    for kind, digest in zip(res.kinds, res.digests):
        first.setdefault(kind, []).append(digest)
    failed = [f[2] for f in res.failures]
    return {
        kind: {
            "count": len(lat),
            "p50_ms": float(np.median(lat)) * 1e3,
            "failed": failed.count(kind),
            **({"outputs_sha256": digest_hex(first[kind])} if kind in first else {}),
        }
        for kind, lat in sorted(kinds.items())
    }


def peak_rss_kb(wl):
    if wl.name == "cli":  # the commands' own peak, not this driver's
        return wl.peak_rss_kb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_setups(args, count):
    """Set-up times of ``count`` fresh processes doing this run's set-up."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed: {out.stderr.strip()[-500:]}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- runs --------------------------------------------------------------------------

def workload_classes():
    from wl_cli import Cli
    from wl_closed_form import ClosedForm
    from wl_search import Search

    return {"closed-form": ClosedForm, "search": Search, "cli": Cli}


def timed_run(args, wl, setup_s):
    res = run_rounds(wl.ops, Untraced(), seconds=args.seconds)
    rss = peak_rss_kb(wl)
    setups = [setup_s] + child_setups(args, SETUP_REPEATS - 1)
    return res, end_to_end(res, setups, rss), None


def traced_run(args, wl, workdir):
    """Untraced and traced rounds in turn, then one traced round of every
    other workload so that every layer is reported.

    Alternating rounds keeps drift in the host's speed out of the tracing
    overhead, which compares the two halves' op time.
    """
    tracer = Tracer()
    base, res = RunResult(), RunResult()
    t0 = time.perf_counter()
    while not base.rounds or time.perf_counter() - t0 < args.seconds:
        run_rounds(wl.ops, Untraced(), rounds=1, res=base)
        run_rounds(wl.ops, tracer, rounds=1, res=res)
    overhead = 100.0 * (sum(res.latencies) / sum(base.latencies) - 1.0)
    wl.probe(tracer)
    res.extend(base)
    workloads = [wl]
    for name, cls in workload_classes().items():
        if name == wl.name:
            continue
        sub = workdir / name
        sub.mkdir()
        other = cls(args.seed, sub)
        other.warm_up(Untraced())
        res.extend(run_rounds(other.ops, tracer, rounds=1))
        other.probe(tracer)
        workloads.append(other)
    return res, per_layer(tracer, workloads, overhead), tracer


def write_out(args, report, tracer):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "op": parent}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    load_qqent()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workload_classes()[args.workload](args.seed, workdir)
        wl.warm_up(Untraced())
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            res, metrics, tracer = traced_run(args, wl, workdir)
        else:
            res, metrics, tracer = timed_run(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory there
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "rounds": res.rounds,
        "metrics": metrics,
        "ops_by_kind": ops_by_kind(res),
        "inputs_sha256": hashlib.sha256(wl.inputs_digest()).hexdigest(),
        "outputs_sha256": digest_hex(res.digests),
        "failures": [
            {"round": r, "op": i, "kind": k, "failure": f, "detail": d}
            for r, i, k, f, d in res.failures[:20]
        ],
    }
    write_out(args, report, tracer)
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()
                    if args.trace or k in END_TO_END},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
