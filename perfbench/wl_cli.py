"""cli workload: one op is one `python -m qqent.cli` command, run as a child process.

Commands run one at a time on seeded state files: construct, measure, ls
(both routes), sample (D=2 CSV, D=3 JSON), small verify runs, and a fixed
share of invalid inputs whose documented exit code is 2.  Most of a
command's wall time is interpreter and numpy start-up, so this is the only
workload that sees start-up, import and serialization changes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import qqent as qq
import qqent.cli

from harness import ERROR, WRONG, Op, floats_digest
from wl_closed_form import quartet_rotation, random_spectrum

TOL = 1e-9
NEG_TOL = 1e-8
CHILD_TIMEOUT_S = 120
STARTUP_REPEATS = 3  # numpy-import and --version probes per traced run


def _spectrum_arg(lam):
    return ",".join(repr(float(v)) for v in lam)


def _json_out(stdout):
    return json.loads(stdout)["outputs"]


class Cli:
    name = "cli"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.workdir = Path(workdir)
        src = str(Path(qq.__file__).resolve().parents[1])
        self.env = {k: v for k, v in os.environ.items() if k != "QQ_SEED"}
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.peak_rss_kb = 0
        self.first_round = {}  # op index -> (exit code matched, stdout bytes)
        search_seed = seed % 100

        rank = 2 + seed % 5
        lam = random_spectrum(rng, rank)
        e = qq.physical_entanglement(lam, rng.uniform())
        canon, _ = qq.build_epu_min_tgx(lam, e)
        rot = quartet_rotation(rng)
        sgx = rot @ canon @ rot.conj().T
        lam2 = random_spectrum(rng, 2)
        r2, _ = qq.build_epu_min_tgx(lam2, qq.physical_entanglement(lam2, rng.uniform()))
        ab_lam = random_spectrum(rng, 1 + seed % 6)
        alpha, beta = rng.uniform(0.0, np.pi / 2, size=2)
        e_ab = qq.e_alpha_beta(ab_lam, alpha, beta)
        un_lam = random_spectrum(rng, 3)
        self.inputs = [lam, np.array([e, alpha, beta]), sgx, r2, ab_lam, un_lam]

        files = {
            "canon.json": qqent.cli.dumps_json(qqent.cli.state_to_wire(canon, (2, 3))),
            "sgx.json": qqent.cli.dumps_json(qqent.cli.state_to_wire(sgx, (2, 3))),
            "r2.json": qqent.cli.dumps_json(qqent.cli.state_to_wire(r2, (2, 3))),
            "malformed.json": '{"mode_dims": [2, 3], "matrix": [[0.5',
            "nonsquare.json": json.dumps({"mode_dims": [2, 3], "matrix": [[0.0, 0.0]] * 30}),
            "nan.json": json.dumps({"mode_dims": [2, 3], "matrix": [[float("nan")] * 2] * 36}),
        }
        for name, text in files.items():
            (self.workdir / name).write_text(text + "\n", encoding="utf-8")

        def state_e(expected):
            def check(stdout):
                rho, _ = qqent.cli.state_from_wire(_json_out(stdout)["state"])
                got = qq.min_tgx_i_concurrence(rho)
                return None if abs(got - expected) <= TOL else f"E={got!r}, expected {expected!r}"
            return check

        def field(key, expected):
            def check(stdout):
                got = _json_out(stdout)[key]
                return None if abs(got - expected) <= TOL else f"{key}={got!r}, expected {expected!r}"
            return check

        def ls_residuals(stdout):
            res = _json_out(stdout)["residuals"]
            if max(res["reconstruction"], res["optimality"]) > TOL or res["separable_negativity"] > NEG_TOL:
                return f"split residuals {res}"
            return None

        def csv_floor(stdout):
            _, best, _, formula = stdout.decode().strip().splitlines()[-1].split(",")
            return None if float(best) >= float(formula) - TOL else f"minimum {best} below {formula}"

        def json_floor(stdout):
            out = _json_out(stdout)
            ok = out["min_avg_E"] >= out["formula_E"] - TOL
            return None if ok else f"minimum {out['min_avg_E']!r} below {out['formula_E']!r}"

        def passed(stdout):
            return None if stdout.startswith(b"PASS") else stdout.decode()[:200]

        def silent(stdout):
            return None if not stdout else "invalid input produced output"

        s = str(search_seed)
        #: (label, argv after `-m qqent.cli`, expected exit code, extra env, output check)
        self.commands = [
            ("construct-epu", ["construct", "epu-min-tgx", "--spectrum", _spectrum_arg(lam),
                               "--entanglement", repr(float(e))], 0, {}, state_e(e)),
            ("construct-alpha-beta", ["construct", "alpha-beta", "--spectrum", _spectrum_arg(ab_lam),
                                      "--alpha", repr(float(alpha)), "--beta", repr(float(beta))],
             0, {}, state_e(e_ab)),
            ("measure-tgx", ["measure", "canon.json"], 0, {}, field("min_tgx_i_concurrence", e)),
            ("measure-sgx", ["measure", "sgx.json"], 0, {},
             field("min_sgx_i_concurrence", qq.min_sgx_i_concurrence(sgx))),
            ("ls-explicit", ["ls", "canon.json", "--route", "explicit"], 0, {}, ls_residuals),
            ("ls-numeric", ["ls", "sgx.json", "--route", "numeric"], 0, {}, ls_residuals),
            ("sample-d2-csv", ["sample", "r2.json", "--D", "2", "--budget", "400"], 0, {}, csv_floor),
            ("sample-d3-json", ["sample", "r2.json", "--D", "3", "--budget", "300", "--seed", s,
                                "--format", "json"], 0, {}, json_floor),
            ("verify-epu", ["verify", "epu", "--trials", "100", "--seed", s], 0, {}, passed),
            ("verify-formulas", ["verify", "formulas", "--trials", "50", "--seed", s], 0, {}, passed),
            ("bad-unphysical-e", ["construct", "epu-min-tgx", "--spectrum", _spectrum_arg(un_lam),
                                  "--entanglement", repr(qq.mems_entanglement(un_lam) + 0.05)],
             2, {}, silent),
            ("bad-malformed-json", ["measure", "malformed.json"], 2, {}, silent),
            ("bad-nonsquare", ["measure", "nonsquare.json"], 2, {}, silent),
            ("bad-all-nan", ["measure", "nan.json"], 2, {}, silent),  # known defect: exits 1
            ("bad-qq-seed", ["sample", "r2.json", "--D", "3", "--budget", "50"], 2,
             {"QQ_SEED": "abc"}, silent),  # known defect: exits 1
        ]
        self.ops = [self._op(i, *cmd) for i, cmd in enumerate(self.commands)]

    # -- child processes ------------------------------------------------------

    def spawn(self, argv, extra_env=None):
        """Run one child to completion; returns (exit code, stdout, peak RSS in KiB)."""
        env = dict(self.env, **(extra_env or {}))
        out_path = self.workdir / "stdout.bin"
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.DEVNULL,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 rather than wait: it also returns the child's own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_bytes(), usage.ru_maxrss

    def _op(self, index, label, args, expected, extra_env, value_check):
        argv = [sys.executable, "-m", "qqent.cli", *args]
        sub = args[0]

        def run(tr):
            code, stdout, rss = self.spawn(argv, extra_env)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            self.first_round.setdefault(index, (code == expected, len(stdout)))
            return code, stdout

        def check(out):
            code, stdout = out
            if code != expected:
                # accepting an invalid input is a wrong answer; any other
                # mismatch is an error with the wrong exit code
                kind = WRONG if code == 0 else ERROR
                return kind, f"{sub}: exit {code}, expected {expected}"
            detail = value_check(stdout)
            return None if detail is None else (WRONG, f"{sub}: {detail}")

        def digest(out):
            code, stdout = out
            return str(code).encode() + b":" + stdout

        def replay(tr):
            # compute-plus-serialize part of the command, without process start-up
            with contextlib.chdir(self.workdir), contextlib.redirect_stdout(io.StringIO()):
                tr.call("cli.inprocess." + sub, qqent.cli.main, list(args))

        return Op(label, run, check, digest, replay if expected == 0 else None)

    # -- run protocol -----------------------------------------------------------

    def warm_up(self, tracer):
        self.spawn([sys.executable, "-m", "qqent.cli", "--version"])

    def probe(self, tracer):
        for _ in range(STARTUP_REPEATS):
            for span, argv in (
                ("cli.numpy_import", [sys.executable, "-c", "import numpy"]),
                ("cli.startup", [sys.executable, "-m", "qqent.cli", "--version"]),
            ):
                start = time.perf_counter()
                self.spawn(argv)
                tracer.record(span, start, time.perf_counter())

    def layer_stats(self, tracer):
        matched = [m for m, _ in self.first_round.values()]
        sizes = [n for _, n in self.first_round.values()]
        return {
            "cli.stdout_bytes": (float(np.mean(sizes)), "bytes"),
            "cli.exit_code_mismatch": (float(matched.count(False)), "count"),
        }

    def inputs_digest(self):
        return floats_digest(*self.inputs) + repr([c[1:4] for c in self.commands]).encode()
