"""Tests of the benchmark itself.

Run from the repository root with

    python -m pytest perfbench/selftest.py

The file name does not match pytest's test_*.py pattern, so the library's
own test run (plain ``python -m pytest``) does not collect these tests.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qqent  # noqa: E402

from harness import ERROR, WRONG, Untraced, run_rounds  # noqa: E402
from wl_cli import Cli  # noqa: E402
from wl_closed_form import ClosedForm  # noqa: E402
from wl_search import Search  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("cls", [ClosedForm, Search, Cli])
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(cls, tmp_path):
    digests = []
    for k, seed in enumerate((5, 5, 6)):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        digests.append(cls(seed, workdir).inputs_digest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _closed_form_ops(kinds):
    return [op for op in ClosedForm(2).ops if op.kind in kinds][:6]


def test_perturbed_split_is_a_wrong_answer(monkeypatch):
    ops = _closed_form_ops({"synth.epu", "analysis.epu"})
    assert run_rounds(ops, Untraced(), rounds=1).failed == 0
    real = qqent.ls_explicit

    def perturbed(*args):
        dec = real(*args)
        return dataclasses.replace(dec, p_e=dec.p_e + 1e-6)

    monkeypatch.setattr(qqent, "ls_explicit", perturbed)
    res = run_rounds(ops, Untraced(), rounds=1)
    assert res.failed == len(ops)
    assert not res.correct


def test_perturbed_search_minimum_is_a_wrong_answer(monkeypatch):
    search = Search(1)
    ops = [search.ops[0]]  # fig-2 on the D=2 grid
    real = qqent.min_average_search
    monkeypatch.setattr(qqent, "min_average_search", lambda *a: (real(*a)[0] - 1e-6, None))
    res = run_rounds(ops, Untraced(), rounds=1)
    assert res.failed == 1 and res.failures[0][3] == WRONG


def test_output_that_changes_between_rounds_is_a_wrong_answer(monkeypatch):
    real = qqent.build_mems
    calls = []

    def drifting(lam):
        calls.append(1)
        return real(lam) * (1.0 if len(calls) == 1 else 1.0 + 1e-15)

    monkeypatch.setattr(qqent, "build_mems", drifting)
    ops = _closed_form_ops({"synth.mems"})[:1]
    res = run_rounds(ops, Untraced(), rounds=2)
    assert [f[3] for f in res.failures] == [WRONG]


def test_cli_checks_exit_code_and_output(tmp_path):
    cli = Cli(4, tmp_path)
    by_label = {op.kind: op for op in cli.ops}
    measure = by_label["measure-tgx"]
    code, stdout = measure.run(Untraced())
    assert measure.check((code, stdout)) is None
    doc = json.loads(stdout)
    doc["outputs"]["min_tgx_i_concurrence"] += 1e-6
    assert measure.check((code, json.dumps(doc).encode()))[0] == WRONG
    # an invalid input that is accepted is wrong; one rejected with the
    # wrong code is a failed op
    bad = by_label["bad-malformed-json"]
    assert bad.check((0, b"{}"))[0] == WRONG
    assert bad.check((1, b""))[0] == ERROR
    assert bad.check((2, b"")) is None
