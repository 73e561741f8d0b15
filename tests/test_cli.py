import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qqent
from qqent import _invariants, cli
from qqent import ls as ls_module
from qqent.cli import _parse_spectrum, build_parser, main, state_from_wire
from qqent.decompositions import average_entanglement, decompose
from qqent.errors import InvalidSpectrum
from qqent.measures import SPIN_FLIP_4
from qqent.numerics import BATCH_SIZE, RANK_TOL, haar_unitary
from qqent.states import build_epu_min_tgx

from conftest import blas_platform

FIG2_ARGS = ["construct", "epu-min-tgx", "--spectrum", "0.7,0.3,0,0,0,0",
             "--entanglement", "0.693"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fig2(tmp_path):
    path = tmp_path / "fig2.json"
    code = main(FIG2_ARGS + ["--output", str(path)])
    assert code == 0
    return path


class TestConstruct:
    def test_epu_min_tgx_record(self, capsys):
        code, out, _ = run(capsys, *FIG2_ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "qqent"
        assert abs(doc["outputs"]["q"] - 0.009751) < 1e-12
        rho, dims = state_from_wire(doc["outputs"]["state"])
        assert dims == (2, 3)
        assert abs(rho[0, 5].real - 0.3465) < 1e-12

    def test_eta_equivalent_to_entanglement(self, capsys):
        code, out1, _ = run(capsys, *FIG2_ARGS)
        code2, out2, _ = run(capsys, "construct", "epu-min-tgx", "--spectrum",
                             "0.7,0.3,0,0,0,0", "--eta", "0.99")
        assert code == code2 == 0
        r1, _ = state_from_wire(json.loads(out1)["outputs"]["state"])
        r2, _ = state_from_wire(json.loads(out2)["outputs"]["state"])
        assert np.max(np.abs(r1 - r2)) < 1e-12

    def test_mems_pure(self, capsys):
        code, out, _ = run(capsys, "construct", "mems", "--spectrum", "1,0,0,0,0,0")
        assert code == 0
        rho, _ = state_from_wire(json.loads(out)["outputs"]["state"])
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_epu_x_2x2(self, capsys):
        code, out, _ = run(capsys, "construct", "epu-x-2x2", "--spectrum",
                           "0.5,0.5,0,0", "--entanglement", "0.5")
        assert code == 0
        rho, dims = state_from_wire(json.loads(out)["outputs"]["state"])
        assert dims == (2, 2)

    def test_unsorted_spectrum_warns_and_sorts(self, capsys):
        code, out, err = run(capsys, "construct", "mems", "--spectrum", "0.3,0.7,0,0,0,0")
        assert code == 0
        assert "sorted" in err
        rho, _ = state_from_wire(json.loads(out)["outputs"]["state"])
        assert abs(rho[0, 0].real - 0.35) < 1e-12

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "construct", "epu-min-tgx", "--spectrum",
                           "0.7,0.3,0,0,0,0", "--entanglement", "0.8")
        assert code == 2
        assert "UnphysicalEntanglement" in err
        code, _, err = run(capsys, "construct", "epu-min-tgx", "--spectrum",
                           "0.9,0.3,0,0,0,0", "--entanglement", "0.1")
        assert code == 2

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, *FIG2_ARGS)
        _, out2, _ = run(capsys, *FIG2_ARGS)
        assert out1 == out2


class TestMeasure:
    def test_fig2_report(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        code, out, _ = run(capsys, "measure", str(path))
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert abs(outputs["min_tgx_i_concurrence"] - 0.693) < 1e-12
        assert abs(outputs["e_mems"] - 0.7) < 1e-12
        assert outputs["negativity"] > 0
        assert outputs["classification"]["is_epu_min_tgx"]

    def test_maximally_mixed(self, tmp_path, capsys):
        doc = {"mode_dims": [2, 3],
               "matrix": [[1 / 6 if i == j else 0.0, 0.0] for i in range(6) for j in range(6)]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["negativity"] == 0
        assert outputs["min_tgx_i_concurrence"] == 0
        assert outputs["mems_entanglement"] == 0

    def test_dense_state_gated_fields(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from conftest import random_density

        rho = random_density(rng, 6)
        doc = {"mode_dims": [2, 3],
               "matrix": [[z.real, z.imag] for z in rho.reshape(-1)]}
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["min_tgx_i_concurrence"] is None
        assert outputs["min_tgx_reason"] == "NotMinimalTGX"
        assert outputs["min_sgx_reason"] == "NotMinimalSGX"

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "measure", str(path))
        assert code == 2


class TestLsCommand:
    def test_explicit_route(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        code, out, _ = run(capsys, "ls", str(path), "--route", "explicit")
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert abs(outputs["p_e"] - 0.7) < 1e-12
        res = outputs["residuals"]
        assert res["reconstruction"] < 1e-9
        assert res["optimality"] < 1e-9
        assert res["separable_negativity"] < 1e-8

    def test_numeric_route_matches(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        _, out_e, _ = run(capsys, "ls", str(path), "--route", "explicit")
        _, out_n, _ = run(capsys, "ls", str(path), "--route", "numeric")
        pe_e = json.loads(out_e)["outputs"]["p_e"]
        pe_n = json.loads(out_n)["outputs"]["p_e"]
        assert abs(pe_e - pe_n) < 1e-8

    def test_maximally_mixed_numeric(self, tmp_path, capsys):
        doc = {"mode_dims": [2, 3],
               "matrix": [[1 / 6 if i == j else 0.0, 0.0] for i in range(6) for j in range(6)]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "ls", str(path), "--route", "numeric")
        assert code == 0
        assert json.loads(out)["outputs"]["p_e"] == 0

    def test_numeric_optimality_is_independent_of_the_split(self, tmp_path, capsys, monkeypatch):
        # a split that drops the block eigenvalue w = 5e-13 (the cut at RANK_TOL)
        # misses sqrt(w) of concurrence; its own xi would hide that
        from conftest import ls_round_off_tail_state

        rho = ls_round_off_tail_state(5e-13)
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"mode_dims": [2, 3],
                                    "matrix": [[z, 0.0] for z in rho.reshape(-1).tolist()]}))
        argv = ("ls", str(path), "--route", "numeric")
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["outputs"]["residuals"]["optimality"] < 1e-10
        block_tau = ls_module._block_tau

        def rank_tol_cut(w, v):
            u = block_tau(w, v)[0]
            u[w <= RANK_TOL] = 0.0
            tau = u.conj() @ SPIN_FLIP_4 @ u.conj().T
            return u, (tau + tau.T) / 2.0

        monkeypatch.setattr(ls_module, "_block_tau", rank_tol_cut)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["outputs"]["residuals"]["optimality"] > 1e-7

    def test_form_precondition_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        from conftest import random_density

        rho = random_density(rng, 6)
        doc = {"mode_dims": [2, 3],
               "matrix": [[z.real, z.imag] for z in rho.reshape(-1)]}
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ls", str(path), "--route", "numeric")
        assert code == 3
        assert "NotMinimalSGX" in err
        code, _, err = run(capsys, "ls", str(path), "--route", "explicit")
        assert code == 3


class TestSample:
    def test_fig2_grid(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        code, out, _ = run(capsys, "sample", str(path), "--D", "2", "--budget", "900",
                           "--seed", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial_index,theta,phi,avg_E"
        assert len(lines) == 902  # header + 900 rows + footer
        footer = lines[-1].split(",")
        assert footer[0] == "min_avg_E"
        assert abs(float(footer[1]) - 0.693) < 2e-3
        assert abs(float(footer[3]) - 0.693) < 1e-12

    def test_pure_state_single_row(self, tmp_path, capsys):
        code0, out0, _ = run(capsys, "construct", "mems", "--spectrum", "1,0,0,0,0,0")
        path = tmp_path / "pure.json"
        path.write_text(out0)
        code, out, _ = run(capsys, "sample", str(path), "--D", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert abs(float(lines[1].split(",")[-1]) - 1.0) < 1e-12

    def test_invalid_d_exit_2(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        code, _, err = run(capsys, "sample", str(path), "--D", "1")
        assert code == 2
        code, _, err = run(capsys, "sample", str(path), "--D", "7")
        assert code == 2

    def test_seeded_determinism(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        _, out1, _ = run(capsys, "sample", str(path), "--D", "3", "--budget", "50",
                         "--seed", "7")
        _, out2, _ = run(capsys, "sample", str(path), "--D", "3", "--budget", "50",
                         "--seed", "7")
        assert out1 == out2

    def test_qq_seed_env_default(self, tmp_path, capsys, monkeypatch):
        path = write_fig2(tmp_path)
        monkeypatch.setenv("QQ_SEED", "7")
        _, out1, _ = run(capsys, "sample", str(path), "--D", "3", "--budget", "20")
        monkeypatch.delenv("QQ_SEED")
        _, out2, _ = run(capsys, "sample", str(path), "--D", "3", "--budget", "20",
                         "--seed", "7")
        assert out1 == out2

    def test_zero_budget_exit_2(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        for d in ("2", "3"):
            code, out, err = run(capsys, "sample", str(path), "--D", d, "--budget", "0")
            assert code == 2 and out == ""
            assert "InvalidBudget" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_verify_trials_exit_2(self, capsys, trials):
        code, out, err = run(capsys, "verify", "epu", "--trials", trials)
        assert code == 2 and out == ""
        assert "InvalidBudget" in err

    def test_non_integer_qq_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        path = write_fig2(tmp_path)
        monkeypatch.setenv("QQ_SEED", "abc")
        code, out, err = run(capsys, "sample", str(path), "--D", "3", "--budget", "5")
        assert code == 2 and out == ""
        assert "InvalidSeed" in err

    def test_negative_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        path = write_fig2(tmp_path)
        sample = ["sample", str(path), "--D", "3", "--budget", "5"]
        verify = ["verify", "epu", "--trials", "2"]
        for argv in (sample, verify):
            code, out, err = run(capsys, *argv, "--seed", "-1")
            assert code == 2 and out == "", argv
            assert "InvalidSeed" in err
            monkeypatch.setenv("QQ_SEED", "-1")
            code, out, err = run(capsys, *argv)
            monkeypatch.delenv("QQ_SEED")
            assert code == 2 and out == "", argv
            assert "InvalidSeed" in err

    def test_d3_header_and_replay(self, tmp_path, capsys):
        path = write_fig2(tmp_path)
        code, out, _ = run(capsys, "sample", str(path), "--D", "3", "--budget", "20",
                           "--seed", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial_index,avg_E"
        rho, _ = state_from_wire(json.loads(path.read_text())["outputs"]["state"])
        for i, line in enumerate(lines[1:-1]):
            index, avg = line.split(",")
            mixer = haar_unitary(3, 4, count=i + 1)[i]
            assert int(index) == i
            assert abs(float(avg) - average_entanglement(decompose(rho, mixer))) < 1e-14

    # sha256 of stdout as written by the whole-record writer this streaming
    # writer replaced, with the state file given as the relative path fig2.json
    @pytest.mark.parametrize("argv, size, digest", [
        (("--D", "2", "--budget", "900"), 55325,
         "8e1b1f7c34838ce67b460d30a16fe50f10add3539013380cb7fcf15e6c10764b"),
        (("--D", "2", "--budget", "900", "--format", "json"), 66498,
         "284de69d734b09203b746dd7a232a3e971e63bdeea3221eac9afe86b2bc7b1fd"),
        (("--D", "3", "--budget", "5000", "--seed", "11"), 123457,
         "e5077ba162bbcc4a74a9c622fd0e94a6ef67e531f2553b9214f8340d75735a7f"),
        (("--D", "3", "--budget", "5000", "--seed", "11", "--format", "json"), 173839,
         "f185725740430d81e08e8ed9519d6471d6f86f803ee27a3cdc511f001796f6c3"),
    ], ids=["d2-csv", "d2-json", "d3-csv", "d3-json"])
    def test_streamed_bytes_unchanged(self, tmp_path, capsys, monkeypatch, argv, size, digest):
        monkeypatch.chdir(tmp_path)
        write_fig2(tmp_path)
        code, out, _ = run(capsys, "sample", "fig2.json", *argv)
        assert code == 0
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest), blas_platform()

    @pytest.mark.parametrize("d, budget", [("2", 900), ("3", 1000)])
    def test_default_budget_recorded(self, tmp_path, capsys, d, budget):
        path = write_fig2(tmp_path)
        code, out, _ = run(capsys, "sample", str(path), "--D", d, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["budget"] == budget
        assert len(doc["outputs"]["rows"]) == budget

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_written_chunk_by_chunk(self, tmp_path, capsys, monkeypatch, fmt):
        # each chunk's rows are written before the next chunk is scored
        path = write_fig2(tmp_path)
        writes, seen = [], []
        chunks = cli._search_chunks

        def recorded_chunks(*args):
            for chunk in chunks(*args):
                seen.append(len(writes))
                yield chunk

        class Recorder:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(cli, "_search_chunks", recorded_chunks)
        monkeypatch.setattr(cli, "_open_output", lambda output: contextlib.nullcontext(Recorder()))
        code, _, _ = run(capsys, "sample", str(path), "--D", "3", "--budget", "9000",
                         "--format", fmt)
        assert code == 0
        # the first chunk is scored before anything is written, so input errors
        # leave stdout empty; each later one after the previous chunk's rows
        chunks = -(-9000 // BATCH_SIZE)
        assert chunks >= 3
        assert seen == [0, *range(2, chunks + 1)]
        assert len(writes) == chunks + 2  # head, the chunks of rows, tail


class TestInputErrors:
    def test_non_finite_state_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"mode_dims": [2, 3], "matrix": [[float("nan")] * 2] * 36}))
        code, out, err = run(capsys, "measure", str(path))
        assert code == 2 and out == ""
        assert "InvalidState" in err

    def test_huge_entries_exit_2_with_the_error_line_alone(self, tmp_path):
        # finite 1e308 entries overflow in the trace and spectrum sums; run as
        # a child process, so that a numpy warning would reach stderr as text
        path = tmp_path / "huge.json"
        matrix = [[1e308 if i in (0, 7) else 0.0, 0.0] for i in range(36)]
        path.write_text(json.dumps({"mode_dims": [2, 3], "matrix": matrix}))
        src = str(Path(qqent.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        for argv, error in ((["measure", str(path)], "InvalidState"),
                            (["construct", "mems", "--spectrum", "1e308,1e308,0,0,0,0"],
                             "InvalidSpectrum")):
            done = subprocess.run([sys.executable, "-m", "qqent.cli", *argv], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 2 and done.stdout == "", argv
            assert done.stderr.startswith(f"error: {error}: ") and done.stderr.count("\n") == 1, (
                done.stderr)

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", "3.5", '"state"', "null", '{"state": [1]}', '{"state": null}',
         '{"state": 7}', '{"outputs": {"state": "x"}}', '{"mode_dims": [2, 3], "matrix": 5}',
         '{"mode_dims": [0, 0], "matrix": []}',
         pytest.param(json.dumps({"mode_dims": [-2, -3], "matrix": [[1 / 6 if i % 7 == 0 else 0, 0]
                                                                   for i in range(36)]}),
                      id="negative-mode-dims"),
         *(pytest.param(json.dumps({"mode_dims": [2, 3], "matrix": [
             [1 / 6, 0] if i % 7 == 0 else pair for i in range(36)]}), id=f"bool-entry-{k}")
           for k, pair in enumerate(([False, 0], [0, False]))),
         pytest.param(json.dumps({"mode_dims": [2, 3], "matrix": [[True, 0]] + [[0, 0]] * 35}),
                      id="bool-entry-true"),
         *(pytest.param(json.dumps({"mode_dims": [2, 3], "matrix": [
             [1 / 6, 0] if i % 7 == 0 else pair for i in range(36)]}), id=f"huge-int-{k}")
           for k, pair in enumerate(([10**400, 0], [0, 10**400])))],
    )
    def test_non_object_state_file_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for command in ("measure", "ls"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2 and out == ""
            assert "InvalidState" in err

    @pytest.mark.parametrize(
        "dims, dim",
        [([2.5, 3], 6), ([2.0, 3], 6), ([2, 3.0], 6), ([True, 3], 6), (["2", 3], 6),
         ([2, "3"], 6), ([[2], 3], 6), ([2, 3, 1], 6), (None, 6), ("23", 6), ({"2": 3}, 6),
         ([1, 4], 4), ([4, 1], 4), ([3, 2], 6), ([1, 6], 6), ([6, 1], 6), ([3, 3], 9),
         ([2], 2), ([], 1)],
    )
    def test_unsupported_mode_dims_exit_2(self, tmp_path, capsys, dims, dim):
        # only the JSON integers [2, 3] and [2, 2] are accepted, whatever the matrix
        path = tmp_path / "dims.json"
        matrix = [[1 / dim if i % (dim + 1) == 0 else 0.0, 0.0] for i in range(dim * dim)]
        path.write_text(json.dumps({"mode_dims": dims, "matrix": matrix}))
        for argv in (["measure", str(path)], ["ls", str(path)], ["sample", str(path), "--D", "2"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert "InvalidState" in err and "[2, 3] or [2, 2]" in err, err

    def test_two_qubit_state_still_measured(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        matrix = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
        path.write_text(json.dumps({"mode_dims": [2, 2], "matrix": matrix}))
        code, out, _ = run(capsys, "measure", str(path))
        assert code == 0
        assert json.loads(out)["outputs"]["concurrence"] == 0.0

    def test_undecodable_state_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "measure", str(path))
        assert code == 2 and out == ""
        assert "InvalidState" in err

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        state = write_fig2(tmp_path)
        for target in (tmp_path / "missing" / "out.json", tmp_path):
            for argv in (FIG2_ARGS, ["measure", str(state)], ["sample", str(state), "--D", "2"],
                         ["verify", "epu", "--trials", "1"]):
                code, out, err = run(capsys, *argv, "--output", str(target))
                assert code == 2 and out == "", argv
                assert "InvalidOutput" in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "args, error",
        [
            (["epu-min-tgx", "--entanglement", "nan"], "UnphysicalEntanglement"),
            (["epu-min-tgx", "--entanglement=-inf"], "UnphysicalEntanglement"),
            (["epu-min-tgx", "--eta", "nan"], "EtaOutOfRange"),
            (["epu-x-2x2", "--entanglement", "nan"], "UnphysicalEntanglement"),
            (["epu-x-2x2", "--eta", "nan"], "UnphysicalEntanglement"),
            # a negative eigenvalue is refused before the cap is taken from it,
            # which for this spectrum would take the root of -0.1
            (["epu-x-2x2", "--eta", "0.5", "--spectrum", "0.6,0.5,0.1,-0.2"], "InvalidSpectrum"),
            (["epu-x-2x2", "--entanglement", "0.1", "--spectrum", "0.6,0.5,0.1,-0.2"],
             "InvalidSpectrum"),
        ],
    )
    def test_non_finite_entanglement_exit_2(self, capsys, args, error):
        spectrum = "0.7,0.3,0,0,0,0" if args[0] == "epu-min-tgx" else "0.5,0.3,0.2,0"
        if "--spectrum" not in args:
            args = [*args, "--spectrum", spectrum]
        code, out, err = run(capsys, "construct", *args)
        assert code == 2 and out == ""
        assert error in err

    def test_parse_spectrum_error_type(self, capsys):
        for text, n in (("0.5,x", 2), ("0.5,0.5", 3)):
            with pytest.raises(InvalidSpectrum):
                _parse_spectrum(text, n)
        code, _, err = run(capsys, "construct", "mems", "--spectrum", "1,0,0")
        assert code == 2
        assert "InvalidSpectrum" in err

    @pytest.mark.parametrize("spectrum", ("0.5,0.5,0,0,0,nan", "nan,0.5,0.5,0,0,0",
                                          "0.5,inf,0,0,0,0", "0.5,0.5,0,0,0,-inf"))
    def test_non_finite_spectrum_not_called_unsorted(self, capsys, spectrum):
        # no "sorted" warning ahead of the error: a NaN or inf entry has no order
        code, out, err = run(capsys, "construct", "mems", "--spectrum", spectrum)
        assert code == 2 and out == ""
        assert err == "error: InvalidSpectrum: spectrum has a NaN or infinite eigenvalue\n"


#: Diagonal states inside the state check's 1e-10 tolerance but outside the
#: spectrum check's 1e-12: trace 1 + 3e-11, and an eigenvalue of -5e-11.
NEAR_TOLERANCE = {
    "trace": [0.5 + 3e-11, 0.3, 0.2, 0, 0, 0],
    "negative": [0.5 + 5e-11, 0.3, 0.2, -5e-11, 0, 0],
}
#: The same diagonals in the explicit route's canonical layout
#: (lam1, lam2, lam4, lam6, lam3, lam5).
NEAR_TOLERANCE_CANONICAL = {
    "trace": [0.5 + 3e-11, 0.3, 0, 0, 0.2, 0],
    "negative": [0.5 + 5e-11, 0.3, 0, -5e-11, 0.2, 0],
}


def write_diagonal(tmp_path, diagonal):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({
        "mode_dims": [2, 3],
        "matrix": [[diagonal[i] if i == j else 0.0, 0.0] for i in range(6) for j in range(6)],
    }))
    return path


class TestNearToleranceStates:
    """A state the input check accepts is not rejected again by a tighter
    spectrum check inside a command."""

    @pytest.mark.parametrize("kind", sorted(NEAR_TOLERANCE))
    def test_measure(self, tmp_path, capsys, kind):
        code, out, err = run(capsys, "measure", str(write_diagonal(tmp_path, NEAR_TOLERANCE[kind])))
        assert code == 0, err
        outputs = json.loads(out)["outputs"]
        assert abs(outputs["e_mems"] - 0.5) < 1e-9
        assert abs(outputs["gen_concurrence_max"] - 0.5) < 1e-9
        assert outputs["min_tgx_i_concurrence"] == 0.0

    @pytest.mark.parametrize("kind", sorted(NEAR_TOLERANCE))
    def test_ls_explicit(self, tmp_path, capsys, kind):
        path = write_diagonal(tmp_path, NEAR_TOLERANCE_CANONICAL[kind])
        code, out, err = run(capsys, "ls", str(path), "--route", "explicit")
        assert code == 0, err
        outputs = json.loads(out)["outputs"]
        assert outputs["p_e"] == 0.0
        assert outputs["residuals"]["reconstruction"] < 1e-9
        # outside the canonical layout the route refuses the form, not the input
        path = write_diagonal(tmp_path, NEAR_TOLERANCE[kind])
        code, _, err = run(capsys, "ls", str(path), "--route", "explicit")
        assert code == 3 and "NotMinimalSGX" in err


class TestVerify:
    def test_suites_pass(self, capsys):
        for suite, trials in (("epu", 100), ("ls", 50), ("formulas", 50), ("genconc", 5)):
            code, out, _ = run(capsys, "verify", suite, "--trials", str(trials))
            assert code == 0, suite
            assert out.startswith("PASS")

    def test_trivial_single_trial(self, capsys):
        code, out, _ = run(capsys, "verify", "formulas", "--trials", "1")
        assert code == 0

    def test_output_file(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "epu", "--trials", "3")
        path = tmp_path / "verify.txt"
        code2, out2, _ = run(capsys, "verify", "epu", "--trials", "3", "--output", str(path))
        assert code == code2 == 0
        assert out2 == "" and path.read_text() == out

    # sha256 of stdout as written by the four per-suite loops the suite table replaced
    @pytest.mark.parametrize("suite, trials, seed, digest", [
        ("epu", 200, 0, "81e516156ae84862bdc5b644f3a7f732d8c4e31fca0e87eeb877fac6e11295e0"),
        ("epu", 200, 7, "92085ebe1ee1181fea9f19312bf1230ecc819549a0c03ef8f85731b96e174d7c"),
        ("ls", 200, 0, "9a63a5234365810e28e26ed668295d9b2e8c0705e4d6b39e8273468d61a21fd1"),
        ("ls", 200, 7, "cb31f98deedf49dd36307a39fcf5b1243508907ce5950c6979fce67a2edab3d4"),
        ("formulas", 200, 0, "c33480ab92ee5a8412df7bcf83646a07f404f67a76c2c2eeae2da1b24b6266aa"),
        ("formulas", 200, 7, "98b423a37b458e1d90075157a1dd7aaaa73ba30f41ee2e0371a72df30c799ba5"),
        ("genconc", 5, 0, "ec3ba53b6d184adfe325b981d584c458ebff1af169772b5725889942a645f4a6"),
        ("genconc", 5, 7, "3fc2a10bf16c6fb9b0064114aea1511f14deb7812961832ebd7bbb0a56718eb7"),
    ])
    def test_bytes_unchanged(self, capsys, suite, trials, seed, digest):
        code, out, _ = run(capsys, "verify", suite, "--trials", str(trials), "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, blas_platform()

    @pytest.mark.parametrize("suite", ["epu", "ls", "formulas", "genconc"])
    def test_fail_stops_at_first_trial_over_limit(self, capsys, monkeypatch, suite):
        trial, limits = _invariants._SUITES[suite]
        drawn = []

        def counted(rng):
            drawn.append(trial(rng))
            return drawn[-1]

        # genconc's bound excess is negative, so only a negative limit fails it
        limit = -1.0 if suite == "genconc" else 1e-17
        monkeypatch.setitem(_invariants._SUITES, suite, (counted, dict.fromkeys(limits, limit)))
        code, out, err = run(capsys, "verify", suite, "--trials", "20")
        assert code == 1
        assert out.startswith(f"FAIL suite={suite} trials=20 seed=0 ")
        assert [field.split("=")[0] for field in out.split()[4:]] == list(limits)
        assert err.startswith("  offending input: trial 0")
        assert len(drawn) == 1
        assert "np.float64" not in err


def test_cli_import_leaves_out_concurrent_futures():
    # every qqent command pays its imports, and concurrent.futures alone
    # costs several milliseconds; nothing in qqent runs work on other threads
    src = str(Path(qqent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, qqent.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"



#: Valid state documents the wire fuzz mutates: two 2x3 states and a 2x2 one
FUZZ_DOCS = (
    cli.state_to_wire(build_epu_min_tgx((0.7, 0.3, 0, 0, 0, 0), 0.693)[0], (2, 3)),
    cli.state_to_wire(np.eye(6) / 6, (2, 3)),
    cli.state_to_wire(np.diag([0.4, 0.3, 0.2, 0.1]) + 0.05 * np.fliplr(np.eye(4)), (2, 2)),
)
#: JSON literals a mutation may write: booleans, non-finite floats, a float
#: literal beyond the double range, an integer beyond it, and other types
FUZZ_LITERALS = ("true", "false", "null", "NaN", "Infinity", "-Infinity", "1e309", "-1e309",
                 str(10**400), "-0.0", "0", "-0", "0e400", "1e-400", "1", "2", "3", "0.5",
                 "1e-320", "1e308", '"2"', '"0.5"', "[]", "{}")


def fuzz_nodes(node, path=()):
    """Every (path, value) of a JSON document, the document itself first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from fuzz_nodes(child, (*path, key))


@st.composite
def mutated_documents(draw):
    """The JSON text of a valid state document after one to three mutations.
    Each picks a depth, then a node at that depth (the document itself, a
    field, an item of one, a number), and replaces it by a literal, a
    number, a copy of another node, the node wrapped in a list or a record,
    the list without or with a repeat of one item, or with one item's
    contents in its place, or the object without a key or with one more."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(fuzz_nodes(doc))
        depth = draw(st.sampled_from(sorted({len(path) for path, _ in nodes})))
        path, node = draw(st.sampled_from([n for n in nodes if len(n[0]) == depth]))
        options = [
            st.sampled_from(FUZZ_LITERALS).map(lambda text: f"\0{text}\0"),
            st.integers(-10**30, 10**30),
            st.floats(),
            st.sampled_from([value for _, value in nodes]),
            st.sampled_from(([node], {"state": node}, {"outputs": {"state": node}})),
        ]
        if isinstance(node, list) and node:
            options.append(st.integers(0, len(node) - 1).flatmap(lambda k: st.sampled_from((
                node[:k] + node[k + 1:], node[:k + 1] + node[k:],
                node[:k] + (node[k] if isinstance(node[k], list) else [node[k]]) + node[k + 1:],
            ))))
        if isinstance(node, dict):
            options.append(st.sampled_from([*node, "extra"]).map(
                lambda key: {k: v for k, v in node.items() if k != key}))
            options.append(st.sampled_from(("extra", "state", "outputs", "matrix")).map(
                lambda key: {**node, key: copy.deepcopy(doc)}))
        new = copy.deepcopy(draw(st.one_of(options)))
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = new
        else:
            doc = new
    # each "\0text\0" string is written as the JSON literal text
    return re.sub(r'"\\u0000(.*?)\\u0000"', lambda m: json.loads(f'"{m[1]}"'), json.dumps(doc))


def run_stdin(command, text):
    """cli.main on ``command -`` with ``text`` as stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-"])
    return code, out.getvalue(), err.getvalue()


class TestWireFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(text=mutated_documents())
    def test_mutated_documents_exit_cleanly(self, text):
        # every mutated document gets an answer or a typed error: exit 0, 2 or
        # 3, no stdout on an error, and on success the output of its
        # canonical re-encoding
        for command in ("measure", "ls"):
            code, out, err = run_stdin(command, text)
            assert code in (0, 2, 3), (command, code, err)
            if code:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            else:
                canonical = json.dumps(cli.state_to_wire(*state_from_wire(json.loads(text))))
                assert run_stdin(command, canonical) == (0, out, err)


def mostly(valid, invalid):
    """``valid`` about three times in four, else ``invalid`` (one_of would
    pick each distinct branch equally often)."""
    return st.tuples(st.integers(0, 3), valid, invalid).map(lambda t: t[1] if t[0] else t[2])


#: argv values: numbers as the shell passes them, non-finite and beyond the
#: double range included; strings, the empty one included; small budgets
ARGV_STRINGS = st.one_of(
    st.sampled_from(["", "x", "-", "0,0", "--"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6),
)
ARGV_FLOATS = mostly(
    st.one_of(st.sampled_from(["0", "0.5", "1", "-0.0"]), st.floats(0, 1).map(repr)),
    st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "-1", "2"]),
              st.floats().map(repr), st.integers(-10**30, 10**30).map(str), ARGV_STRINGS),
)
ARGV_INTS = mostly(
    st.integers(-1, 8).map(str),
    st.one_of(st.sampled_from(["nan", "inf", "1e400", "2.5"]),
              st.integers(-10**30, 10**30).map(str), ARGV_STRINGS),
)
ARGV_BUDGETS = mostly(st.sampled_from(["1", "2", "7", "50"]),
                      st.sampled_from(["-1", "0", "nan", "1e400", "2.5", "", "x"]))
ARGV_SPECTRA = mostly(
    st.sampled_from(["0.7,0.3,0,0,0,0", "0.4,0.3,0.2,0.1,0,0", "0.5,0.3,0.2,0",
                     "0.1,0.2,0.7,0,0,0", "0.25,0.25,0.25,0.25"]),
    st.one_of(st.lists(ARGV_FLOATS, max_size=7).map(",".join), ARGV_STRINGS),
)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The fuzz's input paths (a rank-2 2x3 and a 2x2 state, malformed JSON, a
    missing file, and - for stdin), its --output paths, and the stdin document,
    the maximally mixed 2x3 state."""
    root = tmp_path_factory.mktemp("argv")
    inputs = [root / name for name in ("state23.json", "state22.json", "bad.json", "missing.json")]
    for path, doc in zip(inputs, (FUZZ_DOCS[0], FUZZ_DOCS[2])):
        path.write_text(json.dumps(doc))
    inputs[2].write_text('{"mode_dims": [2, 3], "matrix": [[0.5, 0')
    outputs = [root / "out.txt", root / "no-such-dir" / "out.txt", root]
    return [*map(str, inputs), "-"], list(map(str, outputs)), json.dumps(FUZZ_DOCS[1])


def subcommand_parsers():
    """build_parser()'s subcommands, name to parser."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def argv_value(action, inputs, outputs):
    """A strategy for the value of one parser action."""
    if action.dest == "input":
        return st.sampled_from(inputs)
    if action.dest == "output":
        return st.sampled_from(outputs)
    if action.dest in ("budget", "trials"):
        return ARGV_BUDGETS
    if action.choices:
        return mostly(st.sampled_from(sorted(action.choices)), ARGV_STRINGS)
    return {int: ARGV_INTS, float: ARGV_FLOATS}.get(action.type, ARGV_SPECTRA)


@st.composite
def argv_lists(draw, inputs, outputs):
    """A subcommand, its positionals, then a subset of its options in drawn
    order; --budget and --trials always, so no search runs its default
    budget.  Never --help, and --version is not a subcommand option."""
    name = draw(st.sampled_from(sorted(subcommand_parsers())))
    argv = [name]
    options = []
    for action in subcommand_parsers()[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        value = draw(argv_value(action, inputs, outputs))
        if not action.option_strings:
            argv.append(value)
        elif action.required or action.dest in ("budget", "trials") or draw(st.booleans()):
            options.append([action.option_strings[0], value])
    for option in draw(st.permutations(options)):
        argv += option
    return argv


class TestArgvFuzz:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_argv_lists_exit_cleanly(self, argv_files, data):
        # every argv gets an answer or a typed error: exit 0, 2 or 3, or
        # argparse's SystemExit(2), with no stdout unless the exit is 0
        inputs, outputs, stdin = argv_files
        argv = data.draw(argv_lists(inputs, outputs))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, (argv, err.getvalue())
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert code == 0 or out.getvalue() == "", (argv, code, out.getvalue())
