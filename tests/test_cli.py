import json

import numpy as np
import pytest

from qqent.cli import _parse_spectrum, main, state_from_wire
from qqent.decompositions import average_entanglement, decompose
from qqent.errors import InvalidSpectrum
from qqent.numerics import haar_unitary

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


class TestInputErrors:
    def test_non_finite_state_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"mode_dims": [2, 3], "matrix": [[float("nan")] * 2] * 36}))
        code, out, err = run(capsys, "measure", str(path))
        assert code == 2 and out == ""
        assert "InvalidState" in err

    @pytest.mark.parametrize(
        "args, error",
        [
            (["epu-min-tgx", "--entanglement", "nan"], "UnphysicalEntanglement"),
            (["epu-min-tgx", "--entanglement=-inf"], "UnphysicalEntanglement"),
            (["epu-min-tgx", "--eta", "nan"], "EtaOutOfRange"),
            (["epu-x-2x2", "--entanglement", "nan"], "UnphysicalEntanglement"),
            (["epu-x-2x2", "--eta", "nan"], "UnphysicalEntanglement"),
        ],
    )
    def test_non_finite_entanglement_exit_2(self, capsys, args, error):
        spectrum = "0.7,0.3,0,0,0,0" if args[0] == "epu-min-tgx" else "0.5,0.3,0.2,0"
        code, out, err = run(capsys, "construct", *args, "--spectrum", spectrum)
        assert code == 2 and out == ""
        assert error in err

    def test_parse_spectrum_error_type(self, capsys):
        for text, n in (("0.5,x", 2), ("0.5,0.5", 3)):
            with pytest.raises(InvalidSpectrum):
                _parse_spectrum(text, n)
        code, _, err = run(capsys, "construct", "mems", "--spectrum", "1,0,0")
        assert code == 2
        assert "InvalidSpectrum" in err


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
