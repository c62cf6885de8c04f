"""Command-line interface: exit codes, determinism, and file handling."""

import csv
import json

import numpy as np
import pytest

from eigstab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_config_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "error" in err


def test_both_gamma_and_q_rejected(capsys):
    code, _, err = run_cli(capsys, "constants", "--gamma", "1.5", "--q", "4", "--d", "1")
    assert code == 2


def test_missing_exponent_rejected(capsys):
    code, _, _ = run_cli(capsys, "constants", "--d", "1")
    assert code == 2


def test_bad_exponent_range_rejected(capsys):
    code, _, _ = run_cli(capsys, "constants", "--gamma", "0.4", "--d", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "ground-state", "--q", "7", "--d", "3")
    assert code == 2


def test_constants_poschl_teller(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--gamma", "1.5", "--d", "1",
        "--grid-l", "20", "--grid-n", "2000",
    )
    assert code == 0
    doc = json.loads(out)
    assert float(doc["C"]) == pytest.approx((3.0 / 16.0) ** (2.0 / 3.0), rel=1e-4)
    assert float(doc["route_mismatch"]) < 1e-6


def test_constants_deterministic(capsys):
    args = ("constants", "--q", "4", "--d", "1", "--grid-l", "20", "--grid-n", "1000")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_ground_state_emits_json(capsys, tmp_path):
    out_path = tmp_path / "gs.json"
    code, out, _ = run_cli(
        capsys, "ground-state", "--q", "4", "--d", "1",
        "--grid-l", "20", "--grid-n", "1000", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["q"] == 4.0
    assert float(doc["E"]) == pytest.approx(-((3.0 / 16.0) ** (2.0 / 3.0)), abs=1e-5)


def _write_potential(path, coords, vals):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["coordinate", "value"])
        for c, v in zip(coords, vals):
            w.writerow([f"{c:.12g}", f"{v:.12g}"])


def test_eigen_zero_potential(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    x = np.linspace(-10.0, 10.0, 201)
    _write_potential(path, x, np.zeros_like(x))
    code, out, _ = run_cli(
        capsys, "eigen", "--potential", str(path), "--grid-l", "10", "--grid-n", "500",
    )
    assert code == 0
    assert float(json.loads(out)["lambda"]) == 0.0


def test_eigen_poschl_teller(capsys, tmp_path):
    path = tmp_path / "pt.csv"
    x = np.linspace(-20.0, 20.0, 4001)
    _write_potential(path, x, -2.0 / np.cosh(x) ** 2)
    code, out, _ = run_cli(
        capsys, "eigen", "--potential", str(path), "--grid-l", "20", "--grid-n", "4000",
    )
    assert code == 0
    assert float(json.loads(out)["lambda"]) == pytest.approx(-1.0, abs=1e-4)


def test_eigen_extent_mismatch(capsys, tmp_path):
    path = tmp_path / "short.csv"
    x = np.linspace(-5.0, 5.0, 101)
    _write_potential(path, x, -np.ones_like(x))
    code, _, err = run_cli(
        capsys, "eigen", "--potential", str(path), "--grid-l", "20", "--grid-n", "500",
    )
    assert code == 2
    assert "extent" in err


def test_eigen_missing_file(capsys):
    code, _, _ = run_cli(
        capsys, "eigen", "--potential", "/nonexistent.csv", "--grid-l", "20", "--grid-n", "500",
    )
    assert code == 2


def test_holder_verify_clean_and_deterministic(capsys):
    args = ("holder-verify", "--samples", "300", "--seed", "7")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["violations"] == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "holder-verify", "--samples", "300", "--seed", "8")
    assert out3 != out1


def test_holder_verify_p_flag(capsys):
    code, out, _ = run_cli(capsys, "holder-verify", "--samples", "100", "--seed", "1", "--p", "3")
    assert code == 0
    assert json.loads(out)["exponents"] == [3.0]
    code, _, _ = run_cli(capsys, "holder-verify", "--samples", "10", "--p", "1.5")
    assert code == 2


def test_hessian_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "hessian", "--q", "4", "--d", "1", "--grid-l", "20", "--grid-n", "1000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel_dim"] == 2
    assert doc["anomalies"] == []


def test_convergence_table(capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "--grid-n", "500", "--grid-l", "20", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,h,lambda,error,ratio"
    assert len(lines) == 4
    last_ratio = float(lines[3].split(",")[-1])
    assert 3.2 <= last_ratio <= 4.8


def test_config_file_mirrors_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 1.5, "d": 1, "grid": {"L": 20.0, "n": 1000}}))
    code, out1, _ = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "constants", "--gamma", "1.5", "--d", "1", "--grid-l", "20", "--grid-n", "1000",
    )
    assert out1 == out2


def test_config_file_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 1.5, "d": 1, "grid": {"L": 20.0, "n": 500}}))
    code, out, _ = run_cli(capsys, "constants", "--config", str(cfg), "--grid-n", "1000")
    assert code == 0
    _, direct, _ = run_cli(
        capsys, "constants", "--gamma", "1.5", "--d", "1", "--grid-l", "20", "--grid-n", "1000",
    )
    assert out == direct


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 1.5, "frobnicate": True}))
    code, _, err = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


def test_stability_sweep_radial(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "stability-sweep", "--gamma", "1", "--d", "3",
        "--grid-l", "250", "--grid-n", "2000",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert float(doc["min_empirical_c"]) > 0.0
    rows = out_path.read_text().strip().split("\n")
    assert len(rows) == 13
    for row in rows[1:]:
        fields = row.split(",")
        assert all(np.isfinite(float(v)) for v in fields[1:] if v != "")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigen_non_finite_potential(capsys, tmp_path, bad):
    path = tmp_path / "bad.csv"
    x = np.linspace(-10.0, 10.0, 201)
    vals = -np.ones_like(x)
    vals[57] = bad
    _write_potential(path, x, vals)
    code, _, err = run_cli(
        capsys, "eigen", "--potential", str(path), "--grid-l", "10", "--grid-n", "500",
    )
    assert code == 2
    assert "non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags", [("--grid-n", "8"), ("--grid-l", "nan"), ("--grid-l", "inf")]
)
def test_eigen_invalid_grid_flags(capsys, tmp_path, flags):
    path = tmp_path / "flat.csv"
    x = np.linspace(-10.0, 10.0, 201)
    _write_potential(path, x, -np.ones_like(x))
    code, _, err = run_cli(
        capsys, "eigen", "--potential", str(path), "--grid-l", "10", "--grid-n", "500", *flags,
    )
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
