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
    cfg.write_text(json.dumps({"gamma": 1.5, "d": 1, "grid_l": 20.0, "grid_n": 1000}))
    code, out1, _ = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "constants", "--gamma", "1.5", "--d", "1", "--grid-l", "20", "--grid-n", "1000",
    )
    assert out1 == out2


def test_config_file_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 1.5, "d": 1, "grid_l": 20.0, "grid_n": 500}))
    code, out, _ = run_cli(capsys, "constants", "--config", str(cfg), "--grid-n", "1000")
    assert code == 0
    _, direct, _ = run_cli(
        capsys, "constants", "--gamma", "1.5", "--d", "1", "--grid-l", "20", "--grid-n", "1000",
    )
    assert out == direct


@pytest.mark.parametrize(
    "key, value",
    [("frobnicate", True), ("tol", 1e-4), ("grid", {"L": 20.0, "n": 1000})],
    ids=["frobnicate", "tol", "grid"],
)
def test_config_unknown_key(capsys, tmp_path, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 1.5, key: value}))
    code, out, err = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"unknown config key {key!r}" in err


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


@pytest.mark.parametrize(
    "flags, doc",
    [
        (("constants", "--gamma", "nan"), {}),
        (("constants", "--gamma", "inf"), {}),
        (("constants", "--q", "nan"), {}),
        (("holder-verify", "--p", "nan"), {}),
        (("holder-verify", "--p", "inf"), {}),
        (("constants", "--gamma", "1.5", "--grid-l", "nan"), {}),
        (("constants", "--gamma", "1.5", "--grid-l", "inf"), {}),
        (("constants", "--gamma", "1.5"), {"grid_l": float("inf")}),
        (("constants",), {"gamma": float("nan")}),
    ],
)
def test_non_finite_settings_rejected(capsys, tmp_path, flags, doc):
    # checked after the config file (json writes Infinity/NaN) and the flags merge
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d": 1, **doc}))
    code, out, err = run_cli(capsys, *flags, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "must be finite" in err


_HOLDER_GOLDENS = [
    (
        ("--samples", "300", "--seed", "0"),
        '{"samples": 300, "seed": 0, "exponents": [2.0, 2.5, 3.0, 4.0, 6.0], '
        '"violations": 0, "tightness": {"holder_bounds": "0.5", '
        '"convexity": "0.93511", "remainder": "0.5"}}\n',
    ),
    (
        ("--samples", "100", "--seed", "1", "--p", "3"),
        '{"samples": 100, "seed": 1, "exponents": [3.0], "violations": 0, '
        '"tightness": {"holder_bounds": "0.296475", "convexity": "0.547058", '
        '"remainder": "0.398445"}}\n',
    ),
    (
        # not a multiple of the fuzzer's chunk
        ("--samples", "1003", "--seed", "4"),
        '{"samples": 1003, "seed": 4, "exponents": [2.0, 2.5, 3.0, 4.0, 6.0], '
        '"violations": 0, "tightness": {"holder_bounds": "0.5", '
        '"convexity": "0.926826", "remainder": "0.5"}}\n',
    ),
    (
        ("--samples", "7", "--seed", "2", "--p", "2.5"),
        '{"samples": 7, "seed": 2, "exponents": [2.5], "violations": 0, '
        '"tightness": {"holder_bounds": "0.352537", "convexity": "0.631128", '
        '"remainder": "0.430634"}}\n',
    ),
]


@pytest.mark.parametrize("flags, expected", _HOLDER_GOLDENS)
def test_holder_verify_golden_output(capsys, flags, expected):
    """The exact report of the per-sample fuzz loop that the batched one replaced."""
    code, out, _ = run_cli(capsys, "holder-verify", *flags)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "command, doc",
    [
        ("constants", {"gamma": "1.5", "d": 1}),
        ("constants", {"gamma": 1.5, "d": 1, "grid_n": 1000.5}),
        ("holder-verify", {"samples": "10"}),
    ],
)
def test_config_value_types_rejected(capsys, tmp_path, command, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def _per_sample_violations(samples, seed, tol):
    """The fuzz loop one sample at a time through the public per-pair
    functions: (violation count, first violation message)."""
    from eigstab.holder import (
        FUZZ_EXPONENTS,
        duality_continuity_check,
        holder_report,
        power_comparison_check,
        remainder_bounds,
        uniform_convexity_gap,
    )
    from eigstab.measure import WeightedMeasure, conjugate_exponent
    from eigstab.sampling import random_nonnegative_unit, random_unit_function

    rng = np.random.default_rng(seed)
    mu = WeightedMeasure.uniform_probability(64)
    found = []
    for i in range(samples):
        p = FUZZ_EXPONENTS[i % len(FUZZ_EXPONENTS)]
        pc = conjugate_exponent(p)
        q = 2.0 * p / (p - 1.0)
        f = random_unit_function(rng, mu, p, complex_values=True)
        g = random_unit_function(rng, mu, pc, complex_values=True)
        rep = holder_report(f, g, p)
        for tag, bound in (("main1", rep.bound_main1), ("main2", rep.bound_main2)):
            if bound > rep.deficit + tol:
                found.append(f"sample {i} p={p:g}: {tag} {bound!r} > {rep.deficit!r}")
        u = random_unit_function(rng, mu, p)
        v = random_unit_function(rng, mu, p)
        gap, lower = uniform_convexity_gap(u, v, p)
        if lower > gap + tol:
            found.append(f"sample {i} p={p:g}: convexity {lower!r} > {gap!r}")
        lhs, rhs = duality_continuity_check(f, 0.5 * g + 0.5 * f, p)
        if lhs > rhs + tol:
            found.append(f"sample {i} p={p:g}: duality {lhs!r} > {rhs!r}")
        pw = power_comparison_check(f, g, q)
        if pw.quad_lhs > pw.quad_rhs + tol:
            found.append(f"sample {i}: power-quad {pw.quad_lhs!r} > {pw.quad_rhs!r}")
        if pw.high_lhs is not None and pw.high_lhs > pw.high_rhs + tol:
            found.append(f"sample {i}: power-high {pw.high_lhs!r} > {pw.high_rhs!r}")
        psi = random_unit_function(rng, mu, q, complex_values=True)
        U = random_nonnegative_unit(rng, mu, p)
        B, H = remainder_bounds(psi, U, q)
        if H < -tol:
            found.append(f"sample {i} q={q:g}: gap functional {H!r} < 0")
        if B > H + tol:
            found.append(f"sample {i} q={q:g}: remainder {B!r} > {H!r}")
    return len(found), (found[0] if found else None)


# -0.03: the first violation is the convexity check of sample 5;
# -0.1: the convexity check of sample 0, after a main1 and main2 that pass
@pytest.mark.parametrize("tol", [-0.03, -0.1])
def test_holder_verify_first_violation(capsys, monkeypatch, tol):
    import eigstab.holder

    samples, seed = 250, 3  # three chunks, the last one partial
    count, first = _per_sample_violations(samples, seed, tol)
    assert first is not None and not first.startswith("sample 0 p=2: main1")
    monkeypatch.setattr(eigstab.holder, "FUZZ_TOL", tol)
    code, out, err = run_cli(
        capsys, "holder-verify", "--samples", str(samples), "--seed", str(seed)
    )
    assert code == 1
    assert json.loads(out)["violations"] == count
    assert err == f"contract violation: {first}\n"


class _ZeroNormals:
    """A generator whose every normal is 0; it gives up after 100 calls, so
    code that redraws degenerate samples fails instead of looping."""

    calls = 0

    def standard_normal(self, size=None, out=None):
        self.calls += 1
        if self.calls > 100:
            raise RuntimeError("redrawing forever")
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


def test_holder_verify_zero_draw_is_degenerate(capsys, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ZeroNormals())
    code, out, err = run_cli(capsys, "holder-verify", "--samples", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("contract violation: random draw with L^2 norm")
    assert "Traceback" not in err


def test_main_leaves_no_cyclic_garbage(capsys):
    """Repeated in-process runs must not pile up garbage that only the
    cycle collector frees; it held the memory of a fuzz loop calling main()."""
    import gc

    run_cli(capsys, "holder-verify", "--samples", "5")
    gc.collect()
    gc.disable()
    try:
        run_cli(capsys, "holder-verify", "--samples", "5")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "flags",
    [
        ("holder-verify", "--p", "1e6", "--samples", "5"),
        ("constants", "--gamma", "1e6", "--d", "1", "--grid-n", "500"),
    ],
    ids=["holder-verify", "constants"],
)
def test_overflow_is_a_clean_refusal(capsys, flags):
    # a huge but finite exponent overflows a float power; the CLI reports it
    # on one line instead of ending in an OverflowError traceback
    code, out, err = run_cli(capsys, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("contract violation:")
    assert "overflows" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("constants", "--gamma", "1.5", "--d", "1", "--grid-l", "1e200"),
        ("convergence", "--grid-l", "1e300"),
        ("ground-state", "--gamma", "1.5", "--d", "1", "--grid-l", "1e-300"),
    ],
    ids=["constants-1e200", "convergence-1e300", "ground-state-1e-300"],
)
def test_grid_spacing_out_of_range_is_config_error(capsys, flags):
    # 1/h^2 overflows (or h^2 underflows) for these extents
    code, out, err = run_cli(capsys, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid grid:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("ground-state", "--gamma", "1.5", "--d", "1", "--grid-l", "3e-151"),
        ("ground-state", "--gamma", "1.5", "--d", "1", "--grid-l", "4e-151"),
        ("convergence", "--grid-l", "5.3e-151"),
        ("convergence", "--grid-l", "1e-70"),
    ],
    ids=["ground-state-3e-151", "ground-state-4e-151", "convergence-5.3e-151",
         "convergence-1e-70"],
)
def test_laplacian_out_of_range_is_config_error(capsys, flags):
    # 1/h^2 is finite for these extents, but 2/h^2, the radial edge terms
    # or LAPACK's scaled squares of them are not
    code, out, err = run_cli(capsys, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid grid:")
    assert err.count("\n") == 1


# seed 7: 31 violations at -0.03 in 626 samples, the first one sample 25;
# at -0.01 one violation, sample 435, in the second 250-sample chunk
@pytest.mark.parametrize("tol", [-0.03, -0.01])
def test_holder_verify_first_violation_spans_chunks(capsys, monkeypatch, tol):
    import eigstab.holder

    k = len(eigstab.holder.FUZZ_EXPONENTS)
    chunk = eigstab.holder.FUZZ_CHUNK // k * k
    samples, seed = 2 * chunk + chunk // 2 + 1, 7  # three chunks, the last one partial
    count, first = _per_sample_violations(samples, seed, tol)
    assert first is not None
    monkeypatch.setattr(eigstab.holder, "FUZZ_TOL", tol)
    code, out, err = run_cli(
        capsys, "holder-verify", "--samples", str(samples), "--seed", str(seed)
    )
    assert code == 1
    assert json.loads(out)["violations"] == count
    assert err == f"contract violation: {first}\n"
