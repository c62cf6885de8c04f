"""The profile solve: a Petviashvili seed on the fixed unit-scale grid,
rescaled, then Newton on (Q, E) with the bordered l = 0 Hessian channel,
closed by one certified ground pair (docs/derivations.md §3)."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from eigstab import groundstate
from eigstab.exceptions import ConvergenceError
from eigstab.grid import Grid, _Tridiag

SRC = Path(__file__).resolve().parent.parent / "src"

#: the five fixture grids of tests/conftest.py, (q, d, extent, n)
FIXTURES = [
    (4.0, 1, 20.0, 4000),
    (4.0, 1, 30.0, 6000),
    (3.0, 1, 20.0, 4000),
    (4.0, 3, 1500.0, 6000),
    (10.0 / 3.0, 3, 250.0, 4000),
]


def _solve(q, d, extent, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return groundstate.solve_ground_state(q, d, Grid.radial(d, extent, n))


def _recorded_solves(monkeypatch):
    """(sigma, copy of the right-hand side) of every shifted solve."""
    solve, solves = _Tridiag.solve_shifted, []

    def recorded(self, sigma, rhs):
        solves.append((sigma, np.array(rhs, dtype=float)))
        return solve(self, sigma, rhs)

    monkeypatch.setattr(_Tridiag, "solve_shifted", recorded)
    return solves


@pytest.mark.parametrize("case", FIXTURES, ids=[str(c) for c in FIXTURES])
def test_newton_converges_quadratically_in_few_steps(monkeypatch, case):
    solves = _recorded_solves(monkeypatch)
    gs = _solve(*case)
    newton = [rhs for sigma, rhs in solves if sigma == 0.0]
    # each step solves for the residual, u and the iterate v on one factorization
    assert len(newton) % 3 == 0
    iterates = newton[2::3]
    assert 1 <= len(iterates) <= 5
    # the closing pair is the last iterate up to its own (tiny) Newton error
    iterates.append(np.sqrt(gs.grid.quad_weights) * gs.Q.values)
    steps = [float(np.linalg.norm(b - a)) for a, b in zip(iterates, iterates[1:])]
    assert steps[-1] <= groundstate.NEWTON_STEP_TOL
    for earlier, later in zip(steps, steps[1:]):
        assert later <= 100.0 * earlier**2 + 1e-12


@pytest.mark.parametrize("case", FIXTURES[::3], ids=[str(c) for c in FIXTURES[::3]])
def test_the_seed_runs_on_the_unit_grid(monkeypatch, case):
    # one doubling of the unit grid settles the scale on the fixtures
    solves = _recorded_solves(monkeypatch)
    _solve(*case)
    sizes = {rhs.size for sigma, rhs in solves if sigma == -1.0}
    assert sizes == {groundstate.SEED_N, 2 * groundstate.SEED_N}


@pytest.mark.parametrize(
    "q, d, settled_n",
    [(4.0, 1, 2 * groundstate.SEED_N), (22.0, 2, 128 * groundstate.SEED_N)],
    ids=["q4-d1", "q22-d2"],
)
def test_the_seed_grid_refines_until_the_scale_settles(q, d, settled_n):
    # the d = 2 core at q = 22 is about 0.06 wide: s^2 moves by up to 34 %
    # per doubling before the spacing resolves it, and by 0.4 % at the cap
    unit, u, s, change = groundstate._unit_seed(q, d)
    assert unit.n == settled_n
    assert change <= 0.01


@pytest.mark.parametrize("gamma", [50.0, 1000.0])
def test_the_seed_grid_holds_the_d1_profile(gamma):
    # the d = 1 profile sech^b(r/b) is 2/(q-2) = gamma - 1/2 wide in its core
    q = groundstate.Exponents.from_gamma(gamma, 1).q
    unit, u, s, change = groundstate._unit_seed(q, 1)
    assert unit.extent > 40.0
    assert u[-1] <= np.exp(-30.0) * u[0]
    assert change <= groundstate.SEED_SETTLE


def _constants(capsys, *argv):
    from eigstab.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["constants", *argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return float(json.loads(captured.out)["C_prime"])


def test_a_resolving_grid_at_q22_in_d2_is_not_refused(capsys):
    # C' the SCF solve gave on this grid; a fixed seed grid with h = 0.02
    # puts s^2 8 % too high, which refused it
    c_prime = _constants(capsys, "--q", "22", "--d", "2", "--grid-l", "5000", "--grid-n", "40000")
    assert abs(c_prime - 3.8931175487883025e-05) <= 1e-10 * c_prime


def test_gamma_50_in_d1_on_a_large_box_matches(capsys):
    # C' the SCF solve gave on this grid
    c_prime = _constants(capsys, "--gamma", "50", "--d", "1", "--grid-l", "150", "--grid-n", "8000")
    assert abs(c_prime - 0.93191172154373958) <= 1e-10 * c_prime


@pytest.mark.parametrize(
    "q", [10.0 / 3.0, groundstate.Exponents.from_gamma(0.3, 3).q], ids=["gamma1", "gamma0.3"]
)
def test_a_box_too_small_for_the_profile_is_refused(q):
    # gamma = 1: the box holds 1.6 profile widths, and the solve on it gives
    # a C 85 times too small; gamma = 0.3: it gives E >= 0
    with pytest.raises(ConvergenceError):
        _solve(q, 3, 20.0, 4000)


def test_a_non_finite_step_is_a_convergence_error(monkeypatch):
    solve = _Tridiag.solve_shifted

    def poisoned(self, sigma, rhs):
        out = solve(self, sigma, rhs)
        return out * np.nan if sigma == 0.0 else out

    monkeypatch.setattr(_Tridiag, "solve_shifted", poisoned)
    with pytest.raises(ConvergenceError):
        _solve(4.0, 1, 20.0, 2000)


def test_the_step_cap_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(groundstate, "NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 steps"):
        _solve(4.0, 3, 1500.0, 6000)


def test_constants_on_a_truncating_default_grid_exits_1():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "eigstab.cli", "constants", "--gamma", "1", "--d", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("contract violation:")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
