"""The Petviashvili phase only seeds the SCF polish, through an O(h^2)
interpolation; the polish and its residual gate set the answer.  So the
phase stops on its stabilizing factor alone (|gamma - 1| < 1e-12), and a
perturbed seed leaves C' where it was."""

import warnings

import numpy as np
import pytest

from eigstab import groundstate
from eigstab.grid import Grid, _Tridiag

#: (q, d, extent, n) and the session fixture solved on that grid
CASES = {
    "gs_q4_d1": (4.0, 1, 20.0, 4000),
    "gs_q103_d3": (10.0 / 3.0, 3, 250.0, 4000),
    "gs_q4_d3": (4.0, 3, 1500.0, 6000),
}


def _solve(q, d, extent, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return groundstate.solve_ground_state(q, d, Grid.radial(d, extent, n))


@pytest.mark.parametrize("eps", [1e-5, 1e-3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_perturbed_seed_leaves_the_constant(request, monkeypatch, name, eps):
    seed = groundstate._petviashvili

    def perturbed(grid, q):
        return seed(grid, q) * (1.0 + eps * np.cos(grid.nodes))

    monkeypatch.setattr(groundstate, "_petviashvili", perturbed)
    want = request.getfixturevalue(name)
    gs = _solve(*CASES[name])
    assert abs(gs.C_prime - want.C_prime) <= 1e-10 * want.C_prime
    # the SCF gate of solve_ground_state at its default tol
    tol_eff = max(1e-10, 200.0 * np.finfo(float).eps * 2.0 / gs.grid.spacing**2)
    assert gs.el_residual <= tol_eff


def test_the_seed_is_not_over_solved(monkeypatch):
    # 95 solves when the loop also waited for the residual to reach 1e-12
    solve, solves = _Tridiag.solve_shifted, []

    def counted(self, sigma, rhs):
        solves.append(sigma)
        return solve(self, sigma, rhs)

    monkeypatch.setattr(_Tridiag, "solve_shifted", counted)
    groundstate._petviashvili(Grid.radial(3, 1500.0, 6000), 4.0)
    assert 0 < solves.count(-1.0) <= 60
