"""Gates that the fixtures never reach: the profile's residual gate and
inertia certificate, the kernel report's anomaly path through the CLI, and
the range of k and n in smallest_eigenpairs."""

import json
import math
import warnings

import numpy as np
import pytest

from eigstab import groundstate, hessian
from eigstab.cli import main
from eigstab.exceptions import ConvergenceError
from eigstab.grid import Grid, GridFunction
from eigstab.spectral import smallest_eigenpairs


def test_a_perturbed_closing_pair_fails_the_residual_gate(monkeypatch):
    # a seed perturbed by 1e-3 cos r and a Newton that stops after one step:
    # the pair's residual is far above tol_eff, so the solve must refuse and
    # hand back what it had
    seed = groundstate._petviashvili

    def perturbed(grid, q, u0=None):
        return seed(grid, q, u0) * (1.0 + 1e-3 * np.cos(grid.nodes))

    monkeypatch.setattr(groundstate, "_petviashvili", perturbed)
    monkeypatch.setattr(groundstate, "NEWTON_STEP_TOL", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError, match="profile solve stalled") as info:
            groundstate.solve_ground_state(4.0, 1, Grid.radial(1, 20.0, 4000))
    assert isinstance(info.value.best, GridFunction)
    assert math.isfinite(info.value.residual)
    assert info.value.residual == pytest.approx(2.252e-7, rel=1e-3)


def test_a_pair_past_the_residual_gate_must_pass_the_inertia(monkeypatch):
    # the inertia half of the certificate refuses with its own message
    monkeypatch.setattr(groundstate, "_certified", lambda *args: False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError, match="not its operator's ground pair"):
            groundstate.solve_ground_state(4.0, 1, Grid.radial(1, 20.0, 4000))


def test_a_kernel_anomaly_is_a_contract_violation(monkeypatch, capsys):
    # with the kernel tolerance at the whole potential scale, every low mode
    # of channels 0 and 1 counts as kernel
    monkeypatch.setattr(hessian, "KERNEL_TOL_FACTOR", 1.0)
    code = main(["hessian", "--q", "4", "--d", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "contract violation: channel ell=0: 5 near-zero eigenvalues, "
        "expected 1 (tol 1.638e+00)\n"
    )
    doc = json.loads(captured.out)
    assert len(doc["anomalies"]) == 2
    assert doc["kernel_dim"] == 10


@pytest.mark.parametrize("k", [0, 6, 7, 2.5], ids=["zero", "n", "n+1", "fraction"])
def test_smallest_eigenpairs_refuses_k_out_of_range(monkeypatch, k):
    import scipy.linalg.lapack as lapack

    def refuse(*args, **kwargs):
        raise AssertionError("k must be checked before any factorization")

    monkeypatch.setattr(lapack, "dgttrf", refuse)
    monkeypatch.setattr(lapack, "dpttrf", refuse)
    n = 6
    with pytest.raises(ValueError, match="1 <= k < n"):
        smallest_eigenpairs(np.full(n, 2.0), np.full(n - 1, -1.0), k)


@pytest.mark.parametrize("n", [1, 2])
def test_smallest_eigenpairs_refuses_n_below_3(monkeypatch, n):
    import scipy.linalg.lapack as lapack

    def refuse(*args, **kwargs):
        raise AssertionError("n must be checked before any factorization")

    monkeypatch.setattr(lapack, "dgttrf", refuse)
    with pytest.raises(ValueError, match="n must be at least 3, got " + str(n)):
        smallest_eigenpairs(np.full(n, 2.0), np.full(n - 1, -1.0), 1)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("rho", [0.0, -0.7], ids=["tridiagonal", "rank-one"])
def test_smallest_eigenpairs_at_n_3(k, rho):
    # the smallest size the solve takes: every pair against dense eigh
    diag, off, u = np.array([1.0, 2.0, 3.0]), np.array([-0.3, -0.3]), np.array([0.6, 0.0, 0.8])
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + rho * np.outer(u, u)
    eigs, vecs, _, _ = smallest_eigenpairs(diag, off, k, rank1=(rho, u))
    assert eigs == pytest.approx(np.linalg.eigvalsh(dense)[:k], abs=1e-12)
    assert np.abs(dense @ vecs - vecs * eigs).max() < 1e-12
