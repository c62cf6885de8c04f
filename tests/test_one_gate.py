"""One residual gate, max(DEFAULT_TOL, 50 eps ||A||), certifies every
eigenpair and the profile solve alike; no caller can loosen it
(docs/derivations.md §10)."""

import dataclasses
import inspect
import warnings

import pytest

from eigstab import groundstate, hessian, spectral
from eigstab.exceptions import ConvergenceError, PreconditionError
from eigstab.grid import Grid


def _solve_with_residual(monkeypatch, residual):
    monkeypatch.setattr(groundstate, "_residual", lambda A, lam, v: residual)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return groundstate.solve_ground_state(4.0, 1, Grid.radial(1, 20.0, 4000))


def test_profile_gate_refuses_a_residual_above_the_floor(monkeypatch):
    # the floor at h = 0.005 is 50 eps ||A|| = 1.78e-9; the profile's own
    # floor of 200 eps 2 / h^2 = 3.55e-9 let 2.5e-9 through
    with pytest.raises(ConvergenceError, match="profile solve stalled"):
        _solve_with_residual(monkeypatch, 2.5e-9)


def test_profile_gate_accepts_a_residual_below_the_floor(monkeypatch):
    assert _solve_with_residual(monkeypatch, 1.5e-9).el_residual == 1.5e-9


def test_kernel_report_takes_the_profile_the_solver_certified():
    # at h = 1/800 the gate is 50 eps ||A|| = 2.84e-8; a cap of 1e-8 in
    # build_channel refused 2e-8, a residual the solver lets through
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gs = groundstate.solve_ground_state(4.0, 1, Grid.radial(1, 20.0, 16000))
    report = hessian.kernel_report(dataclasses.replace(gs, el_residual=2e-8))
    assert report.kernel_dim == 2
    assert report.anomalies == []
    for residual in (3e-8, float("nan")):
        with pytest.raises(PreconditionError, match="profile residual"):
            hessian.build_channel(dataclasses.replace(gs, el_residual=residual), 0)


@pytest.mark.parametrize(
    "fn",
    [
        groundstate.solve_ground_state,
        spectral.lowest_eigenpair,
        spectral.lambda_of_potential,
        spectral.smallest_eigenpairs,
        spectral._cold_ground_pair,
        spectral._tol_eff,
    ],
    ids=lambda fn: fn.__name__,
)
def test_no_solver_takes_a_tolerance(fn):
    assert "tol" not in inspect.signature(fn).parameters


def test_lowest_eigenpair_takes_the_potential_only():
    assert list(inspect.signature(spectral.lowest_eigenpair).parameters) == ["V"]
