"""One residual per ground pair, the scan's member returned with its
distance, and a Hessian channel that checks the profile it is given."""

import json

import numpy as np
import pytest

from eigstab import spectral, stability
from eigstab.exceptions import PreconditionError
from eigstab.grid import GridFunction
from eigstab.groundstate import Exponents, GroundState, _family_neg
from eigstab.hessian import build_channel, kernel_report
from eigstab.stability import line_sweep_corpus, negative_part, radial_sweep_corpus


def test_lowest_eigenpair_measures_one_residual_per_inverse_step(monkeypatch, line_grid):
    steps, residuals, pairs = [], [], []
    inverse_step, residual, cold = spectral._inverse_step, spectral._residual, spectral._cold_ground_pair

    def counted_step(*args):
        steps.append(1)
        return inverse_step(*args)

    def counted_residual(*args):
        residuals.append(1)
        return residual(*args)

    def kept(A, guess=None):
        pairs.append((A, *cold(A, guess)))
        return pairs[-1][1:]

    monkeypatch.setattr(spectral, "_inverse_step", counted_step)
    monkeypatch.setattr(spectral, "_residual", counted_residual)
    monkeypatch.setattr(spectral, "_cold_ground_pair", kept)
    for _, _, V in line_sweep_corpus(line_grid)[::12]:
        steps.clear(), residuals.clear(), pairs.clear()
        pair = spectral.lowest_eigenpair(V)
        assert len(steps) >= 2 and len(residuals) == len(steps)
        A, lam, v, _ = pairs[0]
        assert pair.lam == lam and pair.residual == residual(A, lam, v)


def _same_member(vneg, exps, gs, power):
    _, a, b, member = stability._branch_distance(vneg, exps, gs, power)
    assert np.array_equal(member, _family_neg(gs, vneg.grid, b, a))
    return a


@pytest.mark.parametrize("gamma, fixture", [(1.5, "gs_q4_d1"), (2.5, "gs_q3_d1")])
def test_branch_distance_returns_the_member_at_its_result(request, line_grid, gamma, fixture):
    gs = request.getfixturevalue(fixture)
    exps = Exponents.from_gamma(gamma, 1)
    x = line_grid.nodes
    vneg = negative_part(GridFunction(line_grid, -2.0 / np.cosh(x - 1.2345) ** 2 * (1.0 + 0.1 * np.cos(x))))
    for power in {False, exps.p > 2.0}:
        assert _same_member(vneg, exps, gs, power) != 0.0


def test_branch_distance_returns_the_radial_member(gs_q103_d3):
    exps = Exponents.from_gamma(1.0, 3)
    V = radial_sweep_corpus(gs_q103_d3.grid, gs_q103_d3)[3][2]
    assert _same_member(negative_part(V), exps, gs_q103_d3, exps.p > 2.0) == 0.0


def test_build_channel_refuses_a_profile_that_misses_its_own_operator(gs_q4_d1):
    # the stored residual still reads the solver's 9e-12; the altered Q's
    # residual on -Lap + optimal_potential is about 7e-4, past the 1.8e-9 gate
    doc = json.loads(gs_q4_d1.to_json())
    r = gs_q4_d1.grid.nodes
    doc["Q"] = (gs_q4_d1.Q.values * (1.0 + 1e-3 * np.cos(r))).tolist()
    altered = GroundState.from_json(json.dumps(doc))
    assert altered.el_residual == gs_q4_d1.el_residual
    for ell in (0, 1):
        with pytest.raises(PreconditionError, match="profile residual"):
            build_channel(altered, ell)
    with pytest.raises(PreconditionError, match="measured"):
        kernel_report(altered)
