"""Linearization channels: kernel structure, gaps, and local probes."""

import json

import numpy as np
import pytest

from eigstab.exceptions import PreconditionError
from eigstab.grid import GridFunction, gradient_squared_integral, norm_l2, radial_derivative
from eigstab.hessian import build_channel, kernel_report, local_stability_probe


def test_channel_zero_mode_is_Q(gs_q4_d1):
    ch = build_channel(gs_q4_d1, 0)
    # the discrete profile equation makes Q an exact eigenvector
    assert abs(ch.lowest_eigs[0]) < 1e-10
    w = gs_q4_d1.grid.quad_weights
    ref = np.sqrt(w) * gs_q4_d1.Q.values
    ref /= np.linalg.norm(ref)
    assert abs(ch.eigvecs[:, 0] @ ref) > 0.9999


def test_channel_one_zero_mode_is_derivative(gs_q4_d1):
    ch = build_channel(gs_q4_d1, 1)
    assert abs(ch.lowest_eigs[0]) < 1e-7
    w = gs_q4_d1.grid.quad_weights
    ref = np.sqrt(w) * radial_derivative(gs_q4_d1.Q).values
    ref /= np.linalg.norm(ref)
    assert abs(ch.eigvecs[:, 0] @ ref) > 0.999


def test_rank_one_only_in_radial_channel(gs_q4_d1):
    assert build_channel(gs_q4_d1, 0).rank1 is not None
    assert build_channel(gs_q4_d1, 1).rank1 is None


def test_spectral_gap_positive(gs_q4_d1):
    for ell in (0, 1):
        ch = build_channel(gs_q4_d1, ell)
        assert ch.gap > 0.3


def test_quadratic_form_nonnegative(gs_q4_d1):
    rng = np.random.default_rng(20)
    g = gs_q4_d1.grid
    ch = build_channel(gs_q4_d1, 0)
    for _ in range(20):
        vals = np.exp(-g.nodes) * rng.standard_normal(g.n)
        vals[-1] = 0.0
        assert ch.quadratic_form(GridFunction(g, vals)) > -1e-8


def test_kernel_report_d1(gs_q4_d1):
    rep = kernel_report(gs_q4_d1)
    assert rep.kernel_dim == 2
    assert rep.anomalies == []
    assert rep.empirical_gap > 0.3
    assert [c.ell for c in rep.channels] == [0, 1]
    for c in rep.channels:
        assert c.overlap is None or c.overlap > 0.999


def test_kernel_report_d3(gs_q103_d3):
    rep = kernel_report(gs_q103_d3)
    assert rep.kernel_dim == 4  # 1 (radial) + 3 (translations)
    assert rep.anomalies == []
    mult = {c.ell: c.multiplicity for c in rep.channels}
    assert mult == {0: 1, 1: 3, 2: 5}
    # every ell >= 2 eigenvalue strictly positive
    ell2 = [c for c in rep.channels if c.ell == 2][0]
    assert min(ell2.eigs) > 0.0


def test_kernel_report_json(gs_q4_d1):
    doc = json.loads(kernel_report(gs_q4_d1).to_json())
    assert doc["kernel_dim"] == 2
    assert len(doc["channels"]) == 2
    assert doc["anomalies"] == []


def test_sloppy_ground_state_rejected(gs_q4_d1):
    import dataclasses

    # the solver's gate on this grid (h = 0.005) is 1.78e-9
    bad = dataclasses.replace(gs_q4_d1, el_residual=1e-7)
    with pytest.raises(PreconditionError):
        build_channel(bad, 0)


def _h1_direction(gs, seed=0):
    rng = np.random.default_rng(seed)
    g = gs.grid
    vals = np.exp(-(g.nodes**2) / 8.0) * rng.standard_normal(g.n)
    # convolve to keep the gradient term moderate
    vals = np.convolve(vals, np.ones(9) / 9.0, mode="same")
    f = GridFunction(g, vals)
    h1 = np.sqrt(norm_l2(f) ** 2 + gradient_squared_integral(f))
    return GridFunction(g, vals / h1)


def test_local_probe_quadratic(gs_q4_d1):
    eta = _h1_direction(gs_q4_d1, seed=3)
    probes = [local_stability_probe(gs_q4_d1, eta, t) for t in (1e-3, 3e-3, 1e-2)]
    ratios = [p.deficit / t**2 for p, t in zip(probes, (1e-3, 3e-3, 1e-2))]
    assert all(p.deficit >= 0.0 for p in probes)
    assert all(p.second_difference > 0.0 for p in probes)
    spread = (max(ratios) - min(ratios)) / np.mean(ratios)
    assert spread < 0.2


def test_local_probe_validation(gs_q4_d1):
    eta = _h1_direction(gs_q4_d1, seed=4)
    with pytest.raises(PreconditionError):
        local_stability_probe(gs_q4_d1, eta, 0.5)
    with pytest.raises(PreconditionError):
        local_stability_probe(gs_q4_d1, 2.0 * eta, 1e-3)

def test_second_difference_matches_quadratic_form(gs_q4_d1):
    # [E(t) + E(-t) - 2 E(0)] / t^2 = 2 (eta, H eta) + O(t)
    rng = np.random.default_rng(11)
    g = gs_q4_d1.grid
    w = g.quad_weights
    ch = build_channel(gs_q4_d1, 0)
    for _ in range(20):
        vals = np.exp(-(g.nodes**2) / 8.0) * rng.standard_normal(g.n)
        vals = np.convolve(vals, np.ones(9) / 9.0, mode="same")
        vals -= (w @ (vals * gs_q4_d1.Q.values)) / (w @ gs_q4_d1.Q.values**2) * gs_q4_d1.Q.values
        f = GridFunction(g, vals)
        h1 = np.sqrt(norm_l2(f) ** 2 + gradient_squared_integral(f))
        eta = GridFunction(g, vals / h1)
        probe = local_stability_probe(gs_q4_d1, eta, 1e-3)
        qf = ch.quadratic_form(eta)
        assert probe.second_difference == pytest.approx(2.0 * qf, rel=0.05)


def test_channel_monotonicity(gs_q103_d3):
    # the centrifugal term l(l+d-2)/r^2 pushes every level up with l
    lows = [build_channel(gs_q103_d3, ell).lowest_eigs[0] for ell in (0, 1, 2)]
    assert lows[0] <= lows[1] + 1e-6
    assert lows[1] <= lows[2] + 1e-6


def test_kernel_direction_is_flat(gs_q4_d1):
    # along Q itself the normalized state never moves, so the energy
    # deficit stays at the discretization floor instead of growing
    gs = gs_q4_d1
    h1 = np.sqrt(norm_l2(gs.Q) ** 2 + gradient_squared_integral(gs.Q))
    eta = GridFunction(gs.grid, gs.Q.values / h1)
    for t in (1e-3, 1e-2, 0.1):
        assert local_stability_probe(gs, eta, t).deficit < 1e-10
