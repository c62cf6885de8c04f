"""The shift scan's window sums (one FFT correlation at p = 2, blocked rows
otherwise) and the one profile interpolant cached per ground state."""

import copy
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from eigstab import stability
from eigstab.grid import Grid, GridFunction
from eigstab.groundstate import Exponents, GroundState, optimal_potential
from eigstab.measure import weighted_norm
from eigstab.stability import (
    SCAN_STRIDE,
    _branch_distance,
    _branch_map,
    _window_sums,
    line_sweep_corpus,
    negative_part,
    stability_report,
)


def _brute_sums(u, lattice, weights, pnorm, stride):
    n = len(u)
    rows = sliding_window_view(lattice, n)[n - 1 :: -stride]
    return np.array([weights @ np.abs(u - row) ** pnorm for row in rows])


@pytest.mark.parametrize("pnorm", [2.0, 3.0])
@pytest.mark.parametrize("random_weights", [False, True], ids=["uniform", "random"])
@pytest.mark.parametrize("n", [16, 17, 4000])
def test_window_sums_match_brute_force(n, random_weights, pnorm):
    # every node shift, on both FFT padding parities (2n - 1 = 31, 33) and
    # the benchmark's size; the FFT rounding is a few 1e-15 of sum w u^2
    rng = np.random.default_rng(n)
    u = rng.uniform(0.0, 2.0, n) / np.cosh(np.linspace(-4.0, 4.0, n)) ** 2
    lattice = 2.0 / np.cosh(np.linspace(-6.0, 6.0, 2 * n - 1)) ** 2
    weights = rng.uniform(0.1, 1.0, n) if random_weights else np.full(n, 0.01)
    got = _window_sums(u, lattice, weights, pnorm, 1)
    want = _brute_sums(u, lattice, weights, pnorm, 1)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-12 * (weights @ u**2)
    assert np.array_equal(_window_sums(u, lattice, weights, pnorm, SCAN_STRIDE), got[::SCAN_STRIDE])


def _corpus(grid, a):
    # the corpus formulas evaluated at x - a: exact inputs, shifted off the nodes
    shifted = copy.copy(grid)
    object.__setattr__(shifted, "nodes", grid.nodes - a)
    return [GridFunction(grid, V.values) for _, _, V in line_sweep_corpus(shifted)]


def _record_seeds(monkeypatch):
    """The (point, value) seeds of every refinement, in call order."""
    seeds = []
    brent = stability._brent

    def recorded(f, triple, xatol):
        seeds.append(triple)
        return brent(f, triple, xatol)

    monkeypatch.setattr(stability, "_brent", recorded)
    return seeds


@pytest.mark.parametrize("a", [0.0, 1.2345])
def test_strided_argmin_matches_brute_force_on_corpus(monkeypatch, line_grid, gs_q4_d1, a):
    # the correlation sums only rank the shifts: their coarse winner must be
    # the direct sums' winner on every corpus member, and so must the node
    # within SCAN_STRIDE of it that seeds the refinement, up to a tie within
    # the FFT's rounding, 6.3e-15 sum w u^2 at worst (the symmetric members at
    # a = 0 tie at +-h/2)
    seeds = _record_seeds(monkeypatch)
    exps = Exponents.from_gamma(1.5, 1)
    n, h, w = line_grid.n, line_grid.spacing, line_grid.quad_weights
    v0 = gs_q4_d1._v0neg
    for V in _corpus(line_grid, a):
        vneg = negative_part(V)
        b = _branch_distance(vneg, exps, gs_q4_d1, False)[2]
        lattice = b**2 * v0(b * h * np.abs(np.arange(1 - n, n)))
        fast = _window_sums(vneg.values, lattice, w, 2.0, SCAN_STRIDE)
        slow = _brute_sums(vneg.values, lattice, w, 2.0, SCAN_STRIDE)
        assert np.argmin(fast) == np.argmin(slow)
        k = SCAN_STRIDE * int(np.argmin(slow))
        near = range(max(k - SCAN_STRIDE, 1), min(k + SCAN_STRIDE, n - 2) + 1)
        rows = sliding_window_view(lattice, n)[::-1]
        direct = {t: w @ (vneg.values - rows[t]) ** 2 for t in near}
        seed = int(np.flatnonzero(line_grid.nodes == seeds[-1][1][0])[0])
        assert seed in direct
        assert direct[seed] - min(direct.values()) <= 1e-14 * (w @ vneg.values**2)


# a node of the line grid (20, 4000): with the exact optimizer there, the
# best node's FFT sum is rounding noise (-3e-16 at b = 1 with numpy's FFT),
# so only a direct row gives the seed's middle value its sign
ON_NODE = float(Grid.line(20.0, 4000).nodes[1000])


@pytest.mark.parametrize("b", [1.0, 1.7])
@pytest.mark.parametrize("a", [0.37, -3.1234, ON_NODE])
def test_exact_optimizer_found_off_the_nodes(monkeypatch, line_grid, gs_q4_d1, a, b):
    seeds = _record_seeds(monkeypatch)
    V = optimal_potential(gs_q4_d1, b, a, line_grid)
    rep = stability_report(V, 1.5, 1, gs_q4_d1)
    assert rep.distance < 1e-6
    assert abs(rep.matched_a - a) < 1e-6
    assert rep.matched_b == pytest.approx(b, rel=1e-7)
    # every seed is a sum of squares
    assert len(seeds) == 1 and min(value for _, value in seeds[0]) >= 0.0


@pytest.mark.parametrize("b", [1.0, 1.7])
def test_exact_optimizer_scale_on_the_high_branch(line_grid, gs_q3_d1, b):
    # q = 3 (gamma = 5/2, p = 3): b's closed form through the power map
    V = optimal_potential(gs_q3_d1, b, 0.37, line_grid)
    rep = stability_report(V, 2.5, 1, gs_q3_d1)
    assert rep.branch == "high"
    assert rep.matched_b == pytest.approx(b, rel=1e-7)


@pytest.mark.parametrize(
    "fixture", ["gs_q4_d1", "gs_q4_d1_wide", "gs_q3_d1", "gs_q4_d3", "gs_q103_d3"]
)
def test_unit_member_has_unit_branch_norms(request, fixture):
    # b = ||V_-^m||_r^expo assumes ||V0^m||_r = 1, which (q - 2) p = q makes
    # exact: ||V0||_p^p = int (Q/||Q||_q)^q and ||V0^(2/(q-2))||_(q/2) = 1
    gs = request.getfixturevalue(fixture)
    exps = Exponents.from_q(gs.q, gs.d)
    v0 = negative_part(optimal_potential(gs)).values
    for power in (False, True):
        u, r = _branch_map(v0, exps, power)
        assert abs(weighted_norm(u, gs.grid.quad_weights, r) - 1.0) <= 1e-15


def _fresh(gs):
    return GroundState.from_json(gs.to_json())


def test_reports_share_one_spline(monkeypatch, line_grid, gs_q4_d1):
    import scipy.interpolate

    built = []
    spline = scipy.interpolate.CubicSpline

    def counting(*args, **kwargs):
        built.append(1)
        return spline(*args, **kwargs)

    gs = _fresh(gs_q4_d1)
    monkeypatch.setattr(scipy.interpolate, "CubicSpline", counting)
    V1 = optimal_potential(gs, 1.3, 0.25, line_grid)
    V2 = line_sweep_corpus(line_grid)[40][2]
    reps = [stability_report(V, 1.5, 1, gs) for V in (V1, V2)]
    assert len(built) == 1
    # a cold copy of the same ground state gives the same reports
    assert [stability_report(V, 1.5, 1, _fresh(gs)) for V in (V1, V2)] == reps


def test_cache_leaves_ground_state_unchanged(line_grid, gs_q4_d1):
    gs = _fresh(gs_q4_d1)
    text, twin = gs.to_json(), dataclasses.replace(gs)
    stability_report(line_sweep_corpus(line_grid)[5][2], 1.5, 1, gs)
    assert gs.to_json() == text
    assert gs == twin and twin == gs


def test_cached_profile_makes_no_reference_cycle(line_grid, gs_q4_d1):
    # a cached callable that held gs would keep it alive until a collection
    gc.disable()
    try:
        gs = _fresh(gs_q4_d1)
        stability_report(line_sweep_corpus(line_grid)[5][2], 1.5, 1, gs)
        ref = weakref.ref(gs)
        del gs
        assert ref() is None
    finally:
        gc.enable()
