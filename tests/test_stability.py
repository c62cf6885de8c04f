"""Deficits, manifold distances, decomposition, and sweep corpora."""

import copy

import numpy as np
import pytest
from conftest import solve_quiet

from eigstab.exceptions import DegenerateInputError, InvalidExponentError
from eigstab.grid import Grid, GridFunction
from eigstab.groundstate import optimal_potential
from eigstab.spectral import lowest_eigenpair
from eigstab.stability import (
    deficit,
    deficit_decomposition,
    distance_to_manifold,
    eigenvalue_ratio,
    line_sweep_corpus,
    negative_part,
    radial_sweep_corpus,
    run_sweep,
    stability_report,
)


def _sech_well(grid, depth=2.0, width=1.0, center=0.0):
    return grid.from_callable(lambda x: -depth / np.cosh((x - center) / width) ** 2)


def test_negative_part():
    g = Grid.line(5.0, 32)
    V = g.from_callable(lambda x: x)
    vn = negative_part(V)
    assert np.all(vn.values >= 0.0)
    assert np.allclose(vn.values - np.maximum(-g.nodes, 0.0), 0.0)


def test_deficit_zero_on_manifold(line_grid, gs_q4_d1):
    # -2 sech^2 saturates the sharp constant (up to h^2 discretization)
    V = _sech_well(line_grid)
    assert abs(deficit(V, 1.5, 1, gs_q4_d1)) < 5e-6


def test_deficit_positive_off_manifold(line_grid, gs_q4_d1):
    V = _sech_well(line_grid, depth=1.0)
    d = deficit(V, 1.5, 1, gs_q4_d1)
    assert d > 1e-3
    # oracle: for -u'' - sech^2 the ground level is -s^2 with s(s+1) = 1,
    # i.e. s = (sqrt(5) - 1)/2
    lam = lowest_eigenpair(V).lam
    assert lam == pytest.approx(-(3.0 - np.sqrt(5.0)) / 2.0, abs=1e-5)


def test_ratio_ignores_positive_part(line_grid, gs_q4_d1):
    V = _sech_well(line_grid)
    bump = np.exp(-((line_grid.nodes - 12.0) ** 2) / 0.5)
    V_plus = GridFunction(line_grid, V.values + 0.5 * bump)
    r0 = eigenvalue_ratio(V, 1.5, 1, gs_q4_d1)
    r1 = eigenvalue_ratio(V_plus, 1.5, 1, gs_q4_d1)
    assert r1 == pytest.approx(r0, abs=1e-6)


def test_degenerate_potential_rejected(line_grid, gs_q4_d1):
    V = line_grid.zero()
    with pytest.raises(DegenerateInputError):
        deficit(V, 1.5, 1, gs_q4_d1)
    with pytest.raises(DegenerateInputError):
        distance_to_manifold(V, 1.5, 1, gs_q4_d1)


@pytest.mark.parametrize(
    "fn", [eigenvalue_ratio, deficit, distance_to_manifold, stability_report]
)
def test_exponent_mismatch_is_invalid_exponent(line_grid, gs_q4_d1, fn):
    # gamma = 1 implies q = 6 in d = 1, but the profile was solved for q = 4:
    # the same error keller_constant raises
    with pytest.raises(InvalidExponentError):
        fn(_sech_well(line_grid), 1.0, 1, gs_q4_d1)


def test_distance_zero_and_parameters_on_manifold(line_grid, gs_q4_d1):
    from eigstab.groundstate import keller_parameters

    V = _sech_well(line_grid)
    dist, a, b = distance_to_manifold(V, 1.5, 1, gs_q4_d1)
    _, kappa, _ = keller_parameters(4.0)
    assert dist < 1e-3
    assert abs(a) < 0.05
    assert b == pytest.approx(1.0 / kappa, rel=1e-3)


def test_distance_recovers_translation(line_grid, gs_q4_d1):
    V = _sech_well(line_grid, center=5.0)
    dist, a, _ = distance_to_manifold(V, 1.5, 1, gs_q4_d1)
    assert dist < 1e-3
    assert a == pytest.approx(5.0, abs=0.02)


def test_distance_positive_for_modulation(line_grid, gs_q4_d1):
    x = line_grid.nodes
    V = GridFunction(line_grid, -2.0 / np.cosh(x) ** 2 * (1.0 + 0.1 * np.cos(x)))
    dist, _, _ = distance_to_manifold(V, 1.5, 1, gs_q4_d1)
    # exhaustive-scan oracle: distance at a = 0 bounds the infimum, and
    # nearby shifts do not improve it by more than the scan resolution
    assert 0.001 < dist < 0.1


def test_report_scaling_invariance(line_grid, gs_q4_d1):
    # depth 1.5 sits well off the manifold, so the O(h^2) eigenvalue bias
    # is negligible against the deficit
    x = line_grid.nodes
    base = stability_report(
        GridFunction(line_grid, -1.5 / np.cosh(x) ** 2 * (1.0 + 0.2 * np.cos(x))),
        1.5, 1, gs_q4_d1,
    )
    for b in (0.5, 2.0):
        Vb = GridFunction(
            line_grid, -1.5 * b**2 / np.cosh(b * x) ** 2 * (1.0 + 0.2 * np.cos(b * x))
        )
        rep = stability_report(Vb, 1.5, 1, gs_q4_d1)
        assert rep.ratio == pytest.approx(base.ratio, rel=0.02)
        assert rep.deficit == pytest.approx(base.deficit, rel=0.02)
        assert rep.distance == pytest.approx(base.distance, rel=0.02)
        assert rep.empirical_c == pytest.approx(base.empirical_c, rel=0.02)


def test_report_translation_invariance(line_grid, gs_q4_d1):
    x = line_grid.nodes
    base = stability_report(
        GridFunction(line_grid, -2.0 / np.cosh(x) ** 2 * (1.0 + 0.2 * np.cos(x))),
        1.5, 1, gs_q4_d1,
    )
    sh = GridFunction(
        line_grid,
        -2.0 / np.cosh(x - 3.0) ** 2 * (1.0 + 0.2 * np.cos(x - 3.0)),
    )
    rep = stability_report(sh, 1.5, 1, gs_q4_d1)
    assert rep.deficit == pytest.approx(base.deficit, rel=0.02)
    assert rep.distance == pytest.approx(base.distance, rel=0.02)
    assert rep.matched_a == pytest.approx(base.matched_a + 3.0, abs=0.05)


def test_branch_consistency_at_p2(line_grid, gs_q4_d1):
    # gamma = 3/2, d = 1 sits exactly at p = 2 where the power map is the
    # identity; low- and high-branch distances must coincide
    from eigstab.groundstate import Exponents
    from eigstab.stability import _branch_distance, negative_part

    x = line_grid.nodes
    V = GridFunction(line_grid, -2.0 / np.cosh(x) ** 2 * (1.0 + 0.15 * np.cos(x)))
    exps = Exponents.from_gamma(1.5, 1)
    vneg = negative_part(V)
    d_low, _, b_low = _branch_distance(vneg, exps, gs_q4_d1, power=False)
    d_high, _, b_high = _branch_distance(vneg, exps, gs_q4_d1, power=True)
    assert b_low == pytest.approx(b_high, rel=1e-10)
    assert d_low == pytest.approx(d_high, abs=1e-10)


def test_report_high_branch_fields(gs_q103_d3):
    g = gs_q103_d3.grid
    corpus = radial_sweep_corpus(g, gs_q103_d3)
    _, _, V = corpus[7]
    rep = stability_report(V, 1.0, 3, gs_q103_d3)
    assert rep.branch == "high"
    assert rep.transfer_distance is not None
    assert rep.trans_lhs <= rep.trans_rhs + 1e-12
    assert rep.transfer_ratio > 0.0


def test_empirical_c_undefined_at_zero_distance(gs_q4_d1):
    from eigstab.groundstate import optimal_potential

    # the solver's own grid: W is nodally exact, distance ~ 0
    W = optimal_potential(gs_q4_d1)
    rep = stability_report(W, 1.5, 1, gs_q4_d1)
    assert abs(rep.deficit) < 1e-8
    assert rep.distance < 1e-6
    assert rep.empirical_c is None


def test_decomposition_identity(line_grid, gs_q4_d1):
    V = _sech_well(line_grid, depth=1.0)
    e_part, h_part = deficit_decomposition(V, 1.5, 1, gs_q4_d1)
    assert e_part >= -1e-8
    assert h_part >= -1e-8
    assert e_part + h_part == pytest.approx(deficit(V, 1.5, 1, gs_q4_d1), abs=1e-10)


def test_decomposition_of_a_potential_with_a_positive_part(line_grid, gs_q4_d1):
    # the parts split the deficit of -V_-; the positive part only raises lambda(V)
    x = line_grid.nodes
    V = GridFunction(line_grid, -2.0 / np.cosh(x) ** 2 + 0.5 / np.cosh(x - 1.5) ** 2)
    e_part, h_part = deficit_decomposition(V, 1.5, 1, gs_q4_d1)
    assert e_part >= -1e-8
    assert h_part >= -1e-8
    attractive = GridFunction(line_grid, -negative_part(V).values)
    assert e_part + h_part == pytest.approx(deficit(attractive, 1.5, 1, gs_q4_d1), abs=1e-10)
    assert e_part + h_part <= deficit(V, 1.5, 1, gs_q4_d1)


def test_decomposition_solves_one_ground_pair(monkeypatch, line_grid, gs_q4_d1):
    from eigstab import stability

    calls = []

    def counted(V):
        calls.append(V)
        return lowest_eigenpair(V)

    monkeypatch.setattr(stability, "lowest_eigenpair", counted)
    for depth in (0.6, 1.0, 1.4):
        deficit_decomposition(_sech_well(line_grid, depth=depth), 1.5, 1, gs_q4_d1)
    assert len(calls) == 3


def test_line_corpus_composition(line_grid):
    corpus = line_sweep_corpus(line_grid)
    assert len(corpus) == 60
    fams = {fam for fam, _, _ in corpus}
    assert fams == {"depth", "width", "cosine", "twobump"}
    for _, _, V in corpus:
        assert np.all(V.values <= 0.0)


def test_radial_corpus_composition(gs_q103_d3):
    corpus = radial_sweep_corpus(gs_q103_d3.grid, gs_q103_d3)
    assert len(corpus) == 12
    for _, _, V in corpus:
        assert np.all(V.values <= 0.0)


def test_radial_modulation_does_not_depend_on_the_extent(gs_q103_d3):
    # at equal h the extents 250 and 500 share their first 4000 nodes; the
    # rcosine factor V / (1.2 W) must agree there
    narrow, wide = Grid.radial(3, 250.0, 4000), Grid.radial(3, 500.0, 8000)
    factors = []
    for grid in (narrow, wide):
        W = optimal_potential(gs_q103_d3, grid=grid).values[:4000]
        kept = W != 0.0
        factors.append([
            V.values[:4000][kept] / (1.2 * W[kept])
            for fam, _, V in radial_sweep_corpus(grid, gs_q103_d3)
            if fam == "rcosine"
        ])
    assert np.array_equal(narrow.nodes, wide.nodes[:4000])
    assert len(factors[0]) == 6
    for mod_narrow, mod_wide in zip(*factors):
        assert mod_wide == pytest.approx(mod_narrow, rel=1e-14, abs=0.0)


def test_sweep_output_formats(gs_q103_d3):
    corpus = radial_sweep_corpus(gs_q103_d3.grid, gs_q103_d3)[:3]
    res = run_sweep(corpus, 1.0, 3, gs_q103_d3)
    csv_text = res.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("family,parameter,lambda")
    assert len(lines) == 4
    import json

    doc = json.loads(res.summary_json())
    assert doc["corpus_size"] == 3
    assert float(doc["min_empirical_c"]) > 0.0


def _translated_corpus_member(grid, index, a):
    # the corpus formulas evaluated at x - a, so the input is exact, not
    # interpolated, and the optimal shift sits off the nodes
    shifted = copy.copy(grid)
    object.__setattr__(shifted, "nodes", grid.nodes - a)
    return GridFunction(grid, line_sweep_corpus(shifted)[index][2].values)


def test_line_report_evaluates_few_members(monkeypatch, line_grid, gs_q4_d1):
    # the refinement starts from the scan's own sums, so a report evaluates
    # about 6 exact members of the family; an unseeded bounded Brent took ~10
    from eigstab import stability

    calls = []
    family = stability._family_neg

    def counted(*args):
        calls.append(args)
        return family(*args)

    monkeypatch.setattr(stability, "_family_neg", counted)
    reports = 0
    for a in (0.0, 1.2345, -0.777):
        shifted = copy.copy(line_grid)
        object.__setattr__(shifted, "nodes", line_grid.nodes - a)
        for _, _, V in line_sweep_corpus(shifted):
            stability_report(GridFunction(line_grid, V.values), 1.5, 1, gs_q4_d1)
            reports += 1
    assert reports == 180
    assert len(calls) / reports <= 7.0


def _dense_minimum(V, gamma, gs, rep):
    """Distance objective, computed here, at shifts h/50 apart within 8h of rep's a."""
    from eigstab.groundstate import Exponents
    from eigstab.measure import weighted_norm
    from eigstab.stability import _family_neg

    exps = Exponents.from_gamma(gamma, 1)
    grid, w = V.grid, V.grid.quad_weights
    m, r = (2.0 / (exps.q - 2.0), exps.q / 2.0) if exps.p > 2.0 else (1.0, exps.p)
    u = negative_part(V).values ** m
    denom = weighted_norm(u, w, r)
    h = grid.spacing
    shifts = rep.matched_a + h * np.arange(-400, 401) / 50.0
    return min(
        weighted_norm(np.abs(u - _family_neg(gs, grid, rep.matched_b, a) ** m), w, r) / denom
        for a in shifts
    )


@pytest.mark.parametrize(
    "index, a",
    # depth, width, three cosine (eps = 0.05, 0.075, 0.1) and two-bump members
    [(3, 1.2345), (17, -0.777), (30, -0.3818), (31, 1.2345), (32, 0.4321), (50, 0.333)],
)
def test_line_distance_not_above_dense_minimum(line_grid, gs_q4_d1, index, a):
    # the reported distance is an infimum over the shift: it must not sit
    # above a brute-force scan around the reported minimizer
    V = _translated_corpus_member(line_grid, index, a)
    rep = stability_report(V, 1.5, 1, gs_q4_d1)
    assert rep.distance <= _dense_minimum(V, 1.5, gs_q4_d1, rep) * (1.0 + 1e-9)
    # at p = 2 the transfer distance is the branch distance
    assert rep.transfer_distance == rep.distance
    assert rep.matched_a == pytest.approx(a, abs=0.5)


def test_line_distance_not_above_dense_minimum_high_branch(line_grid, gs_q3_d1):
    # q = 3 (gamma = 5/2, p = 3): the scan ranks shifts in the power map
    x = line_grid.nodes - 0.61
    V = GridFunction(line_grid, -2.0 / np.cosh(x) ** 2 * (1.0 + 0.2 * np.cos(x)))
    rep = stability_report(V, 2.5, 1, gs_q3_d1)
    assert rep.branch == "high"
    assert rep.distance <= _dense_minimum(V, 2.5, gs_q3_d1, rep) * (1.0 + 1e-9)
    assert rep.matched_a == pytest.approx(0.61, abs=0.1)
    assert rep.trans_lhs <= rep.trans_rhs + 1e-12


@pytest.fixture(scope="module")
def gs_q6_d1():
    return solve_quiet(6.0, 1, 20.0, 4000)


@pytest.mark.parametrize("a, eps", [(0.61, 0.2), (-1.37, 0.1), (0.0, 0.3)])
def test_line_distance_not_above_dense_minimum_below_p2(line_grid, gs_q6_d1, a, eps):
    # q = 6 (gamma = 1, p = 3/2): the low branch with blocked window sums and
    # no power map, the one scan path the FFT tests do not cover
    x = line_grid.nodes - a
    V = GridFunction(line_grid, -2.0 / np.cosh(x) ** 2 * (1.0 + eps * np.cos(x)))
    rep = stability_report(V, 1.0, 1, gs_q6_d1)
    assert rep.branch == "low" and rep.p == 1.5
    assert rep.distance <= _dense_minimum(V, 1.0, gs_q6_d1, rep) * (1.0 + 1e-9)
    assert rep.matched_a == pytest.approx(a, abs=0.1)
