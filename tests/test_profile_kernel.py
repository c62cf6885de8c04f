"""The profile kernel (CubicSpline's coefficients, its interval found from
the uniform knots), the mirrored shift lattice, the matched member kept
for the transfer sides, the cached row sums, and the ground pair started
from sqrt(w V_-) (docs/derivations.md §5 and §10)."""

import numpy as np
import pytest

from eigstab import spectral, stability
from eigstab.grid import GridFunction, _Tridiag, symmetric_tridiagonal
from eigstab.groundstate import Exponents, _family_neg, profile_interpolant
from eigstab.measure import weighted_norm
from eigstab.stability import (
    _branch_map,
    line_sweep_corpus,
    negative_part,
    radial_sweep_corpus,
)

FIXTURES = ["gs_q4_d1", "gs_q3_d1", "gs_q103_d3", "gs_q4_d3"]


def _spline_reference(gs):
    """The kernel as CubicSpline.__call__ evaluated it."""
    from scipy.interpolate import CubicSpline

    r = gs.grid.nodes
    spline = CubicSpline(r, gs.Q.values, bc_type="natural", extrapolate=False)
    r0, rmax = r[0], r[-1]

    def evaluate(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.where(x <= rmax, spline(np.clip(x, r0, rmax)), 0.0)
        return np.clip(out, 0.0, None)

    return evaluate


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_kernel_is_the_spline_bit_for_bit(request, fixture):
    gs = request.getfixturevalue(fixture)
    r = gs.grid.nodes
    r0, rmax = r[0], r[-1]
    new, old = profile_interpolant(gs), _spline_reference(gs)
    inputs = [
        r,
        np.nextafter(r, np.inf),
        np.nextafter(r, -np.inf),
        -r,
        np.array([0.0, r0 / 2, rmax, np.nextafter(rmax, np.inf), 1.5 * rmax]),
        np.array([np.inf, -np.inf, np.nan, -0.0]),
        np.random.default_rng(5).uniform(-1.2 * rmax, 1.2 * rmax, (300, 40)),
    ]
    for x in inputs:
        assert _same_bits(new(x), old(x))
    for x in (0.3 * rmax, 0.0, rmax, np.float64(r[7]), np.array(r0 / 2), np.nan):
        a, b = new(x), old(x)
        assert type(a) is type(b)
        assert _same_bits(a, b)


@pytest.mark.parametrize("gamma, fixture", [(1.5, "gs_q4_d1"), (2.5, "gs_q3_d1")])
def test_mirrored_lattice_is_the_direct_lattice(request, monkeypatch, line_grid, gamma, fixture):
    # the k >= 0 half mirrored equals the 2n - 1 point evaluation, on the
    # FFT path (p = 2) and the blocked high branch (p = 3)
    gs = request.getfixturevalue(fixture)
    exps = Exponents.from_gamma(gamma, 1)
    n, h = line_grid.n, line_grid.spacing
    seen = []
    window_sums = stability._window_sums

    def record(u, lattice, *args):
        seen.append(lattice)
        return window_sums(u, lattice, *args)

    monkeypatch.setattr(stability, "_window_sums", record)
    V = line_sweep_corpus(line_grid)[40][2]
    vneg = negative_part(V)
    for power in (False, True):
        seen.clear()
        b = stability._branch_distance(vneg, exps, gs, power)[2]
        direct = _branch_map(b**2 * gs._v0neg(b * h * np.abs(np.arange(1 - n, n))), exps, power)[0]
        assert len(seen) == 1 and _same_bits(seen[0], direct)


@pytest.mark.parametrize("gamma, fixture", [(1.5, "gs_q4_d1"), (2.5, "gs_q3_d1")])
def test_transfer_sides_at_the_member_the_scan_chose(request, line_grid, gamma, fixture):
    gs = request.getfixturevalue(fixture)
    exps = Exponents.from_gamma(gamma, 1)
    w = line_grid.quad_weights
    for _, _, V in line_sweep_corpus(line_grid)[5::15]:
        rep = stability.stability_report(V, gamma, 1, gs)
        a, b = (
            (rep.matched_a, rep.matched_b)
            if exps.p == 2.0
            else stability._branch_distance(negative_part(V), exps, gs, False)[1:]
        )
        vneg = negative_part(V).values
        member = _family_neg(gs, line_grid, b, a)
        lp = weighted_norm(np.abs(vneg - member), w, exps.p)
        assert rep.trans_lhs == (1.0 / exps.p) * (lp / 2.0) ** (exps.p - 1.0)
        u, r = _branch_map(vneg, exps, True)
        assert rep.trans_rhs == weighted_norm(
            np.abs(u - _branch_map(member, exps, True)[0]), w, r
        )


def test_cached_row_sums_keep_the_quadratic_form(line_grid):
    V = -2.0 / np.cosh(line_grid.nodes) ** 2
    diag, off = symmetric_tridiagonal(line_grid, 0, V)
    A = _Tridiag(diag, off)
    v = np.random.default_rng(2).normal(size=line_grid.n)
    s = diag + np.r_[off, 0.0] + np.r_[0.0, off]
    dv = np.diff(v)
    expect = float(np.einsum("i,i->", s, v * v) - np.einsum("i,i->", off, dv * dv))
    assert A.quadratic_form(v) == expect
    assert A.quadratic_form(v) == expect  # the second call reads the cached sums
    assert A._row_sums is A._row_sums


# -- the ground pair started from sqrt(w V_-) ---------------------------------


def _mean_solves(monkeypatch, corpus):
    import scipy.linalg.lapack as lapack

    calls = []
    dpttrs = lapack.dpttrs

    def counted(*args, **kwargs):
        calls.append(1)
        return dpttrs(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpttrs", counted)
    for V in corpus:
        spectral.lowest_eigenpair(V)
    return len(calls) / len(corpus)


def test_vneg_start_cuts_the_solves_on_the_line_corpus(monkeypatch, line_grid):
    # 7.0 solves per member from the ones vector
    corpus = [V for _, _, V in line_sweep_corpus(line_grid)]
    assert len(corpus) == 60
    assert _mean_solves(monkeypatch, corpus) <= 5.5


def test_vneg_start_cuts_the_solves_on_the_radial_corpus(monkeypatch, gs_q103_d3):
    # 9.4 solves per member from the ones vector
    corpus = [V for _, _, V in radial_sweep_corpus(gs_q103_d3.grid, gs_q103_d3)]
    assert len(corpus) == 12
    assert _mean_solves(monkeypatch, corpus) <= 7.0


@pytest.mark.parametrize(
    "shape, lam_ones",
    # lambda as the ones-vector start gave it before V_- started the pair
    [("zero", 0.006165419338744377), ("barrier", 0.027428890327005944)],
)
def test_no_attractive_part_starts_from_ones(line_grid, shape, lam_ones):
    x = line_grid.nodes
    V = GridFunction(line_grid, np.zeros_like(x) if shape == "zero" else 3.0 / np.cosh(x) ** 2)
    A = _Tridiag(*symmetric_tridiagonal(line_grid, 0, V.values))
    lam, v = spectral._cold_ground_pair(A)
    pair = spectral.lowest_eigenpair(V)
    assert pair.lam == lam == lam_ones
    assert np.array_equal(np.abs(pair.psi.values), np.abs(v / np.sqrt(line_grid.quad_weights)))
