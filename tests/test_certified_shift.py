"""The lowest pair by safeguarded inverse iteration, and the ell = 0 Hessian
channel shifted just below its kernel under an inertia certificate
(docs/derivations.md §10)."""

import json

import numpy as np
import pytest

from eigstab import hessian, spectral
from eigstab.cli import main
from eigstab.exceptions import ConvergenceError
from eigstab.grid import Grid, _Tridiag, symmetric_tridiagonal
from eigstab.groundstate import _second_variation, optimal_potential
from eigstab.hessian import KERNEL_TOL_FACTOR, kernel_report
from eigstab.spectral import _tol_eff, lowest_eigenpair


def _sech_well(n, depth=2.0):
    g = Grid.line(20.0, n)
    return g.function(-depth / np.cosh(g.nodes) ** 2)


def _long_double_rayleigh(diag, off, v, rank1=None):
    v = np.asarray(v, dtype=np.longdouble)
    d, e = np.asarray(diag, dtype=np.longdouble), np.asarray(off, dtype=np.longdouble)
    av = d * v
    av[:-1] += e * v[1:]
    av[1:] += e * v[:-1]
    if rank1 is not None:
        rho, u = rank1
        u = np.asarray(u, dtype=np.longdouble)
        av += np.longdouble(rho) * (u @ v) * u
    return (v @ av) / (v @ v)


# -- accuracy of the lowest pair ----------------------------------------------


def test_fine_grid_eigenvalue_is_the_rayleigh_quotient_of_its_vector():
    # bisection to abstol eps * ||A||_1 left lambda(-2 sech^2) 2.9e-11 off at
    # n = 16000; the Rayleigh quotient of the returned vector, summed in long
    # double, is accurate to rounding in the vector
    V = _sech_well(16000)
    pair = lowest_eigenpair(V)
    diag, off = symmetric_tridiagonal(V.grid, 0, V.values)
    rq = _long_double_rayleigh(diag, off, np.sqrt(V.grid.quad_weights) * pair.psi.values)
    assert abs(pair.lam - float(rq)) <= 1e-12


def test_convergence_table_reads_the_second_order_ratio(capsys):
    # the h^2 error ratio of the default table is 4.0000192 at n = 16000;
    # bisection's error put it at 3.99953
    assert main(["convergence"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert abs(float(rows[-1]["ratio"]) - 4.0) <= 5e-5


def test_residual_stays_at_rounding_level():
    # one inverse step past the gate: without it the reported residual
    # read 2.4e-10 here, against 2e-12 with it
    assert lowest_eigenpair(_sech_well(4000)).residual <= 1e-11


# -- the cold pair against dense eigh -----------------------------------------


def _line(n, fn, extent=20.0):
    g = Grid.line(extent, n)
    return g.function(fn(g.nodes))


def _double_well(x):
    # sech^2 wells at -10 and 10, the left one deeper by 1e-7: the two
    # lowest levels sit 6.9e-8 apart, with the ones vector spread over both
    return -2.0 / np.cosh(x - 10.0) ** 2 - (2.0 + 1e-7) / np.cosh(x + 10.0) ** 2


def _optimal_d3(gs):
    return optimal_potential(gs, grid=Grid.radial(3, 250.0, 300))


CASES = {
    "sech2-well": lambda gs: _line(300, lambda x: -2.0 / np.cosh(x) ** 2),
    "nonnegative": lambda gs: _line(300, lambda x: 0.5 + np.exp(-(x**2))),
    "double-well": lambda gs: _line(300, _double_well, extent=30.0),
    "optimal-d3": _optimal_d3,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_pair_matches_dense_eigh(gs_q103_d3, case):
    V = CASES[case](gs_q103_d3)
    diag, off = symmetric_tridiagonal(V.grid, 0, V.values)
    eigs, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    tol_eff = _tol_eff(_Tridiag(diag, off))
    pair = lowest_eigenpair(V)
    assert abs(pair.lam - eigs[0]) <= tol_eff
    v = np.sqrt(V.grid.quad_weights) * pair.psi.values
    assert abs(v @ vecs[:, 0]) >= 1.0 - 1e-10
    if case == "nonnegative":
        assert pair.lam > 0.0
    if case == "double-well":
        assert eigs[1] - eigs[0] < 1e-6


def test_cold_pair_cap_raises(monkeypatch):
    # from the ones vector the -2 sech^2 well is not certified in 3 steps;
    # lowest_eigenpair's start sqrt(w V_-) certifies it within 3
    monkeypatch.setattr(spectral, "INVERSE_CAP", 3)
    V = _sech_well(4000)
    A = _Tridiag(*symmetric_tridiagonal(V.grid, 0, V.values))
    with pytest.raises(ConvergenceError, match="not certified"):
        spectral._cold_ground_pair(A)


# -- the ell = 0 Hessian channel shifted at its kernel --------------------------


def test_kernel_shift_cuts_the_shifted_solves(monkeypatch, gs_q4_d3):
    # the shift below T's own lowest eigenvalue took 137 solves here
    calls = []
    solve = _Tridiag.solve_shifted

    def counted(self, sigma, rhs):
        calls.append(sigma)
        return solve(self, sigma, rhs)

    monkeypatch.setattr(_Tridiag, "solve_shifted", counted)
    channel = hessian.build_channel(gs_q4_d3, 0)
    assert len(calls) <= 60
    assert channel.near_zero().size == 1


def _rank_one_dense(diag, off, rho, u, k):
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + rho * np.outer(u, u)
    return np.linalg.eigvalsh(dense)[:k]


@pytest.mark.parametrize(
    ("depth", "rho", "below"), [(6.0, 0.3, 2), (2.0, 1e-6, 1)],
    ids=["two-below", "one-below-small-rho"],
)
def test_uncertified_kernel_shift_falls_back(monkeypatch, depth, rho, below):
    # two-below: T (levels -4 and -1) has two eigenvalues under the kernel
    # shift, so interlacing leaves H - sigma room for a negative
    # eigenvalue; one-below: T has one (level -1), but rho is so small that
    # 1 + rho u.(T - sigma)^(-1) u > 0.  Either way the shift goes below
    # T's lowest eigenvalue, found by the cold pair
    g = Grid.line(10.0, 300)
    diag, off = symmetric_tridiagonal(g, 0, -depth / np.cosh(g.nodes) ** 2)
    u = np.sqrt(g.quad_weights) * np.exp(-(g.nodes**2))
    tri = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    assert np.sum(tri <= -1e-8 * np.abs(diag).max()) == below
    cold = []
    pair = spectral._cold_ground_pair

    def counted(*args, **kwargs):
        cold.append(1)
        return pair(*args, **kwargs)

    monkeypatch.setattr(spectral, "_cold_ground_pair", counted)
    eigs, _, res, _ = spectral.smallest_eigenpairs(diag, off, 3, (rho, u))
    assert cold == [1]
    assert np.allclose(eigs, _rank_one_dense(diag, off, rho, u, 3), rtol=0, atol=1e-9)
    assert np.all(res < 1e-8)


def test_certified_kernel_shift_skips_the_cold_pair(monkeypatch, gs_q4_d1):
    def refuse(*args, **kwargs):
        raise AssertionError("the certified shift needs no cold pair")

    monkeypatch.setattr(spectral, "_cold_ground_pair", refuse)
    assert hessian.build_channel(gs_q4_d1, 0).near_zero().size == 1


#: kernel_report eigenvalues per channel (ell = 0, 1[, 2]) with the ell = 0
#: shift below T's lowest eigenvalue, before the kernel shift; entries 1 and
#: 2 of gs_q4_d3's ell = 2 are the long-double Rayleigh quotients of those
#: vectors, which LAPACK bisection missed by 1.4e-10 (relative)
PARENT_KERNEL = {
    "gs_q4_d1": (
        [2.195192891616297e-13, 0.34679978957071445, 0.41406060958360624,
         0.5371036476665811, 0.7157865047617062],
        [1.7842395154723388e-09, 0.36002978749882864, 0.4551328548952984,
         0.6087268511851539, 0.8175050404885277],
    ),
    "gs_q4_d1_wide": (
        [2.6983675205167437e-13, 0.3366059455415808, 0.3658460715567441,
         0.4181203792997096, 0.49432036505796917],
        [-7.218340276696552e-12, 0.34073175572921377, 0.37987900289913656,
         0.444381467153553, 0.5334959489102153],
    ),
    "gs_q3_d1": (
        [5.085510956797052e-13, 0.3526648438459186, 0.4991528049984122,
         0.6183711894236275, 0.797894024155597],
        [2.0994871871899834e-10, 0.465475341522012, 0.549512981573059,
         0.6998939991153695, 0.9079007715495025],
    ),
    "gs_q4_d3": (
        [-1.233465590994114e-17, 0.00017995655914975958, 0.00019467262846429862,
         0.0002189004292867703, 0.0002522796951925437],
        [-4.006197022916069e-09, 0.00018402666591353645, 0.00020180411574478597,
         0.00022872101678234665, 0.00026487881895239865],
        [0.0001897780678925935, 0.00021176478752012664, 0.0002424380734360139,
         0.00028177654883195235, 0.00032970391727442166],
    ),
    "gs_q103_d3": (
        [-1.0790650283328909e-15, 0.006389931858645351, 0.006799242920062988,
         0.007549854139177829, 0.008649260633298718],
        [-2.7474075154067408e-08, 0.006594265796561423, 0.0072288525877419125,
         0.008191488279913579, 0.009492625055307298],
        [0.006801734707019665, 0.007584238446115435, 0.00865120601185873,
         0.00996919264379013, 0.011507764190916857],
    ),
}


@pytest.mark.parametrize("name", sorted(PARENT_KERNEL))
def test_kernel_report_keeps_its_spectrum(request, name):
    gs = request.getfixturevalue(name)
    rep = kernel_report(gs)
    assert rep.kernel_dim == (2 if gs.d == 1 else 4)
    assert rep.anomalies == []
    for channel, want in zip(rep.channels, PARENT_KERNEL[name], strict=True):
        veff = _second_variation(gs.grid, gs.q, gs.Q.values, gs.norm_q, gs.E, channel.ell)[3]
        tol_kernel = KERNEL_TOL_FACTOR * float(np.abs(veff).max())
        for got, old in zip(channel.eigs, want, strict=True):
            bound = tol_kernel if abs(old) <= tol_kernel else 1e-10 * abs(old)
            assert abs(got - old) <= bound


@pytest.mark.parametrize("name", sorted(PARENT_KERNEL))
def test_channel_eigenvalues_are_the_rayleigh_quotients_of_their_vectors(request, name):
    # LAPACK bisection left the ell >= 1 eigenvalues 1.5e-11 to 1.4e-10
    # (relative) off the Rayleigh quotients of their own vectors
    gs = request.getfixturevalue(name)
    for ell in range(len(PARENT_KERNEL[name])):
        channel = hessian.build_channel(gs, ell)
        for lam, v in zip(channel.lowest_eigs, channel.eigvecs.T, strict=True):
            if lam > channel.tol_kernel:
                rq = _long_double_rayleigh(channel.diag, channel.off, v, channel.rank1)
                assert abs(lam - float(rq)) <= 2e-12 * lam
