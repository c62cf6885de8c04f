"""Shifted solves factored once per shift, the certified warm-start ground
pair of the SCF polish, and the NaN-safe residual gates."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import eigstab.groundstate as groundstate
from eigstab.exceptions import ConvergenceError
from eigstab.grid import Grid, _Tridiag, laplacian_tridiagonal, symmetric_tridiagonal
from eigstab.spectral import _warm_ground_pair, smallest_eigenpairs


def _nodal_radial(n=60):
    # the nodal radial Laplacian is not symmetric: upper != lower
    g = Grid.radial(3, 5.0, n)
    main, upper, lower = laplacian_tridiagonal(g, 0)
    main = main - 2.0 * np.exp(-g.nodes)
    u = np.exp(-g.nodes)
    return g, main, upper, lower, u


@pytest.mark.parametrize("rank1", [False, True], ids=["tridiagonal", "rank1"])
def test_alternating_shifts_match_dense_solves(rank1):
    g, main, upper, lower, u = _nodal_radial()
    term = (0.7, u) if rank1 else None
    dense = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
    if rank1:
        dense = dense + 0.7 * np.outer(u, u)
    A = _Tridiag(main, upper, lower, term)
    rng = np.random.default_rng(5)
    for sigma in (-1.0, -0.25, -1.0, -0.25, -0.25):
        b = rng.normal(size=g.n)
        want = np.linalg.solve(dense - sigma * np.eye(g.n), b)
        np.testing.assert_allclose(A.solve_shifted(sigma, b), want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("rank1", [False, True], ids=["tridiagonal", "rank1"])
def test_repeated_solves_are_bit_identical_to_a_fresh_matrix(rank1):
    g, main, upper, lower, u = _nodal_radial(400)
    term = (0.7, u) if rank1 else None
    kept = _Tridiag(main, upper, lower, term)
    rng = np.random.default_rng(6)
    for sigma in (-1.0, -1.0, -3.0, -1.0):
        b = rng.normal(size=g.n)
        fresh = _Tridiag(main, upper, lower, term).solve_shifted(sigma, b)
        assert np.array_equal(kept.solve_shifted(sigma, b), fresh)


def test_solve_leaves_its_right_hand_side_alone():
    _, main, upper, lower, u = _nodal_radial()
    A = _Tridiag(main, upper, lower, (0.7, u))
    b = np.cos(np.arange(main.size))
    copy = b.copy()
    A.solve_shifted(-1.0, b)
    A.solve_shifted(-1.0, b)
    assert np.array_equal(b, copy)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_right_hand_side_raises_on_every_solve(bad):
    _, main, upper, lower, _ = _nodal_radial()
    A = _Tridiag(main, upper, lower)
    b = np.ones(main.size)
    A.solve_shifted(-1.0, b)  # the shift is factored and kept
    b[7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        A.solve_shifted(-1.0, b)


def test_non_finite_matrix_or_shift_raises_when_factored():
    _, main, upper, lower, _ = _nodal_radial()
    upper = upper.copy()
    upper[3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _Tridiag(main, upper, lower).solve_shifted(-1.0, np.ones(main.size))
    _, main, upper, lower, _ = _nodal_radial()
    with pytest.raises(ValueError, match="infs or NaNs"):
        _Tridiag(main, upper, lower).solve_shifted(np.nan, np.ones(main.size))


def test_singular_shift_raises_linalg_error():
    # the first pivot of A - 2 I is exactly zero and nothing below it
    # can be swapped up: column 0 of the shifted matrix is zero
    main = np.array([2.0, 3.0, 4.0, 5.0])
    upper = np.array([1.0, 1.0, 1.0])
    lower = np.array([0.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        _Tridiag(main, upper, lower).solve_shifted(2.0, np.ones(4))


# -- the warm-start ground pair ----------------------------------------------


@pytest.fixture(scope="module")
def sech_well():
    # V = -6 sech^2: levels -4 and -1, then the continuum threshold 0
    g = Grid.line(20.0, 4000)
    diag, off = symmetric_tridiagonal(g, 0, -6.0 / np.cosh(g.nodes) ** 2)
    eigs, vecs = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
    assert eigs[0] == pytest.approx(-4.0, abs=1e-4)
    assert eigs[1] == pytest.approx(-1.0, abs=1e-4)
    return diag, off, eigs, vecs


def test_warm_pair_from_the_ground_vector(sech_well):
    diag, off, eigs, vecs = sech_well
    lam, v = _warm_ground_pair(diag, off, vecs[:, 0])
    assert abs(lam - eigs[0]) <= 1e-10
    assert abs(abs(v @ vecs[:, 0]) - 1.0) <= 1e-12


def test_warm_pair_from_a_mixed_vector(sech_well):
    diag, off, eigs, vecs = sech_well
    lam, v = _warm_ground_pair(diag, off, vecs[:, 0] + 1e-3 * vecs[:, 1])
    assert abs(lam - eigs[0]) <= 1e-10
    assert abs(abs(v @ vecs[:, 0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("j", [1, 2], ids=["first-excited", "second-excited"])
def test_warm_pair_refuses_an_excited_vector(sech_well, j):
    # the excited vector's own shift is not below lambda_0; the helper must
    # not return lambda_j
    diag, off, _, vecs = sech_well
    assert _warm_ground_pair(diag, off, vecs[:, j]) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
def test_warm_pair_refuses_a_non_finite_or_zero_guess(sech_well, bad):
    diag, off, _, vecs = sech_well
    guess = vecs[:, 0].copy()
    guess[100] = bad
    if bad == 0.0:
        guess[:] = 0.0
    assert _warm_ground_pair(diag, off, guess) is None


def test_warm_pair_refuses_a_missed_residual(sech_well):
    # from a flat guess a few inverse-iteration steps stay far from the gate
    diag, off, _, _ = sech_well
    assert _warm_ground_pair(diag, off, np.ones(diag.size)) is None


def test_smallest_eigenpairs_refuses_nan_vectors(monkeypatch):
    # a NaN residual must fail the gate, not pass it, whatever vectors this
    # LAPACK build's dstein returns
    def nan_pairs(d, e, **kwargs):
        return np.zeros(1), np.full((d.size, 1), np.nan)

    monkeypatch.setattr(sla, "eigh_tridiagonal", nan_pairs)
    n = 100
    with pytest.raises(ConvergenceError):
        smallest_eigenpairs(np.full(n, 2.0), np.full(n - 1, -1.0))


@pytest.mark.parametrize(
    "make",
    [lambda: Grid.line(1e-70, 2000), lambda: Grid.radial(1, 3e-151, 2000),
     lambda: Grid.radial(3, 1.5e-67, 100)],
    ids=["line", "radial-d1", "radial-d3"],
)
def test_grid_refuses_a_laplacian_out_of_range(make):
    # 1/h^2 is finite here, but the Laplacian's row sums are past
    # sqrt(float max) * eps, where LAPACK's eigensolvers give NaN
    with pytest.raises(ValueError, match="out of floating-point range"):
        make()


# -- the SCF polish ------------------------------------------------------------

#: C' as computed before the warm start, when the SCF polish called
#: smallest_eigenpairs on every step
FULL_SOLVE_C_PRIME = {
    "gs_q4_d1": 0.32759277831582523,
    "gs_q4_d1_wide": 0.3275927786070102,
    "gs_q3_d1": 0.4540117158928848,
    "gs_q4_d3": 0.00017501807199125002,
    "gs_q103_d3": 0.006271256333545014,
}


@pytest.mark.parametrize("name", sorted(FULL_SOLVE_C_PRIME))
def test_scf_constant_matches_the_full_eigensolve_polish(request, name):
    gs = request.getfixturevalue(name)
    want = FULL_SOLVE_C_PRIME[name]
    assert abs(gs.C_prime - want) <= 1e-10 * want


def test_scf_polish_takes_the_warm_path(monkeypatch):
    calls = {"warm": 0, "miss": 0, "lapack": 0}
    warm, full = groundstate._warm_ground_pair, groundstate.smallest_eigenpairs

    def counted_warm(*args, **kwargs):
        pair = warm(*args, **kwargs)
        calls["warm" if pair is not None else "miss"] += 1
        return pair

    def counted_full(*args, **kwargs):
        calls["lapack"] += 1
        return full(*args, **kwargs)

    monkeypatch.setattr(groundstate, "_warm_ground_pair", counted_warm)
    monkeypatch.setattr(groundstate, "smallest_eigenpairs", counted_full)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gs = groundstate.solve_ground_state(4.0, 1, Grid.radial(1, 20.0, 4000))
    assert gs.C_prime == pytest.approx(FULL_SOLVE_C_PRIME["gs_q4_d1"], rel=1e-10)
    assert calls["lapack"] == calls["miss"]
    assert calls["warm"] > calls["miss"]


@pytest.mark.parametrize("eps", [1e-6, 3e-5, 1e-4])
def test_warm_pair_refuses_an_excited_vector_under_high_noise(sech_well, eps):
    # psi_1 plus a little of the top eigenvector: the large residual lets the
    # shift fall below lambda_0, but the guess holds no psi_0 to amplify, so
    # inverse iteration settles on psi_1 with a residual under the gate; only
    # the closing inertia check tells it from lambda_0
    diag, off, _, vecs = sech_well
    n = diag.size
    top = sla.eigh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))[1][:, 0]
    assert _warm_ground_pair(diag, off, vecs[:, 1] + eps * top) is None
