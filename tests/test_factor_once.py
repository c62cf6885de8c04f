"""Shifted solves factored once per shift, the certified ground pair from a
start vector, the profile solve certified with no eigensolve, and the
NaN-safe residual gates."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import eigstab.groundstate as groundstate
from eigstab import spectral
from eigstab.exceptions import ConvergenceError
from eigstab.grid import Grid, _Tridiag, symmetric_tridiagonal
from eigstab.spectral import smallest_eigenpairs


def _radial_well(n=60):
    g = Grid.radial(3, 5.0, n)
    main, off = symmetric_tridiagonal(g, 0, -2.0 * np.exp(-g.nodes))
    u = np.exp(-g.nodes)
    return g, main, off, u


@pytest.mark.parametrize("rank1", [False, True], ids=["tridiagonal", "rank1"])
def test_alternating_shifts_match_dense_solves(rank1):
    g, main, off, u = _radial_well()
    term = (0.7, u) if rank1 else None
    dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    if rank1:
        dense = dense + 0.7 * np.outer(u, u)
    A = _Tridiag(main, off, term)
    rng = np.random.default_rng(5)
    for sigma in (-1.0, -0.25, -1.0, -0.25, -0.25):
        b = rng.normal(size=g.n)
        want = np.linalg.solve(dense - sigma * np.eye(g.n), b)
        np.testing.assert_allclose(A.solve_shifted(sigma, b), want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("rank1", [False, True], ids=["tridiagonal", "rank1"])
def test_repeated_solves_are_bit_identical_to_a_fresh_matrix(rank1):
    g, main, off, u = _radial_well(400)
    term = (0.7, u) if rank1 else None
    kept = _Tridiag(main, off, term)
    rng = np.random.default_rng(6)
    for sigma in (-1.0, -1.0, -3.0, -1.0):
        b = rng.normal(size=g.n)
        fresh = _Tridiag(main, off, term).solve_shifted(sigma, b)
        assert np.array_equal(kept.solve_shifted(sigma, b), fresh)


def test_solve_leaves_its_right_hand_side_alone():
    _, main, off, u = _radial_well()
    A = _Tridiag(main, off, (0.7, u))
    b = np.cos(np.arange(main.size))
    copy = b.copy()
    A.solve_shifted(-1.0, b)
    A.solve_shifted(-1.0, b)
    assert np.array_equal(b, copy)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_right_hand_side_raises_on_every_solve(bad):
    _, main, off, _ = _radial_well()
    A = _Tridiag(main, off)
    b = np.ones(main.size)
    A.solve_shifted(-1.0, b)  # the shift is factored and kept
    b[7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        A.solve_shifted(-1.0, b)


def test_non_finite_matrix_or_shift_raises_when_factored():
    _, main, off, _ = _radial_well()
    off = off.copy()
    off[3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _Tridiag(main, off).solve_shifted(-1.0, np.ones(main.size))
    _, main, off, _ = _radial_well()
    with pytest.raises(ValueError, match="infs or NaNs"):
        _Tridiag(main, off).solve_shifted(np.nan, np.ones(main.size))


def test_singular_shift_raises_linalg_error():
    # the first pivot of A - 2 I is exactly zero and nothing below it
    # can be swapped up: column 0 of the shifted matrix is zero
    main = np.array([2.0, 3.0, 4.0, 5.0])
    off = np.array([0.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        _Tridiag(main, off).solve_shifted(2.0, np.ones(4))


# -- the ground pair from a start vector ----------------------------------------


@pytest.fixture(scope="module")
def sech_well():
    # V = -6 sech^2: levels -4 and -1, then the continuum threshold 0
    g = Grid.line(20.0, 4000)
    diag, off = symmetric_tridiagonal(g, 0, -6.0 / np.cosh(g.nodes) ** 2)
    eigs, vecs = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
    assert eigs[0] == pytest.approx(-4.0, abs=1e-4)
    assert eigs[1] == pytest.approx(-1.0, abs=1e-4)
    return diag, off, eigs, vecs


def _pair_from(diag, off, guess):
    return spectral._cold_ground_pair(_Tridiag(diag, off), guess)[:2]


def test_warm_pair_from_the_ground_vector(sech_well):
    diag, off, eigs, vecs = sech_well
    lam, v = _pair_from(diag, off, vecs[:, 0])
    assert abs(lam - eigs[0]) <= 1e-10
    assert abs(abs(v @ vecs[:, 0]) - 1.0) <= 1e-12


def test_warm_pair_from_a_mixed_vector(sech_well):
    diag, off, eigs, vecs = sech_well
    lam, v = _pair_from(diag, off, vecs[:, 0] + 1e-3 * vecs[:, 1])
    assert abs(lam - eigs[0]) <= 1e-10
    assert abs(abs(v @ vecs[:, 0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("j", [1, 2], ids=["first-excited", "second-excited"])
def test_warm_pair_refuses_an_excited_vector(sech_well, j):
    # the excited vector passes the residual gate at once, but not the
    # closing inertia check: the pair must be lambda_0, never lambda_j
    diag, off, eigs, vecs = sech_well
    lam, _ = _pair_from(diag, off, vecs[:, j])
    assert abs(lam - eigs[0]) <= 1e-10


def test_certificate_accepts_the_ground_pair_and_refuses_the_first_excited(sech_well):
    # both pairs pass the residual half of the gate; only the inertia half,
    # dpttrf of A - (lambda - tol_eff), tells lambda_1 from lambda_0
    diag, off, _, vecs = sech_well
    A = _Tridiag(diag, off)
    tol_eff = spectral._tol_eff(A)
    for j, want in ((0, True), (1, False)):
        v = vecs[:, j]
        lam = A.quadratic_form(v)
        assert spectral._residual(A, lam, v) <= tol_eff
        assert bool(spectral._certified(A, lam, tol_eff)) is want


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
def test_warm_pair_refuses_a_non_finite_or_zero_guess(sech_well, bad):
    diag, off, _, vecs = sech_well
    guess = vecs[:, 0].copy()
    guess[100] = bad
    if bad == 0.0:
        guess[:] = 0.0
    with pytest.raises(ConvergenceError):
        _pair_from(diag, off, guess)


def test_smallest_eigenpairs_refuses_nan_vectors(monkeypatch):
    # NaN vectors from ARPACK must fail the residual gate, with or without a
    # rank-one term: not pass it, nor escape the polish's shifted solve as a
    # bare ValueError
    def nan_pairs(A, k, **kwargs):
        return np.zeros(k), np.full((A.shape[0], k), np.nan)

    monkeypatch.setattr(spla, "eigsh", nan_pairs)
    n = 100
    diag, off = np.full(n, 2.0), np.full(n - 1, -1.0)
    for rank1 in (None, (1.0, np.full(n, 0.1))):
        with pytest.raises(ConvergenceError):
            smallest_eigenpairs(diag, off, 2, rank1)


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

#: C' as computed when the SCF polish (since replaced by Newton) called
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
    # Newton's own pair is certified in place: no inverse step and no
    # eigensolve, and C' still matches the full-eigensolve polish
    steps = []
    step = spectral._inverse_step

    def counted(*args):
        steps.append(1)
        return step(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the profile solve needs no eigensolver")

    monkeypatch.setattr(spectral, "_inverse_step", counted)
    monkeypatch.setattr(spectral, "smallest_eigenpairs", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gs = groundstate.solve_ground_state(4.0, 1, Grid.radial(1, 20.0, 4000))
    assert gs.C_prime == pytest.approx(FULL_SOLVE_C_PRIME["gs_q4_d1"], rel=1e-10)
    assert steps == []
    assert not hasattr(groundstate, "smallest_eigenpairs")
    assert not hasattr(groundstate, "_cold_ground_pair")


@pytest.mark.parametrize("name", sorted(FULL_SOLVE_C_PRIME))
def test_the_profile_pair_passes_both_halves_of_the_certificate(request, name):
    gs = request.getfixturevalue(name)
    A = _Tridiag(*symmetric_tridiagonal(gs.grid, 0, groundstate.optimal_potential(gs).values))
    v = np.sqrt(gs.grid.quad_weights) * gs.Q.values
    tol_eff = spectral._tol_eff(A)
    assert spectral._residual(A, gs.E, v) <= tol_eff and spectral._certified(A, gs.E, tol_eff)


def test_the_profile_energy_is_a_python_float(gs_q4_d1):
    # Newton accumulates E as a numpy scalar; the result reports float(E)
    assert type(gs_q4_d1.E) is float


@pytest.mark.parametrize("eps", [1e-6, 3e-5, 1e-4])
def test_warm_pair_refuses_an_excited_vector_under_high_noise(sech_well, eps):
    # psi_1 plus a little of the top eigenvector: the guess holds no psi_0 to
    # amplify, so inverse iteration first settles on psi_1 with a residual
    # under the gate; the closing inertia check refuses lambda_1, and the
    # steps go on until the rounding-level psi_0 takes over
    diag, off, eigs, vecs = sech_well
    n = diag.size
    top = sla.eigh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1))[1][:, 0]
    lam, _ = _pair_from(diag, off, vecs[:, 1] + eps * top)
    assert abs(lam - eigs[0]) <= 1e-10
