"""Every shifted solve costs what its factorization allows, and no
factorization runs that no gate needs (docs/derivations.md §3, §10):

- a dgttrf factorization with no row swap is L D L^T, so dpttrs solves with
  its (d, dl); one that swaps rows keeps dgttrs;
- each doubled seed grid starts Petviashvili from the last grid's u;
- smallest_eigenpairs polishes only the pairs the residual gate refuses, and
  its start count shares the factors of T - sigma with ARPACK."""

import numpy as np
import pytest
import scipy.linalg.lapack as lapack
import scipy.sparse.linalg as spla

from eigstab import groundstate, spectral
from eigstab.grid import Grid, _Tridiag, symmetric_tridiagonal


def _counted_backsolves(monkeypatch):
    counts = {"dpttrs": 0, "dgttrs": 0}
    for name in counts:
        routine = getattr(lapack, name)

        def counted(*args, _name=name, _routine=routine, **kwargs):
            counts[_name] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(lapack, name, counted)
    return counts


def _dense(main, upper, rank1=None):
    dense = np.diag(main) + np.diag(upper, 1) + np.diag(upper, -1)
    if rank1 is not None:
        dense += rank1[0] * np.outer(rank1[1], rank1[1])
    return dense


# -- solve_shifted: L D L^T where dgttrf swapped no rows -------------------------


def test_a_factorization_without_row_swaps_solves_by_dpttrs(monkeypatch):
    # the Petviashvili shift sigma = -1 on the radial Laplacian: A + I is
    # diagonally dominant, so dgttrf swaps no rows
    grid = Grid.radial(3, 40.0, 2000)
    main, upper = symmetric_tridiagonal(grid, 0)
    *lu, ipiv, info = lapack.dgttrf(upper, main + 1.0, upper)
    assert info == 0 and np.array_equal(ipiv, np.arange(1, grid.n + 1))
    rhs = np.random.default_rng(3).standard_normal(grid.n)
    want = lapack.dgttrs(*lu, ipiv, rhs)[0]
    counts = _counted_backsolves(monkeypatch)
    got = _Tridiag(main, upper).solve_shifted(-1.0, rhs)
    assert counts == {"dpttrs": 1, "dgttrs": 0}
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_the_rank_one_solve_keeps_its_sherman_morrison_column(monkeypatch):
    rng = np.random.default_rng(5)
    n = 300
    main, upper = 4.0 + rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)
    rank1 = (0.7, rng.standard_normal(n))
    counts = _counted_backsolves(monkeypatch)
    A = _Tridiag(main, upper, rank1=rank1)
    for _ in range(3):
        rhs = rng.standard_normal(n)
        np.testing.assert_allclose(
            A.solve_shifted(0.5, rhs), np.linalg.solve(_dense(main, upper, rank1) - 0.5 * np.eye(n), rhs),
            rtol=1e-10, atol=1e-12,
        )
    # one solve for z = (T - sigma)^(-1) u at the factorization, one per rhs
    assert counts == {"dpttrs": 4, "dgttrs": 0}


def test_a_factorization_that_swaps_rows_keeps_dgttrs(monkeypatch):
    rng = np.random.default_rng(11)
    n = 200
    main, upper = 0.1 * rng.standard_normal(n), 1.0 + rng.uniform(0.0, 1.0, n - 1)
    ipiv = lapack.dgttrf(upper, main, upper)[4]
    assert not np.array_equal(ipiv, np.arange(1, n + 1))
    rhs = rng.standard_normal(n)
    counts = _counted_backsolves(monkeypatch)
    got = _Tridiag(main, upper).solve_shifted(0.0, rhs)
    assert counts == {"dpttrs": 0, "dgttrs": 1}
    np.testing.assert_allclose(_dense(main, upper) @ got, rhs, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "main, upper",
    [
        ([1.0, 1.0, 1.0], [1.0, 0.0]),  # no row swap: the second pivot is 0
        ([0.0, 0.0, 0.0], [1.0, 1.0]),  # the first column swaps rows
    ],
)
def test_a_singular_shift_raises_linalg_error(main, upper):
    with pytest.raises(np.linalg.LinAlgError):
        _Tridiag(main, upper).solve_shifted(0.0, np.ones(3))


def test_non_finite_input_raises_value_error():
    A = _Tridiag([4.0, 4.0, 4.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        A.solve_shifted(0.0, [1.0, np.nan, 1.0])
    with pytest.raises(ValueError):
        A.solve_shifted(np.inf, np.ones(3))
    with pytest.raises(ValueError):
        _Tridiag([4.0, np.inf, 4.0], [1.0, 1.0]).solve_shifted(0.0, np.ones(3))


# -- the warm seed ---------------------------------------------------------------


@pytest.mark.parametrize(
    "q, d, most",
    [
        (4.0, 1, 0.5),  # 19 cold, 6 warm
        (3.0, 1, 0.5),  # 26 cold, 5 warm
        (10.0 / 3.0, 3, 0.5),  # 34 cold, 17 warm
        (4.0, 3, 0.55),  # 42 cold, 22 warm
    ],
)
def test_the_doubled_seed_grid_starts_warm(monkeypatch, q, d, most):
    solve, solves = _Tridiag.solve_shifted, []

    def counted(self, sigma, rhs):
        if sigma == -1.0:
            solves.append(self.n)
        return solve(self, sigma, rhs)

    monkeypatch.setattr(_Tridiag, "solve_shifted", counted)
    unit, _, _, _ = groundstate._unit_seed(q, d)
    assert unit.n == 2 * groundstate.SEED_N
    warm = solves.count(unit.n)
    solves.clear()
    groundstate._petviashvili(unit, q)
    cold = len(solves)
    assert 0 < warm <= most * cold


def test_a_warm_start_reaches_the_cold_fixed_point():
    # both stop on |gamma - 1| < 1e-12 (3.8e-8 apart); the seed reaches
    # Newton through an O(h^2) = 4e-4 interpolation
    unit, u, _, _ = groundstate._unit_seed(4.0, 3)
    cold = groundstate._petviashvili(unit, 4.0)
    assert np.abs(u - cold).max() <= 1e-6 * cold.max()


# -- smallest_eigenpairs: polish only what the gate refuses ----------------------


def _recorded_factorizations(monkeypatch):
    factor, factored = _Tridiag._factor, []

    def recording(self, sigma):
        if self._shift is None or self._shift[0] != sigma:
            factored.append(sigma)
        return factor(self, sigma)

    monkeypatch.setattr(_Tridiag, "_factor", recording)
    return factored


def _positive_channel():
    # -Lap + 1 + sech^2 with a rank-one term rho u u^T, rho > 0: positive
    # definite, so the kernel shift's count is 0 and sigma stays
    grid = Grid.line(10.0, 200)
    bump = np.cosh(grid.nodes) ** -2.0
    main, upper = symmetric_tridiagonal(grid, 0, 1.0 + bump)
    return main, upper, (0.5, np.sqrt(grid.quad_weights) * bump)


def _exact_eigsh(monkeypatch, main, upper, rank1, perturb=None):
    lams, vecs = np.linalg.eigh(_dense(main, upper, rank1))

    def exact(*args, k, **kwargs):
        out = vecs[:, :k].copy()
        if perturb is not None:  # tilt pair j toward pair k by 1e-6
            out[:, perturb] += 1e-6 * vecs[:, k]
        return lams[:k].copy(), out

    monkeypatch.setattr(spla, "eigsh", exact)
    return lams


def test_pairs_under_the_gate_get_no_new_factorization(monkeypatch):
    main, upper, rank1 = _positive_channel()
    lams = _exact_eigsh(monkeypatch, main, upper, rank1)
    factored = _recorded_factorizations(monkeypatch)
    k = 4
    eigs, vecs, residuals, _ = spectral.smallest_eigenpairs(main, upper, k, rank1=rank1)
    tol_eff = spectral._tol_eff(_Tridiag(main, upper, rank1=rank1))
    sigma = -max(1e-8 * _Tridiag(main, upper, rank1=rank1).opnorm, 1e-8)
    # the start count at sigma and the closing count at lambda_k + tol_eff
    assert factored == [sigma, eigs.max() + tol_eff]
    assert residuals.max() <= tol_eff
    np.testing.assert_allclose(eigs, lams[:k], rtol=1e-12)


def test_a_pair_past_the_gate_takes_one_polish(monkeypatch):
    main, upper, rank1 = _positive_channel()
    lams = _exact_eigsh(monkeypatch, main, upper, rank1, perturb=1)
    factored = _recorded_factorizations(monkeypatch)
    k = 4
    eigs, vecs, residuals, _ = spectral.smallest_eigenpairs(main, upper, k, rank1=rank1)
    tol_eff = spectral._tol_eff(_Tridiag(main, upper, rank1=rank1))
    assert len(factored) == 3
    # the polish shift is the tilted pair's Rayleigh quotient
    assert factored[1] == pytest.approx(lams[1], rel=1e-9)
    assert residuals.max() <= tol_eff
    np.testing.assert_allclose(eigs, lams[:k], rtol=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), atol=1e-10)


def test_the_start_count_and_arpack_share_one_factorization(monkeypatch, gs_q4_d1):
    gs = gs_q4_d1
    diag, off, rank1, _ = groundstate._second_variation(gs.grid, gs.q, gs.Q.values, gs.norm_q, gs.E, 0)
    factored = _recorded_factorizations(monkeypatch)
    spectral.smallest_eigenpairs(diag, off, k=5, rank1=rank1)
    sigma = factored[0]
    assert sigma < 0.0 and factored.count(sigma) == 1
    # every other factorization is a polish or the closing count
    assert len(factored) <= 1 + 5 + 1


@pytest.mark.parametrize("a", [15.0, 12.0, 10.0])
def test_a_near_degenerate_pair_past_the_gate_comes_back_orthonormal(a):
    # -2 sech^2 wells at +-a split their two lowest levels by 7.5e-13, 3e-10
    # and 1.7e-8; two polish steps at Ritz values that close turned the pair
    # within its level, and the columns were refused as not orthonormal
    g = Grid.line(40.0, 800)
    diag, off = symmetric_tridiagonal(g, 0, -2.0 / np.cosh(g.nodes - a) ** 2 - 2.0 / np.cosh(g.nodes + a) ** 2)
    eigs, vecs, _, _ = spectral.smallest_eigenpairs(diag, off, 3)
    lams, basis = np.linalg.eigh(_dense(diag, off))
    np.testing.assert_allclose(eigs, lams[:3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(basis[:, :3] @ (basis[:, :3].T @ vecs), vecs, atol=1e-12)
