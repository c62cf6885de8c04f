"""Eigensolver oracles: exactly solvable potentials and matrix identities."""

import numpy as np
import pytest

from eigstab.exceptions import DegenerateInputError
from eigstab.grid import Grid, GridFunction, symmetric_tridiagonal
from eigstab.spectral import (
    lambda_of_potential,
    lowest_eigenpair,
    rayleigh_quotient,
    smallest_eigenpairs,
)


def _poschl_teller(grid, depth=2.0, center=0.0):
    return grid.from_callable(lambda x: -depth / np.cosh(x - center) ** 2)


def test_poschl_teller_ground_state():
    # V = -2 sech^2 has the single bound state -sech with lambda = -1
    g = Grid.line(20.0, 4000)
    pair = lowest_eigenpair(_poschl_teller(g))
    assert pair.lam == pytest.approx(-1.0, abs=5e-6)
    expect = 1.0 / np.cosh(g.nodes)
    expect /= np.sqrt(g.quad_weights @ expect**2)
    assert np.max(np.abs(pair.psi.values - expect)) < 1e-5
    assert pair.residual < 1e-9


def test_poschl_teller_two_levels():
    # V = -6 sech^2 (the l = 2 member) has levels -4 and -1
    g = Grid.line(20.0, 4000)
    V = _poschl_teller(g, depth=6.0)
    diag, off = symmetric_tridiagonal(g.function(V.values).grid, 0, V.values)
    eigs, vecs, res, _ = smallest_eigenpairs(diag, off, k=2)
    assert eigs[0] == pytest.approx(-4.0, abs=5e-5)
    assert eigs[1] == pytest.approx(-1.0, abs=5e-5)
    assert vecs.shape == (4000, 2)
    assert abs(vecs[:, 0] @ vecs[:, 1]) < 1e-10


def test_translation_invariance():
    g = Grid.line(20.0, 4000)
    lam0 = lowest_eigenpair(_poschl_teller(g)).lam
    lam5 = lowest_eigenpair(_poschl_teller(g, center=5.0)).lam
    assert lam5 == pytest.approx(lam0, abs=1e-8)


def test_depth_monotonicity():
    g = Grid.line(20.0, 2000)
    lams = [lowest_eigenpair(_poschl_teller(g, depth=s)).lam for s in (1.0, 2.0, 3.0)]
    assert lams[0] > lams[1] > lams[2]


def test_harmonic_oscillator_radial():
    # -Lap + r^2 in d = 3: levels 3, 7 in the ell = 0 channel, 5 in ell = 1
    g = Grid.radial(3, 12.0, 3000)
    V = g.from_callable(lambda r: r**2)
    diag, off = symmetric_tridiagonal(g, 0, V.values)
    eigs, _, _, _ = smallest_eigenpairs(diag, off, k=2)
    assert eigs[0] == pytest.approx(3.0, abs=1e-4)
    assert eigs[1] == pytest.approx(7.0, abs=1e-4)
    diag1, off1 = symmetric_tridiagonal(g, 1, V.values)
    eigs1, _, _, _ = smallest_eigenpairs(diag1, off1, k=1)
    assert eigs1[0] == pytest.approx(5.0, abs=1e-4)


def test_harmonic_oscillator_line():
    g = Grid.line(12.0, 3000)
    V = g.from_callable(lambda x: x**2)
    pair = lowest_eigenpair(V)
    assert pair.lam == pytest.approx(1.0, abs=1e-5)


def test_rank_one_against_dense():
    rng = np.random.default_rng(4)
    n = 200
    diag = rng.uniform(1.0, 3.0, n)
    off = rng.uniform(-1.0, 0.0, n - 1)
    u = rng.standard_normal(n)
    rho = 0.7
    eigs, vecs, res, _ = smallest_eigenpairs(diag, off, k=3, rank1=(rho, u))
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + rho * np.outer(u, u)
    dense = np.sort(np.linalg.eigvalsh(A))[:3]
    assert np.allclose(eigs, dense, atol=1e-9)
    assert np.all(res < 1e-8)


def test_rank_one_projector_shift():
    # adding rho * (psi psi^T) to the ground projector moves only lambda_1
    g = Grid.line(10.0, 500)
    V = _poschl_teller(g)
    diag, off = symmetric_tridiagonal(g, 0, V.values)
    eigs0, vecs0, _, _ = smallest_eigenpairs(diag, off, k=2)
    u = vecs0[:, 0]
    rho = 0.05
    eigs1, _, _, _ = smallest_eigenpairs(diag, off, k=2, rank1=(rho, u))
    assert eigs1[0] == pytest.approx(eigs0[0] + rho, abs=1e-8)
    assert eigs1[1] == pytest.approx(eigs0[1], abs=1e-8)


def test_clustered_spectrum_returns_true_minimum():
    # shallow wide well: many nearly degenerate low modes; the solver must
    # not lock onto an interior eigenvalue
    g = Grid.radial(3, 20.0, 1500)
    V = g.from_callable(lambda r: -0.0586 * np.exp(-((r / 6.0) ** 2)))
    diag, off = symmetric_tridiagonal(g, 0, V.values)
    eigs, _, _, _ = smallest_eigenpairs(diag, off, k=1)
    import scipy.linalg as sla

    all_eigs = sla.eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
    assert eigs[0] == pytest.approx(all_eigs[0], abs=1e-10)


def test_eigenvector_normalization_and_sign():
    g = Grid.line(20.0, 1000)
    pair = lowest_eigenpair(_poschl_teller(g))
    w = g.quad_weights
    assert w @ pair.psi.values**2 == pytest.approx(1.0, abs=1e-12)
    assert pair.psi.values[np.argmax(np.abs(pair.psi.values))] > 0.0


def test_lambda_clamps_positive_minimum():
    g = Grid.line(10.0, 500)
    V = g.from_callable(lambda x: 0.0 * x)
    assert lambda_of_potential(V) == 0.0
    assert lambda_of_potential(_poschl_teller(g)) < 0.0


def test_rayleigh_quotient():
    g = Grid.line(20.0, 2000)
    V = _poschl_teller(g)
    pair = lowest_eigenpair(V)
    assert rayleigh_quotient(pair.psi, V) == pytest.approx(pair.lam, abs=1e-8)
    with pytest.raises(DegenerateInputError):
        rayleigh_quotient(g.zero(), V)


def test_convergence_order():
    errs = []
    for n in (500, 1000, 2000):
        g = Grid.line(20.0, n)
        errs.append(abs(lowest_eigenpair(_poschl_teller(g)).lam + 1.0))
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert 3.2 < errs[1] / errs[2] < 4.8


def test_no_iteration_count_is_reported():
    # neither LAPACK nor ARPACK reports a count, so none is made up
    g = Grid.line(10.0, 400)
    V = _poschl_teller(g)
    diag, off = symmetric_tridiagonal(g, 0, V.values)
    assert smallest_eigenpairs(diag, off, k=2)[3] is None
    u = np.sqrt(g.quad_weights) * np.exp(-g.nodes**2)
    assert smallest_eigenpairs(diag, off, k=2, rank1=(1.0, u))[3] is None
    assert lowest_eigenpair(V).iterations is None
