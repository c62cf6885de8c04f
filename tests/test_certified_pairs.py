"""The k lowest pairs close on a certificate: loose shift-invert Lanczos, one
inverse-iteration polish for each pair the residual gate refuses, then
orthonormal vectors and one inertia count of exactly k eigenvalues below
lambda_k + tol_eff (docs/derivations.md §10)."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eigstab import hessian, spectral
from eigstab.exceptions import ConvergenceError
from eigstab.grid import Grid, _Tridiag, symmetric_tridiagonal

FIXTURES = ["gs_q103_d3", "gs_q3_d1", "gs_q4_d1", "gs_q4_d1_wide", "gs_q4_d3"]


# -- the inertia count ----------------------------------------------------------


@pytest.mark.parametrize("rank1", ["none", "positive", "negative"])
def test_count_below_matches_dense_eigvalsh(rank1):
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 40))
        diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
        term = None
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        if rank1 != "none":
            rho = (1.0 if rank1 == "positive" else -1.0) * rng.uniform(0.01, 10.0)
            u = rng.standard_normal(n)
            term, dense = (rho, u), dense + rho * np.outer(u, u)
        eigs = np.linalg.eigvalsh(dense)
        # between every two eigenvalues, and below and above them all
        mus = np.r_[eigs[0] - 1.0, (eigs[:-1] + eigs[1:]) / 2.0, eigs[-1] + 1.0]
        A = _Tridiag(diag, off, rank1=term)
        for want, mu in enumerate(mus):
            assert spectral._count_below(A, mu) == want


def test_count_below_refuses_a_singular_shift():
    # T - mu is exactly singular at mu = 2, so the Haynsworth term is undefined
    A = _Tridiag([1.0, 2.0, 3.0], [0.0, 0.0], rank1=(0.5, np.ones(3)))
    assert spectral._count_below(A, 2.0) == -1
    dense = np.diag([1.0, 2.0, 3.0]) + 0.5 * np.ones((3, 3))
    assert spectral._count_below(A, 2.5) == int((np.linalg.eigvalsh(dense) <= 2.5).sum()) == 2


def test_a_singular_kernel_shift_takes_the_fallback(monkeypatch):
    # T's lowest eigenvalue sits exactly on the kernel shift, so the count
    # there is -1 and the shift falls back below T's ground pair (§10)
    n, k, rank1 = 12, 3, (0.7, np.linspace(1.0, 2.0, 12))
    diag, off = np.arange(1.0, n + 1.0), np.zeros(n - 1)
    diag[0] = -max(1e-8 * _Tridiag(diag, off, rank1=rank1).opnorm, 1e-8)
    counts = []
    count = spectral._count_below

    def recorded(A, mu):
        counts.append(count(A, mu))
        return counts[-1]

    monkeypatch.setattr(spectral, "_count_below", recorded)
    eigs, vecs, _, _ = spectral.smallest_eigenpairs(diag, off, k, rank1=rank1)
    assert counts == [-1, k]
    dense = np.diag(diag) + rank1[0] * np.outer(rank1[1], rank1[1])
    np.testing.assert_allclose(eigs, np.linalg.eigvalsh(dense)[:k], rtol=0, atol=1e-10)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), atol=1e-8)


# -- the certificate refuses what is not the k lowest ---------------------------


def _drop_lowest(monkeypatch):
    eigsh = spla.eigsh

    def dropping(*args, k, **kwargs):
        eigs, vecs = eigsh(*args, k=k + 1, **kwargs)
        order = np.argsort(eigs)[1:]
        return eigs[order], vecs[:, order]

    monkeypatch.setattr(spla, "eigsh", dropping)


@pytest.mark.parametrize("ell", [0, 1], ids=["rank-one", "tridiagonal"])
def test_a_missed_lowest_pair_is_refused(monkeypatch, gs_q4_d1, ell):
    # pairs 2..k+1 are eigenpairs that pass the residual gate and are
    # orthonormal: only the count finds the one below them
    _drop_lowest(monkeypatch)
    with pytest.raises(ConvergenceError, match="not the 5 lowest"):
        hessian.build_channel(gs_q4_d1, ell)


def test_a_repeated_pair_is_refused(monkeypatch):
    # two wells 30 apart: the lowest two levels agree to far below tol_eff,
    # so a pair returned twice passes the residual gate and the count, and
    # only the orthonormality check refuses it
    g = Grid.line(40.0, 800)
    x = g.nodes
    diag, off = symmetric_tridiagonal(g, 0, -2.0 / np.cosh(x - 15.0) ** 2 - 2.0 / np.cosh(x + 15.0) ** 2)
    eigsh = spla.eigsh

    def repeating(*args, **kwargs):
        eigs, vecs = eigsh(*args, **kwargs)
        order = np.argsort(eigs)
        eigs, vecs = eigs[order], vecs[:, order]
        eigs[1], vecs[:, 1] = eigs[0], vecs[:, 0]
        return eigs, vecs

    monkeypatch.setattr(spla, "eigsh", repeating)
    with pytest.raises(ConvergenceError, match="not orthonormal"):
        spectral.smallest_eigenpairs(diag, off, 3)


# -- the cost ---------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_a_channel_takes_at_most_30_shifted_solves(request, monkeypatch, name):
    # ARPACK run to rounding level took 38-52 per channel on these fixtures
    gs = request.getfixturevalue(name)
    calls = []
    solve = _Tridiag.solve_shifted

    def counted(self, sigma, rhs):
        calls.append(sigma)
        return solve(self, sigma, rhs)

    monkeypatch.setattr(_Tridiag, "solve_shifted", counted)
    for ell in [0, 1] if gs.d == 1 else [0, 1, 2]:
        calls.clear()
        hessian.build_channel(gs, ell)
        assert len(calls) <= 30, (ell, len(calls))
