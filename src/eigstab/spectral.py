"""Lowest eigenpairs of -Lap + V on a grid.

The discretized operator is tridiagonal (plus an optional rank-one term,
used by the linearization module).  Pure tridiagonal problems go through
LAPACK bisection + inverse iteration, which cannot be fooled by clusters
of nearly degenerate low eigenvalues.  With a rank-one term the pairs
come from shift-invert Lanczos, with the shift placed strictly below the
spectrum so the magnitude ordering matches the eigenvalue ordering;
shifted solves use tridiagonal LU, factored once per shift, plus the
Sherman-Morrison formula.
Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DegenerateInputError
from .grid import (
    GridFunction,
    _Tridiag,
    gradient_squared_integral,
    symmetric_tridiagonal,
)

ITERATION_CAP = 10_000
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class EigenPair:
    lam: float
    psi: GridFunction       # L2-normalized, sign-fixed positive at max |psi|
    residual: float
    iterations: int | None  # neither LAPACK nor ARPACK reports a count


def _inverse_step(A: _Tridiag, solve, v):
    """One inverse-iteration step, solve(v) = (A - sigma I)^(-1) v made a
    unit vector: (its Rayleigh quotient, it), or None when the solve is
    singular or its result zero or not finite."""
    try:
        y = solve(v)
    except np.linalg.LinAlgError:
        return None
    ny = np.linalg.norm(y)
    if not 0.0 < ny < np.inf:
        return None
    v = y / ny
    return float(v @ A.matvec(v)), v


def _residual(A: _Tridiag, lam, v) -> float:
    """||A v - lam v||."""
    return float(np.linalg.norm(A.matvec(v) - lam * v))


def _tol_eff(A: _Tridiag, tol: float) -> float:
    """The residual gate's target: tol floored at the rounding level
    50 * eps * ||A||, which large grids cannot get below."""
    return max(tol, 50.0 * np.finfo(float).eps * A.opnorm)


def smallest_eigenpairs(
    diag,
    off,
    k: int = 1,
    rank1=None,
    tol: float = DEFAULT_TOL,
):
    """k smallest eigenpairs of a symmetric tridiagonal (+ rank-one) matrix.

    Returns (eigs, vecs, residuals, iterations) with vecs of shape (n, k),
    orthonormal columns, eigenvalues in ascending order; iterations is
    None, since neither solver reports a count.  Pure tridiagonal
    matrices go through LAPACK bisection + inverse iteration; a rank-one
    term is handled by shift-invert Lanczos with the shift below the
    spectrum and Sherman-Morrison solves.  ``tol`` is a residual target,
    floored at the rounding level 50 * eps * ||A||, which is unreachable
    below for large grids.
    """
    import scipy.linalg as sla

    A = _Tridiag(diag, off, rank1=rank1)
    if A.rank1 is None:
        eigs, vecs = sla.eigh_tridiagonal(
            A.main, A.upper, select="i", select_range=(0, k - 1)
        )
    else:
        import scipy.sparse.linalg as spla
        # the rank-one term is PSD (rho > 0) in every use here, so the
        # tridiagonal part bounds the modified spectrum from below
        lam_t = sla.eigh_tridiagonal(
            A.main, A.upper, select="i", select_range=(0, 0), eigvals_only=True
        )[0]
        rho, u = A.rank1
        lb = lam_t if rho >= 0.0 else lam_t + rho * float(u @ u)
        sigma = lb - max(1e-8 * A.opnorm, 1e-8)
        lin = spla.LinearOperator((A.n, A.n), matvec=A.matvec, dtype=float)
        opinv = spla.LinearOperator(
            (A.n, A.n), matvec=lambda b: A.solve_shifted(sigma, b), dtype=float
        )
        v0 = np.exp(-4.0 * np.linspace(0.0, 1.0, A.n))
        eigs, vecs = spla.eigsh(
            lin,
            k=k,
            sigma=sigma,
            OPinv=opinv,
            which="LM",
            v0=v0,
            maxiter=ITERATION_CAP,
            tol=0,
        )
        order = np.argsort(eigs)
        eigs, vecs = eigs[order].copy(), vecs[:, order].copy()
        # one inverse-iteration polish per pair: ARPACK residuals in
        # shift-invert mode sit a little above rounding level
        for j in range(k):
            step = _inverse_step(A, lambda b: A.solve_shifted(eigs[j], b), vecs[:, j])
            if step is not None:
                eigs[j], vecs[:, j] = step

    residuals = np.array([_residual(A, eigs[j], vecs[:, j]) for j in range(len(eigs))])
    tol_eff = _tol_eff(A, tol)
    worst = float(residuals.max())
    if not worst <= tol_eff:
        raise ConvergenceError(
            f"eigensolve residual {worst:.3e} exceeds target {tol_eff:.3e}",
            best=vecs,
            residual=worst,
        )
    return np.asarray(eigs, dtype=float), vecs, residuals, None


def _warm_ground_pair(diag, off, guess, tol: float = DEFAULT_TOL):
    """Certified lowest eigenpair (lam, unit vector) of the symmetric
    tridiagonal (diag, off) from a nearby guess, or None.

    Three inverse-iteration steps at sigma = the guess's Rayleigh quotient
    less its residual, which dpttrf must certify below lambda_0; the result
    must pass the gate of :func:`smallest_eigenpairs` and
    A - (lam - tol_eff) I must factor, so lam is lambda_0 to within
    tol_eff (docs/derivations.md §10).
    """
    from scipy.linalg.lapack import dpttrf, dpttrs
    A = _Tridiag(diag, off)
    nv = np.linalg.norm(guess)
    if not 0.0 < nv < np.inf:
        return None
    v = np.asarray(guess, dtype=float) / nv
    rho = float(v @ A.matvec(v))
    d, e, info = dpttrf(A.main - (rho - _residual(A, rho, v)), A.upper)
    if info != 0:
        return None
    for _ in range(3):
        pair = _inverse_step(A, lambda b: dpttrs(d, e, b)[0], v)
        if pair is None:
            return None
        lam, v = pair
    tol_eff = _tol_eff(A, tol)
    if _residual(A, lam, v) <= tol_eff and dpttrf(A.main - (lam - tol_eff), A.upper)[2] == 0:
        return lam, v
    return None


def rayleigh_quotient(psi: GridFunction, V: GridFunction) -> float:
    """(int |grad psi|^2 + int V psi^2) / int psi^2."""
    w = psi.grid.quad_weights
    denom = float(w @ psi.values**2)
    if denom == 0.0:
        raise DegenerateInputError("rayleigh_quotient of the zero function")
    kinetic = gradient_squared_integral(psi)
    potential = float(w @ (V.values * psi.values**2))
    return (kinetic + potential) / denom


def lowest_eigenpair(
    V: GridFunction, ell: int = 0, tol: float = DEFAULT_TOL
) -> EigenPair:
    """Ground state of -Lap_ell + V on V's grid."""
    grid = V.grid
    diag, off = symmetric_tridiagonal(grid, ell, V.values)
    eigs, vecs, residuals, iters = smallest_eigenpairs(diag, off, k=1, tol=tol)
    w = grid.quad_weights
    psi_vals = vecs[:, 0] / np.sqrt(w)
    # normalize in the quadrature L2 norm and fix the sign
    psi_vals /= np.sqrt(w @ psi_vals**2)
    peak = np.argmax(np.abs(psi_vals))
    if psi_vals[peak] < 0.0:
        psi_vals = -psi_vals
    return EigenPair(
        lam=float(eigs[0]),
        psi=GridFunction(grid, psi_vals),
        residual=float(residuals[0]),
        iterations=iters,
    )


def lambda_of_potential(V: GridFunction, tol: float = DEFAULT_TOL) -> float:
    """min(0, lowest eigenvalue): the eigenvalue functional, clamped to 0
    when the discrete minimum is positive."""
    return min(0.0, lowest_eigenpair(V, 0, tol).lam)
