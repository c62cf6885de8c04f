"""Lowest eigenpairs of -Lap + V on a grid.

The discretized operator is tridiagonal (plus an optional rank-one term,
used by the linearization module).  Its ground pair comes from inverse
iteration at shifts an LDL^T factorization certifies below the spectrum,
which clusters of nearly degenerate low eigenvalues cannot fool.  More
pairs, with or without a rank-one term, come from shift-invert Lanczos at
a shift an inertia count (or that ground pair) certifies below the
spectrum, polished and certified the k lowest by one more count, with
tridiagonal LU factored once per shift and Sherman-Morrison solves.
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
from .measure import _dot

ITERATION_CAP = 10_000
DEFAULT_TOL = 1e-10
INVERSE_CAP = 200  # safeguarded inverse-iteration steps per cold ground pair
LANCZOS_TOL = 1e-6  # ARPACK's relative stop, from which the polish reaches the gate


@dataclass(frozen=True)
class EigenPair:
    lam: float
    psi: GridFunction       # L2-normalized, sign-fixed positive at max |psi|
    residual: float
    iterations: int | None  # lowest_eigenpair does not count its inverse steps: None


def _inverse_step(A: _Tridiag, solve, v):
    """One inverse-iteration step, solve(v) = (A - sigma I)^(-1) v made a
    unit vector: (its Rayleigh quotient, it), or None when the solve is
    singular, v or the result is not finite, or the result is zero."""
    try:
        y = solve(v)
    except (np.linalg.LinAlgError, ValueError):  # ValueError: v or the shift not finite
        return None
    ny = np.sqrt(_dot(y, y))
    if not 0.0 < ny < np.inf:
        return None
    v = y / ny
    return A.quadratic_form(v), v


def _residual(A: _Tridiag, lam, v) -> float:
    """||A v - lam v||."""
    r = A.matvec(v) - lam * v
    return float(np.sqrt(_dot(r, r)))


def _tol_eff(A: _Tridiag) -> float:
    """The one residual gate: DEFAULT_TOL floored at the rounding level
    50 * eps * ||A||, which large grids cannot get below."""
    return max(DEFAULT_TOL, 50.0 * np.finfo(float).eps * A.opnorm)


def _certified(A: _Tridiag, lam, v, tol_eff) -> bool:
    """||A v - lam v|| <= tol_eff and A - (lam - tol_eff) I positive
    definite (dpttrf): 0 <= lam - lambda_0 < tol_eff (derivations §10)."""
    from scipy.linalg.lapack import dpttrf
    return _residual(A, lam, v) <= tol_eff and dpttrf(A.main - (lam - tol_eff), A.upper)[2] == 0


def _cold_ground_pair(A: _Tridiag, guess=None):
    """Certified lowest pair (lam, unit vector) of the symmetric tridiagonal
    A by inverse iteration from guess (default: the ones vector), at shifts
    dpttrf certifies below lambda_0 (derivations §10), closed one step past
    the gate _tol_eff(A); ConvergenceError after INVERSE_CAP, or at once
    from a zero or non-finite guess.  lowest_eigenpair passes sqrt(w V_-);
    a guess costs steps, never the answer (derivations §10)."""
    from scipy.linalg.lapack import dpttrf, dpttrs
    if not (np.isfinite(A.main).all() and np.isfinite(A.upper).all()):
        raise ValueError("matrix must not contain infs or NaNs")
    tol_eff = _tol_eff(A)
    b = np.abs(A.upper)
    sigma = float(np.min(A.main - np.r_[b, 0.0] - np.r_[0.0, b])) - tol_eff
    d, e, _ = dpttrf(A.main - sigma, A.upper)  # diagonally dominant: succeeds
    gated, v = False, np.ones(A.n) if guess is None else np.asarray(guess, dtype=float)
    for _ in range(INVERSE_CAP):
        step = _inverse_step(A, lambda x: dpttrs(d, e, x)[0], v)
        if step is None:
            break
        lam, v = step
        if gated and _certified(A, lam, v, tol_eff):
            return lam, v
        r = _residual(A, lam, v)
        gated, shift = r <= tol_eff, lam - r
        while not gated and shift - sigma > tol_eff:  # past the gate sigma stays
            fd, fe, info = dpttrf(A.main - shift, A.upper)
            if info == 0:
                sigma, d, e = shift, fd, fe
            else:  # lambda_0 <= shift: halve the way up
                shift = 0.5 * (sigma + shift)
    raise ConvergenceError(f"ground pair not certified by inverse iteration (cap {INVERSE_CAP})")


def _count_below(A: _Tridiag, mu) -> int:
    """Eigenvalues of A = T + rho u u^T at or below mu by inertia, or -1 when
    T - mu is singular: the dstebz Sturm count of T, plus 1 if
    1 + rho u.(T - mu)^(-1) u has the sign of rho, minus 1 if rho > 0
    (Haynsworth; derivations §10)."""
    from scipy.linalg.lapack import dstebz
    m = int(dstebz(A.main, A.upper, 1, -np.inf, mu, 0, 0, np.inf, "E")[0])
    rho, u = A.rank1 or (0.0, None)
    if rho == 0.0:
        return m
    try:
        t = 1.0 + rho * float(_dot(u, _Tridiag(A.main, A.upper).solve_shifted(mu, u)))
    except np.linalg.LinAlgError:
        return -1
    return m + int(np.sign(t) == np.sign(rho)) - int(rho > 0.0)


def smallest_eigenpairs(
    diag,
    off,
    k: int = 1,
    rank1=None,
):
    """k smallest eigenpairs of a symmetric tridiagonal (+ rank-one) matrix;
    n < 3, or a k that is not an integer with 1 <= k < n, raises ValueError.

    Returns (eigs, vecs, residuals, iterations), vecs (n, k) with
    orthonormal columns, eigs ascending, iterations None (ARPACK reports no
    count).  Shift-invert Lanczos to LANCZOS_TOL at a shift certified below
    the spectrum, Sherman-Morrison solves for the rank-one term (rank1=None
    reads as rho = 0), one inverse-iteration polish per pair; then every
    residual must pass _tol_eff(A), |V^T V - I| <= 1e-8, and exactly k
    eigenvalues lie at or below lambda_k + _tol_eff(A), else ConvergenceError.
    """
    import scipy.sparse.linalg as spla
    A = _Tridiag(diag, off, rank1=rank1)
    if A.n < 3:  # scipy's dgttrf wrapper refuses n = 2
        raise ValueError(f"n must be at least 3, got {A.n}")
    if not isinstance(k, int | np.integer) or not 1 <= k < A.n:
        raise ValueError(f"k must be an integer with 1 <= k < n = {A.n}, got {k!r}")
    # sigma just below the kernel at 0 is below the spectrum if A has no
    # eigenvalue at or below it; else the same margin below a bound from T
    sigma = -max(1e-8 * A.opnorm, 1e-8)
    if _count_below(A, sigma) != 0:
        rho, u = A.rank1 or (0.0, np.zeros(A.n))
        sigma += _cold_ground_pair(_Tridiag(A.main, A.upper))[0] + min(rho, 0.0) * _dot(u, u)
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
        tol=LANCZOS_TOL,
    )
    order = np.argsort(eigs)
    eigs, vecs = eigs[order].copy(), vecs[:, order].copy()
    # one inverse-iteration step at each Ritz value finishes the loose pair
    for j in range(k):
        step = _inverse_step(A, lambda b: A.solve_shifted(eigs[j], b), vecs[:, j])
        if step is not None:
            eigs[j], vecs[:, j] = step

    residuals = np.array([_residual(A, eigs[j], vecs[:, j]) for j in range(k)])
    tol_eff, worst = _tol_eff(A), float(residuals.max())
    if not worst <= tol_eff:
        fault = f"residual {worst:.3e} exceeds target {tol_eff:.3e}"
    elif not np.abs(_dot(vecs.T[:, None], vecs.T) - np.eye(k)).max() <= 1e-8:
        fault = "vectors not orthonormal"
    elif (below := _count_below(A, eigs.max() + tol_eff)) != k:
        fault = f"pairs not the {k} lowest: {below} eigenvalues up to lambda_k + {tol_eff:.3e}"
    else:
        return np.asarray(eigs, dtype=float), vecs, residuals, None
    raise ConvergenceError(f"eigensolve {fault}", best=vecs, residual=worst)


def rayleigh_quotient(psi: GridFunction, V: GridFunction) -> float:
    """(int |grad psi|^2 + int V psi^2) / int psi^2."""
    w = psi.grid.quad_weights
    denom = float(_dot(w, psi.values**2))
    if denom == 0.0:
        raise DegenerateInputError("rayleigh_quotient of the zero function")
    kinetic = gradient_squared_integral(psi)
    potential = float(_dot(w, V.values * psi.values**2))
    return (kinetic + potential) / denom


def lowest_eigenpair(V: GridFunction) -> EigenPair:
    """Ground state of -Lap + V on V's grid, by inverse iteration started
    from sqrt(w V_-), or from the ones vector when V_- vanishes."""
    grid = V.grid
    A = _Tridiag(*symmetric_tridiagonal(grid, 0, V.values))
    start = np.sqrt(grid.quad_weights * np.maximum(-V.values, 0.0))
    lam, v = _cold_ground_pair(A, start if start.any() else None)
    psi_vals = v / np.sqrt(grid.quad_weights)  # unit in the quadrature L2 norm, as v is
    peak = np.argmax(np.abs(psi_vals))
    if psi_vals[peak] < 0.0:
        psi_vals = -psi_vals
    return EigenPair(
        lam=lam,
        psi=GridFunction(grid, psi_vals),
        residual=_residual(A, lam, v),
        iterations=None,
    )


def lambda_of_potential(V: GridFunction) -> float:
    """min(0, lowest eigenvalue): the eigenvalue functional, clamped to 0
    when the discrete minimum is positive."""
    return min(0.0, lowest_eigenpair(V).lam)
