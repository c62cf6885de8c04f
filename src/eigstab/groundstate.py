"""The constrained minimization for the optimal profile Q.

Minimizes  int |grad psi|^2 - (int |psi|^q)^(2/q)  over unit-L2 radial
functions.  The minimizer Q solves

    -Lap Q - ||Q||_q^(2-q) Q^(q-1) = E Q,        int Q^2 = 1,

with E < 0 the minimum value.  From E the two sharp constants follow:
the eigenvalue-ratio constant C' = -E and the interpolation-inequality
constant S via the scaling identity

    C' = theta^(1/(1-theta)) (1-theta) S^(-1/(1-theta)).

In d = 1 the minimizer has the closed form A sech^(2/(q-2))(kappa x);
see :func:`keller_profile`.

Virial identity
---------------
Multiplying the profile equation by Q and integrating gives
T - N = E with T = int |grad Q|^2 and N = ||Q||_q^2.  Multiplying by
x . grad Q and integrating by parts (Pohozaev) gives
((d-2)/2) T = d (N/q + E/2).  Eliminating T:

    N = 2 q E / ((d-2) q - 2 d),   i.e.  ||Q||_q = sqrt(2q|E| / (2d - (d-2)q)),

which is positive in the subcritical range.  ``virial_norm_check``
compares the solver's ||Q||_q against this value.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    ConvergenceError,
    InvalidExponentError,
    PreconditionError,
    UnsupportedShiftError,
)
from .grid import (
    Grid,
    GridFunction,
    _Tridiag,
    exact,
    gradient_squared_integral,
    laplacian_apply,
    laplacian_tridiagonal,
    norm_lp,
    symmetric_tridiagonal,
)
from .measure import weighted_norm
from .spectral import _warm_ground_pair, smallest_eigenpairs


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------

def _check_gamma_range(gamma: float, d: int) -> None:
    if d < 1:
        raise InvalidExponentError("dimension must be >= 1")
    if d == 1 and gamma <= 0.5:
        raise InvalidExponentError(f"d = 1 needs gamma > 1/2, got {gamma}")
    if d >= 2 and gamma <= 0.0:
        raise InvalidExponentError(f"d >= 2 needs gamma > 0, got {gamma}")


@dataclass(frozen=True)
class Exponents:
    """The tied exponents: p = gamma + d/2, q its dual partner via
    1/p + 2/q = 1, and the interpolation weight theta = d(q-2)/(2q)."""

    gamma: float
    d: int
    p: float
    q: float
    theta: float

    @classmethod
    def from_gamma(cls, gamma: float, d: int) -> "Exponents":
        _check_gamma_range(gamma, d)
        p = gamma + d / 2.0
        q = 2.0 * p / (p - 1.0)
        if d >= 3 and q >= 2.0 * d / (d - 2.0):
            raise InvalidExponentError(
                f"q = {q} is supercritical for d = {d}"
            )
        theta = d * (q - 2.0) / (2.0 * q)
        return cls(gamma=gamma, d=d, p=p, q=q, theta=theta)

    @classmethod
    def from_q(cls, q: float, d: int) -> "Exponents":
        if q <= 2.0:
            raise InvalidExponentError(f"need q > 2, got {q}")
        p = q / (q - 2.0)
        return cls.from_gamma(p - d / 2.0, d)


def _profile_exponents(gamma: float, d: int, gs: GroundState) -> Exponents:
    """The exponents of (gamma, d), which must be those gs was solved for."""
    exps = Exponents.from_gamma(gamma, d)
    if abs(exps.q - gs.q) > 1e-12 or d != gs.d:
        raise InvalidExponentError(
            f"profile solved for q = {gs.q}, d = {gs.d}; "
            f"gamma = {gamma}, d = {d} implies q = {exps.q}"
        )
    return exps


# ---------------------------------------------------------------------------
# energy functional
# ---------------------------------------------------------------------------

def gns_energy(psi: GridFunction, q: float) -> float:
    """int |grad psi|^2 - (int |psi|^q)^(2/q)."""
    return gradient_squared_integral(psi) - norm_lp(psi, q) ** 2


# ---------------------------------------------------------------------------
# d = 1 closed form
# ---------------------------------------------------------------------------

def _sech_integral(m: float) -> float:
    """int_R sech^m(u) du = sqrt(pi) Gamma(m/2) / Gamma((m+1)/2)."""
    from scipy.special import gamma as gamma_fn
    return float(math.sqrt(math.pi) * gamma_fn(m / 2.0) / gamma_fn((m + 1.0) / 2.0))


def keller_parameters(q: float):
    """(amplitude A, rate kappa, eigenvalue E) of the d = 1 profile
    A sech^(2/(q-2))(kappa x).

    Substituting the ansatz into the profile equation matches the
    sech^(beta+2) terms (beta = 2/(q-2)) and yields

        E = -beta^2 kappa^2,
        ||Q||_q^(2-q) A^(q-2) = beta (beta+1) kappa^2,

    while the L2 constraint gives A^2 I_{2 beta} = kappa, where I_m is
    the full-line integral of sech^m.  Eliminating A gives kappa in
    closed form.
    """
    if q <= 2.0:
        raise InvalidExponentError(f"need q > 2, got {q}")
    beta = 2.0 / (q - 2.0)
    i_q = _sech_integral(beta * q)
    kappa = (beta * (beta + 1.0) * i_q ** ((q - 2.0) / q)) ** (-q / (q + 2.0))
    amp = math.sqrt(kappa / _sech_integral(2.0 * beta))
    energy = -(beta**2) * kappa**2
    return amp, kappa, energy


def keller_profile(q: float, x) -> np.ndarray | float:
    """The normalized d = 1 minimizer evaluated at x (scalar or array)."""
    amp, kappa, _ = keller_parameters(q)
    beta = 2.0 / (q - 2.0)
    return amp * np.cosh(kappa * np.asarray(x, dtype=float)) ** (-beta)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundState:
    Q: GridFunction
    E: float
    q: float
    d: int
    norm_q: float
    C_prime: float
    S: float
    el_residual: float

    @property
    def grid(self) -> Grid:
        return self.Q.grid

    @cached_property
    def _v0neg(self):
        """V0_-(r) = (Q(r)/||Q||_q)^(q-2), built once: Q is read-only, and the
        callable holds no reference to self, so caching it makes no cycle."""
        prof, norm_q, qm2 = profile_interpolant(self), self.norm_q, self.q - 2.0
        return lambda r: (prof(r) / norm_q) ** qm2

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.q,
                "d": self.d,
                **exact({
                    "E": self.E,
                    "C_prime": self.C_prime,
                    "S": self.S,
                    "norm_q": self.norm_q,
                    "el_residual": self.el_residual,
                }),
                "grid": self.grid.metadata(),
                "Q": exact(self.Q.values),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GroundState":
        doc = json.loads(text)
        grid = Grid.from_metadata(doc["grid"])
        return cls(
            Q=GridFunction(grid, np.array([float(v) for v in doc["Q"]])),
            E=float(doc["E"]),
            q=float(doc["q"]),
            d=int(doc["d"]),
            norm_q=float(doc["norm_q"]),
            C_prime=float(doc["C_prime"]),
            S=float(doc["S"]),
            el_residual=float(doc["el_residual"]),
        )


def _el_residual(grid, psi, energy, coupling, q):
    """Weighted L2 norm of -Lap Q - c Q^(q-1) - E Q."""
    f = GridFunction(grid, psi)
    res = laplacian_apply(f).values - coupling * psi ** (q - 1.0) - energy * psi
    return float(np.sqrt(grid.quad_weights @ res**2))


def interpolation_constant_from_c_prime(c_prime: float, theta: float) -> float:
    """Invert the scaling identity: S = theta ((1-theta)/C')^(1-theta)."""
    return float(theta * ((1.0 - theta) / c_prime) ** (1.0 - theta))


#: the unit-scale seed grid: u decays like e^(-r), and in d = 1 like 2^b e^(-r) u(0), b = 2/(q-2);
#: n doubles from SEED_N until s^2 moves by at most SEED_SETTLE, up to SEED_N_CAP (derivations §3)
SEED_EXTENT, SEED_N, SEED_SETTLE, SEED_N_CAP = 40.0, 1000, 1e-3, 2**17
#: Newton stops on a step norm this small (its square is the error left), or fails at the cap
NEWTON_STEP_TOL, NEWTON_CAP = 1e-8, 12
#: the largest relative distance of E from the unit-scale -s^2 that is not refused, unless
#: the seed's own last change is larger
SEED_AGREEMENT = 0.05


def _second_variation(grid: Grid, q: float, psi, norm_q: float, energy: float, ell: int = 0):
    """Channel ell of the second variation at (psi, E) in sqrt(w) coordinates
    (see :mod:`eigstab.hessian`): (diag, off) of -Lap_ell + Veff with Veff =
    -(q-1) ||psi||_q^(2-q) |psi|^(q-2) - E, the rank-one term (rho, u) =
    ((q-2) ||psi||_q^(2-2q), sqrt(w) |psi|^(q-2) psi) for ell = 0 (else
    None), and Veff."""
    pq2 = np.abs(psi) ** (q - 2.0)
    veff = -(q - 1.0) * norm_q ** (2.0 - q) * pq2 - energy
    rank1 = None
    if ell == 0:
        rank1 = ((q - 2.0) * norm_q ** (2.0 - 2.0 * q), np.sqrt(grid.quad_weights) * pq2 * psi)
    return (*symmetric_tridiagonal(grid, ell, veff), rank1, veff)


def _petviashvili(grid: Grid, q: float) -> np.ndarray:
    """Positive solution of the parameter-free equation -Lap u + u = u^(q-1).

    Fixed-point iteration u <- gamma^alpha (-Lap + 1)^(-1) u^(q-1), alpha =
    (q-1)/(q-2), gamma = <(-Lap+1)u, u> / <u^(q-1), u>, which is 1 at the fixed
    point; it stops on |gamma - 1| < 1e-12 alone, since u only seeds Newton
    through an O(h^2) interpolation, and Newton's closing step gates the residual.
    """
    w = grid.quad_weights
    r = grid.nodes
    lap = _Tridiag(*laplacian_tridiagonal(grid, 0))
    alpha = (q - 1.0) / (q - 2.0)
    u = 2.0 * np.exp(-(r**2) / 2.0)
    for _ in range(500):
        mu = lap.matvec(u)
        mu += u
        rhs = u ** (q - 1.0)
        num = float(w @ (mu * u))
        den = float(w @ (rhs * u))
        if den <= 0.0 or not np.isfinite(den):
            raise ConvergenceError("profile iteration degenerated")
        gamma = num / den
        # (-Lap + 1)^(-1) is the shifted solve at sigma = -1
        try:
            factor = gamma**alpha
        except OverflowError as exc:
            raise InvalidExponentError(
                f"q = {q} lies too close to 2 for the profile iteration: "
                f"its factor gamma^{alpha:.6g} overflows"
            ) from exc
        u = factor * lap.solve_shifted(-1.0, rhs)
        u = np.maximum(u, 0.0)
        if abs(gamma - 1.0) < 1e-12:
            break
    return u


def _unit_seed(q: float, d: int):
    """(unit grid, u, s, change): _petviashvili's u on the unit-scale grid, the
    scale s of the unit-mass minimizer (see solve_ground_state), and the
    relative change of s^2 at the last doubling of n (inf if none)."""
    extent = min(max(SEED_EXTENT, 30.0 + 2.0 / (q - 2.0)), 1000.0)
    n, prev = SEED_N, None
    while True:
        unit = Grid.radial(d, extent, n)
        u = _petviashvili(unit, q)
        s = float(unit.quad_weights @ u**q) ** (-(q - 2.0) / (2.0 * q - d * (q - 2.0)))
        change = math.inf if prev is None else abs(1.0 - (prev / s) ** 2)
        if change <= SEED_SETTLE or 2 * n > SEED_N_CAP:
            return unit, u, s, change
        n, prev = 2 * n, s


def solve_ground_state(q: float, d: int, grid: Grid, tol: float = 1e-10) -> GroundState:
    """Solve the constrained minimization on a radial grid.

    The parameter-free equation is solved on a unit-scale grid refined until
    its scale settles (Petviashvili) and rescaled onto ``grid``; Newton on (Q, E) solves the
    profile equation with unit mass there, and a certified ground pair of
    -Lap - ||Q||_q^(2-q) Q^(q-2) closes the solve, whose residual must be
    below tol (floored at the grid's rounding level).  docs/derivations.md §3.
    """
    exps = Exponents.from_q(q, d)
    if grid.kind != "radial" or grid.dim != d:
        raise PreconditionError("solve_ground_state needs a radial grid of dimension d")
    w = grid.quad_weights
    sw = np.sqrt(w)

    # rescale the parameter-free solution u to unit L2 mass: with
    # mq = int u^q, the constrained minimizer is s^(d/2) u(s r) / sqrt(m2)
    # up to normalization, where s^2 = |E| = mq^(-2(q-2)/(2q - d(q-2)))
    unit, u, s, change = _unit_seed(q, d)
    psi = np.interp(s * grid.nodes, unit.nodes, u, right=0.0)
    nrm = math.sqrt(w @ psi**2)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ConvergenceError("profile initialization collapsed")
    v = sw * psi / nrm

    # Newton on F(v) = (A - ||psi||_q^(2-q) |psi|^(q-2) - E) v = 0, v.v = 1 in
    # sqrt(w) coordinates: its Jacobian, the ell = 0 Hessian channel
    # H = T + rho u u^T bordered by v, is eliminated through T (three solves
    # and a 2x2 system); F is homogeneous of degree 1 in v, so F(v) = H v
    energy, step = -s * s, np.inf
    for k in range(NEWTON_CAP + 1):
        psi = v / sw
        norm_q = weighted_norm(np.abs(psi), w, q)
        if step <= NEWTON_STEP_TOL:
            break
        if k == NEWTON_CAP:
            raise ConvergenceError(f"profile Newton did not converge in {k} steps")
        try:  # a step may overflow, be non-finite or meet a singular T
            diag, off, (rho, u), _ = _second_variation(grid, q, psi, norm_q, energy)
            T = _Tridiag(diag, off)
            res = T.matvec(v) + rho * (u @ v) * u
            a, b, z = (T.solve_shifted(0.0, x) for x in (-res, u, v))
            border = [[1.0 + rho * (u @ b), -(u @ z)], [-rho * (v @ b), v @ z]]
            alpha, d_energy = np.linalg.solve(border, [u @ a, (1.0 - v @ v) / 2.0 - v @ a])
        except (ValueError, OverflowError, np.linalg.LinAlgError) as exc:
            raise ConvergenceError(f"profile Newton step failed: {exc}") from exc
        dv = a - rho * alpha * b + d_energy * z
        step = np.linalg.norm(dv)
        v = v + dv
        energy += d_energy

    # -- closing step: the certified ground pair at the Newton iterate --
    coupling = norm_q ** (2.0 - q)
    diag, off = symmetric_tridiagonal(grid, 0, -coupling * np.abs(psi) ** (q - 2.0))
    pair = _warm_ground_pair(diag, off, v, tol)
    if pair is None:
        eigs, vecs, _, _ = smallest_eigenpairs(diag, off, k=1, tol=tol)
        pair = eigs[0], vecs[:, 0]
    psi = np.abs(pair[1]) / sw
    psi /= math.sqrt(w @ psi**2)
    energy = float(pair[0])
    residual = _el_residual(grid, psi, energy, coupling, q)
    tol_eff = max(tol, 200.0 * np.finfo(float).eps * 2.0 / grid.spacing**2)
    if not residual <= tol_eff:
        raise ConvergenceError(
            f"profile solve stalled at residual {residual:.3e}",
            best=GridFunction(grid, psi),
            residual=residual,
        )
    if energy >= 0.0:
        raise ConvergenceError("profile solve converged to E >= 0", residual=residual)
    if abs(energy + s * s) > max(SEED_AGREEMENT, change) * s * s:
        raise ConvergenceError(
            f"profile solve gave E = {energy:.6g}, not the unit-scale {-s * s:.6g}: "
            "the grid truncates or under-resolves the profile"
        )

    if psi[-1] > 1e-8 * psi[0]:
        warnings.warn(
            "profile has not decayed at r = L; enlarge the domain",
            stacklevel=2,
        )

    norm_q = weighted_norm(psi, w, q)
    c_prime = -energy
    s_const = interpolation_constant_from_c_prime(c_prime, exps.theta)
    return GroundState(
        Q=GridFunction(grid, psi),
        E=energy,
        q=q,
        d=d,
        norm_q=norm_q,
        C_prime=c_prime,
        S=s_const,
        el_residual=residual,
    )


# ---------------------------------------------------------------------------
# derived objects
# ---------------------------------------------------------------------------

def profile_interpolant(gs: GroundState):
    """Callable Q(r) for r >= 0, cubic off-node, 0 beyond the grid."""
    from scipy.interpolate import CubicSpline

    r = gs.grid.nodes
    spline = CubicSpline(r, gs.Q.values, bc_type="natural", extrapolate=False)
    r0, rmax = r[0], r[-1]

    def evaluate(x):
        x = np.abs(np.asarray(x, dtype=float))
        # flat (even) continuation below the first node: spline(r0) is Q(r0)
        out = np.where(x <= rmax, spline(np.clip(x, r0, rmax)), 0.0)
        return np.clip(out, 0.0, None)

    return evaluate


def _base_profile(gs: GroundState):
    """Callable V0_-(r) of the unit-scale member, one per ground state."""
    return gs._v0neg


def _family_neg(
    gs: GroundState, grid: Grid, b: float, a: float, v0=None
) -> np.ndarray:
    """Nodal values of W_- for the member with parameters (b, a); ``v0``
    defaults to the ground state's one profile interpolant."""
    if v0 is None:
        v0 = _base_profile(gs)
    x = grid.nodes
    arg = b * np.abs(x - a) if grid.kind == "line" else b * x
    return b**2 * v0(arg)


def optimal_potential(
    gs: GroundState, b: float = 1.0, a: float = 0.0, grid: Grid | None = None
) -> GridFunction:
    """A member of the optimal family: W(x) = -b^2 (Q(b(x-a))/||Q||_q)^(q-2).

    With b = 1, a = 0 on the solver's own grid this uses the nodal values
    directly, so the profile equation makes Q the exact discrete ground
    state of -Lap + W with eigenvalue E.
    """
    if b <= 0.0:
        raise PreconditionError("scale b must be positive")
    target = grid if grid is not None else gs.grid
    if target.kind == "radial" and a != 0.0:
        raise UnsupportedShiftError("radial grids only support a = 0")
    if target is gs.grid and b == 1.0 and a == 0.0:
        return GridFunction(target, -((gs.Q.values / gs.norm_q) ** (gs.q - 2.0)))
    return GridFunction(target, -_family_neg(gs, target, b, a))


@dataclass(frozen=True)
class KellerConstant:
    """The sharp eigenvalue-ratio constant computed two ways."""

    value: float            # from -E
    eigen_route: float      # |lambda(W)| / (int W_-^p)^(1/gamma) at W = W(Q)
    mismatch: float         # relative difference of the two routes


def keller_constant(gamma: float, d: int, gs: GroundState) -> KellerConstant:
    from .stability import eigenvalue_ratio

    route1 = gs.C_prime
    route2 = eigenvalue_ratio(optimal_potential(gs), gamma, d, gs)
    mismatch = abs(route1 - route2) / route1
    return KellerConstant(value=route1, eigen_route=route2, mismatch=mismatch)


def virial_norm_check(gs: GroundState):
    """(measured ||Q||_q, value predicted by the virial identity)."""
    q, d = gs.q, gs.d
    predicted = math.sqrt(2.0 * q * abs(gs.E) / (2.0 * d - (d - 2.0) * q))
    return gs.norm_q, predicted
