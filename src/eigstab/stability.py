"""Eigenvalue deficit, distance to the optimal-potential manifold, and
stability ratios.

The manifold M consists of the potentials W(x) = -b^2 V0(b(x-a)) with
V0 = (Q/||Q||_q)^(q-2), which saturate the sharp bound

    |lambda(V)| <= C (int V_-^p)^(1/gamma),        p = gamma + d/2.

``deficit`` measures how far a given V is from saturation;
``distance_to_manifold`` measures how far V_- is from the family in the
branch-appropriate norm, with the scale b eliminated by norm matching and
only the shift a searched; ``stability_report`` combines the two into the
empirical stability ratio deficit / (C * distance^2).  All quotients are
invariant under V -> b^2 V(b x) and translations.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import (
    DegenerateInputError,
    PreconditionError,
)
from .grid import (
    Grid,
    GridFunction,
    gradient_squared_integral,
    norm_lp,
)
from .groundstate import (
    Exponents,
    GroundState,
    _base_profile,
    _family_neg,
    _profile_exponents,
    optimal_potential,
)
from .measure import weighted_norm
from .spectral import lowest_eigenpair

#: distances below this leave empirical_c undefined (division by ~0)
DISTANCE_FLOOR = 1e-6

#: how sloppy the supplied ground state may be in deficit_decomposition
RAYLEIGH_RESIDUAL_CAP = 1e-6

#: the line-grid shift scan ranks every SCAN_STRIDE-th node shift, SCAN_BLOCK
#: shifts at a time, then refines the winner to SHIFT_XATOL grid spacings
SCAN_STRIDE = 4
SCAN_BLOCK = 16
SHIFT_XATOL = 1e-6


def negative_part(V: GridFunction) -> GridFunction:
    """V_- >= 0 with V = V_+ - V_-."""
    return GridFunction(V.grid, np.maximum(-V.values, 0.0))


def _attractive_part(V: GridFunction, gamma: float, d: int, gs: GroundState):
    """(exponents, V_-) after checking V against (gamma, d) and the profile;
    a V_- that vanishes identically leaves every ratio 0/0."""
    exps = _profile_exponents(gamma, d, gs)
    if V.grid.kind == "line" and d != 1:
        raise PreconditionError("line-grid potentials are one-dimensional")
    if V.grid.kind == "radial" and V.grid.dim != d:
        raise PreconditionError("potential grid dimension does not match d")
    vneg = negative_part(V)
    if not vneg.values.any():
        raise DegenerateInputError("V_- vanishes identically; the ratio is 0/0")
    return exps, vneg


def _lambda_ratio(V: GridFunction, vneg: GridFunction, exps: Exponents):
    """(lambda, |lambda| / (int V_-^p)^(1/gamma)) with lambda clamped at 0."""
    lam = min(0.0, lowest_eigenpair(V, 0).lam)
    return lam, abs(lam) / norm_lp(vneg, exps.p) ** (exps.p / exps.gamma)


def eigenvalue_ratio(V: GridFunction, gamma: float, d: int, gs: GroundState) -> float:
    """|lambda(V)| / (int V_-^p)^(1/gamma), the quantity C bounds."""
    exps, vneg = _attractive_part(V, gamma, d, gs)
    return _lambda_ratio(V, vneg, exps)[1]


def deficit(V: GridFunction, gamma: float, d: int, gs: GroundState) -> float:
    """C - |lambda(V)| (int V_-^p)^(-1/gamma); nonnegative up to rounding."""
    return gs.C_prime - eigenvalue_ratio(V, gamma, d, gs)


# ---------------------------------------------------------------------------
# distance to the manifold
# ---------------------------------------------------------------------------


def _branch_map(vals, exps: Exponents, power: bool):
    """(values, norm exponent) of a branch: V_- in L^p, or V_-^(2/(q-2)) in L^(q/2)."""
    if power:
        return vals ** (2.0 / (exps.q - 2.0)), exps.q / 2.0
    return vals, exps.p


def _branch_norm(vneg: GridFunction, exps: Exponents, power: bool) -> float:
    vals, pnorm = _branch_map(vneg.values, exps, power)
    return weighted_norm(vals, vneg.grid.quad_weights, pnorm)


def _matched_scale(vneg: GridFunction, exps: Exponents, gs: GroundState, power: bool) -> float:
    """Scale b fixed by norm matching against the unit-scale member.

    power=False matches ||W_-||_p (the low branch); power=True matches
    ||W_-^(2/(q-2))||_(q/2) (the high branch).  Both reduce to closed-form
    power laws because the family scales exactly.
    """
    base = negative_part(optimal_potential(gs))
    p, q, d = exps.p, exps.q, exps.d
    if power:
        # ||(b^2 V0(b .))^(2/(q-2))||_(q/2) = b^(4/(q-2) - 2d/q) * ref
        expo = 1.0 / (4.0 / (q - 2.0) - 2.0 * d / q)
    else:
        # ||b^2 V0(b .)||_p = b^(2 - d/p) ||V0||_p
        expo = p / (2.0 * p - d)
    return (_branch_norm(vneg, exps, power) / _branch_norm(base, exps, power)) ** expo


def _distance_objective(vneg_vals, w_vals, weights, exps: Exponents, power: bool, denom: float) -> float:
    u, pnorm = _branch_map(vneg_vals, exps, power)
    w, _ = _branch_map(w_vals, exps, power)
    return weighted_norm(np.abs(u - w), weights, pnorm) / denom


def _scan_shift(
    vneg: GridFunction, gs: GroundState, b: float, exps: Exponents, power: bool, denom: float, v0=None
):
    """Minimize the distance over the shift a; radial grids are centered
    by construction, so a = 0 there.  On line grids every node shift of W_-
    is a window of one lattice sample (W_-(x_i - x_j) = b^2 V0_-(b h |i - j|)).
    Window sums at every SCAN_STRIDE-th node only rank the shifts; Brent's
    bounded method refines the winner on the exact objective, so the result
    is an exact evaluation and never above the coarse winner's value.
    """
    from scipy.optimize import minimize_scalar

    grid, weights = vneg.grid, vneg.grid.quad_weights
    if v0 is None:
        v0 = _base_profile(gs)

    def objective(a):
        w_vals = _family_neg(gs, grid, b, a, v0)
        return _distance_objective(vneg.values, w_vals, weights, exps, power, denom)

    if grid.kind == "radial":
        return objective(0.0), 0.0

    n, h = grid.n, grid.spacing
    lattice, _ = _branch_map(b**2 * v0(b * h * np.abs(np.arange(1 - n, n))), exps, power)
    u, pnorm = _branch_map(vneg.values, exps, power)
    # node shift j is the window that starts at n - 1 - j
    rows = sliding_window_view(lattice, n)[n - 1 :: -SCAN_STRIDE]
    sums = np.empty(len(rows))
    buf = np.empty((SCAN_BLOCK, n))
    for s in range(0, len(rows), SCAN_BLOCK):
        block = rows[s : s + SCAN_BLOCK]
        out = np.subtract(u, block, out=buf[: len(block)])
        np.abs(out, out=out)
        np.power(out, pnorm, out=out)
        np.matmul(out, weights, out=sums[s : s + len(block)])
    a0 = float(grid.nodes[SCAN_STRIDE * int(np.argmin(sums))])
    bracket = (a0 - SCAN_STRIDE * h, a0 + SCAN_STRIDE * h)
    res = minimize_scalar(
        objective, bounds=bracket, method="bounded", options={"xatol": SHIFT_XATOL * h}
    )
    return min((objective(a0), a0), (float(res.fun), float(res.x)))


def _branch_distance(vneg: GridFunction, exps: Exponents, gs: GroundState, power: bool, v0=None):
    """(distance, a, b) in the low or high (power) branch; see distance_to_manifold."""
    b = _matched_scale(vneg, exps, gs, power)
    dist, a = _scan_shift(vneg, gs, b, exps, power, _branch_norm(vneg, exps, power), v0)
    return dist, a, b


def distance_to_manifold(V: GridFunction, gamma: float, d: int, gs: GroundState):
    """Normalized distance from V_- to the manifold, with matched (a, b).

    Low branch (p <= 2): inf_a ||V_- - W_-||_p / ||V_-||_p with b fixed by
    ||W_-||_p = ||V_-||_p.  High branch (p >= 2): the same for the
    (2/(q-2))-power map in L^(q/2).  Returns (distance, a, b).
    """
    exps, vneg = _attractive_part(V, gamma, d, gs)
    return _branch_distance(vneg, exps, gs, exps.p > 2.0)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    gamma: float
    d: int
    p: float
    q: float
    lam: float
    ratio: float
    deficit: float
    branch: str              # "low" (p <= 2) or "high" (p >= 2)
    distance: float
    matched_a: float
    matched_b: float
    empirical_c: float | None
    transfer_distance: float | None  # L^p distance, populated when p >= 2
    transfer_ratio: float | None     # deficit / (C * transfer^(2 gamma + d - 2))
    trans_lhs: float | None          # p^-1 (||V_- - W_-||_p / 2)^(p-1)
    trans_rhs: float | None          # power-map distance at the p-matched W

    def to_json(self) -> str:
        def fmt(v):
            return None if v is None else f"{v:.17g}"

        return json.dumps(
            {
                "gamma": self.gamma,
                "d": self.d,
                "p": self.p,
                "q": self.q,
                "lambda": fmt(self.lam),
                "ratio": fmt(self.ratio),
                "deficit": fmt(self.deficit),
                "branch": self.branch,
                "distance": fmt(self.distance),
                "matched_a": fmt(self.matched_a),
                "matched_b": fmt(self.matched_b),
                "empirical_c": fmt(self.empirical_c),
                "transfer_distance": fmt(self.transfer_distance),
                "transfer_ratio": fmt(self.transfer_ratio),
                "trans_lhs": fmt(self.trans_lhs),
                "trans_rhs": fmt(self.trans_rhs),
            }
        )


def stability_report(V: GridFunction, gamma: float, d: int, gs: GroundState) -> StabilityReport:
    """Assemble deficit, distance and the stability ratios for V.

    On the high branch (p >= 2, which includes the crossover p = 2) the
    report also carries the L^p transfer distance, its non-quadratic
    exponent diagnostic deficit / (C * t^(2 gamma + d - 2)), and both
    sides of the comparison

        p^-1 (||V_- - W_-||_p / 2)^(p-1)
            <= ||V_-^(2/(q-2)) - W_-^(2/(q-2))||_(q/2)

    at the p-norm-matched member W (valid exactly when the p-norms agree).
    """
    exps, vneg = _attractive_part(V, gamma, d, gs)
    lam, ratio = _lambda_ratio(V, vneg, exps)
    dfc = gs.C_prime - ratio
    v0 = _base_profile(gs)
    dist, a, b = _branch_distance(vneg, exps, gs, exps.p > 2.0, v0)
    branch = "low" if exps.p <= 2.0 else "high"
    emp = None
    if dist >= DISTANCE_FLOOR:
        emp = dfc / (gs.C_prime * dist**2)

    transfer = transfer_ratio = trans_lhs = trans_rhs = None
    if exps.p >= 2.0:
        # at p = 2 the power map is the identity, so the branch scan is the L^p scan
        transfer, ap, bp = (
            (dist, a, b) if exps.p == 2.0 else _branch_distance(vneg, exps, gs, False, v0)
        )
        if transfer >= DISTANCE_FLOOR:
            transfer_ratio = dfc / (gs.C_prime * transfer ** (2.0 * gamma + d - 2.0))
        # both sides of the transfer comparison at the p-matched member
        w_vals = _family_neg(gs, V.grid, bp, ap, v0)
        weights = V.grid.quad_weights
        lp_diff = _distance_objective(vneg.values, w_vals, weights, exps, False, 1.0)
        trans_lhs = (1.0 / exps.p) * (lp_diff / 2.0) ** (exps.p - 1.0)
        trans_rhs = _distance_objective(vneg.values, w_vals, weights, exps, True, 1.0)

    return StabilityReport(
        gamma=gamma,
        d=d,
        p=exps.p,
        q=exps.q,
        lam=lam,
        ratio=ratio,
        deficit=dfc,
        branch=branch,
        distance=dist,
        matched_a=a,
        matched_b=b,
        empirical_c=emp,
        transfer_distance=transfer,
        transfer_ratio=transfer_ratio,
        trans_lhs=trans_lhs,
        trans_rhs=trans_rhs,
    )


# ---------------------------------------------------------------------------
# deficit decomposition
# ---------------------------------------------------------------------------


def deficit_decomposition(
    V: GridFunction, psi: GridFunction, gamma: float, d: int, gs: GroundState
):
    """Split the deficit of V into its two nonnegative mechanisms.

    With Vt = -V_- (positive parts never help the bound), psi the unit-L2
    ground state of -Lap + Vt, and the canonical scale
    b = (int V_-^p)^(-1/(2p-d)), returns

        E-part = b^2 T - b^(d(q-2)/q) ||psi||_q^2 + C'       (energy above
                 the minimum for the rescaled psi)
        H-part = b^(d(q-2)/q) ||psi||_q^2 - b^2 int V_- psi^2  (the Hoelder
                 gap between V_- and the duality partner of psi)

    Both are >= 0 up to discretization and their sum equals the deficit
    exactly whenever lambda <= 0, since E-part + H-part = b^2 lambda + C'
    and b^2 = (int V_-^p)^(-1/gamma).
    """
    exps, vneg = _attractive_part(V, gamma, d, gs)
    w = V.grid.quad_weights
    nrm = float(np.sqrt(w @ psi.values**2))
    if abs(nrm - 1.0) > 1e-8:
        raise PreconditionError(f"psi must be unit-L2 (norm {nrm!r})")
    vt = -vneg.values
    T = gradient_squared_integral(psi)
    pot = float(w @ (vt * psi.values**2))
    lam = T + pot
    # psi must actually be the ground state of -Lap + Vt
    ep = lowest_eigenpair(GridFunction(V.grid, vt), 0)
    scale = max(1.0, abs(ep.lam))
    if abs(ep.lam - lam) > RAYLEIGH_RESIDUAL_CAP * scale:
        raise PreconditionError(
            f"psi is not the ground state of -Lap - V_- "
            f"(Rayleigh {lam!r} vs eigenvalue {ep.lam!r})"
        )
    p, q = exps.p, exps.q
    b = norm_lp(vneg, p) ** (-p / (2.0 * p - d))
    nq2 = norm_lp(psi, q) ** 2
    mid = b ** (d * (q - 2.0) / q) * nq2
    e_part = b**2 * T - mid + gs.C_prime
    h_part = mid - b**2 * (-pot)
    return float(e_part), float(h_part)


# ---------------------------------------------------------------------------
# sweep corpora
# ---------------------------------------------------------------------------


def line_sweep_corpus(grid: Grid):
    """60 one-dimensional test potentials for gamma = 3/2 (p = 2).

    Four families of 15: depth-scaled and width-scaled sech^2 wells,
    cosine-modulated wells, and symmetric two-bump wells.  Returns a list
    of (family, parameter, GridFunction).  The parameter ranges skip the
    exact optimizers (depth 1, width 1): at finite h those sit a few 1e-6
    *below* the sharp constant, which would trip the sign contracts the
    sweep asserts for genuinely suboptimal potentials.
    """
    if grid.kind != "line":
        raise PreconditionError("line_sweep_corpus needs a line grid")
    x = grid.nodes
    sech2 = 1.0 / np.cosh(x) ** 2
    out = []
    for s in np.linspace(0.45, 1.85, 15):
        out.append(("depth", float(s), GridFunction(grid, -2.0 * s * sech2)))
    for wdt in np.linspace(0.5, 2.0, 15):
        out.append(
            ("width", float(wdt), GridFunction(grid, -2.0 / np.cosh(x / wdt) ** 2))
        )
    for eps in np.linspace(0.05, 0.4, 15):
        out.append(
            ("cosine", float(eps), GridFunction(grid, -2.0 * sech2 * (1.0 + eps * np.cos(x))))
        )
    for sep in np.linspace(0.4, 3.2, 15):
        two = 1.0 / np.cosh(x - sep / 2.0) ** 2 + 1.0 / np.cosh(x + sep / 2.0) ** 2
        out.append(("twobump", float(sep), GridFunction(grid, -1.2 * two)))
    return out


def radial_sweep_corpus(grid: Grid, gs: GroundState):
    """Radial test potentials around the optimal profile (gamma = 1, d = 3).

    Depth- and modulation-perturbed members of the optimal family; twelve
    potentials deep enough to keep a bound state.
    """
    if grid.kind != "radial":
        raise PreconditionError("radial_sweep_corpus needs a radial grid")
    r = grid.nodes
    base = _family_neg(gs, grid, 1.0, 0.0)
    out = []
    for s in np.linspace(0.8, 1.6, 6):
        out.append(("rdepth", float(s), GridFunction(grid, -s * base)))
    for eps in np.linspace(0.05, 0.3, 6):
        mod = 1.0 + eps * np.cos(2.0 * math.pi * r / (0.5 * grid.extent))
        out.append(("rcosine", float(eps), GridFunction(grid, -1.2 * base * mod)))
    return out


@dataclass(frozen=True)
class SweepResult:
    gamma: float
    d: int
    rows: list  # (family, parameter, StabilityReport)

    @property
    def min_empirical_c(self) -> float:
        cs = [rep.empirical_c for _, _, rep in self.rows if rep.empirical_c is not None]
        return float(min(cs)) if cs else float("nan")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["family", "parameter", "lambda", "ratio", "deficit", "distance", "empirical_c"]
        )
        for fam, par, rep in self.rows:
            writer.writerow(
                [
                    fam,
                    f"{par:.17g}",
                    f"{rep.lam:.17g}",
                    f"{rep.ratio:.17g}",
                    f"{rep.deficit:.17g}",
                    f"{rep.distance:.17g}",
                    "" if rep.empirical_c is None else f"{rep.empirical_c:.17g}",
                ]
            )
        return buf.getvalue()

    def summary_json(self) -> str:
        branch = self.rows[0][2].branch if self.rows else None
        return json.dumps(
            {
                "gamma": self.gamma,
                "d": self.d,
                "branch": branch,
                "corpus_size": len(self.rows),
                "min_empirical_c": f"{self.min_empirical_c:.17g}",
            }
        )


def run_sweep(corpus, gamma: float, d: int, gs: GroundState) -> SweepResult:
    """stability_report over a corpus, in corpus order."""
    rows = [(fam, par, stability_report(V, gamma, d, gs)) for fam, par, V in corpus]
    return SweepResult(gamma=gamma, d=d, rows=rows)
