"""Eigenvalue deficit, distance to the optimal-potential manifold, and
stability ratios.

The manifold M consists of the potentials W(x) = -b^2 V0(b(x-a)) with
V0 = (Q/||Q||_q)^(q-2), which saturate the sharp bound

    |lambda(V)| <= C (int V_-^p)^(1/gamma),        p = gamma + d/2.

``deficit`` measures how far a given V is from saturation;
``distance_to_manifold`` measures how far V_- is from the family in the
branch-appropriate norm.  One function, ``_branch_distance``, owns both
parameters: the scale b by norm matching, in closed form since the unit
member has norm 1, and the shift a by a ranked lattice scan and a Brent
refinement seeded from the scan's own sums.
``stability_report`` combines the two into the empirical stability ratio
deficit / (C * distance^2).  All quotients are invariant under
V -> b^2 V(b x) and translations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import (
    DegenerateInputError,
    PreconditionError,
)
from .grid import (
    Grid,
    GridFunction,
    csv_text,
    exact,
    gradient_squared_integral,
    norm_lp,
)
from .groundstate import (
    Exponents,
    GroundState,
    _family_neg,
    _profile_exponents,
    optimal_potential,
)
from .measure import _dot, weighted_norm
from .spectral import lambda_of_potential, lowest_eigenpair

#: distances below this leave empirical_c undefined (division by ~0)
DISTANCE_FLOOR = 1e-6

#: the line-grid shift scan ranks every SCAN_STRIDE-th node shift, SCAN_BLOCK
#: shifts at a time, then Brent refines the best node near it to SHIFT_XATOL grid spacings
SCAN_STRIDE = 4
SCAN_BLOCK = 16
SHIFT_XATOL = 1e-6
#: the rcosine modulation period of the radial corpus, fixed, not a share of the extent
RCOSINE_PERIOD = 125.0


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
    lam = lambda_of_potential(V)
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


def _window_sums(u, lattice, weights, pnorm: float, stride: int) -> np.ndarray:
    """sum_i w_i |u_i - l_(s+i)|^pnorm at every stride-th node shift j, whose
    window starts at s = n - 1 - j.  At pnorm = 2 that is sum w u^2 -
    2 corr(w u, l)(s) + corr(w, l^2)(s): one FFT correlation, padded to a power
    of two >= 2n - 1 so nothing wraps.  Other exponents sum SCAN_BLOCK rows at a time."""
    n = len(u)
    if pnorm == 2.0:
        size = 1 << (2 * n - 2).bit_length()
        lat = np.fft.rfft([lattice, lattice**2], size)
        wts = np.fft.rfft([weights * u, weights], size).conj()
        corr = np.fft.irfft(lat[1] * wts[1] - 2.0 * lat[0] * wts[0], size)
        return (_dot(weights, u**2) + corr)[n - 1 :: -stride]
    rows = sliding_window_view(lattice, n)[n - 1 :: -stride]
    sums = np.empty(len(rows))
    buf = np.empty((SCAN_BLOCK, n))
    for s in range(0, len(rows), SCAN_BLOCK):
        block = rows[s : s + SCAN_BLOCK]
        out = np.subtract(u, block, out=buf[: len(block)])
        np.abs(out, out=out)
        np.power(out, pnorm, out=out)
        sums[s : s + len(block)] = _dot(out, weights)
    return sums


def _brent(f, seeds, xatol: float) -> float:
    """The minimizer of f by Brent's bounded method (Brent 1973, ch. 5; scipy's stopping
    rule) on the span of three (point, value) seeds, so the first step can be parabolic."""
    (x, fx), (w, fw), (v, fv) = sorted(seeds, key=lambda t: t[1])
    lo, hi = min(x, w, v), max(x, w, v)
    d = e = hi - lo
    while True:
        xm, tol1 = 0.5 * (lo + hi), math.sqrt(2.2e-16) * abs(x) + xatol / 3.0
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (hi - lo):
            return x
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = ((x - v) * q - (x - w) * r) * (-1.0 if q > r else 1.0), 2.0 * abs(q - r)
        if abs(e) > tol1 and abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
            e, d = d, p / q  # parabolic
            if min(x + d - lo, hi - x - d) < 2.0 * tol1:
                d = math.copysign(tol1, xm - x)
        else:
            e = (lo if x >= xm else hi) - x
            d = 0.5 * (3.0 - math.sqrt(5.0)) * e  # golden section
        u = x + math.copysign(max(abs(d), tol1), d)
        fu = f(u)
        if fu <= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu <= fw:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv:
                v, fv = u, fu


def _branch_distance(vneg: GridFunction, exps: Exponents, gs: GroundState, power: bool):
    """(distance, a, b, W_-) in the low or high (power) branch, W_- the nodal
    values of the member at (b, a); see distance_to_manifold.

    The branch maps V_- to u = V_-^m in L^r (m = 1, r = p low; m = 2/(q-2),
    r = q/2 high).  The scale b matches ||W_-^m||_r to ||u||_r in closed form:
    ||(b^2 V0(b .))^m||_r = b^(2m - d/r) ||V0^m||_r, and ||V0^m||_r = 1
    because (q-2) p = q.  Radial grids are centered by construction, so
    a = 0 there.  On line grids every node shift of W_- is a window of one
    lattice sample (W_-(x_i - x_j) = b^2 V0_-(b h |i - j|)).  The window sums
    rank the shifts; Brent refines the best node j near the strided winner from
    j's direct row and its neighbours' sums (docs/derivations.md §5), on the
    unrooted sum sum w |u - W_-^m|^r over exact members.  The distance is the
    member at its result, never above j's direct sum, and that member is
    returned with it.
    """
    grid, weights = vneg.grid, vneg.grid.quad_weights
    u, r = _branch_map(vneg.values, exps, power)
    denom = weighted_norm(u, weights, r)
    p, q, d = exps.p, exps.q, exps.d
    expo = 1.0 / (4.0 / (q - 2.0) - 2.0 * d / q) if power else p / (2.0 * p - d)
    b = denom**expo
    members = {}  # shift a -> (W_-, |u - W_-^m|) of each member evaluated

    def gap(a):
        if a not in members:
            w = _family_neg(gs, grid, b, a)
            members[a] = w, np.abs(u - _branch_map(w, exps, power)[0])
        return members[a][1]

    a = 0.0  # radial grids are centered
    if grid.kind == "line":
        n, h, fine = grid.n, grid.spacing, r == 2.0
        # l_k for k >= 0, mirrored: b h |k| is the same float on both sides
        half, _ = _branch_map(b**2 * gs._v0neg(b * h * np.arange(n)), exps, power)
        lattice = np.concatenate((half[:0:-1], half))
        sums = _window_sums(u, lattice, weights, r, 1 if fine else SCAN_STRIDE)
        k = SCAN_STRIDE * int(np.argmin(sums[::SCAN_STRIDE] if fine else sums))
        # nodes lo .. hi - 1: the bracket k +- SCAN_STRIDE, kept off the grid's ends, and one more each side
        lo, hi = max(k - SCAN_STRIDE, 1) - 1, min(k + SCAN_STRIDE, n - 2) + 2
        rows = sliding_window_view(lattice, n)[::-1][lo:hi]
        f = sums[lo:hi] if fine else _dot(np.abs(u - rows) ** r, weights)
        i = 1 + int(np.argmin(f[1:-1]))
        f[i] = _dot(np.abs(u - rows[i]) ** r, weights)  # direct, not the FFT's noise
        seeds = [(float(grid.nodes[lo + t]), float(f[t])) for t in (i - 1, i, i + 1)]
        a = _brent(lambda s: _dot(weights, gap(s) ** r), seeds, SHIFT_XATOL * h)
    return weighted_norm(gap(a), weights, r) / denom, a, b, members[a][0]


def distance_to_manifold(V: GridFunction, gamma: float, d: int, gs: GroundState):
    """Normalized distance from V_- to the manifold, with matched (a, b).

    Low branch (p <= 2): inf_a ||V_- - W_-||_p / ||V_-||_p with b fixed by
    ||W_-||_p = ||V_-||_p.  High branch (p >= 2): the same for the
    (2/(q-2))-power map in L^(q/2).  Returns (distance, a, b).
    """
    exps, vneg = _attractive_part(V, gamma, d, gs)
    return _branch_distance(vneg, exps, gs, exps.p > 2.0)[:3]


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
    branch: str              # "low" (p <= 2) or "high" (p > 2)
    distance: float
    matched_a: float
    matched_b: float
    empirical_c: float | None
    transfer_distance: float | None  # L^p distance, populated when p >= 2 (p = 2 is "low")
    transfer_ratio: float | None     # deficit / (C * transfer^(2 gamma + d - 2))
    trans_lhs: float | None          # p^-1 (||V_- - W_-||_p / 2)^(p-1)
    trans_rhs: float | None          # power-map distance at the p-matched W

    def to_json(self) -> str:
        """The fields in order, ``lam`` as "lambda"; the settings gamma, d,
        p and q stay numbers."""
        return json.dumps({
            ("lambda" if k == "lam" else k): v if k in ("gamma", "d", "p", "q") else exact(v)
            for k, v in asdict(self).items()
        })


def stability_report(V: GridFunction, gamma: float, d: int, gs: GroundState) -> StabilityReport:
    """Assemble deficit, distance and the stability ratios for V.

    When p >= 2 (the high branch, and the crossover p = 2, labelled "low") the
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
    dist, a, b, w_vals = _branch_distance(vneg, exps, gs, exps.p > 2.0)
    branch = "low" if exps.p <= 2.0 else "high"
    emp = None
    if dist >= DISTANCE_FLOOR:
        emp = dfc / (gs.C_prime * dist**2)

    transfer = transfer_ratio = trans_lhs = trans_rhs = None
    if exps.p >= 2.0:
        # at p = 2 the power map is the identity, so the branch scan is the L^p scan
        transfer, _, _, w_vals = (
            (dist, a, b, w_vals) if exps.p == 2.0 else _branch_distance(vneg, exps, gs, False)
        )
        if transfer >= DISTANCE_FLOOR:
            transfer_ratio = dfc / (gs.C_prime * transfer ** (2.0 * gamma + d - 2.0))
        # both sides of the transfer comparison at the p-matched member, as its scan evaluated it
        weights = V.grid.quad_weights
        lp_diff = weighted_norm(np.abs(vneg.values - w_vals), weights, exps.p)
        trans_lhs = (1.0 / exps.p) * (lp_diff / 2.0) ** (exps.p - 1.0)
        u, r = _branch_map(vneg.values, exps, True)
        trans_rhs = weighted_norm(np.abs(u - _branch_map(w_vals, exps, True)[0]), weights, r)

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


def deficit_decomposition(V: GridFunction, gamma: float, d: int, gs: GroundState):
    """Split the deficit of -V_- into its two nonnegative mechanisms.

    psi is solved here: the unit-L2 ground state of -Lap - V_- (positive
    parts never help the bound).  With T = int |grad psi|^2 and the
    canonical scale b = (int V_-^p)^(-1/(2p-d)), returns

        E-part = b^2 T - b^(d(q-2)/q) ||psi||_q^2 + C'       (energy above
                 the minimum for the rescaled psi)
        H-part = b^(d(q-2)/q) ||psi||_q^2 - b^2 int V_- psi^2  (the Hoelder
                 gap between V_- and the duality partner of psi)

    Both are >= 0 up to discretization.  E-part + H-part = b^2 lambda + C'
    with lambda the eigenvalue of -V_- and b^2 = (int V_-^p)^(-1/gamma), so
    the sum is the deficit of -V_- whenever lambda <= 0; that is
    ``deficit(V)`` when V <= 0.
    """
    exps, vneg = _attractive_part(V, gamma, d, gs)
    psi = lowest_eigenpair(GridFunction(V.grid, -vneg.values)).psi
    T = gradient_squared_integral(psi)
    attraction = float(_dot(V.grid.quad_weights, vneg.values * psi.values**2))
    p, q = exps.p, exps.q
    b = norm_lp(vneg, p) ** (-p / (2.0 * p - d))
    mid = b ** (d * (q - 2.0) / q) * norm_lp(psi, q) ** 2
    e_part = b**2 * T - mid + gs.C_prime
    h_part = mid - b**2 * attraction
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
    W = optimal_potential(gs, grid=grid).values
    out = []
    for s in np.linspace(0.8, 1.6, 6):
        out.append(("rdepth", float(s), GridFunction(grid, s * W)))
    for eps in np.linspace(0.05, 0.3, 6):
        mod = 1.0 + eps * np.cos(2.0 * math.pi * r / RCOSINE_PERIOD)
        out.append(("rcosine", float(eps), GridFunction(grid, 1.2 * W * mod)))
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
        return csv_text(
            ["family", "parameter", "lambda", "ratio", "deficit", "distance", "empirical_c"],
            (
                [fam, par, rep.lam, rep.ratio, rep.deficit, rep.distance, rep.empirical_c]
                for fam, par, rep in self.rows
            ),
        )

    def summary_json(self) -> str:
        branch = self.rows[0][2].branch if self.rows else None
        return json.dumps(
            {
                "gamma": self.gamma,
                "d": self.d,
                "branch": branch,
                "corpus_size": len(self.rows),
                "min_empirical_c": exact(self.min_empirical_c),
            }
        )


def run_sweep(corpus, gamma: float, d: int, gs: GroundState) -> SweepResult:
    """stability_report over a corpus, in corpus order."""
    rows = [(fam, par, stability_report(V, gamma, d, gs)) for fam, par, V in corpus]
    return SweepResult(gamma=gamma, d=d, rows=rows)
