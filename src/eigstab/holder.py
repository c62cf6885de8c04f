"""Hoelder's inequality with remainder and related convexity bounds.

The central objects are the duality map D_p, the gap functional

    H[psi, U] = ||psi||_q^2 - int U |psi|^2 dmu,

which is nonnegative whenever U >= 0 has unit L^(q/(q-2)) norm, and
quantitative lower bounds for the Hoelder deficit 1 - |int f g| in terms
of distances between f (or g) and the dual vector of the other factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateInputError,
    InvalidExponentError,
    PreconditionError,
)
from .measure import (
    MeasFunction,
    WeightedMeasure,
    _check_same_measure,
    _dot,
    _dual_rows,
    conjugate_exponent,
    lp_norm_rows,
    pairing_rows,
    real_rows,
    require_finite,
    scalar_pow,
)
from .sampling import WINDOW, smooth_rows, unit_rows

#: absolute tolerance on the unit-norm preconditions
UNIT_NORM_TOL = 1e-10

#: pairings below this magnitude get theta = 0
PHASE_TOL = 1e-14


def _unit_norm(rows, weights, p: float, name: str):
    """L^p norm of each row, after checking that it is 1 within UNIT_NORM_TOL."""
    nrm = lp_norm_rows(rows, weights, p)
    off = np.abs(nrm - 1.0) > UNIT_NORM_TOL
    if off.any():
        raise PreconditionError(
            f"{name} must be a unit vector in L^{p:g} (norm = {float(nrm[off][0])!r})"
        )
    return nrm


def _require_nonzero(nf, ng, name: str) -> None:
    if (nf == 0.0).any() or (ng == 0.0).any():
        raise DegenerateInputError(f"{name} needs nonzero inputs")


def _one_row(*fs: MeasFunction):
    """Values of same-measure functions as one-row arrays, and the weights."""
    for other in fs[1:]:
        _check_same_measure(fs[0], other)
    return (*(f.values[None] for f in fs), fs[0].measure.weights)


def aligning_phase_rows(z):
    """theta in [0, 2*pi) with e^(i*theta) * z >= 0, elementwise; 0 for tiny |z|."""
    return np.where(np.abs(z) < PHASE_TOL, 0.0, np.mod(-np.angle(z), 2.0 * np.pi))


def aligning_phase(z: complex) -> float:
    """theta in [0, 2*pi) with e^(i*theta) * z >= 0; 0 for tiny |z|."""
    return float(aligning_phase_rows(np.asarray(z)))


@dataclass(frozen=True)
class HolderReport:
    """Deficit of Hoelder's inequality for a unit pair (f, g) and the two
    quantitative lower bounds that must not exceed it."""

    lhs: float
    deficit: float
    bound_main1: float
    bound_main2: float
    theta: float


def holder_rows(f_rows, g_rows, weights, p: float):
    """Row-wise :func:`holder_report`: arrays (lhs, deficit, bound_main1,
    bound_main2, theta)."""
    if p < 2.0:
        raise InvalidExponentError(f"holder_report requires p >= 2, got {p}")
    pc = conjugate_exponent(p)
    nf = _unit_norm(f_rows, weights, p, "f")
    ng = _unit_norm(g_rows, weights, pc, "g")
    df, dg = _dual_rows(f_rows, weights, p, nf), _dual_rows(g_rows, weights, pc, ng)
    return _holder_bounds(f_rows, g_rows, weights, p, df, dg)


def _holder_bounds(f_rows, g_rows, weights, p: float, df, dg):
    """:func:`holder_rows` past its checks, given the dual rows D_p(f) and
    D_p'(g)."""
    pc = conjugate_exponent(p)
    z = pairing_rows(f_rows, g_rows, weights)
    theta = aligning_phase_rows(z)
    phase = np.exp(1j * theta)[:, None]
    lhs = np.hypot(z.real, z.imag)  # abs(complex), bit for bit
    deficit = 1.0 - lhs

    diff = require_finite(df - phase * g_rows)
    bound_main1 = (pc - 1.0) / 4.0 * scalar_pow(lp_norm_rows(diff, weights, pc), 2.0)

    diff = require_finite(phase * f_rows - dg)
    bound_main2 = scalar_pow(lp_norm_rows(diff, weights, p), p) / (p * 2.0 ** (p - 1.0))
    return lhs, deficit, bound_main1, bound_main2, theta


def holder_report(f: MeasFunction, g: MeasFunction, p: float) -> HolderReport:
    """Evaluate both remainder bounds for unit vectors f in L^p, g in L^p'.

    bound_main1 = ((p'-1)/4) ||D_p(f) - e^(i theta) g||_{p'}^2
    bound_main2 = (1/(p 2^(p-1))) ||e^(i theta) f - D_{p'}(g)||_p^p

    Both are guaranteed lower bounds for the deficit 1 - |int f g| when
    p >= 2.
    """
    row = holder_rows(*_one_row(f, g), p)
    return HolderReport(*(float(x[0]) for x in row))


def _gap_rows(psi_rows, u_rows, weights, q: float):
    """(H, ||psi||_q) of each row pair, after the admissibility checks."""
    if q <= 2.0:
        raise InvalidExponentError(f"need q > 2, got {q}")
    if not real_rows(u_rows).all():
        raise PreconditionError("U must be real-valued")
    uvals = np.real(u_rows)
    if (uvals < 0.0).any():
        raise PreconditionError("U must be nonnegative")
    _unit_norm(u_rows, weights, q / (q - 2.0), "U")
    psiq = lp_norm_rows(psi_rows, weights, q)
    if (psiq == 0.0).any():
        raise DegenerateInputError("psi must not be identically zero")
    H = scalar_pow(psiq, 2.0) - _dot(weights * uvals, np.abs(psi_rows) ** 2)
    return H, psiq


def h_functional(psi: MeasFunction, U: MeasFunction, q: float) -> float:
    """||psi||_q^2 - int U |psi|^2, nonnegative for admissible (psi, U)."""
    return float(_gap_rows(*_one_row(psi, U), q)[0][0])


def remainder_rows(psi_rows, u_rows, weights, q: float, boundary_alt: bool = False):
    """Row-wise :func:`remainder_bounds`: arrays (B, H)."""
    H, psiq = _gap_rows(psi_rows, u_rows, weights, q)
    uvals = np.real(u_rows)
    scaled = np.abs(psi_rows) / psiq[:, None]

    if q > 4.0 or (q == 4.0 and not boundary_alt):
        diff = require_finite(scaled ** (q - 2.0) - uvals)
        B = scalar_pow(psiq, 2.0) / (2.0 * (q - 2.0)) \
            * scalar_pow(lp_norm_rows(diff, weights, q / (q - 2.0)), 2.0)
    else:
        diff = require_finite(scaled**2 - uvals ** (2.0 / (q - 2.0)))
        B = (q - 2.0) / 8.0 * scalar_pow(psiq, 2.0) \
            * scalar_pow(lp_norm_rows(diff, weights, q / 2.0), 2.0)
    return B, H


def remainder_bounds(
    psi: MeasFunction, U: MeasFunction, q: float, boundary_alt: bool = False
):
    """Lower bound B for H[psi, U] and the value H itself, as a pair (B, H).

    For q >= 4 the bound compares U against |psi|^(q-2)/||psi||_q^(q-2) in
    L^(q/(q-2)) with constant 1/(2(q-2)); for 2 < q < 4 it compares
    U^(2/(q-2)) against |psi|^2/||psi||_q^2 in L^(q/2) with constant
    (q-2)/8.  At q = 4 both apply; the first is returned unless
    ``boundary_alt`` is set.
    """
    B, H = remainder_rows(*_one_row(psi, U), q, boundary_alt)
    return float(B[0]), float(H[0])


def convexity_rows(u_rows, v_rows, weights, p: float):
    """Row-wise :func:`uniform_convexity_gap`: arrays (gap, lower)."""
    if p <= 1.0:
        raise InvalidExponentError(f"need p > 1, got {p}")
    _unit_norm(u_rows, weights, p, "u")
    _unit_norm(v_rows, weights, p, "v")
    gap = 1.0 - lp_norm_rows(require_finite(0.5 * (u_rows + v_rows)), weights, p)
    dnorm = lp_norm_rows(require_finite(u_rows - v_rows), weights, p)
    if p <= 2.0:
        lower = (p - 1.0) / 8.0 * scalar_pow(dnorm, 2.0)
    else:
        lower = scalar_pow(dnorm, p) / (p * 2.0**p)
    return gap, lower


def uniform_convexity_gap(u: MeasFunction, v: MeasFunction, p: float):
    """Midpoint gap 1 - ||(u+v)/2||_p and its convexity lower bound.

    The bound is ((p-1)/8) ||u-v||_p^2 for 1 < p <= 2 and
    (1/(p 2^p)) ||u-v||_p^p for p >= 2 (at p = 2 the two coincide on the
    relevant scale; the first is used).
    """
    gap, lower = convexity_rows(*_one_row(u, v), p)
    return float(gap[0]), float(lower[0])


def duality_continuity_rows(f_rows, g_rows, weights, p: float):
    """Row-wise :func:`duality_continuity_check`: arrays (lhs, rhs)."""
    if p <= 1.0:
        raise InvalidExponentError(f"need p > 1, got {p}")
    nf, ng = lp_norm_rows(f_rows, weights, p), lp_norm_rows(g_rows, weights, p)
    _require_nonzero(nf, ng, "duality_continuity_check")
    df, dg = _dual_rows(f_rows, weights, p, nf), _dual_rows(g_rows, weights, p, ng)
    return _continuity(f_rows, g_rows, weights, p, nf, ng, df, dg)


def _continuity(f_rows, g_rows, weights, p: float, nf, ng, df, dg):
    """:func:`duality_continuity_rows` past its checks, given the L^p norms
    of the rows and their dual rows."""
    pc = conjugate_exponent(p)
    lhs = lp_norm_rows(require_finite(df - dg), weights, pc)
    t = lp_norm_rows(require_finite(f_rows - g_rows), weights, p) / (nf + ng)
    if p >= 2.0:
        rhs = 4.0 * (p - 1.0) * t
    else:
        rhs = 2.0 * scalar_pow(pc * t, p - 1.0)
    return lhs, rhs


def duality_continuity_check(f: MeasFunction, g: MeasFunction, p: float):
    """Hoelder continuity of D_p: returns (lhs, rhs) with lhs <= rhs.

    lhs = ||D_p(f) - D_p(g)||_{p'};
    rhs = 4 (p-1) t for p >= 2 and 2 (p' t)^(p-1) for 1 < p <= 2,
    where t = ||f-g||_p / (||f||_p + ||g||_p).
    """
    lhs, rhs = duality_continuity_rows(*_one_row(f, g), p)
    return float(lhs[0]), float(rhs[0])


@dataclass(frozen=True)
class PowerComparisonReport:
    """Both sides of the Lipschitz bounds for normalized powers of |f|.

    quad_*: max norm times || |f|^2/||f||_q^2 - |g|^2/||g||_q^2 ||_{q/2}
    versus 4 ||f-g||_q; high_* (only for q >= 4): the (q-2)-power analogue
    with constant 4(q-2).
    """

    quad_lhs: float
    quad_rhs: float
    high_lhs: float | None
    high_rhs: float | None


def power_comparison_rows(f_rows, g_rows, weights, q: float):
    """Row-wise :func:`power_comparison_check`: arrays (quad_lhs, quad_rhs,
    high_lhs, high_rhs), the last two None for q < 4."""
    if q < 2.0:
        raise InvalidExponentError(f"need q >= 2, got {q}")
    nf, ng = lp_norm_rows(f_rows, weights, q), lp_norm_rows(g_rows, weights, q)
    _require_nonzero(nf, ng, "power_comparison_check")
    m = np.maximum(nf, ng)
    sf = np.abs(f_rows) / nf[:, None]
    sg = np.abs(g_rows) / ng[:, None]
    dist = lp_norm_rows(require_finite(f_rows - g_rows), weights, q)
    quad_lhs = m * lp_norm_rows(require_finite(sf**2 - sg**2), weights, q / 2.0)
    quad_rhs = 4.0 * dist
    high_lhs = high_rhs = None
    if q >= 4.0:
        high_diff = require_finite(sf ** (q - 2.0) - sg ** (q - 2.0))
        high_lhs = m * lp_norm_rows(high_diff, weights, q / (q - 2.0))
        high_rhs = 4.0 * (q - 2.0) * dist
    return quad_lhs, quad_rhs, high_lhs, high_rhs


def power_comparison_check(f: MeasFunction, g: MeasFunction, q: float):
    rows = power_comparison_rows(*_one_row(f, g), q)
    return PowerComparisonReport(*(None if x is None else float(x[0]) for x in rows))


# ---------------------------------------------------------------------------
# fuzzer
# ---------------------------------------------------------------------------

#: slack granted to the fuzzed inequalities
FUZZ_TOL = 1e-10

FUZZ_EXPONENTS = (2.0, 2.5, 3.0, 4.0, 6.0)

#: samples drawn and evaluated together; memory grows with it (a traced
#: peak of about 6.2 KiB per sample, 4.8 of them the draw buffer), the
#: per-call overhead shrinks with it
FUZZ_CHUNK = 250

_FUZZ_POINTS = 64
#: smoothed draws per sample: f (2), g (2), u, v, psi (2), U
_DRAWS = 9


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of :func:`fuzz_inequalities`.

    ``first_violation`` describes the failed check of the lowest sample
    index (checks in the order main1, main2, convexity, duality,
    power-quad, power-high, gap functional, remainder); the tightness
    fields are the largest bound-to-quantity ratios seen.
    """

    violations: int
    first_violation: str | None
    tight_holder: float
    tight_convexity: float
    tight_remainder: float


def _max_ratio(num, den, keep) -> float:
    return float(np.max(num[keep] / den[keep], initial=0.0))


def _fuzz_group(raw, p: float, weights):
    """Checks of one exponent group, rows of raw draws (R, 9, 68):
    (violation count, (row, message) of the first violation or None, the
    three tightness maxima).

    The kernels of :func:`holder_rows` and :func:`duality_continuity_rows`
    share ||f||_p and D_p(f), so each is computed once.  The draws are
    smoothed and normalized in three parts, each just before the checks
    that read it, and each array is dropped once no later check reads it:
    the wider the group, the more memory each one holds.
    """
    tol = FUZZ_TOL
    pc = conjugate_exponent(p)
    q = 2.0 * p / (p - 1.0)
    rows = smooth_rows(raw[:, 0:4])
    f = unit_rows(rows[:, 0] + 1j * rows[:, 1], weights, p)
    g = unit_rows(rows[:, 2] + 1j * rows[:, 3], weights, pc)
    del rows
    nf, ng = lp_norm_rows(f, weights, p), lp_norm_rows(g, weights, pc)
    df = _dual_rows(f, weights, p, nf)
    _, deficit, main1, main2, _ = _holder_bounds(
        f, g, weights, p, df, _dual_rows(g, weights, pc, ng)
    )
    quad_lhs, quad_rhs, high_lhs, high_rhs = power_comparison_rows(f, g, weights, q)
    h = g * 0.5 + f * 0.5
    del g
    nh = lp_norm_rows(h, weights, p)
    dlhs, drhs = _continuity(f, h, weights, p, nf, nh, df, _dual_rows(h, weights, p, nh))
    del f, df, h

    rows = smooth_rows(raw[:, 4:6])
    gap, lower = convexity_rows(
        unit_rows(rows[:, 0], weights, p), unit_rows(rows[:, 1], weights, p), weights, p
    )
    rows = smooth_rows(raw[:, 6:9])
    psi = unit_rows(rows[:, 0] + 1j * rows[:, 1], weights, q)
    U = unit_rows(np.abs(rows[:, 2]), weights, p)
    B, H = remainder_rows(psi, U, weights, q)

    def over(label, lhs, rhs):
        return lhs > rhs + tol, lambda r: f"{label} {float(lhs[r])!r} > {float(rhs[r])!r}"

    checks = [
        over(f" p={p:g}: main1", main1, deficit),
        over(f" p={p:g}: main2", main2, deficit),
        over(f" p={p:g}: convexity", lower, gap),
        over(f" p={p:g}: duality", dlhs, drhs),
        over(": power-quad", quad_lhs, quad_rhs),
    ]
    if high_lhs is not None:
        checks.append(over(": power-high", high_lhs, high_rhs))
    checks.append((H < -tol, lambda r: f" q={q:g}: gap functional {float(H[r])!r} < 0"))
    checks.append(over(f" q={q:g}: remainder", B, H))

    masks = np.array([mask for mask, _ in checks])
    first = None
    if masks.any():
        r = int(np.argmax(masks.any(axis=0)))
        first = r, next(text(r) for mask, text in checks if mask[r])
    tight = (
        max(_max_ratio(main1, deficit, deficit > tol), _max_ratio(main2, deficit, deficit > tol)),
        _max_ratio(lower, gap, gap > tol),
        _max_ratio(B, H, H > tol),
    )
    return int(masks.sum()), first, tight


def fuzz_inequalities(samples: int, seed: int, exponents=FUZZ_EXPONENTS) -> FuzzReport:
    """Check every inequality of this module on ``samples`` random unit
    inputs on the uniform probability measure on 64 points.

    Sample i uses the exponent p = exponents[i % len(exponents)] and
    consumes 9 draws of 68 standard normals from ``default_rng(seed)``,
    smoothed to 64 points: f and g (complex, unit in L^p and L^p'), u and
    v (real, unit in L^p), psi (complex, unit in L^q with q = 2p/(p-1)) and
    U (nonnegative, unit in L^p).  Samples are drawn FUZZ_CHUNK at a time
    and each exponent group of a chunk is checked as one array of rows.
    A draw whose norm is at most DRAW_NORM_FLOOR raises
    :class:`DegenerateInputError`; it is never redrawn.
    """
    k = len(exponents)
    chunk = min(max(k, FUZZ_CHUNK // k * k), max(samples, 1))
    weights = WeightedMeasure.uniform_probability(_FUZZ_POINTS).weights
    rng = np.random.default_rng(seed)
    raw = np.empty((chunk, _DRAWS, _FUZZ_POINTS + WINDOW - 1))
    violations = 0
    first = None  # (sample index, message)
    tight = (0.0, 0.0, 0.0)
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        rng.standard_normal(out=raw[:n])
        for j in range(min(k, n)):
            # the samples start + j, start + j + k, ... share exponents[j]
            count, found, group_tight = _fuzz_group(raw[j:n:k], float(exponents[j]), weights)
            violations += count
            tight = tuple(map(max, tight, group_tight))
            if found is not None:
                i = start + j + k * found[0]
                if first is None or i < first[0]:
                    first = i, f"sample {i}{found[1]}"
    return FuzzReport(violations, None if first is None else first[1], *tight)
