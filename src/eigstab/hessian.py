"""Second variation of the profile minimization at Q.

The linearization

    H = -Lap - (q-1) ||Q||_q^(2-q) Q^(q-2) - E
        + (q-2) ||Q||_q^(2-2q) |Q^(q-1)><Q^(q-1)|

is nonnegative with kernel spanned by Q and the d partial derivatives of
Q.  Being rotation invariant it splits into angular-momentum channels
(parity sectors in d = 1): the rank-one projector acts only in the
radial channel ell = 0, the derivative zero modes sit in ell = 1, and
every channel ell >= 2 is strictly positive.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import PreconditionError
from .grid import (
    GridFunction,
    _Tridiag,
    exact,
    gradient_squared_integral,
    h1_distance,
    norm_l2,
    radial_derivative,
    symmetric_tridiagonal,
)
from .groundstate import GroundState, _second_variation, gns_energy, optimal_potential
from .measure import _dot
from .spectral import _residual, _tol_eff, smallest_eigenpairs

#: near-zero eigenvalue classification, relative to the physical scale
#: max |Veff| of the channel (not the grid-dependent operator norm, which
#: would drown the spectral gap for fine grids)
KERNEL_TOL_FACTOR = 1e-4

#: lowest eigenpairs computed per channel
CHANNEL_PAIRS = 5


@dataclass(frozen=True)
class HessianChannel:
    """One angular-momentum (or parity) block of the linearization."""

    ell: int
    diag: np.ndarray = field(repr=False)     # symmetrized tridiagonal
    off: np.ndarray = field(repr=False)
    rank1: tuple | None = field(repr=False)  # (rho, u) in symmetrized coords
    lowest_eigs: np.ndarray
    eigvecs: np.ndarray = field(repr=False)  # columns, symmetrized coords
    tol_kernel: float

    @property
    def gap(self) -> float:
        """Smallest eigenvalue above the near-zero group."""
        above = self.lowest_eigs[self.lowest_eigs > self.tol_kernel]
        return float(above[0]) if above.size else float("nan")

    def near_zero(self) -> np.ndarray:
        return self.lowest_eigs[np.abs(self.lowest_eigs) <= self.tol_kernel]

    def quadratic_form(self, f: GridFunction) -> float:
        w = f.grid.quad_weights
        v = np.sqrt(w) * f.values
        return _Tridiag(self.diag, self.off, rank1=self.rank1).quadratic_form(v)


def build_channel(gs: GroundState, ell: int) -> HessianChannel:
    """Assemble channel ell of H at gs and compute its CHANNEL_PAIRS lowest
    eigenpairs; gs must pass solve_ground_state's gate, _tol_eff of
    A = -Lap + optimal_potential(gs), both with its stored el_residual and
    with ||A sqrt(w) Q - E sqrt(w) Q|| measured on A."""
    A = _Tridiag(*symmetric_tridiagonal(gs.grid, 0, optimal_potential(gs).values))
    tol_eff = _tol_eff(A)
    measured = _residual(A, gs.E, np.sqrt(gs.grid.quad_weights) * gs.Q.values)
    if not (gs.el_residual <= tol_eff and measured <= tol_eff):
        raise PreconditionError(
            f"profile residual {gs.el_residual:.3e} (stored), {measured:.3e} (measured) "
            f"exceeds {tol_eff:.3e}; re-solve on a coarser or cleaner grid"
        )
    diag, off, rank1, Veff = _second_variation(gs.grid, gs.q, gs.Q.values, gs.norm_q, gs.E, ell)
    eigs, vecs, _, _ = smallest_eigenpairs(diag, off, k=CHANNEL_PAIRS, rank1=rank1)
    scale = float(np.abs(Veff).max())
    return HessianChannel(
        ell=ell,
        diag=diag,
        off=off,
        rank1=rank1,
        lowest_eigs=eigs,
        eigvecs=vecs,
        tol_kernel=KERNEL_TOL_FACTOR * scale,
    )


@dataclass(frozen=True)
class ChannelSummary:
    ell: int
    eigs: list
    overlap: float | None    # |<v, reference>| for the near-zero vector
    n_near_zero: int
    multiplicity: int        # spherical-harmonic degeneracy of the channel


@dataclass(frozen=True)
class KernelReport:
    channels: list
    kernel_dim: int
    anomalies: list
    empirical_gap: float

    def to_json(self) -> str:
        """The fields in order, each channel a dict of its own fields."""
        return json.dumps(exact(asdict(self)))


def _channel_multiplicity(ell: int, d: int) -> int:
    if d == 1:
        return 1
    if ell == 0:
        return 1
    if ell == 1:
        return d
    # dimension of degree-ell spherical harmonics in d variables
    from math import comb

    return comb(ell + d - 1, ell) - comb(ell + d - 3, ell - 2)


def kernel_report(gs: GroundState) -> KernelReport:
    """Channel-wise lowest eigenvalues with kernel identification.

    Expects exactly one near-zero mode in ell = 0 (overlapping Q), one in
    ell = 1 (overlapping the radial derivative Q'), and none for
    ell >= 2.  Deviations are recorded as anomalies, not raised.
    """
    grid = gs.grid
    d = gs.d
    w = grid.quad_weights
    sq = np.sqrt(w)
    refs = {
        0: gs.Q.values,
        1: radial_derivative(gs.Q).values,
    }
    ells = [0, 1] if d == 1 else [0, 1, 2]
    channels = []
    anomalies = []
    kernel_dim = 0
    gaps = []
    for ell in ells:
        ch = build_channel(gs, ell)
        nz = ch.near_zero()
        overlap = None
        if ell in refs and nz.size:
            ref = sq * refs[ell]
            ref = ref / np.sqrt(_dot(ref, ref))
            idx = int(np.argmin(np.abs(ch.lowest_eigs)))
            overlap = float(abs(_dot(ch.eigvecs[:, idx], ref)))
        expected = 1 if ell in (0, 1) else 0
        if nz.size != expected:
            anomalies.append(
                f"channel ell={ell}: {nz.size} near-zero eigenvalues, "
                f"expected {expected} (tol {ch.tol_kernel:.3e})"
            )
        kernel_dim += nz.size * _channel_multiplicity(ell, d)
        if np.isfinite(ch.gap):
            gaps.append(ch.gap)
        channels.append(
            ChannelSummary(
                ell=ell,
                eigs=[float(e) for e in ch.lowest_eigs],
                overlap=overlap,
                n_near_zero=int(nz.size),
                multiplicity=_channel_multiplicity(ell, d),
            )
        )
    return KernelReport(
        channels=channels,
        kernel_dim=kernel_dim,
        anomalies=anomalies,
        empirical_gap=float(min(gaps)) if gaps else float("nan"),
    )


@dataclass(frozen=True)
class StabilityProbe:
    deficit: float           # energy above the minimum at psi_t
    distance_sq: float       # H1 distance^2 to the nearest +-Q
    second_difference: float # [E(t) + E(-t) - 2 E(0)] / t^2


def local_stability_probe(
    gs: GroundState, direction: GridFunction, t: float
) -> StabilityProbe:
    """Probe the energy landscape along Q + t * direction.

    ``direction`` must be H1-normalized on gs's grid.  Radial grids carry
    centered profiles only, so the nearest optimizer is +-Q itself.
    """
    if not (0.0 < t <= 0.1):
        raise PreconditionError(f"t must lie in (0, 0.1], got {t}")
    h1 = np.sqrt(
        norm_l2(direction) ** 2 + gradient_squared_integral(direction)
    )
    if abs(h1 - 1.0) > 1e-6:
        raise PreconditionError(f"direction must be H1-normalized (norm {h1!r})")

    def energy_at(s):
        vals = gs.Q.values + s * direction.values
        vals = vals / np.sqrt(_dot(gs.grid.quad_weights, vals**2))
        return gns_energy(GridFunction(gs.grid, vals), gs.q), vals

    e_plus, vals = energy_at(t)
    e_minus, _ = energy_at(-t)
    psi_t = GridFunction(gs.grid, vals)
    deficit = e_plus + gs.C_prime
    dist = min(h1_distance(psi_t, gs.Q), h1_distance(psi_t, -1.0 * gs.Q))
    second = (e_plus + e_minus - 2.0 * gs.E) / t**2
    return StabilityProbe(
        deficit=float(deficit),
        distance_sq=float(dist**2),
        second_difference=float(second),
    )
