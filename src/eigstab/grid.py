"""Staggered 1D and radial grids with volume-weighted quadrature.

Line grids discretize [-L, L] in dimension one; radial grids discretize
[0, L] and carry the surface factor sigma_{d-1} r^(d-1) in their
quadrature weights, so that ``integrate`` approximates the full
d-dimensional integral of a radial function.

Nodes are cell-centered, x_i = left + (i + 1/2) h, so no node sits at the
coordinate singularity r = 0.  The Laplacian is discretized in flux
(divergence) form on the cell edges, which makes it symmetric with
respect to the quadrature inner product.  The outer boundary is
Dirichlet; at r = 0 the edge flux vanishes for the even/ell = 0 closure,
while the odd sector in d = 1 uses an antisymmetric ghost value.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

from .exceptions import DimensionMismatchError, UnsupportedChannelError
from .measure import weighted_norm


def surface_area(d: int) -> float:
    """Area of the unit sphere S^(d-1): 2 pi^(d/2) / Gamma(d/2)."""
    return float(2.0 * np.pi ** (d / 2.0) / gamma_fn(d / 2.0))


@dataclass(frozen=True)
class Grid:
    kind: str          # "line" or "radial"
    dim: int
    extent: float      # L: domain is [-L, L] (line) or [0, L] (radial)
    n: int
    nodes: np.ndarray = field(init=False, repr=False)
    spacing: float = field(init=False)
    quad_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("line", "radial"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n < 16:
            raise ValueError("need at least 16 nodes")
        if not 0.0 < self.extent < np.inf:
            raise ValueError("extent must be positive and finite")
        if self.kind == "line":
            if self.dim != 1:
                raise ValueError("line grids are one-dimensional")
            h = 2.0 * self.extent / self.n
            nodes = -self.extent + (np.arange(self.n) + 0.5) * h
            weights = np.full(self.n, h)
        else:
            if self.dim < 1:
                raise ValueError("radial grids need dim >= 1")
            h = self.extent / self.n
            nodes = (np.arange(self.n) + 0.5) * h
            weights = surface_area(self.dim) * nodes ** (self.dim - 1) * h
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "quad_weights", weights)

    # -- constructors -------------------------------------------------

    @classmethod
    def line(cls, extent: float, n: int) -> "Grid":
        return cls("line", 1, extent, n)

    @classmethod
    def radial(cls, dim: int, extent: float, n: int) -> "Grid":
        return cls("radial", dim, extent, n)

    def function(self, values) -> "GridFunction":
        return GridFunction(self, np.asarray(values, dtype=float))

    def from_callable(self, fn) -> "GridFunction":
        return self.function(fn(self.nodes))

    def zero(self) -> "GridFunction":
        return self.function(np.zeros(self.n))

    def edge_factors(self) -> np.ndarray:
        """r^(d-1) at the n+1 cell edges (1 everywhere on line grids)."""
        if self.kind == "line":
            return np.ones(self.n + 1)
        edges = np.arange(self.n + 1) * self.spacing
        return edges ** (self.dim - 1)

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "extent": self.extent,
            "n": self.n,
        }

    @classmethod
    def from_metadata(cls, meta: dict) -> "Grid":
        return cls(meta["kind"], meta["dim"], meta["extent"], meta["n"])


@dataclass(frozen=True)
class GridFunction:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (self.grid.n,):
            raise DimensionMismatchError(
                f"expected {self.grid.n} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def map(self, fn) -> "GridFunction":
        return GridFunction(self.grid, fn(self.values))

    def __add__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c):
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    # -- serialization ------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["coordinate", "value"])
        for x, v in zip(self.grid.nodes, self.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "grid": self.grid.metadata(),
                "values": [f"{v:.17g}" for v in self.values],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        doc = json.loads(text)
        grid = Grid.from_metadata(doc["grid"])
        return cls(grid, np.array([float(v) for v in doc["values"]]))


def _check_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid is g.grid:
        return
    if f.grid.metadata() != g.grid.metadata():
        raise DimensionMismatchError("grid functions live on different grids")


def integrate(f: GridFunction) -> float:
    """Quadrature sum; equals the R^d integral up to O(h^2)."""
    return float(f.grid.quad_weights @ f.values)


def inner(f: GridFunction, g: GridFunction) -> float:
    _check_same_grid(f, g)
    return float(f.grid.quad_weights @ (f.values * g.values))


def norm_l2(f: GridFunction) -> float:
    return float(np.sqrt(f.grid.quad_weights @ f.values**2))


def norm_lp(f: GridFunction, p: float) -> float:
    return weighted_norm(np.abs(f.values), f.grid.quad_weights, p)


def laplacian_tridiagonal(grid: Grid, ell: int = 0):
    """Tridiagonal nodal matrix (main, upper, lower) of the operator

        f -> -f'' - ((d-1)/r) f' + ell (ell + d - 2) / r^2 f

    in flux form (line grids: plain -f'' with Dirichlet ghosts).  The
    matrix is symmetric under the quadrature inner product:
    w_i A[i, i+1] = w_{i+1} A[i+1, i].
    """
    n, h = grid.n, grid.spacing
    e = grid.edge_factors()
    if grid.kind == "line":
        if ell != 0:
            raise UnsupportedChannelError("line grids only support ell = 0")
        main = np.full(n, 2.0 / h**2)
        off = np.full(n - 1, -1.0 / h**2)
        return main, off, off.copy()

    if ell < 0:
        raise UnsupportedChannelError("ell must be nonnegative")
    r = grid.nodes
    vol = r ** (grid.dim - 1)
    main = (e[:-1] + e[1:]) / (vol * h**2)
    upper = -e[1:-1] / (vol[:-1] * h**2)
    lower = -e[1:-1] / (vol[1:] * h**2)
    # r = 0 closure: for d >= 2 the edge factor vanishes; in d = 1 the
    # even sector reflects (zero flux) and the odd sector antireflects.
    if grid.dim == 1:
        if ell == 0:
            main[0] -= e[0] / (vol[0] * h**2)
        elif ell == 1:
            main[0] += e[0] / (vol[0] * h**2)
        else:
            raise UnsupportedChannelError("d = 1 has only parity sectors 0 and 1")
    cent = ell * (ell + grid.dim - 2)
    if cent != 0:
        main = main + cent / r**2
    return main, upper, lower


def symmetric_tridiagonal(grid: Grid, ell: int = 0, potential=None):
    """Symmetrized tridiagonal (diag, offdiag) of -Lap_ell + potential.

    Works in the sqrt(weight)-rescaled coordinates, where the operator
    is a plain symmetric matrix; eigenvalues are unchanged and vectors
    map back by dividing by sqrt(quad_weights).
    """
    main, upper, lower = laplacian_tridiagonal(grid, ell)
    if potential is not None:
        main = main + np.asarray(potential, dtype=float)
    w = grid.quad_weights
    off = upper * np.sqrt(w[:-1] / w[1:])
    return main, off


def laplacian_apply(f: GridFunction, ell: int = 0) -> GridFunction:
    """Apply the (channel-ell) negative Laplacian to f."""
    main, upper, lower = laplacian_tridiagonal(f.grid, ell)
    v = f.values
    out = main * v
    out[:-1] += upper * v[1:]
    out[1:] += lower * v[:-1]
    return GridFunction(f.grid, out)


def gradient_squared_integral(f: GridFunction) -> float:
    """int |grad f|^2 via edge difference quotients.

    Consistent with the flux Laplacian: equals inner(f, laplacian_apply(f))
    for functions respecting the boundary closures.  Line grids and the
    outer boundary use Dirichlet ghosts; the r = 0 edge contributes
    nothing (even closure).
    """
    grid = f.grid
    h = grid.spacing
    e = grid.edge_factors()
    v = f.values
    d = np.diff(v) / h
    if grid.kind == "line":
        inner_sum = np.sum(d**2) * h
        inner_sum += (v[0] / h) ** 2 * h + (v[-1] / h) ** 2 * h
        return float(inner_sum)
    sigma = surface_area(grid.dim)
    total = np.sum(e[1:-1] * d**2) * h
    total += e[-1] * (v[-1] / h) ** 2 * h  # Dirichlet at r = L
    return float(sigma * total)


def h1_distance(f: GridFunction, g: GridFunction) -> float:
    """(||f-g||_2^2 + ||grad(f-g)||_2^2)^(1/2) with the grid quadrature."""
    _check_same_grid(f, g)
    diff = f - g
    return float(np.sqrt(norm_l2(diff) ** 2 + gradient_squared_integral(diff)))


def radial_derivative(f: GridFunction) -> GridFunction:
    """Second-order difference-quotient derivative at the nodes."""
    v = f.values
    h = f.grid.spacing
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return GridFunction(f.grid, out)
