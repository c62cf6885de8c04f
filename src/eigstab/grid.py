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
from functools import cached_property

import numpy as np

from .exceptions import UnsupportedChannelError
from .measure import MeasFunction, WeightedMeasure, _check_same_measure, _dot, lp_norm


def exact(value):
    """The package's one number-to-text rule: a float (``np.float64`` too)
    becomes its 17-significant-digit string, which reads back bit for bit;
    dicts, lists, tuples and arrays are encoded element by element; ints,
    bools, strings and None pass through."""
    if isinstance(value, float | np.floating):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list | tuple):
        return [exact(v) for v in value]
    return value


def csv_text(header, rows) -> str:
    """CSV text with "\\n" line ends and every row through :func:`exact`;
    None is written as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(exact, rows))
    return buf.getvalue()


def surface_area(d: int) -> float:
    """Area of the unit sphere S^(d-1): 2 pi^(d/2) / Gamma(d/2)."""
    from scipy.special import gamma as gamma_fn
    return float(2.0 * np.pi ** (d / 2.0) / gamma_fn(d / 2.0))


@dataclass(frozen=True, eq=False)
class Grid(WeightedMeasure):
    """A weighted measure whose points are the nodes and whose weights are
    the quadrature weights; two grids are the same space when kind, dim,
    extent and n agree."""

    weights: np.ndarray = field(init=False, repr=False)
    kind: str          # "line" or "radial"
    dim: int
    extent: float      # L: domain is [-L, L] (line) or [0, L] (radial)
    n: int
    nodes: np.ndarray = field(init=False, repr=False)
    spacing: float = field(init=False)

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
        # the ell = 0 Laplacian's row sums are at most 2^max(d, 2) / h^2; they
        # must stay below sqrt(float max) * eps, since LAPACK's tridiagonal
        # eigensolvers fail long before the entries overflow (derivations §10)
        cap = np.sqrt(np.finfo(float).max) * np.finfo(float).eps
        if not (0.0 < h * h < np.inf and 2.0 ** max(self.dim, 2) / (h * h) < cap):
            raise ValueError(f"spacing {h:g} puts 1/h^2 and the Laplacian out of floating-point range")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "weights", weights)
        super().__post_init__()

    def _key(self):
        return (self.kind, self.dim, self.extent, self.n)

    @property
    def quad_weights(self) -> np.ndarray:
        """The measure's weights."""
        return self.weights

    # -- constructors -------------------------------------------------

    @classmethod
    def line(cls, extent: float, n: int) -> "Grid":
        return cls("line", 1, extent, n)

    @classmethod
    def radial(cls, dim: int, extent: float, n: int) -> "Grid":
        return cls("radial", dim, extent, n)

    def function(self, values) -> "GridFunction":
        return GridFunction(self, values)

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


class GridFunction(MeasFunction):
    """A real-valued function on a :class:`Grid`, which is its measure."""

    def __init__(self, grid: Grid, values):
        super().__init__(grid, np.asarray(values, dtype=float))

    @property
    def grid(self) -> Grid:
        return self.measure

    # -- serialization ------------------------------------------------

    def to_csv(self) -> str:
        return csv_text(["coordinate", "value"], zip(self.grid.nodes, self.values))

    def to_json(self) -> str:
        return json.dumps({"grid": self.grid.metadata(), "values": exact(self.values)})

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        doc = json.loads(text)
        grid = Grid.from_metadata(doc["grid"])
        return cls(grid, np.array([float(v) for v in doc["values"]]))


def integrate(f: GridFunction) -> float:
    """Quadrature sum; equals the R^d integral up to O(h^2)."""
    return float(_dot(f.grid.quad_weights, f.values))


def inner(f: GridFunction, g: GridFunction) -> float:
    _check_same_measure(f, g)
    return float(_dot(f.grid.quad_weights, f.values * g.values))


def norm_l2(f: GridFunction) -> float:
    return float(np.sqrt(_dot(f.grid.quad_weights, f.values**2)))


norm_lp = lp_norm  # a grid's L^p norm is its measure's


def symmetric_tridiagonal(grid: Grid, ell: int = 0, potential=None):
    """Tridiagonal (diag, off) of -Lap_ell + potential in sqrt(w) coordinates.

    The flux-form operator f -> -f'' - ((d-1)/r) f' + ell (ell + d - 2) / r^2 f
    (line grids: plain -f'' with Dirichlet ghosts) is symmetric under the
    quadrature inner product, so on v = sqrt(w) f it is a symmetric matrix:
    off[i] = upper[i] sqrt(w_i / w_{i+1}) from the nodal matrix's upper[i].
    Vectors map back by dividing by sqrt(quad_weights).
    """
    if ell < 0 or (grid.kind == "line" and ell != 0):
        raise UnsupportedChannelError(f"{grid.kind} grids have no channel ell = {ell}")
    h, e, r = grid.spacing, grid.edge_factors(), grid.nodes
    vol = r ** (grid.dim - 1)  # 1 on line grids
    main = (e[:-1] + e[1:]) / (vol * h**2)
    upper = -e[1:-1] / (vol[:-1] * h**2)
    # r = 0 closure: for d >= 2 the edge factor vanishes; in d = 1 the
    # even sector reflects (zero flux) and the odd sector antireflects.
    if grid.kind == "radial" and grid.dim == 1:
        if ell == 0:
            main[0] -= e[0] / (vol[0] * h**2)
        elif ell == 1:
            main[0] += e[0] / (vol[0] * h**2)
        else:
            raise UnsupportedChannelError("d = 1 has only parity sectors 0 and 1")
    cent = ell * (ell + grid.dim - 2)
    if cent != 0:
        main = main + cent / r**2
    if potential is not None:
        main = main + np.asarray(potential, dtype=float)
    w = grid.quad_weights
    off = upper * np.sqrt(w[:-1] / w[1:])
    return main, off


class _Tridiag:
    """Symmetric tridiagonal matrix plus an optional rank-one term rho u u^T.

    Row i holds main[i] on the diagonal and upper[i] in column i+1, and by
    symmetry upper[i-1] in column i-1: the (diag, off) of
    :func:`symmetric_tridiagonal`.
    """

    def __init__(self, main, upper, rank1=None):
        self.main = np.asarray(main, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.n = self.main.size
        self._shift = None  # (sigma, LU factors, (z, 1 + rho u.z) or None)
        self.rank1 = None
        if rank1 is not None:
            rho, u = rank1
            self.rank1 = (float(rho), np.asarray(u, dtype=float))

    @property
    def opnorm(self) -> float:
        """Largest absolute row sum of the tridiagonal part plus |rho| u.u,
        a bound on the 2-norm."""
        bound = np.abs(self.main)
        bound[:-1] += np.abs(self.upper)
        bound[1:] += np.abs(self.upper)
        top = float(bound.max())
        if self.rank1 is not None:
            rho, u = self.rank1
            top += abs(rho) * float(_dot(u, u))
        return top

    def matvec(self, v):
        out = self.main * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.upper * v[:-1]
        if self.rank1 is not None:
            rho, u = self.rank1
            out += rho * _dot(u, v) * u
        return out

    @cached_property
    def _row_sums(self):
        """Row sums of the tridiagonal part; main and upper are never
        reassigned, so they are taken once."""
        return self.main + np.r_[self.upper, 0.0] + np.r_[0.0, self.upper]

    def quadratic_form(self, v) -> float:
        """v.A v = sum s_i v_i^2 - sum upper_i (v_i - v_{i+1})^2 + rho (u.v)^2,
        s the row sums: the edge differences leave out the rounding of the
        2/h^2 diagonal that sum v_i (A v)_i carries (derivations §10)."""
        dv = np.diff(v)
        out = _dot(self._row_sums, v * v) - _dot(self.upper, dv * dv)
        if self.rank1 is not None:
            rho, u = self.rank1
            out += rho * _dot(u, v) ** 2
        return float(out)

    def solve_shifted(self, sigma, rhs):
        """(A - sigma I)^(-1) rhs by tridiagonal LU (LAPACK dgttrf) and
        Sherman-Morrison.  The factors of the last shift, the column
        z = (T - sigma I)^(-1) u and 1 + rho u.z are kept: a later solve is
        one back substitution, bit for bit a fresh factorization's result.
        Non-finite input raises ValueError, a singular pivot LinAlgError."""
        from scipy.linalg.lapack import dgttrf, dgttrs
        rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        if self._shift is None or self._shift[0] != sigma:
            diag = self.main - sigma
            if not (np.isfinite(diag).all() and np.isfinite(self.upper).all()):
                raise ValueError("matrix must not contain infs or NaNs")
            *lu, info = dgttrf(self.upper, diag, self.upper)
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            sm = None
            if self.rank1 is not None:
                rho, u = self.rank1
                z = dgttrs(*lu, u)[0]
                sm = (z, 1.0 + rho * _dot(u, z))
            self._shift = (sigma, lu, sm)
        _, lu, sm = self._shift
        y = dgttrs(*lu, rhs)[0]
        if sm is None:
            return y
        rho, u = self.rank1
        z, denom = sm
        return y - (rho * _dot(u, y) / denom) * z


def laplacian_apply(f: GridFunction, ell: int = 0) -> GridFunction:
    """Apply the (channel-ell) negative Laplacian to f: (A (sqrt(w) f)) / sqrt(w)."""
    sw = np.sqrt(f.grid.quad_weights)
    A = _Tridiag(*symmetric_tridiagonal(f.grid, ell))
    return GridFunction(f.grid, A.matvec(sw * f.values) / sw)


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
        inner_sum = _dot(d, d) * h
        inner_sum += (v[0] / h) ** 2 * h + (v[-1] / h) ** 2 * h
        return float(inner_sum)
    sigma = surface_area(grid.dim)
    total = _dot(e[1:-1], d**2) * h
    total += e[-1] * (v[-1] / h) ** 2 * h  # Dirichlet at r = L
    return float(sigma * total)


def h1_distance(f: GridFunction, g: GridFunction) -> float:
    """(||f-g||_2^2 + ||grad(f-g)||_2^2)^(1/2) with the grid quadrature."""
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
