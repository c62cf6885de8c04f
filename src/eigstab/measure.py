"""Finite discrete measure spaces and complex function algebra.

All L^p quantities used by the Hoelder-type inequalities are computed on a
:class:`WeightedMeasure`: a finite set of points with strictly positive
weights.  Continuum examples (Lebesgue measure on an interval) are
represented by midpoint-rule discretizations, which keeps every identity
in the test suite exact up to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidExponentError,
)


def scalar_pow(x, e: float):
    """x ** e for a 1-d array, element by element as Python floats.

    numpy's array power can take a SIMD path whose last bit differs from
    the C library's pow; the row-wise kernels raise their per-row scalars
    with this, so each row gets what a one-function, scalar computation
    gets.
    """
    try:
        return np.array([v**e for v in x.tolist()])
    except OverflowError as exc:
        raise InvalidExponentError(f"a norm raised to the power {e} overflows") from exc


def _dot(x, y):
    """sum_i x_i y_i along the last axis, row by row: the package's one
    reduction rule (docs/derivations.md §11).  numpy's einsum loop sums,
    never BLAS, whose ddot threads past n = 10000, so its bits would depend
    on the thread count."""
    return np.einsum("...i,...i->...", x, y)


def weighted_norm(vals, weights, p: float):
    """(sum_i w_i vals_i^p)^(1/p) for vals >= 0, row by row along the last
    axis; the max of each row is factored out to avoid overflow for large
    p.  A 1-d input gives a float, an (R, n) input an (R,) array."""
    rows = vals.reshape(-1, vals.shape[-1])
    m = rows.max(axis=1)
    m[m == 0.0] = 1.0  # a zero row scales by 1 and gives 0
    out = m * scalar_pow(_dot((rows / m[:, None]) ** p, weights), 1.0 / p)
    return float(out[0]) if vals.ndim == 1 else out


def conjugate_exponent(p: float) -> float:
    """Return p' with 1/p + 1/p' = 1."""
    if p <= 1.0:
        raise InvalidExponentError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True, eq=False)
class WeightedMeasure:
    """A finite measure space: n points with positive weights.

    Two measures are the same space when they are of one type and agree on
    :meth:`_key`: the weights here, the geometry for a grid.  Functions
    combine only on the same space.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive and finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "n", w.size)

    def _key(self):
        return self.weights.tobytes()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def function(self, values) -> "MeasFunction":
        return MeasFunction(self, np.asarray(values))

    def constant(self, value) -> "MeasFunction":
        return self.function(np.full(self.n, value))

    # static, not class methods: a subclass such as Grid is built from its
    # geometry, not from weights, so these always give a plain measure
    @staticmethod
    def uniform_probability(n: int) -> "WeightedMeasure":
        return WeightedMeasure(np.full(n, 1.0 / n))

    @staticmethod
    def lebesgue_interval(a: float, b: float, n: int) -> "WeightedMeasure":
        """Midpoint-rule discretization of Lebesgue measure on [a, b]."""
        if b <= a:
            raise ValueError("need b > a")
        return WeightedMeasure(np.full(n, (b - a) / n))


@dataclass(frozen=True)
class MeasFunction:
    """A complex-valued function sampled on a :class:`WeightedMeasure`.

    The algebra keeps the type: the sum of two grid functions is a grid
    function.
    """

    measure: WeightedMeasure
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, ndmin=1)
        if not np.iscomplexobj(v):
            v = v.astype(float, copy=False)
        if v.shape != (self.measure.n,):
            raise DimensionMismatchError(
                f"values of shape {v.shape} on a measure with {self.measure.n} points"
            )
        require_finite(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def map(self, fn) -> "MeasFunction":
        return type(self)(self.measure, fn(self.values))

    def __add__(self, other: "MeasFunction") -> "MeasFunction":
        _check_same_measure(self, other)
        return type(self)(self.measure, self.values + other.values)

    def __sub__(self, other: "MeasFunction") -> "MeasFunction":
        _check_same_measure(self, other)
        return type(self)(self.measure, self.values - other.values)

    def __mul__(self, c) -> "MeasFunction":
        return type(self)(self.measure, self.values * c)

    __rmul__ = __mul__

    def __neg__(self) -> "MeasFunction":
        return type(self)(self.measure, -self.values)


def _check_same_measure(f: MeasFunction, g: MeasFunction) -> None:
    if f.measure != g.measure:
        raise DimensionMismatchError("functions live on different measures")


# ---------------------------------------------------------------------------
# row-wise kernels: each takes an (R, n) array of function values, one
# function per row, and the measure's weights; a single function is the
# one-row case
# ---------------------------------------------------------------------------

#: |imag| at or below this on every point makes a row real-valued (the
#: default atol of np.allclose against 0)
REAL_ATOL = 1e-8


def require_finite(vals):
    """Return vals; raise ValueError if any value is not finite."""
    if not np.isfinite(vals).all():
        raise ValueError("function values must be finite")
    return vals


def real_rows(vals):
    """Per-row flag: the row is real-valued."""
    if not np.iscomplexobj(vals):
        return np.ones(vals.shape[:-1], dtype=bool)
    return (np.abs(vals.imag) <= REAL_ATOL).all(axis=-1)


def lp_norm_rows(vals, weights, p: float):
    """(sum_i w_i |f_i|^p)^(1/p) of each row."""
    if not np.isfinite(p) or p < 1.0:
        raise InvalidExponentError(f"lp_norm needs finite p >= 1, got {p}")
    return weighted_norm(np.abs(vals), weights, p)


def pairing_rows(f_rows, g_rows, weights):
    """Bilinear pairing sum_i w_i f_i g_i (no conjugation) of each row pair."""
    return _dot(weights * f_rows, g_rows)


def duality_map_rows(vals, weights, p: float):
    """D_p of each row; see :func:`duality_map`.  A complex row that is
    real-valued gets imaginary part 0, and the result is real when every
    row is."""
    if not np.isfinite(p) or p <= 1.0:
        raise InvalidExponentError(f"duality_map needs finite p > 1, got {p}")
    return _dual_rows(vals, weights, p, lp_norm_rows(vals, weights, p))


def _dual_rows(vals, weights, p: float, nrm):
    """:func:`duality_map_rows` for a finite p > 1, given each row's L^p
    norm ``nrm``, so that a caller holding the norms computes them once."""
    if (nrm == 0.0).any():
        raise DegenerateInputError("duality_map of the zero function")
    a = np.abs(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(a > 0.0, (a / nrm[:, None]) ** (p - 2.0), 0.0) * np.conj(vals) \
            * scalar_pow(nrm, -1.0)[:, None]
    out = np.where(a > 0.0, out, 0.0)
    if np.iscomplexobj(out):
        real = real_rows(vals)
        if real.all():
            out = out.real
        else:
            out.imag[real] = 0.0
    return require_finite(out)


def lp_norm(f: MeasFunction, p: float) -> float:
    """(sum_i w_i |f_i|^p)^(1/p)."""
    return float(lp_norm_rows(f.values[None], f.measure.weights, p)[0])


def pairing(f: MeasFunction, g: MeasFunction) -> complex:
    """Bilinear pairing sum_i w_i f_i g_i (no conjugation)."""
    _check_same_measure(f, g)
    return complex(pairing_rows(f.values[None], g.values[None], f.measure.weights)[0])


def duality_map(f: MeasFunction, p: float) -> MeasFunction:
    """The unit dual vector D_p(f) = ||f||_p^(1-p) |f|^(p-2) conj(f).

    Satisfies ||D_p(f)||_p' = 1 and pairing(D_p(f), f) = ||f||_p.  At zeros
    of f the value is 0 (the limit of the formula); a real-valued f has a
    real dual vector.
    """
    return MeasFunction(f.measure, duality_map_rows(f.values[None], f.measure.weights, p)[0])
