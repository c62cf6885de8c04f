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


def weighted_norm(vals, weights, p: float) -> float:
    """(sum_i w_i vals_i^p)^(1/p) for vals >= 0; the max is factored out to
    avoid overflow for large p."""
    m = vals.max()
    if m == 0.0:
        return 0.0
    return float(m * (weights @ (vals / m) ** p) ** (1.0 / p))


def conjugate_exponent(p: float) -> float:
    """Return p' with 1/p + 1/p' = 1."""
    if p <= 1.0:
        raise InvalidExponentError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class WeightedMeasure:
    """A finite measure space: n points with positive weights."""

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

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def function(self, values) -> "MeasFunction":
        return MeasFunction(self, np.asarray(values))

    def constant(self, value) -> "MeasFunction":
        return self.function(np.full(self.n, value))

    @classmethod
    def uniform_probability(cls, n: int) -> "WeightedMeasure":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def lebesgue_interval(cls, a: float, b: float, n: int) -> "WeightedMeasure":
        """Midpoint-rule discretization of Lebesgue measure on [a, b]."""
        if b <= a:
            raise ValueError("need b > a")
        return cls(np.full(n, (b - a) / n))


@dataclass(frozen=True)
class MeasFunction:
    """A complex-valued function sampled on a :class:`WeightedMeasure`."""

    measure: WeightedMeasure
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if not np.iscomplexobj(v):
            v = v.astype(float)
        v = np.atleast_1d(v).copy()
        if v.size != self.measure.n:
            raise DimensionMismatchError(
                f"{v.size} values on a measure with {self.measure.n} points"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values) or np.allclose(self.values.imag, 0.0)

    def map(self, fn) -> "MeasFunction":
        return MeasFunction(self.measure, fn(self.values))

    def __add__(self, other: "MeasFunction") -> "MeasFunction":
        _check_same_measure(self, other)
        return MeasFunction(self.measure, self.values + other.values)

    def __sub__(self, other: "MeasFunction") -> "MeasFunction":
        _check_same_measure(self, other)
        return MeasFunction(self.measure, self.values - other.values)

    def __mul__(self, c) -> "MeasFunction":
        return MeasFunction(self.measure, self.values * c)

    __rmul__ = __mul__


def _check_same_measure(f: MeasFunction, g: MeasFunction) -> None:
    if f.measure is g.measure:
        return
    if f.measure.n != g.measure.n or not np.array_equal(
        f.measure.weights, g.measure.weights
    ):
        raise DimensionMismatchError("functions live on different measures")


def lp_norm(f: MeasFunction, p: float) -> float:
    """(sum_i w_i |f_i|^p)^(1/p)."""
    if not np.isfinite(p) or p < 1.0:
        raise InvalidExponentError(f"lp_norm needs finite p >= 1, got {p}")
    return weighted_norm(np.abs(f.values), f.measure.weights, p)


def pairing(f: MeasFunction, g: MeasFunction) -> complex:
    """Bilinear pairing sum_i w_i f_i g_i (no conjugation)."""
    _check_same_measure(f, g)
    return complex(np.sum(f.measure.weights * f.values * g.values))


def duality_map(f: MeasFunction, p: float) -> MeasFunction:
    """The unit dual vector D_p(f) = ||f||_p^(1-p) |f|^(p-2) conj(f).

    Satisfies ||D_p(f)||_p' = 1 and pairing(D_p(f), f) = ||f||_p.  At zeros
    of f the value is 0 (the limit of the formula).
    """
    if not np.isfinite(p) or p <= 1.0:
        raise InvalidExponentError(f"duality_map needs finite p > 1, got {p}")
    nrm = lp_norm(f, p)
    if nrm == 0.0:
        raise DegenerateInputError("duality_map of the zero function")
    a = np.abs(f.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(a > 0.0, (a / nrm) ** (p - 2.0), 0.0) * np.conj(f.values) \
            * nrm ** (-1.0)
    out = np.where(a > 0.0, out, 0.0)
    if f.is_real:
        out = out.real
    return MeasFunction(f.measure, out)
