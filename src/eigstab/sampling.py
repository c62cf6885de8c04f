"""Seeded random test functions for the inequality fuzzers.

Samples are moving averages of standard normals: smooth enough to avoid
trivial sparse corners, rough enough to explore the inequalities, and
fully reproducible from the seed.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateInputError
from .measure import MeasFunction, WeightedMeasure, lp_norm_rows

#: a draw whose norm is at or below this is degenerate
DRAW_NORM_FLOOR = 1e-12


def smooth_rows(raw, window: int = 5):
    """Moving average of width ``window`` along the last axis, keeping the
    n - window + 1 full windows (``np.convolve`` mode "valid", bit for bit)."""
    view = np.lib.stride_tricks.sliding_window_view(raw, window, axis=-1)
    return view @ (np.ones(window) / window)


def smoothed_noise(
    rng: np.random.Generator, n: int, window: int = 5, complex_values: bool = False
) -> np.ndarray:
    """Moving-average of standard normals, length n."""

    def draw():
        return smooth_rows(rng.standard_normal(n + window - 1), window)

    if complex_values:
        return draw() + 1j * draw()
    return draw()


def unit_rows(vals, weights, p: float):
    """Each row divided by its L^p norm; a row whose norm is at or below
    DRAW_NORM_FLOOR raises :class:`DegenerateInputError`."""
    nrm = lp_norm_rows(vals, weights, p)
    if (nrm <= DRAW_NORM_FLOOR).any():
        raise DegenerateInputError(
            f"random draw with L^{p:g} norm <= {DRAW_NORM_FLOOR:g}"
        )
    return vals / nrm[..., None]


def random_unit_function(
    rng: np.random.Generator,
    measure: WeightedMeasure,
    p: float,
    complex_values: bool = False,
) -> MeasFunction:
    """Smooth random function normalized to unit L^p(measure) norm; a
    degenerate draw raises :class:`DegenerateInputError`."""
    vals = smoothed_noise(rng, measure.n, complex_values=complex_values)
    return MeasFunction(measure, unit_rows(vals[None], measure.weights, p)[0])


def random_nonnegative_unit(
    rng: np.random.Generator, measure: WeightedMeasure, p: float
) -> MeasFunction:
    """Nonnegative smooth random function with unit L^p(measure) norm; a
    degenerate draw raises :class:`DegenerateInputError`."""
    vals = np.abs(smoothed_noise(rng, measure.n))
    return MeasFunction(measure, unit_rows(vals[None], measure.weights, p)[0])
