"""One measure space: a grid is a weighted measure, a grid function a
measure function, and "same space" is equality of the measures."""

import numpy as np
import pytest

from eigstab.exceptions import DimensionMismatchError
from eigstab.grid import Grid, GridFunction, inner, norm_lp
from eigstab.measure import (
    MeasFunction,
    WeightedMeasure,
    conjugate_exponent,
    duality_map,
    lp_norm,
    pairing,
    weighted_norm,
)


def test_equal_grids_are_equal():
    assert Grid.line(5, 32) == Grid.line(5, 32)
    assert Grid.radial(3, 7.0, 64) == Grid.radial(3, 7.0, 64)
    assert Grid.line(5, 32) != Grid.line(5, 64)
    assert Grid.radial(2, 7.0, 64) != Grid.radial(3, 7.0, 64)


def test_line_and_radial_grids_are_different_spaces():
    line, radial = Grid.line(5, 32), Grid.radial(1, 5, 32)
    # the weights agree bit for bit, so only the geometry tells them apart
    assert np.array_equal(line.weights, radial.weights)
    assert line != radial
    f, g = line.from_callable(np.cos), radial.from_callable(np.cos)
    for combine in (lambda: f + g, lambda: f - g, lambda: pairing(f, g), lambda: inner(f, g)):
        with pytest.raises(DimensionMismatchError):
            combine()


def test_a_grid_and_a_plain_measure_are_different_spaces():
    grid = Grid.line(5, 32)
    plain = WeightedMeasure(grid.weights)
    assert grid != plain and plain != grid
    with pytest.raises(DimensionMismatchError):
        grid.zero() + plain.constant(0.0)


def test_merged_types():
    grid = Grid.line(5, 32)
    f = GridFunction(grid, np.cos(grid.nodes))
    assert isinstance(grid, WeightedMeasure)
    assert isinstance(f, MeasFunction)
    assert f.grid is f.measure is grid
    assert grid.quad_weights is grid.weights
    for h in (f + f, f - f, 2 * f, f * 2, -f, f.map(np.abs), grid.constant(1)):
        assert type(h) is GridFunction
        assert h.values.dtype == float


def _parent_norm_lp(f, p):
    """The grid-side L^p norm as it was written before the merge."""
    return weighted_norm(np.abs(f.values), f.grid.quad_weights, p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.5])
def test_lp_norm_of_grid_functions_bit_identical(line_grid, gs_q4_d1, gs_q4_d3, p):
    fixtures = [
        GridFunction(line_grid, -1.5 / np.cosh(line_grid.nodes) ** 2),
        GridFunction(line_grid, np.sin(line_grid.nodes) * np.exp(-(line_grid.nodes**2))),
        gs_q4_d1.Q,
        gs_q4_d3.Q,
    ]
    for f in fixtures:
        assert lp_norm(f, p) == _parent_norm_lp(f, p)
        assert norm_lp(f, p) == lp_norm(f, p)


def test_measure_functions_accept_grid_functions(gs_q4_d1):
    q = gs_q4_d1.Q
    p = 3.0
    dq = duality_map(q, p)
    assert isinstance(dq, MeasFunction) and dq.measure is q.grid
    assert lp_norm(dq, conjugate_exponent(p)) == pytest.approx(1.0, abs=1e-12)
    assert pairing(dq, q) == pytest.approx(lp_norm(q, p), abs=1e-12)
    assert pairing(q, q).real == pytest.approx(inner(q, q), rel=1e-12)
