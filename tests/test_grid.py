"""Grids, quadrature, flux-form Laplacians, and serialization."""

import numpy as np
import pytest

from eigstab.exceptions import DimensionMismatchError, UnsupportedChannelError
from eigstab.grid import (
    Grid,
    GridFunction,
    _Tridiag,
    gradient_squared_integral,
    h1_distance,
    inner,
    integrate,
    laplacian_apply,
    laplacian_tridiagonal,
    norm_l2,
    norm_lp,
    radial_derivative,
    surface_area,
    symmetric_tridiagonal,
)


def test_surface_area_closed_forms():
    assert surface_area(1) == pytest.approx(2.0)
    assert surface_area(2) == pytest.approx(2.0 * np.pi)
    assert surface_area(3) == pytest.approx(4.0 * np.pi)


def test_grid_construction_and_validation():
    g = Grid.line(10.0, 100)
    assert g.nodes[0] == pytest.approx(-10.0 + 0.1)
    assert g.spacing == pytest.approx(0.2)
    r = Grid.radial(3, 5.0, 50)
    assert r.nodes[0] == pytest.approx(0.05)
    with pytest.raises(ValueError):
        Grid.line(10.0, 8)
    with pytest.raises(ValueError):
        Grid.line(-1.0, 100)
    with pytest.raises(ValueError):
        Grid("radial", 0, 5.0, 50)


@pytest.mark.parametrize("extent", [np.nan, np.inf])
def test_grid_rejects_non_finite_extent(extent):
    with pytest.raises(ValueError):
        Grid.line(extent, 100)
    with pytest.raises(ValueError):
        Grid.radial(3, extent, 100)


def test_gaussian_integral_radial():
    # int_R^3 e^(-r^2) = pi^(3/2)
    g = Grid.radial(3, 12.0, 2000)
    f = g.from_callable(lambda r: np.exp(-(r**2)))
    assert integrate(f) == pytest.approx(np.pi**1.5, rel=1e-7)


def test_gaussian_integral_line():
    g = Grid.line(12.0, 2000)
    f = g.from_callable(lambda x: np.exp(-(x**2)))
    assert integrate(f) == pytest.approx(np.sqrt(np.pi), rel=1e-7)


def test_lp_norm_matches_quadrature():
    g = Grid.radial(2, 8.0, 500)
    f = g.from_callable(lambda r: np.exp(-r))
    # int_R^2 e^(-3r) = 2 pi / 9
    assert norm_lp(f, 3.0) == pytest.approx((2.0 * np.pi / 9.0) ** (1.0 / 3.0), rel=1e-4)


def test_laplacian_symmetry_under_quadrature():
    for g in (Grid.radial(3, 5.0, 64), Grid.radial(1, 5.0, 64), Grid.line(5.0, 64)):
        for ell in (0, 1, 2):
            if g.kind == "line" and ell > 0:
                continue
            if g.dim == 1 and ell > 1:
                continue
            main, upper, lower = laplacian_tridiagonal(g, ell)
            w = g.quad_weights
            assert np.allclose(w[:-1] * upper, w[1:] * lower, rtol=1e-12)


def test_symmetric_form_same_spectrum():
    g = Grid.radial(3, 5.0, 64)
    main, upper, lower = laplacian_tridiagonal(g, 0)
    A = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
    w = g.quad_weights
    diag, off = symmetric_tridiagonal(g, 0)
    S = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ea = np.sort(np.linalg.eigvals(A).real)
    es = np.sort(np.linalg.eigvalsh(S))
    assert np.allclose(ea, es, atol=1e-8 * np.abs(es).max())


@pytest.mark.parametrize("rank1", [False, True], ids=["tridiagonal", "rank1"])
def test_tridiag_matches_dense(rank1):
    # the nodal radial Laplacian is not symmetric: upper != lower
    g = Grid.radial(3, 5.0, 40)
    main, upper, lower = laplacian_tridiagonal(g, 0)
    assert not np.allclose(upper, lower)
    u = np.exp(-g.nodes)
    term = (0.7, u) if rank1 else None
    extra = 0.7 * np.outer(u, u) if rank1 else 0.0
    tri = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
    A = _Tridiag(main, upper, lower, term)
    v = np.cos(g.nodes)
    np.testing.assert_allclose(A.matvec(v), (tri + extra) @ v, rtol=0, atol=1e-12 * np.abs(tri).max())
    for sigma in (-1.0, -0.25):
        want = np.linalg.solve(tri + extra - sigma * np.eye(g.n), v)
        np.testing.assert_allclose(A.solve_shifted(sigma, v), want, rtol=1e-10)
    assert _Tridiag(main, upper, lower).opnorm >= np.linalg.norm(tri, np.inf)
    # symmetrized form: opnorm bounds the 2-norm, rank-one term included
    diag, off = symmetric_tridiagonal(g, 0)
    sym = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + extra
    assert _Tridiag(diag, off, rank1=term).opnorm >= np.linalg.norm(sym, 2)


def test_laplacian_pointwise_identity_away_from_origin():
    # -Lap e^(-r^2/2) = (d - r^2) e^(-r^2/2); the cell-centered radial
    # closure is inaccurate only in the first few cells near r = 0
    g = Grid.radial(3, 10.0, 2000)
    f = g.from_callable(lambda r: np.exp(-(r**2) / 2.0))
    lap = laplacian_apply(f)
    expect = (3.0 - g.nodes**2) * np.exp(-(g.nodes**2) / 2.0)
    sel = g.nodes > 0.5
    assert np.max(np.abs(lap.values[sel] - expect[sel])) < 5e-4


def test_gradient_integral_matches_quadratic_form():
    rng = np.random.default_rng(2)
    for g in (Grid.line(5.0, 128), Grid.radial(3, 5.0, 128)):
        vals = np.exp(-g.nodes**2) * (1.0 + 0.1 * rng.standard_normal(g.n))
        vals[-1] = 0.0  # respect the Dirichlet closure
        f = GridFunction(g, vals)
        qform = inner(f, laplacian_apply(f))
        assert gradient_squared_integral(f) == pytest.approx(qform, rel=1e-9)


def test_gradient_integral_gaussian():
    # int_R |d/dx e^(-x^2/2)|^2 = sqrt(pi)/2
    g = Grid.line(12.0, 4000)
    f = g.from_callable(lambda x: np.exp(-(x**2) / 2.0))
    assert gradient_squared_integral(f) == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-5)


def test_radial_derivative_accuracy():
    g = Grid.radial(3, 5.0, 1000)
    f = g.from_callable(np.sin)
    df = radial_derivative(f)
    assert np.max(np.abs(df.values - np.cos(g.nodes))) < 1e-4


def test_h1_distance_zero_and_symmetry():
    g = Grid.line(5.0, 64)
    f = g.from_callable(lambda x: np.exp(-(x**2)))
    h = g.from_callable(lambda x: np.exp(-((x - 1.0) ** 2)))
    assert h1_distance(f, f) == 0.0
    assert h1_distance(f, h) == pytest.approx(h1_distance(h, f))
    assert h1_distance(f, h) > 0.0


def test_unsupported_channels():
    with pytest.raises(UnsupportedChannelError):
        laplacian_tridiagonal(Grid.line(5.0, 32), 1)
    with pytest.raises(UnsupportedChannelError):
        laplacian_tridiagonal(Grid.radial(1, 5.0, 32), 2)
    with pytest.raises(UnsupportedChannelError):
        laplacian_tridiagonal(Grid.radial(3, 5.0, 32), -1)


def test_grid_function_validation():
    g = Grid.line(5.0, 32)
    with pytest.raises(DimensionMismatchError):
        GridFunction(g, np.zeros(31))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(32, np.nan))
    other = Grid.line(5.0, 64)
    with pytest.raises(DimensionMismatchError):
        g.zero() + other.zero()


def test_function_algebra():
    g = Grid.line(5.0, 32)
    f = g.from_callable(np.cos)
    h = 2.0 * f - f
    assert np.allclose(h.values, f.values)
    assert np.allclose((-f).values, -f.values)
    assert norm_l2(f - f) == 0.0


def test_json_roundtrip():
    g = Grid.radial(3, 7.0, 32)
    f = g.from_callable(lambda r: np.exp(-r) * np.sin(r))
    back = GridFunction.from_json(f.to_json())
    assert back.grid.metadata() == g.metadata()
    assert np.array_equal(back.values, f.values)


def test_csv_emission():
    g = Grid.line(1.0, 16)
    text = g.from_callable(lambda x: x).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "coordinate,value"
    assert len(lines) == 17
