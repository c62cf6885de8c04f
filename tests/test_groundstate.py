"""Profile solver against closed forms, shooting, and scaling identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import gamma as gamma_fn

from eigstab.exceptions import (
    InvalidExponentError,
    PreconditionError,
    UnsupportedShiftError,
)
from eigstab.grid import Grid, GridFunction, integrate, norm_l2, norm_lp, surface_area
from eigstab.groundstate import (
    Exponents,
    GroundState,
    gns_energy,
    interpolation_constant_from_c_prime,
    keller_constant,
    keller_parameters,
    keller_profile,
    optimal_potential,
    profile_interpolant,
    solve_ground_state,
    virial_norm_check,
)
from conftest import solve_quiet


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def test_exponent_triples():
    e = Exponents.from_gamma(1.5, 1)
    assert (e.p, e.q, e.theta) == pytest.approx((2.0, 4.0, 0.25))
    e = Exponents.from_gamma(1.0, 3)
    assert (e.p, e.q) == pytest.approx((2.5, 10.0 / 3.0))
    assert e.theta == pytest.approx(3.0 / 5.0)
    e = Exponents.from_gamma(1.0, 1)
    assert (e.p, e.q) == pytest.approx((1.5, 6.0))


def test_exponent_roundtrip():
    for gamma, d in [(1.5, 1), (0.75, 2), (1.0, 3), (2.5, 3)]:
        e = Exponents.from_gamma(gamma, d)
        back = Exponents.from_q(e.q, d)
        assert back.gamma == pytest.approx(gamma)
        assert back.p == pytest.approx(e.p)


def test_exponent_range_errors():
    with pytest.raises(InvalidExponentError):
        Exponents.from_gamma(0.5, 1)  # d = 1 needs gamma > 1/2
    with pytest.raises(InvalidExponentError):
        Exponents.from_gamma(0.0, 2)
    with pytest.raises(InvalidExponentError):
        Exponents.from_q(2.0, 1)
    with pytest.raises(InvalidExponentError):
        Exponents.from_q(6.0, 3)  # Sobolev-critical


# ---------------------------------------------------------------------------
# d = 1 closed form
# ---------------------------------------------------------------------------


def test_keller_parameters_q4_closed_form():
    amp, kappa, energy = keller_parameters(4.0)
    k = (3.0 / 16.0) ** (1.0 / 3.0)
    assert kappa == pytest.approx(k, rel=1e-14)
    assert amp == pytest.approx(np.sqrt(k / 2.0), rel=1e-14)
    assert energy == pytest.approx(-((3.0 / 16.0) ** (2.0 / 3.0)), rel=1e-14)


def test_keller_profile_satisfies_equation():
    """Substitute the sech ansatz into the profile equation numerically.

    -Q'' - ||Q||_q^(2-q) Q^(q-1) = E Q should hold pointwise; Q'' is taken
    by high-order central differences on a fine auxiliary mesh.
    """
    for q in (3.0, 4.0, 5.0):
        _, _, energy = keller_parameters(q)
        h = 1e-4
        x = np.linspace(-8.0, 8.0, 2001)
        Q = keller_profile(q, x)
        Qpp = (keller_profile(q, x + h) - 2.0 * Q + keller_profile(q, x - h)) / h**2
        # ||Q||_q on a wide quadrature mesh
        xs = np.linspace(-40.0, 40.0, 40001)
        nq = (np.trapezoid(keller_profile(q, xs) ** q, xs)) ** (1.0 / q)
        resid = -Qpp - nq ** (2.0 - q) * Q ** (q - 1.0) - energy * Q
        assert np.max(np.abs(resid)) < 1e-6


def test_keller_profile_normalized():
    for q in (2.5, 4.0, 6.0):
        xs = np.linspace(-60.0, 60.0, 120001)
        mass = np.trapezoid(keller_profile(q, xs) ** 2, xs)
        assert mass == pytest.approx(1.0, rel=1e-10)


def test_solver_matches_closed_form(gs_q4_d1_wide):
    gs = gs_q4_d1_wide
    exact = keller_profile(4.0, gs.grid.nodes)
    assert np.max(np.abs(gs.Q.values - exact)) < 1e-6
    k = (3.0 / 16.0) ** (1.0 / 3.0)
    assert gs.norm_q == pytest.approx((k / 3.0) ** 0.25, abs=1e-6)
    # h^2 eigenvalue bias at h = 0.005 is ~1e-7
    assert gs.E == pytest.approx(-((3.0 / 16.0) ** (2.0 / 3.0)), abs=5e-7)


def test_solver_q3(gs_q3_d1):
    gs = gs_q3_d1
    _, _, energy = keller_parameters(3.0)
    assert gs.E == pytest.approx(energy, rel=1e-6)
    exact = keller_profile(3.0, gs.grid.nodes)
    assert np.max(np.abs(gs.Q.values - exact)) < 1e-4


# ---------------------------------------------------------------------------
# d = 3 shooting oracle
# ---------------------------------------------------------------------------


def _shooting_energy(q, d, rmax=25.0):
    """|E| from an independent ODE shooting solve of the scale-free
    profile equation u'' + ((d-1)/r) u' = u - u^(q-1)."""

    def rhs(r, y):
        u, up = y
        uu = max(u, 0.0)
        drift = 0.0 if r == 0.0 else ((d - 1.0) / r) * up
        return [up, u - uu ** (q - 1.0) - drift]

    def endpoint(a):
        sol = solve_ivp(rhs, (1e-8, rmax), [a, 0.0], rtol=1e-11, atol=1e-13, max_step=0.05)
        return sol.y[0, -1]

    lo, hi = 1.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if endpoint(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    sol = solve_ivp(rhs, (1e-8, rmax), [a, 0.0], rtol=1e-11, atol=1e-13, max_step=0.02)
    u = np.clip(sol.y[0], 0.0, None)
    mq = surface_area(d) * np.trapezoid(u**q * sol.t ** (d - 1), sol.t)
    return mq ** (-2.0 * (q - 2.0) / (2.0 * q - d * (q - 2.0)))


def test_shooting_oracle_d1():
    # sanity of the oracle itself against the closed form
    assert _shooting_energy(4.0, 1) == pytest.approx((3.0 / 16.0) ** (2.0 / 3.0), rel=1e-4)


def test_solver_against_shooting_d3(gs_q103_d3):
    assert abs(gs_q103_d3.E) == pytest.approx(_shooting_energy(10.0 / 3.0, 3), rel=5e-4)


def test_solver_against_shooting_d3_q4(gs_q4_d3):
    assert abs(gs_q4_d3.E) == pytest.approx(_shooting_energy(4.0, 3), rel=5e-4)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_virial_identity(gs_q4_d1, gs_q3_d1, gs_q103_d3, gs_q4_d3):
    for gs in (gs_q4_d1, gs_q3_d1, gs_q103_d3, gs_q4_d3):
        measured, predicted = virial_norm_check(gs)
        assert measured == pytest.approx(predicted, rel=1e-5)


def test_profile_is_positive_decreasing(gs_q4_d1):
    Q = gs_q4_d1.Q.values
    assert np.all(Q >= 0.0)
    assert np.all(np.diff(Q) <= 1e-12)


def test_el_residual_small(gs_q4_d1, gs_q103_d3):
    assert gs_q4_d1.el_residual < 1e-8
    assert gs_q103_d3.el_residual < 1e-8


def test_scaling_identity_consistency(gs_q4_d1):
    gs = gs_q4_d1
    e = Exponents.from_q(4.0, 1)
    s = interpolation_constant_from_c_prime(gs.C_prime, e.theta)
    assert s == pytest.approx(gs.S)
    # invert back: C' = theta^(1/(1-theta)) (1-theta) S^(-1/(1-theta))
    th = e.theta
    back = th ** (1.0 / (1.0 - th)) * (1.0 - th) * s ** (-1.0 / (1.0 - th))
    assert back == pytest.approx(gs.C_prime, rel=1e-12)


def test_gns_energy_minimized_at_Q(gs_q4_d1):
    gs = gs_q4_d1
    assert gns_energy(gs.Q, 4.0) == pytest.approx(gs.E, abs=1e-9)
    rng = np.random.default_rng(10)
    w = gs.grid.quad_weights
    for _ in range(10):
        vals = gs.Q.values * (1.0 + 0.2 * rng.standard_normal(gs.grid.n))
        vals = np.abs(vals)
        vals /= np.sqrt(w @ vals**2)
        assert gns_energy(GridFunction(gs.grid, vals), 4.0) >= gs.E - 1e-10


@given(width=st.floats(0.5, 4.0), amp=st.floats(0.2, 2.0))
@settings(max_examples=30, deadline=None)
def test_gns_inequality_gaussians(gs_q4_d1, width, amp):
    # E[psi] >= E for any unit-mass trial function
    gs = gs_q4_d1
    g = gs.grid
    vals = amp * np.exp(-(g.nodes**2) / (2.0 * width**2))
    vals /= np.sqrt(g.quad_weights @ vals**2)
    assert gns_energy(GridFunction(g, vals), 4.0) >= gs.E - 1e-10


def test_keller_constant_routes_agree(gs_q4_d1):
    kc = keller_constant(1.5, 1, gs_q4_d1)
    assert kc.mismatch < 1e-6
    assert kc.value == pytest.approx((3.0 / 16.0) ** (2.0 / 3.0), rel=1e-5)


def test_keller_constant_wrong_exponents(gs_q4_d1):
    with pytest.raises(InvalidExponentError):
        keller_constant(1.0, 1, gs_q4_d1)


def test_optimal_potential_nodal_exactness(gs_q4_d1):
    gs = gs_q4_d1
    W = optimal_potential(gs)
    expect = -((gs.Q.values / gs.norm_q) ** 2)
    assert np.array_equal(W.values, expect)
    with pytest.raises(UnsupportedShiftError):
        optimal_potential(gs, 1.0, 2.0)
    with pytest.raises(PreconditionError):
        optimal_potential(gs, -1.0)


def test_optimal_potential_on_line_grid(gs_q4_d1):
    # -2 sech^2(x) is the member with b = 1/kappa
    gs = gs_q4_d1
    line = Grid.line(15.0, 1500)
    _, kappa, _ = keller_parameters(4.0)
    W = optimal_potential(gs, 1.0 / kappa, 0.0, line)
    expect = -2.0 / np.cosh(line.nodes) ** 2
    assert np.max(np.abs(W.values - expect)) < 1e-4


def test_profile_interpolant(gs_q4_d1):
    gs = gs_q4_d1
    prof = profile_interpolant(gs)
    r = np.array([0.0, 0.5, 3.0, 19.0, 25.0])
    vals = prof(r)
    exact = keller_profile(4.0, r)
    assert vals[-1] == 0.0  # beyond the grid
    assert np.max(np.abs(vals[:3] - exact[:3])) < 1e-4
    assert np.all(prof(-r) == vals)  # even continuation


def test_groundstate_json_roundtrip(gs_q3_d1):
    back = GroundState.from_json(gs_q3_d1.to_json())
    assert back.E == gs_q3_d1.E
    assert back.q == gs_q3_d1.q
    assert np.array_equal(back.Q.values, gs_q3_d1.Q.values)


def test_solver_rejects_bad_grid():
    with pytest.raises(PreconditionError):
        solve_ground_state(4.0, 1, Grid.line(20.0, 100))
    with pytest.raises(PreconditionError):
        solve_ground_state(4.0, 3, Grid.radial(2, 20.0, 100))


def test_decay_warning_on_small_domain():
    with pytest.warns(UserWarning):
        solve_ground_state(4.0, 1, Grid.radial(1, 8.0, 800))


def test_resolution_convergence_of_energy():
    errs = []
    exact = -((3.0 / 16.0) ** (2.0 / 3.0))
    for n in (1000, 2000):
        gs = solve_quiet(4.0, 1, 20.0, n)
        errs.append(abs(gs.E - exact))
    assert errs[1] < 0.35 * errs[0]


def _profile_interpolant_reference(gs):
    """profile_interpolant as it was written before its extra passes went:
    the NaNs of extrapolate=False cleared, then Q(r0) put below r0."""
    from scipy.interpolate import CubicSpline

    r = gs.grid.nodes
    spline = CubicSpline(r, gs.Q.values, bc_type="natural", extrapolate=False)
    r0, rmax = r[0], r[-1]
    q0 = gs.Q.values[0]

    def evaluate(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.where(x <= rmax, np.nan_to_num(spline(np.minimum(x, rmax))), 0.0)
        out = np.where(x < r0, q0, out)
        return np.clip(out, 0.0, None)

    return evaluate


@pytest.mark.parametrize("fixture", ["gs_q4_d1", "gs_q3_d1", "gs_q103_d3", "gs_q4_d3"])
def test_profile_interpolant_matches_reference_bit_for_bit(request, fixture):
    gs = request.getfixturevalue(fixture)
    r = gs.grid.nodes
    r0, rmax, h = r[0], r[-1], gs.grid.spacing
    rng = np.random.default_rng(11)
    lattice = h * np.arange(-4000, 4001)
    inputs = [
        r, -r, np.array([0.0, r0 / 2, -r0 / 2, r0, rmax, -rmax, 1.5 * rmax, np.nan,
                         np.inf, -np.inf]),
        rng.uniform(-1.2 * rmax, 1.2 * rmax, 200_000),
        *(b * np.abs(lattice - a) for b, a in ((0.5, 0.0), (1.0, 0.37), (2.0, -3.1))),
    ]
    new, old = profile_interpolant(gs), _profile_interpolant_reference(gs)
    for x in inputs:
        assert np.array_equal(new(x), old(x), equal_nan=True)
    assert new(0.3) == old(0.3)
