"""Hoelder remainder bounds, convexity gaps, and their saturation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigstab.exceptions import InvalidExponentError, PreconditionError
from eigstab.holder import (
    aligning_phase,
    duality_continuity_check,
    fuzz_inequalities,
    h_functional,
    holder_report,
    holder_rows,
    power_comparison_check,
    remainder_bounds,
    uniform_convexity_gap,
)
from eigstab.measure import (
    MeasFunction,
    WeightedMeasure,
    conjugate_exponent,
    duality_map,
    lp_norm,
)
from eigstab.sampling import random_nonnegative_unit, random_unit_function


def _unit(mu, vals, p):
    f = mu.function(vals)
    return MeasFunction(mu, np.asarray(vals) / lp_norm(f, p))


def test_aligning_phase():
    assert aligning_phase(1.0) == 0.0
    assert aligning_phase(0.0) == 0.0
    z = np.exp(0.7j)
    th = aligning_phase(z)
    assert np.exp(1j * th) * z == pytest.approx(1.0)


def test_holder_report_saturation():
    # g = D_p(f) makes Hoelder an equality; deficit and both bounds vanish
    rng = np.random.default_rng(11)
    mu = WeightedMeasure(rng.uniform(0.5, 1.5, 32))
    p = 3.0
    f = random_unit_function(rng, mu, p, complex_values=True)
    g = duality_map(f, p)
    rep = holder_report(f, g, p)
    assert rep.deficit == pytest.approx(0.0, abs=1e-12)
    assert rep.bound_main1 == pytest.approx(0.0, abs=1e-10)
    assert rep.bound_main2 == pytest.approx(0.0, abs=1e-10)


def test_holder_report_phase_invariance():
    rng = np.random.default_rng(12)
    mu = WeightedMeasure.uniform_probability(16)
    f = random_unit_function(rng, mu, 2.5, complex_values=True)
    g = random_unit_function(rng, mu, conjugate_exponent(2.5), complex_values=True)
    rep = holder_report(f, g, 2.5)
    rep_rot = holder_report(MeasFunction(mu, f.values * np.exp(0.9j)), g, 2.5)
    assert rep_rot.deficit == pytest.approx(rep.deficit, abs=1e-12)
    assert rep_rot.bound_main1 == pytest.approx(rep.bound_main1, abs=1e-12)


def test_holder_report_preconditions():
    mu = WeightedMeasure.uniform_probability(8)
    with pytest.raises(InvalidExponentError):
        holder_report(mu.constant(1.0), mu.constant(1.0), 1.5)
    ones = np.ones((3, 8))  # rows of unit norm in every L^p
    with pytest.raises(InvalidExponentError, match="p >= 2, got 1.5"):
        holder_rows(ones, 1j * ones, mu.weights, 1.5)
    f = mu.constant(2.0)  # not unit norm
    with pytest.raises(PreconditionError):
        holder_report(f, mu.constant(1.0), 2.0)


@pytest.mark.parametrize("exponents", [(1.5,), (2.0, 1.5)])
def test_fuzzer_refuses_p_below_2(exponents):
    # main1 and main2 are claimed for p >= 2 only; the kernel the fuzzer
    # shares with holder_rows refuses, so no violation is reported below it
    with pytest.raises(InvalidExponentError, match="p >= 2, got 1.5"):
        fuzz_inequalities(10, 0, exponents=exponents)


def test_sharpness_family_two_atoms():
    """Two-atom family showing the main2 constant cannot beat 1/p.

    On atoms of weight (1-delta, delta): f = (1, 1), g supported on the
    first atom with unit conjugate norm.  As delta -> 0 the ratio
    deficit / ||f - D_p'(g)||_p^p approaches 1/p from below.
    """
    delta = 1e-3
    for p in (2.0, 2.5, 4.0):
        pc = conjugate_exponent(p)
        mu = WeightedMeasure(np.array([1.0 - delta, delta]))
        f = mu.function([1.0, 1.0])
        assert lp_norm(f, p) == pytest.approx(1.0)
        g = mu.function([(1.0 - delta) ** (-1.0 / pc), 0.0])
        assert lp_norm(g, pc) == pytest.approx(1.0, abs=1e-13)
        deficit = 1.0 - abs(
            np.sum(mu.weights * f.values * g.values)
        )
        dg = duality_map(g, pc)
        dist = lp_norm(f - dg, p)
        ratio = deficit / dist**p
        assert 0.0 < ratio <= 1.1 / p


def test_convexity_gap_equal_points():
    mu = WeightedMeasure.uniform_probability(8)
    rng = np.random.default_rng(5)
    u = random_unit_function(rng, mu, 3.0)
    gap, lower = uniform_convexity_gap(u, u, 3.0)
    assert gap == pytest.approx(0.0, abs=1e-12)
    assert lower == pytest.approx(0.0, abs=1e-12)


def test_convexity_gap_antipodal():
    mu = WeightedMeasure.uniform_probability(8)
    rng = np.random.default_rng(6)
    for p in (1.5, 2.0, 3.0):
        u = random_unit_function(rng, mu, p)
        v = MeasFunction(mu, -u.values)
        gap, lower = uniform_convexity_gap(u, v, p)
        assert gap == pytest.approx(1.0)
        assert lower <= gap + 1e-12


def test_remainder_bounds_saturation():
    # U = |psi|^(q-2)/||psi||_q^(q-2) zeroes the gap functional
    rng = np.random.default_rng(7)
    mu = WeightedMeasure.uniform_probability(24)
    for q in (3.0, 4.0, 5.0):
        psi = random_unit_function(rng, mu, q, complex_values=True)
        u_vals = np.abs(psi.values) ** (q - 2.0)
        U = MeasFunction(mu, u_vals / lp_norm(mu.function(u_vals), q / (q - 2.0)))
        assert h_functional(psi, U, q) == pytest.approx(0.0, abs=1e-12)
        B, H = remainder_bounds(psi, U, q)
        assert H == pytest.approx(0.0, abs=1e-12)
        assert B <= H + 1e-10


def test_remainder_bounds_branch_q4():
    rng = np.random.default_rng(8)
    mu = WeightedMeasure.uniform_probability(24)
    psi = random_unit_function(rng, mu, 4.0, complex_values=True)
    U = random_nonnegative_unit(rng, mu, 2.0)
    # at q = 4 the two branches' bounds are one number
    # (tests/test_row_kernels.py checks it bit for bit)
    B, H = remainder_bounds(psi, U, 4.0)
    assert 0.0 < B <= H + 1e-10


def test_h_functional_rejects_bad_U():
    mu = WeightedMeasure.uniform_probability(8)
    psi = mu.constant(1.0)
    with pytest.raises(PreconditionError):
        h_functional(psi, mu.function([-1.0] + [1.0] * 7), 4.0)
    with pytest.raises(PreconditionError):
        h_functional(psi, mu.constant(3.0), 4.0)  # wrong dual norm


def test_duality_continuity_identical():
    mu = WeightedMeasure.uniform_probability(8)
    rng = np.random.default_rng(9)
    f = random_unit_function(rng, mu, 3.0, complex_values=True)
    lhs, rhs = duality_continuity_check(f, f, 3.0)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


@given(
    seed=st.integers(0, 10_000),
    p=st.sampled_from([2.0, 2.5, 3.0, 4.0, 6.0]),
)
@settings(max_examples=150, deadline=None)
def test_fuzz_remainders_never_exceed_deficit(seed, p):
    rng = np.random.default_rng(seed)
    mu = WeightedMeasure.uniform_probability(32)
    pc = conjugate_exponent(p)
    f = random_unit_function(rng, mu, p, complex_values=True)
    g = random_unit_function(rng, mu, pc, complex_values=True)
    rep = holder_report(f, g, p)
    assert rep.deficit >= -1e-12
    assert rep.bound_main1 <= rep.deficit + 1e-10
    assert rep.bound_main2 <= rep.deficit + 1e-10


@given(
    seed=st.integers(0, 10_000),
    p=st.sampled_from([1.3, 1.5, 2.0, 2.5, 3.0, 4.0]),
)
@settings(max_examples=150, deadline=None)
def test_fuzz_convexity_and_duality(seed, p):
    rng = np.random.default_rng(seed)
    mu = WeightedMeasure.uniform_probability(32)
    u = random_unit_function(rng, mu, p)
    v = random_unit_function(rng, mu, p)
    gap, lower = uniform_convexity_gap(u, v, p)
    assert lower <= gap + 1e-10
    lhs, rhs = duality_continuity_check(u, v, p)
    assert lhs <= rhs + 1e-10


@given(
    seed=st.integers(0, 10_000),
    q=st.sampled_from([2.5, 3.0, 10.0 / 3.0, 4.0, 5.0, 6.0]),
)
@settings(max_examples=150, deadline=None)
def test_fuzz_gap_functional_and_powers(seed, q):
    rng = np.random.default_rng(seed)
    mu = WeightedMeasure.uniform_probability(32)
    psi = random_unit_function(rng, mu, q, complex_values=True)
    U = random_nonnegative_unit(rng, mu, q / (q - 2.0))
    B, H = remainder_bounds(psi, U, q)
    assert H >= -1e-12
    assert B <= H + 1e-10
    f = random_unit_function(rng, mu, q, complex_values=True)
    g = random_unit_function(rng, mu, q, complex_values=True)
    pw = power_comparison_check(f, g, q)
    assert pw.quad_lhs <= pw.quad_rhs + 1e-10
    if pw.high_lhs is not None:
        assert pw.high_lhs <= pw.high_rhs + 1e-10
