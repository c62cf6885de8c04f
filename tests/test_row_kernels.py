"""Row-wise kernels against one-row calls of the public functions.

Every public per-pair function is the one-row case of a kernel over an
(R, n) array, so a batch must give each row exactly what the public
function gives that row alone.  Equality here is bit for bit.
"""

import numpy as np
import pytest

from eigstab.exceptions import DegenerateInputError
from eigstab.holder import (
    convexity_rows,
    duality_continuity_check,
    duality_continuity_rows,
    h_functional,
    holder_report,
    holder_rows,
    power_comparison_check,
    power_comparison_rows,
    remainder_bounds,
    remainder_rows,
    uniform_convexity_gap,
)
from eigstab.measure import (
    MeasFunction,
    WeightedMeasure,
    conjugate_exponent,
    duality_map,
    duality_map_rows,
    lp_norm,
    lp_norm_rows,
    pairing,
    pairing_rows,
)
from eigstab.sampling import (
    random_nonnegative_unit,
    random_unit_function,
    smooth_rows,
    smoothed_noise,
    unit_rows,
)

N = 16


@pytest.fixture
def mu():
    return WeightedMeasure(np.random.default_rng(40).uniform(0.5, 1.5, N))


def _complex_rows():
    """Complex rows: generic ones, one with a zero entry, and one that is
    real-valued by the is_real rule (|imag| <= 1e-8) without being real."""
    rng = np.random.default_rng(41)
    rows = rng.standard_normal((5, N)) + 1j * rng.standard_normal((5, N))
    rows[1, 3] = 0.0
    rows[3] = rng.standard_normal(N) + 1j * 1e-9 * rng.standard_normal(N)
    return rows


def _real_rows():
    rows = np.random.default_rng(42).standard_normal((4, N))
    rows[2, 5] = 0.0
    return rows


def _unit(mu, rows, p):
    return unit_rows(rows, mu.weights, p)


def _same(batch, one):
    """Bit-for-bit equality of a batch row and a one-row result."""
    return np.array_equal(np.asarray(batch), np.asarray(one))


def _fns(mu, rows):
    return [MeasFunction(mu, r) for r in rows]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("rows", [_real_rows(), _complex_rows()], ids=["real", "complex"])
def test_lp_norm_rows(mu, rows, p):
    batch = lp_norm_rows(rows, mu.weights, p)
    for b, f in zip(batch, _fns(mu, rows)):
        assert b == lp_norm(f, p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("rows", [_real_rows(), _complex_rows()], ids=["real", "complex"])
def test_duality_map_rows(mu, rows, p):
    batch = duality_map_rows(rows, mu.weights, p)
    for b, f in zip(batch, _fns(mu, rows)):
        one = duality_map(f, p).values
        assert _same(b, one)
        if not np.iscomplexobj(one):
            assert not np.any(np.imag(b))
    zero = (1, 3) if np.iscomplexobj(rows) else (2, 5)
    assert batch[zero] == 0.0


def test_duality_map_rows_real_valued_complex_row(mu):
    rows = _complex_rows()
    alone = duality_map_rows(rows[3:4], mu.weights, 3.0)
    assert not np.iscomplexobj(alone)
    assert not np.iscomplexobj(duality_map(MeasFunction(mu, rows[3]), 3.0).values)
    mixed = duality_map_rows(rows, mu.weights, 3.0)
    assert np.iscomplexobj(mixed) and not np.any(mixed[3].imag)
    assert np.any(mixed[0].imag)


def test_pairing_rows(mu):
    f_rows, g_rows = _complex_rows(), _complex_rows()[::-1]
    batch = pairing_rows(f_rows, g_rows, mu.weights)
    for b, f, g in zip(batch, _fns(mu, f_rows), _fns(mu, g_rows)):
        assert complex(b) == pairing(f, g)


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0])
def test_holder_rows(mu, p):
    pc = conjugate_exponent(p)
    f_rows = _unit(mu, _complex_rows(), p)
    g_rows = _unit(mu, _complex_rows()[::-1], pc)
    batch = holder_rows(f_rows, g_rows, mu.weights, p)
    for r, (f, g) in enumerate(zip(_fns(mu, f_rows), _fns(mu, g_rows))):
        rep = holder_report(f, g, p)
        one = (rep.lhs, rep.deficit, rep.bound_main1, rep.bound_main2, rep.theta)
        assert tuple(x[r] for x in batch) == one


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("make", [_real_rows, _complex_rows], ids=["real", "complex"])
def test_convexity_rows(mu, make, p):
    u_rows = _unit(mu, make(), p)
    v_rows = _unit(mu, make()[::-1], p)
    gap, lower = convexity_rows(u_rows, v_rows, mu.weights, p)
    for r, (u, v) in enumerate(zip(_fns(mu, u_rows), _fns(mu, v_rows))):
        assert (gap[r], lower[r]) == uniform_convexity_gap(u, v, p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("make", [_real_rows, _complex_rows], ids=["real", "complex"])
def test_duality_continuity_rows(mu, make, p):
    f_rows, g_rows = make(), 0.5 * make()[::-1] + 0.5 * make()
    lhs, rhs = duality_continuity_rows(f_rows, g_rows, mu.weights, p)
    for r, (f, g) in enumerate(zip(_fns(mu, f_rows), _fns(mu, g_rows))):
        assert (lhs[r], rhs[r]) == duality_continuity_check(f, g, p)


@pytest.mark.parametrize("q", [2.4, 3.0, 4.0, 5.0])
def test_power_comparison_rows(mu, q):
    f_rows, g_rows = _complex_rows(), _complex_rows()[::-1]
    batch = power_comparison_rows(f_rows, g_rows, mu.weights, q)
    assert (batch[2] is None) == (q < 4.0)
    for r, (f, g) in enumerate(zip(_fns(mu, f_rows), _fns(mu, g_rows))):
        pw = power_comparison_check(f, g, q)
        one = (pw.quad_lhs, pw.quad_rhs, pw.high_lhs, pw.high_rhs)
        assert tuple(None if x is None else x[r] for x in batch) == one


@pytest.mark.parametrize("q", [3.0, 4.0, 5.0])
def test_remainder_rows(mu, q):
    psi_rows = _unit(mu, _complex_rows()[:4], q)
    u_rows = _unit(mu, np.abs(_real_rows()), q / (q - 2.0))
    B, H = remainder_rows(psi_rows, u_rows, mu.weights, q)
    for r, (psi, U) in enumerate(zip(_fns(mu, psi_rows), _fns(mu, u_rows))):
        assert (B[r], H[r]) == remainder_bounds(psi, U, q)
        assert H[r] == h_functional(psi, U, q)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "weighted"])
def test_remainder_rows_at_q4_is_the_low_branch_formula(mu, uniform):
    # at q = 4 the q >= 4 bound, which the kernel takes, is the 2 < q < 4
    # bound (q-2)/8 ||psi||_q^2 || |psi|^2/||psi||_q^2 - U^(2/(q-2)) ||_(q/2)^2
    # bit for bit: both constants are 1/4, both powers squares, both norms L^2
    q = 4.0
    if uniform:
        mu = WeightedMeasure.uniform_probability(N)
    psi_rows = _unit(mu, _complex_rows(), q)
    u_rows = _unit(mu, np.abs(_real_rows()[[0, 1, 2, 3, 0]]), q / (q - 2.0))
    B, _ = remainder_rows(psi_rows, u_rows, mu.weights, q)
    for r, (psi, U) in enumerate(zip(_fns(mu, psi_rows), _fns(mu, u_rows))):
        nq = lp_norm(psi, q)
        diff = (np.abs(psi.values) / nq) ** 2 - U.values.real ** (2.0 / (q - 2.0))
        low = (q - 2.0) / 8.0 * nq**2 * lp_norm(MeasFunction(mu, diff), q / 2.0) ** 2
        assert B[r] == low


def test_zero_row_is_degenerate(mu):
    rows = _complex_rows()
    rows[2] = 0.0
    w = mu.weights
    with pytest.raises(DegenerateInputError):
        duality_map_rows(rows, w, 3.0)
    with pytest.raises(DegenerateInputError):
        duality_continuity_rows(rows, rows[::-1], w, 3.0)
    with pytest.raises(DegenerateInputError):
        power_comparison_rows(rows[::-1], rows, w, 3.0)
    with pytest.raises(DegenerateInputError):
        remainder_rows(rows, _unit(mu, np.abs(_real_rows()[:1]), 3.0), w, 3.0)
    with pytest.raises(DegenerateInputError):
        unit_rows(rows, w, 2.0)
    with pytest.raises(DegenerateInputError):
        duality_map(MeasFunction(mu, rows[2]), 3.0)


class _ZeroNormals:
    """A generator whose every normal is 0; it gives up after 100 calls, so
    code that redraws degenerate samples fails instead of looping."""

    calls = 0

    def standard_normal(self, size=None):
        self.calls += 1
        if self.calls > 100:
            raise RuntimeError("redrawing forever")
        return np.zeros(size)


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng, mu: random_unit_function(rng, mu, 2.5),
        lambda rng, mu: random_unit_function(rng, mu, 2.5, complex_values=True),
        lambda rng, mu: random_nonnegative_unit(rng, mu, 2.5),
    ],
    ids=["real", "complex", "nonnegative"],
)
def test_degenerate_draw_raises(mu, draw):
    rng = _ZeroNormals()
    with pytest.raises(DegenerateInputError):
        draw(rng, mu)
    assert rng.calls <= 2  # one draw, two for a complex function


def test_smooth_rows_is_convolve():
    raw = np.random.default_rng(43).standard_normal((7, 3, 68))
    kernel = np.ones(5) / 5
    batch = smooth_rows(raw)
    strided = smooth_rows(raw[1::3])  # the rows of one exponent group
    for i in range(7):
        for j in range(3):
            one = np.convolve(raw[i, j], kernel, mode="valid")
            assert np.array_equal(batch[i, j], one)
            if i % 3 == 1:
                assert np.array_equal(strided[i // 3, j], one)


def test_chunk_draw_matches_per_sample_draws(mu):
    """One standard_normal call for a chunk is the stream of the
    per-sample calls: rows 0-1 of a sample are f, row 8 is U."""
    p = 2.5
    batch_rng, loop_rng = np.random.default_rng(44), np.random.default_rng(44)
    raw = np.empty((3, 9, N + 4))
    batch_rng.standard_normal(out=raw)
    rows = smooth_rows(raw)
    for s in range(3):
        f = random_unit_function(loop_rng, mu, p, complex_values=True)
        for _ in range(3):  # g (two draws) and u
            smoothed_noise(loop_rng, N)
        v = random_unit_function(loop_rng, mu, p)
        for _ in range(2):  # psi
            smoothed_noise(loop_rng, N)
        U = random_nonnegative_unit(loop_rng, mu, p)
        assert _same(_unit(mu, rows[s, 0:1] + 1j * rows[s, 1:2], p)[0], f.values)
        assert _same(_unit(mu, rows[s, 5:6], p)[0], v.values)
        assert _same(_unit(mu, np.abs(rows[s, 8:9]), p)[0], U.values)
