"""End-to-end acceptance gate.

Each test prints one machine-greppable PASS/FAIL line (on the real
terminal, bypassing capture) and then asserts, so a plain ``pytest -v``
run shows the verdicts inline.
"""

import json
import time

import numpy as np
import pytest

from eigstab.cli import main as cli_main
from eigstab.grid import (
    Grid,
    GridFunction,
    gradient_squared_integral,
    norm_l2,
)
from eigstab.groundstate import keller_parameters, keller_profile
from eigstab.hessian import build_channel, kernel_report, local_stability_probe
from eigstab.measure import (
    WeightedMeasure,
    conjugate_exponent,
    duality_map,
    lp_norm,
)
from eigstab.spectral import lowest_eigenpair
from eigstab.stability import (
    deficit_decomposition,
    line_sweep_corpus,
    radial_sweep_corpus,
    run_sweep,
)

from conftest import solve_quiet

C_REF = (3.0 / 16.0) ** (2.0 / 3.0)


def _verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"acceptance criterion {n}: {detail}"


def test_acceptance_1_sharp_constant_d1(capsys, tmp_path):
    out = tmp_path / "constants.json"
    t0 = time.perf_counter()
    code = cli_main(
        ["constants", "--gamma", "1.5", "--d", "1",
         "--grid-l", "20", "--grid-n", "4000", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    err_direct = abs(float(doc["C"]) / C_REF - 1.0)
    err_eigen = abs(float(doc["C_eigen_route"]) / C_REF - 1.0)
    ok = code == 0 and err_direct < 1e-5 and err_eigen < 1e-5 and elapsed < 10.0
    _verdict(
        capsys, 1,
        ok,
        f"rel err direct {err_direct:.2e}, eigen route {err_eigen:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_solver_matches_closed_form(capsys, gs_q4_d1_wide):
    gs = gs_q4_d1_wide
    exact = keller_profile(4.0, gs.grid.nodes)
    sup = float(np.max(np.abs(gs.Q.values - exact)))
    kappa = keller_parameters(4.0)[1]
    norm_err = abs(gs.norm_q - (kappa / 3.0) ** 0.25)
    ok = sup <= 1e-6 and norm_err <= 1e-6
    _verdict(capsys, 2, ok, f"sup error {sup:.2e}, norm_q error {norm_err:.2e}")


def test_acceptance_3_second_order_convergence(capsys):
    errs = []
    for n in (1000, 2000, 4000):
        g = Grid.line(20.0, n)
        V = GridFunction(g, -2.0 / np.cosh(g.nodes) ** 2)
        errs.append(abs(lowest_eigenpair(V).lam + 1.0))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8
    _verdict(capsys, 3, ok, f"error ratios {r1:.3f}, {r2:.3f} under h -> h/2")


def test_acceptance_4_holder_suite(capsys, tmp_path):
    out = tmp_path / "holder.json"
    t0 = time.perf_counter()
    code = cli_main(
        ["holder-verify", "--samples", "10000", "--seed", "0", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    violations = doc["violations"]

    # two-atom sharpness family at delta = 1e-3: the duality-deficit ratio
    # approaches its ceiling 1/p from below
    delta = 1e-3
    ratios_ok = True
    worst = ""
    for p in (2.0, 2.5, 3.0, 4.0, 6.0):
        pc = conjugate_exponent(p)
        mu = WeightedMeasure(np.array([1.0 - delta, delta]))
        f = mu.function([1.0, 1.0])
        g = mu.function([(1.0 - delta) ** (-1.0 / pc), 0.0])
        deficit = 1.0 - abs(np.sum(mu.weights * f.values * g.values))
        dist = lp_norm(f - duality_map(g, pc), p)
        ratio = deficit / dist**p
        if not (0.0 < ratio <= 1.1 / p):
            ratios_ok = False
            worst = f"; p={p:g} ratio {ratio:.3g} outside (0, {1.1 / p:.3g}]"
    ok = code == 0 and violations == 0 and elapsed < 60.0 and ratios_ok
    _verdict(
        capsys, 4,
        ok,
        f"{doc['samples']} samples, {violations} violations, {elapsed:.1f}s{worst}",
    )


# (q, d, extent, coarse n, fine n); boxes sized so the profile tail clears
# the boundary (width ~ 1/sqrt(|E|) spans three orders of magnitude)
_KERNEL_CASES = [
    (4.0, 1, 20.0, 2000, 4000),
    (3.0, 1, 20.0, 2000, 4000),
    (4.0, 3, 1500.0, 3000, 6000),
    (10.0 / 3.0, 3, 250.0, 4000, 8000),
]


def test_acceptance_5_hessian_kernel(capsys):
    failures = []
    details = []
    for q, d, extent, n_coarse, n_fine in _KERNEL_CASES:
        tag = f"(q={q:.3g}, d={d})"
        gs_c = solve_quiet(q, d, extent, n_coarse)
        gs_f = solve_quiet(q, d, extent, n_fine)
        rep = kernel_report(gs_f)
        if rep.kernel_dim != d + 1:
            failures.append(f"{tag} kernel dim {rep.kernel_dim} != {d + 1}")
        if rep.anomalies:
            failures.append(f"{tag} anomalies {rep.anomalies}")
        for c in rep.channels:
            if c.overlap is not None and c.overlap < 0.999:
                failures.append(f"{tag} ell={c.ell} overlap {c.overlap:.4f}")
        for ell in range(2 if d == 1 else 3):
            ch_c = build_channel(gs_c, ell)
            ch_f = build_channel(gs_f, ell)
            others = [e for e in ch_f.lowest_eigs if abs(e) > ch_f.tol_kernel]
            if others and min(others) <= 10.0 * ch_f.tol_kernel:
                failures.append(
                    f"{tag} ell={ell} eigenvalue {min(others):.3e} "
                    f"within 10x tol {ch_f.tol_kernel:.3e}"
                )
            if ell < 2:
                # kernel channels: near-zero eigenvalue must shrink under
                # refinement (second order), floored at the solver residual
                nz_c = abs(ch_c.lowest_eigs[0])
                nz_f = abs(ch_f.lowest_eigs[0])
                cap = max(0.35 * nz_c, 1e-8)
                if nz_f > cap:
                    failures.append(
                        f"{tag} ell={ell} near-zero {nz_f:.2e} "
                        f"did not shrink from {nz_c:.2e}"
                    )
        details.append(f"{tag} dim {rep.kernel_dim}")
    ok = not failures
    _verdict(capsys, 5, ok, "; ".join(failures) if failures else ", ".join(details))


def test_acceptance_6_local_stability(capsys, gs_q4_d1):
    gs = gs_q4_d1
    g = gs.grid
    w = g.quad_weights
    rng = np.random.default_rng(6)
    t_values = (1e-3, 3e-3, 1e-2)
    min_c = np.inf
    max_spread = 0.0
    failures = 0
    for _ in range(100):
        vals = np.exp(-(g.nodes**2) / 8.0) * rng.standard_normal(g.n)
        vals = np.convolve(vals, np.ones(9) / 9.0, mode="same")
        # orthogonal to the kernel: the radial grid carries even profiles
        # only, so the kernel here is spanned by Q alone
        vals -= (w @ (vals * gs.Q.values)) / (w @ gs.Q.values**2) * gs.Q.values
        f = GridFunction(g, vals)
        h1 = np.sqrt(norm_l2(f) ** 2 + gradient_squared_integral(f))
        eta = GridFunction(g, vals / h1)
        ratios = []
        for t in t_values:
            probe = local_stability_probe(gs, eta, t)
            if probe.deficit <= 0.0 or probe.second_difference <= 0.0:
                failures += 1
            ratios.append(probe.deficit / t**2)
            if probe.distance_sq > 0.0:
                min_c = min(min_c, probe.deficit / probe.distance_sq)
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        max_spread = max(max_spread, spread)
        if spread >= 0.1:
            failures += 1
    ok = failures == 0 and min_c > 0.0
    _verdict(
        capsys, 6,
        ok,
        f"100 directions, empirical c >= {min_c:.4f}, "
        f"max quadratic spread {max_spread:.3f}",
    )


def _resampled(V, transform, jacobian=1.0):
    g = V.grid
    vals = jacobian * np.interp(transform(g.nodes), g.nodes, V.values, left=0.0, right=0.0)
    return GridFunction(g, vals)


def _invariance_violations(reports, variant_reports, label):
    bad = []
    for (fam, par, rep), (_, _, rep_v) in zip(reports, variant_reports):
        for field in ("ratio", "deficit", "distance"):
            a, b = getattr(rep, field), getattr(rep_v, field)
            # 2% relative, with an absolute allowance at the O(h^2)
            # discretization-bias scale for near-optimal members whose
            # deficit is itself comparable to that bias
            if abs(a - b) > max(0.02 * max(abs(a), abs(b)), 1e-5):
                bad.append(f"{label} {fam} {par:g}: {field} {a:.4g} vs {b:.4g}")
    return bad


def test_acceptance_7_main_sweep(capsys, line_grid, gs_q4_d1, gs_q103_d3):
    failures = []
    line_corpus = line_sweep_corpus(line_grid)
    radial_corpus = radial_sweep_corpus(gs_q103_d3.grid, gs_q103_d3)
    sweeps = [
        ("d=1", line_corpus, 1.5, 1, gs_q4_d1),
        ("d=3", radial_corpus, 1.0, 3, gs_q103_d3),
    ]
    mins = {}
    results = {}
    for label, corpus, gamma, d, gs in sweeps:
        res = run_sweep(corpus, gamma, d, gs)
        results[label] = res
        mins[label] = res.min_empirical_c
        for fam, par, rep in res.rows:
            if rep.deficit < 0.0:
                failures.append(f"{label} {fam} {par:g}: deficit {rep.deficit:.3e} < 0")
            if rep.empirical_c is not None and rep.empirical_c <= 0.0:
                failures.append(f"{label} {fam} {par:g}: empirical_c <= 0")
            if rep.trans_lhs is not None and rep.trans_lhs > rep.trans_rhs + 1e-12:
                failures.append(
                    f"{label} {fam} {par:g}: matched-potential comparison "
                    f"{rep.trans_lhs:.6g} > {rep.trans_rhs:.6g}"
                )
        if not (mins[label] > 0.0):
            failures.append(f"{label}: min empirical_c {mins[label]!r} not positive")

    # scale invariance, every report: V -> b^2 V(b x) with b = 2
    b = 2.0
    scaled = [
        run_sweep(
            [(fam, par, _resampled(V, lambda r: b * r, jacobian=b**2))
             for fam, par, V in corpus],
            gamma, d, gs,
        ).rows
        for _, corpus, gamma, d, gs in sweeps
    ]
    failures += _invariance_violations(results["d=1"].rows, scaled[0], "d=1 scale")
    failures += _invariance_violations(results["d=3"].rows, scaled[1], "d=3 scale")

    # translation invariance on the line, every report: V -> V(x - 3)
    shifted_corpus = [
        (fam, par, _resampled(V, lambda x: x - 3.0))
        for fam, par, V in line_corpus
    ]
    shifted = run_sweep(shifted_corpus, 1.5, 1, gs_q4_d1).rows
    failures += _invariance_violations(results["d=1"].rows, shifted, "d=1 shift")

    ok = not failures
    detail = (
        f"min empirical c: d=1 {mins['d=1']:.4f}, d=3 {mins['d=3']:.4f}; "
        f"{len(line_corpus) + len(radial_corpus)} potentials, "
        "scale/translation within 2%"
    )
    _verdict(capsys, 7, ok, failures[0] + f" (+{len(failures) - 1} more)" if failures else detail)


def test_acceptance_8_decomposition_identity(capsys, line_grid, gs_q4_d1, gs_q103_d3):
    from eigstab.stability import deficit as deficit_of

    failures = []
    worst_neg = 0.0
    worst_gap = 0.0
    cases = [
        (line_sweep_corpus(line_grid), 1.5, 1, gs_q4_d1),
        (radial_sweep_corpus(gs_q103_d3.grid, gs_q103_d3), 1.0, 3, gs_q103_d3),
    ]
    count = 0
    for corpus, gamma, d, gs in cases:
        for fam, par, V in corpus:
            count += 1
            e_part, h_part = deficit_decomposition(V, gamma, d, gs)
            worst_neg = min(worst_neg, e_part, h_part)
            gap = abs(e_part + h_part - deficit_of(V, gamma, d, gs))
            worst_gap = max(worst_gap, gap)
            if e_part < -1e-8 or h_part < -1e-8:
                failures.append(f"{fam} {par:g}: parts {e_part:.3e}, {h_part:.3e}")
            if gap > 1e-8:
                failures.append(f"{fam} {par:g}: sum off by {gap:.3e}")
    ok = not failures
    _verdict(
        capsys, 8,
        ok,
        f"{count} potentials, most negative part {worst_neg:.2e}, "
        f"worst sum mismatch {worst_gap:.2e}",
    )
