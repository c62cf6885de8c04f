"""Stability of the eigenvalue bound: deficit controls distance.

The sharp bound lambda(V) >= -C ||V_-||_p^(2p/(2p-d)) is attained only
on a two-parameter family of scaled, shifted sech^2-type wells.  The
stability question: if a potential nearly saturates the bound, must it
be close to that family?

This script sweeps four families of attractive 1-d potentials (depth-
scaled, width-scaled, cosine-modulated, two-bump), and for each one
reports the saturation deficit, the L^p distance to the optimal family
(the scale fixed by norm matching, minimized over the shift), and their
ratio

    empirical_c = deficit / distance^2.

Stability means empirical_c stays bounded away from zero across the
whole corpus.  Finally, every deficit is split into two individually
nonnegative parts -- an energy term and a Holder term -- whose sum
reproduces the deficit exactly.
"""

import numpy as np

from eigstab import (
    Grid,
    deficit_decomposition,
    line_sweep_corpus,
    run_sweep,
    solve_ground_state,
)

gs = solve_ground_state(4.0, 1, Grid.radial(1, 30.0, 6000))
grid = Grid.line(20.0, 4000)
corpus = line_sweep_corpus(grid)
result = run_sweep(corpus, 1.5, 1, gs)

print(f"{'family':>8} {'param':>7} {'lambda':>10} {'deficit':>10} {'distance':>10} {'emp. c':>8}")
shown = set()
for fam, par, rep in result.rows:
    # one representative row per family plus the overall extremes
    if fam in shown:
        continue
    shown.add(fam)
    print(
        f"{fam:>8} {par:7.3f} {rep.lam:10.5f} {rep.deficit:10.2e} "
        f"{rep.distance:10.4f} {rep.empirical_c:8.4f}"
    )
print(f"\n{len(result.rows)} potentials swept")
print(f"min empirical_c over the corpus: {result.min_empirical_c:.6f}  (> 0: stable)")

worst = min(
    (rep for _, _, rep in result.rows if rep.empirical_c is not None),
    key=lambda r: r.empirical_c,
)
print(
    f"tightest case: lambda = {worst.lam:.5f}, deficit = {worst.deficit:.3e}, "
    f"distance = {worst.distance:.4f}"
)

print("\nDeficit decomposition on the first potential of each family:")
seen = set()
for fam, par, V in corpus:
    if fam in seen:
        continue
    seen.add(fam)
    e_part, h_part = deficit_decomposition(V, 1.5, 1, gs)
    print(
        f"  {fam:>8} {par:7.3f}: energy part {e_part:.3e} + Holder part {h_part:.3e} "
        f"= {e_part + h_part:.3e}"
    )
print("  (both parts nonnegative; their sum is the deficit to rounding)")
