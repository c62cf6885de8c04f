"""The benchmark's workloads: inputs made from a seed, one item, its check.

Each workload is built in set-up (the constructor), then hands out inputs
one at a time.  ``run`` is the timed item and calls only eigstab's public
API; ``check`` judges its output and returns ``None`` or the reason it
failed.  Checks are plain functions of the output so that ``selftest.py``
can feed them corrupted results.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

import eigstab as es
import eigstab.cli

# -- output contracts -------------------------------------------------------

#: the sign and transfer tolerances of ``eigstab stability-sweep``
DEFICIT_FLOOR = -1e-8
TRANSFER_SLACK = 1e-12
#: d = 1 sharp constant against the closed form, absolute
C_CLOSED_TOL = 1e-5
#: the two-route cross-check cap of ``eigstab constants``
ROUTE_MISMATCH_CAP = 1e-6


def closed_form_c(q: float) -> float:
    """C' = -E of the d = 1 profile, from its closed form."""
    return -es.keller_parameters(q)[2]


def check_report(rep) -> str | None:
    """One sweep row against the contract of ``stability-sweep``."""
    fields = [rep.lam, rep.ratio, rep.deficit, rep.distance]
    if not all(np.isfinite(fields)):
        return "non-finite report field"
    if rep.deficit < DEFICIT_FLOOR:
        return f"deficit {rep.deficit!r} < {DEFICIT_FLOOR:g}"
    if rep.trans_lhs is not None and rep.trans_lhs > rep.trans_rhs + TRANSFER_SLACK:
        return f"transfer comparison {rep.trans_lhs!r} > {rep.trans_rhs!r}"
    if rep.empirical_c is not None and not rep.empirical_c > 0.0:
        return f"empirical c = {rep.empirical_c!r}"
    return None


def check_sweep(result) -> str | None:
    for fam, par, rep in result.rows:
        reason = check_report(rep)
        if reason is not None:
            return f"{fam} {par:g}: {reason}"
    if not result.min_empirical_c > 0.0:
        return f"min empirical c = {result.min_empirical_c!r}"
    return None


def check_ground_state(gs) -> str | None:
    if gs.d != 1:
        return None
    err = abs(gs.C_prime - closed_form_c(gs.q))
    if not err <= C_CLOSED_TOL:
        return f"C' {gs.C_prime!r} is {err:.3e} from the closed form"
    return None


def check_profile(gs, kc, kr, sweep) -> str | None:
    reason = check_ground_state(gs)
    if reason is not None:
        return reason
    if not kc.mismatch < ROUTE_MISMATCH_CAP:
        return f"keller_constant route mismatch {kc.mismatch!r}"
    if kr.anomalies:
        return f"kernel anomaly: {kr.anomalies[0]}"
    if kr.kernel_dim != gs.d + 1:
        return f"kernel dimension {kr.kernel_dim}, expected {gs.d + 1}"
    if sweep is not None:
        return check_sweep(sweep)
    return None


def check_holder(exit_code, doc, seed, samples) -> str | None:
    if exit_code != 0:
        return f"holder-verify exit code {exit_code}"
    if doc is None:
        return "holder-verify wrote no report"
    if doc.get("seed") != seed or doc.get("samples") != samples:
        return f"report is for seed {doc.get('seed')}, {doc.get('samples')} samples"
    if doc.get("violations") != 0:
        return f"{doc.get('violations')} inequality violations"
    return None


# -- workloads --------------------------------------------------------------


class LineSweep:
    """stability_report on translated line-grid corpus potentials.

    The 60 potentials of ``line_sweep_corpus`` are visited one family at a
    time in turn (depth, width, cosine, twobump, depth, ...), so any prefix
    of a pass covers the four families evenly.  Each item's potential is
    translated by a seeded a in [-2, 2].
    """

    name = "line-sweep"
    GAMMA, D, Q = 1.5, 1, 4.0

    def __init__(self, seed: int, workdir: str):
        self.grid = es.Grid.line(20.0, 4000)
        self.gs = es.solve_ground_state(self.Q, self.D, es.Grid.radial(1, 20.0, 4000))
        self.size = len(es.line_sweep_corpus(self.grid))
        self.rng = np.random.default_rng([seed, 1])
        self.distances: list[float] = []
        reason = check_ground_state(self.gs)
        if reason is not None:
            raise RuntimeError(f"set-up ground state: {reason}")

    def _translated(self, index: int, a: float):
        # The corpus formulas are evaluated at x - a on a copy of the grid
        # whose nodes are shifted, so the input is exact, not interpolated.
        shifted = copy.copy(self.grid)
        object.__setattr__(shifted, "nodes", self.grid.nodes - a)
        fam, par, V = es.line_sweep_corpus(shifted)[index]
        return fam, par, a, es.GridFunction(self.grid, V.values)

    def inputs(self):
        families = 4
        per_family = self.size // families
        order = [f * per_family + k for k in range(per_family) for f in range(families)]
        while True:
            shifts = self.rng.uniform(-2.0, 2.0, self.size)
            for index in order:
                yield self._translated(index, float(shifts[index]))

    def run(self, inp):
        return es.stability_report(inp[3], self.GAMMA, self.D, self.gs)

    def check(self, inp, rep) -> str | None:
        reason = check_report(rep)
        if reason is None:
            self.distances.append(rep.distance)
        return reason

    def quality(self) -> dict:
        return {
            "c_rel_err": abs(self.gs.C_prime - closed_form_c(self.Q)) / closed_form_c(self.Q),
            "distance_mean": float(np.mean(self.distances)) if self.distances else None,
        }


class ProfileSolve:
    """Ground state, sharp constant and kernel report for the test fixtures'
    (q, d, L, n) cases, in turn; the (10/3, 3) case adds a radial sweep."""

    name = "profile-solve"
    CASES = (
        (4.0, 1, 20.0, 4000),
        (4.0, 1, 30.0, 6000),
        (3.0, 1, 20.0, 4000),
        (4.0, 3, 1500.0, 6000),
        (10.0 / 3.0, 3, 250.0, 4000),
    )
    SWEEP_CASE = 4
    SWEEP_SIZE = 6  # per family, as in radial_sweep_corpus

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 2])
        self.c_errors: list[float] = []
        self.distances: list[float] = []

    def inputs(self):
        while True:
            for k, case in enumerate(self.CASES):
                params = None
                if k == self.SWEEP_CASE:
                    params = (
                        self.rng.uniform(0.8, 1.6, self.SWEEP_SIZE),
                        self.rng.uniform(0.05, 0.3, self.SWEEP_SIZE),
                    )
                yield case, params

    @staticmethod
    def radial_corpus(gs, params):
        """radial_sweep_corpus's two families at seeded depths s and
        modulations eps, built on optimal_potential(gs)."""
        base = -es.optimal_potential(gs).values
        r, extent = gs.grid.nodes, gs.grid.extent
        out = [("rdepth", float(s), es.GridFunction(gs.grid, -s * base)) for s in params[0]]
        for eps in params[1]:
            mod = 1.0 + eps * np.cos(2.0 * math.pi * r / (0.5 * extent))
            out.append(("rcosine", float(eps), es.GridFunction(gs.grid, -1.2 * base * mod)))
        return out

    def run(self, inp):
        (q, d, extent, n), params = inp
        gs = es.solve_ground_state(q, d, es.Grid.radial(d, extent, n))
        exps = es.Exponents.from_q(q, d)
        kc = es.keller_constant(exps.gamma, d, gs)
        kr = es.kernel_report(gs)
        sweep = None
        if params is not None:
            sweep = es.run_sweep(self.radial_corpus(gs, params), exps.gamma, d, gs)
        return gs, kc, kr, sweep

    def check(self, inp, out) -> str | None:
        reason = check_profile(*out)
        if reason is None:
            gs, _, _, sweep = out
            if gs.d == 1:
                closed = closed_form_c(gs.q)
                self.c_errors.append(abs(gs.C_prime - closed) / closed)
            if sweep is not None:
                self.distances += [rep.distance for _, _, rep in sweep.rows]
        return reason

    def quality(self) -> dict:
        return {
            "c_rel_err": max(self.c_errors) if self.c_errors else None,
            "distance_mean": float(np.mean(self.distances)) if self.distances else None,
        }


class HolderFuzz:
    """``eigstab holder-verify`` run in process through ``eigstab.cli.main``,
    1000 samples over the default exponents, one seed per item."""

    name = "holder-fuzz"
    SAMPLES = 1000

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 3])
        self.path = os.path.join(workdir, f"holder-{os.getpid()}.json")

    def inputs(self):
        while True:
            yield int(self.rng.integers(0, 2**31 - 1))

    def run(self, seed):
        argv = ["holder-verify", "--samples", str(self.SAMPLES), "--seed", str(seed),
                "--out", self.path]
        return eigstab.cli.main(argv)

    def check(self, seed, exit_code) -> str | None:
        try:
            with open(self.path) as fh:
                doc = json.load(fh)
            os.remove(self.path)
        except (OSError, json.JSONDecodeError):
            doc = None
        return check_holder(exit_code, doc, seed, self.SAMPLES)

    def quality(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (LineSweep, ProfileSolve, HolderFuzz)}
