"""Show that every output check of the benchmark trips on a corrupted result.

    python3 perfbench/selftest.py

Computes one real, small output per workload, confirms that each check
accepts it, then corrupts one field at a time and confirms that the
check rejects every corruption.  Also runs the timed loop on a workload
whose items raise or fail their check, and confirms they are counted as
failures rather than ending the run.  Exits 1 on the first check that
does not behave.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
warnings.simplefilter("ignore")

import eigstab as es  # noqa: E402
import eigstab.cli  # noqa: E402

import child  # noqa: E402
import workloads as wl  # noqa: E402

replace = dataclasses.replace


def expect(label: str, reason, tripped: bool) -> None:
    if (reason is not None) != tripped:
        want = "a failure" if tripped else "a pass"
        sys.exit(f"selftest: {label}: expected {want}, got {reason!r}")
    print(f"ok  {label}: {reason or 'passes'}")


def line_checks() -> None:
    line = wl.LineSweep(0, ".")
    _, _, _, V = next(line.inputs())
    rep = line.run((None, None, None, V))
    expect("line report", wl.check_report(rep), False)
    for label, bad in (
        ("negative deficit", replace(rep, deficit=-1e-6)),
        ("non-finite distance", replace(rep, distance=float("nan"))),
        ("transfer comparison", replace(rep, trans_lhs=rep.trans_rhs + 1e-9)),
        ("non-positive empirical c", replace(rep, empirical_c=-0.1)),
    ):
        expect(f"line {label}", wl.check_report(bad), True)


def profile_checks() -> None:
    gs = es.solve_ground_state(4.0, 1, es.Grid.radial(1, 20.0, 4000))
    kc = es.keller_constant(1.5, 1, gs)
    kr = es.kernel_report(gs)
    expect("d = 1 profile", wl.check_profile(gs, kc, kr, None), False)
    for label, args in (
        ("C' off the closed form", (replace(gs, C_prime=gs.C_prime + 2e-5), kc, kr)),
        ("route mismatch", (gs, replace(kc, mismatch=2e-6), kr)),
        ("kernel anomaly", (gs, kc, replace(kr, anomalies=["injected"]))),
        ("kernel dimension", (gs, kc, replace(kr, kernel_dim=3))),
    ):
        expect(f"profile {label}", wl.check_profile(*args, None), True)

    case = wl.ProfileSolve(0, ".")
    (q, d, extent, n), params = next(p for p in case.inputs() if p[1] is not None)
    gs3, kc3, kr3, sweep = case.run(((q, d, extent, n), params))
    expect("radial sweep", wl.check_profile(gs3, kc3, kr3, sweep), False)
    fam, par, rep = sweep.rows[0]
    rows = [(fam, par, replace(rep, deficit=-1e-6))] + sweep.rows[1:]
    expect("radial negative deficit",
           wl.check_sweep(replace(sweep, rows=rows)), True)
    rows = [(f, p, replace(r, empirical_c=None)) for f, p, r in sweep.rows]
    expect("radial sweep without an empirical c",
           wl.check_sweep(replace(sweep, rows=rows)), True)


def holder_checks() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = os.path.join(tmp, "fuzz.json")
        code = eigstab.cli.main(
            ["holder-verify", "--samples", "50", "--seed", "7", "--out", path])
        with open(path) as fh:
            doc = json.load(fh)
    expect("holder-verify", wl.check_holder(code, doc, 7, 50), False)
    for label, args in (
        ("nonzero exit", (1, doc, 7, 50)),
        ("missing report", (code, None, 7, 50)),
        ("violations", (code, {**doc, "violations": 1}, 7, 50)),
        ("wrong seed", (code, doc, 8, 50)),
    ):
        expect(f"holder {label}", wl.check_holder(*args), True)


class _Flaky:
    """Items 0, 1, 2, ... where every third raises and every third after
    that fails its check."""

    def inputs(self):
        k = 0
        while True:
            yield k
            k += 1

    def run(self, k):
        if k % 3 == 1:
            raise ValueError("injected")
        return k

    def check(self, k, out):
        return "injected check failure" if out % 3 == 2 else None


def loop_counts_failures() -> None:
    latencies, failures, attempted, _ = child.timed_loop(_Flaky(), 0.05)
    if attempted < 3 or len(failures) != attempted - len(latencies):
        sys.exit(f"selftest: timed loop lost items: {attempted} attempted, "
                 f"{len(latencies)} passed, {len(failures)} failed")
    kinds = {reason.split(": ", 1)[1] for reason in failures}
    if kinds != {"ValueError: injected", "injected check failure"}:
        sys.exit(f"selftest: timed loop failure reasons {kinds}")
    print(f"ok  timed loop: {attempted} attempted, {len(failures)} counted as failed")


if __name__ == "__main__":
    line_checks()
    profile_checks()
    holder_checks()
    loop_counts_failures()
    print("selftest passed")
