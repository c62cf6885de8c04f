"""SciPy's linear algebra is imported where it is used, so ``import
eigstab`` and a command that solves no eigenproblem do not load it; and a
stability report, line or radial, loads none of ``scipy.interpolate``,
``scipy.optimize`` and ``scipy.special``: the profile spline is one LAPACK
solve, the shift refinement is the package's own loop, and the Gamma
functions of the sphere area and the d = 1 closed form come from the
standard library."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK = """
import sys
import eigstab, eigstab.cli
heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.special")
print(*[m for m in heavy if m in sys.modules])
code = eigstab.cli.main(["holder-verify", "--samples", "20", "--seed", "0", "--out", sys.argv[1]])
print(code, *[m for m in heavy if m in sys.modules])
"""

REPORTS = """
import copy, sys, warnings
import numpy as np
from eigstab import Grid, GridFunction, keller_parameters, solve_ground_state, stability_report
from eigstab.stability import line_sweep_corpus, radial_sweep_corpus
warnings.simplefilter("ignore")
gs = solve_ground_state(4.0, 1, Grid.radial(1, 20.0, 4000))
line = Grid.line(20.0, 4000)
shifted = copy.copy(line)
object.__setattr__(shifted, "nodes", line.nodes - 0.777)
V = GridFunction(line, line_sweep_corpus(shifted)[17][2].values)
line_rep = stability_report(V, 1.5, 1, gs)
gs3 = solve_ground_state(10.0 / 3.0, 3, Grid.radial(3, 250.0, 4000))
radial_rep = stability_report(radial_sweep_corpus(gs3.grid, gs3)[3][2], 1.0, 3, gs3)
assert np.isfinite([line_rep.distance, radial_rep.distance, *keller_parameters(4.0)]).all()
print(*[m for m in ("scipy.interpolate", "scipy.optimize", "scipy.special") if m in sys.modules])
"""


def test_import_and_holder_verify_leave_scipy_linalg_unloaded(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, str(tmp_path / "holder.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "0"]


def test_reports_leave_scipy_interpolate_and_optimize_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", REPORTS],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [""]
