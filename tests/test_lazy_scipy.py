"""SciPy's linear algebra and special functions are imported where they are
used, so ``import eigstab`` and a command that solves no eigenproblem do not
load them."""

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


def test_import_and_holder_verify_leave_scipy_linalg_unloaded(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, str(tmp_path / "holder.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "0"]
