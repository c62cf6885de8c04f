"""Compare the README command set between two eigstab source trees.

Usage::

    python3 tools/cli_goldens.py <src-a> <src-b>

Each argument is a ``src/`` directory (the one holding ``eigstab/``).  Every
command below runs once against each tree, as ``python3 -m eigstab.cli`` with
that tree first on ``PYTHONPATH``; a difference in stdout or exit code is
printed as a unified diff.  Exits 0 when every command matches, 1 otherwise.
Output files are not compared: each command writes to stdout.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: the README commands, with ``--out`` dropped and ``{well}`` standing for a
#: -2 sech^2 potential sampled at 4001 points on [-20, 20]; the sweep also
#: runs once in its default JSON format, the summary path, and once at
#: gamma = 2.5 (p = 3), the high branch, whose line scans take the blocked
#: (non-FFT) window sums; the last sweep passes --p, a flag the sweep does
#: not read, which is refused with exit 2
COMMANDS = (
    "constants --gamma 1.5 --d 1",
    "ground-state --q 4 --d 1",
    "eigen --potential {well} --grid-l 20 --grid-n 4000",
    "hessian --q 4 --d 1",
    "hessian --q 4 --d 3 --grid-l 1500 --grid-n 6000",
    "stability-sweep --gamma 1.5 --d 1",
    "stability-sweep --gamma 1.5 --d 1 --format csv",
    "stability-sweep --gamma 2.5 --d 1 --format csv",
    "stability-sweep --d 3 --grid-l 250 --grid-n 4000 --format csv",
    "stability-sweep --gamma 1.5 --d 1 --p 3",
    "convergence",
    "convergence --format csv",
    "holder-verify --samples 300 --seed 0",
)


def _write_well(path: Path) -> None:
    x = np.linspace(-20.0, 20.0, 4001)
    rows = [f"{a:.17g},{-2.0 / np.cosh(a) ** 2:.17g}" for a in x]
    path.write_text("x,V\n" + "\n".join(rows) + "\n")


def _run(src: Path, args: list[str], cwd: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run(
        [sys.executable, "-m", "eigstab.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    return proc.returncode, proc.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_goldens.py <src-a> <src-b>", file=sys.stderr)
        return 2
    src_a, src_b = (Path(a) for a in argv)
    for src in (src_a, src_b):
        if not (src / "eigstab" / "cli.py").is_file():
            print(f"{src}: no eigstab/cli.py", file=sys.stderr)
            return 2
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        well = cwd / "well.csv"
        _write_well(well)
        for command in COMMANDS:
            args = command.format(well=well).split()
            code_a, out_a = _run(src_a, args, cwd)
            code_b, out_b = _run(src_b, args, cwd)
            if (code_a, out_a) == (code_b, out_b):
                print(f"same  (exit {code_a})  {command}")
                continue
            differing += 1
            print(f"DIFF  (exit {code_a} vs {code_b})  {command}")
            sys.stdout.writelines(
                difflib.unified_diff(
                    out_a.splitlines(keepends=True), out_b.splitlines(keepends=True),
                    fromfile=str(src_a), tofile=str(src_b),
                )
            )
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
