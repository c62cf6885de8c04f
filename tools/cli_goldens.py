"""Compare the README command set between two eigstab source trees.

Usage::

    python3 tools/cli_goldens.py <src-a> <src-b>

Each argument is a ``src/`` directory (the one holding ``eigstab/``).  Every
command below runs once against each tree, as ``python3 -m eigstab.cli`` with
that tree first on ``PYTHONPATH``.  A command whose stdout differs in
numbers only gets one line: how many numbers differ, out of how many, and
the largest relative change with its old and new value (a number is a
decimal or exponent literal, also one inside a JSON string).  Any other
difference in stdout is printed as a unified diff, and so is any
difference in stderr (a refusal message, say), with each tree's path
written as ``<src>``; an exit code that differs shows in the command's
header line.
Exits 0 when every command matches, 1 otherwise.  Output files are not
compared: each command writes to stdout.
"""

from __future__ import annotations

import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: the README commands, with ``--out`` dropped and ``{well}`` standing for a
#: -2 sech^2 potential sampled at 4001 points on [-20, 20]; the second d = 1
#: hessian runs at n = 16000, past the size at which BLAS threads its dot
#: products, on the rank-one path of the ell = 0 channel; the second
#: constants run is at n = 16000 too, where C once moved with the BLAS
#: thread count (docs/numerics.md §11); the sweep also
#: runs once in its default JSON format, the summary path, and once at
#: gamma = 2.5 (p = 3), the high branch, whose line scans take the blocked
#: (non-FFT) window sums, and at gamma = 1 (p = 3/2), the low branch's
#: blocked scan with no power map; the last sweep passes --p, a flag the sweep does
#: not read, which is refused with exit 2; each holder-verify run spans
#: more than one of the fuzzer's chunks, 1003 samples end in a partial chunk
#: and --p 3 checks one exponent; the constants run at d = 3 is on a default
#: grid that truncates the profile, which is refused with exit 1.  The
#: three at d = 2 reach what no other command does: the radial d = 2 edge
#: factors of the gradient integral, the kernel report at d = 2 and the
#: p = 2 scan's reuse of its member for the transfer sides on a radial grid.
#: Their default grid truncates the profile too, so they also record what a
#: wider box will move: a constant and a sweep minimum below their resolved
#: values, and a hessian run that exits 1 on an ell = 1 channel with no
#: near-zero eigenvalue.  The last two cover the refusal paths of a bad
#: dimension and a bad grid, each exit 2 with the message of the owner of
#: that check, ``Exponents`` and ``Grid``
COMMANDS = (
    "constants --gamma 1.5 --d 1",
    "constants --gamma 1.5 --d 1 --grid-l 40 --grid-n 16000",
    "ground-state --q 4 --d 1",
    "eigen --potential {well} --grid-l 20 --grid-n 4000",
    "hessian --q 4 --d 1",
    "hessian --q 4 --d 1 --grid-l 40 --grid-n 16000",
    "hessian --q 4 --d 3 --grid-l 1500 --grid-n 6000",
    "stability-sweep --gamma 1.5 --d 1",
    "stability-sweep --gamma 1.5 --d 1 --format csv",
    "stability-sweep --gamma 2.5 --d 1 --format csv",
    "stability-sweep --gamma 1 --d 1 --format csv",
    "stability-sweep --d 3 --grid-l 250 --grid-n 4000 --format csv",
    "stability-sweep --gamma 1.5 --d 1 --p 3",
    "convergence",
    "convergence --format csv",
    "holder-verify --samples 300 --seed 0",
    "holder-verify --samples 1003 --seed 4",
    "holder-verify --samples 600 --seed 1 --p 3",
    "constants --gamma 1 --d 3",
    "constants --gamma 1 --d 2",
    "hessian --q 4 --d 2",
    "stability-sweep --gamma 1 --d 2 --format csv",
    "constants --gamma 1.5 --d 0",
    "constants --gamma 1.5 --d 1 --grid-n 8",
)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _relative(old: str, new: str) -> float:
    x, y = float(old), float(new)
    return abs(y - x) / abs(x) if x != 0.0 else (0.0 if y == 0.0 else float("inf"))


def number_changes(old: str, new: str):
    """(numbers that differ, numbers, largest relative change, its old value,
    its new value) when ``old`` and ``new`` differ in numbers only, else
    None.  A change from 0 counts as infinite; with nothing changed the
    last three are 0 and empty strings."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    numbers = list(zip(NUMBER.findall(old), NUMBER.findall(new)))
    changed = [(_relative(a, b), a, b) for a, b in numbers if a != b]
    return (len(changed), len(numbers), *max(changed, default=(0.0, "", "")))


def _write_well(path: Path) -> None:
    x = np.linspace(-20.0, 20.0, 4001)
    rows = [f"{a:.17g},{-2.0 / np.cosh(a) ** 2:.17g}" for a in x]
    path.write_text("x,V\n" + "\n".join(rows) + "\n")


def _run(src: Path, args: list[str], cwd: Path) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run(
        [sys.executable, "-m", "eigstab.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr.replace(str(src.resolve()), "<src>")


def _diff(old: str, new: str, names) -> list[str]:
    return list(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True), *names,
    ))


def report(command: str, a, b, names=("a", "b")) -> list[str]:
    """The lines describing one command's two runs, each (exit code, stdout,
    stderr): a ``same`` line, or a ``DIFF`` line followed by the summary or
    diff of stdout and the diff of stderr."""
    if a == b:
        return [f"same  (exit {a[0]})  {command}\n"]
    lines = [f"DIFF  (exit {a[0]} vs {b[0]})  {command}\n"]
    changes = number_changes(a[1], b[1])
    if changes is None:
        lines += _diff(a[1], b[1], names)
    elif changes[0]:  # with equal stdout only the exit code or stderr differs
        lines.append("      {} of {} numbers differ; largest relative change {:.2g}"
                     " ({} -> {})\n".format(*changes))
    if a[2] != b[2]:
        lines += ["      stderr:\n", *_diff(a[2], b[2], names)]
    return lines


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
            lines = report(command, _run(src_a, args, cwd), _run(src_b, args, cwd),
                           (str(src_a), str(src_b)))
            differing += lines[0].startswith("DIFF")
            sys.stdout.writelines(lines)
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
