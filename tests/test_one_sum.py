"""One reduction rule: every grid-length dot product sums through
``measure._dot``, numpy's own loop, so no output depends on how many threads
BLAS may use (docs/derivations.md §11).  OpenBLAS threads a dot product only
past 10000 entries, so the commands below run on grids longer than that."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    "constants --gamma 1.5 --d 1 --grid-l 40 --grid-n 16000",
    "stability-sweep --d 3 --grid-l 250 --grid-n 12000 --format csv",
]


def _stdout(args: str, threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "eigstab.cli", *args.split()],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("args", COMMANDS, ids=["constants", "sweep"])
def test_output_does_not_depend_on_the_blas_thread_count(args):
    # never more than 2 threads: the check needs only one that BLAS may split
    assert _stdout(args, 1) == _stdout(args, 2)


#: the BLAS entry points a dot product could take in place of _dot
BLAS_SITES = re.compile(r" @ |np\.(dot|vdot|inner|matmul|vecdot)\(|linalg\.norm\(")


def test_no_dot_product_bypasses_the_rule():
    found = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted((SRC / "eigstab").glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if BLAS_SITES.search(line)
    ]
    assert found == []


def test_dot_sums_along_the_last_axis_row_by_row():
    from eigstab.measure import _dot

    rng = np.random.default_rng(3)
    rows, w = rng.standard_normal((50, 64)), rng.uniform(0.5, 1.5, 64)
    batch = _dot(rows, w)
    assert batch.shape == (50,)
    # each row gets the bits of a one-row call
    assert all(batch[i] == _dot(rows[i], w) for i in range(50))
    assert batch == pytest.approx(rows @ w, rel=1e-13)
