"""The benchmark tracer (perfbench/tracer.py) names real eigstab functions.

The tracer wraps each listed ``module.function`` only where it finds a
plain function, and splits ``smallest_eigenpairs`` into its LAPACK and
ARPACK paths by the position of the rank-one argument.  A listed name that
is gone fails only once a traced benchmark runs; one that is no longer a
plain function, or a moved ``rank1``, leaves a metric that reads 0 or mixes
the two paths.
"""

import importlib
import inspect
import types
from pathlib import Path

from eigstab.spectral import smallest_eigenpairs

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    """The tracer module, executed from its source; nothing is written
    beside it (no bytecode cache)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_boundaries_are_eigstab_functions():
    tracer = _tracer()
    for name in tracer.SPANNED + tracer.COUNTED:
        module, func = name.split(".")
        fn = getattr(importlib.import_module(f"eigstab.{module}"), func, None)
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == f"eigstab.{module}", name


def test_tracer_rank1_position():
    params = list(inspect.signature(smallest_eigenpairs).parameters)
    assert params.index("rank1") == _tracer()._RANK1_POSITION == 3
