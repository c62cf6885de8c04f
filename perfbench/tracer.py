"""Per-layer spans around eigstab's public functions.

A boundary is a wrapper installed on one public function at every module
attribute that holds it, so a call is caught whichever name it goes
through: ``eigstab.stability.lowest_eigenpair`` and
``eigstab.spectral.lowest_eigenpair`` both record ``spectral.lowest_eigenpair``.
Nothing is installed unless a run is traced, so an untraced run calls the
library unchanged.

Spans are kept in memory as ``(name index, start, end, parent span, item)``
and written out when the run ends.  Item -1 marks set-up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

#: boundaries that record a span on every call, as ``module.function``
SPANNED = (
    "grid.symmetric_tridiagonal",
    "spectral.lowest_eigenpair",
    "spectral.smallest_eigenpairs",
    "groundstate.solve_ground_state",
    "groundstate.keller_constant",
    "groundstate.profile_interpolant",
    "hessian.build_channel",
    "hessian.kernel_report",
    "stability.stability_report",
    "stability.distance_to_manifold",
    "holder.holder_report",
    "holder.uniform_convexity_gap",
    "holder.duality_continuity_check",
    "holder.power_comparison_check",
    "holder.remainder_bounds",
    "sampling.random_unit_function",
    "sampling.random_nonnegative_unit",
    "cli.main",
)

#: boundaries called so often on 64-point arrays that only calls are counted
COUNTED = ("measure.lp_norm", "measure.duality_map")

#: smallest_eigenpairs is reported as two boundaries, one per solver path
_EIGEN = "spectral.smallest_eigenpairs"
_LAPACK, _ARPACK = "spectral.lapack", "spectral.arpack"
_RANK1_POSITION = 3  # smallest_eigenpairs(diag, off, k, rank1, ...)


def span_names() -> list[str]:
    """Reported span names, in the order of SPANNED."""
    out = []
    for name in SPANNED:
        out.extend((_LAPACK, _ARPACK) if name == _EIGEN else (name,))
    return out


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.busy_s", f"{span}.self_s"]
    names += [f"{name}.calls" for name in COUNTED]
    names += [
        "groundstate.scf_iters.per_solve",
        "trace.items_per_s",
        "trace.root_busy_s",
        "trace.spans",
    ]
    return names


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.item = -1
        self._stack: list[int] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace every eigstab module attribute that holds a boundary
        function with its wrapper.  Call after the modules are imported."""
        wrappers = {}
        for name in SPANNED + COUNTED:
            module, func = name.split(".")
            original = getattr(sys.modules[f"eigstab.{module}"], func)
            if name in COUNTED:
                wrappers[original] = self._counter(name, original)
            elif name == _EIGEN:
                wrappers[original] = self._span(
                    self.names.index(_LAPACK), original, self.names.index(_ARPACK)
                )
            else:
                wrappers[original] = self._span(self.names.index(name), original)
        for modname, module in list(sys.modules.items()):
            if modname != "eigstab" and not modname.startswith("eigstab."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _span(self, name_index, fn, arpack_index=None):
        """Wrap fn in a span; with arpack_index, smallest_eigenpairs calls
        that carry a rank-one term are recorded under that name instead."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_index
            if arpack_index is not None:
                if len(args) > _RANK1_POSITION:
                    rank1 = args[_RANK1_POSITION]
                else:
                    rank1 = kwargs.get("rank1")
                if rank1 is not None:
                    name = arpack_index
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.item)
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def start_timed(self) -> None:
        """Drop the counts taken during set-up; spans keep item -1."""
        for name in self.counts:
            self.counts[name] = 0

    def layer_metrics(self, items: int, items_per_s: float) -> dict:
        """Per-item calls, busy and self seconds of every boundary over the
        timed items, plus the trace's own figures."""
        n = max(items, 1)
        timed = [i for i, s in enumerate(self.spans) if s[4] >= 0]
        child = dict.fromkeys(timed, 0.0)
        for i in timed:
            _, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        root_busy = 0.0
        solve = self.names.index("groundstate.solve_ground_state")
        eigen = {self.names.index(_LAPACK), self.names.index(_ARPACK)}
        solves = scf = 0
        for i in timed:
            name_index, start, end, parent, _ = self.spans[i]
            calls[name_index] += 1
            busy[name_index] += end - start
            own[name_index] += end - start - child[i]
            if parent < 0:
                root_busy += end - start
            if name_index == solve:
                solves += 1
            elif name_index in eigen and parent >= 0 and self.spans[parent][0] == solve:
                scf += 1
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k] / n
            out[f"{name}.busy_s"] = busy[k] / n
            out[f"{name}.self_s"] = own[k] / n
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name] / n
        out["groundstate.scf_iters.per_solve"] = scf / solves if solves else 0.0
        out["trace.items_per_s"] = items_per_s
        out["trace.root_busy_s"] = root_busy / n
        out["trace.spans"] = len(timed) / n
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )
