"""Command-line front end.

Subcommands::

    ground-state     solve the profile Q, emit GroundState JSON
    constants        sharp constants with both-route consistency check
    eigen            lowest eigenvalue of a potential given as CSV
    holder-verify    fuzz the remainder inequalities, report violations
    hessian          linearization kernel report JSON
    stability-sweep  corpus sweep CSV plus min empirical stability ratio
    convergence      Richardson table for the reference eigenvalue

Each subcommand takes only the flags of the settings it reads
(``eigstab <cmd> --help``), plus ``--config``; any other flag, or an
abbreviated one, exits 2.  A config file may hold any setting, so one
file can serve several subcommands; flags win over the file.

Exit status: 0 if every asserted contract holds, 1 on a contract
violation (with a pointer to the offending record), 2 on invalid
configuration.  Identical configuration and seed produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import warnings

import numpy as np

from .exceptions import EigstabError
from .grid import Grid, GridFunction, csv_text, exact
from .groundstate import Exponents, keller_constant, solve_ground_state
from .hessian import kernel_report
from .holder import FUZZ_EXPONENTS, fuzz_inequalities
from .spectral import lowest_eigenpair
from .stability import line_sweep_corpus, radial_sweep_corpus, run_sweep

#: cross-check tolerance asserted by the `constants` subcommand
ROUTE_MISMATCH_CAP = 1e-6


class ConfigError(Exception):
    pass


class ContractViolation(Exception):
    pass


#: every setting, name -> (type, default); a run's settings are an
#: ``argparse.Namespace`` holding all of them
SETTINGS = {
    "gamma": (float, None), "q": (float, None), "d": (int, 1),
    "grid_l": (float, 20.0), "grid_n": (int, 4000),
    "seed": (int, 0), "samples": (int, 1000), "out": (str, None),
    "format": (str, "json"), "potential": (str, None), "p": (float, None),
}
_FORMATS = ("csv", "json")


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _config_value(key: str, kind: type, value):
    """A config-file value as ``kind``: an int must be integral (1000.0 is
    1000), a float any real number; booleans are neither."""
    if kind is str:
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float:
            return float(value)
        if float(value).is_integer():
            return int(value)
    raise ConfigError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def _load_config(args: argparse.Namespace) -> argparse.Namespace:
    if args.command is None:
        raise ConfigError("no subcommand given")
    cfg = argparse.Namespace(command=args.command, **{k: v for k, (_, v) in SETTINGS.items()})
    if args.config is not None:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in doc.items():
            attr = key.replace("-", "_")
            if attr not in SETTINGS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None or getattr(cfg, attr) is not None:  # null keeps a None default
                value = _config_value(key, SETTINGS[attr][0], value)
            setattr(cfg, attr, value)
    # explicit flags win over the config file
    for attr in _COMMANDS[args.command][1]:
        val = getattr(args, attr)
        if val is not None:
            setattr(cfg, attr, val)

    for attr, (kind, _) in SETTINGS.items():
        val = getattr(cfg, attr)
        if kind is float and val is not None and not np.isfinite(val):
            raise ConfigError(f"{attr} must be finite, got {val!r}")
    if cfg.gamma is not None and cfg.q is not None:
        raise ConfigError("give exactly one of --gamma and --q")
    if cfg.d < 1:
        raise ConfigError("d must be a positive integer")
    if cfg.grid_l <= 0.0 or cfg.grid_n < 16:
        raise ConfigError("grid needs L > 0 and n >= 16")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    if cfg.format not in _FORMATS:
        raise ConfigError(f"unknown format {cfg.format!r}")
    return cfg


def _exponents(cfg: argparse.Namespace, default_gamma: float | None = None) -> Exponents:
    try:
        if cfg.gamma is not None:
            return Exponents.from_gamma(cfg.gamma, cfg.d)
        if cfg.q is not None:
            return Exponents.from_q(cfg.q, cfg.d)
        if default_gamma is not None:
            return Exponents.from_gamma(default_gamma, cfg.d)
    except EigstabError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError("one of --gamma or --q is required")


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)


def _grid(cfg: argparse.Namespace, kind: str, n: int | None = None) -> Grid:
    """The configured grid; a rejected geometry is a configuration error."""
    try:
        return Grid(kind, cfg.d if kind == "radial" else 1, cfg.grid_l, n or cfg.grid_n)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _solve(cfg: argparse.Namespace, exps: Exponents):
    grid = _grid(cfg, "radial")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_ground_state(exps.q, cfg.d, grid)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_ground_state(cfg: argparse.Namespace) -> None:
    gs = _solve(cfg, _exponents(cfg))
    _emit(cfg, gs.to_json())


def _cmd_constants(cfg: argparse.Namespace) -> None:
    exps = _exponents(cfg)
    gs = _solve(cfg, exps)
    kc = keller_constant(exps.gamma, cfg.d, gs)
    _emit(
        cfg,
        json.dumps(
            {
                "gamma": exps.gamma,
                "d": cfg.d,
                "q": exps.q,
                **exact({
                    "C": kc.value,
                    "C_eigen_route": kc.eigen_route,
                    "route_mismatch": kc.mismatch,
                    "C_prime": gs.C_prime,
                    "S": gs.S,
                    "norm_q": gs.norm_q,
                }),
            }
        ),
    )
    if kc.mismatch >= ROUTE_MISMATCH_CAP:
        raise ContractViolation(
            f"constant route mismatch {kc.mismatch:.3e} >= {ROUTE_MISMATCH_CAP:g}"
        )


def _read_potential(cfg: argparse.Namespace, grid: Grid) -> GridFunction:
    if cfg.potential is None:
        raise ConfigError("eigen requires --potential <csv>")
    try:
        with open(cfg.potential, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read potential file: {exc}") from exc
    if not rows or len(rows) < 2:
        raise ConfigError("potential file needs a header and data rows")
    try:
        data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"malformed potential file: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ConfigError("potential file holds a non-finite value")
    coords, vals = data[:, 0], data[:, 1]
    order = np.argsort(coords)
    coords, vals = coords[order], vals[order]
    lo, hi = coords[0], coords[-1]
    want_lo = -grid.extent if grid.kind == "line" else 0.0
    tol = 2.0 * max(grid.spacing, (hi - lo) / max(1, coords.size - 1))
    if abs(hi - grid.extent) > tol or abs(lo - want_lo) > tol:
        raise ConfigError(
            f"potential extent [{lo:g}, {hi:g}] does not match the grid "
            f"[{want_lo:g}, {grid.extent:g}]; refusing to extrapolate"
        )
    resampled = np.interp(grid.nodes, coords, vals)
    return GridFunction(grid, resampled)


def _cmd_eigen(cfg: argparse.Namespace) -> None:
    grid = _grid(cfg, "line" if cfg.d == 1 else "radial")
    V = _read_potential(cfg, grid)
    pair = lowest_eigenpair(V)
    lam = min(0.0, pair.lam)  # the clamp of lambda_of_potential, on the same solve
    _emit(
        cfg,
        json.dumps(
            {
                **exact({"lambda": lam, "raw_eigenvalue": pair.lam, "residual": pair.residual}),
                "grid": grid.metadata(),
            }
        ),
    )


def _cmd_holder_verify(cfg: argparse.Namespace) -> None:
    exponents = (cfg.p,) if cfg.p is not None else FUZZ_EXPONENTS
    for p in exponents:
        if p < 2.0:
            raise ConfigError(f"holder-verify needs p >= 2, got {p}")
    rep = fuzz_inequalities(cfg.samples, cfg.seed, exponents)
    _emit(
        cfg,
        json.dumps(
            {
                "samples": cfg.samples,
                "seed": cfg.seed,
                "exponents": list(exponents),
                "violations": rep.violations,
                "tightness": {
                    "holder_bounds": f"{rep.tight_holder:.6g}",
                    "convexity": f"{rep.tight_convexity:.6g}",
                    "remainder": f"{rep.tight_remainder:.6g}",
                },
            }
        ),
    )
    if rep.first_violation is not None:
        raise ContractViolation(rep.first_violation)


def _cmd_hessian(cfg: argparse.Namespace) -> None:
    gs = _solve(cfg, _exponents(cfg))
    report = kernel_report(gs)
    _emit(cfg, report.to_json())
    if report.anomalies:
        raise ContractViolation(report.anomalies[0])
    if report.kernel_dim != cfg.d + 1:
        raise ContractViolation(
            f"kernel dimension {report.kernel_dim}, expected {cfg.d + 1}"
        )


def _cmd_stability_sweep(cfg: argparse.Namespace) -> None:
    exps = _exponents(cfg, default_gamma=1.5 if cfg.d == 1 else 1.0)
    gs = _solve(cfg, exps)
    if cfg.d == 1:
        corpus = line_sweep_corpus(_grid(cfg, "line"))
    else:
        corpus = radial_sweep_corpus(gs.grid, gs)
    result = run_sweep(corpus, exps.gamma, cfg.d, gs)
    if cfg.format == "csv":
        _emit(cfg, result.to_csv())
    else:
        _emit(cfg, result.summary_json())
    if cfg.out is not None:
        # summary always goes to stdout so sweeps are self-describing
        sys.stdout.write(result.summary_json() + "\n")
    for fam, par, rep in result.rows:
        fields = [rep.lam, rep.ratio, rep.deficit, rep.distance]
        if not all(np.isfinite(fields)):
            raise ContractViolation(f"{fam} {par:g}: non-finite report field")
        if rep.deficit < -1e-8:
            raise ContractViolation(f"{fam} {par:g}: deficit {rep.deficit!r} < -1e-8")
        if rep.trans_lhs is not None and rep.trans_lhs > rep.trans_rhs + 1e-12:
            raise ContractViolation(f"{fam} {par:g}: transfer comparison failed")
    if not (result.min_empirical_c > 0.0):
        raise ContractViolation(f"min empirical c = {result.min_empirical_c!r}")


def _cmd_convergence(cfg: argparse.Namespace) -> None:
    """Richardson table for lambda(-2 sech^2) against the exact value -1."""
    rows, prev_err = [], None
    for level in range(3):
        n = cfg.grid_n * 2**level
        grid = _grid(cfg, "line", n)
        V = GridFunction(grid, -2.0 / np.cosh(grid.nodes) ** 2)
        lam = lowest_eigenpair(V).lam
        err = abs(lam - (-1.0))
        ratio = None if prev_err is None else prev_err / err
        rows.append({"n": n, "h": grid.spacing, "lambda": lam, "error": err, "ratio": ratio})
        prev_err = err
    if cfg.format == "csv":
        _emit(cfg, csv_text(list(rows[0]), [list(row.values()) for row in rows]))
    else:
        _emit(cfg, json.dumps({"rows": exact(rows)}))
    for row in rows:
        if row["ratio"] is not None and not (3.2 <= row["ratio"] <= 4.8):
            raise ContractViolation(
                f"n={row['n']}: error ratio {row['ratio']!r} outside the second-order window"
            )


_SOLVE = ("gamma", "q", "d", "grid_l", "grid_n", "out")

#: subcommand -> (handler, the settings it reads); its parser offers a
#: flag for each of them and nothing else but --config
_COMMANDS = {
    "ground-state": (_cmd_ground_state, _SOLVE),
    "constants": (_cmd_constants, _SOLVE),
    "eigen": (_cmd_eigen, ("d", "grid_l", "grid_n", "potential", "out")),
    "holder-verify": (_cmd_holder_verify, ("samples", "seed", "p", "out")),
    "hessian": (_cmd_hessian, _SOLVE),
    "stability-sweep": (_cmd_stability_sweep, _SOLVE + ("format",)),
    "convergence": (_cmd_convergence, ("grid_l", "grid_n", "format", "out")),
}


# Built once per process: a parser is a web of reference cycles, and one
# per call left garbage that only a full collection frees, so the memory of
# a process calling main() in a loop crept up between collections.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigstab", description="sharp eigenvalue bounds and their stability"
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, settings) in _COMMANDS.items():
        # no abbreviations: eigen would take --p for --potential
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.set_defaults(parser=cmd)
        for attr in settings:
            cmd.add_argument(
                "--" + attr.replace("_", "-"), type=SETTINGS[attr][0], default=None,
                choices=_FORMATS if attr == "format" else None,
            )
        cmd.add_argument("--config", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # refused by the subcommand's own parser, so its usage line is shown
        getattr(args, "parser", _build_parser()).error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = _load_config(args)
        _COMMANDS[cfg.command][0](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, EigstabError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
