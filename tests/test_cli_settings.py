"""Each subcommand's parser offers exactly the flags of the settings it reads;
a config file may still hold any setting."""

import json
import re

import pytest

from eigstab.cli import _build_parser, main

#: every setting with a value its flag accepts, and "tol", a setting no
#: longer, which every subcommand must refuse as a flag
VALUES = {
    "gamma": "1.5", "q": "4", "d": "1", "grid_l": "20", "grid_n": "1000",
    "tol": "1e-3", "seed": "1", "samples": "10", "out": "x.json",
    "format": "csv", "potential": "x.csv", "p": "3",
}

_SOLVE = {"gamma", "q", "d", "grid_l", "grid_n", "out"}

#: the settings each subcommand's handler reads, written out here so that a
#: change to the CLI's table shows up as a failing test
READS = {
    "ground-state": _SOLVE,
    "constants": _SOLVE,
    "hessian": _SOLVE,
    "stability-sweep": _SOLVE | {"format"},
    "eigen": {"d", "grid_l", "grid_n", "potential", "out"},
    "convergence": {"grid_l", "grid_n", "format", "out"},
    "holder-verify": {"samples", "seed", "p", "out"},
}

UNREAD = [(cmd, s) for cmd, reads in READS.items() for s in VALUES if s not in reads]


def _flag(setting):
    return "--" + setting.replace("_", "-")


# ("eigen", "p") also pins that flags are not abbreviated: --p must not
# be taken for eigen's --potential
@pytest.mark.parametrize("command, setting", UNREAD, ids=[f"{c}-{s}" for c, s in UNREAD])
def test_unread_setting_flag_exits_2(capsys, command, setting):
    with pytest.raises(SystemExit) as exc:
        main([command, _flag(setting), VALUES[setting]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {_flag(setting)}" in captured.err


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_read_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {_flag(s) for s in READS[command]} | {"--config", "--help"}


def test_holder_verify_takes_from_a_file_what_it_refuses_as_a_flag(capsys, tmp_path):
    args = ["holder-verify", "--samples", "50", "--seed", "3"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--gamma", "1.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 1.5, "d": 1, "grid_l": 20.0, "grid_n": 1000}))
    assert main(args + ["--config", str(cfg)]) == 0
    with_file = capsys.readouterr().out
    assert main(args) == 0
    assert with_file == capsys.readouterr().out
    assert json.loads(with_file)["violations"] == 0


#: the subcommands that build a grid, each with what else it needs to get
#: that far; eigen reads its potential file only after the grid is built
GRID_ARGS = {
    "ground-state": ["--gamma", "1.5"],
    "constants": ["--gamma", "1.5"],
    "hessian": ["--gamma", "1.5"],
    "stability-sweep": [],
    "eigen": ["--potential", "missing.csv"],
    "convergence": [],
}

#: the refusals' owners: Exponents.from_gamma for d, Grid for d on eigen's
#: radial grid and for the grid itself
BAD_SETTINGS = [
    *((cmd, ["--d", "0"], "dimension must be >= 1")
      for cmd in ("ground-state", "constants", "hessian", "stability-sweep")),
    ("eigen", ["--d", "0"], "invalid grid: radial grids need dim >= 1"),
    *((cmd, ["--grid-l", "0"], "invalid grid: extent must be positive and finite")
      for cmd in GRID_ARGS),
    *((cmd, ["--grid-n", "8"], "invalid grid: need at least 16 nodes") for cmd in GRID_ARGS),
]


@pytest.mark.parametrize(
    "command, flags, message", BAD_SETTINGS,
    ids=[f"{c}{''.join(f)}" for c, f, _ in BAD_SETTINGS],
)
def test_bad_dimension_or_grid_exits_2_with_one_error_line(capsys, command, flags, message):
    assert main([command, *GRID_ARGS[command], *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("doc", [{"d": 0}, {"grid_n": 8}])
def test_holder_verify_runs_with_a_dimension_or_grid_it_does_not_read(capsys, tmp_path, doc):
    args = ["holder-verify", "--samples", "20", "--seed", "5"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(args + ["--config", str(cfg)]) == 0
    with_file = capsys.readouterr().out
    assert main(args) == 0
    assert with_file == capsys.readouterr().out


@pytest.mark.parametrize("command, setting", UNREAD, ids=[f"{c}-{s}" for c, s in UNREAD])
def test_unread_flag_is_refused_with_the_subcommand_usage(capsys, command, setting):
    flag, value = _flag(setting), VALUES[setting]
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: eigstab {command} [-h]")
    assert captured.err.endswith(
        f"eigstab {command}: error: unrecognized arguments: {flag} {value}\n"
    )


def test_stray_argument_before_any_subcommand_gets_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--p"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: eigstab [-h]")
    assert captured.err.endswith("eigstab: error: unrecognized arguments: --p\n")


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()
