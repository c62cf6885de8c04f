"""The golden-output tool (tools/cli_goldens.py) summarizes a difference in
numbers only as one line, and shows a diff for anything else."""

import math
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_goldens.py"


def _tool():
    """The tool module, executed from its source; nothing is written beside
    it (no bytecode cache), and its ``main`` does not run."""
    module = types.ModuleType("cli_goldens")
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    return module


OLD = '{"C": "0.32759277831410116", "d": 1, "eigs": ["-1e-12", "2.5"]}\nx,y\n0,3\n'


def test_numbers_only_are_counted_with_the_largest_relative_change():
    new = OLD.replace("0.32759277831410116", "0.3275927783142406").replace("2.5", "2.6")
    count, total, rel, old, changed = _tool().number_changes(OLD, new)
    assert (count, total, old, changed) == (2, 6, "2.5", "2.6")
    assert rel == pytest.approx(0.04)


def test_change_from_zero_is_infinite():
    changes = _tool().number_changes(OLD, OLD.replace("0,3", "1e-300,3"))
    assert changes[:2] == (1, 6)
    assert math.isinf(changes[2])
    assert changes[3:] == ("0", "1e-300")


def test_equal_texts_have_no_changed_number():
    assert _tool().number_changes(OLD, OLD) == (0, 6, 0.0, "", "")


def test_other_changes_are_not_numbers_only():
    tool = _tool()
    assert tool.number_changes(OLD, OLD.replace('"d"', '"dim"')) is None
    assert tool.number_changes(OLD, OLD + "4,5\n") is None
    assert tool.number_changes(OLD, OLD.replace('"2.5"', '"nan"')) is None


USAGE = "usage: eigstab [-h] {constants,ground-state} ...\neigstab: error: unrecognized arguments: --p 3\n"


def test_a_changed_refusal_message_is_a_difference():
    sub = USAGE.replace("usage: eigstab [-h] {constants,ground-state} ...",
                        "usage: eigstab stability-sweep [-h] [--gamma GAMMA]")
    lines = _tool().report("stability-sweep --p 3", (2, "", USAGE), (2, "", sub))
    assert lines[0].startswith("DIFF  (exit 2 vs 2)")
    assert "      stderr:\n" in lines
    assert "-usage: eigstab [-h] {constants,ground-state} ...\n" in lines
    assert "+usage: eigstab stability-sweep [-h] [--gamma GAMMA]\n" in lines


def test_equal_runs_are_one_same_line():
    run = (0, OLD, "")
    assert _tool().report("constants", run, run) == ["same  (exit 0)  constants\n"]


def test_numbers_and_stderr_are_both_reported():
    new = OLD.replace("2.5", "2.6")
    lines = _tool().report("hessian", (0, OLD, ""), (0, new, "warning\n"))
    assert "1 of 6 numbers differ" in lines[1]
    assert lines[2:] == ["      stderr:\n", "--- a\n", "+++ b\n", "@@ -0,0 +1 @@\n", "+warning\n"]


def test_the_truncating_constants_run_is_a_golden():
    assert "constants --gamma 1 --d 3" in _tool().COMMANDS


def test_both_blocked_scans_are_goldens():
    # p = 3 scans through the power map, p = 3/2 on the low branch without it
    commands = _tool().COMMANDS
    assert "stability-sweep --gamma 2.5 --d 1 --format csv" in commands
    assert "stability-sweep --gamma 1 --d 1 --format csv" in commands


def test_the_dimension_and_grid_refusals_are_goldens():
    commands = _tool().COMMANDS
    assert "constants --gamma 1.5 --d 0" in commands
    assert "constants --gamma 1.5 --d 1 --grid-n 8" in commands
