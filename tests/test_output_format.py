"""The one output format: every computed float is written by grid.exact and
reads back bit for bit; echoed settings stay JSON numbers."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from eigstab.grid import Grid, csv_text, exact
from eigstab.hessian import kernel_report
from eigstab.stability import stability_report

from conftest import solve_quiet


@pytest.mark.parametrize(
    "x", [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
          np.float64(1.0 / 3.0), 0.1, -1.0]
)
def test_exact_round_trips_bit_for_bit(x):
    text = exact(x)
    assert isinstance(text, str)
    back = float(text)
    assert back == x
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


def test_exact_non_finite_by_class():
    assert math.isnan(float(exact(float("nan"))))
    assert math.isnan(float(exact(np.float64("nan"))))
    assert float(exact(float("inf"))) == math.inf
    assert float(exact(-np.inf)) == -math.inf


def test_exact_encodes_containers_and_passes_the_rest():
    doc = {
        "a": [1.5, np.array([0.25, 2.0])],
        "b": (np.float64(0.1),),
        "n": 3,
        "ok": True,
        "s": "x",
        "z": None,
        "nested": {"c": [None, 7, -0.0]},
    }
    assert exact(doc) == {
        "a": ["1.5", ["0.25", "2"]],
        "b": ["0.10000000000000001"],
        "n": 3,
        "ok": True,
        "s": "x",
        "z": None,
        "nested": {"c": [None, 7, "-0"]},
    }
    for value in (3, True, False, None, "1.5"):
        assert exact(value) is value


def test_csv_text_rows_and_empty_fields():
    text = csv_text(["name", "x", "y"], [["a", 0.1, None], ("b", 2, np.float64(1.0 / 3.0))])
    assert text == "name,x,y\na,0.10000000000000001,\nb,2,0.33333333333333331\n"


def _assert_report_round_trip(rep):
    doc = json.loads(rep.to_json())
    keys = ["lambda" if f.name == "lam" else f.name for f in fields(rep)]
    assert list(doc) == keys
    for f, key in zip(fields(rep), keys):
        value, text = getattr(rep, f.name), doc[key]
        if f.name in ("gamma", "d", "p", "q"):
            assert text == value and not isinstance(text, str)
        elif value is None or isinstance(value, str):
            assert text == value
        else:
            assert float(text) == value, key
    return doc


@pytest.fixture(scope="module")
def gs_q6_d1():
    return solve_quiet(6.0, 1, 20.0, 2000)


def test_low_branch_report_round_trip(gs_q6_d1):
    # q = 6 in d = 1 is gamma = 1, p = 3/2 < 2: the low branch
    grid = Grid.line(20.0, 2000)
    V = grid.from_callable(lambda x: -1.5 / np.cosh(x - 0.3) ** 2)
    doc = _assert_report_round_trip(stability_report(V, 1.0, 1, gs_q6_d1))
    assert doc["branch"] == "low"
    for key in ("transfer_distance", "transfer_ratio", "trans_lhs", "trans_rhs"):
        assert doc[key] is None


def test_high_branch_report_round_trip(gs_q3_d1):
    # q = 3 in d = 1 is gamma = 5/2, p = 3: the high branch
    grid = Grid.line(20.0, 4000)
    V = grid.from_callable(lambda x: -2.0 / np.cosh(x) ** 2 * (1.0 + 0.2 * np.cos(x)))
    doc = _assert_report_round_trip(stability_report(V, 2.5, 1, gs_q3_d1))
    assert doc["branch"] == "high"
    assert doc["transfer_distance"] is not None


def test_kernel_report_overlap_reads_back(gs_q4_d1):
    rep = kernel_report(gs_q4_d1)
    doc = json.loads(rep.to_json())
    assert [c["overlap"] is None for c in doc["channels"]] == [
        c.overlap is None for c in rep.channels
    ]
    for c, c_doc in zip(rep.channels, doc["channels"]):
        if c.overlap is not None:
            assert float(c_doc["overlap"]) == c.overlap
        assert [float(e) for e in c_doc["eigs"]] == c.eigs
    assert float(doc["empirical_gap"]) == rep.empirical_gap
