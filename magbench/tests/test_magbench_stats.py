"""Summaries and outcome classes.

Run from the repository root: ``python3 -m pytest magbench/tests -q``.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from stats import CheckError, accuracy, classify_row, summarize  # noqa: E402


def _row(success="small", converged=True, error="", e_t=1e-4, e_c=0.01, e_h=0.05):
    return {"success": success, "converged": converged, "error": error,
            "translation_sq_m2": e_t, "gain_frobenius": e_c, "bias_sq_ut2": e_h}


def test_summarize_median_and_sample_count():
    out = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert out["p50"] == 3.0 and out["n"] == 5
    assert summarize([1.0, 2.0])["p50"] == 1.5
    assert summarize(range(1, 11))["p90"] == pytest.approx(9.1)
    empty = summarize([])
    assert empty["n"] == 0 and math.isnan(empty["p50"])


def test_error_and_miss_are_separate_classes():
    assert classify_row(_row()) == "hit"
    assert classify_row(_row(success="medium")) == "hit"
    assert classify_row(_row(success="failure")) == "miss"
    # non-convergence is a miss, never an error
    assert classify_row(_row(converged=False)) == "miss"
    nan = float("nan")
    assert classify_row(_row(error="off the map", e_t=nan, e_c=nan, e_h=nan)) == "error"


def test_malformed_rows_fail_the_check():
    with pytest.raises(CheckError, match="non-finite"):
        classify_row(_row(e_t=float("nan")))
    with pytest.raises(CheckError, match="lacks"):
        classify_row({"success": "small"})
    with pytest.raises(CheckError, match="label"):
        classify_row(_row(success="great"))


def test_accuracy_keeps_misses_and_drops_only_error_rows():
    nan = float("nan")
    rows = [_row(e_t=1.0), _row(e_t=2.0), _row(success="failure", e_t=90.0),
            _row(error="boom", e_t=nan, e_c=nan, e_h=nan)]
    acc = accuracy(rows)
    assert acc["error_rate"] == 0.25
    assert acc["miss_rate"] == 0.25
    assert acc["e_t_m2.p50"] == 2.0       # median of 1, 2, 90
    with pytest.raises(CheckError):
        accuracy([])
