"""The sweep-report summary of ``tools/equiv.py``."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "equiv", Path(__file__).resolve().parent.parent / "tools" / "equiv.py")
equiv = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equiv)


def _row(converged=True, success="small", t=1e-4, gain=0.01, bias=0.2):
    return {"converged": converged, "success": success, "translation_sq_m2": t,
            "gain_frobenius": gain, "bias_sq_ut2": bias, "iterations": 4}


def test_row_changes_counts_relabelled_rows_and_the_largest_score_changes():
    a = {"rows": [_row(), _row(), _row(False, "failure", float("nan"))]}
    b = {"rows": [_row(t=1.5e-4), _row(success="medium", bias=0.1),
                  _row(False, "failure", float("nan"))]}
    assert equiv.row_changes(a, b) == (
        "1 of 3 rows changed their converged or success label; largest relative "
        "change translation_sq_m2 3.333e-01, gain_frobenius 0.000e+00, "
        "bias_sq_ut2 5.000e-01")


def test_row_changes_needs_the_same_rows():
    assert equiv.row_changes({"converged": True}, {"converged": False}) is None
    assert equiv.row_changes({"rows": [_row()]}, {"rows": []}) is None
