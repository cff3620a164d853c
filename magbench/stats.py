"""Summaries and outcome classes shared by the workloads.

An operation (a sweep trial or a CLI command) ends in one of three classes:

* ``error``: it raised, or a sweep row carries a non-empty ``error``. Counted
  in ``failed`` and ``error_rate``.
* ``miss``: it ran but the estimate is a failure: not converged, or more than
  5 cm from the true lever arm. Counted in ``miss_rate``, never in
  ``error_rate``: non-convergence is an honest answer, not a fault.
* ``hit``: anything else.

Output that is non-finite without an ``error``, or malformed, is neither: it
raises :class:`CheckError` and fails the whole run.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_KEYS = ("translation_sq_m2", "gain_frobenius", "bias_sq_ut2")


class CheckError(RuntimeError):
    """The program's output failed a correctness check."""


def summarize(values) -> dict:
    """Median, 90th percentile and sample count of a list of timings."""
    arr = np.asarray(list(values), float)
    if arr.size == 0:
        return {"p50": float("nan"), "p90": float("nan"), "n": 0}
    return {"p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "n": int(arr.size)}


def classify_row(row: dict) -> str:
    """Outcome class of one sweep row, or :class:`CheckError`."""
    for key in ("success", "converged", "error", *SCORE_KEYS):
        if key not in row:
            raise CheckError(f"sweep row lacks {key!r}: {row}")
    if row["error"]:
        return "error"
    if not all(math.isfinite(row[k]) for k in SCORE_KEYS):
        raise CheckError(f"sweep row is non-finite without an error: {row}")
    if row["success"] not in ("small", "medium", "failure"):
        raise CheckError(f"unknown success label {row['success']!r}")
    if row["success"] == "failure" or not row["converged"]:
        return "miss"
    return "hit"


def accuracy(rows) -> dict:
    """Outcome rates and median errors over scored rows.

    Misses stay in the medians; only ``error`` rows, which carry no scores,
    are left out.
    """
    if not rows:
        raise CheckError("no rows to score")
    classes = [classify_row(r) for r in rows]
    scored = [r for r, c in zip(rows, classes) if c != "error"]
    out = {
        "error_rate": classes.count("error") / len(rows),
        "miss_rate": classes.count("miss") / len(rows),
    }
    for name, key in (("e_t_m2", "translation_sq_m2"), ("e_C", "gain_frobenius"),
                      ("e_H_ut2", "bias_sq_ut2")):
        out[f"{name}.p50"] = (float(np.median([r[key] for r in scored]))
                              if scored else float("nan"))
    return out
