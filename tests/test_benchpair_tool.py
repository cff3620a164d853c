"""The run check of ``tools/benchpair.py``: a run's last stdout line must be
strict JSON holding ``"correct": true``."""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))  # benchpair imports equiv from beside it
_SPEC = importlib.util.spec_from_file_location("benchpair", _TOOLS / "benchpair.py")
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)


def test_result_line_reads_the_last_line():
    out = '  trials_per_s 3.2 1/s\n{"correct": true, "attempted": 5, "failed": 0}\n'
    assert benchpair.result_line(out) == {"correct": True, "attempted": 5, "failed": 0}


@pytest.mark.parametrize("out, match", [
    ('{"correct": true, "metrics": {"p50": NaN}}\n', "NaN is not JSON"),
    ('{"correct": true, "metrics": {"p50": -Infinity}}\n', "-Infinity is not JSON"),
    ('{"correct": false}\n', '"correct": true'),
    ('{"correct": true}\n  reason: {}\n', "no strict JSON"),
    ('[true]\n', '"correct": true'),
    ("", "no strict JSON"),
])
def test_result_line_rejects_what_the_benchmark_would(out, match):
    with pytest.raises(ValueError, match=match):
        benchpair.result_line(out)
