"""The benchmark's traced layer metrics stay strict JSON.

``magbench/spans.py`` wraps named functions of the package; a metric built
from a wrapped name that records no span (``stats.summarize([])``) is NaN,
which no strict JSON reader takes. A refactor that stops calling one of
those names fails here, before the benchmark does.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "magbench"))

from spans import Recorder, check_pristine, installed, layer_metrics, \
    magcalib_targets  # noqa: E402

from magcalib import sweeps  # noqa: E402


def test_traced_sweeps_give_strict_json_layer_metrics():
    spec = sweeps.SweepSpec(paths=sweeps.default_path_specs()[:1], noise_levels=(0.1,),
                            n_distortions=1, n_initial_offsets=1, seed=20)
    recorder, targets = Recorder(), magcalib_targets()
    with installed(recorder, targets):
        sweeps.run_table1_sweep(spec)
        sweeps.run_ablation(spec, densities=(3.0,))
    check_pristine(targets)
    metrics = layer_metrics(recorder)
    json.dumps(metrics, allow_nan=False)
    assert metrics["extrinsic.calibrate.calls"] > 0
