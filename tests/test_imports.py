"""Lattice maps, the multilinear baseline, sweeps and the CLI's lattice
session import no scipy: a ``magcalib`` process pays for scipy only on the
paths that call it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the world, rig and hyperparameters of tests/test_cli.py, on a smaller box
_SESSION = """
import json, sys
from pathlib import Path
from magcalib.cli import main

root = Path(sys.argv[1])
(root / "world.json").write_text(json.dumps({
    "extent": {"lo": [0, 0, 0], "hi": [12, 10, 3]}, "ambient": [38.0, 6.0, -14.0],
    "dipoles": [{"position": [6.0, 4.5, 2.6], "moment": [10.0, 4.0, 30.0]}]}))
(root / "rig.json").write_text(json.dumps({"noise_sigma": 0.05, "sensors": [{
    "offset": [0.3, -0.1, 0.2], "gain": [[1.08, 0.05, -0.02], [0.03, 0.94, 0.06],
                                         [-0.04, 0.02, 1.1]], "bias": [2.0, -1.5, 0.8]}]}))
(root / "hyper.json").write_text(json.dumps(
    {"length_scale": 0.8, "noise_variance": 0.001, "block_size": 8.0}))
codes = [
    main(["simulate", "--world", str(root / "world.json"), "--path", "lawnmower",
          "--rig", str(root / "rig.json"), "--out", str(root / "sim"), "--spacing", "1.2",
          "--z-height", "0.6", "--margin", "3.0", "--survey-spacing", "1.0",
          "--survey-noise", "0.03", "--seed", "4"]),
    main(["build-map", "--fingerprints", str(root / "sim" / "survey.jsonl"),
          "--hyper", str(root / "hyper.json"), "--out", str(root / "map.json")]),
    main(["calibrate", "--map", str(root / "map.json"),
          "--data", str(root / "sim" / "mag0.jsonl"), "--out", str(root / "result.json")]),
    main(["evaluate", "--result", str(root / "result.json"),
          "--truth", str(root / "sim" / "truth.json")]),
]
print(json.dumps({"codes": codes,
                  "converged": json.loads((root / "result.json").read_text())["converged"]}))
"""

# an off-grid survey takes the Cholesky path, which does need scipy
_OFF_GRID = """
import numpy as np
from magcalib.geometry import Dataset
from magcalib.magmap import GpHyperparams, build_map

rng = np.random.default_rng(0)
positions = rng.uniform(0.0, 4.0, (40, 3))
data = Dataset("survey", "map", np.arange(40.0), np.broadcast_to(np.eye(3), (40, 3, 3)),
               positions, rng.normal(30.0, 1.0, (40, 3)))
build_map(data, GpHyperparams(length_scale=2.0), block_size=8.0).query_many(positions[:3])
"""

# the ablation's multilinear baseline on its 3 m survey
_BILINEAR = """
from magcalib.magmap import BilinearMap
from magcalib.simulator import survey_dataset, survey_positions
from magcalib.sweeps import SweepSpec

spec = SweepSpec()
positions = survey_positions(spec.world, 3.0)
grid = BilinearMap(survey_dataset(spec.world, positions, spec.survey_noise, seed=2030))
print(grid.query_many(positions[:5])[2].all() and grid.gradient_many(positions[:5])[1].all())
"""


def _scipy_after(code: str, *args: str) -> tuple:
    """``(scipy modules loaded, the line printed before them)`` of a fresh
    interpreter, importing from this tree's ``src``, that runs ``code``."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
                    "if m == 'scipy' or m.startswith('scipy.'))))\n")
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[-2] if len(lines) > 1 else None


def test_importing_magcalib_loads_no_scipy():
    loaded, _ = _scipy_after("import magcalib, magcalib.cli, magcalib.sweeps")
    assert loaded == []


def test_lattice_cli_session_loads_no_scipy(tmp_path):
    """``simulate``, ``build-map``, ``calibrate`` (its plausibility test
    included) and ``evaluate --truth`` on a lattice survey."""
    loaded, report = _scipy_after(_SESSION, str(tmp_path))
    assert json.loads(report) == {"codes": [0, 0, 0, 0], "converged": True}
    assert loaded == []


def test_bilinear_map_loads_no_scipy():
    """Building the ablation's ``BilinearMap``, querying it and taking its
    gradient."""
    loaded, report = _scipy_after(_BILINEAR)
    assert report == "True"
    assert loaded == []


def test_off_grid_map_loads_scipy_on_its_first_query():
    """The probe sees scipy where a path does import it."""
    loaded, _ = _scipy_after(_OFF_GRID)
    assert {"scipy.linalg", "scipy.spatial.distance"} <= set(loaded)
