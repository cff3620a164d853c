"""The three workloads. Each is a closed loop with one caller.

* ``table1_dense``: ``run_table1_sweep`` over the five default path families
  at noise 0.1, fixed ridge and w-RRTLS, on the default 0.7 m survey. Map
  queries dominate; the inner solve is cheap.
* ``lcurve_sparse``: ``run_ablation`` at 3 m survey spacing, noise 0.5, with
  the L-curve ridge policy: every cell of ols/rrtls/wrrtls x GP/bilinear.
  ``select_lambda`` dominates; the only workload that runs ``BilinearMap``.
* ``field_cli``: a field session through ``cli.main``: ``build-map``, then
  ``calibrate`` and ``evaluate --truth`` for each sensor of a 2-sensor rig.
  ``simulate`` runs in set-up. The write side of the map (fit and
  persistence) and what a field engineer waits on.

A workload's ``op(i)`` is deterministic in (seed, i). Sweep ops draw fresh
inputs per op; field sessions repeat the same commands on the same files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import self_times
from stats import CheckError, SCORE_KEYS


@dataclass
class OpResult:
    wall_s: float
    rows: list                                     # one per trial
    commands: dict = field(default_factory=dict)   # CLI command -> [seconds]


def op_seed(seed: int, i: int) -> int:
    """Op 0 runs the workload seed itself."""
    return seed + 1000 * i


def _share(spans, part, whole) -> dict:
    """Self time of the spans ``part`` selects over the duration of the spans
    ``whole`` selects, counting traced ops only (not set-up)."""
    num = sum(own for s, own in zip(spans, self_times(spans)) if s.op >= 0 and part(s))
    den = sum(s.duration for s in spans if s.op >= 0 and whole(s))
    return {"share": num / den if den else 0.0, "holds": den > 0 and num > 0.5 * den}


def _check_row_count(report: dict, expected: int) -> list:
    rows = report.get("rows")
    if not isinstance(rows, list) or len(rows) != expected:
        got = len(rows) if isinstance(rows, list) else rows
        raise CheckError(f"sweep returned {got} rows, expected {expected}")
    return rows


class _Sweep:
    trace_ops = 1

    def setup(self, seed: int, workdir: Path) -> None:
        from magcalib import sweeps  # noqa: F401  (import cost is set-up)
        self.seed = seed

    def map_positions(self):
        """World and true sensor positions along the calibration paths, which
        are the same in every op."""
        from magcalib.simulator import generate_path
        spec = self.spec(0)
        t = np.asarray(spec.sensor_offset, float)
        out = []
        for path_spec in self.paths(spec):
            poses = generate_path(path_spec, spec.world)
            out.extend(p.rotation @ t + p.translation for p in poses)
        return spec.world, np.asarray(out)


class Table1Dense(_Sweep):
    name = "table1_dense"

    def spec(self, i: int):
        from magcalib.sweeps import SweepSpec
        return SweepSpec(noise_levels=(0.1,), n_distortions=3, n_initial_offsets=5,
                         seed=op_seed(self.seed, i))

    def paths(self, spec):
        return spec.paths

    def claim(self, spans) -> dict:
        return {"claim": "magmap query + gradient self time is the majority of "
                         "extrinsic.calibrate",
                **_share(spans, lambda s: s.name in ("magmap.query_many",
                                                     "magmap.gradient_many"),
                         lambda s: s.name == "extrinsic.calibrate")}

    def op(self, i: int) -> OpResult:
        from magcalib import sweeps
        spec = self.spec(i)
        t0 = time.perf_counter()
        report = sweeps.run_table1_sweep(spec)
        wall = time.perf_counter() - t0
        expected = (len(spec.paths) * len(spec.noise_levels)
                    * spec.n_distortions * spec.n_initial_offsets)
        return OpResult(wall, _check_row_count(report, expected))


class LcurveSparse(_Sweep):
    name = "lcurve_sparse"
    trace_ops = 4
    densities = (3.0,)

    def spec(self, i: int):
        from magcalib.extrinsic import CalibrationConfig
        from magcalib.sweeps import SweepSpec
        return SweepSpec(noise_levels=(0.5,), n_distortions=1, n_initial_offsets=1,
                         offset_range=0.5, seed=op_seed(self.seed, i),
                         config=CalibrationConfig(lambda_policy="l_curve"))

    def paths(self, spec):
        return spec.paths[:1]

    def claim(self, spans) -> dict:
        return {"claim": "intrinsic.select_lambda self time is the majority of "
                         "extrinsic.calibrate",
                **_share(spans, lambda s: s.name == "intrinsic.select_lambda",
                         lambda s: s.name == "extrinsic.calibrate")}

    def op(self, i: int) -> OpResult:
        from magcalib import sweeps
        spec = self.spec(i)
        t0 = time.perf_counter()
        report = sweeps.run_ablation(spec, densities=self.densities)
        wall = time.perf_counter() - t0
        expected = (len(self.densities) * 2 * 3
                    * spec.n_distortions * spec.n_initial_offsets)
        return OpResult(wall, _check_row_count(report, expected))


# ---------------------------------------------------------------------------
# field session through the CLI


_WORLD = {"extent": {"lo": [0.0, 0.0, 0.0], "hi": [45.0, 35.0, 3.0]},
          "ambient": [38.0, 6.0, -14.0]}
_OFFSETS = ([0.3, -0.1, 0.15], [-0.25, 0.2, 0.1])
_HYPER = {"length_scale": 0.8, "noise_variance": 0.001, "block_size": 8.0}


def _run_cli(argv) -> tuple:
    """Run one command in-process: (return code, stdout, seconds)."""
    from magcalib import cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def _error_row(message: str) -> dict:
    nan = float("nan")
    return {"converged": False, "success": "failure", "error": message,
            **{k: nan for k in SCORE_KEYS}}


class FieldCli:
    name = "field_cli"
    trace_ops = 2

    def setup(self, seed: int, workdir: Path) -> None:
        from magcalib.simulator import random_distortion
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        sensors = []
        for offset in _OFFSETS:
            dist = random_distortion(rng)
            sensors.append({"offset": offset, "gain": dist.gain.tolist(),
                            "bias": dist.bias.tolist()})
        for name, doc in (("world", _WORLD), ("hyper", _HYPER),
                          ("rig", {"noise_sigma": 0.1, "sensors": sensors})):
            (self.dir / f"{name}.json").write_text(json.dumps(doc))
        rc, _, _ = _run_cli([
            "simulate", "--world", str(self.dir / "world.json"),
            "--rig", str(self.dir / "rig.json"), "--out", str(self.dir / "sim"),
            "--path", "lawnmower", "--spacing", "2.5", "--z-height", "0.6",
            "--margin", "8.0", "--survey-spacing", "0.7", "--survey-noise", "0.03",
            "--seed", str(seed)])
        if rc != 0:
            raise CheckError(f"simulate returned {rc}")
        self.truth = json.loads((self.dir / "sim" / "truth.json").read_text())
        if len(self.truth["sensors"]) != len(_OFFSETS):
            raise CheckError("truth.json does not list every sensor")

    def op(self, i: int) -> OpResult:
        sim = self.dir / "sim"
        map_path = self.dir / "map.json"
        commands = {"build-map": [], "calibrate": [], "evaluate": []}
        rows = []
        t0 = time.perf_counter()
        failure = ""
        try:
            rc, _, dt = _run_cli(["build-map", "--fingerprints", str(sim / "survey.jsonl"),
                                  "--hyper", str(self.dir / "hyper.json"),
                                  "--out", str(map_path)])
            commands["build-map"].append(dt)
            if rc != 0:
                failure = f"build-map returned {rc}"
        except Exception as exc:  # an op failure, not a benchmark fault
            failure = f"build-map raised {exc!r}"
        for s in range(len(_OFFSETS)):
            rows.append(_error_row(failure) if failure
                        else self._sensor(s, map_path, commands))
        return OpResult(time.perf_counter() - t0, rows, commands)

    def _sensor(self, s: int, map_path: Path, commands: dict) -> dict:
        result_path = self.dir / f"result{s}.json"
        try:
            rc, _, dt = _run_cli(["calibrate", "--map", str(map_path),
                                  "--data", str(self.dir / "sim" / f"mag{s}.jsonl"),
                                  "--out", str(result_path)])
            commands["calibrate"].append(dt)
            if rc not in (0, 1):   # 1 is an honest "did not converge"
                return _error_row(f"calibrate returned {rc}")
            rc, out, dt = _run_cli(["evaluate", "--result", str(result_path),
                                    "--truth", str(self.dir / "sim" / "truth.json"),
                                    "--sensor-index", str(s)])
            commands["evaluate"].append(dt)
            if rc != 0:
                return _error_row(f"evaluate returned {rc}")
        except Exception as exc:  # an op failure, not a benchmark fault
            return _error_row(f"sensor {s} raised {exc!r}")
        return self._check_sensor(s, result_path, out)

    def _check_sensor(self, s: int, result_path: Path, evaluate_out: str) -> dict:
        from magcalib.intrinsic import AffineDistortion
        from magcalib.metrics import score_result
        from magcalib.serialization import load_result
        try:
            doc = load_result(result_path)
            report = json.loads(evaluate_out)
            t_hat = np.asarray(doc["translation"], float).reshape(3)
            dist_hat = AffineDistortion(np.asarray(doc["gain"], float),
                                        np.asarray(doc["bias"], float))
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"sensor {s}: result or evaluate output does not "
                             f"parse: {exc!r}") from exc
        truth = self.truth["sensors"][s]
        expected = score_result(t_hat, dist_hat, np.asarray(truth["offset"], float),
                                AffineDistortion(np.asarray(truth["gain"], float),
                                                 np.asarray(truth["bias"], float)))
        for key in SCORE_KEYS:
            got = report.get(key)
            want = getattr(expected, key)
            if not (isinstance(got, float) and math.isfinite(got)
                    and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)):
                raise CheckError(f"sensor {s}: evaluate {key}={got!r}, "
                                 f"score_result gives {want!r}")
        if report.get("success") != expected.success:
            raise CheckError(f"sensor {s}: evaluate success label "
                             f"{report.get('success')!r} != {expected.success!r}")
        return {"converged": bool(doc["converged"]), "success": expected.success,
                "error": "", **{k: getattr(expected, k) for k in SCORE_KEYS}}

    def claim(self, spans) -> dict:
        return {"claim": "serialization + magmap.build_map self time is the "
                         "majority of a session",
                **_share(spans, lambda s: (s.layer == "serialization"
                                           or s.name == "magmap.build_map"),
                         lambda s: s.layer == "cli")}

    def map_positions(self):
        """World and true sensor positions along the calibration path."""
        from magcalib import serialization
        world = serialization.load_world(self.dir / "world.json")
        out = []
        for s, sensor in enumerate(self.truth["sensors"]):
            data = serialization.read_fingerprints(self.dir / "sim" / f"mag{s}.jsonl")
            t = np.asarray(sensor["offset"], float)
            out.extend(p.rotation @ t + p.translation for p in data.poses())
        return world, np.asarray(out)


WORKLOADS = {w.name: w for w in (Table1Dense, LcurveSparse, FieldCli)}
