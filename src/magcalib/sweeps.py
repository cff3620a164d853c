"""Experiment sweeps: accuracy tables, success-rate curves, ablations.

Every sweep is a deterministic function of its spec (seeds are spawned per
trial from the spec seed, so trials are independent and reorderable). The
seed derivation lives in :func:`_run_sweep`, which gives each cell the next
spawn of the sweep's root ``SeedSequence`` (``spec.seed``, plus 1 for the
success sweep and 2 for the ablation), and :func:`_trials`, which spawns a
cell's distortions and initial offsets from it. The table1, success and
ablation sweeps differ only in the cells they hand to that one driver, and
share one aggregator, :func:`_aggregate_cell`.

Reports are plain dicts ready for JSON plus flat CSV rows for plotting;
failed trials are recorded as ``failure`` rows, never dropped. When an
output directory is given, rows are appended to disk as they complete so
partial results survive a crash.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .extrinsic import (
    CalibrationConfig,
    CalibrationError,
    CalibrationInput,
    calibrate,
    classify_success,
)
from .intrinsic import AffineDistortion, compensate_many
from .magmap import BilinearMap, GpHyperparams, MagMap, build_map
from .metrics import metric_reading_error, score_result, sensor_frame_prediction
from .simulator import (
    PathSpec,
    SensorRig,
    WorldConfig,
    generate_path,
    random_distortion,
    sample_dataset,
    survey_dataset,
    survey_positions,
)


def default_experiment_world() -> WorldConfig:
    """The default synthetic hall for sweeps: rack/beacon clutter under a
    low-inclination (near-horizontal) ambient field typical of equatorial
    sites."""
    return WorldConfig(ambient_field=np.array([38.0, 6.0, -14.0]))


def default_path_specs(spacing: float = 2.5, margin: float = 8.0,
                       z_height: float = 0.6, n_samples: int = 200,
                       seed: int = 7) -> tuple:
    """The five calibration path families used throughout the sweeps."""
    kinds = ("lawnmower", "perimeter", "random_walk", "figure_eight", "diagonal_sweep")
    return tuple(
        PathSpec(kind=k, sample_spacing=spacing, z_height=z_height,
                 n_samples=n_samples, seed=seed + i, region_margin=margin)
        for i, k in enumerate(kinds))


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Shared experiment description.

    ``n_distortions`` x ``n_initial_offsets`` trials run per sweep cell;
    initial lever-arm guesses are drawn uniformly in a ball of radius
    ``offset_range`` around the truth. The world, mapping survey, and
    optimizer settings ride along so a report fully reproduces itself.
    """

    paths: tuple = field(default_factory=default_path_specs)
    noise_levels: tuple = (0.1,)
    n_distortions: int = 10
    n_initial_offsets: int = 5
    offset_range: float = 1.0
    seed: int = 0
    distortion_scale: float = 1.0
    sensor_offset: tuple = (0.3, -0.1, 0.15)
    world: WorldConfig = field(default_factory=default_experiment_world)
    survey_spacing: float = 0.7
    survey_z_levels: tuple = (0.15, 0.45, 0.75, 1.05, 1.5)
    survey_noise: float = 0.03
    hyper: GpHyperparams = field(
        default_factory=lambda: GpHyperparams(length_scale=0.8, noise_variance=0.001))
    block_size: float = 8.0
    config: CalibrationConfig = field(default_factory=CalibrationConfig)

    def __post_init__(self):
        if self.n_distortions < 1 or self.n_initial_offsets < 1:
            raise ValueError("trial counts must be >= 1")

    def as_dict(self) -> dict:
        return {
            "paths": [p.kind for p in self.paths],
            "noise_levels": list(self.noise_levels),
            "n_distortions": self.n_distortions,
            "n_initial_offsets": self.n_initial_offsets,
            "offset_range": self.offset_range,
            "seed": self.seed,
            "distortion_scale": self.distortion_scale,
            "sensor_offset": list(self.sensor_offset),
            "survey_spacing": self.survey_spacing,
            "survey_z_levels": list(self.survey_z_levels),
            "survey_noise": self.survey_noise,
            "block_size": self.block_size,
        }


def build_reference_map(spec: SweepSpec, seed_offset: int = 0,
                        spacing: float | None = None) -> MagMap:
    """Survey the world on a lattice and fit the GP map."""
    positions = survey_positions(spec.world, spacing or spec.survey_spacing,
                                 spec.survey_z_levels)
    fingerprints = survey_dataset(spec.world, positions, spec.survey_noise,
                                  seed=spec.seed + 1000 + seed_offset)
    return build_map(fingerprints, spec.hyper, spec.block_size)


def _random_offset(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(lo, hi)


def _truth_readings(spec: SweepSpec, path_spec: PathSpec):
    """Poses plus the undistorted lidar-frame field at the true sensor spot."""
    poses = generate_path(path_spec, spec.world)
    rig = SensorRig((np.asarray(spec.sensor_offset, float),),
                    (AffineDistortion.identity(),), 0.0)
    _, truth = sample_dataset(spec.world, poses, rig, 0, seed=spec.seed)
    return poses, truth.readings()


class _RowSink:
    """Collects report rows, optionally mirroring them to a CSV on the fly."""

    def __init__(self, out_dir: Path | None, name: str):
        self.rows: list[dict] = []
        self._file = None
        self._writer = None
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            self._path = out_dir / f"{name}_rows.csv"

    def add(self, row: dict):
        self.rows.append(row)
        if hasattr(self, "_path"):
            new_file = self._writer is None
            if new_file:
                self._file = open(self._path, "w", newline="")
                self._writer = csv.DictWriter(self._file, fieldnames=list(row.keys()))
                self._writer.writeheader()
            self._writer.writerow(row)
            self._file.flush()

    def close(self):
        if self._file is not None:
            self._file.close()


def _write_report(report: dict, out_dir, name: str):
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}_report.json", "w") as fh:
        json.dump(report, fh, indent=2)


def _trials(cell_seed: np.random.SeedSequence, spec: SweepSpec, lo: float, hi: float):
    """Yield ``(distortion_index, offset_index, distortion, offset, trial_rng)``
    for every trial of one cell.

    Per distortion, one spawn of ``cell_seed`` draws the distortion, then
    one spawn per initial offset seeds the trial generator, which draws the
    offset (radius uniform in ``[lo, hi)``) and afterwards the trial's
    measurement noise.
    """
    for d_idx in range(spec.n_distortions):
        dist = random_distortion(np.random.default_rng(cell_seed.spawn(1)[0]),
                                 spec.distortion_scale)
        for o_idx in range(spec.n_initial_offsets):
            trial_rng = np.random.default_rng(cell_seed.spawn(1)[0])
            yield d_idx, o_idx, dist, _random_offset(trial_rng, lo, hi), trial_rng


@dataclass(frozen=True, eq=False)
class _Cell:
    """One sweep cell: ``n_distortions * n_initial_offsets`` trials against
    one map, path, noise level and solver, with initial offsets in the shell
    ``[lo, hi)``. ``labels`` are copied into each row; rows are aggregated
    by ``key``."""

    key: str
    labels: dict
    field_map: object
    poses: list
    b_true: np.ndarray
    noise: float
    config: CalibrationConfig
    lo: float
    hi: float


def _run_trial(cell: _Cell, t_gt, dist, offset, noise_rng) -> dict:
    b_meas = dist.apply_many(cell.b_true)
    if cell.noise > 0:
        b_meas = b_meas + noise_rng.normal(0.0, cell.noise, size=b_meas.shape)
    config = replace(cell.config, measurement_noise=cell.noise)
    inp = CalibrationInput(cell.field_map, cell.poses, b_meas, t_gt + offset)
    try:
        result = calibrate(inp, config)
    except CalibrationError as exc:
        return {
            "converged": False,
            "success": "failure",
            "translation_sq_m2": float("nan"),
            "gain_frobenius": float("nan"),
            "bias_sq_ut2": float("nan"),
            "bias_norm_ut": float("nan"),
            "iterations": 0,
            "error": str(exc),
        }
    report = score_result(result.translation, result.distortion, t_gt, dist)
    return {
        "converged": result.converged,
        "success": report.success if result.converged else "failure",
        "translation_sq_m2": report.translation_sq_m2,
        "gain_frobenius": report.gain_frobenius,
        "bias_sq_ut2": report.bias_sq_ut2,
        "bias_norm_ut": float(np.sqrt(report.bias_sq_ut2)),
        "iterations": result.iterations,
        "error": "",
    }


def _aggregate_cell(rows: list) -> dict:
    """Per-cell failure count, success-label rates and error statistics.
    Error rows (NaN) are left out of each mean; ``n_scored`` says how many
    rows entered it, so a trial that drops out shows as ``n_scored <
    n_trials``."""
    def _stats(name):
        vals = np.array([r[name] for r in rows], float)
        ok = np.isfinite(vals)
        if not np.any(ok):
            return {"mean": float("nan"), "std": float("nan"), "n_scored": 0}
        return {"mean": float(vals[ok].mean()), "std": float(vals[ok].std()),
                "n_scored": int(ok.sum())}

    n = len(rows)
    counts = {label: sum(1 for r in rows if r["success"] == label)
              for label in ("small", "medium", "failure")}
    return {
        "n_trials": n,
        "n_failures": counts["failure"],
        "translation_sq_m2": _stats("translation_sq_m2"),
        "gain_frobenius": _stats("gain_frobenius"),
        "bias_sq_ut2": _stats("bias_sq_ut2"),
        "bias_norm_ut": _stats("bias_norm_ut"),
        **{f"{label}_rate": counts[label] / n for label in counts},
    }


def _run_sweep(kind: str, spec: SweepSpec, cells, seed: int, out_dir,
               **extra) -> dict:
    """Run every trial of every cell, in order, and assemble the report.

    Each cell takes the next spawn of ``SeedSequence(seed)``; see
    :func:`_trials` for the order within a cell. ``extra`` entries go into
    the report between the spec and the rows.
    """
    t_gt = np.asarray(spec.sensor_offset, float)
    root = np.random.SeedSequence(seed)
    sink = _RowSink(out_dir, kind)
    groups: dict[str, list] = {}
    try:
        for cell in cells:
            cell_rows = groups.setdefault(cell.key, [])
            for d_idx, o_idx, dist, offset, trial_rng in _trials(
                    root.spawn(1)[0], spec, cell.lo, cell.hi):
                row = _run_trial(cell, t_gt, dist, offset, trial_rng)
                row.update(cell.labels, distortion_index=d_idx, offset_index=o_idx,
                           offset_norm=float(np.linalg.norm(offset)))
                sink.add(row)
                cell_rows.append(row)
    finally:
        sink.close()
    report = {
        "kind": kind,
        "spec": spec.as_dict(),
        **extra,
        "rows": sink.rows,
        "aggregates": {key: _aggregate_cell(rows) for key, rows in groups.items()},
    }
    _write_report(report, out_dir, kind)
    return report


def run_table1_sweep(spec: SweepSpec, out_dir=None) -> dict:
    """Parameter-error table over (path family, noise level) cells.

    Per cell, ``n_distortions * n_initial_offsets`` trials with random
    corruptions and random initial offsets; reports per-cell mean and std of
    the translation, gain, and bias errors.
    """
    field_map = build_reference_map(spec)

    def cells():
        for path_spec in spec.paths:
            poses, b_true = _truth_readings(spec, path_spec)
            for noise in spec.noise_levels:
                yield _Cell(f"{path_spec.kind}/noise={noise}",
                            {"path": path_spec.kind, "noise": noise},
                            field_map, poses, b_true, noise, spec.config,
                            0.0, spec.offset_range)

    return _run_sweep("table1", spec, cells(), spec.seed, out_dir)


def run_success_sweep(spec: SweepSpec, bin_edges=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
                      out_dir=None) -> dict:
    """Success-rate curve binned by the initial-offset radius.

    For every radius bin, runs ``n_distortions * n_initial_offsets`` trials
    whose initial guess lies in that radial shell, reporting the fraction of
    small-error, medium-error, and failed calibrations.
    """
    field_map = build_reference_map(spec)
    path_spec = spec.paths[0]
    poses, b_true = _truth_readings(spec, path_spec)
    noise = spec.noise_levels[0]
    cells = [
        _Cell(f"{lo}-{hi}",
              {"path": path_spec.kind, "noise": noise, "offset_bin": f"{lo}-{hi}",
               "offset_lo": lo, "offset_hi": hi},
              field_map, poses, b_true, noise, spec.config, lo, hi)
        for lo, hi in zip(bin_edges[:-1], bin_edges[1:])]
    return _run_sweep("success", spec, cells, spec.seed + 1, out_dir,
                      bin_edges=list(bin_edges))


def run_ablation(spec: SweepSpec, densities=(1.0, 1.8, 3.0), out_dir=None) -> dict:
    """Interpolation-method x fingerprint-density x solver grid.

    For every survey spacing, builds both the GP map and the multilinear
    baseline from the same lattice fingerprints, then calibrates with each
    inner solver. The GP length scale tracks the lattice spacing (a kernel
    much shorter than the data spacing would collapse between nodes). The
    headline statistic is the mean bias-recovery error in uT per cell.
    """
    path_spec = spec.paths[0]
    poses, b_true = _truth_readings(spec, path_spec)
    noise = spec.noise_levels[0]

    def cells():
        for spacing in densities:
            positions = survey_positions(spec.world, spacing, spec.survey_z_levels)
            fingerprints = survey_dataset(spec.world, positions, spec.survey_noise,
                                          seed=spec.seed + 2000 + int(spacing * 10))
            hyper = GpHyperparams(
                length_scale=max(spec.hyper.length_scale, 0.75 * spacing),
                signal_variance=spec.hyper.signal_variance,
                noise_variance=spec.hyper.noise_variance,
                mean_mode=spec.hyper.mean_mode)
            maps = {
                "sgpr": build_map(fingerprints, hyper, spec.block_size),
                "bilinear": BilinearMap(fingerprints),
            }
            for interp, field_map in maps.items():
                for solver in ("ols", "rrtls", "wrrtls"):
                    yield _Cell(f"spacing={spacing}/{interp}/{solver}",
                                {"interpolation": interp, "solver": solver,
                                 "survey_spacing": spacing},
                                field_map, poses, b_true, noise,
                                replace(spec.config, intrinsic_solver=solver),
                                0.0, spec.offset_range)

    return _run_sweep("ablation", spec, cells(), spec.seed + 2, out_dir,
                      densities=list(densities))


def run_two_map_workflow(spec: SweepSpec, out_dir=None) -> dict:
    """Calibration-map / validation-map workflow.

    Builds two independent surveys of the same world, calibrates a distorted
    sensor against the first map, then scores raw and compensated readings
    against the second. With a working calibration the compensated readings
    should sit within the map noise (mean per-axis error under 1 uT).
    """
    t_gt = np.asarray(spec.sensor_offset, float)
    cal_map = build_reference_map(spec, seed_offset=0)
    val_map = build_reference_map(spec, seed_offset=77,
                                  spacing=spec.survey_spacing * 0.85)
    path_spec = spec.paths[0]
    poses = generate_path(path_spec, spec.world)
    rng = np.random.default_rng(spec.seed + 3)
    dist = random_distortion(rng, spec.distortion_scale)
    rig = SensorRig((t_gt,), (dist,), spec.noise_levels[0])
    measured, _ = sample_dataset(spec.world, poses, rig, 0, seed=spec.seed + 4)

    inp = CalibrationInput(cal_map, poses, measured.readings(), np.zeros(3))
    result = calibrate(inp, spec.config)

    compensated = compensate_many(result.distortion, measured.readings())
    predicted = sensor_frame_prediction(val_map, inp.rotations(), inp.translations(),
                                        result.translation)
    mse_before, std_before = metric_reading_error(measured.readings(), predicted)
    mse_after, std_after = metric_reading_error(compensated, predicted)
    mean_axis_err_after = np.abs(compensated - predicted).mean(axis=0)

    report = {
        "kind": "two_map",
        "spec": spec.as_dict(),
        "converged": bool(result.converged),
        "translation_sq_m2": float(np.sum((result.translation - t_gt) ** 2)),
        "reading_mse_before_ut2": mse_before,
        "reading_mse_after_ut2": mse_after,
        "reading_std_before_ut": [float(v) for v in std_before],
        "reading_std_after_ut": [float(v) for v in std_after],
        "mean_axis_error_after_ut": [float(v) for v in mean_axis_err_after],
    }
    _write_report(report, out_dir, "two_map")
    return report
