"""Command-line interface.

Subcommands cover the full workflow:

  simulate   generate survey + per-sensor calibration fingerprints
  build-map  fit the GP field map from survey fingerprints
  calibrate  run the joint extrinsic/intrinsic solve
  evaluate   score a result against ground truth or a validation map
  sweep      run the table1 / success / ablation experiment batteries
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import serialization as io
from .extrinsic import CalibrationConfig, CalibrationError, CalibrationInput, calibrate
from .geometry import check_integer
from .intrinsic import AffineDistortion, compensate_many
from .magmap import MapError, build_map
from .metrics import metric_reading_error, score_result, sensor_frame_prediction
from .simulator import PATH_KINDS, SURVEY_Z_LEVELS, PathSpec, WorldConfig, generate_path, \
    sample_dataset, survey_dataset, survey_positions
from .sweeps import SweepSpec, run_ablation, run_success_sweep, run_table1_sweep


def floats(text: str) -> tuple:
    """The numbers of a comma-separated flag value; argparse names the flag of a bad one."""
    return tuple(float(v) for v in text.split(","))


def _cmd_simulate(args) -> int:
    world = io.load_world(args.world) if args.world else WorldConfig()
    rig = io.load_rig(args.rig)
    spec = PathSpec(kind=args.path, sample_spacing=args.spacing,
                    z_height=args.z_height, n_samples=args.n_samples,
                    seed=args.seed, region_margin=args.margin)
    poses = generate_path(spec, world)
    positions = survey_positions(world, args.survey_spacing, args.survey_z)
    survey = survey_dataset(world, positions, args.survey_noise, seed=args.seed + 100)
    out = Path(args.out)  # made once every input is known to be good
    out.mkdir(parents=True, exist_ok=True)

    for idx in range(rig.n_sensors):
        measured, truth = sample_dataset(world, poses, rig, idx, seed=args.seed + idx)
        io.write_fingerprints(measured, out / f"mag{idx}.jsonl")
        io.write_fingerprints(truth, out / f"mag{idx}_truth.jsonl")
    io.write_fingerprints(survey, out / "survey.jsonl")

    sensors = [{"offset": list(offset), "gain": dist.gain.tolist(), "bias": list(dist.bias)}
               for offset, dist in zip(rig.offsets, rig.distortions)]
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump({"sensors": sensors}, fh, indent=2)
    print(f"wrote {rig.n_sensors} sensor dataset(s), survey, truth to {out}")
    return 0


def _cmd_build_map(args) -> int:
    fingerprints = io.read_fingerprints(args.fingerprints, from_frame="mag")
    field_map = build_map(fingerprints, **(io.load_hyper(args.hyper) if args.hyper else {}))
    io.save_map(field_map, args.out)
    print(f"built map from {len(fingerprints)} fingerprints "
          f"({len(field_map.blocks)} blocks) -> {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    config = io.load_calibration_config(args.config) if args.config \
        else CalibrationConfig()
    field_map = io.load_map(args.map)
    data = io.read_fingerprints(args.data, from_frame="lidar")
    result = calibrate(CalibrationInput(field_map, data, args.t0), config)
    io.save_result(result, args.out, data_path=args.data)
    state = "converged" if result.converged else f"did not converge ({result.message})"
    print(f"calibration {state} after {result.iterations} iterations; "
          f"residual RMS {result.final_rms:.4f} uT")
    print(f"lever arm estimate [m]: {np.array2string(result.translation, precision=4)}")
    return 0 if result.converged else 1


def _cmd_evaluate(args) -> int:
    doc = io.load_result(args.result)
    t_hat = np.asarray(doc["translation"], float)
    dist_hat = AffineDistortion(np.asarray(doc["gain"], float),
                                np.asarray(doc["bias"], float))
    out = {}
    if args.truth:
        truth = io.load_rig(args.truth, truth=True)
        i = check_integer(f"--sensor-index for the {truth.n_sensors} sensor(s) of {args.truth}",
                          args.sensor_index, 0, truth.n_sensors - 1)
        out.update(score_result(t_hat, dist_hat, truth.offsets[i],
                                truth.distortions[i]).as_dict())
    if args.validation_map:
        data_path = args.data or doc.get("data")
        if not data_path:
            raise ValueError("--data is required when the result file does not "
                             "record its dataset")
        val_map = io.load_map(args.validation_map)
        data = io.read_fingerprints(data_path, from_frame="lidar")
        compensated = compensate_many(dist_hat, data.readings())
        predicted = sensor_frame_prediction(val_map, data.rotations(),
                                            data.positions(), t_hat)
        mse, std = metric_reading_error(compensated, predicted)
        out["reading_mse_ut2"] = mse
        out["reading_std_ut"] = [float(v) for v in std]
    if not out:
        raise ValueError("provide --truth and/or --validation-map")
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    runner = {"table1": run_table1_sweep, "success": run_success_sweep,
              "ablation": run_ablation}[args.which]
    report = runner(io.load_sweep_spec(args.spec), out_dir=args.out)
    n_rows = len(report["rows"])
    print(f"{args.which} sweep finished: {n_rows} trials -> {args.out}")
    for key, agg in report["aggregates"].items():
        print(f"  {key}: {json.dumps(agg)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magcalib",
        description="Joint extrinsic/intrinsic magnetometer-LiDAR calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic fingerprints")
    p.add_argument("--world", help="world config JSON (default: built-in warehouse)")
    p.add_argument("--path", required=True, choices=PATH_KINDS)
    p.add_argument("--rig", required=True, help="sensor rig JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--z-height", type=float, default=0.5)
    p.add_argument("--n-samples", type=int, default=300)
    p.add_argument("--margin", type=float, default=1.0,
                   help="keep the path this far from the walls [m]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--survey-spacing", type=float, default=1.0)
    p.add_argument("--survey-noise", type=float, default=0.05)
    p.add_argument("--survey-z", type=floats, default=SURVEY_Z_LEVELS,
                   help="comma-separated survey heights [m]")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-map", help="fit the GP field map")
    p.add_argument("--fingerprints", required=True, help="survey JSONL")
    p.add_argument("--hyper", help="hyperparameter JSON")
    p.add_argument("--out", required=True, help="output map JSON")
    p.set_defaults(func=_cmd_build_map)

    p = sub.add_parser("calibrate", help="solve extrinsic+intrinsic parameters")
    p.add_argument("--map", required=True, help="map JSON")
    p.add_argument("--data", required=True, help="measured fingerprints JSONL")
    p.add_argument("--t0", type=floats, default=(0.0, 0.0, 0.0),
                   help="initial lever arm 'x,y,z' [m]")
    p.add_argument("--config", help="calibration config JSON")
    p.add_argument("--out", required=True, help="output result JSON")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="score a calibration result")
    p.add_argument("--result", required=True, help="result JSON")
    p.add_argument("--truth", help="ground-truth rig JSON, every sensor with its "
                                   "gain and bias (the truth.json of simulate)")
    p.add_argument("--sensor-index", type=int, default=0)
    p.add_argument("--validation-map", help="validation map JSON")
    p.add_argument("--data", help="measured fingerprints JSONL "
                                  "(defaults to the path recorded in the result)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="run an experiment battery")
    p.add_argument("which", choices=["table1", "success", "ablation"])
    p.add_argument("--spec", help=(
        "sweep spec JSON (defaults applied otherwise); without survey_spacing and "
        f"survey_noise the survey is {io.SWEEP_SURVEY['survey_spacing']} m apart with "
        f"{io.SWEEP_SURVEY['survey_noise']} uT noise, coarser than SweepSpec's "
        f"{SweepSpec.survey_spacing} m and {SweepSpec.survey_noise} uT"))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input exits 2 with a one-line error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CalibrationError, MapError) as exc:
        print(f"magcalib {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
