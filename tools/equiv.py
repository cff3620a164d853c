"""Check that two source trees of magcalib give the same outputs.

Usage::

    python tools/equiv.py SRC_A SRC_B [--work DIR] [--rtol R]

SRC_A and SRC_B are directories that hold the ``magcalib`` package (for
example ``src`` of two checkouts). Each side runs in its own interpreter with
only its tree on the import path, and writes into ``DIR/a`` and ``DIR/b``:

* the reports of four sweep specs: table1 (two path families, noise 0.1 and
  0.3, 2 x 2 trials, seed 24), success (seed 21, 1 x 2 trials, bins 0 /
  0.75 / 1.5 / 3 m), ablation (seed 22, 2 x 1 trials, noise 0.5, L-curve
  ridge, 3 m survey only) and the criterion-5 two-map workflow (seed 23);
* a CLI session on the world of ``tests/test_cli.py``: ``simulate``,
  ``build-map``, ``calibrate``, ``evaluate --truth``, a second
  ``calibrate`` from a ``--config`` file (unweighted ridge TLS, L-curve
  ridge) and a non-zero ``--t0`` with its ``evaluate --truth``, a second
  ``simulate`` and ``build-map`` for a validation map, and ``evaluate
  --validation-map``, and a ``sweep success`` from a ``--spec`` file (1 x 1
  trials per offset bin, seed 5, ``path_defaults``), with every command's
  standard output;
* ``extrinsic.residual`` and ``extrinsic.jacobian`` of that session's map
  and sensor data at one fixed lever arm and distortion, next to each other
  in ``cli/derivatives_report.json``;
* the decoded contents of the session's ``map.json`` and ``valmap.json``, as
  that tree's own ``serialization.load_map`` reads them (hyperparameters,
  block size, overlap, grid origin and shape, and each block's index,
  bounds and training positions and fields), in ``cli/map_contents.json``.
  Two trees that store maps differently but load the same map differ only
  in the bytes of the two map files.
* the columns (timestamps, positions, rotations and readings, with the
  sensor id and frame) that that tree's own
  ``serialization.read_fingerprints`` decodes from every JSONL file of the
  session, in ``cli/fingerprint_contents.json``.
* ``BilinearMap`` means and gradients on the ablation's own 1.0, 1.8 and
  3.0 m surveys at seed 22, at 100 fixed random points inside each lattice
  and at every 97th node, in ``bilinear_report.json``, so the multilinear
  interpolant is compared at its own layer and not only through sweep
  rows.
* ``MagMap`` means, variances and gradients of two maps that hold
  off-grid (Cholesky) blocks, at fixed random points, in
  ``offgrid_report.json``: a 1.5 m survey of the default hall with every
  position jittered by about 1 cm (no block is a product grid) and an
  L-shaped 0.5 m survey on 2 m blocks whose corner block is off-grid and
  whose other six are lattice blocks. The points fill each survey's
  bounding box grown by 0.25 m, so they reach empty cells and the overlap
  padding too.

Every report is compared leaf by leaf (exact equality, NaN equal to NaN)
and every output file byte for byte. With ``--rtol R`` a file whose bytes
differ passes when its text outside the numbers is the same and every
number is within ``R`` of the larger magnitude of the pair; the largest
relative deviation of each file is printed. For a sweep report beyond ``R``
it also prints how many rows changed their ``converged`` or ``success``
label and the largest relative change of ``translation_sq_m2``,
``gain_frobenius`` and ``bias_sq_ut2``: the summary to read when a change
moves the outputs by design. The exit status is 1 when
anything differs (beyond ``R``) and 0 when nothing does. Each side takes
about 3 s on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_WORLD = {
    "extent": {"lo": [0, 0, 0], "hi": [18, 14, 3]},
    "ambient": [38.0, 6.0, -14.0],
    "dipoles": [
        {"position": [6.0, 4.5, 2.6], "moment": [10.0, 4.0, 30.0]},
        {"position": [12.0, 9.5, 2.6], "moment": [-8.0, 12.0, 26.0]},
        {"position": [2.0, 2.0, 2.9], "moment": [150.0, 80.0, 260.0]},
        {"position": [16.0, 12.0, 2.9], "moment": [-120.0, 90.0, 280.0]},
    ],
}
_RIG = {
    "noise_sigma": 0.05,
    "sensors": [{
        "offset": [0.3, -0.1, 0.2],
        "gain": [[1.08, 0.05, -0.02], [0.03, 0.94, 0.06], [-0.04, 0.02, 1.1]],
        "bias": [2.0, -1.5, 0.8],
    }],
}
_HYPER = {"length_scale": 0.8, "noise_variance": 0.001, "block_size": 8.0}
_CONFIG = {"intrinsic_solver": "rrtls", "lambda_policy": "l_curve"}
_SPEC = {"noise_levels": [0.1], "n_distortions": 1, "n_initial_offsets": 1,
         "offset_range": 0.3, "seed": 5, "path_defaults": {"spacing": 2.5}}
_DERIVATIVES_AT = [0.25, -0.05, 0.15]  # lever arm [m] of the residual/jacobian step

# the CLI session, run from the output directory so that recorded paths match
_SESSION = (
    ("simulate", ["simulate", "--world", "world.json", "--path", "lawnmower",
                  "--rig", "rig.json", "--out", "sim", "--spacing", "1.2",
                  "--z-height", "0.6", "--margin", "3.0", "--survey-spacing", "0.7",
                  "--survey-noise", "0.03", "--seed", "4"]),
    ("build_map", ["build-map", "--fingerprints", "sim/survey.jsonl",
                   "--hyper", "hyper.json", "--out", "map.json"]),
    ("calibrate", ["calibrate", "--map", "map.json", "--data", "sim/mag0.jsonl",
                   "--t0", "0,0,0", "--out", "result.json"]),
    ("evaluate_truth", ["evaluate", "--result", "result.json",
                        "--truth", "sim/truth.json"]),
    ("calibrate_config", ["calibrate", "--map", "map.json", "--data", "sim/mag0.jsonl",
                          "--config", "config.json", "--t0", "0.2,0.1,0",
                          "--out", "result_config.json"]),
    ("evaluate_config_truth", ["evaluate", "--result", "result_config.json",
                               "--truth", "sim/truth.json"]),
    ("simulate_validation", ["simulate", "--world", "world.json", "--path",
                             "random_walk", "--rig", "rig.json", "--out", "sim2",
                             "--survey-spacing", "0.8", "--survey-noise", "0.03",
                             "--seed", "11"]),
    ("build_validation_map", ["build-map", "--fingerprints", "sim2/survey.jsonl",
                              "--hyper", "hyper.json", "--out", "valmap.json"]),
    ("evaluate_validation", ["evaluate", "--result", "result.json",
                             "--validation-map", "valmap.json"]),
    ("sweep_success", ["sweep", "success", "--spec", "spec.json", "--out", "sweep"]),
)


def map_contents(field_map) -> dict:
    """What a loaded map holds, whatever the file format it came from."""
    return {"hyper": dataclasses.asdict(field_map.hyper), "block_size": field_map.block_size,
            "overlap": field_map.overlap, "grid_lo": field_map.grid_lo.tolist(),
            "grid_shape": field_map.grid_shape.tolist(),
            "blocks": [{"index": list(block.index), "lo": block.lo.tolist(),
                        "hi": block.hi.tolist(), "positions": block.train_pos.tolist(),
                        "fields": block.train_field.tolist()}
                       for block in field_map.blocks.values()]}


def fingerprint_contents(dataset) -> dict:
    """What a fingerprint file decodes to, whatever parse produced it."""
    return {"sensor_id": dataset.sensor_id, "frame": dataset.frame,
            **{column: getattr(dataset, column)().tolist()
               for column in ("timestamps", "positions", "rotations", "readings")}}


def dump(out: Path) -> None:
    """Run every spec and the CLI session with the ``magcalib`` on sys.path."""
    import magcalib
    import numpy as np
    from magcalib import cli, serialization
    from magcalib.extrinsic import CalibrationConfig, CalibrationInput, jacobian, residual
    from magcalib.intrinsic import AffineDistortion
    from magcalib.magmap import BilinearMap, GpHyperparams, build_map
    from magcalib.simulator import survey_dataset, survey_positions
    from magcalib.sweeps import (SweepSpec, default_path_specs, run_ablation,
                                 run_success_sweep, run_table1_sweep,
                                 run_two_map_workflow)

    print(f"imported {magcalib.__file__}", flush=True)
    run_table1_sweep(SweepSpec(paths=default_path_specs()[:2], noise_levels=(0.1, 0.3),
                               n_distortions=2, n_initial_offsets=2, seed=24),
                     out_dir=out / "table1")
    run_success_sweep(SweepSpec(noise_levels=(0.1,), n_distortions=1, n_initial_offsets=2,
                                seed=21),
                      bin_edges=(0.0, 0.75, 1.5, 3.0), out_dir=out / "success")
    run_ablation(SweepSpec(noise_levels=(0.5,), n_distortions=2, n_initial_offsets=1,
                           seed=22, config=CalibrationConfig(lambda_policy="l_curve")),
                 densities=(3.0,), out_dir=out / "ablation")
    run_two_map_workflow(SweepSpec(noise_levels=(0.1,), seed=23), out_dir=out / "two_map")

    spec, rng, bilinear = SweepSpec(seed=22), np.random.default_rng(25), {}
    for spacing in (1.0, 1.8, 3.0):  # the surveys of run_ablation at spec.seed
        positions = survey_positions(spec.world, spacing)
        grid = BilinearMap(survey_dataset(spec.world, positions, spec.survey_noise,
                                          seed=spec.seed + 2000 + int(spacing * 10)))
        pts = np.vstack([rng.uniform(positions.min(axis=0), positions.max(axis=0),
                                     size=(100, 3)), positions[::97]])
        bilinear[str(spacing)] = {"points": pts.tolist(),
                                  "means": grid.query_many(pts)[0].tolist(),
                                  "gradients": grid.gradient_many(pts)[0].tolist()}
    (out / "bilinear_report.json").write_text(json.dumps(bilinear))

    positions = survey_positions(spec.world, 1.5, (0.45, 1.05))
    positions = positions + rng.normal(0.0, 0.01, positions.shape)
    xs = np.arange(0.0, 8.0, 0.5)
    lattice = np.stack(np.meshgrid(xs, xs, [0.5, 1.0], indexing="ij"), -1).reshape(-1, 3)
    lattice = lattice[(lattice[:, 0] <= 1.5) | (lattice[:, 1] <= 1.5)] + [4.0, 4.0, 0.0]
    offgrid = {}
    for name, pos, hyper, size, overlap in (
            ("jittered", positions, GpHyperparams(1.2, 25.0, 0.001), 8.0, None),
            ("l_shaped", lattice, GpHyperparams(length_scale=0.7), 2.0, 0.25)):
        field_map = build_map(survey_dataset(spec.world, pos, 0.03, seed=26), hyper,
                              block_size=size, overlap=overlap)
        pts = rng.uniform(pos.min(axis=0) - 0.25, pos.max(axis=0) + 0.25, size=(500, 3))
        means, variances, _ = field_map.query_many(pts)
        offgrid[name] = {"points": pts.tolist(), "means": means.tolist(),
                         "variances": variances.tolist(),
                         "gradients": field_map.gradient_many(pts)[0].tolist()}
    (out / "offgrid_report.json").write_text(json.dumps(offgrid))

    session = out / "cli"
    session.mkdir(parents=True)
    for name, doc in (("world", _WORLD), ("rig", _RIG), ("hyper", _HYPER),
                      ("config", _CONFIG), ("spec", _SPEC)):
        (session / f"{name}.json").write_text(json.dumps(doc))
    os.chdir(session)
    for name, argv in _SESSION:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        Path(f"{name}.stdout").write_text(f"{buf.getvalue()}exit {rc}\n")

    inp = CalibrationInput(serialization.load_map("map.json"),
                           serialization.read_fingerprints("sim/mag0.jsonl",
                                                           from_frame="lidar"))
    sensor = _RIG["sensors"][0]
    dist = AffineDistortion(np.array(sensor["gain"]), np.array(sensor["bias"]))
    Path("derivatives_report.json").write_text(json.dumps({
        "residual": residual(inp, _DERIVATIVES_AT, dist).tolist(),
        "jacobian": jacobian(inp, _DERIVATIVES_AT, dist).tolist()}))
    Path("map_contents.json").write_text(json.dumps(
        {name: map_contents(serialization.load_map(f"{name}.json"))
         for name in ("map", "valmap")}))
    Path("fingerprint_contents.json").write_text(json.dumps(
        {str(path): fingerprint_contents(serialization.read_fingerprints(path))
         for path in sorted(Path(".").rglob("*.jsonl"))}))


def _leaves(doc, prefix=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{prefix}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{prefix}[{i}]")
    else:
        yield prefix, doc


def _same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
        return True
    return type(x) is type(y) and x == y


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity")


def relative_change(x: float, y: float) -> float:
    """``|x - y|`` over the larger magnitude of the pair: 0 when they are
    equal (NaN equal to NaN), infinite when only one is finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def largest_deviation(text_a: str, text_b: str):
    """``(relative deviation, where)`` of the two texts' most different pair
    of numbers, ``(0.0, None)`` when every pair is equal; None when the text
    around the numbers differs."""
    if _NUMBER.split(text_a) != _NUMBER.split(text_b):
        return None
    worst = (0.0, None)
    for ma, mb in zip(_NUMBER.finditer(text_a), _NUMBER.finditer(text_b)):
        dev = relative_change(float(ma.group()), float(mb.group()))
        if dev > worst[0]:
            line = text_a.count("\n", 0, ma.start()) + 1
            worst = (dev, f"line {line}: {ma.group()} vs {mb.group()}")
    return worst


_SCORES = ("translation_sq_m2", "gain_frobenius", "bias_sq_ut2")


def row_changes(report_a: dict, report_b: dict) -> str | None:
    """How the rows of two sweep reports differ: how many changed their
    ``converged`` or ``success`` label, and the largest relative change of
    each score. None when the reports do not hold the same number of rows."""
    rows_a, rows_b = report_a.get("rows"), report_b.get("rows")
    if not isinstance(rows_a, list) or not isinstance(rows_b, list) \
            or len(rows_a) != len(rows_b):
        return None
    pairs = list(zip(rows_a, rows_b))
    relabelled = sum((ra["converged"], ra["success"]) != (rb["converged"], rb["success"])
                     for ra, rb in pairs)
    worst = {key: max((relative_change(float(ra[key]), float(rb[key])) for ra, rb in pairs),
                      default=0.0) for key in _SCORES}
    return (f"{relabelled} of {len(pairs)} rows changed their converged or success "
            "label; largest relative change " + ", ".join(
                f"{key} {dev:.3e}" for key, dev in worst.items()))


def compare(a: Path, b: Path, rtol: float | None = None) -> list:
    """Every difference between the two output trees, as lines. With
    ``rtol``, each file's largest relative deviation (or that its bytes are
    identical) is printed, and only deviations beyond ``rtol`` count; for a
    sweep report beyond ``rtol``, :func:`row_changes` is printed too."""
    problems = []
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    for rel in sorted(files_a ^ files_b):
        problems.append(f"{rel}: only in {'A' if rel in files_a else 'B'}")
    for rel in sorted(files_a & files_b):
        if filecmp.cmp(a / rel, b / rel, shallow=False):
            if rtol is not None:
                print(f"{rel}: identical bytes")
            continue
        if rtol is not None:
            found = largest_deviation((a / rel).read_text(), (b / rel).read_text())
            if found is None:
                problems.append(f"{rel}: text outside the numbers differs")
                continue
            dev, where = found
            print(f"{rel}: largest relative deviation {dev:.3e} ({where})")
            if dev > rtol:
                problems.append(f"{rel}: {where} deviates by {dev:.3e} > {rtol:g}")
                if rel.name.endswith("_report.json"):
                    changes = row_changes(json.loads((a / rel).read_text()),
                                          json.loads((b / rel).read_text()))
                    if changes:
                        print(f"{rel}: {changes}")
            continue
        if rel.name.endswith("_report.json"):
            leaves_a = dict(_leaves(json.loads((a / rel).read_text())))
            leaves_b = dict(_leaves(json.loads((b / rel).read_text())))
            for key in sorted(leaves_a.keys() | leaves_b.keys()):
                if key not in leaves_a or key not in leaves_b:
                    problems.append(f"{rel}{key}: only in {'A' if key in leaves_a else 'B'}")
                elif not _same(leaves_a[key], leaves_b[key]):
                    problems.append(f"{rel}{key}: {leaves_a[key]!r} != {leaves_b[key]!r}")
        problems.append(f"{rel}: bytes differ")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--work", type=Path, help="output directory (default: a "
                        "fresh temporary directory, kept for inspection)")
    parser.add_argument("--rtol", type=float, help="accept numbers within this "
                        "relative deviation (default: exact)")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:  # child: src_a is the tree to import, src_b the output directory
        sys.path.insert(0, str(args.src_a.resolve()))
        dump(args.src_b.resolve())
        return 0

    work = args.work or Path(tempfile.mkdtemp(prefix="equiv-"))
    for side, src in (("a", args.src_a), ("b", args.src_b)):
        out = work / side
        if out.exists():
            parser.error(f"{out} already exists")
        out.mkdir(parents=True)
        print(f"running {src} -> {out}", flush=True)
        subprocess.run([sys.executable, __file__, "--dump", str(src), str(out)],
                       check=True)
    problems = compare(work / "a", work / "b", args.rtol)
    for line in problems:
        print(line)
    n_files = sum(1 for p in (work / "a").rglob("*") if p.is_file())
    print(f"{len(problems)} difference(s) over {n_files} output files in {work}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
