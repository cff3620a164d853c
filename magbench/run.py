"""Run one magcalib benchmark workload and print its metrics.

    python3 magbench/run.py --workload table1_dense --seed 20 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with no wrapper installed. ``--trace 1`` runs the workload's fixed trace ops
twice, untraced and then traced, and reports the per-layer metrics derived
from the spans, including the tracing overhead. Metric names and units come
from ``BENCHMARK.json``. The last line of standard output is one JSON object;
a full record (provenance, samples, accuracy, spans) goes to
``magbench/out/``. A failed correctness check prints ``"correct": false`` and
exits 1; a tree without ``src/magcalib`` exits 2 without a result.
"""

import time

T_START = time.perf_counter()   # set-up is timed from here, imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEFAULT_SEED = 20   # holds the known random_walk wrong-basin trial; claim seed 22


def _import_magcalib():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import magcalib
        source = Path(magcalib.__file__).resolve().parent
    except ImportError as exc:
        source = exc
    if source != ROOT / "src" / "magcalib":
        print(f"magcalib must come from {ROOT / 'src'}: {source}", file=sys.stderr)
        raise SystemExit(2)


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    def git_commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
    }


def _blas_threads():
    """OpenBLAS's own thread count, read (never set) through its C API."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, reported by that process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({out.returncode}): {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _run_ops(workload, indices, deadline=None):
    """Run ops in order. With a deadline, stop before an op that would end
    after it at the mean pace so far, but never before the trace ops, which
    the accuracy figures cover, are done."""
    ops = []
    for i in indices:
        if deadline is not None and len(ops) >= workload.trace_ops:
            pace = sum(op.wall_s for op in ops) / len(ops)
            if time.perf_counter() + pace > deadline:
                break
        ops.append(workload.op(i))
    return ops


def _rows(ops):
    return [row for op in ops for row in op.rows]


def _map_rms(workload, field_map) -> float:
    import numpy as np
    from magcalib.simulator import field_at_many
    world, positions = workload.map_positions()
    means, _, inside = field_map.query_many(positions, allow_outside=True)
    err = means[inside] - field_at_many(world, positions[inside])
    return float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))


def _with_units(values: dict, spec: list) -> dict:
    names = [m["name"] for m in spec]
    missing = sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(workload, seconds, targets):
    """Untraced run: end-to-end metrics over ops until the deadline."""
    from stats import accuracy, summarize
    from spans import check_pristine

    check_pristine(targets)
    ops = _run_ops(workload, itertools.count(), deadline=time.perf_counter() + seconds)
    check_pristine(targets)
    rows = _rows(ops)
    commands = {}
    for op in ops:
        for name, times in op.commands.items():
            commands.setdefault(name, []).extend(times)
    values = {
        "trials_per_s": len(rows) / sum(op.wall_s for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "ops": len(ops),
        "op_wall_s": [op.wall_s for op in ops],
        "commands_s": {k: summarize(v) for k, v in commands.items()},
        "accuracy": accuracy(_rows(ops[:workload.trace_ops])),
        "accuracy_ops": workload.trace_ops,
        "error_rate_all_ops": accuracy(rows)["error_rate"],
    }
    return rows, values, extra


def measure_traced(workload, recorder, targets):
    """Traced run: the trace ops untraced, then the same ops traced."""
    from stats import CheckError, accuracy
    from spans import installed, layer_metrics

    indices = range(workload.trace_ops)
    plain = _run_ops(workload, indices)
    with installed(recorder, targets):
        traced = []
        for i in indices:
            recorder.op = i
            traced.extend(_run_ops(workload, [i]))
    plain_acc, traced_acc = accuracy(_rows(plain)), accuracy(_rows(traced))
    if plain_acc != traced_acc:
        raise CheckError(f"tracing changed the results: {plain_acc} != {traced_acc}")
    overhead = sum(op.wall_s for op in traced) / sum(op.wall_s for op in plain)
    field_map = recorder.kept.get("magmap.build_map")
    if field_map is None:
        raise CheckError("no GP map was built in the traced ops")
    values = layer_metrics(recorder)
    values.update(traced_acc)
    values["map_rms_ut"] = _map_rms(workload, field_map)
    values["trace.overhead"] = overhead
    extra = {"plain_op_wall_s": [op.wall_s for op in plain],
             "traced_op_wall_s": [op.wall_s for op in traced],
             "reason": workload.claim(recorder.spans)}
    return _rows(plain) + _rows(traced), values, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1_dense", "lcurve_sparse", "field_cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit (used for sampling)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_magcalib()
    from stats import CheckError
    from spans import Recorder, installed, magcalib_targets
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    targets = magcalib_targets()
    recorder = Recorder()
    rows, values, extra, spec = [], {}, {}, []
    try:
        with installed(recorder, targets) if args.trace else contextlib.nullcontext():
            workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            rows, values, extra = measure_traced(workload, recorder, targets)
            spec = bench["per_layer"]
        else:
            setup = [setup_s] + [_setup_probe(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]
            rows, values, extra = measure(workload, args.seconds, targets)
            values["setup_s"] = statistics.median(setup)
            extra["setup_samples_s"] = setup
            spec = bench["end_to_end"]
        correct = True
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, extra = False, {"check": str(exc)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in rows if r["error"])
    result = {"correct": correct, "attempted": max(len(rows), 1), "failed": failed,
              "metrics": _with_units(values, spec) if correct else {}}
    _write_record(args, result, values, extra, recorder)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for key, value in extra.items():
        print(f"  {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0 if correct else 1


def _write_record(args, result, values, extra, recorder):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    record = {"workload": args.workload, "seconds": args.seconds,
              "provenance": provenance(args.seed), "result": result,
              "values": values, "extra": extra}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if recorder.spans:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for i, span in enumerate(recorder.spans):
                fh.write(json.dumps({"id": i, "name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "op": span.op}) + "\n")
    print(f"record: {out / (stem + '.json')}")


if __name__ == "__main__":
    sys.exit(main())
