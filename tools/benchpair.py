"""Benchmark two commits in alternating pairs and write a BENCH_*.json file.

Usage::

    python3 tools/benchpair.py BASE HEAD --workload field_cli --seeds 201-210 \\
        [--workload table1_dense ...] [--trace-seed 20] [--work DIR] \\
        --out BENCH_name.json

BASE and HEAD are git revisions of this repository. Each is exported with
``git archive`` into ``DIR/base`` and ``DIR/head``, and every run goes through
that export's own, unmodified ``magbench/run.py --trace 0``, for the
``run_seconds`` of the head's ``BENCHMARK.json``. The protocol is
the one of ``magbench/README.md``: for each seed of each workload, base runs
first when the seed is odd and head first when it is even, so drift in the
machine hits both sides alike. With ``--trace-seed S`` each side then makes
one ``--trace 1`` run at seed S per workload, base first. Every run, traced
or not, must exit 0 and end its standard output with the result line that
``magbench/README.md`` specifies, in strict JSON and with ``"correct":
true``; otherwise the script stops, naming the side, workload and seed.

The output file holds every run (its record's end-to-end values, accuracy,
op wall times, set-up samples and provenance, with the commit the side ran:
``run.py`` itself records ``git_commit: "unknown"`` in an export, and the
CPU seconds the run's process and its children used), the per-side medians
and quartiles with the head's wins and the verdict, both computed by the
head export's ``magbench/compare.py``, each side's median CPU seconds per
trial, and that script's own printout. CPU time leaves out the time a run
waited for a core, so on a shared host it tells time taken by other
tenants from a change in the code. A ``--trace 0`` run also spends CPU on
set-up: once itself and once in each of its ``--setup-only`` probes. So
after each run, one more ``--setup-only`` process of the same workload and
seed measures that side's set-up CPU, and the summary gives the CPU per
trial both gross and net of the run's set-ups. Each paired seed's largest
relative deviation between the sides' accuracy values is recorded too; a
seed is listed under ``accuracy_differs_at_seeds`` only beyond
``ACCURACY_RTOL``, and the bound is printed with the largest deviation. The
exports and their ``magbench/out`` records stay in DIR.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from equiv import largest_deviation  # tools/equiv.py, beside this script

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = ("alternating base/head pairs on one host through each export's own "
            "magbench/run.py --trace 0: base first at odd seeds, head first at even "
            "seeds; one seed per pair (compare.py keys records by workload and seed); "
            "medians, quartiles, wins and verdict from the head export's "
            "magbench/compare.py")
ACCURACY_RTOL = 1e-10  # ROADMAP: an equivalent refactor stays within 1e-10 of the old outputs


def export(commit: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_cpu_s(tree: Path, workload: str, seed: int) -> float:
    """CPU seconds of one ``run.py --setup-only`` process in ``tree``."""
    cpu_before = _children_cpu_s()
    proc = subprocess.run(
        [sys.executable, "magbench/run.py", "--workload", workload, "--seed", str(seed),
         "--setup-only"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: --setup-only exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return _children_cpu_s() - cpu_before


def _no_constant(token: str):
    raise ValueError(f"{token} is not JSON")


def result_line(stdout: str) -> dict:
    """The result that ``run.py`` prints as its last line, held to
    ``magbench/README.md``: one object of strict JSON (``NaN`` and
    ``Infinity`` are rejected) holding ``"correct": true``. Anything else
    raises ``ValueError``."""
    last = stdout.splitlines()[-1] if stdout.strip() else ""
    try:
        result = json.loads(last, parse_constant=_no_constant)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"last stdout line is no strict JSON ({exc}): {last[:200]!r}") from None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise ValueError(f'last stdout line does not hold "correct": true: {last[:200]!r}')
    return result


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One ``run.py`` invocation in ``tree``: ``(record file name, record,
    CPU seconds of the run's process and the children it waited for)``. A
    run that exits non-zero, or whose last stdout line fails
    :func:`result_line`, raises naming the side, workload and seed."""
    out = tree / "magbench" / "out"
    before = set(out.glob("*.json"))
    cpu_before = _children_cpu_s()
    proc = subprocess.run(
        [sys.executable, "magbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    cpu_s = _children_cpu_s() - cpu_before
    where = f"{tree.name} {workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        raise RuntimeError(f"{where}: run.py exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    try:
        result_line(proc.stdout)
    except ValueError as exc:
        raise RuntimeError(f"{where}: {exc}") from None
    written = sorted(set(out.glob("*.json")) - before)
    if len(written) != 1:
        raise RuntimeError(f"{where}: run.py wrote {len(written)} records, not one")
    return written[0].name, json.loads(written[0].read_text()), cpu_s


def run_entry(side, commit, workload, seed, pair, ran_first, name, record, cpu_s,
              setup_cpu) -> dict:
    result, extra = record["result"], record["extra"]
    return {"side": side, "commit": commit, "workload": workload, "seed": seed,
            "pair": pair, "ran_first": ran_first, "record": name,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "cpu_s": cpu_s, "setup_cpu_s": setup_cpu,
            "values": {k: v["value"] for k, v in result["metrics"].items()},
            "accuracy": extra.get("accuracy"), "ops": extra.get("ops"),
            "op_wall_s": extra.get("op_wall_s"),
            "setup_samples_s": extra.get("setup_samples_s"),
            "provenance": record["provenance"]}


def accuracy_deviation(base: dict | None, head: dict | None) -> float:
    """Largest relative deviation between two runs' accuracy values, as
    ``equiv.largest_deviation`` measures it; inf where the keys differ."""
    found = largest_deviation(json.dumps(base), json.dumps(head))
    return math.inf if found is None else found[0]


def summarize(compare, bench: dict, runs: list, workload: str, seeds: list) -> dict:
    """Per-metric medians, quartiles, wins and verdict, as compare.py scores
    them, over the seeds whose runs are correct on both sides, each side's
    median CPU seconds per trial over those runs, gross and net of the
    run's set-ups (one per set-up sample it records, each costing the
    side's measured ``setup_cpu_s``), and each paired seed's
    largest relative accuracy deviation; a seed counts as differing only
    beyond ``ACCURACY_RTOL``."""
    by_key = {(r["side"], r["seed"]): r for r in runs if r["workload"] == workload}
    paired = [s for s in seeds if by_key[("base", s)]["correct"]
              and by_key[("head", s)]["correct"]]
    out = {"pairs": len(paired), "seeds": paired}
    for metric in bench["end_to_end"] if paired else []:
        name = metric["name"]
        b = [by_key[("base", s)]["values"][name] for s in paired]
        h = [by_key[("head", s)]["values"][name] for s in paired]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        bq, hq = compare.quartiles(b), compare.quartiles(h)
        out[name] = {"base": dict(zip(("q1", "median", "q3"), bq)),
                     "head": dict(zip(("q1", "median", "q3"), hq)),
                     "head_over_base": statistics.median(h) / statistics.median(b),
                     "head_wins": wins,
                     "verdict": compare.verdict(metric, b, h, wins, len(paired))}
    if paired:
        for key, cost in (("cpu_s_per_trial", lambda r: r["cpu_s"]),
                          ("cpu_s_per_trial_net_of_setup", lambda r: r["cpu_s"]
                           - len(r["setup_samples_s"]) * r["setup_cpu_s"])):
            cpu = {side: statistics.median(cost(r) / r["attempted"]
                                           for r in (by_key[(side, s)] for s in paired))
                   for side in ("base", "head")}
            out[key] = {**cpu, "head_over_base": cpu["head"] / cpu["base"]}
        out["cpu_s_per_trial_net_of_setup"]["method"] = (
            "CPU seconds of the run.py process and its children, less one set-up per "
            "set-up sample the run records (its own and its --setup-only probes), each "
            "costing the CPU seconds of a separate --setup-only process of the same "
            "side, workload and seed, run after it; per trial attempted")
    for side in ("base", "head"):
        side_runs = [by_key[(side, s)] for s in seeds]
        out[f"{side}_failed"] = sum(r["failed"] for r in side_runs)
        out[f"{side}_attempted"] = sum(r["attempted"] for r in side_runs)
        out[f"{side}_incorrect_runs"] = sum(not r["correct"] for r in side_runs)
    deviation = {s: accuracy_deviation(by_key[("base", s)]["accuracy"],
                                       by_key[("head", s)]["accuracy"]) for s in paired}
    out["accuracy_rtol"] = ACCURACY_RTOL
    out["accuracy_deviation_at_seeds"] = deviation
    out["accuracy_largest_deviation"] = max(deviation.values(), default=0.0)
    out["accuracy_differs_at_seeds"] = [s for s, d in deviation.items() if d > ACCURACY_RTOL]
    return out


def print_summary(workload: str, summary: dict) -> None:
    """The accuracy deviation and, when any pair is correct, the CPU per trial."""
    differs = summary["accuracy_differs_at_seeds"]
    verdict = f"beyond it at seeds {differs}" if differs else "within it at every seed"
    print(f"{workload}: largest relative accuracy deviation "
          f"{summary['accuracy_largest_deviation']:.3g}, bound {summary['accuracy_rtol']:g}: "
          f"{verdict}")
    for key, label in (("cpu_s_per_trial", "CPU s per trial"),
                       ("cpu_s_per_trial_net_of_setup", "CPU s per trial net of set-up")):
        cpu = summary.get(key)
        if cpu:
            print(f"{workload}: median {label} base {cpu['base']:.4g} "
                  f"head {cpu['head']:.4g} (head/base {cpu['head_over_base']:.3f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append", required=True,
                        choices=["table1_dense", "lcurve_sparse", "field_cli"])
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--work", type=Path, help="export directory (default: a fresh "
                        "temporary directory, kept for inspection)")
    parser.add_argument("--what", default="", help="one line saying what HEAD changes")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    commits = {side: subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                                    cwd=ROOT, check=True, capture_output=True,
                                    text=True).stdout.strip()
               for side, rev in (("base", args.base), ("head", args.head))}
    work = args.work or Path(tempfile.mkdtemp(prefix="benchpair-"))
    trees = {side: work / side for side in commits}
    for side, tree in trees.items():
        if tree.exists():
            parser.error(f"{tree} already exists")
        export(commits[side], tree)
    print(f"exports in {work}", flush=True)
    bench = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs, traced = [], {}
    for workload in args.workload:
        for pair, seed in enumerate(args.seeds, 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                name, record, cpu_s = run(trees[side], workload, seed, seconds, 0)
                setup_cpu = setup_cpu_s(trees[side], workload, seed)
                runs.append(run_entry(side, commits[side], workload, seed, pair,
                                      side == order[0], name, record, cpu_s, setup_cpu))
            last = {r["side"]: r for r in runs[-2:]}
            print(f"{workload} pair {pair}/{len(args.seeds)} seed {seed}: trials_per_s "
                  f"base {last['base']['values'].get('trials_per_s')} "
                  f"head {last['head']['values'].get('trials_per_s')}; CPU s "
                  f"base {last['base']['cpu_s']:.1f} head {last['head']['cpu_s']:.1f}",
                  flush=True)
        if args.trace_seed is not None:
            traced[workload] = {}
            for side in ("base", "head"):
                name, record, cpu_s = run(trees[side], workload, args.trace_seed,
                                          seconds, 1)
                traced[workload][side] = {
                    "commit": commits[side], "seed": args.trace_seed, "record": name,
                    "correct": record["result"]["correct"], "cpu_s": cpu_s,
                    "metrics": {k: v["value"]
                                for k, v in record["result"]["metrics"].items()},
                    **{k: record["extra"].get(k) for k in
                       ("plain_op_wall_s", "traced_op_wall_s", "reason")}}
            print(f"{workload} traced pair at seed {args.trace_seed} done", flush=True)

    spec = importlib.util.spec_from_file_location(
        "compare", trees["head"] / "magbench" / "compare.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    printout = subprocess.run(
        [sys.executable, "magbench/compare.py", str(trees["base"] / "magbench" / "out"),
         str(trees["head"] / "magbench" / "out")],
        cwd=trees["head"], capture_output=True, text=True).stdout
    print(printout, end="")
    host = {k: v for k, v in runs[0]["provenance"].items()
            if k not in ("git_commit", "seed", "default_seed")}
    summary = {w: summarize(compare, bench, runs, w, args.seeds) for w in args.workload}
    for workload, entry in summary.items():
        print_summary(workload, entry)
    doc = {"what": args.what,
           "command": f"python3 magbench/run.py --workload WORKLOAD --seed SEED "
                      f"--seconds {seconds:g} --trace 0",
           "protocol": PROTOCOL,
           "base_commit": commits["base"], "head_commit": commits["head"],
           "host": host,
           "summary": summary,
           "compare_py": printout.splitlines(),
           "traced": traced,
           "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
