"""Compare two sets of benchmark records, paired by workload and seed.

    python3 magbench/compare.py BASE_OUT_DIR HEAD_OUT_DIR

Reads the ``--trace 0`` records that ``run.py`` wrote into each directory.
For every workload and end-to-end metric it prints each side's median and
quartiles, the head's wins over the pairs, and a verdict: ``gain`` when the
head wins at least 9 in 10 pairs and the medians differ by more than the
base's quartile spread, ``regression`` when the head's median is worse than
the base's by more than the metric's bound, ``unresolved`` when the base's own
spread is wider than the bound, else ``no change``. It also says whether the
accuracy figures agree at every shared seed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """{(workload, seed): record} for the untraced, correct records."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0-*.json")):
        record = json.loads(path.read_text())
        if record["result"]["correct"]:
            out[(record["workload"], record["provenance"]["seed"])] = record
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, head, wins, pairs):
    q1, med, q3 = quartiles(base)
    head_med = statistics.median(head)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    if sign * (med - head_med) > metric["bound"] * med:
        return "regression"
    if (q3 - q1) > metric["bound"] * med:
        return "unresolved"
    if wins >= 0.9 * pairs and abs(head_med - med) > (q3 - q1):
        return "gain" if sign * (head_med - med) > 0 else "no change"
    return "no change"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = load(argv[0]), load(argv[1])
    shared = sorted(set(base) & set(head))
    if not shared:
        print("no (workload, seed) pair is present on both sides", file=sys.stderr)
        return 1
    for workload in sorted({w for w, _ in shared}):
        keys = [k for k in shared if k[0] == workload]
        print(f"{workload}: {len(keys)} pairs")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [base[k]["result"]["metrics"][name]["value"] for k in keys]
            h = [head[k]["result"]["metrics"][name]["value"] for k in keys]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
            bq, hq = quartiles(b), quartiles(h)
            print(f"  {name:14s} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
                  f"head {hq[1]:.4g} [{hq[0]:.4g}, {hq[2]:.4g}]  "
                  f"wins {wins}/{len(keys)}  {verdict(metric, b, h, wins, len(keys))}")
        differ = [seed for w, seed in keys
                  if base[(w, seed)]["extra"]["accuracy"]
                  != head[(w, seed)]["extra"]["accuracy"]]
        print(f"  accuracy: {'differs at seeds ' + str(differ) if differ else 'identical'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
