"""Run alternating parent/change pairs of the benchmark and record them.

Usage, from any directory, with two checkouts made beforehand (for example
with `git archive <commit> | tar -x -C <dir>`):

    python scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload greedy-warm --seed 1 --pairs 10 --seconds 30 \\
        --claim train_tok_s --at-least 1.3 --out BENCH_28.json

Each pair runs `python3 specbench/run.py --workload W --seed S --seconds T
--trace X` once in each checkout, one run at a time; pair i runs the parent
first when i is even and the change first when it is odd. Only the last line
of each run's output, its JSON summary, is read. The runs of one workload and
seed are written under "workloads" (or, with --trace 1, under
"traced_per_layer") of the --out file, which is read first if it exists, so
several invocations fill one file; any other key in it is kept. Each metric
gets both sides' values, medians, the parent's interquartile range, the
number of pairs the change wins and, where BENCHMARK.json gives a bound,
whether the change's median stays within it. --claim adds the claim verdict:
every run is correct, the change fails no more operations than the parent,
it wins at least 9 of every 10 pairs and its median gain exceeds the parent's
interquartile range (and, with --at-least, its gain factor, change/parent
median for a higher-better metric and parent/change for a lower-better one,
is at least that). Nothing under specbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CLAIM_RULE = ("every run is correct, the change fails no more operations than the parent, "
              "the change wins at least 9 of 10 pairs and the median gain exceeds the parent's "
              "interquartile range")


def run_once(checkout: Path, args) -> dict:
    """The JSON summary on the last line of one benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(name: str, declared: dict, parent: list, change: list) -> dict:
    """One metric's values on both sides and what the claim rule reads."""
    spec = declared.get(name, {})
    better = spec.get("better", "higher")
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q1, q3 = np.percentile(parent, [25, 75])
    row = {"unit": spec.get("unit"), "better": better, "bound": spec.get("bound"),
           "parent": parent, "change": change, "parent_median": p_med, "change_median": c_med,
           "change_over_parent_median": round(c_med / p_med, 4) if p_med else None,
           "parent_iqr": float(q3 - q1),
           "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change))}
    if row["bound"] is not None:
        row["within_bound"] = sign * (c_med - p_med) >= -row["bound"] * abs(p_med)
    return row


def gain_factor(row: dict):
    """How many times better the change's median is than the parent's, in the
    metric's better direction: change/parent for a higher-better metric,
    parent/change for a lower-better one."""
    p_med, c_med = row["parent_median"], row["change_median"]
    if not (p_med and c_med):
        return None
    return round(c_med / p_med if row["better"] == "higher" else p_med / c_med, 4)


def claim(workload: str, seed: int, metric: str, row: dict, at_least, entry: dict) -> dict:
    """The claim verdict on one metric's row of the runs summarised in entry.
    It is met only if every run was correct, the change failed no more
    operations than the parent, and the claim rule holds."""
    sign = 1.0 if row["better"] == "higher" else -1.0
    pairs = len(row["parent"])
    gain = sign * (row["change_median"] - row["parent_median"])
    factor = gain_factor(row)
    met = (entry["all_correct"] and entry["failed"]["change"] <= entry["failed"]["parent"]
           and row["change_better_pairs"] >= math.ceil(0.9 * pairs) and gain > row["parent_iqr"])
    if at_least is not None:
        met = met and factor is not None and factor >= at_least
    return {"workload": workload, "workload_seed": seed, "metric": metric, "pairs": pairs,
            "change_wins": row["change_better_pairs"], "parent_median": row["parent_median"],
            "change_median": row["change_median"], "median_gain": gain,
            "parent_iqr": row["parent_iqr"],
            "change_over_parent_median": row["change_over_parent_median"],
            "gain_factor": factor, "at_least": at_least, "all_correct": entry["all_correct"],
            "failed": entry["failed"], "met": met}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="metric whose gain the change claims")
    parser.add_argument("--at-least", type=float, dest="at_least",
                        help="least gain factor the claim needs: change/parent median for a "
                             "higher-better metric, parent/change for a lower-better one")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to update")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    first = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(sides[side], args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    metrics = {name: summarise(name, declared, *([r["metrics"][name]["value"] for r in runs[s]]
                                                 for s in ("parent", "change")))
               for name in runs["parent"][0]["metrics"]}
    entry = {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "first": first,
             "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
             "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
             "all_correct": all(r["correct"] for s in runs for r in runs[s]),
             "metrics": metrics}
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record.setdefault("claim_rule", CLAIM_RULE)
    section = "traced_per_layer" if args.trace else "workloads"
    key = f"{args.workload} seed {args.seed}"
    record.setdefault(section, {})[key] = entry
    if args.claim:
        claims = [c for c in record.get("claims", [])
                  if (c["workload"], c["workload_seed"], c["metric"])
                  != (args.workload, args.seed, args.claim)]
        claims.append(claim(args.workload, args.seed, args.claim, metrics[args.claim],
                            args.at_least, entry))
        record["claims"] = claims
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, row in metrics.items():
        print(f"{name:34s} parent {row['parent_median']:12.6g}  "
              f"change {row['change_median']:12.6g}  x{row['change_over_parent_median']}  "
              f"wins {row['change_better_pairs']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
