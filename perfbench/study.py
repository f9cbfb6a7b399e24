"""Steadiness study: two interleaved sets of untraced runs of the same code.

    python3 perfbench/study.py [--output perfbench/steadiness.json]

Each of ten rounds runs every workload of ``BENCHMARK.json`` once per
set, alternating which set goes first, and every run gets a seed of its
own. Interleaving puts slow host drift on both sets alike instead of
reading it as a difference between them. For each workload and
end-to-end metric the record holds each set's values, median and spread
(the distance between the quartiles of ``statistics.quantiles(values,
n=4)`` as a share of the median), the shift of set B's median from set
A's, and the metric's bound, with the host's ``cpu_count`` and the Python
and numpy versions. The uncorrected times (``raw_setup_s``,
``raw_wall_s``: each run's median over its samples, before the host-speed
correction of ``probe.py``) are recorded beside them, without a bound, to
show how much drift the correction takes out. The study passes when every
run passed its output check and every spread and shift of a bounded
metric is within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: First seed of each set; run i of a set uses first + i.
SET_SEEDS = {"A": 1, "B": 101}
RUNS_PER_SET = 10
UNCORRECTED = ("raw_setup_s", "raw_wall_s")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": proc.stderr.strip()[-500:] or f"exit {proc.returncode}"}
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"record": record, "result": result}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({name: None for name in UNCORRECTED})
    sets = list(SET_SEEDS)

    values = {w: {s: {m: [] for m in bounds} for s in sets} for w in workloads}
    failures, env = [], {}
    started = time.time()
    for i in range(RUNS_PER_SET):
        order = sets if i % 2 == 0 else sets[::-1]
        for workload in workloads:
            for name in order:
                seed = SET_SEEDS[name] + i
                outcome = run_once(workload, seed, seconds)
                result = outcome.get("result")
                if result is None or not result["correct"]:
                    failures.append({"workload": workload, "seed": seed, "set": name,
                                     "detail": outcome.get("error") or outcome["record"]})
                if result is None:
                    continue
                env = env or outcome["record"]["env"]
                metrics = {m: v["value"] for m, v in result["metrics"].items()}
                for metric in UNCORRECTED:
                    metrics[metric] = statistics.median(
                        s[metric] for s in outcome["record"]["samples"]
                    )
                for metric in bounds:
                    values[workload][name][metric].append(metrics[metric])
                print(
                    f"[{time.time() - started:6.0f}s] {workload:15s} set {name} seed {seed:4d}: "
                    + "  ".join(f"{m}={metrics[m]:.4f}" for m in bounds)
                    + f"  check {'ok' if result['correct'] else 'FAILED'}",
                    flush=True,
                )

    summary = {}
    ok = not failures
    print()
    for workload in workloads:
        summary[workload] = {}
        for metric, bound in bounds.items():
            row = {"bound": bound}
            for name in sets:
                vals = values[workload][name][metric]
                row[name] = {"values": vals, **spread(vals)} if len(vals) >= 2 else {"values": vals}
            line = f"{workload:15s} {metric:12s} bound {bound or '-':>4}"
            for name in sets:
                if "median" in row[name]:
                    line += f" | {name}: median {row[name]['median']:.4f} spread {row[name]['iqr_share']:.3f}"
                    if bound is not None and row[name]["iqr_share"] > bound:
                        ok = False
            if "median" in row["A"] and "median" in row["B"]:
                row["median_shift"] = row["B"]["median"] / row["A"]["median"] - 1.0
                line += f" | shift {row['median_shift']:+.3f}"
                if bound is not None and abs(row["median_shift"]) > bound:
                    ok = False
            summary[workload][metric] = row
            print(line)
    for failure in failures:
        print(f"FAILED RUN: {failure}")
    print("\nsteady within bounds" if ok else "\nNOT within bounds")

    if args.output:
        Path(args.output).write_text(json.dumps({
            "env": env,
            "runs_per_set": RUNS_PER_SET,
            "run_seconds": seconds,
            "order": "interleaved: each round runs A and B back to back, alternating which goes first",
            "set_seeds": {name: [SET_SEEDS[name] + i for i in range(RUNS_PER_SET)] for name in sets},
            "study_wall_s": time.time() - started,
            "metrics": summary,
            "failed_runs": failures,
            "within_bounds": ok,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
