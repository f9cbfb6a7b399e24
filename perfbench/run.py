"""SnapTask end-to-end benchmark.

    python3 perfbench/run.py --workload deploy-ref|guided-full|deploy-durable \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``src/`` must hold the ``repro`` package.

Every sample is a fresh process (``sample.py``) with a fixed
``PYTHONHASHSEED`` and single-threaded BLAS, so the process runs on its
main thread alone. Before the samples, ``src/`` is byte-compiled and one
set-up-only process warms the page cache; it is discarded.

``--trace 0`` repeats the same campaign, one process per sample, until
the next sample would overrun ``--seconds`` (at least two samples), and
reports the median ``setup_s`` (fresh process start to a ready
``Workbench``), ``wall_s`` (the campaign, set-up and output check
excluded) and ``peak_rss_mb``. Both times are corrected for the host's
speed, which a ``probe.HostProbe`` in the sample measures while they run;
the record line keeps the uncorrected ``raw_setup_s`` and ``raw_wall_s``.

``--trace 1`` runs traced, untraced, traced: the two traced samples give
the per-layer metrics and must agree exactly on every count, and the
untraced one between them gives ``trace.overhead_ratio``. Spans are
written to ``.perfbench-out/``.

The held-out seed runs its own campaign and every other seed runs the
default seed's, so runs at different seeds do the same work. Each sample
checks its output against the digest committed in ``digests.json`` for
the campaign it ran and against the workload's seed-independent checks.
A sample that raises or fails a check counts as a failed operation. The
last line of standard output is the JSON result; the line before it
records the host and every sample.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

from layers import COUNT_METRICS, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, campaign_seed  # noqa: E402

#: Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
MIN_SAMPLES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    # Samples read and write .pyc files as a user's CLI runs do, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        pinned = json.loads((HERE / "digests.json").read_text())
        self.pinned = pinned.get(workload, {}).get(str(campaign_seed(seed)))

    def spawn(self, *extra: str) -> dict:
        """Run one sample process to completion; returns its result line."""
        command = [
            sys.executable, str(HERE / "sample.py"),
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned_at),
            )
        except subprocess.TimeoutExpired:
            return {"error": "sample timed out", "duration_s": time.monotonic() - spawned_at}
        duration = time.monotonic() - spawned_at
        lines = proc.stdout.strip().splitlines()
        try:
            doc = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            doc = {}
        if proc.returncode != 0 or not doc:
            detail = doc.get("error") or proc.stderr or f"exit code {proc.returncode}"
            return {"error": detail.strip().splitlines()[-1], "duration_s": duration}
        doc["duration_s"] = duration
        doc["setup_s"] = doc.pop("ready_at") - spawned_at
        if "probe" in doc:
            # Untraced: take out the probe handler's time and correct for
            # the host speed the probe saw in each window.
            for key, window in (("setup_s", "setup"), ("wall_s", "campaign")):
                spent, speed = doc["probe"][window]
                doc["raw_" + key] = doc[key] - spent
                doc[key] = doc["raw_" + key] * speed
        return doc

    def problems(self, doc: dict) -> list:
        """Why a campaign sample counts as failed (empty when it passed)."""
        if "error" in doc:
            return [doc["error"]]
        found = list(doc["problems"])
        if self.pinned is not None and doc["digest"] != self.pinned:
            found.append(f"report digest {doc['digest'][:12]} != pinned {self.pinned[:12]}")
        if doc["threads"] != 1:
            found.append(f"{doc['threads']} threads, want 1")
        return found


def median_of(samples, key) -> float:
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else 0.0


def run_untraced(runner: Runner, seconds: float):
    started = time.monotonic()
    samples = []
    while True:
        samples.append(runner.spawn("--trace", "0"))
        elapsed = time.monotonic() - started
        longest = max(s["duration_s"] for s in samples)
        if len(samples) >= MIN_SAMPLES and elapsed + longest > seconds:
            break
        if time.monotonic() + longest > runner.deadline:
            break
    metrics = {name: median_of(samples, name) for name in END_TO_END}
    return samples, {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()}, []


def run_traced(runner: Runner):
    spans = OUT / f"spans-{runner.workload}-{runner.seed}"
    first = runner.spawn("--trace", "1", "--spans", f"{spans}-a.json")
    plain = runner.spawn("--trace", "0")
    second = runner.spawn("--trace", "1", "--spans", f"{spans}-b.json")
    samples = [first, plain, second]
    traced = [s["layers"] for s in (first, second) if "layers" in s]
    run_problems = []
    if len(traced) == 2:
        drifted = [
            name for name in COUNT_METRICS if traced[0][name] != traced[1][name]
        ]
        if drifted:
            run_problems.append(
                "determinism: counts differ between two traced samples at one "
                f"seed: {drifted}"
            )
    metrics = {}
    for name, (unit, _better) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            untraced = plain.get("raw_wall_s")
            value = median_of(traced, "trace.wall_s") / untraced if untraced else 0.0
        else:
            value = median_of(traced, name)
        metrics[name] = {"value": value, "unit": unit}
    return samples, metrics, run_problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    runner = Runner(args.workload, args.seed, time.monotonic() + RUN_DEADLINE_S)
    compileall.compile_dir(str(SRC), quiet=1)
    runner.spawn("--setup-only")  # warm-up, discarded
    if args.trace:
        OUT.mkdir(exist_ok=True)
        samples, metrics, run_problems = run_traced(runner)
    else:
        samples, metrics, run_problems = run_untraced(runner, args.seconds)

    failures = [runner.problems(s) for s in samples]
    failed = sum(1 for found in failures if found)
    env = next((s["env"] for s in samples if "env" in s), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "campaign": campaign_seed(args.seed),
        "env": env,
        "samples": [
            {
                "setup_s": s.get("setup_s"),
                "wall_s": s.get("wall_s"),
                "raw_setup_s": s.get("raw_setup_s"),
                "raw_wall_s": s.get("raw_wall_s"),
                "peak_rss_mb": s.get("peak_rss_mb"),
                "check": "; ".join(found) if found else "ok",
            }
            for s, found in zip(samples, failures)
        ],
        "problems": run_problems,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
