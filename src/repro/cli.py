"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``      — describe the library replica venue
* ``guided``    — run the guided SnapTask campaign and print the series
* ``compare``   — the full three-way field test (Figs. 11-12 data)
* ``deploy``    — the client/server deployment simulation
* ``export``    — run a guided campaign and export the floor plan
                   (PGM + JSON)
* ``trace``     — run the deployment traced and dump
                   ``trace.json`` (Perfetto), ``metrics.json`` and
                   ``BENCH_pipeline.json``
* ``fuzz``      — deterministic simulation-testing campaigns: seeded
                   random scenarios under the live invariant registry,
                   with failing-seed shrinking and replayable artifacts
                   (``--crashes`` forces backend crash-restarts)
* ``recover``   — crash the backend mid-deployment, recover it from
                   WAL + snapshot, and diff the converged campaign
                   against its crash-free twin
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .config import paper_config


def _make_bench(seed: int):
    from .eval import Workbench

    return Workbench.for_library(paper_config(seed=seed))


def cmd_info(args: argparse.Namespace) -> int:
    bench = _make_bench(args.seed)
    print(bench.venue.describe())
    print(f"grid: {bench.spec.n_rows} x {bench.spec.n_cols} cells of "
          f"{bench.spec.cell_size_m * 100:.0f} cm")
    print(f"world features: {len(bench.world)}")
    print(f"ground-truth region cells: {bench.ground_truth.region_cells}")
    print(f"outer bounds: {bench.ground_truth.outer_bounds_m:.2f} m")
    return 0


def cmd_guided(args: argparse.Namespace) -> int:
    from .eval import run_guided_experiment
    from .eval.reporting import format_series_rows, format_table1
    from .mapping import render_ascii

    bench = _make_bench(args.seed)
    result = run_guided_experiment(bench, max_tasks=args.max_tasks)
    print(format_series_rows(result.series))
    print()
    print(format_table1(result.featureless))
    print()
    print(f"venue covered: {result.run.venue_covered}; "
          f"{result.n_photo_tasks} photo + {result.n_annotation_tasks} annotation tasks")
    if args.map:
        print(render_ascii(result.final_maps, bench.ground_truth.region_mask, max_width=100))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .eval import (
        format_final_comparison,
        run_guided_experiment,
        run_opportunistic_experiment,
        run_unguided_experiment,
    )

    guided = run_guided_experiment(_make_bench(args.seed), max_tasks=args.max_tasks)
    unguided = run_unguided_experiment(_make_bench(args.seed))
    opportunistic = run_opportunistic_experiment(_make_bench(args.seed))
    print(
        format_final_comparison(
            [
                ("SnapTask", guided.final),
                ("Unguided participatory", unguided.series.final),
                ("Opportunistic", opportunistic.series.final),
            ],
            paper_values={
                "SnapTask": "98.12%",
                "unguided": "77.4%",
                "opportunistic": "63.67%",
            },
        )
    )
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    from .server import Deployment

    bench = _make_bench(args.seed)
    deployment = Deployment(bench, n_clients=args.clients)
    report = deployment.run(until_s=args.until)
    print(f"venue covered: {report.venue_covered}")
    print(f"simulated time: {report.sim_time_s:.0f} s; events: {report.events_processed}")
    print(f"tasks: {report.tasks_completed}; photos: {report.photos_uploaded}; "
          f"traffic: {report.total_traffic_mb:.0f} MB")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import Telemetry
    from .obs.bench import BENCH_PIPELINE_SCHEMA, phase_rows, write_bench
    from .obs.export import write_chrome_trace, write_metrics_json
    from .server import Deployment

    bench = _make_bench(args.seed)
    telemetry = Telemetry.enable()
    deployment = Deployment(bench, n_clients=args.clients, telemetry=telemetry)
    report = deployment.run(until_s=args.until)
    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = write_chrome_trace(
        telemetry.tracer, out / "trace.json", metrics=telemetry.metrics
    )
    metrics_path = write_metrics_json(telemetry.metrics, out / "metrics.json")
    bench_path = write_bench(
        out / "BENCH_pipeline.json",
        BENCH_PIPELINE_SCHEMA,
        phase_rows(telemetry.metrics),
        telemetry.metrics.snapshot(),
        campaign={
            "command": "trace",
            "seed": args.seed,
            "clients": args.clients,
            "until_s": args.until,
            "sim_time_s": report.sim_time_s,
            "events_processed": report.events_processed,
            "tasks_completed": report.tasks_completed,
            "venue_covered": report.venue_covered,
        },
    )
    tracer = telemetry.tracer
    print(f"simulated {report.sim_time_s:.0f} s, {report.events_processed} events, "
          f"{report.tasks_completed} tasks")
    print(f"spans recorded: {tracer.finished_count} (dropped: {tracer.dropped_spans})")
    print(f"wrote {trace_path} (load it at https://ui.perfetto.dev)")
    print(f"wrote {metrics_path}")
    print(f"wrote {bench_path}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .eval import run_guided_experiment
    from .mapping.export import floorplan_to_json, floorplan_to_pgm

    bench = _make_bench(args.seed)
    result = run_guided_experiment(bench, max_tasks=args.max_tasks)
    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    pgm = floorplan_to_pgm(
        result.final_maps, out / "floorplan.pgm", bench.ground_truth.region_mask
    )
    meta = floorplan_to_json(
        result.final_maps, out / "floorplan.json", venue_name=bench.venue.name
    )
    print(f"wrote {pgm} and {meta}")
    print(f"coverage: {result.final.coverage_percent:.2f}%  "
          f"bounds: {result.final.bounds_percent:.2f}%")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .testkit import MUTATIONS, load_artifact, replay_artifact, run_fuzz

    if args.replay:
        doc = load_artifact(args.replay)
        print(f"replaying {args.replay} (recorded failure: {doc['failure']})")
        result = replay_artifact(doc, check_determinism=not args.no_determinism)
        print(f"replay outcome: {result.label}")
        if result.violation is not None:
            print(f"  {result.violation}")
        if result.crash is not None:
            print(f"  {result.crash}")
        if result.determinism_detail is not None:
            print(f"  {result.determinism_detail}")
        if result.label == doc["failure"]:
            print("failure reproduced")
            return 1
        print("failure did NOT reproduce (fixed, or environment drift)")
        return 0

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(f"unknown mutation {args.mutate!r}; available: {sorted(MUTATIONS)}")
        return 2

    summary = run_fuzz(
        campaigns=args.campaigns,
        master_seed=args.seed,
        mutation=args.mutate,
        shrink=not args.no_shrink,
        check_determinism=not args.no_determinism,
        scratch_twin_every=args.scratch_twin_every,
        crashes=args.crashes,
        storage_faults=args.storage_faults,
        artifact_dir=args.artifacts,
        max_failures=args.max_failures,
        progress=print,
        jobs=args.jobs,
    )
    ran = summary.passed + len(summary.failures)
    print(
        f"\n{ran} campaigns: {summary.passed} ok, {len(summary.failures)} failed "
        f"({summary.checks_run} invariant checks, "
        f"{summary.checkpoints_run} oracle checkpoints)"
    )
    for label, count in sorted(summary.labels.items()):
        print(f"  {label}: {count}")
    for failure in summary.failures:
        print(f"\nfailing seed {failure.result.scenario.seed}: {failure.result.label}")
        print(f"  scenario: {failure.result.scenario.describe()}")
        if failure.shrink_steps:
            print(
                f"  shrunk in {failure.shrink_runs} runs: "
                f"{', '.join(failure.shrink_steps)}"
            )
        if failure.result.violation is not None:
            print(f"  {failure.result.violation}")
        if failure.result.crash is not None:
            print(f"  crash: {failure.result.crash}")
        if failure.result.determinism_detail is not None:
            print(f"  {failure.result.determinism_detail}")
        if failure.artifact_path is not None:
            print(f"  artifact: {failure.artifact_path}")
    if args.mutate is not None:
        expected = f"invariant:{MUTATIONS[args.mutate].expected_invariant}"
        caught = any(f.result.label == expected for f in summary.failures)
        print(
            f"\nmutation {args.mutate!r}: "
            + (f"caught by {expected}" if caught else f"NOT caught (want {expected})")
        )
        # In mutation mode the *failure* is the success condition.
        return 0 if caught else 1
    return 0 if summary.ok else 1


def cmd_recover(args: argparse.Namespace) -> int:
    from .testkit.executor import EXECUTOR_TASKS, resolve_jobs, run_shards

    # Both legs — the crashed run and its crash-free twin — are computed
    # first (inline, or concurrently on the executor pool with --jobs 2)
    # and printed from their payload dicts afterwards, so the output is
    # byte-identical regardless of --jobs.
    crashed_spec = {
        "crashed": True,
        "seed": args.seed,
        "snapshot_every": args.snapshot_every,
        "snapshot_retain": args.snapshot_retain,
        "crash_at": args.crash_at,
        "downtime": args.downtime,
        "clients": args.clients,
        "until": args.until,
    }
    if args.storage_faults:
        # Deterministic degraded recovery: corrupt exactly the newest
        # snapshot generation at the crash (probability 1, cascade cap
        # 1), forcing the ladder to quarantine it and fall back to an
        # older verified generation with a longer WAL replay. The WAL
        # itself stays intact, so the recovered campaign must still
        # converge byte-identically to the crash-free twin.
        crashed_spec["storage_faults"] = {
            "snapshot_corruption": 1.0,
            "max_damaged_generations": 1,
        }
    specs = [
        crashed_spec,
        {
            "crashed": False,
            "seed": args.seed,
            "clients": args.clients,
            "until": args.until,
        },
    ]
    if resolve_jobs(args.jobs) >= 2:
        envelopes = list(run_shards("recover-run", specs, jobs=2))
        failed = [env for env in envelopes if not env["ok"]]
        if failed:
            print(f"recover worker failed: {failed[0].get('error', 'unknown')}")
            return 2
        crashed, twin = (env["payload"] for env in envelopes)
    else:
        run = EXECUTOR_TASKS["recover-run"]
        crashed, twin = run(specs[0]), run(specs[1])

    report = crashed["report"]
    print(
        f"crashed run: covered={report['venue_covered']} "
        f"sim_time={report['sim_time_s']:.0f} s"
    )
    print(
        f"  crashes: {report['backend_crashes']}  recoveries: {report['backend_recoveries']}  "
        f"wal records: {report['wal_records']}  snapshots: {report['snapshots_taken']}"
    )
    for i, damage in enumerate(crashed.get("storage", [])):
        if damage["damaged_snapshot_seqs"] or damage["wal_torn"] or (
            damage["wal_dropped_records"]
        ):
            print(
                f"  crash #{i} storage damage: "
                f"snapshots {damage['damaged_snapshot_seqs']} "
                f"({', '.join(damage['damage_modes']) or 'none'}), "
                f"wal torn={damage['wal_torn']} "
                f"dropped={damage['wal_dropped_records']}"
            )
    audits_ok = True
    saw_fallback = False
    for i, rec in enumerate(crashed["audits"]):
        ok = rec["audit_ok"]
        audits_ok = audits_ok and ok
        saw_fallback = saw_fallback or rec["fallback"]
        ladder = ""
        if rec["fallback"] or rec["quarantined_seqs"]:
            ladder = (
                f", tried {rec['generations_tried']} generations, "
                f"quarantined {rec['quarantined_seqs']} "
                f"({rec['quarantined_bytes']} seal bytes)"
            )
        print(
            f"  recovery #{i}: snapshot seq {rec['snapshot_seq']}, "
            f"replayed {rec['replayed_records']} records, "
            f"dropped {rec['dropped_remnants']} remnants, "
            f"re-armed {rec['armed_leases']} leases, "
            f"audit {'ok' if ok else 'MISMATCH'}{ladder}"
        )
    if args.storage_faults and not saw_fallback:
        print("storage faults armed but no recovery fell back a generation")
        return 1

    # The crash-free twin: same seed, no crash, persistence off — the
    # plain pre-durability deployment recovery must converge to exactly.
    twin_report = twin["report"]
    print(f"crash-free twin: covered={twin_report['venue_covered']}")
    if not (report["venue_covered"] and twin_report["venue_covered"]):
        print("one run ended mid-campaign; raise --until to compare converged state")
        return 0 if audits_ok else 1
    diffs = [
        f"  {name}: crashed={report[name]} crash-free={twin_report[name]}"
        for name in ("coverage_cells", "tasks_completed", "tasks_failed", "photos_uploaded")
        if report[name] != twin_report[name]
    ]
    if diffs:
        print("DIVERGED from the crash-free twin:")
        print("\n".join(diffs))
        return 1
    print(
        f"converged identically: coverage_cells={report['coverage_cells']} "
        f"tasks_completed={report['tasks_completed']} "
        f"photos_uploaded={report['photos_uploaded']}"
    )
    return 0 if audits_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SnapTask (ICDCS 2018) reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=2018, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="describe the library replica")

    p_guided = sub.add_parser("guided", help="run the guided campaign")
    p_guided.add_argument("--max-tasks", type=int, default=120)
    p_guided.add_argument("--map", action="store_true", help="print the ASCII floor plan")

    p_compare = sub.add_parser("compare", help="guided vs unguided vs opportunistic")
    p_compare.add_argument("--max-tasks", type=int, default=120)

    p_deploy = sub.add_parser("deploy", help="client/server deployment simulation")
    p_deploy.add_argument("--clients", type=int, default=3)
    p_deploy.add_argument("--until", type=float, default=40_000.0)

    p_export = sub.add_parser("export", help="export the floor plan (PGM + JSON)")
    p_export.add_argument("--max-tasks", type=int, default=120)
    p_export.add_argument("--output", default="floorplan-out")

    p_trace = sub.add_parser(
        "trace", help="run the deployment traced; dump trace + metrics"
    )
    p_trace.add_argument("--clients", type=int, default=3)
    p_trace.add_argument("--until", type=float, default=20_000.0)
    p_trace.add_argument("--output", default="obs-out")

    p_fuzz = sub.add_parser(
        "fuzz", help="deterministic simulation-testing campaigns (DST)"
    )
    p_fuzz.add_argument("--campaigns", type=int, default=20)
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="master fuzz seed (campaign seeds derive)"
    )
    p_fuzz.add_argument(
        "--mutate",
        default=None,
        help="run under a planted bug; the fuzz succeeds iff an invariant catches it",
    )
    p_fuzz.add_argument(
        "--artifacts",
        default=None,
        help="directory for failing-seed artifacts (written on failure)",
    )
    p_fuzz.add_argument(
        "--replay",
        default=None,
        help="re-run a failing-seed artifact instead of fuzzing",
    )
    p_fuzz.add_argument(
        "--scratch-twin-every",
        type=int,
        default=0,
        help="diff every N-th campaign against its twin on the from-scratch "
        "SfM oracle",
    )
    p_fuzz.add_argument(
        "--crashes",
        action="store_true",
        help="force a seeded backend crash-restart schedule onto every campaign",
    )
    p_fuzz.add_argument(
        "--storage-faults",
        action="store_true",
        help="also arm seeded storage damage (torn WAL tails, dropped "
        "flushes, snapshot corruption) at every forced crash",
    )
    p_fuzz.add_argument("--max-failures", type=int, default=3)
    p_fuzz.add_argument("--no-shrink", action="store_true")
    p_fuzz.add_argument("--no-determinism", action="store_true")
    p_fuzz.add_argument(
        "--jobs",
        default="1",
        help="parallel campaign workers (int or 'auto'); output is "
        "byte-identical to --jobs 1",
    )

    p_recover = sub.add_parser(
        "recover", help="crash + recover the backend; diff vs the crash-free twin"
    )
    p_recover.add_argument("--clients", type=int, default=1)
    p_recover.add_argument("--until", type=float, default=40_000.0)
    p_recover.add_argument(
        "--crash-at", type=float, default=2_000.0, help="sim time of the crash (s)"
    )
    p_recover.add_argument(
        "--downtime", type=float, default=60.0, help="backend downtime per crash (s)"
    )
    p_recover.add_argument(
        "--snapshot-every", type=int, default=8, help="checkpoint every N batches"
    )
    p_recover.add_argument(
        "--snapshot-retain", type=int, default=3,
        help="checkpoint generations retained (newest N + genesis)",
    )
    p_recover.add_argument(
        "--storage-faults",
        action="store_true",
        help="corrupt the newest snapshot generation at the crash, forcing "
        "a verified older-generation fallback (twin equivalence still holds)",
    )
    p_recover.add_argument(
        "--jobs",
        default="1",
        help="run the crashed leg and its twin concurrently (2 or 'auto')",
    )
    return parser


_COMMANDS = {
    "info": cmd_info,
    "guided": cmd_guided,
    "compare": cmd_compare,
    "deploy": cmd_deploy,
    "export": cmd_export,
    "trace": cmd_trace,
    "fuzz": cmd_fuzz,
    "recover": cmd_recover,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
