"""Deterministic seed-sharded process pool for multi-campaign workloads.

Every multi-campaign workload in this repo — ``repro fuzz`` batches, the
``repro recover`` crash/twin pair, and the parameter-sweep benchmarks —
is embarrassingly parallel: each campaign is a pure function of
``(Scenario, seed)`` (DESIGN §8), so campaigns can run in separate
processes and *nothing about the outcome may change*. This module is the
single sanctioned door to host parallelism (the determinism lint bans
``multiprocessing`` everywhere else) and preserves the byte-determinism
contract by construction:

* **Sharding** follows the existing per-campaign seed derivation — a
  shard is ``(index, spec)`` and the worker recomputes everything from
  the spec, never from pool state;
* **Merging** is strictly campaign-index ordered: results are buffered
  until contiguous, so summaries, artifacts and printed lines are
  byte-identical to a serial run regardless of completion order;
* **Workers** are ``spawn``-context processes running named task
  functions from :data:`EXECUTOR_TASKS`; each request/response is a
  versioned envelope (:data:`ENVELOPE_SCHEMA`);
* **Crashes** cannot hang the pool: a worker that dies mid-shard is
  detected via its process sentinel, the shard is reported as a
  ``worker_crash`` envelope (the fuzz merge layer turns that into a
  recorded failure with a replayable seed artifact), and a replacement
  worker is spawned while shards remain.

``jobs=1`` (or a single shard) degrades to an inline loop with the same
envelope shape — the serial and parallel paths share every byte of
downstream merge code.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..obs.wallclock import cpu_now_s, wall_now_s

__all__ = [
    "ENVELOPE_SCHEMA",
    "EXECUTOR_TASKS",
    "ExecutorStats",
    "resolve_jobs",
    "run_shards",
]

#: Envelope schema version for worker request/response payloads.
ENVELOPE_SCHEMA = "repro.testkit.executor/v1"

#: Exit code used by the self-test kill switch (fault-path tests).
_SELFTEST_EXIT_CODE = 113


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalise a ``--jobs`` value: int, numeric string, or ``"auto"``.

    ``auto`` resolves to the host's CPU count. The resolved value never
    affects *outputs* (merge order is index-determined), only wall
    clock, so reading host topology here does not break determinism.
    """
    if jobs is None or jobs == "auto":
        return max(1, os.cpu_count() or 1)
    n = int(jobs)
    if n < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return n


@dataclass
class ExecutorStats:
    """Accounting for one pool run (feeds ``BENCH_dst.json``).

    ``busy_s`` maps worker slot -> total in-worker shard **CPU seconds**
    (``time.process_time`` measured inside the worker, excluding
    queue/dispatch time). CPU time is immune to host contention — N
    workers timesharing one core each still accumulate only their own
    work — so ``critical_path_s`` is the wall clock the pool would need
    on a host with at least ``jobs`` free cores, even when the
    *measuring* host has fewer.
    """

    jobs: int = 1
    shards: int = 0
    worker_crashes: int = 0
    workers_spawned: int = 0
    busy_s: Dict[int, float] = field(default_factory=dict)

    @property
    def total_busy_s(self) -> float:
        return sum(self.busy_s.values())

    @property
    def critical_path_s(self) -> float:
        return max(self.busy_s.values(), default=0.0)

    @property
    def balance_speedup(self) -> float:
        """Work-balance speedup: total shard work / slowest worker lane.

        This is the speedup the sharding itself achieves, independent of
        how many physical cores the measuring host happens to have.
        """
        critical = self.critical_path_s
        return self.total_busy_s / critical if critical > 0 else 1.0


# ---------------------------------------------------------------------------
# named task functions (must be importable by spawned workers)
# ---------------------------------------------------------------------------


def _fuzz_campaign_task(spec: dict) -> dict:
    """One fuzz campaign: sample, run, shrink on failure (in-worker)."""
    from ..obs.metrics import MetricsRegistry
    from .fuzzer import run_campaign

    if spec.get("selftest_exit"):
        # Fault-path test hook: die exactly like a worker segfault/OOM
        # would, mid-campaign, without running Python teardown.
        os._exit(_SELFTEST_EXIT_CODE)

    lines: List[str] = []
    registry = MetricsRegistry()
    t0 = wall_now_s()
    outcome = run_campaign(
        campaigns=spec["campaigns"],
        master_seed=spec["master_seed"],
        index=spec["index"],
        mutation=spec.get("mutation"),
        shrink=spec.get("shrink", True),
        shrink_budget=spec["shrink_budget"],
        check_determinism=spec.get("check_determinism", True),
        scratch_twin_every=spec.get("scratch_twin_every", 0),
        crashes=spec.get("crashes", False),
        storage_faults=spec.get("storage_faults", False),
        progress=lines.append,
    )
    registry.counter("repro.executor.campaigns").inc()
    if not outcome.result.ok:
        registry.counter("repro.executor.campaign_failures").inc()
    registry.counter("repro.executor.shrink_runs").inc(outcome.shrink_runs)
    registry.histogram(
        "repro.executor.campaign_wall_s", base=0.01, growth=2.0
    ).record(wall_now_s() - t0)
    # The report is a live object graph the merge layer never reads;
    # drop it so the envelope ships only the structured outcome.
    outcome.result.report = None
    return {"outcome": outcome, "lines": lines, "metrics": registry.dump()}


def _library_deployment_task(spec: dict) -> dict:
    """One library-venue deployment run for sweep benchmarks.

    The spec names config axes (lane shape, fault schedule, horizon);
    the payload carries the full report as a plain dict plus the task
    ledger summary, so sweep benchmarks can fan independent
    configurations across the pool.
    """
    import dataclasses as _dc

    from ..config import BackendConfig, FaultConfig, paper_config
    from ..eval import Workbench
    from ..server import Deployment

    config = paper_config(seed=spec.get("seed", 2018))
    if "max_tasks" in spec:
        config = _dc.replace(
            config, tasks=_dc.replace(config.tasks, max_tasks=spec["max_tasks"])
        )
    if "sfm_workers" in spec or "sfm_queue_limit" in spec:
        config = _dc.replace(
            config,
            backend=BackendConfig(
                sfm_workers=spec.get("sfm_workers"),
                queue_limit=spec.get("sfm_queue_limit"),
            ),
        )
    if spec.get("snapshot_every"):
        config = config.with_persistence(
            snapshot_every_batches=spec["snapshot_every"]
        )
    faults = None
    if any(
        spec.get(key)
        for key in ("drop_probability", "duplicate_probability", "jitter_s",
                    "backend_crashes")
    ):
        faults = FaultConfig(
            drop_probability=spec.get("drop_probability", 0.0),
            duplicate_probability=spec.get("duplicate_probability", 0.0),
            jitter_s=spec.get("jitter_s", 0.0),
            backend_crashes=tuple(
                (float(a), float(b)) for a, b in spec.get("backend_crashes", ())
            ),
        )
    deployment = Deployment(
        Workbench.for_library(config),
        n_clients=spec.get("n_clients", 2),
        faults=faults,
        dropouts=spec.get("dropouts"),
    )
    report = deployment.run(
        until_s=spec.get("until_s", 20_000.0),
        max_events=spec.get("max_events", 200_000),
    )
    store = deployment.server.store
    return {
        "report": _dc.asdict(report),
        "tasks_by_status": dict(store.tasks_by_status()),
        "recorded_tasks": store.recorded_task_count(),
    }


def _recover_run_task(spec: dict) -> dict:
    """One ``repro recover`` leg: the crashed run or its crash-free twin."""
    import dataclasses as _dc

    from ..config import paper_config
    from ..eval import Workbench
    from ..server import Deployment

    if spec.get("crashed"):
        from ..persist import StorageFaultConfig

        storage_spec = spec.get("storage_faults")
        config = paper_config(seed=spec["seed"]).with_persistence(
            snapshot_every_batches=spec["snapshot_every"],
            snapshot_retain=spec.get("snapshot_retain", 3),
            storage_faults=(
                StorageFaultConfig(**storage_spec) if storage_spec else None
            ),
        )
        faults = _dc.replace(
            config.network.faults,
            backend_crashes=((spec["crash_at"], spec["downtime"]),),
        )
        bench = Workbench.for_library(config)
        deployment = Deployment(bench, n_clients=spec["clients"], faults=faults)
        report = deployment.run(until_s=spec["until"])
        host = deployment.host
        audits = [
            {
                "snapshot_seq": rec.snapshot_seq,
                "replayed_records": rec.replayed_records,
                "dropped_remnants": rec.dropped_remnants,
                "armed_leases": rec.armed_leases,
                "audit_ok": rec.audit_ok,
                "generations_tried": rec.generations_tried,
                "quarantined_seqs": list(rec.quarantined_seqs),
                "quarantine_reasons": list(rec.quarantine_reasons),
                "quarantined_bytes": rec.quarantined_bytes,
                "fallback": rec.fallback,
            }
            for rec in host.recovery_audits
        ]
        storage_reports = [
            {
                "wal_torn": r.wal_torn,
                "wal_dropped_records": r.wal_dropped_records,
                "damaged_snapshot_seqs": list(r.damaged_snapshot_seqs),
                "damage_modes": list(r.damage_modes),
            }
            for r in host.storage_fault_reports
        ]
        return {
            "report": _dc.asdict(report),
            "audits": audits,
            "storage": storage_reports,
        }
    bench = Workbench.for_library(paper_config(seed=spec["seed"]))
    report = Deployment(bench, n_clients=spec["clients"]).run(until_s=spec["until"])
    return {"report": _dc.asdict(report), "audits": []}


def _selftest_task(spec: dict) -> dict:
    """Cheap executor self-test shard (unit tests exercise pool plumbing)."""
    mode = spec.get("mode", "echo")
    if mode == "exit":
        os._exit(_SELFTEST_EXIT_CODE)
    if mode == "raise":
        raise RuntimeError(spec.get("message", "selftest failure"))
    return {"value": spec.get("value")}


#: The named tasks a worker can run. Specs must be plain JSON-able dicts
#: so the envelope stays versionable; payloads may carry repo dataclasses
#: (they cross the pipe via pickle).
EXECUTOR_TASKS: Dict[str, Callable[[dict], dict]] = {
    "fuzz-campaign": _fuzz_campaign_task,
    "library-deployment": _library_deployment_task,
    "recover-run": _recover_run_task,
    "selftest": _selftest_task,
}


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _worker_main(conn) -> None:
    """Worker loop: receive ``{task, index, spec}``, send result envelopes.

    Runs until the parent sends ``None`` (drain) or the pipe closes.
    Task exceptions are returned as ``ok=False`` envelopes — only a
    process death (signal, ``os._exit``) leaves a request unanswered.
    """
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            t0 = wall_now_s()
            c0 = cpu_now_s()
            try:
                payload = EXECUTOR_TASKS[message["task"]](message["spec"])
                envelope = {
                    "schema": ENVELOPE_SCHEMA,
                    "index": message["index"],
                    "ok": True,
                    "payload": payload,
                    "wall_s": wall_now_s() - t0,
                    "cpu_s": cpu_now_s() - c0,
                }
            except BaseException as exc:  # noqa: BLE001 — shipped to the parent
                envelope = {
                    "schema": ENVELOPE_SCHEMA,
                    "index": message["index"],
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "wall_s": wall_now_s() - t0,
                    "cpu_s": cpu_now_s() - c0,
                }
            conn.send(envelope)
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """One pool slot: a spawned process, its pipe, and its current shard."""

    def __init__(self, context, slot: int):
        self.slot = slot
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        #: (index, message) of the in-flight shard, or None when idle.
        self.current: Optional[tuple] = None

    def dispatch(self, task: str, index: int, spec: dict) -> None:
        message = {"task": task, "index": index, "spec": spec}
        self.current = (index, message)
        self.conn.send(message)

    def shutdown(self) -> None:
        """Drain (idle) or terminate (busy/dead) this worker, then reap it."""
        try:
            if self.process.is_alive() and self.current is None:
                self.conn.send(None)
                self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        finally:
            try:
                self.conn.close()
            except OSError:
                pass
            self.process.close()


def _crash_envelope(index: int, worker: _Worker) -> dict:
    exitcode = worker.process.exitcode
    detail = (
        f"killed by signal {-exitcode}" if exitcode is not None and exitcode < 0
        else f"exited with code {exitcode}"
    )
    return {
        "schema": ENVELOPE_SCHEMA,
        "index": index,
        "ok": False,
        "worker_crash": True,
        "error": f"worker process {detail} mid-shard",
        "wall_s": 0.0,
        "cpu_s": 0.0,
    }


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


def run_shards(
    task: str,
    specs: Sequence[dict],
    jobs: Union[int, str, None] = 1,
    stats: Optional[ExecutorStats] = None,
) -> Iterator[dict]:
    """Run ``specs`` through ``task`` workers; yield envelopes in index order.

    The generator owns the pool: closing it early (``break`` in the
    consumer, or an explicit ``.close()``) stops dispatching and shuts
    every worker down, so early-stop consumers (``max_failures``) never
    leak processes. Worker deaths yield ``worker_crash`` envelopes and
    respawn a replacement while undispatched shards remain.
    """
    if task not in EXECUTOR_TASKS:
        raise ValueError(f"unknown executor task {task!r}")
    specs = list(specs)
    if stats is None:
        stats = ExecutorStats()
    n_jobs = min(resolve_jobs(jobs), len(specs)) if specs else 1
    stats.jobs = max(n_jobs, 1)

    if n_jobs <= 1:
        # Inline path: same envelopes, no processes. Serial callers and
        # single-shard batches share every byte of merge code.
        fn = EXECUTOR_TASKS[task]
        for index, spec in enumerate(specs):
            t0 = wall_now_s()
            c0 = cpu_now_s()
            try:
                envelope = {
                    "schema": ENVELOPE_SCHEMA,
                    "index": index,
                    "ok": True,
                    "payload": fn(spec),
                    "wall_s": wall_now_s() - t0,
                    "cpu_s": cpu_now_s() - c0,
                }
            except Exception as exc:  # noqa: BLE001 — mirrored worker behaviour
                envelope = {
                    "schema": ENVELOPE_SCHEMA,
                    "index": index,
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "wall_s": wall_now_s() - t0,
                    "cpu_s": cpu_now_s() - c0,
                }
            stats.shards += 1
            stats.busy_s[0] = stats.busy_s.get(0, 0.0) + envelope["cpu_s"]
            yield envelope
        return

    context = multiprocessing.get_context("spawn")
    workers = [_Worker(context, slot) for slot in range(n_jobs)]
    stats.workers_spawned = n_jobs
    next_spec = 0
    next_emit = 0
    buffered: Dict[int, dict] = {}

    def feed(worker: _Worker) -> None:
        nonlocal next_spec
        if next_spec < len(specs):
            worker.dispatch(task, next_spec, specs[next_spec])
            next_spec += 1

    try:
        for worker in workers:
            feed(worker)
        while next_emit < len(specs):
            busy = [w for w in workers if w.current is not None]
            if not busy:
                break  # every remaining spec is buffered or unreachable
            ready = _connection_wait(
                [w.conn for w in busy] + [w.process.sentinel for w in busy]
            )
            for worker in list(busy):
                envelope = None
                if worker.conn in ready:
                    try:
                        envelope = worker.conn.recv()
                    except (EOFError, OSError):
                        envelope = None  # died while (or after) sending
                elif worker.process.sentinel not in ready:
                    continue  # not this worker's turn
                index = worker.current[0]
                if envelope is None and worker.process.is_alive():
                    # Sentinel raced a still-live worker (rare spurious
                    # wakeup); let the next wait() round pick it up.
                    continue
                if envelope is None:
                    envelope = _crash_envelope(index, worker)
                    stats.worker_crashes += 1
                    worker.current = None
                    worker.shutdown()
                    workers.remove(worker)
                    if next_spec < len(specs):
                        replacement = _Worker(context, worker.slot)
                        stats.workers_spawned += 1
                        workers.append(replacement)
                        feed(replacement)
                else:
                    worker.current = None
                    stats.busy_s[worker.slot] = (
                        stats.busy_s.get(worker.slot, 0.0) + envelope["cpu_s"]
                    )
                    feed(worker)
                stats.shards += 1
                buffered[index] = envelope
            while next_emit in buffered:
                yield buffered.pop(next_emit)
                next_emit += 1
    finally:
        for worker in workers:
            worker.shutdown()
