"""Perf bench: recovery-ladder cost as a function of fallback depth.

One persisted campaign retains every checkpoint generation; the bench
then forces recovery at every rung of the ladder — damaging the newest
``depth`` generations' seals so verification quarantines them — and
measures what each extra rung of fallback costs: a longer WAL-suffix
replay and its wall time, *and nothing else* (every rung must recover
the identical logical state digest, which is also asserted).

Results go to ``BENCH_recovery.json`` (``repro.bench.recovery/v1``,
CI-validated): one row per depth, with the genesis-vs-newest replay and
wall amplification in the summary — the headline "what does keeping
fewer generations cost at recovery time" number for tuning
``--snapshot-retain``.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI): a smaller venue with
a shallower ladder, same artefacts written to a temporary directory, no
floor assertions beyond digest equality.
"""

import os

from repro.obs.bench import BENCH_RECOVERY_SCHEMA, write_bench
from repro.obs.wallclock import wall_now_s
from repro.persist import RecoveryManager, Snapshotter
from repro.testkit import Scenario

from .conftest import write_result

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: A two-client campaign over a venue large enough for a deep ladder
#: (~14 generations, ~300 WAL records at full size).
SCENARIO = Scenario(
    seed=7,
    n_clients=2,
    venue_width_m=12.0 if SMOKE else 16.0,
    venue_depth_m=10.0 if SMOKE else 12.0,
    persist=True,
    snapshot_every=1,
    snapshot_retain=999,  # keep the whole ladder
)


def _fork_store(host) -> Snapshotter:
    """A store whose retained-generation list is private to the fork.

    Seal damage replaces frozen ``Snapshot`` entries in the fork's list
    only; the state graphs stay shared (recovery deep-copies before
    installing, and the bench never tampers with state).
    """
    source = host.snapshotter
    store = Snapshotter(
        host.wal, every_batches=source.every_batches, retain=source.retain
    )
    store._snapshots = list(reversed(source.generations()))
    store._next_seq = source.taken
    return store


def test_bench_recovery(benchmark, results_dir):
    deployment = SCENARIO.make_deployment()
    report = deployment.run(
        until_s=SCENARIO.until_s, max_events=SCENARIO.max_events
    )
    assert report.venue_covered
    host = deployment.host
    generations = host.snapshotter.generations()  # newest first
    assert len(generations) >= 3, "venue too small for a ladder sweep"

    def sweep():
        rows = []
        digests = set()
        for depth in range(len(generations)):
            store = _fork_store(host)
            for snap in generations[:depth]:
                store.damage_seal(snap.seq, b"")
            t0 = wall_now_s()
            result = RecoveryManager(host.wal, store).recover(deployment.simulator)
            wall = wall_now_s() - t0
            result.server.fence()
            digests.add(result.digest)
            rows.append(
                {
                    "depth": depth,
                    "snapshot_seq": result.snapshot_seq,
                    "generations_tried": result.generations_tried,
                    "quarantined": len(result.quarantined_seqs),
                    "quarantined_bytes": result.quarantined_bytes,
                    "replayed_records": result.replayed_records,
                    "wall_s": round(wall, 6),
                }
            )
        return rows, digests

    rows, digests = benchmark.pedantic(sweep, rounds=1, iterations=1)

    newest, genesis = rows[0], rows[-1]
    assert genesis["snapshot_seq"] == 0  # the deepest rung is genesis
    replay_amp = genesis["replayed_records"] / max(newest["replayed_records"], 1)
    wall_amp = genesis["wall_s"] / max(newest["wall_s"], 1e-9)
    digest_identical = len(digests) == 1

    lines = [
        "Perf: recovery-ladder cost vs fallback depth",
        f"({len(generations)} generations, {host.wal.position} WAL records, "
        f"venue {SCENARIO.venue_width_m:.0f}x{SCENARIO.venue_depth_m:.0f}m, "
        f"{SCENARIO.n_clients} clients)",
        "",
        "depth  seq  replayed  wall_s",
    ] + [
        f"{r['depth']:5d}  {r['snapshot_seq']:3d}  {r['replayed_records']:8d}"
        f"  {r['wall_s']:.3f}"
        for r in rows
    ] + [
        "",
        f"replay amplification (genesis/newest): {replay_amp:.1f}x",
        f"wall amplification   (genesis/newest): {wall_amp:.2f}x",
        f"identical recovered digest at every rung: {digest_identical}",
    ]
    write_result(results_dir, "recovery_ladder", "\n".join(lines))

    summary = {
        "generations": len(generations),
        "wal_records": host.wal.position,
        "newest_replayed_records": newest["replayed_records"],
        "genesis_replayed_records": genesis["replayed_records"],
        "newest_wall_s": newest["wall_s"],
        "genesis_wall_s": genesis["wall_s"],
        "replay_amplification": round(replay_amp, 3),
        "wall_amplification": round(wall_amp, 3),
        "digest_identical": digest_identical,
    }
    write_bench(
        results_dir / "BENCH_recovery.json",
        BENCH_RECOVERY_SCHEMA,
        rows,
        summary,
        campaign={
            "seed": SCENARIO.seed,
            "n_clients": SCENARIO.n_clients,
            "venue_width_m": SCENARIO.venue_width_m,
            "venue_depth_m": SCENARIO.venue_depth_m,
            "smoke": SMOKE,
        },
    )

    # The ladder's whole contract: deeper rungs replay more, recover the
    # same state. Wall amplification has no floor (replay is cheap
    # relative to server construction on small campaigns).
    assert digest_identical
    replays = [r["replayed_records"] for r in rows]
    assert replays == sorted(replays), replays
    assert genesis["replayed_records"] == host.wal.position
