"""Planted bugs (mutation mode): prove the invariants catch real faults.

A DST harness that never fails is indistinguishable from one that
checks nothing. Each mutation here deterministically re-introduces a
class of bug the production code guards against, by monkeypatching the
*real* subsystem for the duration of one run; the matching invariant
must catch it mid-simulation. ``repro fuzz --mutate <name>`` runs a
campaign under a mutation and treats "caught + shrunk" as success.

Mutations patch class attributes inside a context manager and always
restore them, so they compose with the determinism double-run (both
runs see the same planted bug).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional


@dataclass(frozen=True)
class Mutation:
    """One named planted bug."""

    name: str
    description: str
    expected_invariant: str  # which invariant should catch it
    patch: Callable[[], contextlib.AbstractContextManager]
    #: Scenario factory whose traffic shape triggers this bug; mutation-
    #: mode fuzzing leads with it (``None`` = the default probe).
    probe: Optional[Callable[[], "object"]] = None


@contextlib.contextmanager
def _patched(cls, attr: str, wrapper_factory) -> Iterator[None]:
    original = getattr(cls, attr)
    setattr(cls, attr, wrapper_factory(original))
    try:
        yield
    finally:
        setattr(cls, attr, original)


# ----------------------------------------------------------------------
# skip-batch-dedupe: drop the upload ledger's protection
# ----------------------------------------------------------------------


def _skip_batch_dedupe():
    """Evict known batch ids before handling, bypassing upload dedup.

    A retransmitted or network-duplicated batch then re-enters SfM
    processing — the double-apply the ledger exists to prevent. The
    ledger-idempotency invariant sees the completed entry vanish at the
    duplicate's arrival event and fails the run there, *before* the
    second application lands.
    """
    from ..server.backend import BackendServer

    def factory(original):
        def handle(self, batch, on_done=None):
            self._batch_ledger.pop(batch.batch_id, None)
            return original(self, batch, on_done)

        return handle

    return _patched(BackendServer, "handle_photo_batch", factory)


# ----------------------------------------------------------------------
# leak-completed-lease: completion stops releasing the lease
# ----------------------------------------------------------------------


def _leak_completed_lease():
    """Completed tasks keep their live lease (release paths disabled).

    The server drops a finishing task's lease twice over —
    ``release_lease`` on upload success, then ``complete_task``'s own
    pop — so the mutation disables both. The lease ledger now disagrees
    with the task ledger: a COMPLETED task holds a "live" lease, the
    two-effective-holders precursor lease-exclusivity guards against.
    """
    import contextlib as _ctx

    from ..server.storage import BackendStore

    def release_factory(original):
        def release_lease(self, task_id):
            return self._leases.get(task_id)  # report it, never drop it

        return release_lease

    def complete_factory(original):
        def complete_task(self, task_id):
            lease = self._leases.get(task_id)
            done = original(self, task_id)
            if lease is not None:
                self._leases[task_id] = lease  # the leak
            return done

        return complete_task

    stack = _ctx.ExitStack()
    stack.enter_context(_patched(BackendStore, "release_lease", release_factory))
    stack.enter_context(_patched(BackendStore, "complete_task", complete_factory))
    return stack


# ----------------------------------------------------------------------
# skip-admission-bound: overload stops shedding; everything queues
# ----------------------------------------------------------------------


def _skip_admission_bound():
    """Admission control stops refusing work; the bounded queue overfills.

    With ``_overloaded`` pinned False the backend queues every arrival
    even when the admission queue is at its declared bound — the
    unbounded-buffer bug admission control exists to prevent. The
    admission-bound invariant sees the queue depth exceed the bound at
    the offending upload's arrival event.
    """
    from ..server.backend import BackendServer

    def factory(original):
        def _overloaded(self):
            return False

        return _overloaded

    return _patched(BackendServer, "_overloaded", factory)


# ----------------------------------------------------------------------
# skip-map-dirty-marking: incremental maps stop re-merging changed columns
# ----------------------------------------------------------------------


def _skip_map_dirty_marking():
    """Cloud deltas stop dirtying their map columns.

    Added and removed points still move the engine's per-cell column
    counts, but the touched cells are never re-thresholded into the
    obstacles map — the incremental map drifts from the
    Algorithm 2+3 from-scratch rebuild, which the checkpointed
    map-oracle invariant detects cell-exactly.
    """
    from ..mapping.incremental import IncrementalMapEngine

    def factory(original):
        def _apply_cloud_delta(self, added, removed):
            # Swallow the dirty-cell bookkeeping.
            return original(self, added, removed)[:0]

        return _apply_cloud_delta

    return _patched(IncrementalMapEngine, "_apply_cloud_delta", factory)


# ----------------------------------------------------------------------
# skip-wedge-invalidation: cached camera wedges ignore obstacle flips
# ----------------------------------------------------------------------


def _skip_wedge_invalidation():
    """The wedge cache is told that no obstacle cell flipped.

    The obstacles map itself stays exact, but a wall that appears inside
    (or vanishes from) a cached camera wedge no longer clips (or extends)
    its rays: the visibility map keeps counting cells the camera can no
    longer see — the stale-cache bug the exact invalidation rule exists
    to prevent. The checkpointed map-oracle invariant compares the
    visibility map with the Algorithm 3 rebuild and fails the run there.
    """
    from ..mapping.incremental import IncrementalMapEngine

    def factory(original):
        def _update_cameras(self, model, added, removed, flipped):
            return original(self, model, added, removed, flipped[:0])

        return _update_cameras

    return _patched(IncrementalMapEngine, "_update_cameras", factory)


# ----------------------------------------------------------------------
# skip-digest-verify: the recovery ladder stops verifying snapshot seals
# ----------------------------------------------------------------------


def _skip_digest_verify():
    """Recovery trusts every generation's seal without verification.

    The ladder's whole job is refusing to restore a damaged checkpoint;
    with ``_verify`` pinned to "fine", recovery restores the *newest*
    generation even when the storage fault injector just corrupted it —
    silently resurrecting tampered or truncated state instead of falling
    back to an older verified generation (or failing closed). The
    recovery-integrity invariant compares the restored generation
    against the injector's ground-truth damage report at the first
    post-restart event and fails the run there.
    """
    from ..persist.recovery import RecoveryManager

    def factory(original):
        def _verify(self, snapshot):
            return None  # every generation "verifies clean"

        return _verify

    return _patched(RecoveryManager, "_verify", factory)


MUTATIONS: Dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            name="skip-batch-dedupe",
            description="uploads bypass the batch_id dedup ledger",
            expected_invariant="ledger-idempotency",
            patch=_skip_batch_dedupe,
        ),
        Mutation(
            name="leak-completed-lease",
            description="completing a task no longer releases its lease",
            expected_invariant="lease-exclusivity",
            patch=_leak_completed_lease,
        ),
        Mutation(
            name="skip-map-dirty-marking",
            description="incremental map engine stops dirtying changed columns",
            expected_invariant="map-oracle-exactness",
            patch=_skip_map_dirty_marking,
        ),
        Mutation(
            name="skip-wedge-invalidation",
            description="cached camera wedges ignore obstacle-occupancy flips",
            expected_invariant="map-oracle-exactness",
            patch=_skip_wedge_invalidation,
        ),
        Mutation(
            name="skip-admission-bound",
            description="backend admits uploads past the bounded SfM queue",
            expected_invariant="admission-bound",
            patch=_skip_admission_bound,
            probe=lambda: overload_probe(),
        ),
        Mutation(
            name="skip-digest-verify",
            description="recovery restores snapshots without seal verification",
            expected_invariant="recovery-integrity",
            patch=_skip_digest_verify,
            probe=lambda: storage_probe(),
        ),
    )
}


def mutation_probe():
    """A scenario crafted to exercise every mutation's trigger path.

    Random scenarios rarely produce a *post-completion* duplicate upload
    (the callback ACK cannot be lost, and link-duplicated copies arrive
    while the original is still processing), so ``skip-batch-dedupe``
    would survive most sampled campaigns. This scenario forces the
    trigger deterministically: ``jitter_s`` far above ``rto_initial_s``
    makes the upload RTO fire before the (jittered) ACK, so the client
    retransmits a batch the server has already completed — the dedup
    ledger's core case. Single client + lossless delivery keep the rest
    of the run boring; completed tasks and processed batches exercise
    the lease-release and map-update paths the other mutations break.

    Mutation-mode fuzzing runs this as campaign 0.
    """
    from .scenario import Scenario

    return Scenario(
        seed=3,
        venue_seed=11,
        venue_width_m=8.0,
        venue_depth_m=7.0,
        glass_walls=1,
        n_furniture=1,
        n_hotspots=2,
        n_clients=1,
        jitter_s=6.0,
        rto_initial_s=2.0,
        until_s=6000.0,
        checkpoint_every=2,
    )


def overload_probe():
    """A scenario crafted to saturate a bounded SfM lane.

    Random scenarios with a bounded pool usually also draw small crowds
    and a serial task stream, so the admission queue rarely reaches its
    bound and ``skip-admission-bound`` could survive a sampled campaign.
    This scenario forces saturation deterministically: one worker with a
    zero-length admission queue, three clients fed from a parallel task
    stream (``max_tasks=3``), lossless links so every upload arrives.
    Any two concurrent uploads overfill the lane — the healthy backend
    sheds the second; the mutated backend queues it past the bound,
    which the admission-bound invariant fails on arrival.

    Mutation-mode fuzzing for ``skip-admission-bound`` runs this as
    campaign 0.
    """
    from .scenario import Scenario

    return Scenario(
        seed=4,
        venue_seed=11,
        venue_width_m=8.0,
        venue_depth_m=7.0,
        glass_walls=1,
        n_furniture=1,
        n_hotspots=2,
        n_clients=3,
        max_tasks=3,
        sfm_workers=1,
        sfm_queue_limit=0,
        until_s=6000.0,
        checkpoint_every=2,
    )


def storage_probe():
    """A scenario crafted to crash onto damaged storage media.

    Random scenarios arm the storage axes rarely and dilute them with
    partial probabilities, so ``skip-digest-verify`` could survive a
    sampled campaign whose damage happened to miss the restored
    generation. This scenario forces the trigger deterministically:
    ``snapshot_corruption=1.0`` damages **every** retained generation at
    the crash, so the healthy ladder must quarantine them all and fail
    closed (an ``ok`` fail-closed outcome), while the mutated ladder
    restores the newest damaged generation — which the
    recovery-integrity invariant fails against the injector's ground
    truth at the first post-restart event. ``snapshot_every=1`` builds
    several generations before the crash; a single lossless client keeps
    the rest of the run boring.

    Mutation-mode fuzzing for ``skip-digest-verify`` runs this as
    campaign 0.
    """
    from .scenario import Scenario

    return Scenario(
        seed=5,
        venue_seed=11,
        venue_width_m=8.0,
        venue_depth_m=7.0,
        glass_walls=1,
        n_furniture=1,
        n_hotspots=2,
        n_clients=1,
        backend_crashes=((900.0, 30.0),),
        persist=True,
        snapshot_every=1,
        snapshot_retain=3,
        snapshot_corruption=1.0,
        until_s=6000.0,
        checkpoint_every=2,
    )


@contextlib.contextmanager
def apply_mutation(name: Optional[str]) -> Iterator[None]:
    """Context manager applying the named mutation (no-op for ``None``)."""
    if name is None:
        yield
        return
    if name not in MUTATIONS:
        raise KeyError(
            f"unknown mutation {name!r}; available: {sorted(MUTATIONS)}"
        )
    with MUTATIONS[name].patch():
        yield
