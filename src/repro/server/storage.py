"""Backend storage: "the model and maps are stored in a database for
further iterations" (Algorithm 1's output handling).

An in-memory store with the semantics the backend needs: a task ledger
with *leases* and simple metrics counters. The current model and maps
live in the pipeline (``SnapTaskPipeline.maps``), which is the one
holder of Algorithm 1's state; only the latest maps are ever read, so
no past versions are kept. Batch outcomes live in the backend's dedup
ledger alone (``BackendServer._batch_ledger``, one retention window of
``LEDGER_RETENTION_S``); the store keeps no batch records. The store is
deliberately synchronous and single-writer — the paper's backend
processes one batch at a time.

Leases are the fault-tolerance half of the task ledger: crowd workers
abandon assigned tasks (arXiv:1901.09264 measures how often), so every
assignment carries a simulated-time expiry. The backend's reaper calls
:meth:`BackendStore.expire_lease` when the expiry passes without an
upload, flipping the task back to PENDING so it can be reissued; no
issued task is ever silently lost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..core.tasks import Task, TaskStatus
from ..errors import LeaseError, ProtocolError


@dataclass(frozen=True)
class Lease:
    """One live task assignment with its simulated-time expiry."""

    task_id: int
    client_id: str
    granted_at: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class BackendStore:
    """In-memory database for one venue's tasks and leases."""

    def __init__(self, venue_id: str):
        self._venue_id = venue_id
        self._tasks: Dict[int, Task] = {}
        self._assignments: Dict[int, str] = {}  # task id -> client id
        self._leases: Dict[int, Lease] = {}  # task id -> live lease
        self._counters: Dict[str, int] = {}

    @property
    def venue_id(self) -> str:
        return self._venue_id

    # -- task ledger ----------------------------------------------------------------

    def record_task(self, task: Task) -> None:
        self._tasks[task.task_id] = task

    def assign_task(
        self,
        task_id: int,
        client_id: str,
        granted_at: float = 0.0,
        expires_at: Optional[float] = None,
    ) -> Task:
        """Mark a pending task assigned; lease it when ``expires_at`` is given."""
        task = self._tasks.get(task_id)
        if task is None:
            raise ProtocolError(f"unknown task {task_id}")
        if task.status not in (TaskStatus.PENDING,):
            raise ProtocolError(f"task {task_id} is {task.status.value}, not assignable")
        if task_id in self._leases:
            raise LeaseError(f"task {task_id} already carries a live lease")
        assigned = task.assigned()
        self._tasks[task_id] = assigned
        self._assignments[task_id] = client_id
        if expires_at is not None:
            self._leases[task_id] = Lease(
                task_id=task_id,
                client_id=client_id,
                granted_at=granted_at,
                expires_at=expires_at,
            )
        return assigned

    def complete_task(self, task_id: int) -> Task:
        task = self._tasks.get(task_id)
        if task is None:
            raise ProtocolError(f"unknown task {task_id}")
        done = task.completed()
        self._tasks[task_id] = done
        self._leases.pop(task_id, None)
        return done

    def fail_task(self, task_id: int) -> Task:
        """Mark a task failed (batch registered nothing) and drop its lease.

        Failed attempts are terminal for the *task object* — Algorithm 1
        escalates by issuing a fresh reissue/annotation task — but the
        lease is released so the ledger never pins a dead assignment.
        """
        task = self._tasks.get(task_id)
        if task is None:
            raise ProtocolError(f"unknown task {task_id}")
        failed = task.failed()
        self._tasks[task_id] = failed
        self._leases.pop(task_id, None)
        self.bump("tasks_failed")
        return failed

    def expire_lease(self, task_id: int, now: float) -> Optional[Task]:
        """Reap one lease if it has expired; return the requeue-able task.

        Returns ``None`` when there is nothing to reap (no live lease,
        task already finished, or the lease has not expired yet).
        """
        lease = self._leases.get(task_id)
        if lease is None:
            return None
        if not lease.expired(now):
            return None
        task = self._tasks.get(task_id)
        self._leases.pop(task_id, None)
        self._assignments.pop(task_id, None)
        if task is None or task.status != TaskStatus.ASSIGNED:
            # A lease outliving its task's ASSIGNED state is a ledger
            # inconsistency (normally complete/fail/release pops it);
            # dropping it silently would hide the bug from the DST
            # invariant layer, so account for the cleanup.
            self.bump("orphan_leases_dropped")
            return None
        pending = replace(task, status=TaskStatus.PENDING)
        self._tasks[task_id] = pending
        self.bump("leases_expired")
        self.bump("tasks_requeued")
        return pending

    def release_lease(self, task_id: int) -> Optional[Lease]:
        """Drop a lease without touching the task status (clean hand-back)."""
        return self._leases.pop(task_id, None)

    def lease_of(self, task_id: int) -> Optional[Lease]:
        return self._leases.get(task_id)

    def active_leases(self) -> List[Lease]:
        return sorted(self._leases.values(), key=lambda lease: lease.task_id)

    def task(self, task_id: int) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise ProtocolError(f"unknown task {task_id}") from None

    def maybe_task(self, task_id: int) -> Optional[Task]:
        return self._tasks.get(task_id)

    def assignee_of(self, task_id: int) -> Optional[str]:
        return self._assignments.get(task_id)

    def tasks_with_status(self, status: TaskStatus) -> List[Task]:
        """All recorded tasks currently in ``status`` (ledger-order)."""
        return [t for t in self._tasks.values() if t.status == status]

    def tasks_by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for task in self._tasks.values():
            counts[task.status.value] = counts.get(task.status.value, 0) + 1
        return counts

    def recorded_task_count(self) -> int:
        """Every task the backend ever issued to a client."""
        return len(self._tasks)

    # -- digest projection -----------------------------------------------------------

    def digest_view(self) -> Dict[str, object]:
        """Canonical-JSON-able projection of all durable store state.

        Consumed by ``repro.persist.digest`` for the recovery-idempotency
        audit; reprs of the frozen dataclasses are exact and ordered.
        """
        return {
            "venue": self._venue_id,
            "tasks": {str(tid): repr(t) for tid, t in sorted(self._tasks.items())},
            "assignments": {
                str(tid): cid for tid, cid in sorted(self._assignments.items())
            },
            "leases": {str(tid): repr(l) for tid, l in sorted(self._leases.items())},
            "counters": dict(sorted(self._counters.items())),
        }

    # -- counters --------------------------------------------------------------------

    def bump(self, counter: str, amount: int = 1) -> int:
        self._counters[counter] = self._counters.get(counter, 0) + amount
        return self._counters[counter]

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)
