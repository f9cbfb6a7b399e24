"""Deterministic simulation testing (DST) for the SnapTask stack.

FoundationDB-style testing layer: because every subsystem — event loop,
network, protocol, SfM, mapping — runs on one seeded discrete-event
simulation, an entire crowd-mapping deployment is a pure function of
``(Scenario, seed)``. This package exploits that:

* :mod:`~repro.testkit.scenario` — seeded random deployment scenarios
  (venue geometry x crowd mix x fault schedule x protocol params);
* :mod:`~repro.testkit.invariants` — a live invariant registry hooked
  into simulator event dispatch, checking lease exclusivity, ledger
  idempotency, coverage monotonicity and incremental-vs-oracle
  exactness *while the simulation runs*;
* :mod:`~repro.testkit.harness` — runs one scenario under the registry,
  with end-of-run determinism (seed twice -> byte-identical report and
  metrics/trace digests), the scratch-twin diff against a run on the
  from-scratch SfM oracle, and the crash-restart vs crash-free
  convergence twin;
* :mod:`~repro.testkit.shrink` — delta-debugs a failing scenario down
  to a minimal reproduction;
* :mod:`~repro.testkit.artifact` — replayable failing-seed artifacts;
* :mod:`~repro.testkit.mutations` — planted bugs that prove the
  invariants actually catch what they claim to catch;
* :mod:`~repro.testkit.fuzzer` — the campaign loop behind
  ``python -m repro fuzz``;
* :mod:`~repro.testkit.executor` — the seed-sharded process pool behind
  ``--jobs N`` (byte-identical merge in campaign-index order).
"""

from .artifact import load_artifact, replay_artifact, write_artifact
from .executor import ExecutorStats, resolve_jobs, run_shards
from .fuzzer import FuzzSummary, run_fuzz
from .harness import CampaignResult, run_scenario
from .invariants import InvariantRegistry, InvariantViolationError, Violation
from .mutations import MUTATIONS, apply_mutation, mutation_probe, overload_probe
from .scenario import Scenario
from .shrink import shrink_scenario

__all__ = [
    "CampaignResult",
    "ExecutorStats",
    "FuzzSummary",
    "InvariantRegistry",
    "InvariantViolationError",
    "MUTATIONS",
    "Scenario",
    "Violation",
    "apply_mutation",
    "load_artifact",
    "mutation_probe",
    "overload_probe",
    "replay_artifact",
    "resolve_jobs",
    "run_fuzz",
    "run_scenario",
    "run_shards",
    "shrink_scenario",
    "write_artifact",
]
