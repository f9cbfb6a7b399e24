"""Run one scenario under the live invariant registry.

``run_scenario`` is the unit the fuzzer, the shrinker and the artifact
replayer all share: build the deployment a scenario describes, attach
the invariant registry, drive the event loop, and classify the outcome.

Failure classes:

* ``invariant`` — a live/checkpoint invariant fired mid-run (the run
  stops at the exact offending event);
* ``crash`` — the simulation raised (a protocol/SfM/simulation error
  escaping the event loop is as much a bug as a broken invariant);
* ``determinism`` — the same scenario run twice produced different
  reports or metrics/trace digests;
* ``scratch-twin`` — the deployment and its twin on the from-scratch
  SfM oracle (:class:`~repro.sfm.scratch.ScratchSfm`) diverged;
* ``crash-twin`` — a crash-restart campaign converged to a different
  final coverage / task outcome than its crash-free same-seed twin
  (only checked when :attr:`Scenario.crash_twin_eligible`).

One non-failure deserves its own label: a storage-fault campaign whose
crash damaged *every* retained snapshot generation fails closed with
:class:`~repro.errors.UnrecoverableStateError`. That is the recovery
ladder doing exactly its job — refusing to restore untrustworthy state
— so the run counts as ``ok`` with label ``fail-closed`` (the same
exception *without* storage faults armed is still a ``crash`` finding).

Every run is traced (:meth:`Telemetry.enable`) so the determinism
check covers the metrics registry and span trace, not just the final
report — telemetry is pinned inert by the obs differential suite, so
checking a traced run checks the untraced run too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..errors import UnrecoverableStateError
from ..obs import Telemetry
from .digests import (
    diff_projections,
    metrics_projection,
    report_projection,
    run_digests,
    trace_projection,
)
from .invariants import InvariantRegistry, InvariantViolationError, Violation
from .mutations import _patched, apply_mutation
from .scenario import Scenario


@dataclass
class CampaignResult:
    """Outcome of one scenario run (plus its verification twins)."""

    scenario: Scenario
    ok: bool
    #: invariant | crash | determinism | scratch-twin | crash-twin
    failure_kind: Optional[str] = None
    violation: Optional[Violation] = None
    crash: Optional[str] = None
    report: Optional[object] = None
    digests: Dict[str, str] = field(default_factory=dict)
    determinism_detail: Optional[str] = None
    checks_run: int = 0
    checkpoints_run: int = 0
    #: storage faults destroyed every generation and recovery refused to
    #: restore — an *ok* outcome with its own label (see module docstring).
    fail_closed: bool = False

    @property
    def label(self) -> str:
        if self.ok:
            return "fail-closed" if self.fail_closed else "ok"
        if self.failure_kind == "invariant" and self.violation is not None:
            return f"invariant:{self.violation.invariant}"
        return self.failure_kind or "unknown"


def _run_once(
    scenario: Scenario, mutation: Optional[str]
) -> Tuple[object, Telemetry, InvariantRegistry]:
    """One instrumented, invariant-checked deployment run."""
    telemetry = Telemetry.enable()
    registry = InvariantRegistry(checkpoint_every=scenario.checkpoint_every)
    with apply_mutation(mutation):
        deployment = scenario.make_deployment(telemetry=telemetry)
        registry.attach(deployment)
        try:
            report = deployment.run(
                until_s=scenario.until_s, max_events=scenario.max_events
            )
        finally:
            registry.detach()
    return report, telemetry, registry


def run_scenario(
    scenario: Scenario,
    mutation: Optional[str] = None,
    check_determinism: bool = True,
) -> CampaignResult:
    """Run ``scenario`` and classify the outcome (see module docstring)."""
    try:
        report, telemetry, registry = _run_once(scenario, mutation)
    except InvariantViolationError as exc:
        return CampaignResult(
            scenario=scenario,
            ok=False,
            failure_kind="invariant",
            violation=exc.violation,
        )
    except UnrecoverableStateError as exc:
        if scenario.storage_faults_enabled:
            # Every retained generation was damaged and recovery refused
            # to restore: failing closed is the correct outcome, and the
            # quarantine report documents it. No report exists, so the
            # twin/determinism checks are skipped.
            return CampaignResult(
                scenario=scenario,
                ok=True,
                fail_closed=True,
                crash=f"{type(exc).__name__}: {exc}",
            )
        return CampaignResult(
            scenario=scenario,
            ok=False,
            failure_kind="crash",
            crash=f"{type(exc).__name__}: {exc}",
        )
    except Exception as exc:  # noqa: BLE001 — any escape from the sim is a finding
        return CampaignResult(
            scenario=scenario,
            ok=False,
            failure_kind="crash",
            crash=f"{type(exc).__name__}: {exc}",
        )

    result = CampaignResult(
        scenario=scenario,
        ok=True,
        report=report,
        digests=run_digests(report, telemetry),
        checks_run=registry.checks_run,
        checkpoints_run=registry.checkpoints_run,
    )

    if check_determinism:
        detail = _determinism_diff(scenario, mutation, report, telemetry)
        if detail is not None:
            result.ok = False
            result.failure_kind = "determinism"
            result.determinism_detail = detail
            return result

    if scenario.scratch_twin:
        detail = _scratch_twin_diff(scenario, mutation, report)
        if detail is not None:
            result.ok = False
            result.failure_kind = "scratch-twin"
            result.determinism_detail = detail
            return result

    if scenario.crash_twin_eligible:
        detail = _crash_twin_diff(scenario, mutation, report)
        if detail is not None:
            result.ok = False
            result.failure_kind = "crash-twin"
            result.determinism_detail = detail
    return result


def _determinism_diff(
    scenario: Scenario,
    mutation: Optional[str],
    report,
    telemetry: Telemetry,
) -> Optional[str]:
    """Same seed twice -> byte-identical report + metrics/trace hashes."""
    try:
        report2, telemetry2, _registry = _run_once(scenario, mutation)
    except Exception as exc:  # noqa: BLE001
        return f"second run diverged by raising {type(exc).__name__}: {exc}"
    for name, project, a, b in (
        ("report", report_projection, report, report2),
        ("metrics", metrics_projection, telemetry.metrics, telemetry2.metrics),
        ("trace", trace_projection, telemetry.tracer, telemetry2.tracer),
    ):
        detail = diff_projections(project(a), project(b))
        if detail is not None:
            return f"{name} diverged between identical-seed runs: {detail}"
    return None


def _scratch_twin_diff(
    scenario: Scenario, mutation: Optional[str], report
) -> Optional[str]:
    """The twin on the from-scratch SfM oracle must reproduce the run exactly.

    The twin's pipeline builds :class:`~repro.sfm.scratch.ScratchSfm` in
    place of the columnar engine. Its SOR filter and maps stay
    incremental: the twin's own invariant registry checks them against
    ``sor_filter`` and the Algorithm 2+3 rebuilds. Only the
    :class:`DeploymentReport` is compared: the two engines intentionally
    differ in their *internal* telemetry (wavefront counters), but every
    externally observable output must match.
    """
    from ..core import pipeline
    from ..sfm.scratch import ScratchSfm

    try:
        with _patched(pipeline, "IncrementalSfm", lambda _columnar: ScratchSfm):
            twin, _telemetry, _registry = _run_once(scenario, mutation)
    except Exception as exc:  # noqa: BLE001
        return f"scratch twin raised {type(exc).__name__}: {exc}"
    detail = diff_projections(report_projection(report), report_projection(twin))
    if detail is not None:
        return f"scratch twin diverged: {detail}"
    return None


def _crash_twin_diff(
    scenario: Scenario, mutation: Optional[str], report
) -> Optional[str]:
    """A recovered campaign must converge exactly like its crash-free twin.

    The twin drops the crash schedule *and* persistence (so it is the
    plain pre-durability deployment). Timing legitimately shifts by the
    downtime, so only runs in which **both** campaigns declared the
    venue covered are compared — and then the final coverage and task
    outcomes must be identical: recovery restored exactly the state the
    live backend had, or the campaigns would have diverged.
    """
    twin_scenario = replace(scenario, backend_crashes=(), persist=False)
    try:
        twin, _telemetry, _registry = _run_once(twin_scenario, mutation)
    except Exception as exc:  # noqa: BLE001
        return f"crash-free twin raised {type(exc).__name__}: {exc}"
    if not (report.venue_covered and twin.venue_covered):
        return None  # one horizon ended mid-campaign: timing, not state
    diffs = [
        f"{name}: crashed={getattr(report, name)} crash-free={getattr(twin, name)}"
        for name in (
            "coverage_cells",
            "tasks_completed",
            "tasks_failed",
            "photos_uploaded",
        )
        if getattr(report, name) != getattr(twin, name)
    ]
    if diffs:
        return "crash-restart campaign diverged from its crash-free twin: " + "; ".join(diffs)
    return None
