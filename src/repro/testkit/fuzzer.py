"""The campaign fuzzer: sample scenarios, run, shrink what fails.

One fuzz *campaign* is: derive a scenario seed from the master seed,
sample a :class:`Scenario`, run it under the live invariant registry
with the determinism double-run, and — on failure — delta-debug the
scenario to a minimal repro and write a replayable artifact.

The campaign seeds are derived through named RNG streams
(``fuzz-campaign-<i>`` under the master seed), so ``--seed 0
--campaigns 50`` explores the same 50 scenarios on every machine, and
campaign *i* can be re-run alone without running the first *i - 1*.

That per-campaign independence is also the sharding contract for
``jobs > 1``: :func:`run_campaign` is a pure function of the fuzz
parameters plus the campaign index, so campaigns fan out across the
:mod:`executor <.executor>` process pool and merge back — in strict
index order, through the same :func:`_merge_outcome` the serial loop
uses — into a byte-identical :class:`FuzzSummary`, identical artifacts
and identical progress lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..simkit.rng import RngStream
from .artifact import make_artifact, write_artifact
from .harness import CampaignResult, run_scenario
from .mutations import MUTATIONS, mutation_probe
from .scenario import Scenario
from .shrink import DEFAULT_SHRINK_BUDGET, shrink_scenario

ProgressFn = Callable[[str], None]


def campaign_seed(master_seed: int, index: int) -> int:
    """The scenario seed for campaign ``index`` under ``master_seed``."""
    return int(RngStream(master_seed, f"fuzz-campaign-{index}").integers(0, 2**31))


def derive_scenario(
    master_seed: int,
    index: int,
    mutation: Optional[str] = None,
    scratch_twin_every: int = 0,
    crashes: bool = False,
    storage_faults: bool = False,
) -> Tuple[int, Scenario]:
    """Derive campaign ``index``'s ``(seed, scenario)`` — pure, no run.

    Shared by the campaign runner and the worker-crash path: when a pool
    worker dies mid-campaign the parent re-derives the exact scenario it
    was running to record a replayable failure artifact.
    """
    seed = campaign_seed(master_seed, index)
    if mutation is not None and index == 0:
        # Mutation mode leads with the crafted probe scenario: sampled
        # campaigns rarely produce the traffic shapes (e.g. a
        # post-completion duplicate upload, a saturated SfM lane) the
        # planted bugs need. Mutations with a dedicated probe use it.
        probe = MUTATIONS[mutation].probe if mutation in MUTATIONS else None
        scenario = probe() if probe is not None else mutation_probe()
        seed = scenario.seed
    else:
        scenario = Scenario.sample(seed)
    if storage_faults:
        scenario = scenario.with_storage_faults()
    elif crashes:
        scenario = scenario.with_crashes()
    if scratch_twin_every and index % scratch_twin_every == 0:
        scenario = replace(scenario, scratch_twin=True)
    return seed, scenario


@dataclass
class CampaignOutcome:
    """Everything one campaign produced, before summary merging.

    This is the unit that crosses the worker pipe in parallel runs, so
    it must stay picklable: ``result.report`` (a live object graph) is
    stripped by the worker before shipping.
    """

    index: int
    seed: int
    result: CampaignResult
    original: Scenario
    shrink_steps: List[str] = field(default_factory=list)
    shrink_runs: int = 0


@dataclass
class FuzzFailure:
    """One failed campaign, after shrinking."""

    index: int
    seed: int
    result: CampaignResult  # the *shrunk* reproduction
    original: Scenario
    shrink_steps: List[str]
    shrink_runs: int
    artifact_path: Optional[Path] = None


@dataclass
class FuzzSummary:
    """Aggregate outcome of one fuzz run."""

    master_seed: int
    campaigns: int
    passed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    checks_run: int = 0
    checkpoints_run: int = 0
    labels: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        """Stable JSON projection (pins ``--jobs N`` byte-equality).

        Volatile host facts (absolute artifact paths, wall times) are
        reduced to their deterministic parts — the artifact *filename*
        is seed-derived, its directory is not.
        """
        return {
            "master_seed": self.master_seed,
            "campaigns": self.campaigns,
            "passed": self.passed,
            "checks_run": self.checks_run,
            "checkpoints_run": self.checkpoints_run,
            "labels": dict(self.labels),
            "failures": [
                {
                    "index": f.index,
                    "seed": f.seed,
                    "label": f.result.label,
                    "failure_kind": f.result.failure_kind,
                    "scenario": f.result.scenario.to_dict(),
                    "original": f.original.to_dict(),
                    "shrink_steps": list(f.shrink_steps),
                    "shrink_runs": f.shrink_runs,
                    "artifact": (
                        f.artifact_path.name if f.artifact_path is not None else None
                    ),
                }
                for f in self.failures
            ],
        }


def _shrink_failure(
    result: CampaignResult,
    mutation: Optional[str],
    shrink_budget: int,
    progress: Optional[ProgressFn],
) -> "tuple[CampaignResult, List[str], int]":
    """Minimise a failing scenario; return the shrunk repro run."""
    target = result.label

    def fails(candidate: Scenario) -> Optional[str]:
        rerun = run_scenario(candidate, mutation=mutation, check_determinism=False)
        return None if rerun.ok else rerun.label

    shrunk = shrink_scenario(
        result.scenario,
        fails,
        failure_label=target,
        max_runs=shrink_budget,
        progress=progress,
    )
    if not shrunk.shrunk:
        return result, [], shrunk.runs_used
    # Final authoritative run of the minimal scenario (records the
    # violation at its new, earlier event).
    final = run_scenario(shrunk.scenario, mutation=mutation, check_determinism=False)
    if final.ok or final.label != target:  # shrinker raced a flaky repro
        return result, [], shrunk.runs_used
    return final, shrunk.steps, shrunk.runs_used


def run_campaign(
    campaigns: int,
    master_seed: int,
    index: int,
    mutation: Optional[str] = None,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
    check_determinism: bool = True,
    scratch_twin_every: int = 0,
    crashes: bool = False,
    storage_faults: bool = False,
    progress: Optional[ProgressFn] = None,
) -> CampaignOutcome:
    """Run fuzz campaign ``index`` — a pure function of its arguments.

    This is the parallel shard unit: everything up to (but excluding)
    summary accounting and artifact writing, which stay in the parent so
    serial and parallel runs share one merge path.
    """
    say = progress or (lambda line: None)
    seed, scenario = derive_scenario(
        master_seed, index, mutation, scratch_twin_every, crashes, storage_faults
    )
    say(f"campaign {index + 1}/{campaigns} seed={seed}: {scenario.describe()}")
    result = run_scenario(
        scenario, mutation=mutation, check_determinism=check_determinism
    )
    outcome = CampaignOutcome(index=index, seed=seed, result=result, original=scenario)
    if result.ok:
        return outcome
    if not shrink:
        say(f"campaign {index + 1} FAILED ({result.label})")
        return outcome
    say(f"campaign {index + 1} FAILED ({result.label}); shrinking...")
    outcome.result, outcome.shrink_steps, outcome.shrink_runs = _shrink_failure(
        result, mutation, shrink_budget, say
    )
    return outcome


def crashed_outcome(
    master_seed: int,
    index: int,
    error: str,
    mutation: Optional[str] = None,
    scratch_twin_every: int = 0,
    crashes: bool = False,
    storage_faults: bool = False,
) -> CampaignOutcome:
    """Synthesise the outcome for a campaign whose worker died mid-run.

    The scenario is re-derived in the parent (sampling is pure), so the
    failure still gets a replayable seed artifact even though the worker
    took its in-flight state down with it.
    """
    seed, scenario = derive_scenario(
        master_seed, index, mutation, scratch_twin_every, crashes, storage_faults
    )
    result = CampaignResult(
        scenario=scenario,
        ok=False,
        failure_kind="worker-crash",
        crash=error,
    )
    return CampaignOutcome(index=index, seed=seed, result=result, original=scenario)


def _merge_outcome(
    summary: FuzzSummary,
    outcome: CampaignOutcome,
    mutation: Optional[str],
    artifact_dir: Optional[Union[str, Path]],
    max_failures: int,
    say: ProgressFn,
) -> bool:
    """Fold one campaign outcome into the summary; True means stop.

    The single accounting path for serial and parallel runs: because
    outcomes arrive here in campaign-index order either way, the summary
    counters, label insertion order, artifact files and printed lines
    cannot depend on ``--jobs``.
    """
    result = outcome.result
    summary.checks_run += result.checks_run
    summary.checkpoints_run += result.checkpoints_run
    summary.labels[result.label] = summary.labels.get(result.label, 0) + 1
    if result.ok:
        summary.passed += 1
        return False
    failure = FuzzFailure(
        index=outcome.index,
        seed=outcome.seed,
        result=result,
        original=outcome.original,
        shrink_steps=outcome.shrink_steps,
        shrink_runs=outcome.shrink_runs,
    )
    if artifact_dir is not None:
        doc = make_artifact(
            result,
            shrunk_from=outcome.original,
            shrink_steps=outcome.shrink_steps,
            shrink_runs=outcome.shrink_runs,
            mutation=mutation,
        )
        failure.artifact_path = write_artifact(
            doc,
            Path(artifact_dir) / f"seed-{outcome.seed}-{result.failure_kind}.json",
        )
        say(f"  wrote artifact {failure.artifact_path}")
    summary.failures.append(failure)
    if len(summary.failures) >= max_failures:
        say(f"stopping after {max_failures} failures")
        return True
    return False


def run_fuzz(
    campaigns: int = 20,
    master_seed: int = 0,
    mutation: Optional[str] = None,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
    check_determinism: bool = True,
    scratch_twin_every: int = 0,
    crashes: bool = False,
    storage_faults: bool = False,
    artifact_dir: Optional[Union[str, Path]] = None,
    max_failures: int = 3,
    progress: Optional[ProgressFn] = None,
    jobs: Union[int, str, None] = 1,
    stats: Optional[object] = None,
    metrics: Optional[object] = None,
    _kill_indices: Sequence[int] = (),
) -> FuzzSummary:
    """Run a fuzz campaign batch (see module docstring).

    ``scratch_twin_every=N`` additionally diffs every N-th campaign
    against its twin on the from-scratch SfM oracle (0 disables — the
    twin doubles that campaign's cost). ``crashes=True`` forces a seeded
    backend crash-restart schedule (plus persistence) onto every
    sampled scenario, concentrating the batch on the durability
    subsystem; ``storage_faults=True`` goes further and also arms the
    storage damage axes (implies the forced crash schedule), aiming the
    batch at the recovery ladder. Stops early after ``max_failures``
    distinct failures;
    each failure is shrunk and (when ``artifact_dir`` is set) written
    as a replayable artifact.

    ``jobs`` (int or ``"auto"``) shards campaigns across the executor
    process pool; output is byte-identical to ``jobs=1`` because merging
    is campaign-index ordered. ``stats`` (an
    :class:`~.executor.ExecutorStats`) and ``metrics`` (a
    :class:`~..obs.metrics.MetricsRegistry`, merged from per-worker
    registries) collect executor accounting when provided.
    ``_kill_indices`` is a fault-injection hook for the executor tests:
    those campaigns' workers hard-exit mid-run.
    """
    from .executor import resolve_jobs, run_shards

    summary = FuzzSummary(master_seed=master_seed, campaigns=campaigns)
    say = progress or (lambda line: None)

    if resolve_jobs(jobs) <= 1 or campaigns <= 1:
        for index in range(campaigns):
            outcome = run_campaign(
                campaigns=campaigns,
                master_seed=master_seed,
                index=index,
                mutation=mutation,
                shrink=shrink,
                shrink_budget=shrink_budget,
                check_determinism=check_determinism,
                scratch_twin_every=scratch_twin_every,
                crashes=crashes,
                storage_faults=storage_faults,
                progress=say,
            )
            if _merge_outcome(
                summary, outcome, mutation, artifact_dir, max_failures, say
            ):
                break
        return summary

    specs = [
        {
            "campaigns": campaigns,
            "master_seed": master_seed,
            "index": index,
            "mutation": mutation,
            "shrink": shrink,
            "shrink_budget": shrink_budget,
            "check_determinism": check_determinism,
            "scratch_twin_every": scratch_twin_every,
            "crashes": crashes,
            "storage_faults": storage_faults,
            **({"selftest_exit": True} if index in set(_kill_indices) else {}),
        }
        for index in range(campaigns)
    ]
    shards = run_shards("fuzz-campaign", specs, jobs=jobs, stats=stats)
    try:
        for envelope in shards:
            if envelope["ok"]:
                payload = envelope["payload"]
                for line in payload["lines"]:
                    say(line)
                if metrics is not None:
                    metrics.merge(payload["metrics"])
                outcome = payload["outcome"]
            else:
                # Worker died (or its task raised, which run_scenario's
                # blanket except makes near-impossible): re-derive the
                # scenario and record a replayable worker-crash failure.
                outcome = crashed_outcome(
                    master_seed,
                    envelope["index"],
                    envelope.get("error", "worker failed"),
                    mutation=mutation,
                    scratch_twin_every=scratch_twin_every,
                    crashes=crashes,
                    storage_faults=storage_faults,
                )
                index = outcome.index
                say(
                    f"campaign {index + 1}/{campaigns} seed={outcome.seed}: "
                    f"WORKER CRASH ({envelope.get('error', 'worker failed')})"
                )
            if _merge_outcome(
                summary, outcome, mutation, artifact_dir, max_failures, say
            ):
                break
    finally:
        shards.close()  # early stop: shut the pool down, drop stale shards
    return summary
