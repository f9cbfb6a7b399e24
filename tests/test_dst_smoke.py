"""Smoke tests for the DST harness: fuzz, catch, shrink, replay.

The full fuzz campaign (``repro fuzz --campaigns 50``) runs in CI's
nightly job; tier-1 runs this bounded batch instead. It exercises every
layer of the testkit once:

* a real sampled-campaign batch under the live invariant registry with
  the same-seed determinism double-run enabled;
* planted bugs (mutations) being *caught* by their expected invariants,
  *shrunk* to minimal scenarios, written as replayable artifacts, and
  *reproduced* from those artifacts;
* scenario serialisation round-tripping through JSON exactly;
* the campaign-seed derivation staying stable across refactors (pinned
  values — artifacts in flight reference these seeds).
"""

from __future__ import annotations

import json

import pytest

from repro.testkit import (
    MUTATIONS,
    Scenario,
    load_artifact,
    mutation_probe,
    replay_artifact,
    run_fuzz,
    run_scenario,
)
from repro.testkit.fuzzer import campaign_seed


@pytest.fixture(scope="module")
def probe_result():
    """One checked run of the crafted probe scenario (shared, it's ~3 s)."""
    return run_scenario(mutation_probe(), check_determinism=True)


class TestCampaignBatch:
    def test_bounded_fuzz_batch_passes(self):
        summary = run_fuzz(
            campaigns=2,
            master_seed=0,
            shrink=False,
            check_determinism=False,
        )
        assert summary.ok, [f.result.label for f in summary.failures]
        assert summary.passed == 2
        # The registry actually ran: per-event checks and oracle checkpoints.
        assert summary.checks_run > 0
        assert summary.checkpoints_run > 0

    def test_probe_scenario_is_clean_and_deterministic(self, probe_result):
        assert probe_result.ok, probe_result.label
        assert probe_result.checks_run > 0
        assert probe_result.checkpoints_run > 0
        # Digests exist for every projection the determinism check compares.
        assert set(probe_result.digests) == {"report", "metrics", "trace"}

    def test_same_scenario_reproduces_identical_digests(self, probe_result):
        again = run_scenario(mutation_probe(), check_determinism=False)
        assert again.ok
        assert again.digests == probe_result.digests


class TestMutationLoop:
    #: Planted bugs proven caught here; skip-admission-bound and
    #: skip-digest-verify have their own probes and tests
    #: (test_backend_overload.py, test_persist_faults.py).
    CAUGHT_HERE = (
        "skip-batch-dedupe",
        "skip-map-dirty-marking",
        "skip-wedge-invalidation",
        "leak-completed-lease",
    )

    def test_planted_bug_is_caught_shrunk_and_replayable(self, tmp_path):
        for mutation in self.CAUGHT_HERE:
            expected = f"invariant:{MUTATIONS[mutation].expected_invariant}"
            summary = run_fuzz(
                campaigns=1,
                master_seed=0,
                mutation=mutation,
                shrink=True,
                shrink_budget=16,
                check_determinism=False,
                artifact_dir=tmp_path / mutation,
            )
            assert len(summary.failures) == 1, mutation
            failure = summary.failures[0]
            assert failure.result.label == expected, mutation
            # The shrinker simplified the scenario (fewer obstacles / shorter
            # run) without changing the failure.
            assert failure.shrink_steps, mutation
            assert failure.result.scenario != failure.original, mutation
            # The artifact on disk replays to the same failure.
            assert failure.artifact_path is not None, mutation
            doc = load_artifact(failure.artifact_path)
            assert doc["failure"] == expected, mutation
            replayed = replay_artifact(doc, check_determinism=False)
            assert replayed.label == expected, mutation

    def test_no_shrink_log_announces_no_shrink(self):
        lines = []
        summary = run_fuzz(
            campaigns=1,
            mutation="skip-batch-dedupe",
            shrink=False,
            progress=lines.append,
        )
        assert len(summary.failures) == 1
        assert not summary.failures[0].shrink_steps
        assert "campaign 1 FAILED (invariant:ledger-idempotency)" in lines
        assert not any("shrinking" in line for line in lines), lines


class TestScenarioSerialisation:
    def test_json_roundtrip_is_exact(self):
        scenario = Scenario.sample(123)
        wire = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(wire) == scenario

    def test_unknown_schema_is_rejected(self):
        doc = Scenario.sample(7).to_dict()
        doc["schema"] = "repro.testkit.scenario/v999"
        with pytest.raises(ValueError):
            Scenario.from_dict(doc)

    def test_campaign_seed_derivation_is_pinned(self):
        # Artifacts reference campaign seeds; a silent change to the
        # derivation would orphan every recorded failing seed.
        assert [campaign_seed(0, i) for i in range(3)] == [
            28697041,
            173833828,
            1529914845,
        ]
