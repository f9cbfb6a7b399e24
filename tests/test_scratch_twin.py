"""The DST scratch twin: a deployment must match its run on the SfM oracle.

``Scenario.scratch_twin`` reruns a campaign with the from-scratch
:class:`~repro.sfm.scratch.ScratchSfm` in place of the columnar engine
and diffs the two deployment reports. The clean run must pass, and a
planted wavefront bug that the oracle does not share must fail it with
the ``scratch-twin`` label — otherwise the twin checks nothing.
"""

from __future__ import annotations

from repro.core import pipeline as pipeline_module
from repro.sfm import IncrementalSfm, ObservationTable
from repro.testkit import Scenario, run_scenario


def small_scenario() -> Scenario:
    return Scenario(
        seed=3,
        venue_seed=11,
        venue_width_m=8.0,
        venue_depth_m=7.0,
        glass_walls=1,
        n_furniture=1,
        n_hotspots=2,
        n_clients=1,
        until_s=6000.0,
        checkpoint_every=2,
        scratch_twin=True,
    )


def test_clean_run_matches_its_scratch_twin():
    result = run_scenario(small_scenario(), check_determinism=False)
    assert result.ok, (result.label, result.determinism_detail)
    assert result.checkpoints_run > 0
    # The twin swaps the engine for its own run only.
    assert pipeline_module.IncrementalSfm is IncrementalSfm


def test_planted_wavefront_bug_fails_the_scratch_twin(monkeypatch):
    # Registered photos stop re-dirtying the pending photos that observe
    # their features, so a photo that failed its first test is never
    # re-tested. Only the wavefront calls ``dirty_observers``; the oracle
    # rescans every pending photo each round.
    monkeypatch.setattr(
        ObservationTable, "dirty_observers", lambda self, features, pending, dirty: 0
    )
    result = run_scenario(small_scenario(), check_determinism=False)
    assert result.label == "scratch-twin", (result.label, result.crash)
    assert result.determinism_detail.startswith("scratch twin diverged")
