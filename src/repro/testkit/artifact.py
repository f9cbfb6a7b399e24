"""Replayable failing-seed artifacts.

When a fuzz campaign fails, the scenario (post-shrink) plus everything
needed to re-trigger and triage the failure is serialised to a small
JSON document. Because a scenario fully determines its deployment, the
artifact *is* the reproduction: ``python -m repro fuzz --replay f.json``
re-runs it and must reach the same verdict on any machine.

Artifacts double as regression corpus entries — CI's nightly long-fuzz
uploads them, and a fixed bug's artifact can be committed under
``tests/`` to pin the fix forever.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .harness import CampaignResult, run_scenario
from .scenario import Scenario

#: Schema version for failing-seed artifacts.
ARTIFACT_SCHEMA = "repro.testkit.seed/v1"


def make_artifact(
    result: CampaignResult,
    shrunk_from: Optional[Scenario] = None,
    shrink_steps: Optional[List[str]] = None,
    shrink_runs: int = 0,
    mutation: Optional[str] = None,
) -> Dict:
    """Build the artifact document for a failing campaign result."""
    if result.ok:
        raise ValueError("artifacts are only written for failing results")
    doc: Dict = {
        "schema": ARTIFACT_SCHEMA,
        "failure": result.label,
        "failure_kind": result.failure_kind,
        "scenario": result.scenario.to_dict(),
        "mutation": mutation,
    }
    if result.violation is not None:
        doc["violation"] = result.violation.to_dict()
    if result.crash is not None:
        doc["crash"] = result.crash
    if result.determinism_detail is not None:
        doc["determinism_detail"] = result.determinism_detail
    if shrunk_from is not None and shrunk_from != result.scenario:
        doc["shrunk_from"] = shrunk_from.to_dict()
        doc["shrink_steps"] = list(shrink_steps or [])
        doc["shrink_runs"] = shrink_runs
    return doc


def write_artifact(doc: Dict, path: Union[str, Path]) -> Path:
    """Write one artifact document as pretty, key-sorted JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: Union[str, Path]) -> Dict:
    """Load and schema-check one artifact document."""
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"unsupported artifact schema {schema!r} (want {ARTIFACT_SCHEMA!r})"
        )
    return doc


def replay_artifact(
    source: Union[str, Path, Dict], check_determinism: bool = True
) -> CampaignResult:
    """Re-run an artifact's scenario (under its mutation, if any).

    Returns the fresh :class:`CampaignResult`; callers compare its
    ``label`` against the artifact's recorded ``failure`` to decide
    whether the bug still reproduces.
    """
    doc = source if isinstance(source, dict) else load_artifact(source)
    scenario = Scenario.from_dict(doc["scenario"])
    return run_scenario(
        scenario,
        mutation=doc.get("mutation"),
        check_determinism=check_determinism,
    )
