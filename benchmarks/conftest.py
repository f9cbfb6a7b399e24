"""Shared fixtures for the benchmark harness.

The three campaigns (guided / unguided / opportunistic) are expensive, so
they run once per session and are shared by every figure/table bench.
Each full bench run writes the rows it regenerates to
``benchmarks/results/`` so the paper-vs-measured comparison in
EXPERIMENTS.md can be refreshed from the files. A smoke run
(``REPRO_BENCH_SMOKE=1``) writes them to a temporary directory instead:
its shortened campaigns must never overwrite the committed documents
that CI validates.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval import (
    Workbench,
    run_guided_experiment,
    run_opportunistic_experiment,
    run_unguided_experiment,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory):
    if os.environ.get("REPRO_BENCH_SMOKE") == "1":
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    # Also echo to the terminal for interactive runs.
    print(f"\n=== {name} ===\n{text}")


@pytest.fixture(scope="session")
def guided_result():
    bench = Workbench.for_library()
    return bench, run_guided_experiment(bench, max_tasks=120)


@pytest.fixture(scope="session")
def unguided_result():
    return run_unguided_experiment(Workbench.for_library())


@pytest.fixture(scope="session")
def opportunistic_result():
    return run_opportunistic_experiment(Workbench.for_library())
