"""The runtime needs numpy alone: no run path imports scipy.

scipy is a test dependency only (it cross-checks the SOR neighbour index,
see ``tests/test_neighbour_index_kdtree.py``). A fresh interpreter imports
the CLI, builds the library workbench and runs the two former kd-tree
users, the SOR mask and DBSCAN; afterwards no ``scipy`` module may be
loaded. A fresh process is needed because this test process has scipy
loaded already.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import numpy as np

import repro.cli
from repro.annotation import dbscan
from repro.config import paper_config
from repro.eval import Workbench
from repro.sfm import sor_mask

Workbench.for_library(paper_config())
rng = np.random.default_rng(0)
assert sor_mask(rng.normal(size=(300, 3))).any()
assert dbscan(rng.normal(size=(40, 2)), 0.5, 3).shape == (40,)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
