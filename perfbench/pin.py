"""Re-pin the report digests that samples are checked against.

    python3 perfbench/pin.py

Runs one untraced sample of every workload at each pinned seed (the
default seed and the held-out seed) and writes the report digests to
``digests.json``. A sample whose seed-independent checks fail is not
pinned. Re-pin only for a deliberate behaviour change, and say why in
CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, RUN_DEADLINE_S, Runner
from workloads import PINNED_SEEDS, WORKLOADS


def main() -> int:
    digests = {}
    for name in WORKLOADS:
        digests[name] = {}
        for seed in PINNED_SEEDS:
            runner = Runner(name, seed, time.monotonic() + RUN_DEADLINE_S)
            doc = runner.spawn("--trace", "0")
            found = [doc["error"]] if "error" in doc else doc["problems"]
            if found:
                print(f"{name} seed {seed}: not pinned: {found}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = doc["digest"]
            print(f"{name} seed {seed}: {doc['digest']}")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
