"""Host-speed probe: corrects a sample's timings for the host's drift.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over seconds to minutes, faster than runs can average
out. A ``HostProbe`` measures that speed at the same moments the program
runs: an interval timer interrupts the process every ``PERIOD_S`` of wall
time, and the signal handler runs ``probe()``, a fixed loop of the
benchmark's own (dict operations and small NumPy matrix products) that
shares no code with the program. It runs the loop once to warm the
caches the program just used, then once more timed. Python runs signal
handlers on the main thread between bytecodes, so the process stays
single-threaded.

A window's corrected time is its elapsed time, less the time spent in
the handler, scaled by ``NOMINAL_S`` over the mean timed probe in the
window: the seconds the window would have taken on a host where the probe
takes ``NOMINAL_S``. A program change alters the program's work, not the
probe's, so it moves the corrected time as it moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Wall time between probes.
PERIOD_S = 0.05
#: A timed probe's duration on the reference host; corrected times read
#: as seconds on a host where the probe takes this long.
NOMINAL_S = 0.0005

_KEYS = list(range(256))
_MATRIX = np.random.default_rng(0).random((48, 48))


def probe() -> int:
    """The fixed reference work: 2,000 dict updates and ten 48x48 products."""
    table = {}
    total = 0
    for i in range(2000):
        table[_KEYS[i & 255]] = i
        total += table.get(_KEYS[(i * 7) & 255], 0)
    m = _MATRIX
    for _ in range(10):
        m = m @ _MATRIX
        m = m / m.max()
    return total


class HostProbe:
    """Probes the host's speed on a timer from ``start()`` until ``stop()``."""

    def __init__(self):
        #: One (handler start, handler end, timed probe duration) per firing.
        self.firings: List[Tuple[float, float, float]] = []

    def _fire(self, signum, frame) -> None:
        began = time.perf_counter()
        probe()
        timed = time.perf_counter()
        probe()
        ended = time.perf_counter()
        self.firings.append((began, ended, ended - timed))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """(handler seconds, speed factor) for ``perf_counter`` window [start, end].

        The speed factor is ``NOMINAL_S`` over the mean timed probe in the
        window; multiply the window's elapsed time, less the handler
        seconds, by it. Raises ``ValueError`` if no probe fired inside.
        """
        inside = [f for f in self.firings if start <= f[0] and f[1] <= end]
        if not inside:
            raise ValueError("no host probe fired inside the timed window")
        spent = sum(ended - began for began, ended, _ in inside)
        return spent, NOMINAL_S / statistics.fmean(d for _, _, d in inside)
