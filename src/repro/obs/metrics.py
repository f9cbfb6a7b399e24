"""Always-on metrics: counters, gauges, and log-bucketed histograms.

The registry is designed around two constraints:

* **Cheap enough to leave on.** A counter increment is one attribute add;
  a histogram record is one log + one dict add. Instrumented modules
  resolve their metric handles *once* (at construction), so the hot path
  never touches the registry or hashes a metric name.
* **One implementation.** There is no disabled registry: every run
  records into a live one (a default :class:`~repro.obs.Telemetry`
  builds a fresh registry), so the Algorithm-1 phase histograms and the
  layer counters exist for untraced runs too.

Naming convention (see DESIGN.md "Observability"): every metric is
``repro.<layer>.<name>`` — e.g. ``repro.sim.events.cancelled``,
``repro.pipeline.phase.registration``. Phase histograms record seconds.

Instruments are *process-lifetime telemetry*, not simulated state: a
durability snapshot that deep-copies backend state must keep pointing at
the live instruments, never clone them (a clone would silently fork the
registry). Every instrument therefore implements ``__deepcopy__`` as
identity.
"""

from __future__ import annotations

import collections
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError

Number = Union[int, float]

_NAME_RE = re.compile(r"^[a-z0-9_.]+$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(
            f"metric name {name!r} violates the [a-z0-9_.] convention"
        )
    return name


class Counter:
    """Monotonically increasing value (float increments allowed: MB, etc.)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def __deepcopy__(self, memo: dict) -> "Counter":
        return self  # live telemetry handle, shared by snapshots

    def inc(self, n: Number = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def dump_state(self) -> dict:
        return {"type": "counter", "value": self.value}

    def merge_state(self, state: dict) -> None:
        """Counters merge by summation."""
        self.value += state["value"]


class Gauge:
    """Last-set value with a high-watermark (queue depths, cache sizes)."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self.max_value: Number = 0

    def __deepcopy__(self, memo: dict) -> "Gauge":
        return self  # live telemetry handle, shared by snapshots

    def set(self, v: Number) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def inc(self, n: Number = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: Number = 1) -> None:
        self.value -= n

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value, "max": self.max_value}

    def dump_state(self) -> dict:
        return {"type": "gauge", "value": self.value, "max": self.max_value}

    def merge_state(self, state: dict) -> None:
        """Gauges merge last-by-index: the incoming value wins, peaks max.

        The executor merges worker states in campaign-index order, so
        "incoming wins" reproduces exactly the value a serial run would
        have left behind after the same final campaign.
        """
        self.value = state["value"]
        if state["max"] > self.max_value:
            self.max_value = state["max"]


class Histogram:
    """Log-bucketed histogram (sparse; geometric bucket edges).

    Bucket ``k`` (``k >= 0``) holds values in ``(edge(k-1), edge(k)]``
    where ``edge(k) = base * growth**k`` — so bucket 0 is ``(0, base]``.
    Values ``<= 0`` land in a dedicated ``zeros`` bucket, values above
    ``edge(max_buckets - 1)`` clamp into the last (overflow) bucket.
    Edges are resolved exactly (a value equal to ``edge(k)`` is in bucket
    ``k``, never ``k + 1``), which the bucket-edge tests pin down.
    """

    __slots__ = (
        "name", "base", "growth", "max_buckets",
        "count", "total", "zeros", "min", "max", "_counts", "_log_growth",
    )

    def __init__(
        self,
        name: str,
        base: float = 1e-4,
        growth: float = 2.0,
        max_buckets: int = 64,
    ):
        if base <= 0 or growth <= 1.0 or max_buckets < 1:
            raise ObservabilityError(
                f"histogram {name!r}: need base > 0, growth > 1, max_buckets >= 1"
            )
        self.name = name
        self.base = float(base)
        self.growth = float(growth)
        self.max_buckets = int(max_buckets)
        self.count = 0
        self.total = 0.0
        self.zeros = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._counts: Dict[int, int] = {}
        self._log_growth = math.log(self.growth)

    def __deepcopy__(self, memo: dict) -> "Histogram":
        return self  # live telemetry handle, shared by snapshots

    # -- recording ---------------------------------------------------------

    def record(self, v: Number) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        idx = self.bucket_index(v)
        if idx < 0:
            self.zeros += 1
        else:
            self._counts[idx] = self._counts.get(idx, 0) + 1

    def record_counts(self, values: Sequence[int]) -> None:
        """Record integer ``values`` in one pass per distinct value.

        Leaves exactly the state one :meth:`record` per value, in order,
        would: integer sums are exact in a float, and a bucket first seen
        here is inserted when its first value comes up.
        """
        if not values:
            return
        self.count += len(values)
        self.total += float(sum(values))
        low, high = float(min(values)), float(max(values))
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        for v, n in collections.Counter(values).items():
            idx = self.bucket_index(float(v))
            if idx < 0:
                self.zeros += n
            else:
                self._counts[idx] = self._counts.get(idx, 0) + n

    def bucket_index(self, v: float) -> int:
        """Bucket of ``v`` (-1 for the zeros bucket). Exact at edges."""
        if v <= 0.0:
            return -1
        # Float log is within one bucket of the truth; fix up exactly.
        idx = int(math.ceil(math.log(v / self.base) / self._log_growth - 1e-9))
        if idx < 0:
            idx = 0
        while idx > 0 and v <= self.bucket_edge(idx - 1):
            idx -= 1
        while v > self.bucket_edge(idx):
            idx += 1
        return min(idx, self.max_buckets - 1)

    def bucket_edge(self, k: int) -> float:
        """Inclusive upper edge of bucket ``k``."""
        return self.base * self.growth ** k

    # -- reading -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Sorted ``(upper_edge, count)`` pairs for occupied buckets."""
        return [
            (self.bucket_edge(k), self._counts[k]) for k in sorted(self._counts)
        ]

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bucket holding it.

        Exact observed extremes are used for q=0/q=1; the zeros bucket
        reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min if self.min is not None else 0.0
        if q >= 1.0:
            return self.max if self.max is not None else 0.0
        target = q * self.count
        seen = float(self.zeros)
        if seen >= target:
            return 0.0
        for k in sorted(self._counts):
            seen += self._counts[k]
            if seen >= target:
                return min(self.bucket_edge(k), self.max)
        return self.max if self.max is not None else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "zeros": self.zeros,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": [
                {"le": edge, "count": n} for edge, n in self.bucket_counts()
            ],
        }

    def dump_state(self) -> dict:
        """Loss-free, JSON-able state (raw bucket indices + config)."""
        return {
            "type": "histogram",
            "base": self.base,
            "growth": self.growth,
            "max_buckets": self.max_buckets,
            "count": self.count,
            "sum": self.total,
            "zeros": self.zeros,
            "min": self.min,
            "max": self.max,
            "counts": {str(k): n for k, n in self._counts.items()},
        }

    def merge_state(self, state: dict) -> None:
        """Histograms merge bucket-wise; configs must agree exactly."""
        if (
            state["base"] != self.base
            or state["growth"] != self.growth
            or state["max_buckets"] != self.max_buckets
        ):
            raise ObservabilityError(
                f"histogram {self.name!r}: cannot merge state with bucket "
                f"config base={state['base']} growth={state['growth']} "
                f"max_buckets={state['max_buckets']} (have base={self.base} "
                f"growth={self.growth} max_buckets={self.max_buckets})"
            )
        self.count += state["count"]
        self.total += state["sum"]
        self.zeros += state["zeros"]
        if state["min"] is not None and (self.min is None or state["min"] < self.min):
            self.min = state["min"]
        if state["max"] is not None and (self.max is None or state["max"] > self.max):
            self.max = state["max"]
        for key, n in state["counts"].items():
            idx = int(key)
            self._counts[idx] = self._counts.get(idx, 0) + n


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Instruments are keyed by name; asking twice returns the same object,
    so modules can resolve handles at construction and share instruments
    across instances (e.g. every :class:`Channel` increments the same
    ``repro.net.dropped`` counter).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, requested {cls.__name__}"
                )
            return existing
        instrument = cls(_check_name(name), *args)
        self._instruments[name] = instrument
        return instrument

    def __deepcopy__(self, memo: dict) -> "MetricsRegistry":
        return self  # live telemetry handle, shared by snapshots

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self,
        name: str,
        base: float = 1e-4,
        growth: float = 2.0,
        max_buckets: int = 64,
    ) -> Histogram:
        return self._get(name, Histogram, base, growth, max_buckets)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str):
        """The instrument registered under ``name`` (or None)."""
        return self._instruments.get(name)

    def snapshot(self) -> Dict[str, dict]:
        """Flat JSON-able view of every instrument, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def dump(self) -> Dict[str, dict]:
        """Loss-free, JSON-able state of every instrument (for merging).

        Unlike :meth:`snapshot` (a reporting view with derived quantiles),
        the dump carries the raw histogram bucket indices and configs so a
        peer registry can merge it exactly — this is the envelope a
        process-pool worker ships back to the parent.
        """
        return {
            name: self._instruments[name].dump_state()
            for name in sorted(self._instruments)
        }

    _MERGE_CLASSES = None  # filled in after the class definitions below

    def merge(self, other: "Union[MetricsRegistry, Dict[str, dict]]") -> None:
        """Merge another registry (or its :meth:`dump`) into this one.

        Semantics per instrument type: counters sum, gauges take the
        incoming value (last-by-index — callers merge in shard order)
        with peak max, histograms add bucket-wise. Instruments missing
        on either side are created / left untouched; a name registered
        as a different type on the two sides is an error.
        """
        states = other.dump() if hasattr(other, "dump") else other
        for name in sorted(states):
            state = states[name]
            kind = state.get("type")
            cls_and_args = self._MERGE_CLASSES.get(kind)
            if cls_and_args is None:
                raise ObservabilityError(
                    f"cannot merge instrument {name!r} of unknown type {kind!r}"
                )
            cls, extract = cls_and_args
            instrument = self._get(name, cls, *extract(state))
            instrument.merge_state(state)


#: type tag -> (instrument class, state -> constructor args past the name).
MetricsRegistry._MERGE_CLASSES = {
    "counter": (Counter, lambda state: ()),
    "gauge": (Gauge, lambda state: ()),
    "histogram": (
        Histogram,
        lambda state: (state["base"], state["growth"], state["max_buckets"]),
    ),
}

