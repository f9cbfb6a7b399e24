"""Metrics registry: counters, gauges, log-bucketed histogram edges."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_increments(self):
        c = Counter("repro.test.c")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_float_increments(self):
        c = Counter("repro.test.mb")
        c.inc(2.5)
        c.inc(0.25)
        assert c.value == pytest.approx(2.75)

    def test_snapshot(self):
        c = Counter("repro.test.c")
        c.inc(7)
        assert c.snapshot() == {"type": "counter", "value": 7}


class TestGauge:
    def test_set_and_watermark(self):
        g = Gauge("repro.test.depth")
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.max_value == 5

    def test_inc_dec(self):
        g = Gauge("repro.test.depth")
        g.inc(3)
        g.dec()
        assert g.value == 2
        assert g.max_value == 3


class TestHistogramBuckets:
    """Bucket k is (edge(k-1), edge(k)] with edge(k) = base * growth**k."""

    def test_zeros_bucket(self):
        h = Histogram("repro.test.h")
        assert h.bucket_index(0.0) == -1
        assert h.bucket_index(-1.0) == -1
        h.record(0.0)
        assert h.zeros == 1 and h.count == 1

    def test_bucket_zero_is_zero_to_base(self):
        h = Histogram("repro.test.h", base=1e-4, growth=2.0)
        assert h.bucket_index(1e-9) == 0
        assert h.bucket_index(1e-4) == 0  # exactly the edge: inclusive

    def test_edges_are_exact_across_all_buckets(self):
        h = Histogram("repro.test.h", base=1e-4, growth=2.0, max_buckets=64)
        for k in range(0, 50):
            edge = h.bucket_edge(k)
            # A value exactly at the edge belongs to bucket k...
            assert h.bucket_index(edge) == k, f"edge({k}) landed wrong"
            # ...and the next representable value above it to bucket k+1.
            above = edge * (1.0 + 1e-12)
            expect = min(k + 1, h.max_buckets - 1)
            assert h.bucket_index(above) == expect

    def test_overflow_clamps_to_last_bucket(self):
        h = Histogram("repro.test.h", base=1.0, growth=2.0, max_buckets=4)
        assert h.bucket_index(1e9) == 3
        h.record(1e9)
        assert h.bucket_counts() == [(h.bucket_edge(3), 1)]

    def test_growth_other_than_two(self):
        h = Histogram("repro.test.h", base=0.5, growth=3.0, max_buckets=32)
        for k in range(0, 20):
            assert h.bucket_index(h.bucket_edge(k)) == k

    def test_invalid_parameters_raise(self):
        with pytest.raises(ObservabilityError):
            Histogram("repro.test.h", base=0.0)
        with pytest.raises(ObservabilityError):
            Histogram("repro.test.h", growth=1.0)
        with pytest.raises(ObservabilityError):
            Histogram("repro.test.h", max_buckets=0)


class TestHistogramStats:
    def test_count_total_min_max_mean(self):
        h = Histogram("repro.test.h", base=1.0, growth=2.0)
        for v in (1.0, 2.0, 4.0, 9.0):
            h.record(v)
        assert h.count == 4
        assert h.total == pytest.approx(16.0)
        assert h.mean == pytest.approx(4.0)
        assert h.min == 1.0 and h.max == 9.0

    def test_quantile_bucket_upper_edges(self):
        h = Histogram("repro.test.h", base=1.0, growth=2.0)
        for v in (0.5, 0.6, 3.0, 100.0):
            h.record(v)
        # p50 falls in bucket 0 (two of four values <= 1.0).
        assert h.quantile(0.5) == pytest.approx(1.0)
        # p100 is the exact observed max, not a bucket edge.
        assert h.quantile(1.0) == pytest.approx(100.0)
        assert h.quantile(0.0) == pytest.approx(0.5)
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_quantile_clamped_to_observed_max(self):
        h = Histogram("repro.test.h", base=1.0, growth=2.0)
        h.record(5.0)  # bucket edge is 8.0
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_snapshot_shape(self):
        h = Histogram("repro.test.h", base=1.0, growth=2.0)
        h.record(0.0)
        h.record(3.0)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 2 and snap["zeros"] == 1
        assert snap["buckets"] == [{"le": 4.0, "count": 1}]


    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(-3, 5000), max_size=40), min_size=1, max_size=6
        ),
        growth=st.sampled_from([2.0, 1.5]),
    )
    def test_record_counts_equals_per_value_records(self, batches, growth):
        """One ``record_counts`` per batch leaves the state that one
        ``record`` per value does, bucket insertion order included."""
        per_value = Histogram("repro.test.h", base=1.0, growth=growth, max_buckets=12)
        batched = Histogram("repro.test.h", base=1.0, growth=growth, max_buckets=12)
        for batch in batches:
            for v in batch:
                per_value.record(v)
            batched.record_counts(batch)
        assert json.dumps(batched.dump_state()) == json.dumps(per_value.dump_state())
        assert batched.snapshot() == per_value.snapshot()


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("repro.a.x") is reg.counter("repro.a.x")
        assert reg.histogram("repro.a.h") is reg.histogram("repro.a.h")

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro.a.x")
        with pytest.raises(ObservabilityError):
            reg.gauge("repro.a.x")

    def test_name_convention_enforced(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("Repro.Bad.Name")
        with pytest.raises(ObservabilityError):
            reg.counter("has space")

    def test_snapshot_sorted_and_flat(self):
        reg = MetricsRegistry()
        reg.counter("repro.b.x").inc()
        reg.gauge("repro.a.y").set(2)
        snap = reg.snapshot()
        assert list(snap) == ["repro.a.y", "repro.b.x"]
        assert snap["repro.b.x"]["value"] == 1

    def test_names_and_get(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro.pipeline.phase.total")
        assert reg.names() == ["repro.pipeline.phase.total"]
        assert reg.get("repro.pipeline.phase.total") is h
        assert reg.get("missing") is None


class TestRegistryMerge:
    """Merging per-worker registries back into the parent (executor)."""

    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro.m.c").inc(3)
        b.counter("repro.m.c").inc(4.5)
        a.merge(b)
        assert a.counter("repro.m.c").value == pytest.approx(7.5)

    def test_gauges_last_by_index_and_peak(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("repro.m.depth").set(9)
        a.gauge("repro.m.depth").set(2)
        b.gauge("repro.m.depth").set(5)
        a.merge(b)  # b holds the later shard: its value wins
        g = a.gauge("repro.m.depth")
        assert g.value == 5
        assert g.max_value == 9  # watermark keeps the overall peak

    def test_histograms_merge_bucket_wise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("repro.m.h", base=1.0, growth=2.0)
        hb = b.histogram("repro.m.h", base=1.0, growth=2.0)
        for v in (0.0, 0.5, 3.0):
            ha.record(v)
        for v in (0.5, 16.0):
            hb.record(v)
        a.merge(b)
        assert ha.count == 5
        assert ha.zeros == 1
        assert ha.total == pytest.approx(20.0)
        assert ha.min == 0.0 and ha.max == 16.0
        # bucket 0 is (0, 1]: one 0.5 from each side
        assert dict(ha.bucket_counts())[1.0] == 2

    def test_histogram_config_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("repro.m.h", base=1.0, growth=2.0)
        b.histogram("repro.m.h", base=2.0, growth=2.0)
        with pytest.raises(ObservabilityError, match="cannot merge"):
            a.merge(b)

    def test_empty_and_disjoint_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.merge(b)  # empty into empty: no-op
        assert a.names() == []
        a.counter("repro.m.a").inc(1)
        b.counter("repro.m.b").inc(2)
        b.histogram("repro.m.h").record(0.25)
        a.merge(b)  # disjoint names are created on the target
        assert a.counter("repro.m.a").value == 1
        assert a.counter("repro.m.b").value == 2
        assert a.histogram("repro.m.h").count == 1
        # merging never mutates the source
        assert b.names() == ["repro.m.b", "repro.m.h"]

    def test_merge_accepts_a_dump_dict_round_tripped_through_json(self):
        import json

        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("repro.m.c").inc(2)
        b.gauge("repro.m.g").set(3)
        b.histogram("repro.m.h", base=0.01, growth=2.0).record(0.02)
        state = json.loads(json.dumps(b.dump()))  # the pipe crossing
        a.merge(state)
        assert a.snapshot().keys() == b.snapshot().keys()
        assert a.histogram("repro.m.h", base=0.01, growth=2.0).count == 1

    def test_merge_is_associative_across_workers(self):
        parts = []
        for inc in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("repro.m.c").inc(inc)
            reg.histogram("repro.m.h").record(float(inc))
            parts.append(reg)
        left = MetricsRegistry()
        for reg in parts:
            left.merge(reg)
        right = MetricsRegistry()
        right.merge(parts[1])
        right.merge(parts[2])
        right.merge(parts[0])
        assert left.counter("repro.m.c").value == right.counter("repro.m.c").value
        assert left.histogram("repro.m.h").quantile(0.5) == right.histogram(
            "repro.m.h"
        ).quantile(0.5)

    def test_unknown_instrument_type_raises(self):
        a = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="unknown type"):
            a.merge({"repro.m.x": {"type": "meter", "value": 1}})
