"""Tests for metrics, dataset splitting and reporting."""

import numpy as np
import pytest

from repro.camera import GALAXY_S7
from repro.eval import (
    IncrementalMapEvaluator,
    IncrementalSeries,
    Workbench,
    evaluate_incrementally,
    format_final_comparison,
    format_series_rows,
    format_series_table,
    format_table1,
    split_photos,
    visible_extent_intervals,
)
from repro.eval.metrics import FeaturelessTaskMetrics
from repro.geometry import Vec2
from repro.simkit import RngStream


class TestSplitPhotos:
    def test_even_split(self):
        parts = split_photos(list(range(10)), 5)
        assert [len(p) for p in parts] == [5, 5]

    def test_remainder_kept(self):
        parts = split_photos(list(range(7)), 3)
        assert [len(p) for p in parts] == [3, 3, 1]

    def test_bad_size(self):
        with pytest.raises(ValueError):
            split_photos([], 0)


class TestIncrementalEvaluator:
    def test_coverage_monotone_under_additions(self, bench):
        evaluator = IncrementalMapEvaluator(
            bench.world, bench.venue, bench.ground_truth, bench.config,
            bench.spec, RngStream(55, "eval-test"),
        )
        photos = list(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        more = list(bench.capture.sweep(Vec2(6, 4), GALAXY_S7, 8.0, blur=0.0))
        first = evaluator.add_and_evaluate(photos)
        second = evaluator.add_and_evaluate(more)
        assert second.n_photos == first.n_photos + len(more)
        assert second.coverage_percent >= first.coverage_percent - 2.0

    def test_initial_model_not_counted(self, bench):
        evaluator = IncrementalMapEvaluator(
            bench.world, bench.venue, bench.ground_truth, bench.config,
            bench.spec, RngStream(56, "eval-test-2"),
        )
        initial = list(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        parts = [list(bench.capture.sweep(Vec2(5, 4), GALAXY_S7, 8.0, blur=0.0))]
        series = evaluate_incrementally(evaluator, initial, parts, "test")
        assert series.photo_counts() == [45]

    def test_series_accessors(self):
        from repro.eval.metrics import MapEvaluation
        from repro.mapping.boundary import BoundsReport
        from repro.mapping.coverage import CoverageScore

        sample = MapEvaluation(
            n_photos=100,
            coverage=CoverageScore(50, 100, 5, 10),
            bounds=BoundsReport(41.1, 82.2, ()),
        )
        series = IncrementalSeries("x", (sample,))
        assert series.coverage_percents() == [50.0]
        assert series.bounds_percents() == [pytest.approx(50.0)]
        assert series.final is sample


class TestVisibleExtent:
    def test_frontal_photo_sees_middle(self, bench):
        from repro.camera import CameraPose

        surface = bench.venue.nearest_featureless_surface(Vec2(0.5, 7.0))
        photo = bench.capture.take_photo(
            CameraPose.at(3.0, surface.segment.midpoint.y, 3.14159), GALAXY_S7
        )
        intervals = visible_extent_intervals(surface, [photo], bench.venue)
        total = sum(hi - lo for lo, hi in intervals)
        assert total > 0.5

    def test_no_photos_no_extent(self, bench):
        surface = bench.venue.nearest_featureless_surface(Vec2(0.5, 7.0))
        assert visible_extent_intervals(surface, [], bench.venue) == []


class TestReporting:
    def rows(self):
        return [
            FeaturelessTaskMetrics(1, 2, 2, 1.0, 1.0),
            FeaturelessTaskMetrics(2, 3, 2, 1.0, 0.9),
        ]

    def test_table1_formatting(self):
        text = format_table1(self.rows())
        assert "Task#" in text
        assert "mean" in text
        assert "1.00" in text

    def test_f_score(self):
        row = FeaturelessTaskMetrics(1, 1, 1, 1.0, 0.9)
        assert row.f_score == pytest.approx(2 * 0.9 / 1.9)
        zero = FeaturelessTaskMetrics(1, 1, 0, 0.0, 0.0)
        assert zero.f_score == 0.0

    def test_series_rows_formatting(self):
        from repro.eval.metrics import MapEvaluation
        from repro.mapping.boundary import BoundsReport
        from repro.mapping.coverage import CoverageScore

        sample = MapEvaluation(100, CoverageScore(77, 100, 1, 2), BoundsReport(60, 82.2, ()))
        text = format_series_rows(IncrementalSeries("SnapTask", (sample,)))
        assert "SnapTask" in text and "77.00%" in text

    def test_series_table_validation(self):
        with pytest.raises(ValueError):
            format_series_table([], metric="nonsense")

    def test_final_comparison(self):
        from repro.eval.metrics import MapEvaluation
        from repro.mapping.boundary import BoundsReport
        from repro.mapping.coverage import CoverageScore

        final = MapEvaluation(100, CoverageScore(77, 100, 1, 2), BoundsReport(60, 82.2, ()))
        text = format_final_comparison(
            [("SnapTask", final)], paper_values={"SnapTask": "98.12%"}
        )
        assert "SnapTask" in text and "paper reference" in text


class TestWorkbench:
    def test_for_library_deterministic(self):
        a = Workbench.for_library()
        b = Workbench.for_library()
        assert len(a.world) == len(b.world)
        assert np.allclose(a.world.positions, b.world.positions)
        assert a.ground_truth.region_cells == b.ground_truth.region_cells

    def test_pipeline_uses_site_mask(self, bench):
        pipeline = bench.make_pipeline()
        assert np.array_equal(pipeline.site_mask, bench.ground_truth.region_mask)

    def test_custom_venue_workbench(self, office):
        custom = Workbench(office)
        assert custom.venue is office
        assert custom.ground_truth.region_cells > 0
