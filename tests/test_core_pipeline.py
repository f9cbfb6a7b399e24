"""Tests for the SnapTask pipeline (Algorithm 1 control flow)."""

from contextlib import contextmanager

import pytest

from repro.camera import GALAXY_S7, CameraPose
from repro.core import SnapTaskPipeline, TaskFactory, TaskKind
from repro.errors import TaskGenerationError
from repro.geometry import Vec2
from repro.simkit import RngStream


@pytest.fixture()
def pipeline(bench):
    return bench.make_pipeline()


def sweep(bench, x, y, blur=0.0):
    return list(bench.capture.sweep(Vec2(x, y), GALAXY_S7, 8.0, blur=blur))


@contextmanager
def recorded_outcomes():
    """Collect, in order, every ``BatchOutcome`` that a pipeline's
    ``process_batch`` returns while the context is open (a pipeline keeps
    only its last one)."""
    outcomes = []
    process_batch = SnapTaskPipeline.process_batch

    def recording(self, *args, **kwargs):
        outcome = process_batch(self, *args, **kwargs)
        outcomes.append(outcome)
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SnapTaskPipeline, "process_batch", recording)
        yield outcomes


class TestAlgorithm1:
    def test_empty_batch_rejected(self, pipeline):
        with pytest.raises(TaskGenerationError):
            pipeline.process_batch([])

    def test_maps_before_first_batch_rejected(self, pipeline):
        with pytest.raises(TaskGenerationError):
            _ = pipeline.maps

    def test_growth_generates_photo_task(self, bench, pipeline):
        outcome = pipeline.process_batch(sweep(bench, 3, 3))
        assert outcome.photos_added
        assert outcome.coverage_increased
        assert len(outcome.new_tasks) == 1
        assert outcome.new_tasks[0].kind == TaskKind.PHOTO_COLLECTION
        assert not outcome.venue_covered

    def test_coverage_counter_updates(self, bench, pipeline):
        first = pipeline.process_batch(sweep(bench, 3, 3))
        assert pipeline.coverage_cells == first.coverage_cells
        second = pipeline.process_batch(sweep(bench, 6, 4))
        assert second.previous_coverage_cells == first.coverage_cells

    def test_unregistered_batch_goes_to_quality_path(self, bench, pipeline):
        pipeline.process_batch(sweep(bench, 3, 3))
        factory = TaskFactory()
        task = factory.photo_task(Vec2(19.2, 15.4), 2)
        # The annex is visually isolated: photos will not register.
        outcome = pipeline.process_batch(sweep(bench, 19.2, 15.4), task)
        assert not outcome.photos_added
        assert outcome.quality is not None
        assert not outcome.quality.is_low_quality
        assert len(outcome.new_tasks) == 1
        # Good quality, first failure -> same-location photo task reissue.
        reissue = outcome.new_tasks[0]
        assert reissue.kind == TaskKind.PHOTO_COLLECTION
        assert reissue.reissue_of == task.task_id

    def test_blurry_batch_reassigns_same_task(self, bench, pipeline):
        pipeline.process_batch(sweep(bench, 3, 3))
        task = TaskFactory().photo_task(Vec2(3, 3), 2)
        outcome = pipeline.process_batch(sweep(bench, 3, 3, blur=0.9), task)
        assert outcome.quality is not None and outcome.quality.is_low_quality
        assert outcome.new_tasks[0].kind == TaskKind.PHOTO_COLLECTION
        # Blur does not count toward the annotation trigger.
        assert pipeline.attempts_at(Vec2(3, 3)) == 0

    def test_tt_escalation_to_annotation(self, bench, pipeline):
        pipeline.process_batch(sweep(bench, 3, 3))
        location = Vec2(19.2, 15.4)
        factory = TaskFactory()
        task = factory.photo_task(location, 2)
        kinds = []
        for i in range(3):
            outcome = pipeline.process_batch(sweep(bench, 19.2 + 0.02 * i, 15.4), task)
            task = outcome.new_tasks[0]
            kinds.append(task.kind)
        # TT = 2: the third good-quality failure escalates.
        assert kinds[:2] == [TaskKind.PHOTO_COLLECTION, TaskKind.PHOTO_COLLECTION]
        assert kinds[2] == TaskKind.ANNOTATION

    def test_streamed_capture_guard(self, bench, pipeline):
        """Trailing sub-batches of a capture that already grew do not
        escalate or spawn tasks."""
        photos = sweep(bench, 3, 3)
        task = TaskFactory().photo_task(Vec2(3, 3), 1)
        grew = pipeline.process_batch(photos[:30], task)
        assert grew.coverage_increased
        trailing = pipeline.process_batch(photos[30:], task)
        if not trailing.coverage_increased:
            assert trailing.new_tasks == ()
            assert pipeline.attempts_at(Vec2(3, 3)) == 0

    def test_last_outcome_is_the_latest_batch(self, bench, pipeline):
        assert pipeline.last_outcome is None
        first = pipeline.process_batch(sweep(bench, 3, 3))
        assert pipeline.last_outcome is first
        second = pipeline.process_batch(sweep(bench, 6, 4))
        assert pipeline.last_outcome is second
        assert [first.iteration, second.iteration] == [1, 2]
        assert pipeline.maps is second.maps

    def test_location_key_merges_nearby(self, pipeline):
        key = SnapTaskPipeline._location_key
        assert key(Vec2(3.0, 3.0)) == key(Vec2(3.2, 2.9))
        assert key(Vec2(3.0, 3.0)) != key(Vec2(4.5, 3.0))
