"""Checkpoints copy the backend state with ``copy.deepcopy``, sharing only
what never changes.

A checkpoint (``Snapshotter.checkpoint``) deep-copies the backend's
exported state graph in one memo pass, and a restore copies the stored
image again. Uploaded photos and recovered cameras are never written
after they are built, so they copy as themselves; their arrays are
read-only, so a write through a shared reference raises instead of
silently editing a snapshot. Everything else is copied. Pinned here on
real deployment state:

* the copy is independent of the live graph, keeps its in-graph aliasing
  (one ``Task`` in two collections stays one ``Task``) and its size;
* every ``Photo``, ``RecoveredCamera`` and cached map-engine wedge
  (``_CameraEntry``) reachable from a checkpoint is the live object, with
  read-only arrays, as are the venue, the feature world and the
  telemetry handles; no ``Task`` is shared, but task locations and the
  SfM engine's artificial-feature positions (``Vec2``/``Vec3``) are;
* a checkpoint holds the current state only: the one ``CoverageMaps``
  it reaches is the last batch outcome's;
* photos that WAL replay unpickles are read-only too;
* a restored backend takes its next batch with the same ``MapUpdate``
  counts as the live backend: the map engine keys its cached wedges on
  the camera object, which survives the copy, so no wedge is recomputed
  because of a restore.
"""

from __future__ import annotations

import pickle
import types
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from repro.camera import GALAXY_S7, CameraPose
from repro.camera.photo import Photo
from repro.config import paper_config
from repro.core.tasks import Task
from repro.eval import Workbench
from repro.mapping import CoverageMaps
from repro.mapping.incremental import _CameraEntry
from repro.obs.metrics import Counter
from repro.obs.tracing import Tracer
from repro.persist import BatchRecord, RecoveryManager, Snapshotter, WriteAheadLog
from repro.persist.snapshot import structural_size
from repro.server import Deployment
from repro.sfm.filters import VoxelGrid
from repro.sfm.model import RecoveredCamera
from repro.simkit import Simulator
from repro.testkit import Scenario
from repro.venue import FeatureWorld, Venue
from tests.test_core_pipeline import recorded_outcomes

#: Objects the walk records but never descends into.
_LEAVES = (
    type, types.FunctionType, types.MethodType, types.BuiltinFunctionType,
    types.ModuleType, np.ndarray, str, bytes, int, float, bool, type(None),
)


def reachable(root, kinds):
    """``{id: [obj, refs]}`` for every object of ``kinds`` reachable from
    ``root`` through containers, instance dicts and slots; ``refs`` counts
    the references to it from inside the graph."""
    found = {}
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, kinds):
            found.setdefault(id(obj), [obj, 0])[1] += 1
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return found


def objects(found, kind):
    return {key: obj for key, (obj, _refs) in found.items() if isinstance(obj, kind)}


def tasks_in_two_fields(state):
    """``{task_id: task}`` for every ``Task`` that two or more persisted
    fields of ``state`` reach."""
    fields = {}
    for name, value in state.items():
        for key, task in objects(reachable(value, Task), Task).items():
            fields.setdefault(key, (task, set()))[1].add(name)
    return {task.task_id: task for task, names in fields.values() if len(names) >= 2}


def read_only_arrays(obj):
    if isinstance(obj, Photo):
        return (obj.feature_ids, obj.pixels_uv, obj.patch)
    if isinstance(obj, _CameraEntry):
        return (obj.ranges, obj.cells)
    return () if obj.observed_feature_ids is None else (obj.observed_feature_ids,)


@pytest.fixture(scope="module")
def server():
    """The backend of a 2-client run."""
    deployment = Deployment(Workbench.for_library(paper_config()), n_clients=2)
    deployment.run(until_s=4_000.0, max_events=200_000)
    return deployment.server


@pytest.fixture(scope="module")
def checkpointed(server):
    """(live state, checkpoint state) of ``server``."""
    snapshot = Snapshotter(WriteAheadLog()).checkpoint(server, 4_000.0)
    return server.export_state(), snapshot.state


@pytest.fixture(scope="module")
def persisted():
    """A persisted deployment with a checkpoint after every batch, and the
    outcome of every batch it processed."""
    scenario = replace(
        Scenario(seed=11, n_clients=1), persist=True, snapshot_every=1, snapshot_retain=2
    )
    deployment = scenario.make_deployment()
    with recorded_outcomes() as outcomes:
        deployment.run(until_s=scenario.until_s, max_events=scenario.max_events)
    assert [o.iteration for o in outcomes] == list(range(1, len(outcomes) + 1))
    return deployment, outcomes


class TestCheckpointCopy:
    def test_same_structural_size_and_keys(self, checkpointed):
        live, image = checkpointed
        assert image.keys() == live.keys()
        assert structural_size(image) == structural_size(live)

    def test_copy_is_independent_of_the_live_graph(self, checkpointed):
        live, image = checkpointed
        assert image["_task_queue"] is not live["_task_queue"]
        assert list(image["_task_queue"]) == list(live["_task_queue"])
        assert image["_request_ledger"] == live["_request_ledger"]
        assert image["_request_ledger"] is not live["_request_ledger"]
        live_maps = live["_pipeline"].maps
        image_maps = image["_pipeline"].maps
        assert image_maps.visibility.data is not live_maps.visibility.data
        np.testing.assert_array_equal(image_maps.visibility.data, live_maps.visibility.data)

    def test_containers_are_deep_and_independent(self, server):
        image = Snapshotter(WriteAheadLog()).checkpoint(server, 4_000.0).state
        live = server.export_state()
        ledger = dict(live["_request_ledger"])
        results = list(live["_result_log"])
        gc_queue = list(live["_gc_queue"])
        visibility = live["_pipeline"].maps.visibility.data.copy()
        assert ledger and results and gc_queue
        image["_request_ledger"].clear()
        image["_result_log"].clear()
        image["_gc_queue"].clear()
        image["_pipeline"].maps.visibility.data[...] += 1
        assert live["_request_ledger"] == ledger
        assert live["_result_log"] == results
        assert list(live["_gc_queue"]) == gc_queue
        np.testing.assert_array_equal(live["_pipeline"].maps.visibility.data, visibility)

    def test_only_the_last_outcomes_maps_are_held(self, checkpointed):
        _live, image = checkpointed
        held = objects(reachable(image, CoverageMaps), CoverageMaps)
        assert len(held) == 1
        (maps,) = held.values()
        assert maps is image["_pipeline"].last_outcome.maps

    def test_one_task_in_two_collections_stays_one_task(self, checkpointed):
        live, image = checkpointed
        live_shared, image_shared = tasks_in_two_fields(live), tasks_in_two_fields(image)
        assert live_shared  # the state really holds a shared task
        assert image_shared.keys() == live_shared.keys()
        for task_id, task in image_shared.items():
            assert task == live_shared[task_id]
            assert task is not live_shared[task_id]

    def test_in_graph_aliasing_matches_the_live_graph(self, checkpointed):
        live, image = checkpointed
        live_refs = sorted(refs for _task, refs in reachable(live, Task).values())
        image_refs = sorted(refs for _task, refs in reachable(image, Task).values())
        assert live_refs[-1] >= 2  # some task is referenced twice
        assert image_refs == live_refs


def assert_live_objects(live, image, kinds):
    """Every object of each kind in ``image`` is one of ``live``'s, and
    the two graphs reach the same ones."""
    live_found, image_found = reachable(live, kinds), reachable(image, kinds)
    for kind in kinds:
        shared = objects(image_found, kind)
        assert shared, f"no {kind.__name__} in the checkpoint"
        assert shared.keys() == objects(live_found, kind).keys()


class TestSharing:
    def test_photos_and_cameras_are_the_live_objects(self, checkpointed):
        assert_live_objects(*checkpointed, (Photo, RecoveredCamera))

    def test_geometry_and_telemetry_are_the_live_objects(self, checkpointed):
        assert_live_objects(*checkpointed, (Venue, FeatureWorld, Tracer, Counter))

    def test_no_task_is_shared(self, checkpointed):
        live, image = checkpointed
        copied = objects(reachable(image, Task), Task)
        assert copied
        assert not copied.keys() & objects(reachable(live, Task), Task).keys()

    def test_task_locations_and_artificial_positions_are_the_live_objects(
        self, checkpointed
    ):
        live, image = checkpointed
        live_tasks = {t.task_id: t for t in objects(reachable(live, Task), Task).values()}
        image_tasks = objects(reachable(image, Task), Task).values()
        assert image_tasks
        for task in image_tasks:
            assert task.location is live_tasks[task.task_id].location
        live_positions = live["_pipeline"].sfm._artificial_positions
        image_positions = image["_pipeline"].sfm._artificial_positions
        assert image_positions and image_positions is not live_positions
        assert image_positions.keys() == live_positions.keys()
        for fid, position in image_positions.items():
            assert position is live_positions[fid]

    def test_cached_wedges_are_the_live_objects(self, checkpointed):
        assert_live_objects(*checkpointed, (_CameraEntry,))

    def test_cached_wedge_arrays_are_read_only(self, checkpointed):
        _live, image = checkpointed
        entries = objects(reachable(image, _CameraEntry), _CameraEntry)
        for entry in entries.values():
            for array in read_only_arrays(entry):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = array

    def test_checkpoint_holds_no_sor_grid(self, checkpointed):
        live, image = checkpointed
        assert isinstance(live["_pipeline"]._sor._grid, VoxelGrid)  # noqa: SLF001
        assert not reachable(image, VoxelGrid)
        assert image["_pipeline"]._sor._built_n == 0  # noqa: SLF001

    def test_shared_arrays_are_read_only(self, checkpointed):
        _live, image = checkpointed
        found = reachable(image, (Photo, RecoveredCamera))
        for obj, _refs in found.values():
            for array in read_only_arrays(obj):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = array

    def test_a_camera_freezes_the_array_it_is_given(self):
        observed = np.array([3, 1, 2])
        RecoveredCamera(
            photo_id=1, pose=CameraPose.at(1.0, 1.0, 0.0), intrinsics=GALAXY_S7,
            n_inliers=3, observed_feature_ids=observed,
        )
        assert not observed.flags.writeable


class TestRestoredBackend:
    def test_replayed_batches_reuse_the_live_wedges(self, persisted):
        deployment, outcomes = persisted
        # Restore the oldest retained generation after genesis, so the WAL
        # suffix behind it holds batches to replay.
        generation = [g for g in deployment.host.snapshotter.generations() if g.seq > 0][-1]
        with recorded_outcomes() as replayed:
            RecoveryManager(deployment.host.wal, generation).recover(Simulator())
        live = {o.iteration: o.map_update for o in outcomes}
        assert replayed
        for outcome in replayed:
            expected = live[outcome.iteration]
            assert replace(outcome.map_update, maps=None) == replace(expected, maps=None), (
                f"iteration {outcome.iteration}"
            )
        assert replayed[0].map_update.cameras_reused > 0

    def test_photos_replayed_from_the_wal_are_read_only(self, persisted):
        deployment, _outcomes = persisted
        batches = [r for r in deployment.host.wal.records() if isinstance(r, BatchRecord)]
        photos = [photo for r in batches for photo in pickle.loads(r.photos_blob)]
        assert photos
        for photo in photos:
            for array in read_only_arrays(photo):
                assert not array.flags.writeable
