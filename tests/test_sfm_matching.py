"""Tests for feature matching over the observation table, and for point
clouds and filters."""

import numpy as np
import pytest

from repro.camera import GALAXY_S7, CameraPose
from repro.sfm import ObservationTable, PointCloud, best_seed_pair, sor_filter, sor_mask
from repro.sfm.pointcloud import CloudPoint


def take(bench, x, y, yaw=0.0):
    return bench.capture.take_photo(CameraPose.at(x, y, yaw), GALAXY_S7, blur=0.0)


def table_of(photos):
    """An observation table keyed by raw feature id, photos in list order."""
    table = ObservationTable()
    table.add([p.photo_id for p in photos], [p.feature_ids for p in photos])
    return table


class TestMatchIndex:
    """Two photos match on the world features they both observe."""

    def test_match_count_same_pose_high(self, bench):
        a = take(bench, 10.0, 1.7, -1.57)
        b = take(bench, 10.05, 1.7, -1.57)
        assert len(a.feature_id_set() & b.feature_id_set()) > 30

    def test_match_count_opposite_views_low(self, bench):
        a = take(bench, 10.0, 1.7, -1.57)
        b = take(bench, 10.0, 1.7, 1.57)
        assert len(a.feature_id_set() & b.feature_id_set()) < 10

    def test_index_add_remove(self, bench):
        # Rows are added once; a photo leaves the pending observers when
        # it leaves ``pending``, and the table itself never shrinks.
        a = take(bench, 10.0, 1.7, -1.57)
        table = table_of([a])
        assert len(table) == a.n_features
        features = np.unique(a.feature_ids)
        dirty = set()
        assert table.dirty_observers(features, {a.photo_id}, dirty) == 1
        assert dirty == {a.photo_id}
        assert table.dirty_observers(features, set(), set()) == 0
        assert len(table) == a.n_features

    def test_best_seed_pair(self, bench):
        a = take(bench, 10.0, 1.7, -1.57)
        b = take(bench, 10.05, 1.7, -1.57)
        c = take(bench, 18.8, 4.7, 1.57)  # unrelated view
        table = table_of([a, b, c])
        seed = best_seed_pair(table, {a.photo_id, b.photo_id, c.photo_id}, min_matches=20)
        assert seed is not None
        assert {seed[0], seed[1]} == {a.photo_id, b.photo_id}
        assert seed[2] == len(a.feature_id_set() & b.feature_id_set())

    def test_best_seed_pair_none_when_sparse(self, bench):
        a = take(bench, 10.0, 1.7, -1.57)
        c = take(bench, 18.8, 4.7, 1.57)
        table = table_of([a, c])
        assert best_seed_pair(table, {a.photo_id, c.photo_id}, min_matches=30) is None

    def test_best_seed_pair_counts_pending_photos_only(self, bench):
        a = take(bench, 10.0, 1.7, -1.57)
        b = take(bench, 10.05, 1.7, -1.57)
        table = table_of([a, b])
        assert best_seed_pair(table, {a.photo_id}, min_matches=1) is None

    def test_observers_view(self, bench):
        a = take(bench, 10.0, 1.7, -1.57)
        table = table_of([a])
        fid = int(a.feature_ids[0])
        assert a.photo_id in table.observers(np.array([fid])).tolist()
        # Unknown features have no observers.
        assert table.observers(np.array([-1])).shape == (0,)


def make_cloud(points):
    return PointCloud(
        [CloudPoint(feature_id=i, x=x, y=y, z=z, n_views=3) for i, (x, y, z) in enumerate(points)]
    )


class TestPointCloud:
    def test_masks(self):
        cloud = PointCloud(
            [
                CloudPoint(1, 0, 0, 0, 3),
                CloudPoint(10_000_005, 1, 1, 1, 3),
                CloudPoint(20_000_001, 2, 2, 2, 3),
            ]
        )
        assert cloud.artificial_mask.tolist() == [False, True, False]
        assert cloud.reflection_mask.tolist() == [False, False, True]
        assert len(cloud.without_reflections()) == 2

    def test_subset_and_merge(self):
        cloud = make_cloud([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        sub = cloud.subset(np.array([True, False, True]))
        assert len(sub) == 2
        merged = sub.merged_with(cloud)
        assert len(merged) == 3

    def test_bbox(self):
        cloud = make_cloud([(0, 0, 0), (2, 4, 1)])
        assert cloud.bounding_box_2d() == (0, 0, 2, 4)
        assert PointCloud.empty().bounding_box_2d() is None

    def test_subset_bad_mask(self):
        from repro.errors import ReconstructionError

        with pytest.raises(ReconstructionError):
            make_cloud([(0, 0, 0)]).subset(np.array([True, False]))


class TestSorFilter:
    def test_outlier_removed(self):
        rng = np.random.default_rng(0)
        inliers = rng.normal(0.0, 0.2, size=(200, 3))
        outlier = np.array([[50.0, 50.0, 50.0]])
        xyz = np.vstack([inliers, outlier])
        mask = sor_mask(xyz, n_neighbors=8, std_ratio=2.0)
        assert not mask[-1]
        assert mask[:-1].mean() > 0.9

    def test_small_cloud_untouched(self):
        xyz = np.zeros((3, 3))
        assert sor_mask(xyz).all()

    def test_filter_preserves_type(self):
        cloud = make_cloud([(0, 0, 0)] * 30 + [(99, 99, 99)])
        filtered = sor_filter(cloud)
        assert isinstance(filtered, PointCloud)
        assert len(filtered) < len(cloud)

    def test_empty_cloud(self):
        assert len(sor_filter(PointCloud.empty())) == 0

    def test_bad_shape(self):
        from repro.errors import ReconstructionError

        with pytest.raises(ReconstructionError):
            sor_mask(np.zeros((5, 2)))
