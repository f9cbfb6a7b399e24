"""Tests for SegmentSoup visibility (incl. heights) and ray marching."""

import numpy as np
import pytest

from repro.geometry import Segment, SegmentSoup, Vec2, ray_march_cells


def soup_of(*pairs, heights=None):
    segments = [Segment(Vec2(*a), Vec2(*b)) for a, b in pairs]
    return SegmentSoup(segments, heights=heights)


class TestVisibility:
    def test_empty_soup_everything_visible(self):
        soup = SegmentSoup([])
        mask = soup.visible(Vec2(0, 0), np.array([[1.0, 1.0], [5.0, 5.0]]))
        assert mask.all()

    def test_wall_blocks(self):
        soup = soup_of(((1, -1), (1, 1)))
        mask = soup.visible(Vec2(0, 0), np.array([[2.0, 0.0], [0.5, 0.0]]))
        assert not mask[0]  # behind the wall
        assert mask[1]  # in front of the wall

    def test_target_on_surface_not_self_occluded(self):
        soup = soup_of(((1, -1), (1, 1)))
        mask = soup.visible(Vec2(0, 0), np.array([[1.0, 0.0]]), target_margin=5e-3)
        assert mask[0]

    def test_ray_past_segment_end(self):
        soup = soup_of(((1, 1), (1, 2)))
        mask = soup.visible(Vec2(0, 0), np.array([[2.0, 0.0]]))
        assert mask[0]

    def test_height_aware_sees_over_low_table(self):
        # Table top at 0.75 m; camera at 1.5 m looking at a target at 1.4 m.
        soup = soup_of(((1, -1), (1, 1)), heights=[(0.0, 0.75)])
        targets = np.array([[2.0, 0.0]])
        over = soup.visible(
            Vec2(0, 0), targets, origin_z=1.5, target_z=np.array([1.4])
        )
        assert over[0]
        # A floor-level target just behind the table is hidden (the sight
        # line crosses the table plane at ~0.33 m, below the 0.75 m top).
        under = soup.visible(
            Vec2(0, 0), np.array([[1.2, 0.0]]), origin_z=1.5, target_z=np.array([0.1])
        )
        assert not under[0]

    def test_full_height_wall_blocks_at_any_height(self):
        soup = soup_of(((1, -1), (1, 1)), heights=[(0.0, 2.7)])
        mask = soup.visible(
            Vec2(0, 0), np.array([[2.0, 0.0]]), origin_z=1.5, target_z=np.array([2.0])
        )
        assert not mask[0]

    def test_without_heights_blocks_regardless(self):
        soup = soup_of(((1, -1), (1, 1)))
        mask = soup.visible(
            Vec2(0, 0), np.array([[2.0, 0.0]]), origin_z=1.5, target_z=np.array([9.0])
        )
        # No heights -> infinite extent -> blocked.
        assert not mask[0]

    def test_bad_targets_shape(self):
        from repro.errors import GeometryError

        soup = soup_of(((1, -1), (1, 1)))
        with pytest.raises(GeometryError):
            soup.visible(Vec2(0, 0), np.zeros((3, 3)))


class TestFirstHit:
    """``first_hits`` with one-row batches, plus one multi-ray batch."""

    @staticmethod
    def one_ray(soup, direction, max_range):
        hits = soup.first_hits(Vec2(0, 0), np.array([direction.normalized().as_tuple()]), max_range)
        assert hits.shape == (1,)
        return hits[0]

    def test_hits_closest(self):
        soup = soup_of(((1, -1), (1, 1)), ((2, -1), (2, 1)))
        assert self.one_ray(soup, Vec2(1, 0), 10.0) == pytest.approx(1.0)

    def test_miss_is_inf(self):
        soup = soup_of(((1, 1), (2, 1)))
        assert self.one_ray(soup, Vec2(1, 0), 10.0) == np.inf

    def test_range_limit(self):
        soup = soup_of(((5, -1), (5, 1)))
        assert self.one_ray(soup, Vec2(1, 0), 2.0) == np.inf

    def test_empty_soup_misses(self):
        assert self.one_ray(SegmentSoup([]), Vec2(1, 0), 10.0) == np.inf

    def test_one_distance_per_ray(self):
        soup = soup_of(((1, -1), (1, 1)), ((-1, -3), (1, -3)))
        directions = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [-1.0, 0.0]])
        hits = soup.first_hits(Vec2(0, 0), directions, 10.0)
        assert hits.tolist() == [1.0, 3.0, np.inf, np.inf]

    def test_bad_directions_shape(self):
        from repro.errors import GeometryError

        with pytest.raises(GeometryError):
            soup_of(((1, -1), (1, 1))).first_hits(Vec2(0, 0), np.zeros(2), 10.0)


class TestRayMarchCells:
    def test_horizontal(self):
        cells = ray_march_cells((0, 0), (0, 3))
        assert cells == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_diagonal(self):
        cells = ray_march_cells((0, 0), (2, 2))
        assert cells[0] == (0, 0)
        assert cells[-1] == (2, 2)

    def test_single_cell(self):
        assert ray_march_cells((1, 1), (1, 1)) == [(1, 1)]

    def test_endpoints_always_included(self):
        for target in [(5, 2), (-3, 7), (0, -4)]:
            cells = ray_march_cells((0, 0), target)
            assert cells[0] == (0, 0)
            assert cells[-1] == target
