"""Tests for materials, surfaces, the venue model and the library replica."""

import pytest

from repro.errors import VenueError
from repro.geometry import Segment, Vec2
from repro.venue import (
    BRICK,
    GLASS,
    PLASTER,
    POSTER,
    Surface,
    SurfaceKind,
    box_surfaces,
    build_library,
    material_by_name,
    preset_names,
)


class TestMaterials:
    def test_glass_is_featureless_and_transparent(self):
        assert GLASS.featureless
        assert not GLASS.opaque
        assert GLASS.reflective

    def test_brick_is_textured(self):
        assert not BRICK.featureless
        assert BRICK.opaque

    def test_plaster_is_featureless_but_not_empty(self):
        # Real plaster has a few features (outlets, skirting) yet cannot
        # be reconstructed usefully.
        assert PLASTER.featureless
        assert PLASTER.feature_density > 0

    def test_lookup(self):
        assert material_by_name("brick") is BRICK
        with pytest.raises(VenueError):
            material_by_name("vibranium")
        assert "glass" in preset_names()

    def test_negative_density_rejected(self):
        from repro.venue import Material

        with pytest.raises(VenueError):
            Material("bad", feature_density=-1.0)


class TestSurface:
    def make(self, material=BRICK, height=2.7, base_z=0.0):
        return Surface(
            surface_id=1,
            segment=Segment(Vec2(0, 0), Vec2(4, 0)),
            material=material,
            kind=SurfaceKind.OUTER_WALL,
            height=height,
            base_z=base_z,
        )

    def test_area(self):
        assert self.make().area == pytest.approx(4 * 2.7)

    def test_corners_order(self):
        corners = self.make().corners()
        assert corners[0].as_tuple() == (0, 0, 0)
        assert corners[1].as_tuple() == (4, 0, 0)
        assert corners[2].as_tuple() == (4, 0, 2.7)
        assert corners[3].as_tuple() == (0, 0, 2.7)

    def test_point_at(self):
        p = self.make().point_at(0.5, 0.5)
        assert p.as_tuple() == (2.0, 0.0, pytest.approx(1.35))

    def test_bad_height(self):
        with pytest.raises(VenueError):
            self.make(height=0.0)

    def test_facing_point(self):
        surface = self.make()
        front = surface.facing_point(2.0)
        assert front.y == pytest.approx(2.0)

    def test_box_surfaces(self):
        sides = box_surfaces(10, 0, 0, 2, 1, BRICK, height=1.0)
        assert len(sides) == 4
        assert [s.surface_id for s in sides] == [10, 11, 12, 13]
        perimeter = sum(s.segment.length for s in sides)
        assert perimeter == pytest.approx(6.0)
        with pytest.raises(VenueError):
            box_surfaces(0, 1, 1, 1, 2, BRICK, 1.0)


class TestLibrary:
    def test_size_roughly_350(self, library):
        assert 300 <= library.floor_area() <= 380

    def test_two_materials_of_outer_walls(self, library):
        materials = {s.material.name for s in library.outer_wall_surfaces()}
        assert materials == {"brick", "glass"}

    def test_entrance_traversable_and_inside(self, library):
        assert library.is_traversable(library.entrance)

    def test_hotspots_traversable(self, library):
        for hotspot in library.hotspots:
            assert library.is_traversable(hotspot.position), hotspot.label

    def test_annex_hotspot_is_rare(self, library):
        annex = next(h for h in library.hotspots if h.label == "annex-room")
        others = [h.weight for h in library.hotspots if h.label != "annex-room"]
        assert annex.weight < min(others)

    def test_outer_bounds_excludes_entrance(self, library):
        total = library.outer_bounds_length()
        perimeter = library.outer.perimeter()
        assert total < perimeter  # the entrance gap is excluded
        assert perimeter - total == pytest.approx(1.8, abs=0.01)

    def test_glass_walls_are_featureless(self, library):
        featureless = library.featureless_surfaces()
        assert any(s.material.name == "glass" for s in featureless)
        assert any(s.material.name == "plaster" for s in featureless)

    def test_nearest_featureless_surface(self, library):
        surface = library.nearest_featureless_surface(Vec2(0.5, 7.0))
        assert "west-glass" in surface.label

    def test_furniture_blocks_traversal(self, library):
        # Inside a bookshelf row.
        assert not library.is_traversable(Vec2(10.0, 2.2))
        assert library.is_obstructed(Vec2(10.0, 2.2))

    def test_nearest_traversable_escapes_furniture(self, library):
        p = library.nearest_traversable(Vec2(10.0, 2.2))
        assert library.is_traversable(p)
        assert p.distance_to(Vec2(10.0, 2.2)) < 1.5

    def test_surface_lookup_error(self, library):
        with pytest.raises(VenueError):
            library.surface(99999)

    def test_opaque_soup_excludes_glass(self, library):
        n_glass = sum(
            1
            for s in library.surfaces
            if not s.material.opaque and s.kind != SurfaceKind.DECOR
        )
        assert len(library.opaque_soup) == len(
            [s for s in library.surfaces if s.opaque and s.kind != SurfaceKind.DECOR]
        )
        assert n_glass > 0

    def test_describe_mentions_name(self, library):
        assert "aalto-library-replica" in library.describe()

    def test_deterministic_construction(self, library):
        other = build_library()
        assert len(other.surfaces) == len(library.surfaces)
        assert other.outer_bounds_length() == library.outer_bounds_length()


class TestOffice:
    def test_generated_office_is_consistent(self, office):
        assert office.floor_area() > 50
        assert office.is_traversable(office.entrance)
        for hotspot in office.hotspots:
            assert office.is_traversable(hotspot.position)

    def test_office_spec_validation(self):
        from repro.venue import OfficeSpec

        with pytest.raises(VenueError):
            OfficeSpec(width_m=2.0).validate()
        with pytest.raises(VenueError):
            OfficeSpec(glass_walls=7).validate()


class TestFeatureWorld:
    def test_position_is_the_feature_position(self, bench):
        """``position`` reads the columns that ``feature`` builds from,
        for surface and reflection features alike."""
        world = bench.world
        assert world.reflections[-1]
        for fid in world.ids[::97].tolist() + world.ids[-3:].tolist():
            assert world.position(fid) == world.feature(fid).position
        with pytest.raises(VenueError):
            world.position(-1)
        with pytest.raises(VenueError):
            world.feature(10**9)
