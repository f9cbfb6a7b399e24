"""Tests for configuration validation and paper constants."""

import dataclasses
import math

import pytest

from repro.config import (
    AnnotationConfig,
    CameraConfig,
    FaultConfig,
    GridConfig,
    NetworkConfig,
    ProtocolConfig,
    SfmConfig,
    SnapTaskConfig,
    TaskConfig,
    paper_config,
)
from repro.errors import ConfigError


class TestPaperConstants:
    """The published operating point (quoted sections in config.py)."""

    def test_cell_size_15cm(self, config):
        assert config.grid.cell_size_m == 0.15

    def test_obstacle_threshold_4(self, config):
        assert config.tasks.obstacle_threshold == 4

    def test_covered_view_tolerance_3(self, config):
        assert config.tasks.covered_view_tolerance == 3

    def test_min_area_2_25_m2(self, config):
        assert config.tasks.min_area_size_m2 == 2.25

    def test_tt_equals_2(self, config):
        assert config.tasks.annotation_trigger_attempts == 2

    def test_capture_step_8_degrees(self, config):
        assert config.tasks.capture_step_deg == 8.0

    def test_annotation_photos_t_4(self, config):
        assert config.tasks.annotation_photos_per_task == 4

    def test_bounds_merge_threshold_015(self, config):
        assert config.eval.bounds_merge_threshold_m == 0.15

    def test_photos_per_split_100(self, config):
        assert config.eval.photos_per_split == 100

    def test_positioning_error_1m(self, config):
        assert config.nav.positioning_error_m == 1.0

    def test_min_views_3(self, config):
        assert config.sfm.min_views_per_point == 3

    def test_workers_15(self, config):
        assert config.annotation.workers_per_task == 15

    def test_min_area_cells_at_15cm(self, config):
        assert config.min_area_cells == 100


class TestValidation:
    def test_paper_config_valid(self):
        paper_config().validate()

    def test_bad_cell_size(self):
        with pytest.raises(ConfigError):
            GridConfig(cell_size_m=0.0).validate()

    def test_bad_min_views(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(SfmConfig(), min_views_per_point=1).validate()

    def test_bad_detection_prob(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(SfmConfig(), base_detection_prob=0.0).validate()

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(
                SfmConfig(), min_feature_range_m=10.0, max_feature_range_m=5.0
            ).validate()
        # A non-positive visibility range would quietly shrink every camera
        # wedge to one cell; a non-finite one cannot bound a wedge at all.
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                dataclasses.replace(SfmConfig(), visibility_range_m=bad).validate()

    def test_bad_fov(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(CameraConfig(), hfov_deg=200.0).validate()

    def test_bad_obstacle_threshold(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(TaskConfig(), obstacle_threshold=0).validate()

    def test_kmeans_must_be_4(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(AnnotationConfig(), kmeans_clusters=3).validate()

    def test_bad_network_bandwidth(self):
        with pytest.raises(ConfigError):
            NetworkConfig(bandwidth_mbps=0.0).validate()
        with pytest.raises(ConfigError):
            NetworkConfig(bandwidth_mbps=-5.0).validate()

    def test_bad_network_latency(self):
        with pytest.raises(ConfigError):
            NetworkConfig(latency_s=-0.1).validate()

    def test_network_validates_nested_faults(self):
        bad = NetworkConfig(faults=FaultConfig(drop_probability=1.5))
        with pytest.raises(ConfigError):
            bad.validate()

    def test_bad_fault_probabilities(self):
        with pytest.raises(ConfigError):
            FaultConfig(drop_probability=-0.1).validate()
        with pytest.raises(ConfigError):
            FaultConfig(duplicate_probability=1.0).validate()
        with pytest.raises(ConfigError):
            FaultConfig(jitter_s=-1.0).validate()

    def test_bad_disconnect_window(self):
        with pytest.raises(ConfigError):
            FaultConfig(disconnect_windows=((10.0, 5.0),)).validate()
        with pytest.raises(ConfigError):
            FaultConfig(disconnect_windows=((-1.0, 5.0),)).validate()

    def test_bad_protocol_config(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(lease_duration_s=0.0).validate()
        with pytest.raises(ConfigError):
            ProtocolConfig(rto_backoff=0.5).validate()
        with pytest.raises(ConfigError):
            ProtocolConfig(max_retries=-1).validate()
        with pytest.raises(ConfigError):
            ProtocolConfig(rto_max_s=1.0, rto_initial_s=2.0).validate()

    def test_protocol_in_top_level_validate(self):
        config = dataclasses.replace(
            paper_config(), protocol=ProtocolConfig(lease_duration_s=-1.0)
        )
        with pytest.raises(ConfigError):
            config.validate()


class TestDerivedValues:
    def test_focal_from_fov(self):
        cam = CameraConfig(hfov_deg=90.0, image_width_px=2000)
        assert cam.focal_length_px == pytest.approx(1000.0)

    def test_hfov_rad(self):
        cam = CameraConfig(hfov_deg=66.0)
        assert cam.hfov_rad == pytest.approx(math.radians(66.0))

    def test_with_cell_size(self):
        cfg = paper_config().with_cell_size(0.30)
        assert cfg.grid.cell_size_m == 0.30
        assert cfg.min_area_cells == 25  # 2.25 / 0.09

    def test_with_seed(self):
        assert paper_config().with_seed(99).seed == 99
