"""The experiment workbench: one object wiring every substrate together.

Experiments, examples and the benchmark harness all need the same setup:
a venue, its feature world, ground truth on a shared grid spec, a capture
simulator, a path planner and seeded RNG streams. :class:`Workbench`
builds all of it deterministically from a :class:`SnapTaskConfig`.
"""

from __future__ import annotations

from typing import Optional

from ..annotation.tool import AnnotationCampaign
from ..camera.capture import CaptureSimulator
from ..config import SnapTaskConfig, paper_config
from ..core.pipeline import SnapTaskPipeline
from ..crowd.guided import GuidedCampaign
from ..crowd.mobility import HotspotMobility
from ..crowd.opportunistic import OpportunisticCollector
from ..crowd.participants import guided_participants
from ..crowd.participatory import UnguidedCollector
from ..mapping.grid import GridSpec
from ..nav.localization import ImageLocalizer
from ..nav.navigation import Navigator
from ..nav.pathfinding import PathPlanner
from ..simkit.rng import RngRegistry
from ..venue.features import FeatureWorld, build_feature_world
from ..venue.ground_truth import GroundTruth, build_ground_truth, default_grid_spec
from ..venue.library import build_library
from ..venue.model import Venue


class Workbench:
    """Deterministic bundle of substrates for one venue + config."""

    def __init__(self, venue: Venue, config: Optional[SnapTaskConfig] = None):
        self.config = (config or paper_config()).validate()
        self.venue = venue
        self.rng = RngRegistry(self.config.seed)
        self.spec: GridSpec = default_grid_spec(venue, self.config.grid.cell_size_m)
        self.ground_truth: GroundTruth = build_ground_truth(venue, self.spec)
        self.world: FeatureWorld = build_feature_world(venue, self.rng.stream("world"))
        self.capture = CaptureSimulator(
            self.world,
            self.config.sfm,
            self.config.camera,
            self.rng.stream("capture"),
        )
        self.planner = PathPlanner(self.spec, self.ground_truth.traversable_mask)
        self._pipeline_counter = 0

    # -- factories ---------------------------------------------------------------

    @staticmethod
    def for_library(config: Optional[SnapTaskConfig] = None) -> "Workbench":
        """The paper's evaluation venue."""
        return Workbench(build_library(), config)

    def with_backend(
        self,
        sfm_workers: Optional[int] = None,
        queue_limit: Optional[int] = None,
    ) -> "Workbench":
        """A fresh workbench on the same venue with a different SfM lane.

        ``sfm_workers=None`` is the infinite-server model; a bounded pool
        (optionally with a bounded admission queue) makes the backend's
        processing capacity explicit. Everything else — venue, seeds,
        ground truth — is rebuilt identically, so sweeps over the lane
        shape are apples-to-apples.
        """
        return Workbench(
            self.venue,
            self.config.with_backend(
                sfm_workers=sfm_workers, queue_limit=queue_limit
            ),
        )

    def make_pipeline(self, telemetry=None) -> SnapTaskPipeline:
        """A fresh SnapTask backend pipeline for this venue."""
        self._pipeline_counter += 1
        return SnapTaskPipeline(
            self.world,
            self.config,
            self.spec,
            self.venue.entrance,
            self.rng.stream(f"pipeline-{self._pipeline_counter}"),
            site_mask=self.ground_truth.region_mask,
            telemetry=telemetry,
        )

    def make_navigator(self, name: str = "nav") -> Navigator:
        localizer = ImageLocalizer(self.config.nav, self.rng.stream(f"{name}-loc"))
        return Navigator(self.venue, self.planner, localizer, self.rng.stream(name))

    def make_mobility(self, name: str = "mobility") -> HotspotMobility:
        return HotspotMobility(self.venue, self.planner, self.rng.stream(name))

    def make_guided_campaign(
        self, pipeline: SnapTaskPipeline, n_participants: int = 10
    ) -> GuidedCampaign:
        annotation = AnnotationCampaign(
            self.venue, self.capture, self.config, self.rng.stream("annotation")
        )
        return GuidedCampaign(
            venue=self.venue,
            capture=self.capture,
            pipeline=pipeline,
            navigator=self.make_navigator("guided-nav"),
            annotation=annotation,
            participants=guided_participants(
                n_participants, self.rng.stream("guided-participants")
            ),
            rng=self.rng.stream("guided"),
        )

    def make_opportunistic_collector(self) -> OpportunisticCollector:
        # The paper's sharpest-frame window is 30 frames of ~25 fps video;
        # the simulator samples frames at 5 Hz, so the equivalent window is
        # a fifth of that (1.2 s either way).
        window = max(1, self.config.eval.video_sharpness_window // 5)
        return OpportunisticCollector(
            self.venue,
            self.capture,
            self.make_mobility("opportunistic-mobility"),
            self.rng.stream("opportunistic"),
            window=window,
        )

    def make_unguided_collector(self) -> UnguidedCollector:
        return UnguidedCollector(
            self.venue,
            self.capture,
            self.rng.stream("unguided"),
            blur_filter_threshold=self.config.tasks.low_quality_laplacian,
        )
