"""AR navigation to task locations.

"If the participant confirms the task, the mobile client will receive
navigation instructions from the backend server, and will guide the
participant to the destination in an Augmented Reality (AR) mode"
(Sec. III). The simulator plans the walk with A* and applies the
positioning error model at arrival; the walk itself is returned as a
timed trajectory so the client/server layer can simulate travel time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import SimulationError
from ..geometry import Vec2
from ..simkit.rng import RngStream
from ..venue.model import Venue
from .localization import ImageLocalizer
from .pathfinding import PathPlanner

#: Typical indoor walking speed, m/s.
DEFAULT_WALK_SPEED = 1.2


@dataclass(frozen=True)
class NavigationOutcome:
    """Result of navigating one participant to a task location."""

    requested: Vec2
    arrived: Vec2
    path: Tuple[Vec2, ...]
    walk_time_s: float

    @property
    def arrival_error_m(self) -> float:
        return self.requested.distance_to(self.arrived)


class Navigator:
    """Plans walks and applies arrival positioning error."""

    def __init__(
        self,
        venue: Venue,
        planner: PathPlanner,
        localizer: ImageLocalizer,
        rng: RngStream,
        walk_speed_mps: float = DEFAULT_WALK_SPEED,
    ):
        self._venue = venue
        self._planner = planner
        self._localizer = localizer
        self._rng = rng
        self._walk_speed = walk_speed_mps
        self._trip_count = 0

    def navigate(self, start: Vec2, destination: Vec2) -> NavigationOutcome:
        """Walk from ``start`` towards ``destination``.

        The destination may be non-traversable (the task generator may
        place it "inside an actual undiscovered obstacle"); the participant
        then stops as close as possible. Arrival adds the localization
        error, re-projected to traversable space.
        """
        self._trip_count += 1
        target = self._venue.nearest_traversable(destination)
        perturbed = self._localizer.perturb_destination(target, f"trip-{self._trip_count}")
        arrived = self._venue.nearest_traversable(perturbed)

        path = self._planner.plan(start, arrived)
        if path is None:
            raise SimulationError(
                f"no walkable path from {start} to {arrived} in {self._venue.name}"
            )
        walk_time = PathPlanner.path_length(path) / self._walk_speed
        return NavigationOutcome(
            requested=destination,
            arrived=arrived,
            path=tuple(path),
            walk_time_s=walk_time,
        )
