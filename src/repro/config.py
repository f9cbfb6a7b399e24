"""Central configuration for the SnapTask reproduction.

Every constant the paper names is collected here with its published value,
so each experiment can cite a single source of truth and the ablation
benchmarks can sweep around the paper's operating point.

Paper references are given as (section, quote) pairs in the field docs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .errors import ConfigError


@dataclass(frozen=True)
class GridConfig:
    """Discretisation of the venue into map cells.

    The paper (Sec. IV): "a matrix cell size is 15 cm ... The size can be
    adjusted depending on a venue size and a required granularity -
    typically between 10cm and 50cm."
    """

    cell_size_m: float = 0.15

    def validate(self) -> None:
        if not 0.01 <= self.cell_size_m <= 1.0:
            raise ConfigError(
                f"cell_size_m={self.cell_size_m} outside sane range [0.01, 1.0]"
            )


@dataclass(frozen=True)
class SfmConfig:
    """Behaviour of the incremental SfM simulator.

    ``min_views_per_point`` mirrors the paper's COVERED_VIEW_TOLERANCE
    rationale: "SfM pipeline that we use needs at least 3 observations of a
    same point to reconstruct it in 3D space."
    """

    min_views_per_point: int = 3
    min_pair_matches: int = 40
    min_registration_matches: int = 35
    # Ratio fallback: feature-poor photos still register when nearly all
    # of their (few) features match the model — P3P needs only a handful
    # of consistent 2D-3D correspondences.
    min_ratio_matches: int = 12
    registration_inlier_ratio: float = 0.6
    # Rig registration: photos sharing an imprinted texture form a rigid
    # multi-camera rig (hundreds of mutual matches); anchoring the rig
    # needs only this many combined world matches across its photos.
    rig_texture_matches: int = 30
    min_rig_anchor_matches: int = 15
    # Viewpoint-compatible matching: descriptors only match between views
    # within this angular difference of the surface (wide-baseline feature
    # matching fails in real pipelines).
    view_compat_buckets: int = 8
    view_compat_spread: int = 1
    max_feature_range_m: float = 9.0
    min_feature_range_m: float = 0.3
    visibility_range_m: float = 5.0
    max_incidence_deg: float = 78.0
    base_detection_prob: float = 0.92
    range_falloff: float = 0.05
    point_noise_sigma_m: float = 0.03
    point_noise_range_gain: float = 0.006
    camera_pose_noise_m: float = 0.05
    camera_yaw_noise_deg: float = 0.8
    sor_neighbors: int = 8
    sor_std_ratio: float = 2.0
    # Backlight: indoor photos dominated by bright glass/windows lose
    # contrast; feature detection drops as glass fills the frame.
    backlight_strength: float = 0.95

    def validate(self) -> None:
        if self.min_views_per_point < 2:
            raise ConfigError("SfM needs at least 2 views to triangulate")
        if not 0.0 < self.base_detection_prob <= 1.0:
            raise ConfigError("base_detection_prob must be in (0, 1]")
        if self.min_feature_range_m >= self.max_feature_range_m:
            raise ConfigError("min_feature_range_m must be < max_feature_range_m")
        if not 0.0 < self.visibility_range_m < math.inf:  # NaN fails too
            raise ConfigError("visibility_range_m must be finite and positive")


@dataclass(frozen=True)
class CameraConfig:
    """Smartphone camera model used by all capture simulators."""

    hfov_deg: float = 66.0
    image_width_px: int = 4032
    image_height_px: int = 3024
    height_m: float = 1.5
    patch_size_px: int = 24

    @property
    def hfov_rad(self) -> float:
        return math.radians(self.hfov_deg)

    @property
    def focal_length_px(self) -> float:
        """Pin-hole focal length implied by the horizontal FOV."""
        return (self.image_width_px / 2.0) / math.tan(self.hfov_rad / 2.0)

    def validate(self) -> None:
        if not 10.0 <= self.hfov_deg <= 170.0:
            raise ConfigError(f"hfov_deg={self.hfov_deg} is not a camera FOV")
        if self.image_width_px <= 0 or self.image_height_px <= 0:
            raise ConfigError("image dimensions must be positive")


@dataclass(frozen=True)
class TaskConfig:
    """Task generation constants from Algorithm 1 / 4 (Sec. IV)."""

    obstacle_threshold: int = 4
    covered_view_tolerance: int = 3
    min_area_size_m2: float = 2.25
    # findUnvisited grows a region up to this multiple of MIN_AREA_SIZE
    # before placing the task at its centre; larger values place tasks
    # deeper inside unknown territory (fewer, bigger steps).
    area_expansion_factor: int = 8
    max_tasks: int = 1
    annotation_trigger_attempts: int = 2  # "TT = 2"
    # A failing location is annotated up to this many times before the
    # backend writes its area off as unmappable.
    max_annotations_per_location: int = 2
    # "coverage > C" with tolerance: growth below this many cells (~0.6 m^2)
    # is map jitter, not progress, and counts as a failed attempt.
    min_growth_cells: int = 25
    # "did not contribute in growing the 3D model": a batch must also add
    # at least this many new 3-D points to count as progress.
    min_new_points: int = 60
    low_quality_laplacian: float = 0.45
    capture_step_deg: float = 8.0
    # "The phone simultaneously sends the captured images to a cloud
    # server": a 360-degree capture streams up in sub-batches, each
    # processed by Algorithm 1 on arrival. Stalls therefore surface within
    # a single task rather than across repeated tasks.
    upload_subbatch: int = 45
    annotation_photos_per_task: int = 4  # "we set T = 4"

    def validate(self) -> None:
        if self.obstacle_threshold < 1:
            raise ConfigError("obstacle_threshold must be >= 1")
        if self.covered_view_tolerance < 1:
            raise ConfigError("covered_view_tolerance must be >= 1")
        if self.min_area_size_m2 <= 0:
            raise ConfigError("min_area_size_m2 must be positive")
        if not 1.0 <= self.capture_step_deg <= 120.0:
            raise ConfigError("capture_step_deg outside sane range")


@dataclass(frozen=True)
class AnnotationConfig:
    """Featureless-surface annotation fusion (Algorithms 5 & 6)."""

    workers_per_task: int = 15
    corner_noise_px: float = 45.0
    wrong_object_rate: float = 0.25
    dbscan_center_eps_px: float = 260.0
    dbscan_center_min_samples: int = 3
    dbscan_corner_eps_px: float = 120.0
    dbscan_corner_min_samples: int = 3
    kmeans_clusters: int = 4  # "using 4 clusters for 4 points"
    kmeans_max_iter: int = 60
    texture_feature_spacing_m: float = 0.12

    def validate(self) -> None:
        if self.kmeans_clusters != 4:
            raise ConfigError("Algorithm 5 fuses exactly 4 corner points")
        if self.workers_per_task < 1:
            raise ConfigError("need at least one annotation worker")


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation constants (Sec. V)."""

    bounds_merge_threshold_m: float = 0.15  # "threshold to T = 0.15m"
    photos_per_split: int = 100  # "divided corresponding photo sets into 7 parts"
    video_sharpness_window: int = 30  # "window size of 30"

    def validate(self) -> None:
        if self.bounds_merge_threshold_m <= 0:
            raise ConfigError("bounds_merge_threshold_m must be positive")


@dataclass(frozen=True)
class NavigationConfig:
    """Indoor positioning / AR navigation error model (Sec. V-B3).

    "the user reaches task location using our indoor positioning system
    that has up to 1 meter positioning error."
    """

    positioning_error_m: float = 1.0
    localization_min_matches: int = 12

    def validate(self) -> None:
        if self.positioning_error_m < 0:
            raise ConfigError("positioning_error_m cannot be negative")


@dataclass(frozen=True)
class FaultConfig:
    """Seeded network fault injection (off by default).

    The paper's deployment runs on real phones over real Wi-Fi (Sec. III);
    this models the failure modes that implies: message loss, duplicate
    delivery (retransmission at a lower layer), latency jitter, and
    client radio disconnect windows. All draws come from a named
    :class:`~repro.simkit.rng.RngStream`, so fault patterns are
    reproducible. A default-constructed ``FaultConfig`` is a no-op and
    leaves the channel byte-for-byte identical to the lossless model.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    jitter_s: float = 0.0
    #: Half-open ``(start_s, end_s)`` simulated-time windows during which
    #: the channel is disconnected: messages sent inside a window are lost.
    disconnect_windows: Tuple[Tuple[float, float], ...] = ()
    #: Seeded backend crash schedule: ``(at_s, downtime_s)`` pairs. At
    #: ``at_s`` the backend process dies (in-flight work lost, messages
    #: during downtime dropped) and restarts ``downtime_s`` later by
    #: recovering from its snapshot + WAL. Requires persistence to be
    #: enabled. Deliberately *not* part of :attr:`enabled` — that flag
    #: gates per-link RNG creation and crashes are not a link fault.
    backend_crashes: Tuple[Tuple[float, float], ...] = ()

    @property
    def enabled(self) -> bool:
        """True when any link-fault mechanism can fire."""
        return (
            self.drop_probability > 0.0
            or self.duplicate_probability > 0.0
            or self.jitter_s > 0.0
            or bool(self.disconnect_windows)
        )

    def in_disconnect(self, time_s: float) -> bool:
        """Whether ``time_s`` falls inside a configured disconnect window."""
        return any(start <= time_s < end for start, end in self.disconnect_windows)

    def validate(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigError("drop_probability must be in [0, 1)")
        if not 0.0 <= self.duplicate_probability < 1.0:
            raise ConfigError("duplicate_probability must be in [0, 1)")
        if self.jitter_s < 0:
            raise ConfigError("jitter_s cannot be negative")
        for window in self.disconnect_windows:
            if len(window) != 2 or window[0] < 0 or window[1] <= window[0]:
                raise ConfigError(f"bad disconnect window {window!r}")
        for crash in self.backend_crashes:
            if len(crash) != 2 or crash[0] < 0 or crash[1] <= 0:
                raise ConfigError(f"bad backend crash {crash!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Simulated mobile-client/backend network channel."""

    latency_s: float = 0.05
    bandwidth_mbps: float = 20.0
    photo_size_mb: float = 2.5
    faults: FaultConfig = field(default_factory=FaultConfig)

    def validate(self) -> None:
        if self.latency_s < 0 or self.bandwidth_mbps <= 0:
            raise ConfigError("invalid network parameters")
        self.faults.validate()


@dataclass(frozen=True)
class BackendConfig:
    """The backend's SfM processing lane (bounded workers + admission).

    The paper names SfM compute the system bottleneck (Sec. II-A); this
    section makes the bottleneck explicit instead of modelling it away.
    ``sfm_workers=None`` keeps the legacy *infinite-server* model — every
    uploaded batch gets a dedicated simulated worker — and is byte-for-
    byte identical to the pre-queueing traces. A bounded pool serves
    batches FIFO from an admission queue (completion = queue wait +
    deterministic service time, an M/D/c-style lane), and a bounded
    ``queue_limit`` turns the lane into an admission controller: batches
    arriving past the bound are *shed* with a ``retry_after_s`` hint
    instead of queued.
    """

    #: Parallel SfM workers; ``None`` = infinite (legacy model).
    sfm_workers: Optional[int] = None
    #: Max batches waiting for a worker; ``None`` = unbounded queue.
    #: ``0`` sheds whenever every worker is busy. Requires a bounded pool.
    queue_limit: Optional[int] = None
    #: Lower bound for the ``retry_after_s`` hint on shed uploads.
    retry_after_floor_s: float = 1.0

    def validate(self) -> None:
        if self.sfm_workers is not None and self.sfm_workers < 1:
            raise ConfigError(f"sfm_workers={self.sfm_workers} must be >= 1 or None")
        if self.queue_limit is not None:
            if self.queue_limit < 0:
                raise ConfigError(f"queue_limit={self.queue_limit} cannot be negative")
            if self.sfm_workers is None:
                raise ConfigError(
                    "queue_limit requires a bounded pool (sfm_workers is None)"
                )
        if self.retry_after_floor_s <= 0:
            raise ConfigError("retry_after_floor_s must be positive")


@dataclass(frozen=True)
class ProtocolConfig:
    """Fault-tolerant crowd-protocol parameters (leases + retries).

    Crowd workers abandon assigned tasks at a measurable rate
    (arXiv:1901.09264), so an assignment is a *lease*: if the photos do
    not arrive before ``lease_duration_s`` of simulated time, the backend
    reaps the lease and requeues the task. Clients retransmit un-ACKed
    requests and uploads with exponential backoff. The baseline
    deployment's worst observed assignment-to-completion latency is
    ~122 s, so the default lease leaves generous headroom for retries.
    """

    lease_duration_s: float = 600.0
    rto_initial_s: float = 4.0
    rto_backoff: float = 2.0
    rto_max_s: float = 60.0
    max_retries: int = 8
    #: Idle-client re-poll cadence when the backend has no work yet.
    poll_interval_s: float = 5.0
    #: Seeded uniform jitter added to each poll wait. ``0`` (the default)
    #: keeps polls on the bare cadence — and the event trace unchanged —
    #: but synchronises idle clients into a polling herd; any positive
    #: value decorrelates them deterministically (per-client RNG stream).
    poll_jitter_s: float = 0.0

    def timeout_for(self, attempt: int, floor_s: float = 0.0) -> float:
        """Retransmission timeout for the ``attempt``-th send (0-based).

        ``floor_s`` is a deterministic lower bound covering the expected
        ACK round trip (transfer + server processing); the exponential
        term backs off on top of it, capped at ``rto_max_s``.
        """
        if attempt < 0:
            raise ConfigError(f"attempt must be >= 0, got {attempt}")
        return floor_s + min(self.rto_initial_s * self.rto_backoff ** attempt, self.rto_max_s)

    def validate(self) -> None:
        if self.lease_duration_s <= 0:
            raise ConfigError("lease_duration_s must be positive")
        if self.rto_initial_s <= 0 or self.rto_max_s < self.rto_initial_s:
            raise ConfigError("need 0 < rto_initial_s <= rto_max_s")
        if self.rto_backoff < 1.0:
            raise ConfigError("rto_backoff must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries cannot be negative")
        if self.poll_interval_s <= 0:
            raise ConfigError("poll_interval_s must be positive")
        if self.poll_jitter_s < 0:
            raise ConfigError("poll_jitter_s cannot be negative")


@dataclass(frozen=True)
class PersistConfig:
    """Backend durability: write-ahead log + snapshot checkpointing.

    Off by default — the lossless baseline trace must stay byte-for-byte
    identical. When enabled, every state-mutating handler outcome is
    appended to a WAL at its commit point and the whole backend state is
    checkpointed every ``snapshot_every_batches`` committed photo
    batches (checkpoints are cheap: the SfM model's frozen columns and
    the immutable feature world are structurally shared). Recovery after
    a crash restores the latest snapshot and replays the WAL suffix.
    """

    enabled: bool = False
    #: Checkpoint cadence in committed photo batches. ``1`` snapshots on
    #: every commit (shortest replay, most copying); larger values trade
    #: replay length for checkpoint work.
    snapshot_every_batches: int = 8
    #: Checkpoint generations retained (newest N, plus genesis which is
    #: never pruned). More generations give the recovery ladder deeper
    #: fallback rungs when storage faults damage the newest image(s).
    snapshot_retain: int = 3
    #: Seeded storage damage applied to the durable media at crash
    #: instants (:class:`repro.persist.faults.StorageFaultConfig`);
    #: ``None`` = pristine media (the pre-fault-model behaviour).
    storage_faults: Optional["StorageFaultConfig"] = None

    def validate(self) -> None:
        if self.snapshot_every_batches < 1:
            raise ConfigError("snapshot_every_batches must be >= 1")
        if self.snapshot_retain < 1:
            raise ConfigError("snapshot_retain must be >= 1")
        if self.storage_faults is not None:
            self.storage_faults.validate()


@dataclass(frozen=True)
class SnapTaskConfig:
    """Aggregated configuration for a full SnapTask deployment."""

    grid: GridConfig = field(default_factory=GridConfig)
    sfm: SfmConfig = field(default_factory=SfmConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    tasks: TaskConfig = field(default_factory=TaskConfig)
    annotation: AnnotationConfig = field(default_factory=AnnotationConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    nav: NavigationConfig = field(default_factory=NavigationConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    persist: PersistConfig = field(default_factory=PersistConfig)
    seed: int = 2018

    def validate(self) -> "SnapTaskConfig":
        """Validate every section and return self for chaining."""
        for section in (
            self.grid,
            self.sfm,
            self.camera,
            self.tasks,
            self.annotation,
            self.eval,
            self.nav,
            self.network,
            self.protocol,
            self.backend,
            self.persist,
        ):
            section.validate()
        return self

    def with_cell_size(self, cell_size_m: float) -> "SnapTaskConfig":
        """Return a copy with a different map cell size (ablation helper)."""
        return replace(self, grid=replace(self.grid, cell_size_m=cell_size_m))

    def with_seed(self, seed: int) -> "SnapTaskConfig":
        """Return a copy with a different master RNG seed."""
        return replace(self, seed=seed)

    def with_backend(
        self,
        sfm_workers: Optional[int] = None,
        queue_limit: Optional[int] = None,
        retry_after_floor_s: Optional[float] = None,
    ) -> "SnapTaskConfig":
        """Return a copy with a different SfM processing-lane shape."""
        floor = (
            retry_after_floor_s
            if retry_after_floor_s is not None
            else self.backend.retry_after_floor_s
        )
        return replace(
            self,
            backend=BackendConfig(
                sfm_workers=sfm_workers,
                queue_limit=queue_limit,
                retry_after_floor_s=floor,
            ),
        )

    def with_persistence(
        self,
        snapshot_every_batches: int = 8,
        snapshot_retain: int = 3,
        storage_faults: Optional["StorageFaultConfig"] = None,
    ) -> "SnapTaskConfig":
        """Return a copy with backend durability (WAL + snapshots) on."""
        return replace(
            self,
            persist=PersistConfig(
                enabled=True,
                snapshot_every_batches=snapshot_every_batches,
                snapshot_retain=snapshot_retain,
                storage_faults=storage_faults,
            ),
        )

    @property
    def sfm_workers(self) -> Optional[int]:
        """The backend's SfM worker count (``None`` = infinite-server)."""
        return self.backend.sfm_workers

    @property
    def min_area_cells(self) -> int:
        """MIN_AREA_SIZE expressed in grid cells for the configured cell size."""
        cell_area = self.grid.cell_size_m ** 2
        return max(1, int(round(self.tasks.min_area_size_m2 / cell_area)))


DEFAULT_CONFIG = SnapTaskConfig().validate()


def paper_config(seed: int = 2018) -> SnapTaskConfig:
    """The configuration matching the paper's published operating point."""
    return SnapTaskConfig(seed=seed).validate()
