"""Incremental SfM reconstruction (simulated).

This engine reproduces the *behavioural contract* of an incremental SfM
pipeline such as OpenMVG, which is what every SnapTask algorithm depends
on:

* photos register into the model only when they share enough matched
  features with already-registered photos (chained registration — a batch
  with no visual overlap with the model stays unregistered, the paper's
  "the new photos were not added to a model" branch);
* a 3-D point appears only once >= 3 registered photos observe the same
  feature ("SfM pipeline that we use needs at least 3 observations of a
  same point to reconstruct it");
* triangulated positions and recovered camera poses carry noise that grows
  with viewing distance;
* previously-unregistrable photos are retried whenever new photos register
  (models "can be updated by adding additional photos").

Triangulation uses the simulator's feature-position oracle plus calibrated
noise rather than multi-view geometry on pixel coordinates — the
substitution documented in DESIGN.md.

The engine is columnar (DESIGN.md §"Columnar SfM core"): it interns each
photo's feature ids into a dense index when the photo arrives
(``repro.sfm.columnar``), records every observation once in an
:class:`~repro.sfm.columnar.ObservationTable`, evaluates the registration
test as a vectorized gather + bitmask intersect, re-tests only pending
photos whose features gained new view-mask bits since their last test
(the registration *wavefront*), triangulates from a dirty-feature queue,
and snapshots the cloud O(delta) from an append-only column store.

Pose/point noise comes from *keyed* RNG children (``pose-<photo>``,
``point-<fid>``), and a point's sigma sums its observers' distances in
ascending photo id, so registration order never perturbs the draws. The
original O(model)-per-batch engine survives as the test oracle
:class:`repro.sfm.scratch.ScratchSfm`; the differential suite
(tests/test_sfm_equivalence.py) pins the two bit-identical on clouds,
reports and registration order.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..camera.photo import Photo
from ..camera.pose import CameraPose
from ..config import SfmConfig
from ..errors import ReconstructionError, VenueError
from ..geometry import Vec2, Vec3
from ..obs import MetricsRegistry, Telemetry
from ..simkit.rng import RngStream
from ..venue.features import ARTIFICIAL_FEATURE_BASE, REFLECTION_FEATURE_BASE, FeatureWorld
from .columnar import FeatureColumns, ObservationTable, PointColumnStore, best_seed_pair
from .model import RecoveredCamera, SfmModel
from .pointcloud import PointCloud


@dataclass(frozen=True)
class RegistrationReport:
    """Outcome of one ``add_photos`` call.

    ``new_point_ids`` / ``new_camera_ids`` are the *deltas* of this call —
    what the incremental map-maintenance engine consumes instead of
    re-deriving the whole model state (see DESIGN.md §5, "incremental map
    maintenance").
    """

    batch_size: int
    newly_registered: int
    still_pending: int
    new_points: int
    total_points: int
    total_cameras: int
    new_point_ids: Tuple[int, ...] = ()
    new_camera_ids: Tuple[int, ...] = ()

    @property
    def any_registered(self) -> bool:
        return self.newly_registered > 0


class IncrementalSfm:
    """Stateful incremental reconstruction over a stream of photo batches."""

    def __init__(
        self,
        world: FeatureWorld,
        config: SfmConfig,
        rng: RngStream,
        telemetry: Optional[Telemetry] = None,
    ):
        self._world = world
        self._config = config
        self._rng = rng
        metrics = telemetry.metrics if telemetry is not None else MetricsRegistry()
        # Per-photo/per-point distributions (DESIGN.md "Observability").
        self._m_registered = metrics.counter("repro.sfm.photos_registered")
        self._m_points_new = metrics.counter("repro.sfm.points_triangulated")
        self._h_overlap = metrics.histogram(
            "repro.sfm.registration_overlap", base=1.0, growth=2.0
        )
        self._h_point_views = metrics.histogram(
            "repro.sfm.point_views", base=1.0, growth=2.0
        )
        self._h_batch_registered = metrics.histogram(
            "repro.sfm.batch_registered", base=1.0, growth=2.0
        )
        # Wavefront/candidate counters.
        self._m_wave_rounds = metrics.counter("repro.sfm.wavefront.rounds")
        self._m_wave_candidates = metrics.counter("repro.sfm.wavefront.candidates")
        self._m_wave_skipped = metrics.counter("repro.sfm.wavefront.skipped")
        self._m_wave_dirtied = metrics.counter("repro.sfm.wavefront.photos_dirtied")
        self._m_tri_dirty = metrics.counter("repro.sfm.triangulation.dirty_features")

        # Every photo is pending (in arrival order) until it registers.
        self._pending: Dict[int, Photo] = {}
        self._registered: Dict[int, RecoveredCamera] = {}
        # Every observation of every photo, added when the photo arrives.
        self._obs = ObservationTable()
        # Append-only columnar point store.
        self._store = PointColumnStore()
        # Oracle positions for artificial-texture features (Algorithm 6).
        self._artificial_positions: Dict[int, Vec3] = {}
        # Dense per-feature state + per-photo (dense idx, or-bits,
        # compat-select) columns, cached by photo id until it registers.
        self._cols = FeatureColumns(self._resolve_features)
        self._photo_cols: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Texture block of each pending photo the rig fallback has seen
        # (a pure function of the photo), dropped when it registers.
        self._blocks: Dict[int, Optional[int]] = {}
        # Wavefront state: pending photos whose registration test could
        # have changed since they were last tested.
        self._dirty_pending: Set[int] = set()
        # Triangulation dirty queue: dense feature indices whose observer
        # sets grew (or whose oracle position appeared) since last check.
        self._dirty_features: List[np.ndarray] = []
        # Registration order (photo ids, in the order _register ran).
        self._registration_log: List[int] = []
        # Per-add_photos camera delta (reset each call).
        self._new_camera_ids: List[int] = []
        # The last snapshot: the next one shares its sorted cameras.
        self._snapshot = SfmModel.empty()

        n_buckets = self._config.view_compat_buckets
        spread = self._config.view_compat_spread
        self._full_mask = (1 << n_buckets) - 1
        # Per bucket: the mask of buckets within ``spread`` of it.
        compat = []
        for b in range(n_buckets):
            mask = 0
            for d in range(-spread, spread + 1):
                mask |= 1 << ((b + d) % n_buckets)
            compat.append(mask)
        self._compat_arr = np.asarray(compat, dtype=np.int64)

    # -- public state ----------------------------------------------------------

    @property
    def config(self) -> SfmConfig:
        return self._config

    @property
    def n_registered(self) -> int:
        return len(self._registered)

    @property
    def n_points(self) -> int:
        return len(self._store)

    def is_registered(self, photo_id: int) -> bool:
        return photo_id in self._registered

    def registered_ids(self) -> List[int]:
        return sorted(self._registered)

    def registration_log(self) -> Tuple[int, ...]:
        """Photo ids in the exact order they registered (all batches)."""
        return tuple(self._registration_log)

    def pending_ids(self) -> List[int]:
        return sorted(self._pending)

    def register_artificial_features(
        self, ids: Iterable[int], positions: Iterable[Vec3]
    ) -> None:
        """Teach the engine the 3-D positions of imprinted texture features.

        Algorithm 6 creates features that exist only on modified images; the
        engine needs their world positions to triangulate them. Positions
        come from the annotation pipeline's plane fit, so annotation error
        propagates into the reconstructed glass surfaces.
        """
        touched: List[int] = []
        for fid, pos in zip(ids, positions):
            if fid < ARTIFICIAL_FEATURE_BASE:
                raise ReconstructionError(
                    f"feature {fid} is not in the artificial id space"
                )
            fid = int(fid)
            self._artificial_positions[fid] = pos
            # A feature that already had >= min_views observers but no
            # oracle position becomes triangulatable *now*; requeue it so
            # the dirty-feature path re-checks without a new observer.
            dense = self._cols.index_of(fid)
            if dense is not None:
                touched.append(dense)
        if touched:
            self._dirty_features.append(np.asarray(touched, dtype=np.int64))

    # -- reconstruction ----------------------------------------------------------

    def add_photos(self, photos: Iterable[Photo]) -> RegistrationReport:
        """Register a new batch, retrying older pending photos as well."""
        batch = list(photos)
        for photo in batch:
            pid = photo.photo_id
            if pid in self._pending or pid in self._registered:
                raise ReconstructionError(f"photo {pid} already added")
            self._pending[pid] = photo
            self._dirty_pending.add(pid)
        self._obs.add(
            [photo.photo_id for photo in batch],
            [self._photo_columns(photo)[0] for photo in batch],
        )

        points_start = self._store.n
        self._new_camera_ids = []
        newly_registered = self._run_registration()
        new_point_ids = tuple(sorted(int(f) for f in self._store.ids_slice(points_start)))
        new_camera_ids = tuple(sorted(self._new_camera_ids))
        self._m_registered.inc(newly_registered)
        self._h_batch_registered.record(newly_registered)
        return RegistrationReport(
            batch_size=len(batch),
            newly_registered=newly_registered,
            still_pending=len(self._pending),
            new_points=len(new_point_ids),
            total_points=self._store.n,
            total_cameras=len(self._registered),
            new_point_ids=new_point_ids,
            new_camera_ids=new_camera_ids,
        )

    def model(self) -> SfmModel:
        """Snapshot of the current reconstruction.

        O(delta): the store's frozen sorted columns are shared with the
        returned cloud (copy-on-write), the cameras registered since the
        last snapshot are merged into its sorted ones, and the snapshot
        answers ``cameras_observing`` from the live observation table.
        """
        ids, xyz, views = self._store.sorted_columns()
        cloud = PointCloud.from_columns(ids, xyz, views)
        # Cameras register once each, in log order.
        new = self._registration_log[self._snapshot.n_cameras:]
        self._snapshot = self._snapshot.grown(
            cloud,
            [self._registered[pid] for pid in new],
            (self._obs, self._cols.index),
        )
        return self._snapshot

    # -- internals ---------------------------------------------------------------

    def _run_registration(self) -> int:
        """Drive registration to a fixpoint; returns #newly registered."""
        registered_count = 0
        if not self._registered:
            registered_count += self._bootstrap()
        progress = True
        while progress:
            progress = False
            registrable: List[Photo] = []
            for photo in self._candidates():
                overlap = self._compatible_overlap(photo)
                if self._registrable(photo, overlap):
                    registrable.append(photo)
                    self._h_overlap.record(overlap)
            for photo in sorted(registrable, key=lambda p: p.photo_id):
                self._register(photo)
                registered_count += 1
                progress = True
            if not progress:
                rig_registered = self._register_rigs()
                registered_count += rig_registered
                progress = rig_registered > 0
        made = self._store.n
        self._triangulate()
        # One histogram pass over the view counts of this call's new points.
        self._h_point_views.record_counts(self._store.views_since(made))
        return registered_count

    def _candidates(self) -> List[Photo]:
        """The pending photos to re-test this round: the wavefront.

        A pending photo is re-tested only when some feature it observes
        gained a new view-mask bit since the photo's last test. View masks
        only ever *gain* bits, so a photo skipped this round would produce
        exactly the same (non-registrable) overlap as its last test —
        skipping is behaviour-preserving, which the differential suite
        pins against the full-rescan oracle. Every candidate is tested
        now, so each stays clean until :meth:`_add_views` dirties it.
        """
        candidate_ids = sorted(self._dirty_pending)
        self._dirty_pending.clear()
        self._m_wave_rounds.inc()
        self._m_wave_candidates.inc(len(candidate_ids))
        self._m_wave_skipped.inc(len(self._pending) - len(candidate_ids))
        return [self._pending[pid] for pid in candidate_ids]

    def _register_rigs(self) -> int:
        """Rig fallback for texture-sharing photo groups (Algorithm 6).

        Photos carrying the same imprinted texture are rigidly related by
        hundreds of texture correspondences; jointly they register when
        their combined world-feature matches reach the (small) rig anchor
        threshold, even if no single photo clears the solo threshold.
        """
        rigs = defaultdict(list)
        blocks = self._blocks
        for pid, photo in self._pending.items():
            if pid not in blocks:
                blocks[pid] = self._texture_block(photo)
            if blocks[pid] is not None:
                rigs[blocks[pid]].append(photo)
        registered = 0
        for _block, photos in sorted(rigs.items()):
            if len(photos) < 2:
                continue
            if self._rig_anchors(photos) >= self._config.min_rig_anchor_matches:
                for photo in sorted(photos, key=lambda p: p.photo_id):
                    self._register(photo)
                    registered += 1
        return registered

    def _texture_block(self, photo: Photo) -> Optional[int]:
        """Imprinted texture block ``photo`` carries enough matches of, if any."""
        from ..annotation.textures import FEATURES_PER_TEXTURE

        wild = self._cols.wildcard[self._photo_columns(photo)[0]]
        if int(np.count_nonzero(wild)) < self._config.rig_texture_matches:
            return None
        first = int(photo.feature_ids[int(np.argmax(wild))])
        return (first - ARTIFICIAL_FEATURE_BASE) // FEATURES_PER_TEXTURE

    def _rig_anchors(self, photos: List[Photo]) -> int:
        """Distinct world features of a rig that the model already observes."""
        chunks = []
        for photo in photos:
            fidx = self._photo_columns(photo)[0]
            fids = photo.feature_ids
            anchored = (fids < ARTIFICIAL_FEATURE_BASE) & (self._cols.obs_count[fidx] > 0)
            chunks.append(fids[anchored])
        return int(np.unique(np.concatenate(chunks)).shape[0])

    def _resolve_features(self, fids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Intern-time classification for :class:`FeatureColumns`.

        Artificial-texture ids are wildcards (viewpoint-insensitive, no
        stable position); everything else — world features and mirrored
        reflections — resolves to its oracle position, gathered from the
        world's position column in one pass. World ids ascend, so
        ``searchsorted`` finds each row; an id the world lacks raises.
        """
        wildcard = (fids >= ARTIFICIAL_FEATURE_BASE) & (fids < REFLECTION_FEATURE_BASE)
        world_ids = self._world.ids
        rows = np.minimum(np.searchsorted(world_ids, fids), world_ids.shape[0] - 1)
        unknown = ~wildcard & (world_ids[rows] != fids)
        if unknown.any():
            raise VenueError(f"no world feature with id {int(fids[unknown][0])}")
        xyz = np.where(wildcard[:, None], 0.0, self._world.positions[rows])
        return xyz, wildcard

    def _photo_columns(self, photo: Photo) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dense idx, or-bits, compat-select) for one photo, cached.

        Wildcard observations set and select every bucket; the others set
        their own bucket's bit and select the buckets compatible with it.
        """
        pid = photo.photo_id
        cached = self._photo_cols.get(pid)
        if cached is not None:
            return cached
        fidx = self._cols.intern_many(photo.feature_ids)
        wild, raw = self._view_buckets(photo, fidx)
        bits = np.where(wild, self._full_mask, np.int64(1) << raw)
        sel = np.where(wild, self._full_mask, self._compat_arr[raw])
        cached = self._photo_cols[pid] = (fidx, bits, sel)
        return cached

    def _view_buckets(self, photo: Photo, fidx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(wildcard flag, angular bucket) of each observation of ``photo``.

        The bucket is that of the camera as seen from the observed
        feature, the original scalar formula applied elementwise:
        ``int((atan2(cy - fy, cx - fx) + pi) / (2 pi) * n) % n``; the
        vectorized arctan2/truncation is bit-identical to ``math.atan2`` +
        ``int()`` on the same floats (pinned by
        tests/test_sfm_equivalence.py). Wildcard observations
        (artificial-texture matches) are viewpoint-insensitive — the
        imprinted pattern is identical in every photo of the set — and
        their bucket is meaningless.
        """
        n_buckets = self._config.view_compat_buckets
        wild = self._cols.wildcard[fidx]
        cx = photo.true_pose.position.x
        cy = photo.true_pose.position.y
        dx = np.where(wild, 1.0, cx - self._cols.xyz[fidx, 0])
        dy = np.where(wild, 0.0, cy - self._cols.xyz[fidx, 1])
        angle = np.arctan2(dy, dx)
        raw = ((angle + np.pi) / (2.0 * np.pi) * n_buckets).astype(np.int64) % n_buckets
        return wild, raw

    def _compatible_overlap(self, photo: Photo) -> int:
        """Matches against the model restricted to compatible viewpoints.

        A real pipeline cannot match descriptors across wide baselines: a
        feature only matches if some registered photo observed it from a
        nearby direction. One gather + bitmask intersect over the photo's
        dense feature indices (a zero view mask means the feature is
        unknown to the model, so ``mask & sel`` is zero for exactly the
        observations a per-feature dict loop would skip).
        """
        fidx, _bits, sel = self._photo_columns(photo)
        masks = self._cols.view_mask[fidx]
        return int(np.count_nonzero(masks & sel))

    def _registrable(self, photo: Photo, overlap: int) -> bool:
        """Registration test: enough absolute matches, or a feature-poor
        photo whose matches are nearly all of its detections."""
        if overlap >= self._config.min_registration_matches:
            return True
        if photo.n_features == 0:
            return False
        ratio = overlap / photo.n_features
        return (
            overlap >= self._config.min_ratio_matches
            and ratio >= self._config.registration_inlier_ratio
        )

    def _bootstrap(self) -> int:
        """Seed the model from the strongest pending photo pair."""
        seed = best_seed_pair(self._obs, self._pending, self._config.min_pair_matches)
        if seed is None:
            return 0
        id_a, id_b, _matches = seed
        self._register(self._pending[id_a])
        self._register(self._pending[id_b])
        return 2

    def _register(self, photo: Photo) -> None:
        pid = photo.photo_id
        del self._pending[pid]
        self._dirty_pending.discard(pid)
        pose = self._recover_pose(photo)
        self._registered[pid] = RecoveredCamera(
            photo_id=pid,
            pose=pose,
            intrinsics=photo.exif.intrinsics(),
            n_inliers=photo.n_features,
            observed_feature_ids=photo.feature_ids,  # read-only, shared
        )
        self._registration_log.append(pid)
        self._new_camera_ids.append(pid)
        self._add_views(photo)
        # Only pending photos' columns and blocks are read again.
        self._photo_cols.pop(pid, None)
        self._blocks.pop(pid, None)

    def _add_views(self, photo: Photo) -> None:
        """A registered photo's view bits join the model: vectorized mask
        update, triangulation queue, and wavefront propagation to the
        pending photos that observe a feature which gained a bit."""
        fidx, bits, _sel = self._photo_columns(photo)
        cols = self._cols
        old = cols.view_mask[fidx].copy()
        np.bitwise_or.at(cols.view_mask, fidx, bits)
        np.add.at(cols.obs_count, fidx, 1)
        self._dirty_features.append(fidx)
        gained = fidx[cols.view_mask[fidx] != old]
        if gained.shape[0]:
            self._m_wave_dirtied.inc(
                self._obs.dirty_observers(np.unique(gained), self._pending, self._dirty_pending)
            )

    def _recover_pose(self, photo: Photo) -> CameraPose:
        """True pose + calibrated recovery noise (bundle-adjustment error)."""
        rng = self._rng.child(f"pose-{photo.photo_id}")
        true = photo.true_pose
        offset = Vec2(
            rng.normal(0.0, self._config.camera_pose_noise_m),
            rng.normal(0.0, self._config.camera_pose_noise_m),
        )
        yaw = true.yaw_rad + math.radians(
            rng.normal(0.0, self._config.camera_yaw_noise_deg)
        )
        return CameraPose(true.position + offset, yaw, true.height_m)

    def _triangulate(self) -> None:
        """Create points for features with enough registered observations.

        Only features whose observer set grew (or whose oracle position
        was registered) since the last fixpoint are checked; each ready
        feature's registered observers come from the observation table.
        """
        min_views = self._config.min_views_per_point
        if not self._dirty_features:
            return
        dirty = np.unique(np.concatenate(self._dirty_features))
        self._dirty_features.clear()
        self._m_tri_dirty.inc(int(dirty.shape[0]))
        cols = self._cols
        ready = dirty[(~cols.has_point[dirty]) & (cols.obs_count[dirty] >= min_views)]
        lo, hi = self._obs.spans(ready)
        photos, registered = self._obs.photos, self._registered
        for dense, start, stop in zip(ready.tolist(), lo.tolist(), hi.tolist()):
            observers = {pid for pid in photos[start:stop].tolist() if pid in registered}
            self._make_point(int(cols.ids[dense]), dense, observers)

    def _make_point(self, fid: int, dense: int, observers: Set[int]) -> None:
        """Triangulate ``fid`` from its registered ``observers``: the oracle
        position plus ``point-<fid>`` noise whose sigma grows with the mean
        floor distance to the observers. The distances are summed left to
        right in ascending photo id, so no container order (a set's moves
        under copying) can change the last bit."""
        if fid >= ARTIFICIAL_FEATURE_BASE:
            position = self._artificial_positions.get(fid)
            if position is None:
                return  # artificial feature whose oracle position is not known yet
            x, y, z = position.x, position.y, position.z
        else:
            x, y, z = self._cols.xyz[dense].tolist()
        target = Vec2(x, y)
        registered = self._registered
        mean_dist = sum(
            registered[pid].pose.position.distance_to(target) for pid in sorted(observers)
        ) / len(observers)
        sigma = self._config.point_noise_sigma_m + self._config.point_noise_range_gain * mean_dist
        rng = self._rng.child(f"point-{fid}")
        self._m_points_new.inc()
        self._store.append(
            fid,
            x + rng.normal(0.0, sigma),
            y + rng.normal(0.0, sigma),
            z + rng.normal(0.0, sigma),
            len(observers),
        )
        self._cols.has_point[dense] = True
