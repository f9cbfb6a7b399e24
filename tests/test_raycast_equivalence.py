"""Exact equivalence of the pruned occlusion raycast and the dense one.

``SegmentSoup.visible`` evaluates only the (target, segment) pairs that can
intersect. The dense broadcast it replaced, which tests every target
against every segment, is kept below as the oracle. Every comparison is
exact (``np.array_equal``): over edge-case geometry drawn by hypothesis,
and over every ``visible`` call of a ``deploy-ref`` campaign, replayed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import paper_config
from repro.eval import Workbench
from repro.geometry import Segment, SegmentSoup, Vec2
from repro.geometry import rays as rays_module
from repro.server import Deployment

_EPS = 1e-9


def dense_visible(soup, origin, targets, target_margin=1e-6, origin_z=None, target_z=None):
    """Every target against every segment, as one (N, M) broadcast."""
    targets = np.asarray(targets, dtype=float)
    n_targets = targets.shape[0]
    if n_targets == 0:
        return np.zeros(0, dtype=bool)
    segs = soup.segments
    if not segs:
        return np.ones(n_targets, dtype=bool)
    ax = np.array([s.a.x for s in segs], dtype=float)
    ay = np.array([s.a.y for s in segs], dtype=float)
    sdx = np.array([s.b.x - s.a.x for s in segs], dtype=float)
    sdy = np.array([s.b.y - s.a.y for s in segs], dtype=float)

    ox, oy = origin.x, origin.y
    rx = targets[:, 0] - ox
    ry = targets[:, 1] - oy
    denom = rx[:, None] * sdy[None, :] - ry[:, None] * sdx[None, :]
    qpx = ax[None, :] - ox
    qpy = ay[None, :] - oy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qpx * sdy[None, :] - qpy * sdx[None, :]) / denom
        u = (qpx * ry[:, None] - qpy * rx[:, None]) / denom

    dist = np.hypot(rx, ry)
    t_max = np.where(dist > 0, 1.0 - np.maximum(target_margin / np.maximum(dist, _EPS), _EPS), 0.0)
    hits = (
        (np.abs(denom) > _EPS)
        & (t > _EPS)
        & (t < t_max[:, None])
        & (u >= -_EPS)
        & (u <= 1.0 + _EPS)
    )
    if origin_z is not None and target_z is not None:
        target_z = np.asarray(target_z, dtype=float)
        with np.errstate(invalid="ignore"):
            z_at = origin_z + (target_z[:, None] - origin_z) * t
        in_extent = (z_at >= soup._base_z[None, :]) & (z_at <= soup._top_z[None, :])
        hits &= in_extent
    return ~hits.any(axis=1)


def evaluated_pairs(soup, origin, targets):
    """How many (target, segment) pairs ``visible`` evaluates."""
    targets = np.asarray(targets, dtype=float)
    rx = targets[:, 0] - origin.x
    ry = targets[:, 1] - origin.y
    tgt, _seg = soup._pairs(
        soup._ax - origin.x, soup._ay - origin.y, rx, ry, np.hypot(rx, ry)
    )
    return tgt.shape[0]


def soup_scaled(soup, factor):
    return SegmentSoup([Segment(s.a * factor, s.b * factor) for s in soup.segments])


def assert_same_mask(soup, origin, targets, **kwargs):
    got = soup.visible(origin, targets, **kwargs)
    want = dense_visible(soup, origin, targets, **kwargs)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    return got


# -- edge-case geometry -------------------------------------------------------

coords = st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False)
spans = st.floats(0.01, 15.0, allow_nan=False, allow_infinity=False)
angles = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)
#: Perpendicular offsets of a segment from the origin: through it, within
#: millimetres of it, and either side of the prune radius.
offsets = st.sampled_from(
    [
        0.0,
        1e-12,
        1e-9,
        1e-6,
        1e-3,
        5e-3,
        rays_module.PRUNE_RADIUS_M - 1e-9,
        rays_module.PRUNE_RADIUS_M,
        rays_module.PRUNE_RADIUS_M + 1e-9,
        rays_module.PRUNE_RADIUS_M + 1e-3,
        1.0,
    ]
)


@st.composite
def segment_near(draw, origin):
    """A segment through, next to, along or away from rays from ``origin``."""
    kind = draw(st.sampled_from(["free", "offset", "radial"]))
    if kind == "free":
        a = Vec2(draw(coords), draw(coords))
        return Segment(a, a + Vec2.from_angle(draw(angles), draw(spans)))
    heading = draw(angles)
    along = Vec2.from_angle(heading)
    if kind == "radial":
        # Collinear with the rays from the origin at this heading.
        near = draw(spans)
        return Segment(origin + along * near, origin + along * (near + draw(spans)))
    # Perpendicular to the heading, at ``offset`` from the origin.
    side = Vec2(-along.y, along.x)
    foot = origin + along * draw(offsets)
    return Segment(foot + side * -draw(spans), foot + side * draw(spans))


@st.composite
def target_near(draw, origin, segments):
    kinds = ["free", "origin", "seam"]
    if segments:
        kinds += ["endpoint", "on", "beyond", "grazing"]
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        return (draw(coords), draw(coords))
    if kind == "origin":
        return (origin.x, origin.y)
    if kind == "seam":
        # Due west of the origin, a hair either side of the +-pi seam.
        lateral = draw(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1e-6, -1e-6, 0.03, -0.03]))
        return (origin.x - draw(spans), origin.y + lateral)
    seg = segments[draw(st.integers(0, len(segments) - 1))]
    if kind == "grazing":
        # Behind a point a hair past one end, where the hit test's u-range
        # (widened by 1e-9) still counts a crossing just outside the span.
        u = draw(st.sampled_from([-2e-9, -1e-9, -5e-10, -1e-12, 0.0, 1.0, 1.0 + 5e-10, 1.0 + 1e-9]))
        p = seg.a + (seg.b - seg.a) * u
        p = origin + (p - origin) * draw(st.sampled_from([1.01, 1.5, 3.0]))
    elif kind == "endpoint":
        p = seg.a if draw(st.booleans()) else seg.b
    elif kind == "on":
        p = seg.a + (seg.b - seg.a) * draw(st.floats(0.0, 1.0))
    else:
        # On the segment's line past one end: collinear with the segment.
        p = seg.a + (seg.b - seg.a) * draw(st.sampled_from([-0.5, -1e-9, 1.0 + 1e-9, 1.5, 3.0]))
    return (p.x, p.y)


@st.composite
def scenes(draw):
    origin = Vec2(draw(coords), draw(coords))
    segments = draw(st.lists(segment_near(origin), min_size=0, max_size=8))
    targets = draw(st.lists(target_near(origin, segments), min_size=0, max_size=24))
    heights = None
    if segments and draw(st.booleans()):
        heights = [
            sorted((draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)))) for _ in segments
        ]
    return origin, segments, heights, np.array(targets, dtype=float).reshape(-1, 2)


class TestEdgeCaseGeometry:
    @settings(deadline=None, max_examples=400, derandomize=True)
    @given(scenes(), st.sampled_from([1e-6, 5e-3]), st.floats(0.0, 3.0))
    def test_pruned_mask_equals_dense(self, scene, margin, origin_z):
        origin, segments, heights, targets = scene
        soup = SegmentSoup(segments, heights=heights)
        assert_same_mask(soup, origin, targets, target_margin=margin)
        if heights is not None:
            target_z = np.linspace(0.0, 3.0, targets.shape[0])
            assert_same_mask(
                soup, origin, targets, target_margin=margin,
                origin_z=origin_z, target_z=target_z,
            )

    def test_empty_soup_and_no_targets(self):
        assert_same_mask(SegmentSoup([]), Vec2(1.0, 2.0), np.array([[3.0, 4.0], [1.0, 2.0]]))
        soup = SegmentSoup([Segment(Vec2(0.0, -1.0), Vec2(0.0, 1.0))])
        assert soup.visible(Vec2(-1.0, 0.0), np.zeros((0, 2))).shape == (0,)

    def test_wall_across_the_seam_blocks_both_sides(self):
        # A wall due west crosses the +-pi bearing seam.
        soup = SegmentSoup([Segment(Vec2(-2.0, -1.0), Vec2(-2.0, 1.0))])
        targets = np.array([[-3.0, 0.5], [-3.0, -0.5], [-3.0, 0.0], [-3.0, -0.0]])
        mask = assert_same_mask(soup, Vec2(0.0, 0.0), targets)
        assert not mask.any()

    def test_collinear_rays_and_zero_distance_targets(self):
        soup = SegmentSoup([Segment(Vec2(1.0, 0.0), Vec2(3.0, 0.0))])
        targets = np.array([[4.0, 0.0], [2.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert_same_mask(soup, Vec2(0.0, 0.0), targets)
        assert_same_mask(soup, Vec2(0.0, 0.0), targets, target_margin=5e-3)

    def test_kilometre_sight_lines_evaluate_every_pair(self):
        # At kilometre scale the error bound exceeds its budget: no pair is pruned.
        soup = SegmentSoup(
            [Segment(Vec2(3000.0, -50.0), Vec2(3000.0, 50.0)),
             Segment(Vec2(-2000.0, 500.0), Vec2(-1900.0, 500.0))]
        )
        targets = np.array([[4000.0, 0.0], [-4000.0, 10.0], [3500.0, 3500.0]])
        assert_same_mask(soup, Vec2(0.0, 0.0), targets)
        assert evaluated_pairs(soup, Vec2(0.0, 0.0), targets) == 6
        # The same scene shrunk a thousandfold prunes.
        assert_same_mask(soup_scaled(soup, 1e-3), Vec2(0.0, 0.0), targets * 1e-3)
        assert evaluated_pairs(soup_scaled(soup, 1e-3), Vec2(0.0, 0.0), targets * 1e-3) < 6

    def test_non_finite_targets_evaluate_every_pair(self):
        soup = SegmentSoup([Segment(Vec2(1.0, -1.0), Vec2(1.0, 1.0))])
        targets = np.array([[2.0, 0.0], [np.nan, 0.0], [np.inf, 1.0]])
        assert_same_mask(soup, Vec2(0.0, 0.0), targets)
        assert evaluated_pairs(soup, Vec2(0.0, 0.0), targets) == 3


# -- recorded campaign --------------------------------------------------------


@pytest.fixture(scope="module")
def deploy_ref_calls():
    """Every ``visible`` call of a deploy-ref campaign, with its inputs."""
    calls = []
    real = SegmentSoup.visible

    def recording(soup, origin, targets, target_margin=1e-6, origin_z=None, target_z=None):
        mask = real(soup, origin, targets, target_margin, origin_z, target_z)
        calls.append(
            (soup, origin, np.array(targets, dtype=float), target_margin, origin_z,
             None if target_z is None else np.array(target_z, dtype=float), mask)
        )
        return mask

    mp = pytest.MonkeyPatch()
    mp.setattr(SegmentSoup, "visible", recording)
    try:
        bench = Workbench.for_library(paper_config(seed=2018))
        Deployment(bench, n_clients=2).run(until_s=2000.0)
    finally:
        mp.undo()
    return calls


class TestRecordedCampaign:
    def test_every_deploy_ref_call_matches_the_dense_oracle(self, deploy_ref_calls):
        assert len(deploy_ref_calls) > 50
        pairs = dense_pairs = 0
        for soup, origin, targets, margin, origin_z, target_z, mask in deploy_ref_calls:
            want = dense_visible(soup, origin, targets, margin, origin_z, target_z)
            assert np.array_equal(mask, want)
            pairs += evaluated_pairs(soup, origin, targets)
            dense_pairs += targets.shape[0] * len(soup)
        # The prune is active: most pairs are never evaluated.
        assert pairs < 0.5 * dense_pairs
