"""Clustering primitives used by Algorithm 5: DBSCAN and k-means.

The paper fuses noisy crowd annotations with DBSCAN (Ester et al., 1996)
to separate distinct marked objects, k-means (Hartigan & Wong, 1979) to
split an object's points into 4 corner groups, and DBSCAN again to
pinpoint each corner. Both algorithms are implemented here from scratch
in numpy. DBSCAN clusters a handful of marks per call (at most 15 on
the fig10 guided campaign), so its radius queries compare every pair of
points directly; no spatial index pays for itself at that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import AnnotationError
from ..simkit.rng import RngStream

NOISE = -1


def dbscan(points: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Density-based clustering; returns a label per point (-1 = noise).

    Classic DBSCAN: core points have >= ``min_samples`` neighbours within
    ``eps`` (counting themselves); clusters grow from core points through
    density-reachable neighbours.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise AnnotationError("dbscan expects an (N, D) array")
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    if eps <= 0 or min_samples < 1:
        raise AnnotationError("dbscan needs eps > 0 and min_samples >= 1")

    neighbourhoods = neighbourhoods_within(points, eps)
    visited = np.zeros(n, dtype=bool)
    cluster = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        neighbours = neighbourhoods[i]
        if len(neighbours) < min_samples:
            continue  # stays noise unless adopted by a cluster later
        labels[i] = cluster
        seeds = list(neighbours)
        k = 0
        while k < len(seeds):
            j = seeds[k]
            k += 1
            if labels[j] == NOISE:
                labels[j] = cluster  # border point adoption
            if visited[j]:
                continue
            visited[j] = True
            labels[j] = cluster
            j_neighbours = neighbourhoods[j]
            if len(j_neighbours) >= min_samples:
                seeds.extend(j_neighbours)
        cluster += 1
    return labels


def neighbourhoods_within(points: np.ndarray, eps: float) -> List[List[int]]:
    """For each point, the ascending indices of the points within ``eps``
    of it (inclusive, itself included), by comparing every pair.

    Squared distances are summed one axis at a time, ``dx*dx + dy*dy`` in
    2-D: the order in which a kd-tree's Euclidean kernel sums them, so
    pairs exactly ``eps`` apart fall on the same side as in a kd-tree
    radius query.
    """
    d2 = np.zeros((points.shape[0], points.shape[0]))
    for axis in range(points.shape[1]):
        diff = points[:, None, axis] - points[None, :, axis]
        d2 += diff * diff
    return [np.flatnonzero(row <= eps * eps).tolist() for row in d2]


def cluster_centroids(points: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
    """Centroid of every non-noise cluster, ordered by cluster label."""
    points = np.asarray(points, dtype=float)
    centroids: List[np.ndarray] = []
    for label in range(int(labels.max()) + 1 if labels.size else 0):
        members = points[labels == label]
        if members.shape[0]:
            centroids.append(members.mean(axis=0))
    return centroids


def largest_cluster_centroid(
    points: np.ndarray, eps: float, min_samples: int
) -> Optional[np.ndarray]:
    """Centroid of the densest DBSCAN cluster, or None if all noise.

    This is Algorithm 5's corner "pinpointing": outlier corner marks fall
    out as noise and the agreeing majority defines the corner.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] == 0:
        return None
    labels = dbscan(points, eps, min_samples)
    best_label, best_size = None, 0
    for label in range(int(labels.max()) + 1):
        size = int((labels == label).sum())
        if size > best_size:
            best_label, best_size = label, size
    if best_label is None:
        return None
    return points[labels == best_label].mean(axis=0)


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, D)
    labels: np.ndarray  # (N,)
    inertia: float
    iterations: int


def kmeans(
    points: np.ndarray,
    k: int,
    rng: RngStream,
    max_iter: int = 60,
    tol: float = 1e-6,
) -> KMeansResult:
    """Lloyd's k-means with k-means++-style farthest-point seeding."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < k:
        raise AnnotationError(f"kmeans needs at least k={k} points, got {n}")

    centroids = _seed_centroids(points, k, rng)
    labels = np.zeros(n, dtype=int)
    for iteration in range(1, max_iter + 1):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = points[labels == j]
            if members.shape[0]:
                new_centroids[j] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the farthest point.
                far = int(d2.min(axis=1).argmax())
                new_centroids[j] = points[far]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < tol:
            break
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return KMeansResult(centroids=centroids, labels=labels, inertia=inertia, iterations=iteration)


def _seed_centroids(points: np.ndarray, k: int, rng: RngStream) -> np.ndarray:
    """First seed random, then greedily farthest from chosen seeds."""
    n = points.shape[0]
    chosen = [rng.integers(0, n)]
    for _ in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - points[chosen][None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        chosen.append(int(d2.argmax()))
    return points[chosen].astype(float).copy()
