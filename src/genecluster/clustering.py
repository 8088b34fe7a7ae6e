"""K-Means clustering with deterministic distance-sorted seeding.

Genes are points, conditions are coordinates.  Seeding is either uniform
sampling of data points or the deterministic scheme: shift the data
non-negative if needed, sort by distance from the origin, cut the sorted
sequence into k near-equal runs and take each run's middle point.  The
exact mode is classic Lloyd; the shortcut mode is the approximate variant
that lets a point keep its label when it moved closer to its own updated
centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MODES = ("exact", "shortcut")
# centroid seeding schemes, dispatched on by cluster_pipeline
STRATEGIES = ("ecia", "random")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Points to cluster; ids name the points (genes)."""

    point_ids: tuple
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point_ids", tuple(self.point_ids))
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] != len(self.point_ids):
            raise ValidationError("points must be 2-d with one row per point id")
        if pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValidationError("dataset must have at least one point and one coordinate")
        if len(set(self.point_ids)) != len(self.point_ids):
            raise ValidationError("point ids must be unique")
        if not np.isfinite(pts).all():
            raise ValidationError("points must be finite (no missing entries)")

    @classmethod
    def from_matrix(cls, m):
        return cls(m.gene_ids, m.values)

    @property
    def n_points(self):
        return len(self.point_ids)

    @property
    def n_dims(self):
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class Centroids:
    """Initial or final cluster centers plus how they were produced."""

    vectors: np.ndarray
    provenance: str

    def __post_init__(self):
        vec = np.array(self.vectors, dtype=float)
        vec.setflags(write=False)
        object.__setattr__(self, "vectors", vec)
        if vec.ndim != 2 or vec.shape[0] == 0:
            raise ValidationError("centroids must be a non-empty 2-d array")

    @property
    def k(self):
        return self.vectors.shape[0]


@dataclass(frozen=True)
class IterationStats:
    """Per-pass audit record; iteration 0 is the initial assignment."""

    iteration: int
    wcss: float
    label_changes: int
    shortcut_kept: int
    # shortcut mode only: (dist to own new centroid, stored nearest, kept) per point
    shortcut_audit: tuple | None


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    labels: np.ndarray
    nearest_dist: np.ndarray
    centroids: Centroids
    iterations: int
    converged: bool
    wcss: float
    history: tuple

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        nearest = np.array(self.nearest_dist, dtype=float)
        nearest.setflags(write=False)
        object.__setattr__(self, "nearest_dist", nearest)

    @property
    def k(self):
        return self.centroids.k

    @property
    def sizes(self):
        return np.bincount(self.labels, minlength=self.k)


def _check_k(k, n):
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be between 1 and the point count {n}")


def random_initialize(d, k, seed):
    """k distinct data points drawn without replacement, reproducible by seed."""
    _check_k(k, d.n_points)
    rng = np.random.default_rng(seed)
    idx = rng.choice(d.n_points, size=k, replace=False)
    return Centroids(d.points[idx], f"random(seed={seed})")


def ecia_initialize(d, k):
    """Deterministic seeding by sorted distance from the origin.

    If any coordinate is negative the global minimum value is subtracted
    from every coordinate first, so distances are taken in a non-negative
    frame.  Points are stably sorted by that distance (ties keep input
    order), split into k contiguous runs whose sizes differ by at most one
    (the first n mod k runs take the extra point), and each run contributes
    its middle point, in original unshifted coordinates, as a centroid.
    """
    _check_k(k, d.n_points)
    pts = d.points
    gmin = pts.min()
    shifted = pts - gmin if gmin < 0 else pts
    dist = np.sqrt((shifted**2).sum(axis=1))
    order = np.argsort(dist, kind="stable")
    n = d.n_points
    base, extra = divmod(n, k)
    centers = []
    start = 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        run = order[start : start + size]
        centers.append(pts[run[size // 2]])
        start += size
    return Centroids(np.array(centers), "ecia")


# Byte budget of one block of distance temporaries in block_distances (the
# K-Means assignment and the silhouette); tests patch it.
_BLOCK_BYTES = 8 * 2**20


def block_distances(points, others=None):
    """Yield (rows, dist) over row blocks of points, where dist[i, j] is the
    Euclidean distance from points[rows][i] to others[j].

    Without others, the distances are those among points and only the upper
    triangle is measured: the block of rows [lo, hi) gets the columns
    points[lo:], so dist[i, j] is the distance from points[lo + i] to
    points[lo + j].

    Each block's difference array and distances take at most _BLOCK_BYTES
    (a block holds one row even when that row alone exceeds it).  A
    distance is the square root of the sum of one contiguous row of squared
    differences; numpy sums such a row the same way in any block shape, so
    no distance depends on the block size.  Floating-point subtraction is
    exactly antisymmetric, so the distance from x to y has the same bits as
    the distance from y to x.
    """
    dims = points.shape[1]
    widest = len(points) if others is None else len(others)
    # (row, column) pairs per block: as many whole rows of the first, widest
    # block as fit the budget; narrower blocks take more rows, not more pairs
    pairs = max(1, _BLOCK_BYTES // (widest * (dims + 1) * 8)) * widest
    # one difference buffer for every block: arrays of a new size per block
    # would leave holes in the heap and raise the peak resident memory
    buf = np.empty(min(pairs, len(points) * widest) * dims)
    lo = 0
    while lo < len(points):
        cols = points[lo:] if others is None else others
        rows = slice(lo, min(lo + max(1, pairs // len(cols)), len(points)))
        shape = (rows.stop - lo, len(cols), dims)
        diff = buf[: math.prod(shape)].reshape(shape)
        np.subtract(points[rows, None, :], cols[None, :, :], out=diff)
        np.square(diff, out=diff)
        dist = diff.sum(axis=2)
        yield rows, np.sqrt(dist, out=dist)
        lo = rows.stop


def _assign(points, centroids):
    labels = np.empty(len(points), dtype=np.intp)
    nearest = np.empty(len(points))
    for rows, dist in block_distances(points, centroids):
        labels[rows] = dist.argmin(axis=1)  # argmin takes the lowest index on ties
        nearest[rows] = dist.min(axis=1)
    return labels, nearest


def _update(points, labels, centroids):
    new = centroids.copy()
    for j in range(len(centroids)):
        members = labels == j
        if members.any():
            new[j] = points[members].mean(axis=0)
        # an emptied cluster keeps its previous centroid
    return new


def _wcss(points, centroids, labels):
    return float(((points - centroids[labels]) ** 2).sum())


def kmeans(d, init, mode="exact", max_iters=100):
    """Lloyd iteration from the given initial centroids.

    Each iteration recomputes centroids from the current labels (empty
    clusters keep their centroid) and reassigns points; it stops when a
    pass changes no label, or after max_iters.  In shortcut mode a point
    whose distance to its own cluster's new centroid did not grow keeps its
    label without scanning the other centroids; only points that drifted
    away are fully reassigned, which can diverge from exact Lloyd.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode: {mode!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    points = d.points
    centroids = np.array(init.vectors, dtype=float)
    if centroids.shape[1] != d.n_dims:
        raise ValueError(
            f"centroid dimension {centroids.shape[1]} does not match data {d.n_dims}"
        )
    _check_k(len(centroids), d.n_points)
    labels, nearest = _assign(points, centroids)
    history = [
        IterationStats(0, _wcss(points, centroids, labels), len(points), 0, None)
    ]
    iterations = 0
    converged = False
    for it in range(1, max_iters + 1):
        iterations = it
        centroids = _update(points, labels, centroids)
        if mode == "exact":
            new_labels, new_nearest = _assign(points, centroids)
            kept = 0
            audit = None
        else:
            own = np.sqrt(((points - centroids[labels]) ** 2).sum(axis=1))
            keep = own <= nearest
            new_labels = labels.copy()
            new_nearest = nearest.copy()
            new_nearest[keep] = own[keep]
            if not keep.all():
                moved = ~keep
                new_labels[moved], new_nearest[moved] = _assign(
                    points[moved], centroids
                )
            kept = int(keep.sum())
            audit = tuple(
                (float(o), float(prev), bool(kpt))
                for o, prev, kpt in zip(own, nearest, keep)
            )
        changes = int((new_labels != labels).sum())
        labels, nearest = new_labels, new_nearest
        history.append(
            IterationStats(it, _wcss(points, centroids, labels), changes, kept, audit)
        )
        if changes == 0:
            converged = True
            break
    return ClusterAssignment(
        labels=labels,
        nearest_dist=nearest,
        centroids=Centroids(centroids, init.provenance),
        iterations=iterations,
        converged=converged,
        wcss=history[-1].wcss,
        history=tuple(history),
    )


def cluster_pipeline(m, k, strategy="ecia", seed=None, mode="exact", max_iters=100):
    """Cluster the genes of a complete matrix: seed, then run kmeans.

    strategy "ecia" is deterministic and takes no seed; "random" requires one.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy: {strategy!r}")
    d = Dataset.from_matrix(m)
    if strategy == "ecia":
        if seed is not None:
            raise ValueError("seed applies only to the random strategy")
        init = ecia_initialize(d, k)
    else:
        if seed is None:
            raise ValueError("the random strategy requires a seed")
        init = random_initialize(d, k, seed)
    return kmeans(d, init, mode=mode, max_iters=max_iters)
