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

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, bad_id

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
        if fault := bad_id(self.point_ids, "point"):
            raise ValidationError(fault[1])
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
        if not np.isfinite(vec).all():
            raise ValidationError("centroids must be finite")

    @property
    def k(self):
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class IterationStats:
    """Audit record of one pass; its iteration is its index in ClusterAssignment.history."""

    wcss: float
    label_changes: int
    # shortcut mode only: three read-only arrays over the points (distance to
    # the own new centroid, nearest distance stored before the pass, kept)
    shortcut_audit: tuple | None

    @property
    def shortcut_kept(self):
        return 0 if self.shortcut_audit is None else int(self.shortcut_audit[2].sum())


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    labels: np.ndarray
    nearest_dist: np.ndarray
    centroids: Centroids
    history: tuple  # IterationStats of the initial assignment, then of every pass

    def __post_init__(self):
        if not self.history:
            raise ValidationError("history must hold at least the initial assignment")
        labels = np.array(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        nearest = np.array(self.nearest_dist, dtype=float)
        nearest.setflags(write=False)
        object.__setattr__(self, "nearest_dist", nearest)

    @property
    def iterations(self):
        return len(self.history) - 1

    @property
    def converged(self):
        return self.history[-1].label_changes == 0

    @property
    def wcss(self):
        return self.history[-1].wcss

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
    base, extra = divmod(d.n_points, k)
    sizes = base + (np.arange(k) < extra)
    # a run's middle point sits half its size past the run's start
    return Centroids(pts[order[np.cumsum(sizes) - sizes + sizes // 2]], "ecia")


# Byte budget of the distance temporaries in block_distances (the K-Means
# assignment and the silhouette), however wide a row: an eighth for each of
# the two fillers' difference tiles, three quarters for two blocks, as a
# caller still holds the previous block while the next is filled; tests patch it.
_BLOCK_BYTES = 4 * 2**20


def block_distances(points, others=None):
    """Yield (rows, dist) over row blocks of points, where dist[i, j] is the
    Euclidean distance from points[rows][i] to others[j].

    Without others, the distances are those among points and only the upper
    triangle is measured: the block of rows [lo, hi) gets the columns
    points[lo:], so dist[i, j] is the distance from points[lo + i] to
    points[lo + j].  Each row is measured from its own diagonal on, and the
    lower part of the block's diagonal square is copied from the upper part.

    A block holds as many rows as fit 16 bytes per pair in three quarters
    of _BLOCK_BYTES: 8 for its distance and 8 for the previous block's,
    which a caller looping over the blocks still holds while the next one
    is filled (one row at least).  Every block is a new array that shares
    no memory with points, others or an earlier block, so a caller may
    overwrite it.

    Two fillers fill a block, the calling thread and one helper thread,
    filler k taking tiles k, k + 2, ...; numpy releases the GIL inside its
    loops, so the two run at once on two cores.  Each has a difference
    buffer of an eighth of _BLOCK_BYTES (one pair's at least), and a tile
    holds as many (row, column) pairs as the buffer: whole rows, or one
    row in runs of columns when that row alone overflows it.  Without
    others a tile's columns start at its first row's diagonal, so a row
    ends up shorter the later it lies and a tile packs as many of those
    trimmed rows as fit; its later rows also measure the few pairs left of
    their diagonal, which the copy overwrites.  Each filler walks the tile
    bounds by arithmetic and allocates nothing; the calling thread
    allocates both buffers and every block.  The helper runs in a one-worker
    ThreadPoolExecutor, opened only for a block of two tiles or more and
    closed before the lower part is copied and the block is yielded;
    leaving it joins the helper thread, so no thread outlives a block, and
    an error raised in the helper is re-raised through its future.

    A distance is the square root of the sum of one contiguous row of
    squared differences, which numpy sums the same way in any tile or block
    shape, so no distance depends on the budget or on which filler made it.
    Floating-point subtraction is exactly antisymmetric, so the distance
    from x to y has the same bits as the distance from y to x, and a
    copied sum has the bits the pair would have been measured with.
    """
    dims = points.shape[1]
    widest = len(points) if others is None else len(others)
    # (row, column) pairs per block: as many whole rows of the first, widest
    # block as fit their share of the budget; narrower blocks take more
    # rows, not more pairs
    pairs = max(1, _BLOCK_BYTES * 3 // 4 // (widest * 16)) * widest
    # pairs per tile: as many as a filler's eighth holds, at most all of them
    tile = min(max(1, _BLOCK_BYTES // 8 // (dims * 8)), len(points) * widest)
    # one difference buffer per filler for every tile: arrays of a new size
    # per tile would leave holes in the heap and raise the peak resident
    # memory
    bufs = (np.empty(tile * dims), np.empty(tile * dims))
    lo = 0
    while lo < len(points):
        cols = points[lo:] if others is None else others
        rows = slice(lo, min(lo + pairs // len(cols), len(points)))
        dist = np.empty((rows.stop - lo, len(cols)))

        def first_column(t):  # of the tile starting at row t, in the block
            return t - lo if others is None else 0

        def tile_stop(t):  # the row after the tile starting at row t
            return min(t + max(1, tile // (len(cols) - first_column(t))), rows.stop)

        def fill(k):
            t, turn = lo, 0
            while t < rows.stop:
                stop = tile_stop(t)
                if turn == k:
                    a = points[t:stop]
                    for c in range(first_column(t), len(cols), tile):
                        b = cols[c : c + tile]
                        diff = bufs[k][: len(a) * len(b) * dims].reshape(len(a), len(b), dims)
                        np.subtract(a[:, None, :], b[None, :, :], out=diff)
                        np.square(diff, out=diff)
                        np.add.reduce(diff, axis=2, out=dist[t - lo : stop - lo, c : c + len(b)])
                t, turn = stop, 1 - turn

        if tile_stop(lo) < rows.stop:  # the block holds two tiles or more
            _fill_with_helper(fill)
        else:
            fill(0)
        if others is None:  # each row's pairs left of the diagonal, from their mirrors
            for i in range(1, len(dist)):
                dist[i, :i] = dist[:i, i]
        yield rows, np.sqrt(dist, out=dist)
        lo = rows.stop


def _fill_with_helper(fill):
    """Run fill(1) on a helper thread beside fill(0) on this one; leaving the
    executor joins the helper even when fill(0) fails, then result() raises
    what the helper raised."""
    # imported on first use: it brings in logging, which slows the package's
    # import and which a run whose blocks are all one tile never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, "block_distances") as helper:
        helped = helper.submit(fill, 1)
        fill(0)
    helped.result()


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
    pass changes no label, or after max_iters.  Both modes share one pass
    and differ only in which points it rescans.  Exact mode rescans every
    point.  Shortcut mode (the keep-if-not-worse rule of Fahim et al., 2006)
    lets a point whose distance to its own cluster's new centroid did not
    grow keep its label and rescans only the others, which can diverge from
    exact Lloyd; each pass records that test in IterationStats.shortcut_audit.
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
    history = [IterationStats(_wcss(points, centroids, labels), len(points), None)]
    for _ in range(max_iters):
        centroids = _update(points, labels, centroids)
        new_labels, new_nearest = labels.copy(), nearest.copy()
        rescan, audit = slice(None), None  # exact: every point, as a view
        if mode == "shortcut":
            own = np.sqrt(((points - centroids[labels]) ** 2).sum(axis=1))
            keep = own <= nearest
            new_nearest[keep] = own[keep]
            rescan, audit = ~keep, (own, nearest, keep)
            for array in audit:  # nothing writes to the stored nearest after this
                array.setflags(write=False)
        new_labels[rescan], new_nearest[rescan] = _assign(points[rescan], centroids)
        changes = int((new_labels != labels).sum())
        labels, nearest = new_labels, new_nearest
        history.append(IterationStats(_wcss(points, centroids, labels), changes, audit))
        if changes == 0:
            break
    return ClusterAssignment(
        labels=labels,
        nearest_dist=nearest,
        centroids=Centroids(centroids, init.provenance),
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
