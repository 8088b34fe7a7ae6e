"""Silhouette validation of a clustering (Rousseeuw's formulation).

For each point, a is the mean distance to the other members of its own
cluster and b the smallest mean distance to any other cluster; the score is
(b - a) / max(a, b).  A point alone in its cluster scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import block_distances
from .errors import ValidationError, frozen_array


@dataclass(frozen=True)
class SilhouetteReport:
    per_point: tuple  # (point_id, cluster, score)
    per_cluster: tuple  # (cluster, size, mean score), non-empty clusters only
    global_mean: float

    @property
    def compact_cluster(self):
        """Cluster with the highest mean silhouette; max keeps the first, so
        ties go to the lowest index."""
        if not self.per_cluster:
            raise ValidationError("report has no clusters")
        return max(self.per_cluster, key=lambda row: row[2])[0]


def check_labels(labels, n, k):
    """Refuse the labels array unless it gives each of n points an integer
    cluster in 0..k-1."""
    if labels.ndim and len(labels) != n:  # a scalar is refused as not a list below
        raise ValidationError("assignment does not label every point")
    # numpy would truncate a label of 0.7 to 0 and read booleans as 0 and 1
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ValidationError("'labels' must be a list of integers")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"assignment labels must lie in 0..{k - 1}")


def silhouette_scores(d, labels, k):
    """Score every point of dataset d under a labeling into clusters 0..k-1.

    Bad labels are a ValidationError.  With fewer than two non-empty clusters
    no between-cluster distance exists, and the result is None.

    Costs about n**2 * d / 2 arithmetic: the points are sorted stably by
    label, so each cluster is one run of consecutive points, and each pair
    of points is measured once, in the upper-triangle row blocks of
    block_distances.  Filling the blocks is about 95% of the time here, and two threads fill
    each block of several tiles; the sums below run on the calling thread
    alone.  Memory stays within the blocks' byte budget, which holds two
    blocks at once (the one the loop below still holds while the next is
    filled) and the two fillers' difference buffers, plus O(n * (d + k));
    no n x n matrix is formed.  Every point
    carries its running distance sum to each cluster from block to block,
    and every distance is added where it lies in the block.  Each block row
    first adds its distances to the later points into their sums for its
    own cluster.  Then the block's rows finish their own sums: the carry
    goes into the first column of each cluster run, and the run is
    accumulated in place.  Either way a sum adds the members one at a time
    in ascending point order, which fixes every score's bits whatever the
    block size.
    """
    labels = frozen_array(labels, None, "labels")
    check_labels(labels, d.n_points, k)
    sizes = np.bincount(labels, minlength=k)
    occupied = np.flatnonzero(sizes)
    if len(occupied) < 2:
        return None
    # each cluster's members, in ascending point order, form one run of
    # `order`; run_of[i] is the run of the i-th point of `order`
    order = np.argsort(labels, kind="stable")
    counts = sizes[occupied]
    ends = np.cumsum(counts)
    starts = ends - counts
    run_of = np.repeat(np.arange(len(occupied)), counts)
    n = d.n_points
    # sums[c, i]: distance from the i-th point of `order` to the members of
    # the c-th run added so far; starting from zero changes no bits, as
    # 0.0 + x == x for every distance x
    sums = np.zeros((len(occupied), n))
    for rows, dist in block_distances(d.points[order]):
        r0, r1 = rows.start, rows.stop
        # the later points first, as the runs below overwrite the block
        for i, c in enumerate(run_of[rows].tolist()):
            sums[c, r1:] += dist[i, r1 - r0 :]
        for c in np.flatnonzero(ends > r0):  # runs with members from r0 on
            cols = dist[:, max(starts[c], r0) - r0 : ends[c] - r0]
            cols[:, 0] += sums[c, rows]  # x + carry has the bits of carry + x
            sums[c, rows] = np.add.accumulate(cols, axis=1, out=cols)[:, -1]
    # mean distance from every point of `order` to every run
    cluster_mean = sums.T / counts
    own = (np.arange(n), run_of)
    size = counts[run_of]
    # own-cluster mean excludes the point itself, so undo the self term
    with np.errstate(invalid="ignore"):  # 0/0 for a lone point, which scores 0
        a_mean = cluster_mean[own] * size / (size - 1)
    cluster_mean[own] = np.inf
    b_mean = cluster_mean.min(axis=1)
    denom = np.maximum(a_mean, b_mean)
    sorted_scores = np.zeros(n)
    np.divide(b_mean - a_mean, denom, out=sorted_scores, where=(size > 1) & (denom != 0))
    scores = np.empty(n)
    scores[order] = sorted_scores
    per_point = tuple(
        (pid, int(lab), float(s)) for pid, lab, s in zip(d.point_ids, labels, scores)
    )
    # a run lists its cluster's scores in ascending point order, as a mask would
    per_cluster = tuple(
        (int(j), int(count), float(sorted_scores[lo:hi].mean()))
        for j, count, lo, hi in zip(occupied, counts, starts, ends)
    )
    return SilhouetteReport(
        per_point=per_point,
        per_cluster=per_cluster,
        global_mean=float(scores.mean()),
    )
