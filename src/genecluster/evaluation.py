"""Silhouette validation of a clustering (Rousseeuw's formulation).

For each point, a is the mean distance to the other members of its own
cluster and b the smallest mean distance to any other cluster; the score is
(b - a) / max(a, b).  A point alone in its cluster scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import block_distances
from .errors import ValidationError


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
            raise ValueError("report has no clusters")
        return max(self.per_cluster, key=lambda row: row[2])[0]


def check_labels(labels, n, k):
    """Refuse labels unless they give each of n points a cluster in 0..k-1."""
    if len(labels) != n:
        raise ValidationError("assignment does not label every point")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"assignment labels must lie in 0..{k - 1}")


def silhouette_scores(d, labels, k):
    """Score every point of dataset d under a labeling into clusters 0..k-1.

    Requires at least two non-empty clusters, otherwise no between-cluster
    distance exists and the score is undefined.

    Costs about n**2 * d / 2 arithmetic: the points are sorted stably by
    label, so each cluster is one run of consecutive points, and each pair
    of points is measured once, in the upper-triangle row blocks of
    block_distances (the blocks' diagonal squares are measured both ways).
    Memory stays within its byte budget, which counts the one copy of a
    block that _carried_sum makes, plus O(n * (d + k)); no n x n matrix is
    formed.  Every point carries its running distance sum to each
    cluster from block to block.  A block's rows finish their own sums from
    the carry over the block's columns, and the block's rows add into the
    carry of every later column, one cluster run at a time.  Either way a
    sum adds the members one at a time in ascending point order (a
    sequential np.add.accumulate), which fixes every score's bits whatever
    the block size.
    """
    labels = np.asarray(labels)
    check_labels(labels, d.n_points, k)
    sizes = np.bincount(labels, minlength=k)
    occupied = np.flatnonzero(sizes)
    if len(occupied) < 2:
        raise ValueError("silhouette needs at least two non-empty clusters")
    # each cluster's members, in ascending point order, form one run of `order`
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    runs = [(ends[j] - sizes[j], ends[j]) for j in occupied]
    n = d.n_points
    # sums[c, i]: distance from the i-th point of `order` to the members of
    # the c-th non-empty cluster added so far; starting from zero changes no
    # bits, as 0.0 + x == x for every distance x
    sums = np.zeros((len(occupied), n))
    for rows, dist in block_distances(d.points[order]):
        r0, r1 = rows.start, rows.stop
        for c, (lo, hi) in enumerate(runs):
            if hi > r0:  # members from r0 on: this block's columns
                cols = slice(max(lo, r0) - r0, hi - r0)
                sums[c, rows] = _carried_sum(sums[c, rows], dist[:, cols], axis=1)
            if max(lo, r0) < min(hi, r1) and r1 < n:  # members in this block's rows
                members = slice(max(lo, r0) - r0, min(hi, r1) - r0)
                sums[c, r1:] = _carried_sum(
                    sums[c, r1:], dist[members, r1 - r0 :], axis=0
                )
    # mean distance from every point to every non-empty cluster
    cluster_mean = np.empty((n, len(occupied)))
    cluster_mean[order] = sums.T
    cluster_mean /= sizes[occupied]
    own = (np.arange(n), np.searchsorted(occupied, labels))
    size = sizes[labels]
    # own-cluster mean excludes the point itself, so undo the self term
    with np.errstate(invalid="ignore"):  # 0/0 for a lone point, which scores 0
        a_mean = cluster_mean[own] * size / (size - 1)
    cluster_mean[own] = np.inf
    b_mean = cluster_mean.min(axis=1)
    denom = np.maximum(a_mean, b_mean)
    scores = np.zeros(n)
    np.divide(b_mean - a_mean, denom, out=scores, where=(size > 1) & (denom != 0))
    per_point = tuple(
        (pid, int(lab), float(s)) for pid, lab, s in zip(d.point_ids, labels, scores)
    )
    per_cluster = tuple(
        (int(j), int(sizes[j]), float(scores[labels == j].mean())) for j in occupied
    )
    return SilhouetteReport(
        per_point=per_point,
        per_cluster=per_cluster,
        global_mean=float(scores.mean()),
    )


def _carried_sum(carry, terms, axis):
    """carry + terms[0] + terms[1] + ... along axis, added one term at a time."""
    stacked = np.concatenate([np.expand_dims(carry, axis), terms], axis=axis)
    return np.add.accumulate(stacked, axis=axis, out=stacked).take(-1, axis=axis)
