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
    compact_cluster: int

    def to_dict(self):
        return {
            "per_point": [
                {"id": pid, "cluster": c, "silhouette": s}
                for pid, c, s in self.per_point
            ],
            "per_cluster": [
                {"cluster": c, "size": n, "mean_silhouette": m}
                for c, n, m in self.per_cluster
            ],
            "global_mean": self.global_mean,
            "compact_cluster": self.compact_cluster,
        }


def pairwise_distances(points):
    """Full n x n distance matrix, built in row blocks (block_distances)."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([dist for _, dist in block_distances(points, points)])


def silhouette_scores(d, a):
    """Score every point of a clustered dataset.

    Requires at least two non-empty clusters, otherwise no between-cluster
    distance exists and the score is undefined.

    Costs O(n**2 * d) arithmetic.  Distances come in row blocks from
    block_distances, so memory stays within its byte budget plus O(n * (d +
    k)); no n x n matrix is formed.  A point's distance sum to a cluster
    adds the members one at a time in ascending point order (a sequential
    np.add.accumulate over the points sorted stably by label), which fixes
    every score's bits whatever the block size.
    """
    labels = a.labels
    if len(labels) != d.n_points:
        raise ValidationError("assignment does not label every point")
    k = a.k
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"assignment labels must lie in 0..{k - 1}")
    sizes = np.bincount(labels, minlength=k)
    occupied = np.flatnonzero(sizes)
    if len(occupied) < 2:
        raise ValueError("silhouette needs at least two non-empty clusters")
    # each cluster's members, in ascending point order, form one run of `order`
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    runs = [(ends[j] - sizes[j], ends[j]) for j in occupied]
    n = d.n_points
    # mean distance from every point to every non-empty cluster
    cluster_mean = np.empty((n, len(occupied)))
    for rows, dist in block_distances(d.points, d.points[order]):
        for col, (lo, hi) in enumerate(runs):
            cluster_mean[rows, col] = np.add.accumulate(dist[:, lo:hi], axis=1)[:, -1]
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
        compact_cluster=_argmax_cluster(per_cluster),
    )


def _argmax_cluster(per_cluster):
    best_cluster, best_mean = None, None
    for c, _, mean in per_cluster:
        if best_mean is None or mean > best_mean:
            best_cluster, best_mean = c, mean
    return best_cluster


def compact_cluster(r):
    """Cluster with the highest mean silhouette; ties go to the lowest index."""
    if not r.per_cluster:
        raise ValueError("report has no clusters")
    return _argmax_cluster(r.per_cluster)
