"""Silhouette validation of a clustering (Rousseeuw's formulation).

For each point, a is the mean distance to the other members of its own
cluster and b the smallest mean distance to any other cluster; the score is
(b - a) / max(a, b).  A point alone in its cluster scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def silhouette_scores(d, a):
    """Score every point of a clustered dataset.

    Requires at least two non-empty clusters, otherwise no between-cluster
    distance exists and the score is undefined.
    """
    labels = a.labels
    if len(labels) != d.n_points:
        raise ValidationError("assignment does not label every point")
    k = a.k
    members = [np.flatnonzero(labels == j) for j in range(k)]
    occupied = [j for j in range(k) if len(members[j])]
    if len(occupied) < 2:
        raise ValueError("silhouette needs at least two non-empty clusters")
    dist = pairwise_distances(d.points)
    n = d.n_points
    # mean distance from every point to every non-empty cluster
    cluster_mean = np.full((n, len(occupied)), np.inf)
    for col, j in enumerate(occupied):
        cluster_mean[:, col] = dist[:, members[j]].mean(axis=1)
    col_of = {j: col for col, j in enumerate(occupied)}
    scores = np.zeros(n)
    for i in range(n):
        own = labels[i]
        size = len(members[own])
        if size == 1:
            continue  # lone point scores 0
        # own-cluster mean excludes the point itself, so undo the self term
        a_i = cluster_mean[i, col_of[own]] * size / (size - 1)
        others = [c for c in range(len(occupied)) if occupied[c] != own]
        b_i = cluster_mean[i, others].min()
        denom = max(a_i, b_i)
        scores[i] = 0.0 if denom == 0 else (b_i - a_i) / denom
    per_point = tuple(
        (pid, int(lab), float(s)) for pid, lab, s in zip(d.point_ids, labels, scores)
    )
    per_cluster = tuple(
        (j, len(members[j]), float(scores[members[j]].mean())) for j in occupied
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
