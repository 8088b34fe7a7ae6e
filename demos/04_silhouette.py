"""Silhouette scoring and picking the most compact cluster.

Run:  python3 demos/04_silhouette.py
"""

import numpy as np

from genecluster import (
    Dataset,
    SilhouetteReport,
    ecia_initialize,
    kmeans,
    silhouette_scores,
)


def hand_case():
    # two tight pairs far apart; every score should sit close to 1
    d = Dataset(("p0", "p1", "p2", "p3"), np.array([[0.0], [1.0], [10.0], [11.0]]))
    a = kmeans(d, ecia_initialize(d, 2))
    r = silhouette_scores(d, a.labels, a.k)
    print("two pairs at 0,1 and 10,11:")
    for pid, cluster, score in r.per_point:
        print(f"  {pid}: cluster {cluster}, s = {score:.6f}")
    print("edge points see the far pair at mean distance 10.5, inner ones at 9.5,")
    print("so the outer scores are slightly higher")
    print(f"global mean {r.global_mean:.6f}, most compact cluster {r.compact_cluster}")


def overlapping_vs_separated():
    rng = np.random.default_rng(9)
    for spread, label in ((0.2, "separated"), (2.5, "overlapping")):
        pts = np.concatenate(
            [rng.normal(loc=c, scale=spread, size=(25, 3)) for c in (0.0, 4.0)]
        )
        d = Dataset(tuple(f"g{i}" for i in range(50)), pts)
        a = kmeans(d, ecia_initialize(d, 2))
        r = silhouette_scores(d, a.labels, a.k)
        print(f"\n{label} blobs: global mean silhouette {r.global_mean:.3f}")


def published_patterns():
    # per-cluster means reported for two microarray studies; the rule picks
    # the cluster with the highest mean
    serum = [0.629, 0.532, 0.439, 0.347, 0.301, 0.397, 0.309]
    yeast = [0.621, 0.597, 0.584, 0.471, 0.421, 0.327, 0.697]
    print()
    for name, means in (("serum", serum), ("yeast", yeast)):
        report = SilhouetteReport(
            per_point=(),
            per_cluster=tuple((j, 1, v) for j, v in enumerate(means)),
            global_mean=float(np.mean(means)),
        )
        best = report.compact_cluster
        print(f"{name}: cluster means {means} -> most compact C{best + 1}")


if __name__ == "__main__":
    hand_case()
    overlapping_vs_separated()
    published_patterns()
