import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genecluster import (
    Centroids,
    ClusterAssignment,
    Dataset,
    NormalizationParams,
    SilhouetteReport,
    ValidationError,
    cluster_pipeline,
    compact_cluster,
    drop_incomplete_genes,
    generate_synthetic,
    min_max_normalize,
    silhouette_scores,
)
from genecluster import clustering, evaluation

from helpers import oracle_pairwise_distances, oracle_silhouette, oracle_silhouette_scores


def make_dataset(points):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    return Dataset(tuple(f"p{i}" for i in range(len(points))), points)


def make_assignment(labels, k):
    labels = np.asarray(labels, dtype=np.int64)
    return ClusterAssignment(
        labels=labels,
        nearest_dist=np.zeros(len(labels)),
        centroids=Centroids(np.zeros((k, 1)), "ecia"),
        iterations=0,
        converged=True,
        wcss=0.0,
        history=(),
    )


def test_pairwise_distances_hand_case():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    dist = oracle_pairwise_distances(pts)
    assert dist.shape == (3, 3)
    assert np.allclose(np.diag(dist), 0.0)
    assert dist[0, 1] == 5.0
    assert dist[0, 2] == 1.0
    assert np.array_equal(dist, dist.T)


def test_two_pairs_hand_values():
    d = make_dataset([0.0, 1.0, 10.0, 11.0])
    r = silhouette_scores(d, make_assignment([0, 0, 1, 1], 2))
    outer = 9.5 / 10.5  # edge points: a = 1, b = 10.5
    inner = 8.5 / 9.5  # inner points: a = 1, b = 9.5
    expected = [outer, inner, inner, outer]
    got = [s for _, _, s in r.per_point]
    assert np.allclose(got, expected, atol=1e-12)
    # both clusters share the same mean, so the tie resolves to cluster 0
    assert abs(r.per_cluster[0][2] - r.per_cluster[1][2]) <= 1e-12
    assert r.compact_cluster == 0
    assert abs(r.global_mean - float(np.mean(expected))) <= 1e-12


def test_singleton_cluster_scores_zero():
    d = make_dataset([0.0, 1.0, 9.0])
    r = silhouette_scores(d, make_assignment([0, 0, 1], 2))
    assert r.per_point[2][2] == 0.0
    assert r.per_cluster[1] == (1, 1, 0.0)


def test_coincident_points_score_zero_not_nan():
    d = make_dataset([0.0, 0.0, 5.0, 5.0])
    r = silhouette_scores(d, make_assignment([0, 0, 1, 1], 2))
    scores = [s for _, _, s in r.per_point]
    # a = 0, b = 5 for every point: perfectly separated duplicates
    assert scores == [1.0, 1.0, 1.0, 1.0]
    d0 = make_dataset([0.0, 0.0, 0.0, 0.0])
    r0 = silhouette_scores(d0, make_assignment([0, 0, 1, 1], 2))
    assert [s for _, _, s in r0.per_point] == [0.0, 0.0, 0.0, 0.0]


def test_single_cluster_is_an_error():
    d = make_dataset([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        silhouette_scores(d, make_assignment([0, 0, 0], 1))
    # k = 2 declared but only one cluster occupied: still undefined
    with pytest.raises(ValueError):
        silhouette_scores(d, make_assignment([1, 1, 1], 2))


def test_label_count_mismatch_rejected():
    d = make_dataset([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        silhouette_scores(d, make_assignment([0, 1], 2))


def test_matches_naive_oracle_on_random_data():
    rng = np.random.default_rng(40)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(2, min(n, 5)))
        pts = rng.normal(size=(n, m))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # keep every cluster occupied
        d = make_dataset(pts)
        r = silhouette_scores(d, make_assignment(labels, k))
        got = [s for _, _, s in r.per_point]
        assert np.allclose(got, oracle_silhouette(pts, labels), atol=1e-12)


def test_scores_stay_in_unit_interval():
    rng = np.random.default_rng(41)
    for _ in range(20):
        pts = rng.normal(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        labels[:4] = np.arange(4)
        r = silhouette_scores(make_dataset(pts), make_assignment(labels, 4))
        scores = np.array([s for _, _, s in r.per_point])
        assert (scores >= -1.0 - 1e-12).all()
        assert (scores <= 1.0 + 1e-12).all()
        assert -1.0 <= r.global_mean <= 1.0


def test_scale_invariance():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(25, 4))
    labels = rng.integers(0, 3, size=25)
    labels[:3] = np.arange(3)
    a = make_assignment(labels, 3)
    base = silhouette_scores(make_dataset(pts), a)
    scaled = silhouette_scores(make_dataset(pts * 1000.0), a)
    shifted = silhouette_scores(make_dataset(pts + 17.0), a)
    for other in (scaled, shifted):
        assert np.allclose(
            [s for _, _, s in base.per_point],
            [s for _, _, s in other.per_point],
            atol=1e-9,
        )
        assert other.compact_cluster == base.compact_cluster


def test_point_order_permutation_invariance():
    rng = np.random.default_rng(43)
    pts = rng.normal(size=(15, 2))
    labels = rng.integers(0, 3, size=15)
    labels[:3] = np.arange(3)
    perm = rng.permutation(15)
    r1 = silhouette_scores(make_dataset(pts), make_assignment(labels, 3))
    d2 = Dataset(tuple(f"p{i}" for i in perm), pts[perm])
    r2 = silhouette_scores(d2, make_assignment(labels[perm], 3))
    by_id_1 = {pid: s for pid, _, s in r1.per_point}
    by_id_2 = {pid: s for pid, _, s in r2.per_point}
    for pid in by_id_1:
        assert abs(by_id_1[pid] - by_id_2[pid]) <= 1e-12
    assert r2.global_mean == pytest.approx(r1.global_mean, abs=1e-12)


def injected_report(means):
    # compact_cluster() derives its answer from per_cluster alone; the
    # stored field is irrelevant here, so fill it with a sentinel
    per_cluster = tuple((j, 3, m) for j, m in enumerate(means))
    return SilhouetteReport((), per_cluster, float(np.mean(means)), -1)


def test_compact_cluster_serum_profile():
    means = [0.629, 0.532, 0.439, 0.347, 0.301, 0.397, 0.309]
    assert compact_cluster(injected_report(means)) == 0


def test_compact_cluster_yeast_profile():
    means = [0.621, 0.597, 0.584, 0.471, 0.421, 0.327, 0.697]
    assert compact_cluster(injected_report(means)) == 6


def test_compact_cluster_tie_takes_lowest_index():
    assert compact_cluster(injected_report([0.4, 0.7, 0.7, 0.2])) == 1


def test_compact_cluster_empty_report_rejected():
    with pytest.raises(ValueError):
        compact_cluster(SilhouetteReport((), (), 0.0, -1))


def test_report_to_dict_round_trip():
    d = make_dataset([0.0, 1.0, 10.0, 11.0])
    r = silhouette_scores(d, make_assignment([0, 0, 1, 1], 2))
    out = r.to_dict()
    assert [row["id"] for row in out["per_point"]] == ["p0", "p1", "p2", "p3"]
    assert [row["cluster"] for row in out["per_cluster"]] == [0, 1]
    assert out["compact_cluster"] == 0
    assert out["global_mean"] == pytest.approx(r.global_mean)


def test_pairwise_distances_match_unblocked_formula(monkeypatch):
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(9, 3))
    want = oracle_pairwise_distances(pts)

    def blocked():
        return np.concatenate([dist for _, dist in clustering.block_distances(pts, pts)])

    assert blocked().tolist() == want.tolist()
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", 1)
    assert blocked().tolist() == want.tolist()


def test_labels_outside_cluster_range_rejected():
    d = make_dataset([0.0, 1.0, 2.0])
    for labels in ([0, 1, 2], [0, 1, -1]):
        with pytest.raises(ValidationError):
            silhouette_scores(d, make_assignment(labels, 2))


def assert_same_report(got, want):
    assert got.per_point == want.per_point
    assert got.per_cluster == want.per_cluster
    assert got.global_mean == want.global_mean
    assert got.compact_cluster == want.compact_cluster
    # the serialized form also tells -0.0 from 0.0
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def random_case(rng):
    n = int(rng.integers(2, 40))
    m = int(rng.integers(1, 8))
    k = int(rng.integers(2, 6))
    pts = rng.normal(size=(n, m))
    if rng.random() < 0.3:
        pts = pts.round()  # duplicate points and tied distances
    labels = rng.integers(0, k, size=n)
    labels[:2] = rng.choice(k, size=2, replace=False)  # two clusters occupied
    return make_dataset(pts), make_assignment(labels, k)


def test_bit_identical_to_unblocked_oracle_on_random_data():
    rng = np.random.default_rng(45)
    for _ in range(300):
        d, a = random_case(rng)
        assert_same_report(silhouette_scores(d, a), oracle_silhouette_scores(d, a))


@pytest.mark.parametrize("rows_per_block", [1, 2, 3])
def test_bit_identical_for_any_block_size(monkeypatch, rows_per_block):
    rng = np.random.default_rng(46)
    for n in (2, 7, 31, 64):  # odd counts leave a last block of a single row
        m = int(rng.integers(1, 6))
        d = make_dataset(rng.normal(size=(n, m)).round(1))
        labels = rng.integers(0, 4, size=n)
        labels[:2] = [0, 3]
        a = make_assignment(labels, 4)
        want = oracle_silhouette_scores(d, a)
        budget = rows_per_block * n * (m + 1) * 8
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
        blocks = [len(dist) for _, dist in clustering.block_distances(d.points, d.points)]
        assert max(blocks) == min(rows_per_block, n)
        assert sum(blocks) == n
        assert_same_report(silhouette_scores(d, a), want)


def test_bit_identical_on_lone_empty_and_duplicate_clusters():
    # clusters 0 and 1 sit on the same duplicated point (a = b = 0), cluster
    # 2 is empty and cluster 4 holds a lone point
    pts = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 1.0]]
    d = make_dataset(pts)
    a = make_assignment([0, 0, 1, 1, 3, 3, 4], 5)
    got = silhouette_scores(d, a)
    assert_same_report(got, oracle_silhouette_scores(d, a))
    scores = [s for _, _, s in got.per_point]
    assert scores[:4] == [0.0, 0.0, 0.0, 0.0]
    assert scores[6] == 0.0
    assert [c for c, _, _ in got.per_cluster] == [0, 1, 3, 4]


def wide_synthetic_case():
    m, _ = generate_synthetic(1500, 60, 7, noise=0.3, missing_fraction=0.005, seed=1)
    m = min_max_normalize(drop_incomplete_genes(m), NormalizationParams(0.0, 1.0))
    return Dataset.from_matrix(m), cluster_pipeline(m, 7, "random", 1, "shortcut")


@pytest.mark.parametrize("budget", [None, 1])
def test_bit_identical_on_wide_synthetic_input(monkeypatch, budget):
    d, a = wide_synthetic_case()
    want = oracle_silhouette_scores(d, a)
    if budget is not None:
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
    assert_same_report(silhouette_scores(d, a), want)


@pytest.mark.parametrize("budget", [None, 4 * 2**20])
def test_memory_stays_within_block_budget(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
    rng = np.random.default_rng(47)
    n, dims, k = 3000, 60, 7
    d = make_dataset(rng.normal(size=(n, dims)))
    a = make_assignment(rng.integers(0, k, size=n), k)
    # the unblocked n x n x d difference array alone would need 8.6 GB here
    tracemalloc.start()
    try:
        silhouette_scores(d, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clustering._BLOCK_BYTES / 2 < peak < 2 * clustering._BLOCK_BYTES


@st.composite
def blocked_cases(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(2, 5))
    # coarse coordinates give duplicate points and tied distances
    coords = st.integers(-3, 3).map(lambda v: v / 2) | st.floats(-10, 10)
    pts = draw(st.lists(st.lists(coords, min_size=m, max_size=m), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    labels[:2] = draw(st.permutations(range(k)))[:2]  # two clusters occupied
    rows_per_block = draw(st.integers(1, n))
    return make_dataset(pts), make_assignment(labels, k), rows_per_block


@settings(max_examples=300, deadline=None)
@given(blocked_cases())
def test_bit_identical_to_oracle_for_any_block_budget(case):
    d, a, rows_per_block = case
    want = oracle_silhouette_scores(d, a)
    # the first block gets rows_per_block rows; later blocks have fewer
    # columns, so they take more rows and their edges cut cluster runs anywhere
    budget = rows_per_block * d.n_points * (d.n_dims + 1) * 8
    with mock.patch.object(clustering, "_BLOCK_BYTES", budget):
        assert_same_report(silhouette_scores(d, a), want)


def test_upper_triangle_blocks_match_full_matrix(monkeypatch):
    rng = np.random.default_rng(48)
    pts = rng.normal(size=(23, 4))
    full = oracle_pairwise_distances(pts)
    assert np.array_equal(full, full.T)  # d(x, y) and d(y, x) share their bits
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", 3 * 23 * 5 * 8)
    starts = []
    for rows, dist in clustering.block_distances(pts):
        starts.append(rows.start)
        assert dist.shape == (rows.stop - rows.start, 23 - rows.start)
        assert dist.size <= 3 * 23  # narrower blocks take more rows, not more pairs
        assert dist.tolist() == full[rows, rows.start :].tolist()
    assert starts[:2] == [0, 3] and len(starts) < 23 // 3


def test_silhouette_measures_each_pair_once(monkeypatch):
    d, a = wide_synthetic_case()
    blocks = []

    def counted(*args):
        for rows, dist in clustering.block_distances(*args):
            blocks.append(dist.shape)
            yield rows, dist

    monkeypatch.setattr(evaluation, "block_distances", counted)
    silhouette_scores(d, a)
    n = d.n_points
    rows_per_block = max(rows for rows, _ in blocks)
    cells = sum(rows * cols for rows, cols in blocks)
    # the upper triangle, plus the lower half of each block's diagonal square
    assert cells <= (n * n + n * rows_per_block) / 2
