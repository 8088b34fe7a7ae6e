import json
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genecluster import (
    Dataset,
    NormalizationParams,
    SilhouetteReport,
    ValidationError,
    cluster_pipeline,
    drop_incomplete_genes,
    generate_synthetic,
    min_max_normalize,
    silhouette_scores,
)
from genecluster import clustering
from genecluster.pipeline import silhouette_payload

from helpers import (
    block_budget,
    oracle_pairwise_distances,
    oracle_silhouette,
    oracle_silhouette_scores,
    tile_budget,
)


def make_dataset(points):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    return Dataset(tuple(f"p{i}" for i in range(len(points))), points)


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
    r = silhouette_scores(d, [0, 0, 1, 1], 2)
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
    r = silhouette_scores(d, [0, 0, 1], 2)
    assert r.per_point[2][2] == 0.0
    assert r.per_cluster[1] == (1, 1, 0.0)


def test_coincident_points_score_zero_not_nan():
    d = make_dataset([0.0, 0.0, 5.0, 5.0])
    r = silhouette_scores(d, [0, 0, 1, 1], 2)
    scores = [s for _, _, s in r.per_point]
    # a = 0, b = 5 for every point: perfectly separated duplicates
    assert scores == [1.0, 1.0, 1.0, 1.0]
    d0 = make_dataset([0.0, 0.0, 0.0, 0.0])
    r0 = silhouette_scores(d0, [0, 0, 1, 1], 2)
    assert [s for _, _, s in r0.per_point] == [0.0, 0.0, 0.0, 0.0]


def test_single_cluster_is_an_error():
    d = make_dataset([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        silhouette_scores(d, [0, 0, 0], 1)
    # k = 2 declared but only one cluster occupied: still undefined
    with pytest.raises(ValueError):
        silhouette_scores(d, [1, 1, 1], 2)


def test_label_count_mismatch_rejected():
    d = make_dataset([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        silhouette_scores(d, [0, 1], 2)


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
        r = silhouette_scores(d, labels, k)
        got = [s for _, _, s in r.per_point]
        assert np.allclose(got, oracle_silhouette(pts, labels), atol=1e-12)


def test_scores_stay_in_unit_interval():
    rng = np.random.default_rng(41)
    for _ in range(20):
        pts = rng.normal(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        labels[:4] = np.arange(4)
        r = silhouette_scores(make_dataset(pts), labels, 4)
        scores = np.array([s for _, _, s in r.per_point])
        assert (scores >= -1.0 - 1e-12).all()
        assert (scores <= 1.0 + 1e-12).all()
        assert -1.0 <= r.global_mean <= 1.0


def test_scale_invariance():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(25, 4))
    labels = rng.integers(0, 3, size=25)
    labels[:3] = np.arange(3)
    base = silhouette_scores(make_dataset(pts), labels, 3)
    scaled = silhouette_scores(make_dataset(pts * 1000.0), labels, 3)
    shifted = silhouette_scores(make_dataset(pts + 17.0), labels, 3)
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
    r1 = silhouette_scores(make_dataset(pts), labels, 3)
    d2 = Dataset(tuple(f"p{i}" for i in perm), pts[perm])
    r2 = silhouette_scores(d2, labels[perm], 3)
    by_id_1 = {pid: s for pid, _, s in r1.per_point}
    by_id_2 = {pid: s for pid, _, s in r2.per_point}
    for pid in by_id_1:
        assert abs(by_id_1[pid] - by_id_2[pid]) <= 1e-12
    assert r2.global_mean == pytest.approx(r1.global_mean, abs=1e-12)


def injected_report(means):
    # compact_cluster derives its answer from per_cluster alone
    per_cluster = tuple((j, 3, m) for j, m in enumerate(means))
    return SilhouetteReport((), per_cluster, float(np.mean(means)))


def test_compact_cluster_serum_profile():
    means = [0.629, 0.532, 0.439, 0.347, 0.301, 0.397, 0.309]
    assert injected_report(means).compact_cluster == 0


def test_compact_cluster_yeast_profile():
    means = [0.621, 0.597, 0.584, 0.471, 0.421, 0.327, 0.697]
    assert injected_report(means).compact_cluster == 6


def test_compact_cluster_tie_takes_lowest_index():
    assert injected_report([0.4, 0.7, 0.7, 0.2]).compact_cluster == 1


def test_compact_cluster_empty_report_rejected():
    with pytest.raises(ValueError):
        SilhouetteReport((), (), 0.0).compact_cluster


def test_silhouette_payload_round_trip():
    d = make_dataset([0.0, 1.0, 10.0, 11.0])
    r = silhouette_scores(d, [0, 0, 1, 1], 2)
    out = silhouette_payload(r)
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
    # out of range, then not one integer per point: floats, booleans, 2-d, a scalar
    for labels in ([0, 1, 2], [0, 1, -1], [0.0, 1.0, 1.0], [False, True, True],
                   [[0], [1], [1]], 0):
        with pytest.raises(ValidationError):
            silhouette_scores(d, labels, 2)


def assert_same_report(got, want):
    assert got.per_point == want.per_point
    assert got.per_cluster == want.per_cluster
    assert got.global_mean == want.global_mean
    assert got.compact_cluster == want.compact_cluster
    # the serialized form also tells -0.0 from 0.0
    assert json.dumps(silhouette_payload(got)) == json.dumps(silhouette_payload(want))


def random_case(rng):
    n = int(rng.integers(2, 40))
    m = int(rng.integers(1, 8))
    k = int(rng.integers(2, 6))
    pts = rng.normal(size=(n, m))
    if rng.random() < 0.3:
        pts = pts.round()  # duplicate points and tied distances
    labels = rng.integers(0, k, size=n)
    labels[:2] = rng.choice(k, size=2, replace=False)  # two clusters occupied
    return make_dataset(pts), labels, k


def test_bit_identical_to_unblocked_oracle_on_random_data():
    rng = np.random.default_rng(45)
    for _ in range(300):
        d, labels, k = random_case(rng)
        assert_same_report(
            silhouette_scores(d, labels, k), oracle_silhouette_scores(d, labels, k)
        )


@pytest.mark.parametrize("rows_per_block", [1, 2, 3])
def test_bit_identical_for_any_block_size(monkeypatch, rows_per_block):
    rng = np.random.default_rng(46)
    for n in (2, 7, 31, 64):  # odd counts leave a last block of a single row
        m = int(rng.integers(1, 6))
        d = make_dataset(rng.normal(size=(n, m)).round(1))
        labels = rng.integers(0, 4, size=n)
        labels[:2] = [0, 3]
        want = oracle_silhouette_scores(d, labels, 4)
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", block_budget(rows_per_block, n))
        blocks = [len(dist) for _, dist in clustering.block_distances(d.points, d.points)]
        assert max(blocks) == min(rows_per_block, n)
        assert sum(blocks) == n
        assert_same_report(silhouette_scores(d, labels, 4), want)


def test_bit_identical_on_lone_empty_and_duplicate_clusters():
    # clusters 0 and 1 sit on the same duplicated point (a = b = 0), cluster
    # 2 is empty and cluster 4 holds a lone point
    pts = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 1.0]]
    d = make_dataset(pts)
    labels = [0, 0, 1, 1, 3, 3, 4]
    got = silhouette_scores(d, labels, 5)
    assert_same_report(got, oracle_silhouette_scores(d, labels, 5))
    scores = [s for _, _, s in got.per_point]
    assert scores[:4] == [0.0, 0.0, 0.0, 0.0]
    assert scores[6] == 0.0
    assert [c for c, _, _ in got.per_cluster] == [0, 1, 3, 4]


def wide_synthetic_case():
    m, _ = generate_synthetic(1500, 60, 7, noise=0.3, missing_fraction=0.005, seed=1)
    m = min_max_normalize(drop_incomplete_genes(m), NormalizationParams(0.0, 1.0))
    a = cluster_pipeline(m, 7, "random", 1, "shortcut")
    return Dataset.from_matrix(m), a.labels, a.k


@pytest.mark.parametrize("budget", [None, 1])
def test_bit_identical_on_wide_synthetic_input(monkeypatch, budget):
    d, labels, k = wide_synthetic_case()
    want = oracle_silhouette_scores(d, labels, k)
    if budget is not None:
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
    assert_same_report(silhouette_scores(d, labels, k), want)


@pytest.mark.parametrize("budget", [None, 8 * 2**20])
def test_memory_stays_within_block_budget(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
    rng = np.random.default_rng(47)
    n, dims, k = 3000, 60, 7
    d = make_dataset(rng.normal(size=(n, dims)))
    labels = rng.integers(0, k, size=n)
    # the unblocked n x n x d difference array alone would need 8.6 GB here
    tracemalloc.start()
    try:
        silhouette_scores(d, labels, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clustering._BLOCK_BYTES / 2 < peak < 2 * clustering._BLOCK_BYTES


def test_difference_buffers_stay_within_a_quarter_of_the_budget():
    # one row's differences (2000 x 60 x 8 bytes, 960 kB) overflow a
    # filler's eighth of the budget (512 KiB)
    pts = np.random.default_rng(54).normal(size=(2000, 60))
    tracemalloc.start()
    try:
        blocks = clustering.block_distances(pts)
        _, dist = next(blocks)  # a block of many tiles: both fillers ran
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks.close()
    # besides the block, the generator holds both buffers and a few Python objects
    assert held - dist.nbytes <= clustering._BLOCK_BYTES // 4 + 2**12


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
    return make_dataset(pts), labels, k, rows_per_block


@settings(max_examples=300, deadline=None)
@given(blocked_cases())
def test_bit_identical_to_oracle_for_any_block_budget(case):
    d, labels, k, rows_per_block = case
    want = oracle_silhouette_scores(d, labels, k)
    # the first block gets rows_per_block rows; later blocks have fewer
    # columns, so they take more rows and their edges cut cluster runs anywhere
    budget = block_budget(rows_per_block, d.n_points)
    with mock.patch.object(clustering, "_BLOCK_BYTES", budget):
        assert_same_report(silhouette_scores(d, labels, k), want)


def test_upper_triangle_blocks_match_full_matrix(monkeypatch):
    rng = np.random.default_rng(48)
    pts = rng.normal(size=(23, 4))
    full = oracle_pairwise_distances(pts)
    assert np.array_equal(full, full.T)  # d(x, y) and d(y, x) share their bits
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", block_budget(3, 23))
    starts = []
    for rows, dist in clustering.block_distances(pts):
        starts.append(rows.start)
        assert dist.shape == (rows.stop - rows.start, 23 - rows.start)
        assert dist.size <= 3 * 23  # narrower blocks take more rows, not more pairs
        assert dist.tolist() == full[rows, rows.start :].tolist()
    assert starts[:2] == [0, 3] and len(starts) < 23 // 3


def test_blocks_filled_by_several_tiles_match_full_matrix(monkeypatch):
    rng = np.random.default_rng(49)
    pts = rng.normal(size=(40, 2))
    full = oracle_pairwise_distances(pts)
    budget = block_budget(12, 40)
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
    blocks = list(clustering.block_distances(pts))
    for rows, dist in blocks:
        assert dist.tolist() == full[rows, rows.start :].tolist()
    # but for the triangle's last, every block's differences overflow the
    # tile's quarter of the budget, so tile edges fall inside the block
    assert len(blocks) > 1
    assert all(dist.size * 2 * 8 > budget // 4 for _, dist in blocks[:-1])
    [(rows, dist)] = clustering.block_distances(pts, pts[:5])
    assert dist.size * 2 * 8 > budget // 4
    assert dist.tolist() == full[rows, :5].tolist()


@pytest.mark.parametrize("budget", [None, 1])
def test_blocks_are_new_writable_arrays(monkeypatch, budget):
    # the silhouette adds its running sums into each block in place
    if budget is not None:
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
    rng = np.random.default_rng(50)
    pts = rng.normal(size=(30, 3))
    others = rng.normal(size=(4, 3))
    for args in ((pts,), (pts, others), (pts, pts)):
        blocks = [dist for _, dist in clustering.block_distances(*args)]
        assert (len(blocks) > 1) == (budget == 1)  # at 1 byte, earlier blocks exist
        for i, dist in enumerate(blocks):
            assert dist.flags.writeable
            for other in (*args, *blocks[:i]):
                assert not np.shares_memory(dist, other)


@pytest.fixture()
def measured_tiles(monkeypatch):
    """The (rows, columns) of every tile the fillers measure, from the
    difference buffers their subtractions fill."""
    tiles = []
    subtract = np.subtract

    def counted(a, b, out):
        tiles.append(out.shape[:2])  # list.append holds the GIL: no update is lost
        return subtract(a, b, out=out)

    monkeypatch.setattr(clustering.np, "subtract", counted)
    return tiles


def assert_each_pair_measured_once(tiles, n):
    # a tile of m rows starts its columns at its first row's diagonal, so
    # its later rows also measure the m(m-1)/2 pairs left of theirs
    triangle = n * (n + 1) // 2
    corners = sum(rows * (rows - 1) // 2 for rows, _ in tiles)
    assert triangle <= sum(rows * cols for rows, cols in tiles) <= triangle + corners


def test_silhouette_measures_each_pair_once(measured_tiles):
    d, labels, k = wide_synthetic_case()
    silhouette_scores(d, labels, k)
    assert_each_pair_measured_once(measured_tiles, d.n_points)
    assert max(rows for rows, _ in measured_tiles) > 1  # the narrow rows were packed


def test_one_row_tiles_measure_the_upper_triangle_exactly(monkeypatch, measured_tiles):
    rng = np.random.default_rng(55)
    n, dims = 40, 3
    d = make_dataset(rng.normal(size=(n, dims)))
    labels = rng.integers(0, 4, size=n)
    labels[:2] = [0, 3]
    # a tile holds 3 pairs: one row of 2 or 3 columns, or a run of 3
    # columns of a longer row; the last row (1 column) is a block's last
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", tile_budget(1, 3, dims))
    silhouette_scores(d, labels, 4)
    assert {rows for rows, _ in measured_tiles} == {1}
    assert sum(cols for _, cols in measured_tiles) == n * (n + 1) // 2


@pytest.mark.parametrize(
    "budget",
    [
        None,
        1,
        tile_budget(2, 40, 3),
        tile_budget(9, 40, 3),
        block_budget(7, 40),
    ],
)
def test_packed_tiles_measure_each_pair_once(monkeypatch, measured_tiles, budget):
    if budget is not None:
        monkeypatch.setattr(clustering, "_BLOCK_BYTES", budget)
    pts = np.random.default_rng(56).normal(size=(40, 3))
    list(clustering.block_distances(pts))
    assert_each_pair_measured_once(measured_tiles, len(pts))
    measured_tiles.clear()
    # K-Means blocks measure every row against every centroid, once
    list(clustering.block_distances(pts, pts[:4]))
    assert sum(rows * cols for rows, cols in measured_tiles) == len(pts) * 4


@st.composite
def split_block_cases(draw):
    n = draw(st.integers(1, 60))
    # around numpy's summation boundaries: one sequential sum below 8
    # coordinates, eight accumulators up to 128, a split above
    dims = draw(st.integers(1, 9) | st.sampled_from([60, 127, 128, 129]))
    others = draw(st.none() | st.integers(1, 9))
    widest = n if others is None else others
    # one row per block, any rows per block, any rows per tile (a block
    # then holds 3 * dims tiles, or as many as the points leave), or runs
    # of any number of columns of one row
    budget = draw(
        st.just(1)
        | st.integers(1, n).map(lambda rows: block_budget(rows, widest))
        | st.integers(1, n).map(lambda rows: tile_budget(rows, widest, dims))
        | st.integers(1, widest).map(lambda cols: tile_budget(1, cols, dims))
    )
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e150]))
    return n, dims, others, budget, seed, scale


# 5 rows in tiles of 2: an odd tile count and a short last tile
@example((5, 1, None, tile_budget(2, 5, 1), 0, 1.0))
@example((5, 1, 3, tile_budget(2, 3, 1), 0, 1.0))
@example((60, 129, None, tile_budget(7, 60, 129), 1, 1.0))
# budgets below one row's differences: rows in runs of 25 + 25 + 10 and 4 + 4 + 1 columns
@example((60, 129, None, tile_budget(1, 25, 129), 2, 1.0))
@example((7, 3, 9, tile_budget(1, 4, 3), 0, 1.0))
# tiles of 30 pairs: the first trimmed row (31 columns) is just over a tile,
# and (29 columns) just under one
@example((31, 60, None, tile_budget(1, 30, 60), 3, 1.0))
@example((29, 129, None, tile_budget(1, 30, 129), 4, 1.0))
# tiles of 60 pairs: the second block's tail packs 2, 3, 4 and 6 rows into a tile
@example((60, 9, None, tile_budget(1, 60, 9), 5, 1.0))
# one tile holds the whole block, so no helper thread runs
@example((40, 3, None, tile_budget(40, 40, 3), 7, 1.0))
@settings(max_examples=200, deadline=None)
@given(split_block_cases())
def test_split_blocks_equal_the_unblocked_oracle(case):
    n, dims, others, budget, seed, scale = case
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dims)) * scale
    if seed % 3 == 0:
        pts = pts.round()  # duplicate points and tied distances
    args = (pts,) if others is None else (pts, rng.normal(size=(others, dims)) * scale)
    full = oracle_pairwise_distances(*args)
    with mock.patch.object(clustering, "_BLOCK_BYTES", budget):
        blocks = list(clustering.block_distances(*args))
    assert sum(rows.stop - rows.start for rows, _ in blocks) == n
    for rows, dist in blocks:
        want = full[rows, rows.start :] if others is None else full[rows]
        assert dist.tolist() == want.tolist()


class CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.fixture()
def counted_threads(monkeypatch):
    monkeypatch.setattr(CountedThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    return CountedThread


def test_silhouette_leaves_no_thread_running(counted_threads):
    d, labels, k = wide_synthetic_case()
    before = threading.active_count()
    silhouette_scores(d, labels, k)
    assert counted_threads.started > 0  # its blocks span many tiles
    assert threading.active_count() == before


def test_no_thread_outlives_a_block(monkeypatch, counted_threads):
    rng = np.random.default_rng(51)
    pts = rng.normal(size=(40, 3))
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", tile_budget(2, 40, 3))
    before = threading.active_count()
    blocks = clustering.block_distances(pts)
    for _ in range(2):
        next(blocks)
        assert threading.active_count() == before
    blocks.close()
    assert counted_threads.started == 2
    assert threading.active_count() == before


# SystemExit is a BaseException that is not an Exception
@pytest.mark.parametrize("filler, error", [
    pytest.param("helper", FloatingPointError, id="helper"),
    pytest.param("caller", FloatingPointError, id="caller"),
    pytest.param("helper", SystemExit, id="helper-SystemExit"),
    pytest.param("caller", SystemExit, id="caller-SystemExit"),
])
def test_an_error_in_either_filler_reaches_the_caller(
    monkeypatch, counted_threads, filler, error
):
    square = np.square

    def failing(*args, **kwargs):
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper == (filler == "helper"):
            raise error(filler)
        return square(*args, **kwargs)

    rng = np.random.default_rng(52)
    pts = rng.normal(size=(40, 3))
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", tile_budget(2, 40, 3))
    monkeypatch.setattr(np, "square", failing)
    before = threading.active_count()
    with pytest.raises(error, match=filler):
        list(clustering.block_distances(pts))
    assert counted_threads.started == 1
    assert threading.active_count() == before


def test_only_blocks_of_several_tiles_start_a_thread(monkeypatch, counted_threads):
    rng = np.random.default_rng(53)
    # a selected matrix's handful of genes fits one tile at the default budget
    pts = rng.normal(size=(9, 20))
    list(clustering.block_distances(pts))
    list(clustering.block_distances(pts, pts[:3]))
    assert counted_threads.started == 0
    # 11 rows in tiles of 2 against 4 others: blocks of 6 and 5 rows start
    # one helper each; blocks of one row at 1 byte start none
    pts = rng.normal(size=(11, 1))
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", tile_budget(2, 4, 1))
    assert [len(dist) for _, dist in clustering.block_distances(pts, pts[:4])] == [6, 5]
    assert counted_threads.started == 2
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", 1)
    assert len(list(clustering.block_distances(pts, pts[:4]))) == 11
    assert counted_threads.started == 2
