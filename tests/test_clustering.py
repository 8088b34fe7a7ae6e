import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genecluster import (
    Centroids,
    ClusterAssignment,
    Dataset,
    ExpressionMatrix,
    ValidationError,
    cluster_pipeline,
    ecia_initialize,
    kmeans,
    random_initialize,
)
from genecluster import clustering

from helpers import block_budget, oracle_assign, oracle_euclidean_distance, oracle_kmeans


def dataset_1d(values):
    return Dataset(
        tuple(f"p{i}" for i in range(len(values))),
        np.asarray(values, dtype=float).reshape(-1, 1),
    )


def random_dataset(rng, n, m):
    return Dataset(
        tuple(f"p{i}" for i in range(n)), rng.normal(scale=3.0, size=(n, m))
    )


def test_euclidean_hand_cases():
    assert oracle_euclidean_distance((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert oracle_euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert oracle_euclidean_distance((1.0, 2.0, 3.0), (4.0, 6.0, 3.0)) == 5.0


def test_euclidean_dimension_mismatch():
    with pytest.raises(ValueError):
        oracle_euclidean_distance((1.0, 2.0), (1.0, 2.0, 3.0))


def test_euclidean_metric_properties():
    rng = np.random.default_rng(20)
    for _ in range(50):
        x, y, z = rng.normal(size=(3, 6))
        assert oracle_euclidean_distance(x, y) == oracle_euclidean_distance(y, x)
        assert oracle_euclidean_distance(x, y) >= 0.0
        assert oracle_euclidean_distance(x, z) <= (
            oracle_euclidean_distance(x, y) + oracle_euclidean_distance(y, z) + 1e-9
        )


def test_random_initialize_is_seed_reproducible():
    rng = np.random.default_rng(21)
    d = random_dataset(rng, 30, 4)
    c1 = random_initialize(d, 5, seed=9)
    c2 = random_initialize(d, 5, seed=9)
    assert np.array_equal(c1.vectors, c2.vectors)
    assert c1.provenance == "random(seed=9)"


def test_random_initialize_draws_distinct_points():
    rng = np.random.default_rng(22)
    d = random_dataset(rng, 6, 3)
    c = random_initialize(d, 6, seed=0)
    # without replacement: every data point appears exactly once
    chosen = {tuple(row) for row in c.vectors}
    assert chosen == {tuple(row) for row in d.points}


def test_random_initialize_k_bounds():
    d = dataset_1d([1, 2, 3])
    with pytest.raises(ValueError):
        random_initialize(d, 4, seed=0)
    with pytest.raises(ValueError):
        random_initialize(d, 0, seed=0)


def test_ecia_hand_case_1d():
    d = dataset_1d([1, 2, 3, 4, 5, 6])
    c = ecia_initialize(d, 2)
    assert c.vectors.tolist() == [[2.0], [5.0]]
    assert c.provenance == "ecia"


def test_ecia_negative_shift_hand_case():
    d = dataset_1d([-2, 0, 2])
    c = ecia_initialize(d, 1)
    assert c.vectors.tolist() == [[0.0]]


def test_ecia_k_equals_n_gives_sorted_points():
    d = dataset_1d([5, 1, 3])
    c = ecia_initialize(d, 3)
    assert c.vectors.ravel().tolist() == [1.0, 3.0, 5.0]


def test_ecia_uneven_split_sizes():
    # 7 points, k = 3: runs of 3, 2, 2; middles at offsets 1, 1, 1
    d = dataset_1d([0, 1, 2, 3, 4, 5, 6])
    c = ecia_initialize(d, 3)
    assert c.vectors.ravel().tolist() == [1.0, 4.0, 6.0]


def test_ecia_distance_ties_keep_input_order():
    pts = np.array([[3.0, 4.0], [5.0, 0.0], [0.0, 0.0]])  # two points at norm 5
    d = Dataset(("a", "b", "c"), pts)
    c = ecia_initialize(d, 3)
    assert c.vectors.tolist() == [[0.0, 0.0], [3.0, 4.0], [5.0, 0.0]]


def test_ecia_shift_invariance_while_negatives_remain():
    rng = np.random.default_rng(23)
    for _ in range(20):
        pts = rng.normal(size=(12, 3)) - 2.0  # global minimum well below zero
        assert pts.min() < 0
        shift = float(rng.uniform(0.1, -pts.min() * 0.9))
        d1 = Dataset(tuple(f"p{i}" for i in range(12)), pts)
        d2 = Dataset(tuple(f"p{i}" for i in range(12)), pts + shift)
        assert (pts + shift).min() < 0  # both datasets take the shift branch
        c1 = ecia_initialize(d1, 4)
        c2 = ecia_initialize(d2, 4)
        # same points chosen, expressed in each dataset's own coordinates
        assert np.allclose(c2.vectors, c1.vectors + shift, atol=1e-12)


def test_kmeans_hand_trace_1d():
    d = dataset_1d([1, 2, 3, 4, 5, 6])
    a = kmeans(d, ecia_initialize(d, 2))
    assert a.labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert a.centroids.vectors.tolist() == [[2.0], [5.0]]
    assert a.converged
    assert a.iterations == 1
    assert abs(a.wcss - 4.0) <= 1e-9


def test_kmeans_k_equals_n_fixed_point():
    rng = np.random.default_rng(24)
    d = random_dataset(rng, 8, 3)
    a = kmeans(d, Centroids(d.points, "ecia"))
    assert a.converged
    assert a.iterations == 1
    assert a.wcss == 0.0
    assert sorted(a.labels.tolist()) == list(range(8))


def test_kmeans_wcss_non_increasing_and_verified_convergence():
    rng = np.random.default_rng(25)
    for trial in range(20):
        n = int(rng.integers(10, 120))
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(n, 9)))
        d = random_dataset(rng, n, m)
        a = kmeans(d, random_initialize(d, k, seed=trial))
        wcss = [h.wcss for h in a.history]
        assert all(b <= x + 1e-9 for x, b in zip(wcss, wcss[1:]))
        if a.converged:
            diff = d.points[:, None, :] - a.centroids.vectors[None, :, :]
            relabeled = np.sqrt((diff**2).sum(axis=2)).argmin(axis=1)
            assert np.array_equal(relabeled, a.labels)


@st.composite
def _lloyd_cases(draw):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    cells = st.floats(-1e6, 1e6) | st.integers(-3, 3).map(float)
    points = draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))
    d = Dataset(tuple(f"p{i}" for i in range(n)), points)
    k = draw(st.integers(1, min(n, 5)))
    if draw(st.booleans()):
        return d, ecia_initialize(d, k)
    return d, random_initialize(d, k, seed=draw(st.integers(0, 2**32 - 1)))


# Three equal points whose float mean is one ulp off them: WCSS goes from
# exactly 0 to about 1e-20, the only kind of rise a search of 24000 cases found.
_EQUAL_POINTS = Dataset(("p0", "p1", "p2"), [[511821.62470025674]] * 3)


@settings(max_examples=300, deadline=None)
@given(_lloyd_cases())
@example((_EQUAL_POINTS, ecia_initialize(_EQUAL_POINTS, 1)))
def test_exact_lloyd_wcss_never_increases(case):
    d, init = case
    wcss = [h.wcss for h in kmeans(d, init, mode="exact").history]
    # a float mean can miss the exact one, so WCSS may rise by rounding: at
    # most what moving every centroid coordinate 4 ulps of the largest
    # coordinate adds
    slack = d.n_points * d.n_dims * (4 * np.spacing(np.abs(d.points).max())) ** 2
    assert all(b <= a + slack for a, b in zip(wcss, wcss[1:]))


def test_lloyd_wcss_rises_by_rounding_from_zero():
    wcss = [h.wcss for h in kmeans(_EQUAL_POINTS, ecia_initialize(_EQUAL_POINTS, 1)).history]
    assert wcss[0] == 0.0 < wcss[1] < 1e-19


def test_kmeans_nearest_dist_matches_final_centroids():
    rng = np.random.default_rng(26)
    d = random_dataset(rng, 40, 5)
    for mode in ("exact", "shortcut"):
        a = kmeans(d, ecia_initialize(d, 6), mode=mode)
        expected = np.sqrt(
            ((d.points - a.centroids.vectors[a.labels]) ** 2).sum(axis=1)
        )
        assert np.abs(a.nearest_dist - expected).max() <= 1e-9


def test_kmeans_distance_tie_goes_to_lower_cluster():
    d = dataset_1d([0, 1, 2])
    a = kmeans(d, Centroids(np.array([[0.0], [2.0]]), "ecia"))
    # the middle point is equidistant to both seeds at first
    assert a.labels.tolist() == [0, 0, 1]


def test_kmeans_empty_cluster_keeps_centroid():
    d = dataset_1d([0, 1])
    a = kmeans(d, Centroids(np.array([[0.4], [100.0]]), "ecia"))
    assert a.labels.tolist() == [0, 0]
    assert a.centroids.vectors.tolist() == [[0.5], [100.0]]
    assert a.sizes.tolist() == [2, 0]
    assert a.converged


def test_kmeans_max_iters_guard():
    d = dataset_1d(range(10))
    # both seeds at one end: the boundary crawls left one pass at a time
    seeds = Centroids(np.array([[9.1], [9.2]]), "ecia")
    full = kmeans(d, seeds)
    assert full.converged
    assert full.iterations == 3
    capped = kmeans(d, seeds, max_iters=2)
    assert capped.iterations == 2
    assert not capped.converged
    assert len(capped.history) == 3  # initial snapshot plus two passes


def test_shortcut_kept_labels_satisfy_recorded_test():
    rng = np.random.default_rng(27)
    d = random_dataset(rng, 60, 4)
    a = kmeans(d, random_initialize(d, 5, seed=3), mode="shortcut")
    audited = 0
    for h in a.history[1:]:
        assert h.shortcut_audit is not None
        for own, stored, kept in zip(*h.shortcut_audit):
            if kept:
                assert own <= stored
                audited += 1
    assert audited > 0


def test_shortcut_matches_exact_on_separated_data():
    rng = np.random.default_rng(28)
    blobs = np.concatenate(
        [rng.normal(loc=c, scale=0.05, size=(15, 2)) for c in (0.0, 10.0, 20.0)]
    )
    d = Dataset(tuple(f"p{i}" for i in range(45)), blobs)
    exact = kmeans(d, ecia_initialize(d, 3), mode="exact")
    short = kmeans(d, ecia_initialize(d, 3), mode="shortcut")
    assert np.array_equal(exact.labels, short.labels)
    assert np.allclose(exact.centroids.vectors, short.centroids.vectors)


def test_shortcut_deterministic():
    rng = np.random.default_rng(29)
    d = random_dataset(rng, 50, 3)
    a1 = kmeans(d, ecia_initialize(d, 4), mode="shortcut")
    a2 = kmeans(d, ecia_initialize(d, 4), mode="shortcut")
    assert np.array_equal(a1.labels, a2.labels)
    assert np.array_equal(a1.centroids.vectors, a2.centroids.vectors)


def test_ecia_pipeline_repeats_are_identical():
    rng = np.random.default_rng(30)
    d = random_dataset(rng, 80, 6)
    runs = [kmeans(d, ecia_initialize(d, 7)) for _ in range(10)]
    first = runs[0]
    for a in runs[1:]:
        assert np.array_equal(a.labels, first.labels)
        assert np.array_equal(a.centroids.vectors, first.centroids.vectors)
        assert a.wcss == first.wcss
        assert a.iterations == first.iterations


def matrix_from(rng, genes, conditions):
    return ExpressionMatrix(
        tuple(f"g{i}" for i in range(genes)),
        tuple(f"t{j}" for j in range(conditions)),
        rng.normal(size=(genes, conditions)),
    )


def test_cluster_pipeline_sizes_sum():
    rng = np.random.default_rng(31)
    m = matrix_from(rng, 49, 17)
    a = cluster_pipeline(m, 7)
    assert a.k == 7
    assert int(a.sizes.sum()) == 49
    assert len(a.labels) == 49


def test_cluster_pipeline_k1_centroid_is_mean():
    rng = np.random.default_rng(32)
    m = matrix_from(rng, 10, 4)
    a = cluster_pipeline(m, 1)
    assert (a.labels == 0).all()
    assert np.allclose(a.centroids.vectors[0], m.values.mean(axis=0), atol=1e-12)


def test_cluster_pipeline_argument_errors():
    rng = np.random.default_rng(33)
    m = matrix_from(rng, 5, 3)
    with pytest.raises(ValueError):
        cluster_pipeline(m, 6)
    with pytest.raises(ValueError):
        cluster_pipeline(m, 2, strategy="random")  # missing seed
    with pytest.raises(ValueError):
        cluster_pipeline(m, 2, strategy="ecia", seed=1)
    with pytest.raises(ValidationError):
        cluster_pipeline(m, 2, strategy="sideways")
    incomplete = ExpressionMatrix(("g1", "g2"), ("t1",), [[1.0], [np.nan]])
    with pytest.raises(ValidationError):
        cluster_pipeline(incomplete, 1)


def test_cluster_pipeline_random_strategy_runs():
    rng = np.random.default_rng(34)
    m = matrix_from(rng, 20, 3)
    a = cluster_pipeline(m, 3, strategy="random", seed=77)
    b = cluster_pipeline(m, 3, strategy="random", seed=77)
    assert np.array_equal(a.labels, b.labels)
    assert a.centroids.provenance == "random(seed=77)"


@pytest.mark.parametrize("rows_per_block", [1, 2, None])
def test_assign_bit_identical_to_unblocked_oracle(monkeypatch, rows_per_block):
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        points = rng.normal(size=(n, m)).round(int(rng.integers(0, 3)))
        centroids = rng.normal(size=(k, m)).round(1)
        centroids[k // 2] = centroids[0]  # duplicate centroids tie on every point
        if rows_per_block is not None:
            monkeypatch.setattr(clustering, "_BLOCK_BYTES", block_budget(rows_per_block, k))
        labels, nearest = clustering._assign(points, centroids)
        want_labels, want_nearest = oracle_assign(points, centroids)
        assert labels.tolist() == want_labels.tolist()
        assert nearest.tolist() == want_nearest.tolist()


@pytest.mark.parametrize("mode", ["exact", "shortcut"])
def test_kmeans_independent_of_block_size(monkeypatch, mode):
    rng = np.random.default_rng(32)
    d = random_dataset(rng, 75, 5)
    init = random_initialize(d, 6, seed=4)
    want = kmeans(d, init, mode=mode)
    monkeypatch.setattr(clustering, "_BLOCK_BYTES", 1)
    got = kmeans(d, init, mode=mode)
    assert got.labels.tolist() == want.labels.tolist()
    assert got.nearest_dist.tolist() == want.nearest_dist.tolist()
    assert got.wcss == want.wcss
    for g, w in zip(got.history, want.history, strict=True):
        assert (g.wcss, g.label_changes, g.shortcut_kept) == (
            w.wcss, w.label_changes, w.shortcut_kept
        )
        if w.shortcut_audit is None:
            assert g.shortcut_audit is None
        else:
            for ga, wa in zip(g.shortcut_audit, w.shortcut_audit, strict=True):
                assert ga.tolist() == wa.tolist()


@st.composite
def _kmeans_cases(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    # coarse coordinates give duplicate points, tied distances and emptied clusters
    coords = st.integers(-3, 3).map(lambda v: v / 2) | st.floats(-10, 10).map(
        lambda v: round(v, 1)
    )
    points = draw(st.lists(st.lists(coords, min_size=m, max_size=m), min_size=n, max_size=n))
    d = Dataset(tuple(f"p{i}" for i in range(n)), points)
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        init = ecia_initialize(d, k)
    else:
        init = random_initialize(d, k, seed=draw(st.integers(0, 2**32 - 1)))
    max_iters = draw(st.none() | st.integers(1, 5))  # None: the default
    kwargs = {"mode": draw(st.sampled_from(clustering.MODES))}
    if max_iters is not None:
        kwargs["max_iters"] = max_iters
    # one row per block, the default, or any rows per block
    block_bytes = draw(
        st.sampled_from([1, clustering._BLOCK_BYTES])
        | st.integers(1, n).map(lambda rows: block_budget(rows, k))
    )
    return d, init, kwargs, block_bytes


@settings(max_examples=300, deadline=None)
@given(_kmeans_cases())
def test_kmeans_matches_oracle(case):
    d, init, kwargs, block_bytes = case
    with mock.patch.object(clustering, "_BLOCK_BYTES", block_bytes):
        got = kmeans(d, init, **kwargs)
    labels, nearest, centroids, wcss, iterations, converged, history = oracle_kmeans(
        d.points, init.vectors, **kwargs
    )
    assert got.labels.tolist() == labels.tolist()
    assert got.nearest_dist.tolist() == nearest.tolist()
    assert got.centroids.vectors.tolist() == centroids.tolist()
    assert (got.wcss, got.iterations, got.converged) == (wcss, iterations, converged)
    for i, (h, (it, h_wcss, changes, kept, audit)) in enumerate(
        zip(got.history, history, strict=True)
    ):
        assert (i, h.wcss, h.label_changes, h.shortcut_kept) == (it, h_wcss, changes, kept)
        if audit is None:
            assert h.shortcut_audit is None
        else:
            assert not any(a.flags.writeable for a in h.shortcut_audit)
            assert list(zip(*(a.tolist() for a in h.shortcut_audit))) == list(audit)


@pytest.mark.parametrize("ids, message", [
    (("a", "b", "a"), "duplicate point id: 'a'"),
    (("a", "b\r", "c"), "point id holds a carriage return: 'b\\r'"),
], ids=["repeated", "carriage-return"])
def test_dataset_rejects_bad_point_ids(ids, message):
    # the id rule of the matrices, named by the dataset's kind of id
    with pytest.raises(ValidationError) as err:
        Dataset(ids, np.zeros((3, 2)))
    assert str(err.value) == message


def test_cluster_assignment_needs_the_initial_assignment_in_its_history():
    with pytest.raises(ValidationError, match="history"):
        ClusterAssignment((0, 0), (0.0, 0.0), Centroids([[0.0]], "ecia"), history=())


def test_assign_memory_stays_within_block_budget():
    rng = np.random.default_rng(33)
    points = rng.normal(size=(2000, 200))
    centroids = rng.normal(size=(500, 200))
    # the unblocked n x k x d difference array alone would need 1.6 GB here
    tracemalloc.start()
    try:
        clustering._assign(points, centroids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clustering._BLOCK_BYTES / 2 < peak < 2 * clustering._BLOCK_BYTES
