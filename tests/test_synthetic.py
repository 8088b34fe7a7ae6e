import numpy as np
import pytest

from genecluster import (
    ValidationError,
    cluster_pipeline,
    generate_synthetic,
)


def test_same_arguments_same_output():
    m1, l1 = generate_synthetic(40, 6, 4, noise=0.2, missing_fraction=0.1, seed=5)
    m2, l2 = generate_synthetic(40, 6, 4, noise=0.2, missing_fraction=0.1, seed=5)
    assert m1.gene_ids == m2.gene_ids
    assert m1.condition_ids == m2.condition_ids
    assert np.array_equal(m1.values, m2.values, equal_nan=True)
    assert np.array_equal(l1, l2)


def test_different_seeds_differ():
    m1, _ = generate_synthetic(40, 6, 4, noise=0.2, seed=5)
    m2, _ = generate_synthetic(40, 6, 4, noise=0.2, seed=6)
    assert not np.array_equal(m1.values, m2.values)


def test_no_missing_when_fraction_zero():
    m, _ = generate_synthetic(30, 5, 3, noise=0.5, seed=1)
    assert m.is_complete


def test_missing_fraction_roughly_respected():
    m, _ = generate_synthetic(200, 10, 4, missing_fraction=0.2, seed=2)
    frac = float(np.isnan(m.values).mean())
    assert 0.1 < frac < 0.3


def test_labels_follow_round_robin():
    _, labels = generate_synthetic(10, 3, 4, seed=0)
    assert labels.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]


def test_group_separation_dominates_noise():
    m, labels = generate_synthetic(60, 8, 3, noise=0.1, seed=7)
    for g in range(3):
        rows = m.values[labels == g]
        centre = rows.mean(axis=0)
        spread = np.abs(rows - centre).max()
        assert spread < 1.0  # groups sit 3 apart per coordinate


def test_planted_groups_recovered_without_noise():
    m, labels = generate_synthetic(60, 10, 4, seed=11)
    a = cluster_pipeline(m, 4)
    # cluster indices may be permuted; demand a one-to-one relabeling
    mapping = {}
    for got, want in zip(a.labels.tolist(), labels.tolist()):
        assert mapping.setdefault(got, want) == want
    assert len(mapping) == 4


def test_argument_validation():
    with pytest.raises(ValidationError):
        generate_synthetic(0, 5, 1)
    with pytest.raises(ValidationError):
        generate_synthetic(5, 0, 1)
    with pytest.raises(ValidationError):
        generate_synthetic(5, 3, 6)
    with pytest.raises(ValidationError):
        generate_synthetic(5, 3, 0)
    with pytest.raises(ValidationError):
        generate_synthetic(5, 3, 2, noise=-0.1)
    with pytest.raises(ValidationError):
        generate_synthetic(5, 3, 2, missing_fraction=1.0)
    # every count and the seed is an int, and a bool is none; the error names it
    for args, kwargs, name in (
        ((10.5, 3, 2), {}, "genes"),
        ((10, 3.0, 2), {}, "conditions"),
        ((10, 3, 2.0), {}, "planted_clusters"),
        ((10, 3, 2), {"seed": 1.5}, "seed"),
        ((True, 3, 1), {}, "genes"),
        ((10, 3, np.int64(2)), {}, "planted_clusters"),
        ((10, 3, 2), {"seed": np.int64(0)}, "seed"),
    ):
        with pytest.raises(ValidationError, match=f"^{name} must be an int, got "):
            generate_synthetic(*args, **kwargs)


def test_id_shapes():
    m, _ = generate_synthetic(3, 2, 2, seed=0)
    assert m.gene_ids == ("g0001", "g0002", "g0003")
    assert m.condition_ids == ("t01", "t02")
    assert m.shape == (3, 2)
