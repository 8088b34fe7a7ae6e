import dataclasses
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genecluster import (
    DiscretizedMatrix,
    EmptyMatrixError,
    ExpressionMatrix,
    InformationTable,
    ValidationError,
    build_table,
    dependency,
    discretize,
    drop_incomplete_genes,
    generate_synthetic,
    indiscernibility_partition,
    mean_dependency,
    min_max_normalize,
    positive_region,
    select_genes,
    usqr_reduct,
)
from genecluster import roughset
from genecluster.pipeline import reduct_payload, round_dict
from helpers import (
    _oracle_refine,
    oracle_blocks,
    oracle_dependency,
    oracle_mean_dependency,
    oracle_positive_region,
    oracle_reduct_dict,
    oracle_round_totals,
    oracle_usqr_reduct,
    random_table_values,
    table_ids,
)

HAND_VALUES = np.array([[1, 1], [1, 0], [0, 0], [0, 0]])


def make_table(values):
    objs, attrs = table_ids(values)
    return InformationTable(objs, attrs, np.asarray(values))


@pytest.fixture
def hand_table():
    return InformationTable(("o1", "o2", "o3", "o4"), ("a", "b"), HAND_VALUES)


def test_build_table_transposes_small():
    d = DiscretizedMatrix(
        ("g1", "g2", "g3"), ("t1", "t2"), [[1, -1], [0, 0], [1, 1]]
    )
    t = build_table(d)
    assert t.object_ids == ("t1", "t2")
    assert t.attribute_ids == ("g1", "g2", "g3")
    assert t.values.tolist() == [[1, 0, 1], [-1, 0, 1]]


def test_build_table_large_shape():
    rng = np.random.default_rng(1)
    d = DiscretizedMatrix(
        tuple(f"g{i}" for i in range(517)),
        tuple(f"t{j}" for j in range(17)),
        rng.integers(-1, 2, size=(517, 17)),
    )
    t = build_table(d)
    assert (t.n_objects, t.n_attributes) == (17, 517)


def test_build_table_single_cell():
    t = build_table(DiscretizedMatrix(("g1",), ("t1",), [[1]]))
    assert (t.n_objects, t.n_attributes) == (1, 1)


def test_indiscernibility_hand_case(hand_table):
    p = indiscernibility_partition(hand_table, ("a", "b"))
    assert [sorted(b) for b in p] == [[0], [1], [2, 3]]
    p_a = indiscernibility_partition(hand_table, ("a",))
    assert [sorted(b) for b in p_a] == [[0, 1], [2, 3]]


def test_indiscernibility_empty_attrs_single_block(hand_table):
    p = indiscernibility_partition(hand_table, ())
    assert p == (frozenset({0, 1, 2, 3}),)


def test_indiscernibility_matches_oracle_blocks_in_order():
    rng = np.random.default_rng(104)
    for _ in range(200):
        values = random_table_values(rng, max_objects=12)
        t = make_table(values)
        attrs = [a for a in range(t.n_attributes) if rng.random() < 0.5]
        got = indiscernibility_partition(t, [t.attribute_ids[a] for a in attrs])
        # blocks and order: each block sits where its smallest member first appears
        assert got == tuple(oracle_blocks(values, attrs))


def test_indiscernibility_unknown_attribute(hand_table):
    with pytest.raises(KeyError):
        indiscernibility_partition(hand_table, ("a", "zzz"))


def test_positive_region_hand_case(hand_table):
    assert positive_region(hand_table, ("a",), "b") == frozenset({2, 3})


def test_positive_region_target_inside_set(hand_table):
    assert positive_region(hand_table, ("a", "b"), "b") == frozenset({0, 1, 2, 3})


def test_positive_region_empty_attrs(hand_table):
    # b is not constant, so nothing is certain under the whole-universe block
    assert positive_region(hand_table, (), "b") == frozenset()


def test_dependency_hand_case(hand_table):
    got = dependency(hand_table, ("a",), "b")
    assert isinstance(got, Fraction)
    assert got == Fraction(1, 2)
    assert dependency(hand_table, ("a", "b"), "b") == 1
    assert dependency(hand_table, (), "b") == 0


def test_mean_dependency_hand_case(hand_table):
    assert mean_dependency(hand_table, ("a",)) == Fraction(3, 4)
    assert mean_dependency(hand_table, ("a", "b")) == 1
    assert mean_dependency(hand_table, ()) == 0


def test_positive_region_matches_oracle_on_random_tables():
    rng = np.random.default_rng(100)
    for _ in range(40):
        values = random_table_values(rng)
        t = make_table(values)
        n_attr = t.n_attributes
        y = int(rng.integers(0, n_attr))
        size = int(rng.integers(0, n_attr + 1))
        attrs = sorted(rng.choice(n_attr, size=size, replace=False))
        attr_ids = [t.attribute_ids[a] for a in attrs]
        assert positive_region(t, attr_ids, t.attribute_ids[y]) == (
            oracle_positive_region(values, attrs, y)
        )
        assert dependency(t, attr_ids, t.attribute_ids[y]) == (
            oracle_dependency(values, attrs, y)
        )
        assert mean_dependency(t, attr_ids) == oracle_mean_dependency(values, attrs)


@st.composite
def _purity_cases(draw):
    """A table, an attribute subset in table order and a target attribute.

    Constant columns, duplicated columns and duplicated rows are planted
    often, so blocks of every size occur under every subset size.
    """
    n_obj = draw(st.integers(1, 30))
    n_attr = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, draw(st.integers(1, 6)), size=(n_obj, n_attr))
    kind = rng.random(n_attr)
    constant = kind < draw(st.sampled_from([0.0, 0.2, 0.5]))
    values[:, constant] = rng.integers(0, 6, size=int(constant.sum()))
    duplicate = kind > 1 - draw(st.sampled_from([0.0, 0.2, 0.5]))
    values[:, duplicate] = values[:, rng.integers(0, n_attr, size=int(duplicate.sum()))]
    copies = rng.random(n_obj) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    values[copies] = values[rng.integers(0, n_obj, size=int(copies.sum()))]
    attrs = sorted(rng.permutation(n_attr)[: draw(st.integers(0, n_attr))].tolist())
    return values, attrs, draw(st.integers(0, n_attr - 1))


@settings(deadline=None)
@given(_purity_cases())
def test_purity_rule_matches_oracle_on_wide_tables(case):
    values, attrs, y = case
    t = make_table(values)
    attr_ids = [t.attribute_ids[a] for a in attrs]
    rows = values.tolist()
    assert positive_region(t, attr_ids, t.attribute_ids[y]) == (
        oracle_positive_region(rows, attrs, y)
    )
    assert dependency(t, attr_ids, t.attribute_ids[y]) == oracle_dependency(rows, attrs, y)
    assert mean_dependency(t, attr_ids) == oracle_mean_dependency(rows, attrs)


def test_positive_region_monotone_in_attrs():
    rng = np.random.default_rng(101)
    for _ in range(30):
        values = random_table_values(rng)
        t = make_table(values)
        n_attr = t.n_attributes
        size = int(rng.integers(0, n_attr))
        small = sorted(rng.choice(n_attr, size=size, replace=False))
        big = sorted(set(small) | {int(rng.integers(0, n_attr))})
        y = t.attribute_ids[int(rng.integers(0, n_attr))]
        small_ids = [t.attribute_ids[a] for a in small]
        big_ids = [t.attribute_ids[a] for a in big]
        assert positive_region(t, small_ids, y) <= positive_region(t, big_ids, y)


def test_partition_refines_with_more_attrs():
    rng = np.random.default_rng(102)
    for _ in range(20):
        values = random_table_values(rng)
        t = make_table(values)
        coarse = indiscernibility_partition(t, t.attribute_ids[:1])
        fine = indiscernibility_partition(t, t.attribute_ids)
        for block in fine:
            assert any(block <= parent for parent in coarse)


def test_usqr_reaches_full_dependency_exactly():
    rng = np.random.default_rng(103)
    for _ in range(30):
        values = random_table_values(rng)
        t = make_table(values)
        reduct = usqr_reduct(t)
        full = mean_dependency(t, t.attribute_ids)
        assert reduct.final_mean_dependency == full
        assert mean_dependency(t, reduct.selected) == full
        assert len(reduct.trace) <= t.n_attributes
        assert len(reduct.selected) == len(set(reduct.selected))
        means = [r.mean_dependency for r in reduct.trace]
        assert all(b >= a for a, b in zip(means, means[1:]))
        # a non-forced round must strictly improve on its predecessor
        prev = mean_dependency(t, ())
        for r in reduct.trace:
            if not r.forced:
                assert r.mean_dependency > prev
            else:
                assert r.mean_dependency == prev
            prev = r.mean_dependency


@st.composite
def _code_tables(draw):
    n_obj = draw(st.integers(1, 9))
    n_attr = draw(st.integers(1, 6))
    cells = st.integers(0, draw(st.integers(0, 3)))
    rows = st.lists(cells, min_size=n_attr, max_size=n_attr)
    return make_table(np.array(draw(st.lists(rows, min_size=n_obj, max_size=n_obj))))


@given(_code_tables())
def test_usqr_reaches_full_dependency_and_every_round_gains(t):
    reduct = usqr_reduct(t)
    full = mean_dependency(t, t.attribute_ids)
    assert reduct.final_mean_dependency == full
    assert mean_dependency(t, reduct.selected) == full
    prev = mean_dependency(t, ())
    for r in reduct.trace:
        assert r.mean_dependency > prev
        assert not r.forced
        prev = r.mean_dependency


def test_usqr_two_identical_columns_picks_first():
    values = np.array([[0, 0], [1, 1], [2, 2], [0, 0]])
    t = make_table(values)
    reduct = usqr_reduct(t)
    assert reduct.selected == ("a1",)
    assert reduct.final_mean_dependency == 1


def test_usqr_duplicated_attribute_block_stays_proper():
    rng = np.random.default_rng(104)
    for _ in range(10):
        base = rng.integers(0, 3, size=(7, 4))
        values = np.hstack([base, base])
        t = make_table(values)
        reduct = usqr_reduct(t)
        assert len(reduct.selected) < t.n_attributes
        assert reduct.final_mean_dependency == mean_dependency(t, t.attribute_ids)


def test_usqr_all_constant_table_empty_reduct():
    t = make_table(np.full((4, 3), 7))
    reduct = usqr_reduct(t)
    assert reduct.selected == ()
    assert reduct.trace == ()
    assert reduct.final_mean_dependency == 1


def test_usqr_single_informative_attribute():
    t = make_table(np.array([[0], [1], [0]]))
    reduct = usqr_reduct(t)
    assert reduct.selected == ("a1",)
    assert len(reduct.trace) == 1
    assert not reduct.trace[0].forced


def test_usqr_deterministic():
    rng = np.random.default_rng(105)
    values = rng.integers(0, 3, size=(8, 6))
    r1 = usqr_reduct(make_table(values))
    r2 = usqr_reduct(make_table(values))
    assert r1 == r2


def _oracle_case_tables(count, seed):
    """Random tables, many with planted duplicate or constant columns.

    They run from a single object up to 16, with one to four categories, so
    singleton blocks, ties between candidates and wide blocks all occur.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        values = random_table_values(
            rng, max_objects=16, max_attributes=8, categories=int(rng.integers(1, 5))
        )
        values = values[: int(rng.integers(1, len(values) + 1))]
        n_attr = values.shape[1]
        if rng.random() < 0.3:
            values = np.hstack([values, values[:, rng.integers(0, n_attr, size=2)]])
        if rng.random() < 0.3:
            values = np.insert(values, int(rng.integers(0, n_attr + 1)), 5, axis=1)
        yield make_table(values)


def _assert_candidate_ratios(written, want):
    """Every ratio a reader derives from the written trace is the oracle's.

    The oracle reduct scores each candidate on its own; the written round
    names the best candidate, whose ratio is the round's mean dependency.
    """
    for r, w in zip(written["rounds"], want.trace, strict=True):
        assert [Fraction(t, r["denominator"]) for t in r["totals"]] == [
            Fraction(score, w.denominator) for score in w.totals
        ]
        best = max(r["totals"])
        assert r["candidates"][r["totals"].index(best)] == r["attribute"]
        assert Fraction(r["mean_dependency"]["ratio"]) == Fraction(best, r["denominator"])


def test_usqr_matches_per_candidate_oracle_on_random_tables():
    sizes = set()
    for t in _oracle_case_tables(400, seed=110):
        got, want = usqr_reduct(t), oracle_usqr_reduct(t)
        assert got == want
        assert reduct_payload(got) == oracle_reduct_dict(want)
        _assert_candidate_ratios(reduct_payload(got), want)
        sizes.add(t.n_objects)
    assert 1 in sizes and max(sizes) > 8


def _synthetic_table(genes, conditions, seed):
    m, _ = generate_synthetic(genes, conditions, 7, noise=0.3, seed=seed)
    return build_table(discretize(min_max_normalize(drop_incomplete_genes(m))))


def test_usqr_matches_per_candidate_oracle_on_synthetic_800x20():
    t = _synthetic_table(800, 20, seed=1)
    got, want = usqr_reduct(t), oracle_usqr_reduct(t)
    assert got == want
    assert reduct_payload(got) == oracle_reduct_dict(want)
    _assert_candidate_ratios(reduct_payload(got), want)
    assert sum(len(r.candidate_scores) for r in got.trace) == sum(
        t.n_attributes - i for i in range(len(got.trace))
    )


@pytest.mark.parametrize("tile", [1, 3])
def test_usqr_independent_of_candidate_tile(monkeypatch, tile):
    tables = [_synthetic_table(90, 12, seed=2), *_oracle_case_tables(40, seed=111)]
    want = [usqr_reduct(t) for t in tables]
    monkeypatch.setattr(roughset, "_CANDIDATE_TILE", tile)
    assert [usqr_reduct(t) for t in tables] == want


@st.composite
def _round_inputs(draw):
    """Codes, a dense partition and candidates in table order for one round.

    Widths on both sides of each 64-bit word boundary occur, and partitions
    run from one block through random refinements to all singletons.
    """
    n_obj = draw(st.integers(1, 70))
    n_attr = draw(st.sampled_from([63, 64, 65, 128, 129]) | st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, draw(st.integers(1, 6)), size=(n_obj, n_attr))
    shape = draw(st.sampled_from(["one block", "refined", "singletons"]))
    group = np.zeros(n_obj, dtype=np.int64)
    if shape == "singletons":
        group = np.arange(n_obj)
    elif shape == "refined":
        for _ in range(draw(st.integers(1, 4))):
            by_column = draw(st.booleans())
            labels = codes[:, rng.integers(n_attr)] if by_column else rng.integers(0, 3, n_obj)
            group = _oracle_refine(group, labels)
    count = draw(st.integers(1, n_attr))
    candidates = np.sort(rng.permutation(n_attr)[:count])
    return codes, group, candidates


@settings(max_examples=150, deadline=None)
@given(_round_inputs(), st.sampled_from([1, 3, roughset._CANDIDATE_TILE]))
def test_round_totals_match_float_product_oracle(case, tile):
    codes, group, candidates = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roughset, "_CANDIDATE_TILE", tile)
        got = roughset._round_totals(codes, group, candidates)
    assert got.dtype == np.int64
    assert got.tolist() == oracle_round_totals(codes, group, candidates).tolist()


def test_usqr_memory_bounded_at_4000_genes():
    t = _synthetic_table(4000, 20, seed=1)
    tracemalloc.start()
    try:
        usqr_reduct(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_table_codes_rank_each_column():
    rng = np.random.default_rng(112)
    tables = [
        rng.integers(-1, 2, size=(9, 7)),
        rng.normal(size=(6, 5)).round(1),
        np.array([[0.0, -0.0], [-0.0, 1.5], [2.0, 0.0]]),
        np.array([["b", "a"], ["a", "a"], ["c", "b"]]),
        np.zeros((1, 3)),
    ]
    for values in tables:
        t = make_table(values)
        for j in range(values.shape[1]):
            _, want = np.unique(values[:, j], return_inverse=True)
            assert t._codes[:, j].tolist() == want.tolist()


def test_usqr_trace_serialization():
    rng = np.random.default_rng(106)
    t = make_table(rng.integers(0, 3, size=(6, 4)))
    reduct = usqr_reduct(t)
    d = reduct_payload(reduct)
    assert d["selected"] == list(reduct.selected)
    assert d["final_mean_dependency"]["ratio"].count("/") == 1
    columns = {"candidates", "totals", "denominator"}
    for r, full in zip(reduct.trace, d["rounds"], strict=True):
        assert set(full) == {"attribute", "mean_dependency", "forced"} | columns
        assert all(type(v) is int for v in (*full["totals"], full["denominator"]))
        assert round_dict(r) == {k: v for k, v in full.items() if k not in columns}


def test_slim_trace_never_formats_candidate_scores():
    reduct = usqr_reduct(make_table(np.random.default_rng(107).integers(0, 3, size=(6, 4))))
    # candidates and totals that cannot be read: the round's own dict must not touch them
    for r in reduct.trace:
        assert round_dict(dataclasses.replace(r, candidates=None, totals=None)) == round_dict(r)


def _matrix_pair(values):
    m = ExpressionMatrix(
        tuple(f"g{i + 1}" for i in range(values.shape[0])),
        tuple(f"t{j + 1}" for j in range(values.shape[1])),
        values,
    )
    norm = min_max_normalize(m)
    return norm, discretize(norm)


def test_select_genes_returns_submatrix_in_row_order():
    rng = np.random.default_rng(107)
    norm, disc = _matrix_pair(rng.normal(size=(12, 6)))
    reduct, out = select_genes(norm, disc)
    assert set(out.gene_ids) == set(reduct.selected)
    assert set(out.gene_ids) <= set(norm.gene_ids)
    order = [norm.gene_ids.index(g) for g in out.gene_ids]
    assert order == sorted(order)
    for g in out.gene_ids:
        i, o = norm.gene_ids.index(g), out.gene_ids.index(g)
        assert (out.values[o] == norm.values[i]).all()


def test_select_genes_duplicates_drop_against_exhaustive_oracle():
    rng = np.random.default_rng(108)
    base = rng.normal(size=(10, 8))
    values = np.vstack([base, base])  # rows 10..19 duplicate rows 0..9
    norm, disc = _matrix_pair(values)
    _, out = select_genes(norm, disc)
    assert out.n_genes <= 10

    # exhaustive minimal-subset search over the distinct patterns only:
    # a duplicate column partitions objects exactly like its original
    table_values = disc.values.T  # objects are conditions
    unique_attrs = list(range(10))
    full = oracle_mean_dependency(table_values, list(range(20)))
    minimal = None
    for size in range(len(unique_attrs) + 1):
        for subset in combinations(unique_attrs, size):
            if oracle_mean_dependency(table_values, list(subset)) == full:
                minimal = size
                break
        if minimal is not None:
            break
    assert minimal is not None
    assert minimal <= out.n_genes <= 10
    t = build_table(disc)
    assert mean_dependency(t, out.gene_ids) == full


def test_select_genes_without_informative_gene_is_empty_error():
    with pytest.warns(UserWarning, match="constant condition"):
        norm, disc = _matrix_pair(np.ones((4, 3)))
    with pytest.raises(EmptyMatrixError, match="kept no genes"):
        select_genes(norm, disc)


def test_select_genes_id_mismatch():
    rng = np.random.default_rng(109)
    norm, disc = _matrix_pair(rng.normal(size=(5, 4)))
    other = DiscretizedMatrix(
        tuple(f"x{i}" for i in range(5)), disc.condition_ids, disc.values
    )
    with pytest.raises(ValidationError):
        select_genes(norm, other)


def test_information_table_rejects_missing():
    with pytest.raises(ValidationError):
        InformationTable(("o1",), ("a1",), np.array([[np.nan]]))


@pytest.mark.parametrize("objects, attributes, message", [
    (("o1", "o2", "o1"), ("a", "b"), "duplicate object id: 'o1'"),
    (("o1", "o2", "o3"), ("a", "a"), "duplicate attribute id: 'a'"),
    (("o1", "o\r2", "o3"), ("a", "b"), "object id holds a carriage return: 'o\\r2'"),
    (("o1", "o2", "o3"), ("a", "b\r"), "attribute id holds a carriage return: 'b\\r'"),
    (("o1", "o2"), ("a", "b"), "value shape does not match object/attribute ids"),
], ids=["repeated-object", "repeated-attribute", "cr-object", "cr-attribute", "one-short"])
def test_information_table_rejects_bad_ids(objects, attributes, message):
    # the id rule of the matrices, named by the table's own kinds of id, and
    # one object id per row
    with pytest.raises(ValidationError) as err:
        InformationTable(objects, attributes, np.zeros((3, 2), dtype=int))
    assert str(err.value) == message
