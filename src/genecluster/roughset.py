"""Rough set machinery and unsupervised quick-reduct gene selection.

Conditions act as objects and genes as categorical attributes.  Dependency
degrees are exact fractions; the reduct search compares their integer
numerators over one denominator, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, bad_id, frozen_array


def _encode_columns(values):
    """Dense rank of every entry within its column: equal values share a code."""
    order = np.argsort(values, axis=0)
    ranked = np.take_along_axis(values, order, axis=0)
    starts = np.ones(values.shape, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    codes = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(codes, order, np.cumsum(starts, axis=0) - 1, axis=0)
    return codes


@dataclass(frozen=True, eq=False)
class InformationTable:
    """Objects-by-attributes table of categorical values, compared by equality."""

    object_ids: tuple
    attribute_ids: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "object_ids", tuple(self.object_ids))
        object.__setattr__(self, "attribute_ids", tuple(self.attribute_ids))
        values = frozen_array(self.values, None, "values")
        if values.ndim != 2 or values.shape != (
            len(self.object_ids),
            len(self.attribute_ids),
        ):
            raise ValidationError("value shape does not match object/attribute ids")
        if fault := bad_id(self.object_ids, "object") or bad_id(self.attribute_ids, "attribute"):
            raise ValidationError(fault[1])
        if values.dtype.kind == "f" and np.isnan(values).any():
            raise ValidationError("table has missing entries")
        object.__setattr__(self, "values", values)
        # integer recoding per attribute; all set operations run on these
        codes = _encode_columns(values)
        codes.setflags(write=False)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(
            self, "_attr_index", {a: j for j, a in enumerate(self.attribute_ids)}
        )

    @property
    def n_objects(self):
        return len(self.object_ids)

    @property
    def n_attributes(self):
        return len(self.attribute_ids)

    def attribute_indices(self, attrs):
        """Positions of the given attribute ids, in table order."""
        idx = []
        for a in attrs:
            if a not in self._attr_index:
                raise KeyError(f"unknown attribute id: {a!r}")
            idx.append(self._attr_index[a])
        return tuple(sorted(set(idx)))


def _group_ids(table, attr_positions):
    """Dense block ids of the partition by the given attribute positions."""
    _, inv = np.unique(
        table._codes[:, list(attr_positions)], axis=0, return_inverse=True
    )
    return inv.reshape(-1)


def _pure(codes, group):
    """objects x attributes: is the object's block constant in the attribute?

    group holds dense block ids; each block's min and max of every column
    are taken over a sort by block and gathered back to its members.
    """
    order = np.argsort(group, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.diff(group[order], prepend=-1))
    lo = np.minimum.reduceat(sorted_codes, starts, axis=0)
    hi = np.maximum.reduceat(sorted_codes, starts, axis=0)
    return (lo == hi)[group]


def indiscernibility_partition(table, attrs):
    """Tuple of the frozenset blocks of objects agreeing on every given attribute.

    An empty attribute set cannot tell any two objects apart, so it yields
    the single whole-universe block.
    """
    g = _group_ids(table, table.attribute_indices(attrs))
    blocks = {}
    for obj, gid in enumerate(g):  # ascending: a block is first seen at its smallest member
        blocks.setdefault(int(gid), []).append(obj)
    return tuple(frozenset(b) for b in blocks.values())


def positive_region(table, attrs, target):
    """Objects certainly classifiable into a target-attribute class.

    Union of the attrs-partition blocks lying entirely inside one block of
    the target attribute's partition.
    """
    g = _group_ids(table, table.attribute_indices(attrs))
    (y,) = table.attribute_indices([target])
    return frozenset(np.flatnonzero(_pure(table._codes[:, [y]], g)[:, 0]).tolist())


def dependency(table, attrs, target):
    """Fraction of objects in the positive region, as an exact rational."""
    return Fraction(len(positive_region(table, attrs, target)), table.n_objects)


def mean_dependency(table, attrs):
    """Average dependency of every attribute (including members of attrs) on attrs."""
    pure = _pure(table._codes, _group_ids(table, table.attribute_indices(attrs)))
    return Fraction(int(pure.sum()), table.n_objects * table.n_attributes)


@dataclass(frozen=True)
class ReductRound:
    """One accepted round of the greedy search.

    total is the pure total the round reaches and totals[i] that of
    candidates[i], all over denominator.
    """

    attribute: str
    total: int
    candidates: tuple
    totals: tuple
    denominator: int
    # every round strictly gains (usqr_reduct); perfbench/spans.py counts
    # forced rounds, and the report schema and pins hold "forced": false
    forced = False

    @property
    def mean_dependency(self):
        return Fraction(self.total, self.denominator)

    @property
    def candidate_scores(self):
        """(attribute, pure total) of every candidate scored in the round."""
        return tuple(zip(self.candidates, self.totals))


@dataclass(frozen=True)
class Reduct:
    trace: tuple  # ReductRound of every accepted round, in order
    # the search ends only when every object's block is pure in every attribute
    final_mean_dependency = Fraction(1)

    @property
    def selected(self):
        return tuple(r.attribute for r in self.trace)


# Candidates scored per tile of a round.  It bounds the round's temporaries
# to O(_CANDIDATE_TILE * objects * (largest block + attributes / 8)) bytes,
# never attributes**2, whatever the table width.
_CANDIDATE_TILE = 128


def _round_totals(codes, group, candidates):
    """Pure total of the partition refined by each candidate attribute.

    The pure total of a partition is the number of (object, attribute) pairs
    whose block is constant in that attribute; over n_objects * n_attributes
    it is the mean dependency.  group holds dense block ids and candidates
    attribute positions; entry i refines group by candidates[i].

    Refining a block by j splits it into sub-blocks of equal j values, and
    every member of a sub-block is pure in the same attributes: those in
    which no member differs from the first one.  Once per round, for every
    object o and every position k of o's block, the attributes in which the
    k-th member differs from o are packed into ceil(G / 64) uint64 words
    (padding bits stay zero).  For each candidate j and each object o that
    is the first of its sub-block by j, the OR of its members' words holds
    the impure attributes, so G minus its popcount is the sub-block's pure
    count, and every member adds it.  The arithmetic is integer bit logic,
    exact for any block size.  A singleton block is pure in every attribute
    whatever the candidate.
    """
    n_attr = codes.shape[1]
    block_size = np.bincount(group)
    totals = np.full(len(candidates), n_attr * int((block_size == 1).sum()), np.int64)
    objs = np.flatnonzero(block_size[group] > 1)
    if not len(objs):
        return totals
    # each block becomes one run of rows, its members in table order; the
    # codes are non-negative, so the narrowest unsigned dtype keeps them apart
    objs = objs[np.argsort(group[objs], kind="stable")]
    codes, group = codes[objs].astype(np.min_scalar_type(codes.max())), group[objs]
    rows = np.arange(len(objs))
    start = np.searchsorted(group, group)
    size = block_size[group]
    width = int(size.max())
    k = np.arange(width)
    inside = k < size[:, None]
    # member[o, k]: row of the k-th member of o's block; past the block's end, o itself
    member = np.where(inside, start[:, None] + k, rows[:, None])
    earlier = k < (rows - start)[:, None]
    words = -(-n_attr // 64)
    differ = np.zeros((len(objs), width, 8 * words), np.uint8)
    for i in range(width):
        bits = np.packbits(codes[member[:, i]] != codes, axis=1, bitorder="little")
        differ[:, i, : bits.shape[1]] = bits
    differ = differ.view(np.uint64)
    for lo in range(0, len(candidates), _CANDIDATE_TILE):
        c = codes[:, candidates[lo : lo + _CANDIDATE_TILE]]
        agree = np.empty((len(objs), width, c.shape[1]), bool)
        for i in range(width):
            np.equal(c[member[:, i]], c, out=agree[:, i])
        agree &= inside[:, :, None]
        # (o, j) with no earlier member of o's block agreeing on j
        o, j = np.nonzero(~(agree & earlier[:, :, None]).any(axis=1))
        in_sub = agree[o, :, j]
        impure = np.zeros((len(o), words), np.uint64)
        for i in range(1, width):  # member 0 is o itself or outside its sub-block
            p = np.flatnonzero(in_sub[:, i])
            impure[p] |= differ[o[p], i]
        pure = n_attr - np.bitwise_count(impure).sum(axis=1, dtype=np.int64)
        np.add.at(totals, lo + j, in_sub.sum(axis=1) * pure)
    return totals


def usqr_reduct(table):
    """Greedy forward attribute selection by mean dependency.

    Starting from the empty set, each round adds the candidate attribute
    maximizing the mean dependency of all attributes on the enlarged set;
    ties go to the earliest attribute in table order.  The search stops
    when the mean dependency is 1, that of the full attribute set: its
    blocks of identical rows are constant in every attribute.  Refining by
    a candidate that is not constant in every current block makes it pure
    for more objects, and if every remaining candidate were constant in
    every block the partition would already be the full one; so each round
    strictly gains, and there is at most one round per attribute.

    Every mean dependency has the one denominator n_objects * n_attributes,
    so the search compares integer pure totals and each round keeps them as
    integers.  Each round scores all remaining candidates in one pass of
    _round_totals.  For C objects and G attributes a round costs
    O(C * B * G + C * G * G / 64) operations in O(C * B * G / 64 +
    _CANDIDATE_TILE * C * G / 64) words plus C * B * _CANDIDATE_TILE
    booleans, B being the largest block of the current partition.
    """
    codes = table._codes
    chosen, trace = [], []  # the attribute positions and rounds accepted so far
    current = int(_pure(codes, _group_ids(table, chosen)).sum())
    remaining = np.arange(codes.shape[1])
    while current != codes.size:
        totals = _round_totals(codes, _group_ids(table, chosen), remaining)
        best = int(np.argmax(totals))  # the first maximum: earliest in table order
        j = int(remaining[best])
        current = int(totals[best])
        trace.append(
            ReductRound(
                table.attribute_ids[j], current,
                tuple(map(table.attribute_ids.__getitem__, remaining.tolist())),
                tuple(totals.tolist()), codes.size,
            )
        )
        chosen.append(j)
        remaining = np.delete(remaining, best)
    return Reduct(tuple(trace))


def build_table(d):
    """Information table of a discretized matrix: conditions become the objects
    and genes the attributes (the matrix transposed)."""
    return InformationTable(d.condition_ids, d.gene_ids, d.values.T)

