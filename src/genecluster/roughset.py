"""Rough set machinery and unsupervised quick-reduct gene selection.

Conditions act as objects and genes as categorical attributes.  Dependency
degrees are kept as exact fractions so the stopping rule of the reduct
search is an exact equality, never a float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyMatrixError, ValidationError
from .matrix import ExpressionMatrix, subset_genes


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
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape != (
            len(self.object_ids),
            len(self.attribute_ids),
        ):
            raise ValidationError("value shape does not match object/attribute ids")
        if len(set(self.object_ids)) != len(self.object_ids):
            raise ValidationError("object ids must be unique")
        if len(set(self.attribute_ids)) != len(self.attribute_ids):
            raise ValidationError("attribute ids must be unique")
        if values.dtype.kind == "f" and np.isnan(values).any():
            raise ValidationError("table has missing entries")
        values = values.copy()
        values.setflags(write=False)
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


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint non-empty blocks of object indices, covering every object."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "blocks",
            tuple(sorted((frozenset(b) for b in self.blocks), key=min)),
        )

    @property
    def n_blocks(self):
        return len(self.blocks)


def _refine(group_ids, col_codes):
    key = group_ids * (int(col_codes.max()) + 1) + col_codes
    _, inv = np.unique(key, return_inverse=True)
    return inv.astype(np.int64)


def _group_ids(table, attr_positions):
    """Dense block ids of the partition by the given attribute positions."""
    _, inv = np.unique(
        table._codes[:, list(attr_positions)], axis=0, return_inverse=True
    )
    return inv.reshape(-1)


def _pure_counts(table, group_ids):
    """For every attribute y: number of objects whose block is constant in y."""
    order = np.argsort(group_ids, kind="stable")
    codes = table._codes[order]
    g = group_ids[order]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    lo = np.minimum.reduceat(codes, starts, axis=0)
    hi = np.maximum.reduceat(codes, starts, axis=0)
    sizes = np.diff(np.append(starts, len(g)))
    return sizes @ (lo == hi)


def indiscernibility_partition(table, attrs):
    """Partition of the objects into blocks agreeing on every given attribute.

    An empty attribute set cannot tell any two objects apart, so it yields
    the single whole-universe block.
    """
    g = _group_ids(table, table.attribute_indices(attrs))
    blocks = {}
    for obj, gid in enumerate(g):
        blocks.setdefault(int(gid), []).append(obj)
    return Partition(tuple(frozenset(b) for b in blocks.values()))


def positive_region(table, attrs, target):
    """Objects certainly classifiable into a target-attribute class.

    Union of the attrs-partition blocks lying entirely inside one block of
    the target attribute's partition.
    """
    g = _group_ids(table, table.attribute_indices(attrs))
    (y,) = table.attribute_indices([target])
    y_codes = table._codes[:, y]
    region = []
    for gid in np.unique(g):
        members = np.flatnonzero(g == gid)
        if np.all(y_codes[members] == y_codes[members[0]]):
            region.extend(int(i) for i in members)
    return frozenset(region)


def dependency(table, attrs, target):
    """Fraction of objects in the positive region, as an exact rational."""
    return Fraction(len(positive_region(table, attrs, target)), table.n_objects)


def _mean_dependency_from_groups(table, group_ids):
    total = int(_pure_counts(table, group_ids).sum())
    return Fraction(total, table.n_objects * table.n_attributes)


def mean_dependency(table, attrs):
    """Average dependency of every attribute (including members of attrs) on attrs."""
    return _mean_dependency_from_groups(
        table, _group_ids(table, table.attribute_indices(attrs))
    )


@dataclass(frozen=True)
class ReductRound:
    """One accepted round of the greedy search.

    The score of candidate candidates[i] is its pure total totals[i] over
    denominator; the ratios are made only when the trace is written.
    """

    attribute: str
    mean_dependency: Fraction
    forced: bool
    candidates: tuple
    totals: tuple
    denominator: int

    @property
    def candidate_scores(self):
        """(attribute, pure total) of every candidate scored in the round."""
        return tuple(zip(self.candidates, self.totals))

    def to_dict(self, include_candidate_scores=True):
        out = {
            "attribute": self.attribute,
            "mean_dependency": _fraction_dict(self.mean_dependency),
            "forced": self.forced,
        }
        if include_candidate_scores:
            totals = np.array(self.totals, dtype=np.int64)
            g = np.gcd(totals, self.denominator)
            out["candidate_scores"] = [
                {"attribute": a, "ratio": f"{t}/{d}", "value": t / d}
                for a, t, d in zip(
                    self.candidates, (totals // g).tolist(), (self.denominator // g).tolist()
                )
            ]
        return out


@dataclass(frozen=True)
class Reduct:
    selected: tuple
    trace: tuple
    final_mean_dependency: Fraction

    def to_dict(self, include_candidate_scores=True):
        return {
            "selected": list(self.selected),
            "rounds": [r.to_dict(include_candidate_scores) for r in self.trace],
            "final_mean_dependency": _fraction_dict(self.final_mean_dependency),
        }


def _fraction_dict(f):
    return {"ratio": f"{f.numerator}/{f.denominator}", "value": float(f)}


# Candidates scored per matrix product in a reduct round.  It bounds the
# round's temporaries to O(_CANDIDATE_TILE * attributes) floats, never
# attributes**2, whatever the table width.
_CANDIDATE_TILE = 64


def _round_totals(codes, group, candidates):
    """Pure total of the partition refined by each candidate attribute.

    The pure total of a partition is the number of (object, attribute) pairs
    whose block is constant in that attribute; over n_objects * n_attributes
    it is the mean dependency.  group holds dense block ids and candidates
    attribute positions; entry i refines group by candidates[i].

    Refining a block by j splits it into sub-blocks of equal j values, and
    every member of a sub-block is pure in the same attributes: those in
    which no member differs from the first one.  For each member o of a
    block, take the candidates for which o is the first of its sub-block;
    one product of o's agree mask (members x those candidates) with its
    differ mask (members x attributes) counts the members agreeing on j and
    differing on y for every (j, y) at once, and the zero entries are the
    pure attributes of the sub-block.  The counts are integers no larger
    than the block, exact in float32 for blocks under 2**24 objects.  A
    singleton block is pure in every attribute whatever the candidate.
    """
    n_attr = codes.shape[1]
    block_size = np.bincount(group)
    totals = np.full(len(candidates), n_attr * int((block_size == 1).sum()), np.int64)
    for b in np.flatnonzero(block_size > 1):
        members = codes[group == b]
        for i, row in enumerate(members):
            agree = members == row
            firsts = np.flatnonzero(~agree[:i, candidates].any(axis=0))
            agree_cand = agree[:, candidates[firsts]]
            sub_size = agree_cand.sum(axis=0)
            agree_cand = agree_cand.astype(np.float32)
            differ = (~agree).astype(np.float32)
            for lo in range(0, len(firsts), _CANDIDATE_TILE):
                tile = slice(lo, lo + _CANDIDATE_TILE)
                violations = agree_cand[:, tile].T @ differ
                pure = np.count_nonzero(violations == 0, axis=1)
                totals[firsts[tile]] += sub_size[tile] * pure
    return totals


def usqr_reduct(table):
    """Greedy forward attribute selection by mean dependency.

    Starting from the empty set, each round adds the candidate attribute
    maximizing the mean dependency of all attributes on the enlarged set;
    ties go to the earliest attribute in table order.  When no candidate
    improves the mean (a plateau) the best tied candidate is still added,
    flagged as forced, so the search always progresses.  The search stops
    as soon as the mean dependency equals that of the full attribute set,
    which takes at most one round per attribute.

    Every mean dependency has the denominator n_objects * n_attributes, so
    the search compares integer pure totals, and each round keeps its
    candidates' totals as integers.  Each round scores all remaining
    candidates in one pass of _round_totals.  For C objects, G attributes
    and at most V distinct values per attribute (V = 3 for a discretized
    matrix) a round costs O(C * V * G**2) arithmetic in
    O(B * G + _CANDIDATE_TILE * G) memory, B being the largest block of the
    current partition.
    """
    codes = table._codes
    n_obj, n_attr = codes.shape
    target = int(_pure_counts(table, _group_ids(table, range(n_attr))).sum())
    group = np.zeros(n_obj, dtype=np.int64)
    current = int(_pure_counts(table, group).sum())
    denominator = n_obj * n_attr
    remaining = np.arange(n_attr)
    trace = []
    while current != target:
        totals = _round_totals(codes, group, remaining)
        best = int(np.argmax(totals))  # the first maximum: earliest in table order
        j = int(remaining[best])
        forced = int(totals[best]) == current
        current = int(totals[best])
        trace.append(
            ReductRound(
                table.attribute_ids[j], Fraction(current, denominator), forced,
                tuple(map(table.attribute_ids.__getitem__, remaining.tolist())),
                tuple(totals.tolist()), denominator,
            )
        )
        group = _refine(group, codes[:, j])
        remaining = np.delete(remaining, best)
    selected = tuple(r.attribute for r in trace)
    return Reduct(selected, tuple(trace), Fraction(current, denominator))


def build_table(d):
    """Information table of a discretized matrix: conditions become the objects
    and genes the attributes (the matrix transposed)."""
    return InformationTable(d.condition_ids, d.gene_ids, d.values.T)


def kept_genes(reduct):
    """Gene ids a reduct keeps; EmptyMatrixError when it keeps none."""
    if not reduct.selected:
        raise EmptyMatrixError("gene selection kept no genes (no informative attribute)")
    return reduct.selected


def select_genes(m, d):
    """Restrict a normalized matrix to the genes its discretized form keeps.

    The reduct is computed on the discretized table; the surviving genes are
    returned as rows of the continuous matrix m, in m's original row order.
    """
    if m.gene_ids != d.gene_ids or m.condition_ids != d.condition_ids:
        raise ValidationError("matrix and discretized matrix must share ids")
    return subset_genes(m, kept_genes(usqr_reduct(build_table(d))))
