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


def _encode_column(col):
    _, inv = np.unique(col, return_inverse=True)
    return inv.astype(np.int64)


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
        codes = np.empty(values.shape, dtype=np.int64)
        for j in range(values.shape[1]):
            codes[:, j] = _encode_column(values[:, j])
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
    g = np.zeros(table.n_objects, dtype=np.int64)
    for j in attr_positions:
        g = _refine(g, table._codes[:, j])
    return g


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
    """One accepted round of the greedy search."""

    attribute: str
    mean_dependency: Fraction
    forced: bool
    candidate_scores: tuple

    def to_dict(self):
        return {
            "attribute": self.attribute,
            "mean_dependency": _fraction_dict(self.mean_dependency),
            "forced": self.forced,
            "candidate_scores": [
                {"attribute": a, **_fraction_dict(s)} for a, s in self.candidate_scores
            ],
        }


@dataclass(frozen=True)
class Reduct:
    selected: tuple
    trace: tuple
    final_mean_dependency: Fraction

    def to_dict(self, include_candidate_scores=True):
        rounds = [r.to_dict() for r in self.trace]
        if not include_candidate_scores:
            for r in rounds:
                del r["candidate_scores"]
        return {
            "selected": list(self.selected),
            "rounds": rounds,
            "final_mean_dependency": _fraction_dict(self.final_mean_dependency),
        }


def _fraction_dict(f):
    return {"ratio": f"{f.numerator}/{f.denominator}", "value": float(f)}


def usqr_reduct(table):
    """Greedy forward attribute selection by mean dependency.

    Starting from the empty set, each round adds the candidate attribute
    maximizing the mean dependency of all attributes on the enlarged set;
    ties go to the earliest attribute in table order.  When no candidate
    improves the mean (a plateau) the best tied candidate is still added,
    flagged as forced, so the search always progresses.  The search stops
    as soon as the mean dependency equals that of the full attribute set,
    which takes at most one round per attribute.
    """
    n_attr = table.n_attributes
    target = _mean_dependency_from_groups(table, _group_ids(table, range(n_attr)))
    group = np.zeros(table.n_objects, dtype=np.int64)
    current = _mean_dependency_from_groups(table, group)
    selected = []
    remaining = list(range(n_attr))
    trace = []
    while current != target:
        best_pos = None
        best_group = None
        best_score = None
        scores = []
        for j in remaining:
            g = _refine(group, table._codes[:, j])
            score = _mean_dependency_from_groups(table, g)
            scores.append((table.attribute_ids[j], score))
            if best_score is None or score > best_score:
                best_pos, best_group, best_score = j, g, score
        forced = best_score == current
        selected.append(table.attribute_ids[best_pos])
        remaining.remove(best_pos)
        group = best_group
        current = best_score
        trace.append(
            ReductRound(table.attribute_ids[best_pos], current, forced, tuple(scores))
        )
    return Reduct(tuple(selected), tuple(trace), current)


def build_table(d):
    """Information table of a discretized matrix: conditions become the objects
    and genes the attributes (the matrix transposed)."""
    return InformationTable(d.condition_ids, d.gene_ids, d.values.T)


def select_genes(m, d):
    """Restrict a normalized matrix to the genes its discretized form keeps.

    The reduct is computed on the discretized table; the surviving genes are
    returned as rows of the continuous matrix m, in m's original row order.
    """
    if m.gene_ids != d.gene_ids or m.condition_ids != d.condition_ids:
        raise ValidationError("matrix and discretized matrix must share ids")
    reduct = usqr_reduct(build_table(d))
    if not reduct.selected:
        raise EmptyMatrixError("gene selection kept no genes (no informative attribute)")
    return subset_genes(m, reduct.selected)
