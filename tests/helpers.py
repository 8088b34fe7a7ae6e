"""Shared fixtures and independent oracles for the test suite.

The oracles recompute expected values from first principles (pairwise loops,
per-block loops, exhaustive subset search) and never touch the library's own
partition or distance machinery, so agreement is meaningful: the rough-set
oracles import only the result containers Reduct and ReductRound, and they
read a table's values, never its integer codes.
"""

import csv
import io
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from genecluster import ExpressionMatrix
from genecluster.errors import ParseError, ValidationError
from genecluster.matrix import (
    GENES_AS_ROWS,
    MISSING_OUTPUT_TOKEN,
    ORIENTATIONS,
    DiscretizedMatrix,
    _parse_cell,
    parse_matrix,
)
from genecluster.roughset import Reduct, ReductRound


def bump_matrix(genes=300, conditions=17):
    """Flat unit profiles, each raised by 2 at a single condition.

    Discretized, every gene isolates at most two conditions, so reproducing
    the full-table partition takes at least (conditions - 1) / 2 genes: with
    17 conditions the selected gene count is always >= 8, which keeps the
    default k of 7 feasible after selection.
    """
    values = np.ones((genes, conditions))
    for i in range(genes):
        values[i, 1 + i % (conditions - 1)] += 2.0
    return ExpressionMatrix(
        tuple(f"g{i + 1:04d}" for i in range(genes)),
        tuple(f"t{j + 1:02d}" for j in range(conditions)),
        values,
    )


def random_table_values(rng, max_objects=8, max_attributes=6, categories=3):
    n_obj = int(rng.integers(2, max_objects + 1))
    n_attr = int(rng.integers(1, max_attributes + 1))
    return rng.integers(0, categories, size=(n_obj, n_attr))


def oracle_blocks(values, attrs):
    """Indiscernibility blocks by direct pairwise comparison."""
    n = len(values)
    blocks = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        block = [i]
        assigned[i] = True
        for j in range(i + 1, n):
            if not assigned[j] and all(values[j][a] == values[i][a] for a in attrs):
                block.append(j)
                assigned[j] = True
        blocks.append(frozenset(block))
    return blocks


def oracle_positive_region(values, attrs, y):
    region = set()
    for block in oracle_blocks(values, attrs):
        if len({values[i][y] for i in block}) == 1:
            region |= block
    return frozenset(region)


def oracle_dependency(values, attrs, y):
    return Fraction(len(oracle_positive_region(values, attrs, y)), len(values))


def oracle_mean_dependency(values, attrs):
    n_attr = len(values[0])
    total = sum(oracle_dependency(values, attrs, y) for y in range(n_attr))
    return total / n_attr


def oracle_euclidean_distance(x, y):
    """Plain Euclidean distance between two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.sqrt(((x - y) ** 2).sum()))


def oracle_pairwise_distances(points, others=None):
    """Full n x n distance matrix (n x m against m others) from the whole
    difference array."""
    points = np.asarray(points, dtype=float)
    others = points if others is None else np.asarray(others, dtype=float)
    diff = points[:, None, :] - others[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def block_budget(rows, cols):
    """The _BLOCK_BYTES at which the first block of block_distances against
    cols columns holds exactly rows rows: a block keeps 16 bytes per pair
    in three quarters of the budget."""
    return -(-rows * cols * 16 * 4 // 3)


def tile_budget(rows, cols, dims):
    """The _BLOCK_BYTES at which a tile of the first block of
    block_distances against cols columns of dims coordinates holds exactly
    rows rows: each of the two fillers' difference buffers is an eighth of
    the budget.  The block then holds 3 * dims * rows rows (fewer if the
    points run out).  With one row and cols below the block's width, a
    tile is a run of cols columns of one row."""
    return rows * cols * dims * 8 * 8


def oracle_silhouette(points, labels):
    """Naive double-loop silhouette scores."""
    points = np.asarray(points, dtype=float)
    labels = list(labels)
    n = len(points)

    def dist(i, j):
        return float(np.sqrt(((points[i] - points[j]) ** 2).sum()))

    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(dist(i, j) for j in own) / len(own)
        b = None
        for c in sorted(set(labels)):
            if c == labels[i]:
                continue
            members = [j for j in range(n) if labels[j] == c]
            if members:
                mean = sum(dist(i, j) for j in members) / len(members)
                if b is None or mean < b:
                    b = mean
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return scores


def oracle_assign(points, centroids):
    """Nearest centroid from the full n x k distance array.

    This is the unblocked assignment the library's row-block version
    replaced; labels and distances must match it bit for bit.
    """
    diff = points[:, None, :] - centroids[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    labels = dist.argmin(axis=1)  # argmin takes the lowest index on ties
    nearest = dist[np.arange(len(points)), labels]
    return labels, nearest


def oracle_kmeans(points, init, mode="exact", max_iters=100):
    """K-Means over oracle_assign with its own centroid update and WCSS.

    This is the two-branch loop the library's single pass replaced.  Exact
    mode reassigns every point; shortcut mode lets a point keep its label
    when its distance to its own new centroid is <= its stored nearest
    distance and reassigns only the others.  A shortcut pass audits each
    point as a (distance to own new centroid, stored nearest, kept) tuple.

    Returns (labels, nearest, centroids, wcss, iterations, converged,
    history), where history holds (iteration, wcss, label_changes,
    shortcut_kept, audit) per pass and entry 0 is the initial assignment.
    """
    points = np.asarray(points, dtype=float)
    centroids = np.array(init, dtype=float)

    def update(labels):
        new = centroids.copy()
        for j in range(len(centroids)):
            members = labels == j
            if members.any():
                new[j] = points[members].mean(axis=0)
        return new  # an emptied cluster keeps its previous centroid

    def wcss(labels):
        return float(((points - centroids[labels]) ** 2).sum())

    labels, nearest = oracle_assign(points, centroids)
    history = [(0, wcss(labels), len(points), 0, None)]
    iterations = 0
    converged = False
    for it in range(1, max_iters + 1):
        iterations = it
        centroids = update(labels)
        if mode == "exact":
            new_labels, new_nearest = oracle_assign(points, centroids)
            kept = 0
            audit = None
        else:
            own = np.sqrt(((points - centroids[labels]) ** 2).sum(axis=1))
            keep = own <= nearest
            new_labels = labels.copy()
            new_nearest = nearest.copy()
            new_nearest[keep] = own[keep]
            if not keep.all():
                moved = ~keep
                new_labels[moved], new_nearest[moved] = oracle_assign(
                    points[moved], centroids
                )
            kept = int(keep.sum())
            audit = tuple(
                (float(o), float(prev), bool(kpt))
                for o, prev, kpt in zip(own, nearest, keep)
            )
        changes = int((new_labels != labels).sum())
        labels, nearest = new_labels, new_nearest
        history.append((it, wcss(labels), changes, kept, audit))
        if changes == 0:
            converged = True
            break
    return labels, nearest, centroids, history[-1][1], iterations, converged, history


class OracleSilhouette(NamedTuple):
    """The fields a SilhouetteReport holds, with the compact cluster stored."""

    per_point: tuple
    per_cluster: tuple
    global_mean: float
    compact_cluster: int


def oracle_silhouette_scores(d, labels, k):
    """Silhouette report from the full n x n distance matrix.

    This is the unblocked silhouette the library's row-block version
    replaced: each point's mean distance to a cluster is `.mean(axis=1)` of
    a column gather of the distance matrix, which numpy adds one member at
    a time in ascending point order.  Reports must match it bit for bit.
    The compact cluster is the first one whose mean is the highest.
    """
    labels = np.asarray(labels)
    if len(labels) != d.n_points:
        raise ValidationError("assignment does not label every point")
    members = [np.flatnonzero(labels == j) for j in range(k)]
    occupied = [j for j in range(k) if len(members[j])]
    if len(occupied) < 2:  # no between-cluster distance: no silhouette
        return None
    diff = d.points[:, None, :] - d.points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
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
    means = [mean for _, _, mean in per_cluster]
    return OracleSilhouette(
        per_point=per_point,
        per_cluster=per_cluster,
        global_mean=float(scores.mean()),
        compact_cluster=per_cluster[means.index(max(means))][0],
    )


def table_ids(values):
    n_obj, n_attr = np.asarray(values).shape
    return (
        tuple(f"o{i + 1}" for i in range(n_obj)),
        tuple(f"a{j + 1}" for j in range(n_attr)),
    )


def oracle_round_totals(codes, group, candidates):
    """Pure total of the partition refined by each candidate, by float32 products.

    This is the round scorer the library's packed-bit one replaced.  For
    each member o of a block, take the candidates for which o is the first
    of its sub-block; one product of o's agree mask (members x those
    candidates) with its differ mask (members x attributes) counts the
    members agreeing on j and differing on y for every (j, y) at once, and
    the zero entries are the pure attributes of the sub-block.  The counts
    are integers no larger than the block, exact in float32 for blocks
    under 2**24 objects.
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
            violations = agree_cand.astype(np.float32).T @ (~agree).astype(np.float32)
            pure = np.count_nonzero(violations == 0, axis=1)
            totals[firsts] += agree_cand.sum(axis=0) * pure
    return totals


def _oracle_refine(group, column):
    """Dense block ids of the partition group refined by one column's values."""
    pairs = np.stack([group, column], axis=1)
    return np.unique(pairs, axis=0, return_inverse=True)[1].reshape(-1)


def _oracle_pure_total(values, group):
    """Sum over blocks of |block| times the attributes equal to the first member's."""
    total = 0
    for b in np.unique(group):
        block = values[group == b]
        total += len(block) * int((block == block[0]).all(axis=0).sum())
    return total


def oracle_usqr_reduct(table):
    """Greedy forward attribute selection by mean dependency, one candidate at a time.

    This is the per-candidate loop the library's round scorer replaced; it
    refines the partition by each candidate and sums its pure counts, all
    over the table's values rather than the library's codes.

    Starting from the empty set, each round adds the candidate attribute
    maximizing the mean dependency of all attributes on the enlarged set;
    ties go to the earliest attribute in table order.  The search stops as
    soon as the pure total equals that of the partition by every attribute.
    """
    values = table.values
    n_attr = table.n_attributes
    denominator = table.n_objects * n_attr
    _, full = np.unique(values, axis=0, return_inverse=True)
    target = _oracle_pure_total(values, full.reshape(-1))
    group = np.zeros(table.n_objects, dtype=np.int64)
    current = _oracle_pure_total(values, group)
    selected = []
    remaining = list(range(n_attr))
    trace = []
    while current != target:
        best_pos = None
        best_group = None
        best_score = None
        scores = []
        for j in remaining:
            g = _oracle_refine(group, values[:, j])
            score = _oracle_pure_total(values, g)
            scores.append((table.attribute_ids[j], score))
            if best_score is None or score > best_score:
                best_pos, best_group, best_score = j, g, score
        selected.append(table.attribute_ids[best_pos])
        remaining.remove(best_pos)
        group = best_group
        current = best_score
        trace.append(
            ReductRound(
                table.attribute_ids[best_pos], current,
                tuple(a for a, _ in scores), tuple(s for _, s in scores), denominator,
            )
        )
    assert selected == [r.attribute for r in trace]
    return Reduct(tuple(trace))


def _oracle_fraction_dict(f):
    return {"ratio": f"{f.numerator}/{f.denominator}", "value": float(f)}


def oracle_reduct_dict(reduct):
    """A reduct's trace as reduct.json holds it, built field by field.

    Each round's mean dependency is written from its Fraction; each
    candidate keeps its integer pure total over the round's denominator.
    """
    return {
        "selected": list(reduct.selected),
        "rounds": [
            {
                "attribute": r.attribute,
                "mean_dependency": _oracle_fraction_dict(Fraction(r.total, r.denominator)),
                "forced": False,
                "candidates": list(r.candidates),
                "totals": list(r.totals),
                "denominator": r.denominator,
            }
            for r in reduct.trace
        ],
        "final_mean_dependency": _oracle_fraction_dict(Fraction(1)),
    }


def oracle_parse_matrix(text, orientation=GENES_AS_ROWS, delimiter="\t"):
    """Parse delimited text cell by cell, every record read before any is checked.

    This is the parser the library's row-at-a-time one replaced.  Its line
    numbers count records, which equals the file line for every file
    without a quoted multi-line field.
    """
    if orientation not in ORIENTATIONS:
        raise ValidationError(f"unknown orientation: {orientation!r}")
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [(i + 1, row) for i, row in enumerate(reader) if row]
    if not rows:
        raise ParseError("empty input: no header row")
    header_no, header = rows[0]
    if len(header) < 2:
        raise ParseError("header must contain at least one column id", line=header_no)
    col_ids = tuple(h.strip() for h in header[1:])
    if "" in col_ids:
        field = col_ids.index("") + 2
        raise ParseError(f"header field {field}: empty column id", line=header_no)
    row_ids = []
    data = []
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=line_no
            )
        row_id = row[0].strip()
        if not row_id:
            raise ParseError("empty row id", line=line_no)
        row_ids.append(row_id)
        data.append(
            [
                _parse_cell(field, line_no, col_ids[j])
                for j, field in enumerate(row[1:])
            ]
        )
    if not data:
        raise ParseError("no data rows after the header")
    values = np.array(data, dtype=float)
    infinite = np.argwhere(np.isinf(values))
    if len(infinite):
        r, c = infinite[0]
        line_no, row = rows[1 + r]
        raise ParseError(
            f"column {col_ids[c]!r}: not a finite number: {row[1 + c].strip()!r}",
            line=line_no,
        )
    if orientation == GENES_AS_ROWS:
        return ExpressionMatrix(tuple(row_ids), col_ids, values)
    return ExpressionMatrix(col_ids, tuple(row_ids), values.T)


def oracle_parse_discretized(text, delimiter="\t"):
    """Parse delimited text whose entries must all be -1, 0 or +1."""
    m = parse_matrix(text, GENES_AS_ROWS, delimiter)
    if not m.is_complete:
        raise ValidationError("discretized matrix cannot have missing entries")
    codes = m.values
    if not (codes == np.rint(codes)).all():
        raise ValidationError("discretized entries must be integers")
    return DiscretizedMatrix(m.gene_ids, m.condition_ids, codes.astype(np.int8))


def _oracle_format_cell(v, integral):
    if integral:
        return str(int(v))
    if math.isnan(v):
        return MISSING_OUTPUT_TOKEN
    return repr(float(v))


def oracle_matrix_to_text(m, delimiter="\t"):
    """Render a matrix to delimited text one cell at a time.

    This is the writer the library's row-at-a-time one replaced.
    """
    integral = isinstance(m, DiscretizedMatrix)
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["id", *m.condition_ids])
    for gid, row in zip(m.gene_ids, m.values):
        writer.writerow([gid, *(_oracle_format_cell(v, integral) for v in row)])
    return out.getvalue()
