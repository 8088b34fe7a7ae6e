"""The array rule of errors.py at every site that takes an array in."""

import numpy as np
import pytest

from genecluster import (
    Centroids,
    ClusterAssignment,
    Dataset,
    DiscretizedMatrix,
    ExpressionMatrix,
    InformationTable,
    IterationStats,
    ValidationError,
    silhouette_scores,
)
from genecluster.errors import frozen_array

RAGGED = [[1.0, 0.0], [0.0]]
TEXT = [["a", "b"], ["c", "d"]]
_HISTORY = (IterationStats(0.0, 2, None),)
_SITES = {
    "expression": (lambda v: ExpressionMatrix(("g1", "g2"), ("t1", "t2"), v), "values"),
    "discretized": (lambda v: DiscretizedMatrix(("g1", "g2"), ("t1", "t2"), v), "values"),
    "dataset": (lambda v: Dataset(("a", "b"), v), "points"),
    "centroids": (lambda v: Centroids(v, "ecia"), "vectors"),
    "labels": (
        lambda v: ClusterAssignment(v, (0.0, 0.0), Centroids([[0.0]], "ecia"), _HISTORY),
        "labels",
    ),
    "nearest-dist": (
        lambda v: ClusterAssignment((0, 0), v, Centroids([[0.0]], "ecia"), _HISTORY),
        "nearest_dist",
    ),
    "table": (lambda v: InformationTable(("o1", "o2"), ("a", "b"), v), "values"),
    "silhouette-labels": (
        lambda v: silhouette_scores(Dataset(("a", "b"), [[0.0], [1.0]]), v, 2), "labels",
    ),
}
# a text matrix is refused as codes, a table's values are categorical (text
# is a category), and text labels are refused as not integers
_TEXT_SITES = sorted(set(_SITES) - {"discretized", "table", "silhouette-labels"})


@pytest.mark.parametrize(
    "site, values",
    [(s, RAGGED) for s in _SITES] + [(s, TEXT) for s in _TEXT_SITES],
    ids=[f"{s}-ragged" for s in _SITES] + [f"{s}-text" for s in _TEXT_SITES],
)
def test_unconvertible_input_is_a_validation_error_naming_its_field(site, values):
    make, field = _SITES[site]
    with pytest.raises(ValidationError, match=f"^bad '{field}': "):
        make(values)


def test_frozen_array_is_a_new_read_only_copy():
    source = [[1, 2], [3, 4]]
    arr = frozen_array(source, float, "values")
    assert arr.dtype == float and not arr.flags.writeable
    again = frozen_array(arr, None, "values")
    assert not np.shares_memory(again, arr) and not again.flags.writeable
    assert again.tolist() == [[1.0, 2.0], [3.0, 4.0]]
