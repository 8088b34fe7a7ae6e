"""Synthetic expression matrices with planted gene clusters."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, wrong_type
from .matrix import ExpressionMatrix


def generate_synthetic(
    genes, conditions, planted_clusters, noise=0.0, missing_fraction=0.0, seed=0
):
    """Matrix of well-separated gene groups plus noise and missing entries.

    Gene i belongs to group i mod planted_clusters.  Group centers sit at
    increasing distance from the origin with gaps much wider than the noise,
    so the planted partition is recoverable.  Everything is drawn from one
    seeded generator; equal arguments give identical output.  Returns the
    matrix and the planted group label of every gene.
    """
    names = ("genes", "conditions", "planted_clusters", "seed")
    for name, value in zip(names, (genes, conditions, planted_clusters, seed)):
        if wrong_type(value, int):
            raise ValidationError(f"{name} must be an int, got {value!r}")
    if genes < 1 or conditions < 1:
        raise ValidationError("need at least one gene and one condition")
    if not 1 <= planted_clusters <= genes:
        raise ValidationError(
            f"planted_clusters={planted_clusters} must be between 1 and genes={genes}"
        )
    if not (math.isfinite(noise) and noise >= 0):
        raise ValidationError(f"noise must be a finite number >= 0, got {noise}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if not 0 <= missing_fraction < 1:
        raise ValidationError("missing_fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    labels = np.arange(genes) % planted_clusters
    centers = rng.uniform(0.5, 1.5, size=(planted_clusters, conditions))
    centers += 3.0 * np.arange(planted_clusters)[:, None]
    values = centers[labels]
    if noise > 0:
        values = values + rng.normal(0.0, noise, size=(genes, conditions))
        if not np.isfinite(values).all():
            raise ValidationError(f"noise={noise} makes some values overflow to infinity")
    else:
        values = values.copy()
    if missing_fraction > 0:
        mask = rng.random((genes, conditions)) < missing_fraction
        values[mask] = np.nan
    gene_ids = tuple(f"g{i + 1:04d}" for i in range(genes))
    condition_ids = tuple(f"t{j + 1:02d}" for j in range(conditions))
    return ExpressionMatrix(gene_ids, condition_ids, values), labels
