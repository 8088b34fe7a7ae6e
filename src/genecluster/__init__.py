"""Gene expression clustering toolkit.

Pipeline: parse an expression matrix, drop incomplete genes, min-max
normalize per condition, discretize profiles into regulation patterns,
select genes with a rough-set quick reduct, cluster with seeded K-Means and
score the result with silhouettes.

Each submodule is imported on first use of one of its names (PEP 562), so
`import genecluster` loads none of them and a caller pays only for the
layers it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_SOURCES = {
    "Centroids": "clustering",
    "ClusterAssignment": "clustering",
    "ClusterRow": "pipeline",
    "ConfigError": "errors",
    "Dataset": "clustering",
    "DiscretizedMatrix": "matrix",
    "EmptyMatrixError": "errors",
    "ExpressionMatrix": "matrix",
    "GeneClusterError": "errors",
    "InformationTable": "roughset",
    "IterationStats": "clustering",
    "MultiRunResult": "pipeline",
    "NormalizationParams": "matrix",
    "ParseError": "errors",
    "PipelineConfig": "pipeline",
    "PipelineError": "errors",
    "PipelineReport": "pipeline",
    "Reduct": "roughset",
    "SilhouetteReport": "evaluation",
    "ValidationError": "errors",
    "build_table": "roughset",
    "cluster_label": "pipeline",
    "cluster_pipeline": "clustering",
    "dependency": "roughset",
    "discretize": "matrix",
    "drop_incomplete_genes": "matrix",
    "ecia_initialize": "clustering",
    "generate_synthetic": "synthetic",
    "indiscernibility_partition": "roughset",
    "kmeans": "clustering",
    "matrix_to_text": "matrix",
    "mean_dependency": "roughset",
    "min_max_normalize": "matrix",
    "parse_matrix": "matrix",
    "positive_region": "roughset",
    "random_initialize": "clustering",
    "read_matrix": "matrix",
    "run_many": "pipeline",
    "run_pipeline": "pipeline",
    "select_genes": "pipeline",
    "silhouette_scores": "evaluation",
    "subset_genes": "matrix",
    "usqr_reduct": "roughset",
    "write_matrix": "matrix",
}

__all__ = list(_SOURCES)


def __getattr__(name):
    """Import the submodule behind a public or submodule name; keep the value."""
    if name in _SOURCES:
        value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    elif name in _SOURCES.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SOURCES.values()})
