"""Gene expression clustering toolkit.

Pipeline: parse an expression matrix, drop incomplete genes, min-max
normalize per condition, discretize profiles into regulation patterns,
select genes with a rough-set quick reduct, cluster with seeded K-Means and
score the result with silhouettes.
"""

from .clustering import (
    Centroids,
    ClusterAssignment,
    Dataset,
    IterationStats,
    cluster_pipeline,
    ecia_initialize,
    kmeans,
    random_initialize,
)
from .errors import (
    ConfigError,
    EmptyMatrixError,
    GeneClusterError,
    ParseError,
    PipelineError,
    ValidationError,
)
from .evaluation import SilhouetteReport, silhouette_scores
from .matrix import (
    DiscretizedMatrix,
    ExpressionMatrix,
    NormalizationParams,
    discretize,
    drop_incomplete_genes,
    matrix_to_text,
    min_max_normalize,
    parse_matrix,
    read_matrix,
    subset_genes,
    write_matrix,
)
from .pipeline import (
    ClusterRow,
    MultiRunResult,
    PipelineConfig,
    PipelineReport,
    cluster_label,
    run_many,
    run_pipeline,
    select_genes,
)
from .roughset import (
    InformationTable,
    Reduct,
    build_table,
    dependency,
    indiscernibility_partition,
    mean_dependency,
    positive_region,
    usqr_reduct,
)
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "Centroids",
    "ClusterAssignment",
    "ClusterRow",
    "ConfigError",
    "Dataset",
    "DiscretizedMatrix",
    "EmptyMatrixError",
    "ExpressionMatrix",
    "GeneClusterError",
    "InformationTable",
    "IterationStats",
    "MultiRunResult",
    "NormalizationParams",
    "ParseError",
    "PipelineConfig",
    "PipelineError",
    "PipelineReport",
    "Reduct",
    "SilhouetteReport",
    "ValidationError",
    "build_table",
    "cluster_label",
    "cluster_pipeline",
    "dependency",
    "discretize",
    "drop_incomplete_genes",
    "ecia_initialize",
    "generate_synthetic",
    "indiscernibility_partition",
    "kmeans",
    "matrix_to_text",
    "mean_dependency",
    "min_max_normalize",
    "parse_matrix",
    "positive_region",
    "random_initialize",
    "read_matrix",
    "run_many",
    "run_pipeline",
    "select_genes",
    "silhouette_scores",
    "subset_genes",
    "usqr_reduct",
    "write_matrix",
]
