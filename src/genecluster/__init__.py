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
from .evaluation import (
    SilhouetteReport,
    compact_cluster,
    silhouette_scores,
)
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
from .clustering import IterationStats
from .pipeline import (
    ClusterRow,
    MultiRunResult,
    PipelineConfig,
    PipelineReport,
    cluster_label,
    run_many,
    run_pipeline,
)
from .roughset import (
    InformationTable,
    Partition,
    Reduct,
    build_table,
    dependency,
    indiscernibility_partition,
    mean_dependency,
    positive_region,
    select_genes,
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
    "Partition",
    "PipelineConfig",
    "PipelineError",
    "PipelineReport",
    "Reduct",
    "SilhouetteReport",
    "ValidationError",
    "build_table",
    "cluster_label",
    "cluster_pipeline",
    "compact_cluster",
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
