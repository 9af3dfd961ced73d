"""Correlation structure analyses for gene expression matrices.

The library groups into five layers:

* data model: loading, validating, and writing log-scale matrices
  (:mod:`deltaseq.datamodel`);
* descriptive statistics: all-pairs correlation and Fisher z summaries
  (:mod:`deltaseq.corrstats`);
* structure: variance ordering, consecutive-pair increment rows, additive
  dependence tests on pairs and triples (:mod:`deltaseq.ordering`,
  :mod:`deltaseq.dependence`);
* inference: the exact two-sample rank distribution and expected false
  positive control (:mod:`deltaseq.kstest`, :mod:`deltaseq.mtp`);
* study harnesses and data synthesis (:mod:`deltaseq.experiments`,
  :mod:`deltaseq.synth`).
"""

__version__ = "0.1.0"

from .corrstats import (
    CorrelationSummary,
    Histogram,
    ZSummary,
    all_pairs_summary,
    fisher_z,
    pearson,
    z_summary,
)
from .datamodel import (
    ExpressionMatrix,
    NoiseModel,
    load_matrix,
    log_transform,
    matrix_to_tsv,
    save_matrix,
    select_arrays,
)
from .dependence import (
    PairCensus,
    TripleCensus,
    TripleCovarianceModel,
    TripleStats,
    TypeAResult,
    positive_increment_threshold,
    sharp_positive_increment_threshold,
    triple_census,
    triple_stats,
    type_a_census,
    type_a_test,
    type_a_triple_consistency,
)
from .errors import (
    DegenerateInputError,
    DeltaseqError,
    DomainError,
    ParseError,
    ResourceError,
    StateError,
    ValidationError,
)
from .experiments import (
    ConsistencyTrajectory,
    ExceedanceResult,
    ExperimentReport,
    InjectionConfig,
    NullSplitResult,
    StabilityReport,
    cross_phenotype_exceedance,
    effect_injection_experiment,
    jackknife_stability,
    moving_mean_consistency,
    null_split_experiment,
    two_sample_screen,
)
from .kstest import (
    EDF,
    ExactCdfTable,
    KSResult,
    StepFunction,
    kolmogorov_distance,
    ks_exact_cdf,
    ks_exact_pvalue,
    ks_exact_pvalue_exact,
    ks_statistic,
    ks_test,
    mean_of_edfs,
)
from .mtp import RejectionReport, confusion_counts, extended_bonferroni
from .ordering import (
    DeltaMatrix,
    GeneOrdering,
    delta_sequence,
    even_rank_genes,
    variance_ordering,
)
from .synth import (
    ChainSpec,
    add_noise,
    generate_chain_matrix,
    generate_null_matrix,
)

__all__ = [
    "__version__",
    "CorrelationSummary", "Histogram", "ZSummary",
    "all_pairs_summary", "fisher_z", "pearson", "z_summary",
    "ExpressionMatrix", "NoiseModel",
    "load_matrix", "log_transform", "matrix_to_tsv", "save_matrix", "select_arrays",
    "PairCensus", "TripleCensus", "TripleCovarianceModel", "TripleStats", "TypeAResult",
    "positive_increment_threshold", "sharp_positive_increment_threshold",
    "triple_census", "triple_stats", "type_a_census", "type_a_test", "type_a_triple_consistency",
    "DegenerateInputError", "DeltaseqError", "DomainError", "ParseError",
    "ResourceError", "StateError", "ValidationError",
    "ConsistencyTrajectory", "ExceedanceResult", "ExperimentReport",
    "InjectionConfig", "NullSplitResult", "StabilityReport",
    "cross_phenotype_exceedance", "effect_injection_experiment",
    "jackknife_stability", "moving_mean_consistency", "null_split_experiment",
    "two_sample_screen",
    "EDF", "ExactCdfTable", "KSResult", "StepFunction",
    "kolmogorov_distance", "ks_exact_cdf", "ks_exact_pvalue",
    "ks_exact_pvalue_exact", "ks_statistic", "ks_test", "mean_of_edfs",
    "RejectionReport", "confusion_counts", "extended_bonferroni",
    "DeltaMatrix", "GeneOrdering",
    "delta_sequence", "even_rank_genes", "variance_ordering",
    "ChainSpec", "add_noise", "generate_chain_matrix", "generate_null_matrix",
]
