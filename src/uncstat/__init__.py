"""Hypothesis tests for multiple uncertain populations.

Belief-degree analogues of classical tests for normal uncertainty
distributions: per-population fitting and self-verification, homogeneity
testing across populations, homogeneous-subgroup discovery, and pooled tests
of a shared parameter against a fixed constant.
"""

from .datasets import DATASETS, dataset_paths
from .errors import ConfigurationError, DataFormatError, DegenerateSampleError, NumericError
from .multi import (
    CrossTests,
    HomogeneityResult,
    PairwiseDecision,
    ParameterCase,
    cross_interval,
    homogeneity_test,
    homogeneous_groups,
    pairwise_test,
    resolve_case,
    ufwer,
)
from .pipeline import (
    RunConfig,
    RunReport,
    emit_plot_data,
    emit_report,
    ingest,
    parse_report,
    run_pipeline,
)
from .pooling import (
    CommonTestResult,
    MergedSample,
    common_test,
    merge,
    merge_group,
    unify_location,
    unify_scale,
)
from .testing import (
    AcceptanceInterval,
    PopulationSample,
    TestDecision,
    acceptance_interval,
    band_quantiles,
    count_outliers,
    fit_and_verify,
    rejection_threshold,
    single_test,
    test_against_interval,
)
from .udist import (
    NormalUncertain,
    cdf,
    check_level,
    fit_moments,
    quantile,
    std_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distribution core
    "NormalUncertain",
    "cdf",
    "quantile",
    "std_quantile",
    "fit_moments",
    "check_level",
    # single-population testing
    "PopulationSample",
    "AcceptanceInterval",
    "TestDecision",
    "band_quantiles",
    "acceptance_interval",
    "count_outliers",
    "rejection_threshold",
    "test_against_interval",
    "single_test",
    "fit_and_verify",
    # multi-population layer
    "ParameterCase",
    "PairwiseDecision",
    "HomogeneityResult",
    "ufwer",
    "cross_interval",
    "CrossTests",
    "pairwise_test",
    "homogeneity_test",
    "homogeneous_groups",
    # pooled tests
    "MergedSample",
    "CommonTestResult",
    "unify_scale",
    "unify_location",
    "merge",
    "merge_group",
    "common_test",
    # pipeline
    "RunConfig",
    "RunReport",
    "ingest",
    "resolve_case",
    "run_pipeline",
    "emit_report",
    "parse_report",
    "emit_plot_data",
    # errors
    "ConfigurationError",
    "DataFormatError",
    "DegenerateSampleError",
    "NumericError",
    # bundled data
    "DATASETS",
    "dataset_paths",
]
