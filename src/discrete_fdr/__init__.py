"""Weighted FDR control for discrete, heterogeneous null p-value distributions.

The package provides exact conditional tests that expose their full null
p-value distributions, a metric on discrete CDFs with a grouping algorithm
built on it, a null-proportion estimator adapted to discrete supports, the
weighted step-up FDR procedure with its BH baseline, a Monte Carlo harness,
and a command-line interface.
"""

from .cdf_metric import (
    MetricValue,
    SUPPORT_MATCH_RTOL,
    delta,
    marginal_distance,
    sup_norm_diff,
    support_symmetric_difference_count,
)
from .errors import (
    DegenerateDataError,
    DiscreteFdrError,
    EmptyStudyError,
    GroupingDidNotConvergeError,
    InvalidComparisonError,
    InvalidConfigError,
    InvalidEstimateError,
    InvalidTableError,
    NotApplicableError,
    ParseError,
    SchemaError,
)
from .exact_tests import (
    DiscreteCDF,
    MarginalVector,
    PoissonPair,
    Sidedness,
    binomial_null_distribution,
    binomial_pvalue,
    fet_null_distribution,
    fet_pvalue,
)
from .grouping import (
    GroupingConfig,
    Partition,
    group_by_metric,
    group_by_statistic_quantiles,
    group_from_distances,
    pairwise_delta_matrix,
)
from .io import FilterRule, StudyInput, apply_filter, parse_counts_csv
from .proportion import (
    BINOMIAL_PI0_CONFIG,
    FET_PI0_CONFIG,
    NullSupports,
    Pi0Config,
    Pi0Estimate,
    estimate_pi0,
    groupwise_pi0,
    overall_pi0,
)
from .simulate import (
    Family,
    ScenarioConfig,
    SimulatedStudy,
    StudyResult,
    generate_binomial_scenario,
    generate_poisson_scenario,
    run_study,
)
from .wfdr import (
    RejectionReport,
    WeightedStudy,
    WfdrConfig,
    bh_reject,
    group_weights,
    rejection_threshold,
    theorem1_compare,
    weight_study,
    weighted_pvalues,
    wfdr_reject,
)

__version__ = "0.1.0"
