"""Exact evidence, BIC-style scores, and evidence-slope effective dimension
for linear-Gaussian rank and dictionary models."""

from ._linalg import NumericalError, numerical_rank
from .dictionary import (
    DictionaryComparison,
    DictionaryDataset,
    DictionarySpec,
    DictionaryStatistics,
    dict_log_likelihood,
    dictionary_comparison,
    gram_spectrum,
    make_dictionary_pair,
    marginal_covariance,
    ml_fit_term,
    sample_dictionary_data,
    sample_dictionary_statistics,
)
from .evidence import (
    EvidenceRecord,
    GaussianLinearProblem,
    PosteriorGaussian,
    SufficientStatistics,
    bic_score,
    evidence_record,
    exact_log_evidence,
    full_laplace_log_evidence,
    mle_fit_term,
    posterior,
    rlct_score,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    StudyResult,
    run_study,
    summarize,
    write_study_outputs,
)
from .linear_models import (
    DataGenConfig,
    RankRegressionSpec,
    RegressionDataset,
    make_rank_r_factor,
    make_spec,
    population_gram,
    sample_dataset,
    sample_statistics,
)
from .oracle import (
    OracleError,
    importance_log_evidence,
    quadrature_log_evidence,
)
from .rlct import (
    SlopeFit,
    analytic_rlct,
    estimate_rlct_from_slope,
    fit_log_n_slope,
    predicted_bic_error_slope,
)

__version__ = "0.1.0"
