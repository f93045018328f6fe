"""Covariance-targeted multivariate GARCH estimation and evaluation.

Fits diagonal BEKK(1,1) and two-stage DCC(1,1) models to return panels,
optionally penalizing the likelihood by the Kullback-Leibler distance of the
conditional path from a thresholded-correlation covariance target, then
evaluates fits via path losses and maximal-clique comparison of threshold
correlation graphs.
"""
from .bekk import BekkParams, bekk_filter, bekk_fit, bekk_loglik, bekk_modified_loglik, bekk_simulate
from .cluster import (
    Dendrogram,
    complete_linkage,
    corr_distance,
    cut_tree,
    dendrogram_to_json,
    to_newick,
)
from .data import (
    ReturnPanel,
    SampleMoments,
    correlation_from_series,
    load_panel,
    sample_moments,
    write_returns_csv,
)
from .dcc import (
    CorrPath,
    DccParams,
    Stage1Result,
    dcc_cov_path,
    dcc_filter,
    dcc_fit,
    dcc_modified_loglik,
    dcc_simulate,
    dcc_stage1,
    dcc_stage2_loglik,
    dcc_std_residuals,
)
from .errors import (
    CovTargetError,
    DataError,
    DegenerateSeriesError,
    EstimationError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    NumericalOverflowError,
    ParseError,
    ShapeError,
)
from .garch import (
    Garch11Params,
    garch11_filter,
    garch11_fit,
    garch11_loglik,
)
from .graphs import (
    ThresholdGraph,
    build_graph,
    compare_graphs,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    maximal_cliques,
)
from .linalg import (
    CholFactor,
    cholesky,
    frobenius_path_loss,
    kl_divergence,
    nearest_pd,
    symmetrize,
)
from .optimize import FitReport, OptimizerOptions, StartOutcome, fd_gradient, maximize
from .report import RunConfig, render_text_table, run_evaluation, run_fits
from .targeting import TargetSpec, build_target, threshold_correlation

__version__ = "0.1.0"

__all__ = [
    "BekkParams",
    "CholFactor",
    "CorrPath",
    "CovTargetError",
    "DataError",
    "DccParams",
    "DegenerateSeriesError",
    "Dendrogram",
    "EstimationError",
    "FitReport",
    "Garch11Params",
    "InsufficientDataError",
    "NotPositiveDefiniteError",
    "NumericalOverflowError",
    "OptimizerOptions",
    "ParseError",
    "ReturnPanel",
    "RunConfig",
    "SampleMoments",
    "ShapeError",
    "Stage1Result",
    "StartOutcome",
    "TargetSpec",
    "ThresholdGraph",
    "bekk_filter",
    "bekk_fit",
    "bekk_loglik",
    "bekk_modified_loglik",
    "bekk_simulate",
    "build_graph",
    "build_target",
    "cholesky",
    "compare_graphs",
    "complete_linkage",
    "corr_distance",
    "correlation_from_series",
    "cut_tree",
    "dcc_cov_path",
    "dcc_filter",
    "dcc_fit",
    "dcc_modified_loglik",
    "dcc_simulate",
    "dcc_stage1",
    "dcc_stage2_loglik",
    "dcc_std_residuals",
    "dendrogram_to_json",
    "fd_gradient",
    "frobenius_path_loss",
    "garch11_filter",
    "garch11_fit",
    "garch11_loglik",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_json",
    "kl_divergence",
    "load_panel",
    "maximal_cliques",
    "maximize",
    "nearest_pd",
    "render_text_table",
    "run_evaluation",
    "run_fits",
    "sample_moments",
    "symmetrize",
    "threshold_correlation",
    "to_newick",
    "write_returns_csv",
]
