"""Topological ordering of linear non-Gaussian acyclic models.

Estimates a causal ordering from an n x p data matrix by sequentially
appending the node whose regression residual looks most non-Gaussian under
a likelihood-ratio score, plus a synthetic-data harness, neighborhood
construction, and evaluation metrics.
"""
from .model import (
    Dag,
    DataMatrix,
    NeighborhoodSets,
    NoiseFamily,
    Ordering,
    WeightedDag,
    is_topological,
    mixing_matrix,
)
from .neighborhoods import full_neighborhoods, markov_blankets, top_correlated
from .regression import (
    RankDeficient,
    VarianceOverflow,
    ZeroVarianceColumn,
    apply_moments,
    column_moments,
    ols_residual,
    standardize,
)
from .scoring import (
    DegenerateResidual,
    fit_scale,
    laplace_fast_score,
    llr_score,
    log_density,
)
from .simulate import (
    STREAM_GRAPH,
    STREAM_NOISE,
    STREAM_REPLICATE,
    STREAM_SCALES,
    STREAM_SPLIT,
    STREAM_WEIGHTS,
    FromDag,
    LargeSparse,
    SimConfig,
    derive_seed,
    generate_large_sparse_dag,
    rng_stream,
    sample_data,
    sample_dataset,
    sample_model,
    sample_noise,
    sample_weights,
)
from .sorter import SortConfig, SortResult, population_check, sort
from .metrics import fit_coefficients, heldout_loglik, order_error, reversed_edge_count

__all__ = [
    "Dag",
    "DataMatrix",
    "DegenerateResidual",
    "FromDag",
    "LargeSparse",
    "NeighborhoodSets",
    "NoiseFamily",
    "Ordering",
    "RankDeficient",
    "STREAM_GRAPH",
    "STREAM_NOISE",
    "STREAM_REPLICATE",
    "STREAM_SCALES",
    "STREAM_SPLIT",
    "STREAM_WEIGHTS",
    "SimConfig",
    "SortConfig",
    "SortResult",
    "VarianceOverflow",
    "WeightedDag",
    "ZeroVarianceColumn",
    "apply_moments",
    "column_moments",
    "derive_seed",
    "fit_coefficients",
    "fit_scale",
    "full_neighborhoods",
    "generate_large_sparse_dag",
    "heldout_loglik",
    "is_topological",
    "laplace_fast_score",
    "llr_score",
    "log_density",
    "markov_blankets",
    "mixing_matrix",
    "ols_residual",
    "order_error",
    "population_check",
    "reversed_edge_count",
    "rng_stream",
    "sample_data",
    "sample_dataset",
    "sample_model",
    "sample_noise",
    "sample_weights",
    "sort",
    "standardize",
    "top_correlated",
]

__version__ = "0.1.0"
