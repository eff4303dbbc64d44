"""Topological ordering of linear non-Gaussian acyclic models.

Estimates a causal ordering from an n x p data matrix by sequentially
appending the node whose regression residual looks most non-Gaussian under
a likelihood-ratio score, plus a synthetic-data harness, neighborhood
construction, and evaluation metrics.

The package exports the names that README and the acceptance suite use;
every other public name is imported from its submodule.
"""
from .model import (
    Dag,
    DataMatrix,
    NoiseFamily,
    Ordering,
    WeightedDag,
    apply_moments,
    column_moments,
    standardize,
)
from .neighborhoods import full_neighborhoods, markov_blankets, top_correlated
from .scoring import fit_scale, laplace_fast_score, llr_score
from .simulate import (
    LargeSparse,
    SimConfig,
    derive_seed,
    rng_stream,
    sample_data,
    sample_dataset,
    sample_model,
    sample_noise,
    sample_weights,
)
from .sorter import sort
from .metrics import fit_coefficients, heldout_loglik, is_topological, order_error

__all__ = [
    "Dag",
    "DataMatrix",
    "LargeSparse",
    "NoiseFamily",
    "Ordering",
    "SimConfig",
    "WeightedDag",
    "apply_moments",
    "column_moments",
    "derive_seed",
    "fit_coefficients",
    "fit_scale",
    "full_neighborhoods",
    "heldout_loglik",
    "is_topological",
    "laplace_fast_score",
    "llr_score",
    "markov_blankets",
    "order_error",
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
