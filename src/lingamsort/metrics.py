"""Evaluation: ordering error, post-ordering fits, held-out likelihood."""
from __future__ import annotations

import numpy as np

from .model import Dag, DataMatrix, NeighborhoodSets, NoiseFamily, Ordering, WeightedDag
from .regression import RankDeficient, ols_residual
from .scoring import DEGENERATE_MEAN_SQUARE, DegenerateResidual, fit_scale, log_density


def reversed_edge_count(dag: Dag, ordering: Ordering) -> int:
    """Number of edges j -> k whose child k precedes j in the ordering."""
    if ordering.p != dag.p:
        raise ValueError(f"ordering has {ordering.p} nodes, dag has {dag.p}")
    pos = ordering.positions()
    return sum(1 for j, k in dag.edges() if pos[k] < pos[j])


def order_error(dag: Dag, ordering: Ordering) -> float:
    """Fraction of reversed edges, normalized by p^2 (lower is better).

    Zero exactly when the ordering is topological for the dag.
    """
    return reversed_edge_count(dag, ordering) / dag.p**2


def fit_coefficients(
    x: DataMatrix,
    ordering: Ordering,
    nbhd: NeighborhoodSets,
    family: NoiseFamily,
) -> WeightedDag:
    """The OLS model implied by an ordering, as a :class:`WeightedDag`.

    Node k's parents are its regressors: its neighborhood's members that
    precede it in the ordering, ascending, less any with an exactly zero
    coefficient.  Its weights are the OLS coefficients and its scale is the
    family's estimate on the residual.  No p x p array is built.  Requires
    self-standardized data.

    Raises :class:`RankDeficient` for the first node whose regressors are
    collinear; failing that, :class:`DegenerateResidual` for the first node
    that its regressors explain exactly (residual mean square under
    ``DEGENERATE_MEAN_SQUARE``, the bar at which ``sort`` defers a node).
    Both carry the node in ``.node``.
    """
    if not x.standardized:
        raise ValueError("fit_coefficients expects standardized data")
    if ordering.p != x.p or nbhd.p != x.p:
        raise ValueError("ordering / neighborhoods / data disagree on p")
    pos = ordering.positions()
    cols: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, weights) per node
    scales = np.zeros(x.p)  # stays 0 at a degenerate node
    for k in range(x.p):
        candidates = nbhd.sets[k]
        regressors = candidates[pos[candidates] < pos[k]]
        resid, beta = x.values[:, k], np.empty(0)
        if regressors.size:
            try:
                resid, beta = ols_residual(resid, x.values[:, regressors])
            except RankDeficient as exc:
                exc.node = k
                raise
        cols.append((regressors[beta != 0.0], beta[beta != 0.0]))
        if float(resid @ resid) / resid.size >= DEGENERATE_MEAN_SQUARE:
            scales[k] = fit_scale(family, resid)[0]
    if np.any(scales == 0.0):
        raise DegenerateResidual(int(np.flatnonzero(scales == 0.0)[0]))
    dag = Dag(x.p, [pa for pa, _ in cols])
    return WeightedDag(dag, [wt for _, wt in cols], family, scales)


def heldout_loglik(x_test: DataMatrix, model: WeightedDag) -> float:
    """Mean per-observation-per-variable log-likelihood of test residuals.

    Column k's residual is ``x_k - X[:, pa_k] @ w_k`` under ``model``'s
    family and scale k, in O(n (p + nnz)) time.  ``x_test`` must already
    carry the training standardization (training means and sds applied;
    never the test set's own statistics).  The value is comparable across
    density families fitted to the same residuals.
    """
    n, p = x_test.n, x_test.p
    if model.p != p:
        raise ValueError(f"model has {model.p} nodes, test data has {p}")
    total = 0.0
    for k, pa in enumerate(model.dag.parents):
        resid = x_test.values[:, k] - x_test.values[:, list(pa)] @ model.weights[k]
        total += float(np.sum(log_density(model.family, resid, float(model.scales[k]))))
    return total / (n * p)
