"""Evaluation: ordering error, post-ordering fits, held-out likelihood."""
from __future__ import annotations

import numpy as np

from .model import Dag, DataMatrix, NeighborhoodSets, NoiseFamily, Ordering
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
) -> tuple[np.ndarray, np.ndarray]:
    """OLS coefficients and noise scales implied by an ordering.

    Each node is regressed on the intersection of its neighborhood with its
    predecessors in the ordering; column k of the returned matrix holds the
    coefficients (zero elsewhere) and ``scales[k]`` is the family's scale
    estimate on the final residual.  Requires self-standardized data.

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
    b_hat = np.zeros((x.p, x.p))
    scales = np.empty(x.p)
    degenerate: list[int] = []
    for k in range(x.p):
        candidates = nbhd.sets[k]
        regressors = candidates[pos[candidates] < pos[k]]
        if regressors.size:
            try:
                resid, beta = ols_residual(x.values[:, k], x.values[:, regressors])
            except RankDeficient as exc:
                exc.node = k
                raise
            b_hat[regressors, k] = beta
        else:
            resid = x.values[:, k]
        if float(resid @ resid) / resid.size < DEGENERATE_MEAN_SQUARE:
            degenerate.append(k)
        else:
            scales[k] = fit_scale(family, resid)[0]
    if degenerate:
        raise DegenerateResidual(degenerate[0])
    return b_hat, scales


def heldout_loglik(
    x_test: DataMatrix,
    b_hat: np.ndarray,
    scales_hat: np.ndarray,
    family: NoiseFamily,
) -> float:
    """Mean per-observation-per-variable log-likelihood of test residuals.

    ``x_test`` must already carry the training standardization (training
    means and sds applied; never the test set's own statistics).  The value
    is comparable across density families fitted to the same residuals.
    """
    b_hat = np.asarray(b_hat, dtype=float)
    scales_hat = np.asarray(scales_hat, dtype=float)
    n, p = x_test.n, x_test.p
    if b_hat.shape != (p, p) or scales_hat.shape != (p,):
        raise ValueError("model dimensions do not match the test data")
    resid = x_test.values - x_test.values @ b_hat
    total = 0.0
    for k in range(p):
        total += float(np.sum(log_density(family, resid[:, k], float(scales_hat[k]))))
    return total / (n * p)
