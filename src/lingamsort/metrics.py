"""Evaluation: ordering error, post-ordering fits, held-out likelihood."""
from __future__ import annotations

import numpy as np

from .model import PIVOT_RTOL, Dag, DataMatrix, NeighborhoodSets, NoiseFamily, Ordering, WeightedDag
from .scoring import DEGENERATE_MEAN_SQUARE, DegenerateResidual, fit_scale, log_density

# Bytes of the columns of one stack of chains that ``fit_coefficients``
# hands to ``ols_residual``; the QR's working copies and the residuals take
# two to three times as much again.
STACK_BYTES = 2 << 20


class RankDeficient(ValueError):
    """The regression design matrix is numerically rank deficient."""

    def __init__(self, message: str = "design matrix is rank deficient",
                 node: int | None = None):
        super().__init__(message)
        self.node = node


def reversed_edge_count(dag: Dag, ordering: Ordering) -> int:
    """Number of edges j -> k whose child k precedes j in the ordering."""
    if ordering.p != dag.p:
        raise ValueError(f"ordering has {ordering.p} nodes, dag has {dag.p}")
    pos = ordering.positions()
    child = np.repeat(np.arange(dag.p), dag.parent_sets.sizes)
    return int(np.count_nonzero(pos[child] < pos[dag.parent_sets.members]))


def is_topological(dag: Dag, ordering: Ordering) -> bool:
    """True iff every edge j -> k has j positioned before k in ``ordering``."""
    return reversed_edge_count(dag, ordering) == 0


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
    precede it in the ordering, less any with an exactly zero coefficient.
    Its weights are the OLS coefficients and its scale is the family's
    estimate on the residual.  No p x p array is built.  Requires data
    that :func:`lingamsort.model.standardize` made.

    The regressions run along chains (:func:`_chains`): with full
    neighborhoods the whole ordering is one chain, whose one QR gives every
    node's fit.  Chains of one width and member count go through
    :func:`ols_residual` in stacks of at most ``STACK_BYTES`` of columns.

    Raises :class:`RankDeficient` for the lowest-index node whose regressors
    are collinear (a regressor's pivot under ``PIVOT_RTOL`` * n, the
    regressors taken in ordering order); failing that,
    :class:`DegenerateResidual` for the lowest-index node that its
    regressors explain exactly (residual mean square under
    ``DEGENERATE_MEAN_SQUARE``, the bar at which ``sort`` defers a node).
    Both carry the node in ``.node``.
    """
    if not x.standardized:
        raise ValueError("fit_coefficients expects standardized data")
    if ordering.p != x.p or nbhd.p != x.p:
        raise ValueError("ordering / neighborhoods / data disagree on p")
    n, p = x.n, x.p
    groups: dict[tuple[int, int], list[list[int]]] = {}
    for columns, lead in _chains(ordering, nbhd):
        groups.setdefault((len(columns), lead), []).append(columns)
    rank_floor = PIVOT_RTOL * n
    bar = DEGENERATE_MEAN_SQUARE * n
    collinear: list[int] = []
    degenerate: list[int] = []
    parents: list[np.ndarray | None] = [None] * p  # every node is one chain's member
    weights: list[np.ndarray | None] = [None] * p
    scales = np.zeros(p)
    rows = x.values.T
    for (w, lead), chains in groups.items():
        per = max(1, STACK_BYTES // (8 * n * w))
        for lo in range(0, len(chains), per):
            cols = np.array(chains[lo:lo + per], dtype=np.int64)
            z = rows.take(cols.ravel(), axis=0).reshape(len(cols), w, n)
            pivots, coef, resid = ols_residual(z, lead, bar)
            # a low pivot at column t makes every later column's regressors collinear
            low = np.logical_or.accumulate(pivots < rank_floor, axis=1)
            low_before = np.zeros_like(low)
            low_before[:, 1:] = low[:, :-1]
            members = cols[:, lead:]
            collinear.extend(members[low_before[:, lead:]].tolist())
            degenerate.extend(members[~low_before[:, lead:] & (pivots[:, lead:] < bar)].tolist())
            if coef is None or collinear or degenerate:
                continue  # the fit is refused below
            _store_fits(cols, lead, coef, parents, weights)
            scales[members] = fit_scale(family, resid)[0]
    if collinear:
        raise RankDeficient(node=min(collinear))
    if degenerate:
        raise DegenerateResidual(min(degenerate))
    return WeightedDag(Dag(p, parents), weights, family, scales)


def _store_fits(cols: np.ndarray, lead: int, coef: np.ndarray,
                parents: list, weights: list) -> None:
    """Store the parents and weights of every member of a stack of chains.

    Member j of chain i, at column t = lead + j, has the regressors
    ``cols[i, :t]`` and the coefficients -``coef[i, j, :t]``; its parents
    are those regressors in node order, less any with a zero coefficient.
    Each column t is sorted, gathered and checked for zeros once for the
    whole stack.
    """
    for j, t in enumerate(range(lead, cols.shape[1])):
        order = np.argsort(cols[:, :t], axis=1)
        nodes = np.take_along_axis(cols[:, :t], order, axis=1)
        beta = -np.take_along_axis(coef[:, j, :t], order, axis=1)
        keep = beta != 0.0
        kept_all = keep.all(axis=1).tolist()
        for k, pa, wt, kp, whole in zip(cols[:, t].tolist(), nodes, beta, keep, kept_all):
            parents[k], weights[k] = (pa, wt) if whole else (pa[kp], wt[kp])


def _chains(ordering: Ordering, nbhd: NeighborhoodSets) -> list[tuple[list[int], int]]:
    """The ordering cut into chains of nested regressor sets.

    Node k's regressors S_k are its neighbors that precede it, in ordering
    order.  Walking the ordering, k joins the current chain, as its next
    column, when S_k is exactly the chain's columns; otherwise a new chain
    starts with S_k followed by k.  Returns (columns, lead) per chain: its
    members are ``columns[lead:]``, and the member at column t is regressed
    on ``columns[:t]``.
    """
    pos = ordering.positions()
    chains: list[tuple[list[int], int]] = []
    for k in ordering.perm:
        s = nbhd.sets[k]
        s = s[pos[s] < pos[k]]
        s = s[np.argsort(pos[s])].tolist()
        if chains and chains[-1][0] == s:
            chains[-1][0].append(k)
        else:
            chains.append((s + [k], len(s)))
    return chains


def ols_residual(z: np.ndarray, lead: int,
                 floor: float) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Least squares along a stack of chains of nested regressor sets.

    ``z`` is c x w x n: chain i's w columns, one per row, as a ``take`` of
    rows of ``x.T`` gives them.  Column t of a chain is regressed on the
    chain's columns before it.  One Householder QR per chain, Z = QR
    (Golub & Van Loan, *Matrix Computations* 5.2), gives every column's
    pivot R[t, t]^2: its residual sum of squares on columns 0..t-1.  A
    column past the n-th has pivot 0.

    When every pivot is at least ``floor`` (> 0), the inverse V = R^-1
    gives the regressions of columns ``lead``..w-1 at once: column t of V
    divided by V[t, t] is (-beta_t, 1, 0, ...), and Z times it is column
    t's residual.  Returns (pivots, coef, resid): pivots c x w; coef
    c x m x w, m = w - lead, whose row j is that vector for column
    lead + j; resid = coef @ z, c x m x n.  Under the floor, coef and
    resid are None.
    """
    c, w, n = z.shape
    r = np.linalg.qr(z.transpose(0, 2, 1), mode="r")
    pivots = np.zeros((c, w))
    pivots[:, :min(n, w)] = np.diagonal(r, axis1=1, axis2=2) ** 2
    if pivots.min() < floor:
        return pivots, None, None
    v = np.linalg.inv(r)
    coef = (v[:, :, lead:] / np.diagonal(v, axis1=1, axis2=2)[:, None, lead:]).transpose(0, 2, 1)
    return pivots, coef, coef @ z


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
        resid = x_test.values[:, k] - x_test.values[:, pa] @ model.weights[k]
        total += float(np.sum(log_density(model.family, resid, float(model.scales[k]))))
    return total / (n * p)
