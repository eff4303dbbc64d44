"""Candidate neighborhood construction.

The sorter only ever regresses a node on members of its neighborhood that
are already ordered, so neighborhoods bound both the statistical and the
computational work.  Three constructions are provided: oracle Markov
blankets from a known DAG, the top-m most correlated columns from held-out
data, and the trivial everything-but-self sets.
"""
from __future__ import annotations

import numpy as np

from .model import Dag, DataMatrix, NeighborhoodSets, column_moments

_CHUNK = 128  # columns per block: about 2 MB of strengths at p = 2000


def markov_blankets(dag: Dag) -> NeighborhoodSets:
    """Parents, children, and co-parents of every node, excluding itself."""
    sets: list[set[int]] = [set(dag.parents[k]) | set(dag.children[k]) for k in range(dag.p)]
    for k in range(dag.p):
        for child in dag.children[k]:
            sets[k].update(dag.parents[child])
        sets[k].discard(k)
    return NeighborhoodSets([sorted(s) for s in sets])


def top_correlated(x_holdout: DataMatrix, m: int) -> NeighborhoodSets:
    """For each column, the m most |Pearson|-correlated other columns.

    Ties break toward the lower index; zero-variance columns correlate as 0
    with everything, and a column whose variance overflows raises
    :class:`lingamsort.model.VarianceOverflow`.  Works blockwise so
    the full p x p correlation matrix is never materialized.  Per column,
    ``np.partition`` finds the m-th largest strength; the set is every
    column strictly above it plus the lowest-index columns equal to it, up
    to m.
    """
    n, p = x_holdout.n, x_holdout.p
    if not 0 < m < p:
        raise ValueError("need 0 < m < p")
    if n < 3:
        raise ValueError("holdout needs at least 3 rows")
    values = x_holdout.values
    mean, sd = column_moments(values)
    safe = np.where(sd > 0, sd, 1.0)
    z = (values - mean) / safe
    z[:, sd == 0] = 0.0
    sets: list[np.ndarray] = []
    for start in range(0, p, _CHUNK):
        stop = min(start + _CHUNK, p)
        # |clip(corr, -1, 1)|, one row per column start..stop-1
        strength = np.divide((z.T @ z[:, start:stop]).T, n, order="C")
        np.abs(strength, out=strength)
        np.minimum(strength, 1.0, out=strength)
        cols = np.arange(stop - start)
        strength[cols, start + cols] = -np.inf
        kth = np.partition(strength, p - m, axis=1)[:, p - m, None]
        above = strength > kth
        tied = strength == kth
        room = m - np.count_nonzero(above, axis=1)[:, None]
        keep = above | (tied & (np.cumsum(tied, axis=1) <= room))
        sets.extend(np.flatnonzero(row) for row in keep)
    return NeighborhoodSets(sets)


def full_neighborhoods(p: int) -> NeighborhoodSets:
    """Every node neighbors every other node."""
    if p < 1:
        raise ValueError("p must be positive")
    idx = np.arange(p)
    return NeighborhoodSets([np.delete(idx, k) for k in range(p)])
