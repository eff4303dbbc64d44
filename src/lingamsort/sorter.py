"""Sequential topological-ordering estimation.

At each step the unsorted node whose current residual looks most
non-Gaussian (highest likelihood-ratio score) is appended to the ordering.
A node's residual is its standardized column regressed, jointly and by
least squares, on the standardized columns of its neighbors among the
already-sorted set.  Every unsorted node's residual is kept current: when
the selected node ``sel`` is appended, each unsorted k with ``sel`` in its
neighborhood gains one regressor, and its residual is updated by one step
of an incremental Cholesky factorization of the Gram matrix of k's sorted
neighbors, :func:`lingamsort.regression.partial_update`, which keeps each
factor as its inverse W = L^-1 so that no step solves a triangular system.
Nodes whose sorted-neighbor sets are equal share one factor.
``update_count`` counts the length-n inner products spent on these
updates, as the :mod:`lingamsort.regression` docstring sets out.

Each step works on blocks of columns.  The nodes that gain ``sel`` are
grouped by factor; each group costs one ``partial_update`` and one
rank-one update of its residual columns, and every node the step touched
is rescored by one block call of :func:`lingamsort.scoring.llr_score`.
Blocks are cut into chunks of at most ``BLOCK_BYTES``, so that no n x p
temporary is built.

``sort`` adds one n x p array to the caller's data, the column-major
``r`` of :class:`lingamsort.regression.ResidualState`: an unsorted node's
column holds its current residual and a sorted node's column its
standardized values, which are all a regressor needs.

Ties in the argmax break toward the lowest node index so runs are
reproducible.  Degenerate residuals (a node perfectly explained by sorted
neighbors) score -inf, which defers them behind every finite-scored
candidate, and are reported in the result diagnostics.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import (
    GAUSSIAN,
    DataMatrix,
    NeighborhoodSets,
    NoiseFamily,
    Ordering,
    WeightedDag,
    is_topological,
)
from .neighborhoods import markov_blankets
from .regression import ResidualState, partial_update, standardize
from .scoring import llr_score
from .simulate import sample_data

# Largest residual block, in bytes, that one update or scoring call touches.
BLOCK_BYTES = 2 << 20


@dataclass
class SortConfig:
    """Options for one sorting run; ``trace`` records every step's scores."""

    family: NoiseFamily
    neighborhoods: NeighborhoodSets
    trace: bool = False


@dataclass
class SortResult:
    ordering: Ordering
    update_count: int
    wall_time: float
    step_scores: list[list[tuple[int, float]]] | None = None
    diagnostics: dict = field(default_factory=dict)


def sort(x: DataMatrix, cfg: SortConfig) -> SortResult:
    """Order all nodes, keeping exact joint-OLS residuals by Cholesky updates.

    Node k's residual is its standardized column regressed on the
    standardized columns Z_k of its sorted neighbors S_k.  When ``sel`` is
    appended, every unsorted k with ``sel`` in N(k) (found through a reverse
    index built once) takes ``sel`` into S_k::

        c = Z_k' x_sel,  beta = W_k'(W_k c),  u = x_sel - Z_k beta,  delta = u'u
        r_k <- r_k - (u'r_k / delta) u,  W_k gains the row (-beta', 1) / sqrt(delta)

    where W_k = L_k^-1 is the inverse lower Cholesky factor of Z_k'Z_k,
    and k is rescored; other scores stay cached, since theirs are the only
    residuals that did not change.  Nodes with equal S_k share one factor,
    and (u, delta) is computed once per factor and step; when S_k equals
    S_sel, u is r_sel itself.  The K nodes on one factor are updated as a
    block, ``R_K <- R_K - u (u'R_K) / delta``, and every node the step
    touched is rescored by one block call of ``llr_score`` per chunk of at
    most ``BLOCK_BYTES``; step 0 scores all p columns so.  A regressor
    with ``delta <= PIVOT_RTOL * n`` is numerically collinear with S_k: it
    is skipped and recorded as (k, sel) in ``diagnostics["skipped_updates"]``.

    The next node is the argmax of the scores, in which sorted nodes hold
    -inf; when every live node is degenerate the lowest live index is taken.

    Besides the caller's ``x``, ``sort`` holds one n x p array, the
    column-major ``r``: column k is r_k while k is unsorted and x_k once it
    is sorted, so Z_k is read from ``r``.  Raw data are standardized into a
    fresh ``r`` in one chunked pass, and x_sel is rebuilt from the raw
    column as ``(x[:, sel] - mean[sel]) / sd[sel]``, bit for bit the column
    ``standardize`` wrote; caller-standardized data are copied into ``r``
    once, and x_sel is the caller's column.  x_sel is written into
    ``r[:, sel]`` at the end of ``sel``'s step, after any group that used
    r_sel as its u.

    ``update_count`` counts length-n inner products: 1 per event for
    u'r_k, plus |S_k| + 1 per factor extension (1 when u = r_sel), shared
    by all nodes on the factor, so |S_k| + 2 for an event that extends a
    factor and 1 for one that shares it; see :mod:`lingamsort.regression`.
    Raises ValueError when the neighborhoods cover another node count than
    the data or a neighborhood has more members than there are samples,
    and ``standardize``'s errors for a constant or overflowing column.
    """
    started = time.perf_counter()
    if cfg.neighborhoods.p != x.p:
        raise ValueError(
            f"neighborhoods cover {cfg.neighborhoods.p} nodes, data has {x.p}"
        )
    if cfg.family.tag == GAUSSIAN:
        warnings.warn("scoring with the Gaussian family carries no ordering signal")
    biggest = max((s.size for s in cfg.neighborhoods.sets), default=0)
    if biggest > x.n:
        raise ValueError(f"a neighborhood has {biggest} members but only n={x.n} samples")
    p = x.p
    source = x.values
    if x.standardized:
        r = np.array(source, order="F")  # the caller's array is never updated
        mean, sd = np.zeros(p), np.ones(p)  # (v - 0) / 1 is v, bit for bit
    else:
        std = standardize(x)
        r = std.values
        mean, sd = std.moments
    state = ResidualState(r)
    width = max(1, BLOCK_BYTES // (8 * x.n))  # columns per block
    factor = [state.root] * p
    affected: list[list[int]] = [[] for _ in range(p)]  # k such that j is in N(k)
    for k, s in enumerate(cfg.neighborhoods.sets):
        for j in s:
            affected[j].append(k)

    degenerate: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    scores = np.empty(p)

    def rescore(nodes: list[int], step: int) -> None:
        for lo in range(0, len(nodes), width):
            part = nodes[lo:lo + width]
            # looked up in this module at every call, so it can be wrapped
            fresh = llr_score(cfg.family, r[:, part])
            scores[part] = fresh
            degenerate.extend((int(part[i]), step) for i in np.flatnonzero(fresh == -np.inf))

    rescore(list(range(p)), 0)
    chosen: list[int] = []
    unsorted = np.ones(p, dtype=bool)
    trace: list[list[tuple[int, float]]] | None = [] if cfg.trace else None
    rescore_events = 0  # neighbor-residual updates, the O(p d) unit
    for t in range(p):
        if trace is not None:
            trace.append([(int(k), float(scores[k])) for k in np.flatnonzero(unsorted)])
        # np.argmax returns the first maximum, which is the lowest index here
        sel = int(np.argmax(scores))
        if scores[sel] == -np.inf:  # every live node is degenerate
            sel = int(np.argmax(unsorted))
        chosen.append(sel)
        unsorted[sel] = False
        scores[sel] = -np.inf
        # standardize's column, bit for bit, from the caller's raw one
        x_sel = (source[:, sel] - mean[sel]) / sd[sel]
        touched = [k for k in affected[sel] if unsorted[k]]
        groups: dict = {}  # factor -> its nodes in touched
        for k in touched:
            groups.setdefault(factor[k], []).append(k)
        for f, nodes in groups.items():
            # looked up in this module at every call, so it can be wrapped
            step = partial_update(state, f, sel, x_sel, shared=f is factor[sel])
            if step is None:
                skipped.extend((k, sel) for k in nodes)
                continue
            child, u, delta = step
            for k in nodes:
                factor[k] = child
            if len(nodes) == 1:
                rk = r[:, nodes[0]]
                rk -= (float(u @ rk) / delta) * u
            else:
                for lo in range(0, len(nodes), width):
                    part = nodes[lo:lo + width]
                    block = r[:, part]
                    r[:, part] = block - np.outer(u, (u @ block) / delta)
            state.inner_products += len(nodes)
        r[:, sel] = x_sel  # once every group that used r_sel as its u is done
        rescore_events += len(touched)
        if touched:
            rescore(touched, t + 1)
    return SortResult(
        ordering=Ordering(chosen),
        update_count=state.inner_products,
        wall_time=time.perf_counter() - started,
        step_scores=trace,
        diagnostics={
            "degenerate": degenerate,
            "skipped_updates": skipped,
            "rescore_events": rescore_events,
        },
    )


def population_check(
    w: WeightedDag,
    n_large: int,
    seeds: list[int],
    score_family: NoiseFamily | None = None,
) -> dict:
    """Empirical stand-in for the identifiability guarantee.

    For each seed, draws ``n_large`` observations from ``w``, sorts them
    with the true Markov blankets, and records whether the result is a
    topological ordering of the generating dag.  For Gaussian-noise
    negative controls pass the scoring family explicitly (it defaults to
    Laplace there, since Gaussian scores are uninformative).
    """
    if score_family is None:
        score_family = NoiseFamily.laplace() if w.family.tag == GAUSSIAN else w.family
    nbhd = markov_blankets(w.dag)
    cfg = SortConfig(family=score_family, neighborhoods=nbhd)
    outcomes: list[bool] = []
    for seed in seeds:
        x = standardize(sample_data(w, n_large, seed))
        result = sort(x, cfg)
        outcomes.append(is_topological(w.dag, result.ordering))
    return {
        "p": w.p,
        "n": n_large,
        "family": str(w.family),
        "score_family": str(score_family),
        "seeds": [int(s) for s in seeds],
        "topological": outcomes,
        "successes": int(sum(outcomes)),
        "fraction": sum(outcomes) / len(outcomes) if outcomes else float("nan"),
    }
