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

Each step is one batch.  The nodes that gain ``sel`` are grouped by
factor, and one call of ``partial_update`` extends every group's factor
at once and returns each group's direction u.  The touched residuals are
then gathered once per chunk of at most ``BLOCK_BYTES``, given their
group's rank-one update, scored by one block call of
:func:`lingamsort.scoring.llr_score` and written back, so that no n x p
temporary is built.

``sort`` standardizes the caller's data with
:func:`lingamsort.regression.standardize` and adds that one n x p array,
the column-major ``r`` of :class:`lingamsort.regression.ResidualState`:
an unsorted node's column holds its current residual and a sorted node's
column, once some node has taken it as a regressor, its standardized
values, which are all a regressor needs.

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

from .model import GAUSSIAN, DataMatrix, NeighborhoodSets, NoiseFamily, Ordering
from .regression import ResidualState, partial_update, standardize
from .scoring import llr_score

# Largest residual block, in bytes, that one update or scoring call touches.
BLOCK_BYTES = 2 << 20


@dataclass
class SortResult:
    ordering: Ordering
    update_count: int
    wall_time: float
    step_scores: list[list[tuple[int, float]]] | None = None
    diagnostics: dict = field(default_factory=dict)


def sort(x: DataMatrix, family: NoiseFamily, neighborhoods: NeighborhoodSets, *,
         trace: bool = False) -> SortResult:
    """Order all nodes, keeping exact joint-OLS residuals by Cholesky updates.

    Residuals are scored under ``family``; N(k) is node k's set in
    ``neighborhoods``; ``trace`` keeps every step's candidate scores in
    ``step_scores``.  Node k's residual is its standardized column
    regressed on the standardized columns Z_k of its sorted neighbors S_k.
    When ``sel`` is appended, every unsorted k with ``sel`` in N(k) (found
    through a reverse index built once) takes ``sel`` into S_k::

        c = Z_k' x_sel,  beta = W_k'(W_k c),  u = x_sel - Z_k beta,  delta = u'u
        r_k <- r_k - (u'r_k / delta) u,  W_k gains the row (-beta', 1) / sqrt(delta)

    where W_k = L_k^-1 is the inverse lower Cholesky factor of Z_k'Z_k,
    and k is rescored; other scores stay cached, since theirs are the only
    residuals that did not change.  Nodes with equal S_k share one factor,
    and (u, delta) is computed once per factor and step; when S_k equals
    S_sel, u is r_sel itself.  One ``partial_update`` call per step
    extends all the step's factors; then, per chunk of at most
    ``BLOCK_BYTES`` of the touched columns R, each column takes its
    group's u, ``R <- R - u (u'R) / delta``, and the chunk is rescored by
    one block call of ``llr_score``; step 0 scores all p columns so.  A
    regressor with ``delta <= PIVOT_RTOL * n`` is numerically collinear
    with S_k: it is skipped and recorded as (k, sel) in
    ``diagnostics["skipped_updates"]``.

    The next node is the argmax of the scores, in which sorted nodes hold
    -inf; when every live node is degenerate the lowest live index is taken.

    Besides the caller's ``x``, ``sort`` holds one n x p array, the
    column-major ``r``: column k is r_k while k is unsorted, and x_k from
    the end of the step that sorts k if that step touched a node, so Z_k
    is read from ``r``; a node that no unsorted node has as a neighbor
    when it is sorted is never a regressor, and its column keeps its last
    residual.  The data are standardized into a fresh ``r`` in one chunked
    pass, and x_sel is rebuilt from the caller's column as
    ``(x[:, sel] - mean[sel]) / sd[sel]``, bit for bit the column
    ``standardize`` wrote.

    ``update_count`` counts length-n inner products: 1 per event for
    u'r_k, plus |S_k| + 1 per factor extension (1 when u = r_sel), shared
    by all nodes on the factor, so |S_k| + 2 for an event that extends a
    factor and 1 for one that shares it; see :mod:`lingamsort.regression`.
    Raises ValueError when the neighborhoods cover another node count than
    the data or a neighborhood has more members than there are samples,
    and ``standardize``'s errors for a constant or overflowing column.
    """
    started = time.perf_counter()
    if neighborhoods.p != x.p:
        raise ValueError(f"neighborhoods cover {neighborhoods.p} nodes, data has {x.p}")
    if family.tag == GAUSSIAN:
        warnings.warn("scoring with the Gaussian family carries no ordering signal")
    biggest = max((s.size for s in neighborhoods.sets), default=0)
    if biggest > x.n:
        raise ValueError(f"a neighborhood has {biggest} members but only n={x.n} samples")
    p = x.p
    source = x.values
    std = standardize(x)
    r = std.values
    mean, sd = std.moments
    state = ResidualState(r)
    columns = r.T  # row k is column k of r, contiguous
    width = max(1, BLOCK_BYTES // (8 * x.n))  # columns per block
    factor = [state.ROOT] * p
    affected: list[list[int]] = [[] for _ in range(p)]  # k such that j is in N(k)
    for k, s in enumerate(neighborhoods.sets):
        for j in s:
            affected[j].append(k)

    degenerate: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    scores = np.empty(p)

    def score(nodes, block: np.ndarray, step: int) -> None:
        # looked up in this module at every call, so it can be wrapped
        fresh = llr_score(family, block)
        scores[nodes] = fresh
        if np.minimum.reduce(fresh) == -np.inf:
            degenerate.extend((int(nodes[i]), step) for i in np.flatnonzero(fresh == -np.inf))

    for lo in range(0, p, width):
        score(range(lo, min(lo + width, p)), r[:, lo:lo + width], 0)
    chosen: list[int] = []
    live = [True] * p
    steps: list[list[tuple[int, float]]] | None = [] if trace else None
    rescore_events = 0  # neighbor-residual updates, the O(p d) unit
    x_sel = np.empty(x.n)
    for t in range(p):
        if steps is not None:
            steps.append([(k, float(scores[k])) for k in range(p) if live[k]])
        # argmax returns the first maximum, which is the lowest index here
        sel = int(scores.argmax())
        if scores[sel] == -np.inf:  # every live node is degenerate
            sel = live.index(True)
        chosen.append(sel)
        live[sel] = False
        scores[sel] = -np.inf
        touched = [k for k in affected[sel] if live[k]]
        if touched:
            # standardize's column, bit for bit, from the caller's one
            np.subtract(source[:, sel], mean[sel], out=x_sel)
            x_sel /= sd[sel]
            slot: dict = {}  # factor -> its group's index
            group = [slot.setdefault(factor[k], len(slot)) for k in touched]
            factors = list(slot)
            # looked up in this module at every call, so it can be wrapped
            children, u, delta = partial_update(state, factors, sel, x_sel, factor[sel])
            for g, f in enumerate(factors):
                if children[g] == f:  # sel is collinear with the group's regressors
                    skipped.extend((k, sel) for k, h in zip(touched, group) if h == g)
            for k, g in zip(touched, group):
                factor[k] = children[g]
            state.inner_products += sum(children[g] != factors[g] for g in group)
            for lo in range(0, len(touched), width):
                part, g = touched[lo:lo + width], group[lo:lo + width]
                # "clip" skips take's bounds check: every index is a node
                block = columns.take(part, axis=0, mode="clip")
                ug = u.take(g, axis=0, mode="clip")
                coef = (ug[:, None, :] @ block[:, :, None])[:, 0]  # u'r_k, one per node
                coef /= delta.take(g, mode="clip")[:, None]
                ug *= coef
                block -= ug
                score(part, block.T, t + 1)
                columns[part] = block
            rescore_events += len(touched)
            r[:, sel] = x_sel  # the batch has already read r_sel
    return SortResult(
        ordering=Ordering(chosen),
        update_count=state.inner_products,
        wall_time=time.perf_counter() - started,
        step_scores=steps,
        diagnostics={
            "degenerate": degenerate,
            "skipped_updates": skipped,
            "rescore_events": rescore_events,
        },
    )
