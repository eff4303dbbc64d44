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

``sort`` adds no n x p copy of the caller's data.  Its residuals live in
a pool of column slots, :class:`lingamsort.regression.ResidualState`: a
node holds a slot from its first update to its selection, for its
current residual, and after its selection while some unsorted node still
has it as a neighbor, for its standardized values, which are all a
regressor needs.  Freed slots are reused last in, first out, and only
slots in use are written, so resident memory follows the most slots held
at once, not n x p.  Step 0 standardizes and scores the data a chunk at
a time, and a node's standardized column is formed from the caller's one
when it first needs a slot.

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
from .regression import ResidualState, partial_update, standardize_pass
from .scoring import llr_score

# Largest residual block, in bytes, that one update or scoring call touches.
BLOCK_BYTES = 2 << 20
# Chunk, in bytes, of step 0's pass that standardizes and scores every
# column: its temporaries stay in a core's cache and add little to the
# sort's resident peak.
STEP0_BYTES = 1 << 20


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

    Besides the caller's ``x``, ``sort`` holds the pool of column slots
    that the module docstring describes, an n x p array of which only the
    slots in use are ever written; ``diagnostics["residual_slots"]`` is
    the most slots held at once.  Step 0 computes the column moments and
    scores the standardized columns in one chunked pass over ``x``.  Each
    standardized column the sorter needs later, a first-touched node's
    residual or x_sel, is formed from the caller's column as
    ``(x[:, k] - mean[k]) / sd[k]``, bit for bit the column that
    :func:`lingamsort.regression.standardize` writes.

    ``update_count`` counts length-n inner products: 1 per event for
    u'r_k, plus |S_k| + 1 per factor extension (1 when u = r_sel), shared
    by all nodes on the factor, so |S_k| + 2 for an event that extends a
    factor and 1 for one that shares it; see :mod:`lingamsort.regression`.
    Raises ValueError when the neighborhoods cover another node count than
    the data or a neighborhood has more members than there are samples,
    and the errors of :func:`lingamsort.regression.standardize` for fewer
    than two rows or a constant or overflowing column.
    """
    started = time.perf_counter()
    if neighborhoods.p != x.p:
        raise ValueError(f"neighborhoods cover {neighborhoods.p} nodes, data has {x.p}")
    if family.tag == GAUSSIAN:
        warnings.warn("scoring with the Gaussian family carries no ordering signal")
    biggest = max((s.size for s in neighborhoods.sets), default=0)
    if biggest > x.n:
        raise ValueError(f"a neighborhood has {biggest} members but only n={x.n} samples")
    n, p = x.n, x.p
    source = x.values
    state = ResidualState(np.empty((n, p), order="F"), [-1] * p)
    rows, slot = state.rows, state.slot
    width = max(1, BLOCK_BYTES // (8 * n))  # columns per block
    factor = [state.ROOT] * p
    affected: list[list[int]] = [[] for _ in range(p)]  # k such that j is in N(k)
    for k, s in enumerate(neighborhoods.sets):
        for j in s.tolist():
            affected[j].append(k)
    dependents = [len(a) for a in affected]  # live k such that j is in N(k)

    degenerate: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    scores = np.empty(p)

    def score(nodes, block: np.ndarray, step: int) -> None:
        # looked up in this module at every call, so it can be wrapped
        fresh = llr_score(family, block)
        scores[nodes] = fresh
        if np.minimum.reduce(fresh) == -np.inf:
            degenerate.extend((int(nodes[i]), step) for i in np.flatnonzero(fresh == -np.inf))

    def standardized(k: int, out: np.ndarray) -> np.ndarray:
        # bit for bit the column that standardize writes
        np.subtract(source[:, k], mean[k], out=out)
        out /= sd[k]
        return out

    # step 0: every residual is its standardized column, scored as it is
    # formed in the pool's leading slots, which no node holds yet
    mean, sd = standardize_pass(source, state.pool, visit=lambda lo, z: score(
        range(lo, lo + z.shape[1]), z, 0), nbytes=STEP0_BYTES)
    chosen: list[int] = []
    live = [True] * p
    steps: list[list[tuple[int, float]]] | None = [] if trace else None
    rescore_events = 0  # neighbor-residual updates, the O(p d) unit
    x_sel = np.empty(n)
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
        for j in neighborhoods.sets[sel].tolist():
            dependents[j] -= 1
            if not (dependents[j] or live[j]):  # no live node reads x_j any more
                state.release(j)
        if not dependents[sel]:  # sel is no live node's regressor
            if slot[sel] >= 0:
                state.release(sel)
            continue
        touched = [k for k in affected[sel] if live[k]]
        # x_sel goes straight to sel's new slot, unless sel holds its
        # residual, which partial_update may read
        x = standardized(sel, x_sel if slot[sel] >= 0 else rows[state.acquire(sel)])
        for k in touched:
            if slot[k] < 0:  # first touch: k's residual is its standardized column
                standardized(k, rows[state.acquire(k)])
        groups: dict = {}  # factor -> its group's index
        group = [groups.setdefault(factor[k], len(groups)) for k in touched]
        factors = list(groups)
        # looked up in this module at every call, so it can be wrapped
        children, u, delta = partial_update(state, factors, sel, x, factor[sel])
        for g, f in enumerate(factors):
            if children[g] == f:  # sel is collinear with the group's regressors
                skipped.extend((k, sel) for k, h in zip(touched, group) if h == g)
        for k, g in zip(touched, group):
            factor[k] = children[g]
        state.inner_products += sum(children[g] != factors[g] for g in group)
        for lo in range(0, len(touched), width):
            part, g = touched[lo:lo + width], group[lo:lo + width]
            at = [slot[k] for k in part]
            # "clip" skips take's bounds check: every index is a slot
            block = rows.take(at, axis=0, mode="clip")
            ug = u.take(g, axis=0, mode="clip")
            coef = (ug[:, None, :] @ block[:, :, None])[:, 0]  # u'r_k, one per node
            coef /= delta.take(g, mode="clip")[:, None]
            ug *= coef
            block -= ug
            score(part, block.T, t + 1)
            rows[at] = block
        rescore_events += len(touched)
        if x is x_sel:
            rows[slot[sel]] = x_sel  # the batch has already read r_sel
    return SortResult(
        ordering=Ordering(chosen),
        update_count=state.inner_products,
        wall_time=time.perf_counter() - started,
        step_scores=steps,
        diagnostics={
            "degenerate": degenerate,
            "skipped_updates": skipped,
            "rescore_events": rescore_events,
            "residual_slots": state.slots_used,
        },
    )
