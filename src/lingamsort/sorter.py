"""Sequential topological-ordering estimation.

At each step the unsorted node whose current residual looks most
non-Gaussian (highest likelihood-ratio score) is appended to the ordering.
Ties in the argmax break toward the lowest node index so runs are
reproducible.  Degenerate residuals (a node perfectly explained by sorted
neighbors) score -inf, which defers them behind every finite-scored
candidate, and are reported in the result diagnostics.

**Updates.**  Node k's residual r_k is its standardized column regressed,
jointly and by least squares, on the standardized columns Z_k of its
neighbors among the already-sorted set, S_k.  Every unsorted node's
residual is kept current: when the selected node ``sel`` is appended,
each unsorted k with ``sel`` in its neighborhood takes ``sel`` into S_k
by one step of an incremental Cholesky factorization of its Gram matrix
Z_k'Z_k (Golub & Van Loan, *Matrix Computations* 6.5).  The factor is
kept as the inverse W = L^-1 of the lower Cholesky factor L, so that
(Z_k'Z_k)^-1 = W'W and no step solves a triangular system::

    c = Z_k'x_sel,  beta = W_k'(W_k c),  u = x_sel - Z_k beta,  delta = u'u
    r_k <- r_k - (u'r_k / delta) u,  W_k gains the row (-beta', 1) / sqrt(delta)

W c and W'(W c) are m x m products, not length-n ones.  Nodes with equal
S_k share one factor, and (u, delta) is computed once per factor and
step; when S_k equals S_sel, u is r_sel itself.  A regressor with
``delta <= PIVOT_RTOL * n`` is numerically collinear with S_k: it is
skipped, and k keeps its factor and its residual.

**Cost.**  ``update_count`` counts the length-n inner products spent on
these updates.  Each update event (one node gaining one regressor) costs
1, for u'r_k.  Extending a factor costs |S_k| + 1 more, for Z_k'x_sel
and u'u, and serves every node that shares the factor: an event costs
|S_k| + 2 when it extends a factor and 1 when the factor is shared.  When
u = r_sel the extension costs 1, for delta alone; such a factor defers
its own row of W, and filling it in later, if an extension needs it,
costs |S| once.  Work therefore grows as O(p d) for neighborhoods of size
at most d.

**Steps.**  Each step is one batch.  The nodes that gain ``sel`` are
grouped by factor, and one call of :func:`partial_update` extends every
group's factor at once and returns each group's u, from one gather of the
standardized columns it multiplies.  The touched residuals
are then gathered once per chunk of at most ``BLOCK_BYTES``, given their
group's rank-one update, scored by one block call of
:func:`lingamsort.scoring.llr_score` and written back, so that no n x p
temporary is built.  Step 0 computes the column moments and scores every
standardized column in one chunked pass over the caller's data.

**Slots.**  ``sort`` adds no n x p copy of the caller's data.  Its
residuals live in a pool of slots, :class:`ResidualState`, and a node
holds a slot from its first update to its selection, for its current
residual, which starts as its standardized column
``(x[:, k] - mean[k]) / sd[k]``, bit for bit the column that
:func:`lingamsort.model.standardize` writes.  A sorted node holds none.
Every standardized column a step reads is standardized anew from the
caller's columns, with the step 0 moments and that same arithmetic: the
starting residual of a node the step touches first straight into its
new slot, and x_sel and the columns Z of the factors the step extends by
one gather, the same for row- and column-major data, straight into the
batch matrix of :func:`partial_update`.  ``sel`` gives its slot back
once the batch has read r_sel.
Freed slots are reused last in, first out, and only slots in use are
written, so resident memory follows the most residuals held at once, not
n x p.
"""
from __future__ import annotations

import math
import time
import warnings
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .model import (
    GAUSSIAN,
    PIVOT_RTOL,
    DataMatrix,
    NeighborhoodSets,
    NoiseFamily,
    Ordering,
    standardize_pass,
)
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


class ResidualState:
    """The sorter's pool of column slots, its factors and the inner products spent.

    ``pool`` is a column-major n x s array, and ``slot[k]`` the slot
    (column of ``pool``) that holds node k's values, or -1 when k holds
    none; ``rows`` is ``pool.T``, with the slots as contiguous rows.  The
    pool becomes the state's own: it is updated in place, not copied.
    A live node holds a slot from its first update to its selection, for
    its residual, and a sorted node holds none: the module docstring's
    slot rule, which ``sort`` keeps.  :meth:`acquire` gives a node the
    slot freed last, or else the lowest one never used, so the slots in
    use, and so the pages ever written, stay under the high-water mark
    ``slots_used``; :meth:`release` frees the slot a node holds, if any.

    Factors are numbered and form a tree: factor ``ROOT`` is the empty one
    every node starts from, and factor f extends ``parent[f]`` by the one
    column ``col[f]``, so its columns, in the order they joined, are the
    ``col`` of the factors on its path from the root.  Its W is the rows
    that those factors added: the row of a factor m columns deep holds its
    m entries at ``w[row[f]:row[f] + m]``, so an extension stores m numbers
    and the factors hold O(total factor size) in all.  A factor made
    through the direction u = r_sel has ``row[f]`` None: its row is
    deferred, and ``deferred[f]`` keeps its delta until an extension needs
    the whole factor.
    """

    ROOT = 0

    def __init__(self, pool: np.ndarray, slot: list[int]):
        self.pool = pool
        self.rows = pool.T
        self.slot = slot
        self.free: list[int] = []
        self.slots_used = 1 + max(slot, default=-1)
        self.pivot_floor = PIVOT_RTOL * pool.shape[0]
        self.inner_products = 0
        self.parent = [-1]
        self.col = [-1]
        self.row: list[int | None] = [0]  # the root has no row; its 0 is never read
        self.deferred: dict[int, float] = {}
        self.w = array("d")

    def acquire(self, node: int) -> int:
        """Give ``node`` a slot and return it; its contents are the caller's to write."""
        if self.free:
            at = self.free.pop()
        else:
            at = self.slots_used
            self.slots_used += 1
        self.slot[node] = at
        return at

    def release(self, node: int) -> None:
        if self.slot[node] >= 0:
            self.free.append(self.slot[node])
            self.slot[node] = -1

    def path(self, factor: int) -> list[int]:
        """The factors from the root's first child down to ``factor``."""
        out = []
        while factor != self.ROOT:
            out.append(factor)
            factor = self.parent[factor]
        out.reverse()
        return out

    def complete(self, factor: int, z: np.ndarray) -> None:
        """Fill in the deferred rows on the path of ``factor``, each from
        the Gram column of its last member, at the module docstring's cost;
        row i of ``z`` is the standardized column of the path's i-th
        factor."""
        path = self.path(factor)
        for i, f in enumerate(path):
            if self.row[f] is None:
                c = z[:i] @ z[i]
                self.inner_products += i
                coef = _solve(self.w, [self.row[g] for g in path[:i]], c.tolist())
                self.row[f] = self._append(coef, self.deferred.pop(f))

    def _append(self, coef: list[float], delta: float) -> int:
        """Store the row (-beta', 1) / sqrt(delta), given coef = -beta, and
        return its offset in ``w``."""
        scale = 1.0 / math.sqrt(delta)
        at = len(self.w)
        self.w.extend([scale * b for b in coef])
        self.w.append(scale)
        return at


def _solve(w, rows: list[int], c: list[float]) -> list[float]:
    """-beta = -W'(W c) for the lower-triangular W whose row i holds its
    i + 1 entries at ``w[rows[i]:]``: the coefficients of u = x - Z beta on
    the columns of Z."""
    t = []
    for i, at in enumerate(rows):
        acc = 0.0
        for j in range(i + 1):
            acc += w[at + j] * c[j]
        t.append(acc)
    beta = [0.0] * len(rows)
    for i, at in enumerate(rows):
        for j in range(i + 1):
            beta[j] += w[at + j] * t[i]
    return [-b for b in beta]


def partial_update(state: ResidualState, factors: list[int], sel: int,
                   columns: Callable[[list[int]], np.ndarray],
                   own: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Extend every factor in ``factors`` by column ``sel``, in one batch.

    ``columns(nodes)`` gives the standardized columns of ``nodes`` as the
    rows of a new array.  Group g, on factor ``factors[g]``, gets ``u[g]``
    and ``delta[g]`` by the module docstring's update.  One call of
    ``columns`` gives the matrix z: x_sel, then every group's columns Z in
    the order they joined its factor, each group's deferred rows of W being
    filled in from its own rows of z; c for all groups is one product,
    beta = W'(W c) is an m x m product per group on Python floats (at
    neighborhood sizes, less work than a padded batch of W's), and u for
    all groups is one product ``mix @ z``, whose row g holds 1 for x_sel
    and -beta for the group's columns.  The root factor is a group with no
    columns, whose u is x_sel.  The factor ``own``, if listed, is the one
    ``sel`` itself was regressed on: its u is r_sel, still in ``sel``'s
    slot (or x_sel, when ``sel`` holds none and so was never updated),
    which joins z under x_sel for it, and its child defers its row of W.

    Returns (children, u, delta), u as a groups x n array.  A group whose
    regressor is collinear keeps its factor as its child and gets
    delta = inf, so that the update of r_k leaves its nodes as they are.
    """
    paths = [[] if f == own else state.path(f) for f in factors]
    head = 1 + (own in factors)  # rows of z before the groups' columns
    z = columns([sel] * head + [state.col[g] for path in paths for g in path])
    if head == 2 and state.slot[sel] >= 0:
        z[1] = state.rows[state.slot[sel]]
    c = (z[head:] @ z[0]).tolist()
    state.inner_products += len(c) + len(factors)
    coefs, mix = [], []  # -beta per group; u = mix @ z
    lo = 0
    for f, path in zip(factors, paths):
        hi = lo + len(path)
        if f != own and state.row[f] is None:
            state.complete(f, z[head + lo:head + hi])
        coefs.append(_solve(state.w, [state.row[g] for g in path], c[lo:hi]))
        row = [0.0] * len(z)
        row[f == own] = 1.0
        row[head + lo:head + hi] = coefs[-1]
        mix.append(row)
        lo = hi
    u = np.array(mix) @ z
    delta = (u[:, None, :] @ u[:, :, None]).ravel()  # one u'u per group
    children = []
    for g, (f, d) in enumerate(zip(factors, delta.tolist())):
        if d <= state.pivot_floor:
            delta[g] = np.inf
            children.append(f)
            continue
        children.append(len(state.parent))
        state.parent.append(f)
        state.col.append(sel)
        if f == own:
            state.row.append(None)
            state.deferred[children[-1]] = d
        else:
            state.row.append(state._append(coefs[g], d))
    return children, u, delta


def sort(x: DataMatrix, family: NoiseFamily, neighborhoods: NeighborhoodSets, *,
         trace: bool = False) -> SortResult:
    """Order all nodes by the selection rule and the updates of the module docstring.

    Residuals are scored under ``family``; N(k) is node k's set in
    ``neighborhoods``, and the nodes that take ``sel`` into S_k are found
    through a reverse index built once, by
    :meth:`lingamsort.model.NeighborhoodSets.reverse`; ``trace`` keeps
    every step's candidate scores in ``step_scores``.  Only the touched
    nodes' residuals change, so only they are rescored and the other
    scores stay cached.  The next node is the argmax of the scores, in which sorted
    nodes hold -inf; when every live node is degenerate the lowest live
    index is taken.

    ``update_count`` is the module docstring's count of inner products.
    ``diagnostics`` holds ``degenerate``, one (node, step) pair per node
    whose residual scored -inf, at the first such step, the (k, sel)
    pairs of ``skipped_updates`` (collinear
    regressors), ``rescore_events`` (update events) and
    ``residual_slots``, the most pool slots held at once.

    Raises ValueError when the neighborhoods cover another node count than
    the data or a neighborhood has more members than there are samples,
    and the errors of :func:`lingamsort.model.standardize` for fewer than
    two rows or a constant or overflowing column.
    """
    started = time.perf_counter()
    if neighborhoods.p != x.p:
        raise ValueError(f"neighborhoods cover {neighborhoods.p} nodes, data has {x.p}")
    if family.tag == GAUSSIAN:
        warnings.warn("scoring with the Gaussian family carries no ordering signal")
    biggest = int(neighborhoods.sizes.max(initial=0))
    if biggest > x.n:
        raise ValueError(f"a neighborhood has {biggest} members but only n={x.n} samples")
    n, p = x.n, x.p
    affected = neighborhoods.reverse()  # the k with j in N(k), increasing
    source = x.values
    state = ResidualState(np.empty((n, p), order="F"), [-1] * p)
    rows, slot = state.rows, state.slot
    width = max(1, BLOCK_BYTES // (8 * n))  # columns per block
    factor = [state.ROOT] * p

    degenerate: dict[int, int] = {}  # node -> the first step it scored -inf
    skipped: list[tuple[int, int]] = []
    scores = np.empty(p)

    def score(nodes, block: np.ndarray, step: int) -> None:
        # looked up in this module at every call, so it can be wrapped
        fresh = llr_score(family, block)
        scores[nodes] = fresh
        if np.minimum.reduce(fresh) == -np.inf:
            for i in np.flatnonzero(fresh == -np.inf).tolist():
                degenerate.setdefault(int(nodes[i]), step)

    def columns(nodes: list[int]) -> np.ndarray:
        # the standardized columns of nodes as rows, bit for bit those that
        # standardize writes; numpy's gather keeps each column contiguous,
        # whatever the source's layout, so the rows are too
        part = np.array(nodes)
        z = source[:, part]
        z -= mean[part]
        z /= sd[part]
        return z.T

    # step 0: every residual is its standardized column, scored as it is
    # formed in the pool's leading slots, which no node holds yet
    mean, sd = standardize_pass(source, state.pool, visit=lambda lo, z: score(
        range(lo, lo + z.shape[1]), z, 0))
    chosen: list[int] = []
    live = [True] * p
    steps: list[list[tuple[int, float]]] | None = [] if trace else None
    rescore_events = 0  # neighbor-residual updates, the O(p d) unit
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
        touched = [k for k in affected[sel].tolist() if live[k]]
        if not touched:
            state.release(sel)
            continue
        groups: dict = {}  # factor -> its group's index
        group = [groups.setdefault(factor[k], len(groups)) for k in touched]
        factors = list(groups)
        for k in [k for k in touched if slot[k] < 0]:  # each starts at its column
            out = rows[state.acquire(k)]
            np.subtract(source[:, k], mean[k], out=out)
            out /= sd[k]
        # looked up in this module at every call, so it can be wrapped
        children, u, delta = partial_update(state, factors, sel, columns, factor[sel])
        state.release(sel)  # the batch has read r_sel
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
    return SortResult(
        ordering=Ordering(chosen),
        update_count=state.inner_products,
        wall_time=time.perf_counter() - started,
        step_scores=steps,
        diagnostics={
            "degenerate": list(degenerate.items()),
            "skipped_updates": skipped,
            "rescore_events": rescore_events,
            "residual_slots": state.slots_used,
        },
    )
