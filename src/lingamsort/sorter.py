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
costs |S| once.  So the two units grow differently in the size d_k of
node k's neighborhood.  Update events, each rescored once
(``rescore_events``), number at most one per pair (k, j) with j in N(k):
O(p d) for sets of size at most d.  Inner products grow as
O(sum_k d_k^2), at most O(p d^2), since a node whose d_k extensions go
unshared pays |S_k| + 2 for each; under full sets every live node shares
one factor, and they number p(p - 1)/2 + p - 1, O(p^2).  The abstract's
O(p d) is read here as the count of score evaluations, the rescore
events; it does not name its unit, so that reading is an interpretation.

**Steps.**  Each step is one batch.  The nodes that gain ``sel`` are
grouped by factor, and one call of :func:`partial_update` extends every
group's factor at once and returns each group's u, from one gather of the
standardized columns it multiplies, or from none when the one group is on
``sel``'s own factor and u is r_sel.  The touched residuals are then
updated in chunks of at most ``BLOCK_BYTES``: one stacked product gives
u'r_k for every node of the chunk, each residual takes its rank-one
update, and one block call of :func:`lingamsort.scoring.llr_score`
scores the chunk, so that no n x p temporary is built.  A chunk takes one
of two forms, and the step's own state chooses.  When the touched nodes
are exactly the nodes that hold a slot, and share one factor (every step
after the first under full sets), the step's chunks are views of
consecutive slots, updated where they are with the one u broadcast over
them (under a numpy ufunc buffer of ``UPDATE_BUFSIZE`` elements), and
visit the nodes in slot order.  Otherwise a chunk is gathered from its
nodes' slots, with each node's u, and written back.  Step 0 computes the
column moments and scores every standardized column in one chunked pass
over the caller's data.

**Slots.**  ``sort`` adds no n x p copy of the caller's data.  Its
residuals live in a pool of slots, :class:`ResidualState`, which starts
empty, and a node holds a slot from its first update to its selection,
for its current residual, which starts as its standardized column
``(x[:, k] - mean[k]) / sd[k]``, bit for bit the column that
:func:`lingamsort.model.standardize` writes.  A sorted node holds none.
Every standardized column a step reads is standardized anew from the
caller's columns, with the step 0 moments and that same arithmetic: the
starting residual of a node the step touches first straight into its
new slot, and x_sel and the columns Z of the factors the step extends by
one gather, the same for row- and column-major data, straight into the
batch matrix of :func:`partial_update`.  ``sel`` gives its slot back
once the batch has read r_sel.  Freed slots are reused last in, first
out.  Before its chunks, a view step makes the slots held the leading
ones: each free slot below the number held takes the residual of a held
slot above it.  Only slots under the most residuals held at once are
ever written, so resident memory follows that number, not n x p.
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
BLOCK_BYTES = 1 << 19
# numpy's ufunc buffer, in elements, while a view chunk takes its rank-one
# update.  At numpy's default of 8,192, ``coef * u``, whose operands both
# broadcast, is copied through the buffer and ran 3-4 times slower on
# chunks of 109 x 600; an elementwise result does not depend on it.
UPDATE_BUFSIZE = 512


@dataclass
class SortResult:
    ordering: Ordering
    update_count: int
    wall_time: float
    step_scores: list[list[tuple[int, float]]] | None = None
    diagnostics: dict = field(default_factory=dict)


class ResidualState:
    """The sorter's pool of column slots, its factors and the inner products spent.

    ``pool`` is a column-major n x p array, one slot per node, and a state
    starts empty: no node holds a slot, and ``top`` and ``slots_used`` are
    0.  ``slot[k]`` (an int64 array) is the slot, a column of ``pool``,
    that holds node k's values, or -1 when k holds none; ``owner[i]`` is
    the node that holds slot i, or -1.  ``rows`` is ``pool.T``, with the
    slots as contiguous rows.  The pool becomes the state's own: it is
    updated in place, not copied.  A live node holds a slot from its first
    update to its selection, for its residual, and a sorted node holds
    none: the module docstring's slot rule, which ``sort`` keeps.  Every
    slot under ``top`` is either held or in ``free``, and every slot from
    ``top`` up is free.  :meth:`acquire` gives a node the slot freed last,
    or else ``top``, and :meth:`release` frees the slot a node holds, if
    any; :meth:`compact` fills the free slots below the number held from
    the held ones above it, and lowers ``top`` to that number.  Only slots
    under the high-water mark ``slots_used``, the most held at once, and so
    only those pages, are ever written.

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

    def __init__(self, pool: np.ndarray):
        self.pool = pool
        self.rows = pool.T
        self.slot = array("q", [-1]) * pool.shape[1]
        self.owner = array("q", [-1]) * pool.shape[1]
        self.free: list[int] = []
        self.top = self.slots_used = 0
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
            at = self.top
            self.top += 1
            self.slots_used = max(self.slots_used, self.top)
        self.slot[node] = at
        self.owner[at] = node
        return at

    def release(self, node: int) -> None:
        at = self.slot[node]
        if at >= 0:
            self.free.append(at)
            self.slot[node] = self.owner[at] = -1

    def compact(self) -> np.ndarray:
        """Move each residual held in a slot at or above the number held
        into a free slot below it, and return the nodes of the slots held,
        now the leading ones, in slot order."""
        held = self.top - len(self.free)
        holes = [at for at in self.free if at < held]
        if holes:
            above = [at for at in range(held, self.top) if self.owner[at] >= 0]
            self.rows[holes] = self.rows[above]
            for hole, at in zip(holes, above):
                node = self.owner[hole] = self.owner[at]
                self.slot[node], self.owner[at] = hole, -1
        self.free.clear()
        self.top = held
        return np.frombuffer(self.owner, dtype=np.int64, count=held)

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
    When it is the only group and ``sel`` holds a slot, u is copied from
    the slot and nothing is gathered.

    Returns (children, u, delta), u as a groups x n array.  A group whose
    regressor is collinear keeps its factor as its child and gets
    delta = inf, so that the update of r_k leaves its nodes as they are.
    """
    if factors == [own] and state.slot[sel] >= 0:  # u = r_sel, as it is
        u, coefs = state.rows[[state.slot[sel]]], [[]]
        state.inner_products += 1
    else:
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
    whose residual scored -inf, at the first such step, ordered by step
    and then by node, the (k, sel)
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
    state = ResidualState(np.empty((n, p), order="F"))
    rows, slot = state.rows, state.slot
    width = max(1, BLOCK_BYTES // (8 * n))  # columns per block
    factor = array("q", [state.ROOT]) * p
    live = bytearray(b"\1") * p
    # the same per-node numbers as numpy arrays, read and written whole by view steps
    slot_v, factor_v, live_v = (np.frombuffer(a, dtype=d) for a, d in
                                ((slot, np.int64), (factor, np.int64), (live, bool)))

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
    steps: list[list[tuple[int, float]]] | None = [] if trace else None
    rescore_events = 0  # neighbor-residual updates, the O(p d) unit
    for t in range(p):
        if steps is not None:
            steps.append([(k, float(scores[k])) for k in range(p) if live[k]])
        # argmax returns the first maximum, which is the lowest index here
        sel = int(scores.argmax())
        if scores[sel] == -np.inf:  # every live node is degenerate
            sel = live.index(1)
        chosen.append(sel)
        live[sel] = 0
        scores[sel] = -np.inf
        near = affected[sel]
        # the slots held once sel gives its slot back: every slot under
        # top is either held or free
        held = state.top - len(state.free) - (slot[sel] >= 0)
        view = 0 < held <= len(near)
        if view:  # does sel touch every residual held, all on one factor?
            touched = near[slot_v[near] >= 0]
            shared = factor_v[touched]
            view = (len(touched) == held and np.count_nonzero(live_v[near]) == held
                    and (shared == shared[0]).all())
        if view:
            factors = [int(shared[0])]
        else:
            touched = [k for k in near.tolist() if live[k]]
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
        if view:
            if children[0] == factors[0]:  # sel is collinear with the shared regressors
                skipped.extend((k, sel) for k in touched.tolist())
            else:
                factor_v[touched] = children[0]
                state.inner_products += held
            nodes = state.compact()
        else:
            for g, f in enumerate(factors):
                if children[g] == f:  # sel is collinear with the group's regressors
                    skipped.extend((k, sel) for k, h in zip(touched, group) if h == g)
            for k, g in zip(touched, group):
                factor[k] = children[g]
            state.inner_products += sum(children[g] != factors[g] for g in group)
            nodes = touched
        for lo in range(0, len(nodes), width):
            part = nodes[lo:lo + width]
            if view:  # the part's own slots, updated where they are, and the one u
                block, ug, dg = rows[lo:lo + len(part)], u, delta
            else:  # gathered from the nodes' slots, with each node's u
                at, g = [slot[k] for k in part], group[lo:lo + width]
                # "clip" skips take's bounds check: every index is a slot
                block = rows.take(at, axis=0, mode="clip")
                ug, dg = u.take(g, axis=0, mode="clip"), delta.take(g, mode="clip")[:, None]
            coef = (ug[:, None, :] @ block[:, :, None])[:, 0]  # u'r_k, one per node
            coef /= dg
            if view:
                buffer = np.setbufsize(UPDATE_BUFSIZE)
                try:
                    block -= coef * ug
                finally:
                    np.setbufsize(buffer)
            else:  # ug is the part's own copy
                ug *= coef
                block -= ug
                rows[at] = block
            score(part, block.T, t + 1)
        rescore_events += len(nodes)
    return SortResult(
        ordering=Ordering(chosen),
        update_count=state.inner_products,
        wall_time=time.perf_counter() - started,
        step_scores=steps,
        diagnostics={
            "degenerate": sorted(degenerate.items(), key=lambda d: (d[1], d[0])),
            "skipped_updates": skipped,
            "rescore_events": rescore_events,
            "residual_slots": state.slots_used,
        },
    )
