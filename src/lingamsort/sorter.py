"""Sequential topological-ordering estimation.

At each step the unsorted node whose current residual looks most
non-Gaussian (highest likelihood-ratio score) is appended to the ordering.
A node's residual is its raw standardized column regressed, jointly and
by least squares, on the raw columns of its neighbors among the
already-sorted set.  Every unsorted node's residual is kept current: when
the selected node ``sel`` is appended, each unsorted k with ``sel`` in its
neighborhood gains one regressor, and its residual is updated by one step
of an incremental Cholesky factorization of the Gram matrix of k's sorted
neighbors (Golub & Van Loan, *Matrix Computations* 6.5).  Nodes whose
sorted-neighbor sets are equal share one factor.

``update_count`` counts the length-n inner products spent on residual
updates.  Each update event (one node gaining one regressor) costs 1, for
u'r_k.  Extending a factor by ``sel`` costs |S_k| + 1 more, for Z_k'x_sel
and delta = u'u, and serves every node that shares the factor: an event
costs |S_k| + 2 when it extends a factor and 1 when the factor is shared.
When k's factor is the one ``sel`` was regressed on, u = r_sel and the
extension costs 1, for delta alone; such a factor defers its own Cholesky
row, and filling it in later, if an extension needs it, costs |S| once.
Work therefore grows as O(p d) for neighborhoods of size at most d.

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
import scipy.linalg

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
from .regression import PIVOT_RTOL, standardize
# perfbench/trace_step.py wraps this name here; the sorter no longer calls it
from .regression import partial_update  # noqa: F401
from .scoring import DegenerateResidual, llr_score
from .simulate import sample_data

# Residual mean square below this is treated as numerically zero when scoring.
DEGENERATE_MEAN_SQUARE = 1e-12


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


def _score_or_neginf(family, residual, node, step, degenerate_log):
    ms = float(residual @ residual) / residual.size
    if ms < DEGENERATE_MEAN_SQUARE:
        degenerate_log.append((int(node), int(step)))
        return -np.inf
    try:
        return llr_score(family, residual)
    except DegenerateResidual:
        degenerate_log.append((int(node), int(step)))
        return -np.inf


@dataclass(eq=False, slots=True)
class _Factor:
    """Lower Cholesky factor of the Gram matrix of some raw columns.

    ``cols`` lists the columns in the order they joined.  A factor made
    through the shared direction u = r_sel leaves ``chol`` unset and keeps
    its ``parent`` and ``delta`` = u'u instead; its last row is computed
    only if a later extension needs the whole factor.  Factors compare by
    identity: nodes share a factor exactly when they hold the same object.
    """

    cols: np.ndarray
    chol: np.ndarray | None = None
    parent: _Factor | None = None
    delta: float = 0.0


class _FactorUpdater:
    """Extends factors by one column and counts the inner products spent."""

    def __init__(self, values: np.ndarray, r: np.ndarray):
        self.values = values
        self.r = r
        self.pivot_floor = PIVOT_RTOL * values.shape[0]
        self.inner_products = 0
        self.root = _Factor(np.empty(0, dtype=np.int64), np.empty((0, 0)))

    def chol(self, factor: _Factor) -> np.ndarray:
        """The factor's lower Cholesky matrix, filling in deferred rows."""
        pending = []
        while factor.chol is None:
            pending.append(factor)
            factor = factor.parent
        for f in reversed(pending):
            lower = f.parent.chol
            c = self.values[:, f.parent.cols].T @ self.values[:, f.cols[-1]]
            self.inner_products += c.size
            y = scipy.linalg.solve_triangular(lower, c, lower=True, check_finite=False)
            f.chol = _append_row(lower, y, f.delta)
            f.parent = None
            factor = f
        return factor.chol

    def extend(self, factor: _Factor, sel: int, shared: bool):
        """(child factor, u, delta) for ``factor`` extended by column ``sel``,
        or None when x_sel is numerically in the span of its columns.

        u is x_sel's residual on the factor's columns and delta = u'u.  When
        the factor is the one ``sel`` itself was regressed on (``shared``),
        that residual is r_sel and nothing is solved.
        """
        if shared:
            u = self.r[:, sel]
        else:
            lower = self.chol(factor)
            z = self.values[:, factor.cols]
            c = z.T @ self.values[:, sel]
            self.inner_products += c.size
            y = scipy.linalg.solve_triangular(lower, c, lower=True, check_finite=False)
            beta = scipy.linalg.solve_triangular(lower, y, trans="T", lower=True,
                                                 check_finite=False)
            u = self.values[:, sel] - z @ beta
        delta = float(u @ u)
        self.inner_products += 1
        if delta <= self.pivot_floor:
            return None
        cols = np.append(factor.cols, sel)
        if shared:
            return _Factor(cols, parent=factor, delta=delta), u, delta
        return _Factor(cols, _append_row(lower, y, delta)), u, delta


def _append_row(lower: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
    m = y.size
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = lower
    out[m, :m] = y
    out[m, m] = np.sqrt(delta)
    return out


def sort(x: DataMatrix, cfg: SortConfig) -> SortResult:
    """Order all nodes, keeping exact joint-OLS residuals by Cholesky updates.

    Node k's residual is its column regressed on the raw columns Z_k of its
    sorted neighbors S_k.  When ``sel`` is appended, every unsorted k with
    ``sel`` in N(k) (found through a reverse index built once) takes ``sel``
    into S_k::

        y = L_k^-1 Z_k' x_sel,  u = x_sel - Z_k L_k^-T y,  delta = u'u
        r_k <- r_k - (u'r_k / delta) u,  L_k gains the row (y', sqrt(delta))

    and is rescored; other scores stay cached, since theirs are the only
    residuals that did not change.  Nodes with equal S_k share one factor,
    and (u, delta) is computed once per factor and step; when S_k equals
    S_sel, u is r_sel itself.  A regressor with ``delta <= PIVOT_RTOL * n``
    is numerically collinear with S_k: it is skipped and recorded as
    (k, sel) in ``diagnostics["skipped_updates"]``.

    ``update_count`` counts length-n inner products: 1 per event for
    u'r_k, plus |S_k| + 1 per factor extension (1 when u = r_sel), shared
    by all nodes on the factor, so |S_k| + 2 for an event that extends a
    factor and 1 for one that shares it; see the module docstring.
    Raises ValueError when the neighborhoods cover another node count than
    the data or a neighborhood has more members than there are samples.
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
    # column-major, as every update touches single columns; a standardized
    # copy made here is dropped at once, which keeps two n x p arrays alive
    values = np.asfortranarray((x if x.standardized else standardize(x)).values)
    r = values.copy(order="F")
    updater = _FactorUpdater(values, r)
    factor = [updater.root] * p
    affected: list[list[int]] = [[] for _ in range(p)]  # k such that j is in N(k)
    for k, s in enumerate(cfg.neighborhoods.sets):
        for j in s:
            affected[j].append(k)

    degenerate: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    scores = np.empty(p)
    for k in range(p):
        scores[k] = _score_or_neginf(cfg.family, r[:, k], k, 0, degenerate)

    chosen: list[int] = []
    unsorted = np.ones(p, dtype=bool)
    trace: list[list[tuple[int, float]]] | None = [] if cfg.trace else None
    rescore_events = 0  # neighbor-residual updates, the O(p d) unit
    for t in range(p):
        live = np.flatnonzero(unsorted)
        if trace is not None:
            trace.append([(int(k), float(scores[k])) for k in live])
        # np.argmax returns the first maximum, which is the lowest index here
        sel = int(live[np.argmax(scores[live])])
        chosen.append(sel)
        unsorted[sel] = False
        extended: dict[_Factor, tuple | None] = {}
        for k in affected[sel]:
            if not unsorted[k]:
                continue
            rescore_events += 1
            f = factor[k]
            if f not in extended:
                extended[f] = updater.extend(f, sel, shared=f is factor[sel])
            step = extended[f]
            if step is None:
                skipped.append((k, sel))
            else:
                factor[k], u, delta = step
                rk = r[:, k]
                rk -= (float(u @ rk) / delta) * u
                updater.inner_products += 1
            scores[k] = _score_or_neginf(cfg.family, r[:, k], k, t + 1, degenerate)
    return SortResult(
        ordering=Ordering(chosen),
        update_count=updater.inner_products,
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
