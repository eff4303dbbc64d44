"""Candidate neighborhood construction.

The sorter only ever regresses a node on members of its neighborhood that
are already ordered, so neighborhoods bound both the statistical and the
computational work.  Three constructions are provided: oracle Markov
blankets from a known DAG, the top-m most correlated columns from held-out
data, and the trivial everything-but-self sets.
"""
from __future__ import annotations

import numpy as np

from .model import (MOMENT_CHUNK_BYTES, Dag, DataMatrix, NeighborhoodSets, block_ranges,
                    chunked_moments)

# Fewest rows of strengths per block.  Each block's Gram product re-reads
# all of z, so with fewer rows that read outweighs the product: 6 rows took
# 2.2 times as long as 32 at p = 20,000, n = 200.
_MIN_ROWS = 32


def markov_blankets(dag: Dag) -> NeighborhoodSets:
    """Parents, children, and co-parents of every node, excluding itself."""
    parents = [pa.tolist() for pa in dag.parents]
    sets = [set(pa) | set(ch.tolist()) for pa, ch in zip(parents, dag.children)]
    for k, ch in enumerate(dag.children):
        for child in ch.tolist():
            sets[k].update(parents[child])
        sets[k].discard(k)
    return NeighborhoodSets([sorted(s) for s in sets])


def top_correlated(x_holdout: DataMatrix, m: int) -> NeighborhoodSets:
    """For each column, the m most |Pearson|-correlated other columns.

    Ties break toward the lower index; zero-variance columns correlate as 0
    with everything, and a column whose variance overflows raises
    :class:`lingamsort.model.VarianceOverflow`.  Per column,
    ``np.partition`` finds the m-th largest strength; the set is every
    column strictly above it plus the lowest-index columns equal to it, up
    to m, so every set has exactly m members.

    The holdout is standardized in one :func:`lingamsort.model.chunked_moments`
    pass, straight into z, whose constant columns are then zeroed.  The
    p x p strength matrix is never materialized: it is worked on in blocks
    of rows, cut by :func:`lingamsort.model.block_ranges`, in buffers
    allocated once; a block has about ``MOMENT_CHUNK_BYTES`` of strengths,
    and at least ``_MIN_ROWS`` rows.  A block's Gram product is written
    straight into its buffer; a copy is partitioned in place for the m-th
    strengths; only rows with more than m columns at or above theirs are
    tie-broken; and one ``np.nonzero`` gives the block's sets.
    """
    n, p = x_holdout.n, x_holdout.p
    if not 0 < m < p:
        raise ValueError("need 0 < m < p")
    if n < 3:
        raise ValueError("holdout needs at least 3 rows")
    z = np.empty_like(x_holdout.values)
    sd = chunked_moments(x_holdout.values, z)[1]
    z[:, sd == 0] = 0.0
    blocks = block_ranges(p, max(_MIN_ROWS, MOMENT_CHUNK_BYTES // (8 * p)))
    width = max(hi - lo for lo, hi in blocks)
    strength = np.empty((width, p))
    work = np.empty((width, p))
    cand = np.empty((width, p), dtype=bool)
    members = np.empty((p, m), dtype=np.int64)
    for lo, hi in blocks:
        s, c = strength[:hi - lo], cand[:hi - lo]
        # |clip(corr, -1, 1)|, one row per column lo..hi-1
        np.matmul(z.T, z[:, lo:hi], out=s.T)
        s /= n
        np.abs(s, out=s)
        np.minimum(s, 1.0, out=s)
        diag = np.arange(hi - lo)
        s[diag, lo + diag] = -np.inf
        kth = work[:hi - lo]
        np.copyto(kth, s)
        kth.partition(p - m, axis=1)
        kth = kth[:, p - m, None]
        np.greater_equal(s, kth, out=c)
        over = np.flatnonzero(np.count_nonzero(c, axis=1) > m)
        if over.size:  # ties at the m-th strength: keep the lowest indices
            above = s[over] > kth[over]
            tied = s[over] == kth[over]
            room = m - np.count_nonzero(above, axis=1)[:, None]
            c[over] = above | (tied & (np.cumsum(tied, axis=1) <= room))
        members[lo:hi] = np.nonzero(c)[1].reshape(hi - lo, m)
    del z, strength, work, cand  # not held while the sets are checked
    return NeighborhoodSets(members)


def full_neighborhoods(p: int) -> NeighborhoodSets:
    """Every node neighbors every other node."""
    if p < 1:
        raise ValueError("p must be positive")
    idx = np.arange(p)
    return NeighborhoodSets([np.delete(idx, k) for k in range(p)])
