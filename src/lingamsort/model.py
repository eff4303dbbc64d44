"""Core domain types: DAGs, weighted SEMs, orderings, data matrices, and
the standardization of data.

A linear non-Gaussian acyclic model (LiNGAM) couples a DAG with a weighted
adjacency matrix B (B[j, k] != 0 exactly when j is a parent of k), a noise
family g(.; theta), and per-node scales theta_k, under the structural
equations

    X_k = sum_{j in PA_k} B[j, k] * X_j + eps_k,    eps_k ~ g(.; theta_k).

All types here are value types: construction validates the invariants and
instances are never mutated afterwards, so they are safe to share freely.
Node indices are 0-based everywhere, including file formats.

No intercepts appear anywhere: columns are standardized to mean zero
before any fitting, so regressions go through the origin.  Column
moments are computed a chunk of columns at a time, on the data's own
layout, so that they equal ``np.mean`` and ``np.std`` over axis 0 bit for
bit without an n x p temporary; :func:`chunked_moments` standardizes in
the same pass, into a whole array for :func:`standardize` and the
``corr:`` screen or one chunk at a time for the sorter's first scoring.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

LAPLACE = "laplace"
LOGISTIC = "logistic"
SCALED_T = "scaled-t"
GAUSSIAN = "gaussian"

#: Families admissible as generating noise for the model class.  Gaussian is
#: deliberately excluded: a linear SEM with Gaussian errors has no
#: identifiable ordering, so it only appears as a negative control.
MODEL_FAMILIES = (LAPLACE, LOGISTIC, SCALED_T)

# Relative floor for the pivots of Z'Z (a regressor's squared residual norm
# on the regressors before it), on the scale n of a standardized column's
# squared norm: below it the design is treated as rank deficient.
PIVOT_RTOL = 1e-10

# Bytes of one column chunk of the moment pass, and so of its temporary: the
# sorter's step 0 scores each chunk as it is formed, and at this size its
# temporaries stay in a core's cache and add little to the sort's peak.
MOMENT_CHUNK_BYTES = 1 << 20


def decimal_number(text: str) -> float:
    """``text`` as a float if it is ASCII without ``_`` and ``float`` reads
    it, else a ValueError: ``float`` alone also reads ``1_0`` as 10 and
    takes non-ASCII digits and spaces.  The one rule for a number given as
    text: a data CSV cell, a ``corr:`` holdout fraction and scaled-t's
    degrees of freedom.  numpy's parser agrees with it on ASCII text."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


@dataclass(frozen=True)
class NoiseFamily:
    """Scale family of the error terms: Laplace, Logistic, or Scaled-t(df).

    ``gaussian`` is also accepted so that evaluation code can fit a normal
    density to residuals and so that negative-control experiments can sample
    Gaussian noise; simulation configs and the CLI reject it as a generating
    family.
    """

    tag: str
    df: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in (LAPLACE, LOGISTIC, SCALED_T, GAUSSIAN):
            raise ValueError(f"unknown noise family {self.tag!r}")
        if self.tag == SCALED_T:
            df = self.df
            if isinstance(df, bool) or not isinstance(df, Real) or not 2 < df < np.inf:
                raise ValueError(f"scaled-t requires finite real degrees of freedom > 2, "
                                 f"found {df!r}")
        elif self.df is not None:
            raise ValueError(f"df is only meaningful for {SCALED_T!r}")

    @classmethod
    def laplace(cls) -> "NoiseFamily":
        return cls(LAPLACE)

    @classmethod
    def logistic(cls) -> "NoiseFamily":
        return cls(LOGISTIC)

    @classmethod
    def scaled_t(cls, df: float) -> "NoiseFamily":
        return cls(SCALED_T, df=float(df))

    @classmethod
    def gaussian(cls) -> "NoiseFamily":
        return cls(GAUSSIAN)

    @classmethod
    def from_string(cls, text: str) -> "NoiseFamily":
        """Parse ``laplace``, ``logistic``, ``scaled-t:NU``, or ``gaussian``."""
        name, sep, arg = text.partition(":")
        name = name.strip().lower()
        if name == SCALED_T:
            if not sep:
                raise ValueError("scaled-t needs degrees of freedom, e.g. 'scaled-t:10'")
            return cls.scaled_t(decimal_number(arg))
        if sep:
            raise ValueError(f"family {name!r} takes no parameter")
        return cls(name)

    def __str__(self) -> str:
        if self.tag == SCALED_T:
            return f"{self.tag}:{self.df:g}"
        return self.tag


class Dag:
    """Directed acyclic graph on ``p`` nodes, whose parent sets are one
    :class:`NeighborhoodSets`, ``parent_sets``.

    ``parents[k]`` is node k's parents as a sorted int64 view of
    ``parent_sets.members``, and ``children[k]`` the nodes that list k,
    increasing, from :meth:`NeighborhoodSets.reverse`.  The set family
    refuses a parent out of range and a node among its own parents; the Dag
    adds a parent listed twice, found as a set smaller than its list, and a
    cycle, found eagerly (a topological order must reach every node), so
    downstream code may assume acyclicity.
    """

    def __init__(self, p: int, parents: Sequence[Sequence[int]]):
        p = int(p)
        if p < 1:
            raise ValueError("node count must be positive")
        if len(parents) != p:
            raise ValueError(f"expected {p} parent lists, got {len(parents)}")
        sets = NeighborhoodSets(parents)
        for k in np.flatnonzero(sets.sizes != [len(pa) for pa in parents])[:1]:
            raise ValueError(f"duplicate parent in list of node {k}")
        self.p = p
        self.parent_sets = sets
        self.parents: tuple[np.ndarray, ...] = sets.sets
        if len(self.topological_order()) != p:
            raise ValueError("graph contains a cycle")

    @classmethod
    def from_edges(cls, p: int, edges: Iterable[tuple[int, int]]) -> "Dag":
        parents: list[list[int]] = [[] for _ in range(int(p))]
        for j, k in edges:
            if not 0 <= int(k) < int(p):
                raise ValueError(f"child {k} of edge ({j}, {k}) out of range [0, {p})")
            parents[int(k)].append(int(j))
        return cls(p, parents)

    @cached_property
    def children(self) -> tuple[np.ndarray, ...]:
        return self.parent_sets.reverse()

    def topological_order(self) -> list[int]:
        """One topological order (lowest-index-first Kahn), as node indices."""
        indeg = self.parent_sets.sizes.tolist()
        heap = [k for k in range(self.p) if indeg[k] == 0]
        heapq.heapify(heap)
        out: list[int] = []
        while heap:
            j = heapq.heappop(heap)
            out.append(j)
            for k in self.children[j].tolist():
                indeg[k] -= 1
                if indeg[k] == 0:
                    heapq.heappush(heap, k)
        return out

    @property
    def edge_count(self) -> int:
        return self.parent_sets.members.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dag) and self.parent_sets.to_lists() == other.parent_sets.to_lists()

    def __repr__(self) -> str:
        return f"Dag(p={self.p}, edges={self.edge_count})"


class WeightedDag:
    """A Dag plus edge weights, noise family, and per-node noise scales.

    ``edge_weights`` holds one weight per edge, aligned with
    ``dag.parent_sets.members``, and ``weights[k]``, node k's weights
    aligned with ``dag.parents[k]``, is a view of it, so no p x p matrix is
    ever built.  Each node's weights must be 1-d, one per parent; then
    every weight is checked in one pass over ``edge_weights``, and the
    first node with a zero or non-finite one is named.
    """

    def __init__(
        self,
        dag: Dag,
        weights: Sequence[Sequence[float]],
        family: NoiseFamily,
        scales: Sequence[float],
    ):
        if len(weights) != dag.p:
            raise ValueError("one weight list per node required")
        cols = [np.asarray(w, dtype=float) for w in weights]
        for k in [k for k, (w, pa) in enumerate(zip(cols, dag.parents)) if w.shape != pa.shape][:1]:
            raise ValueError(f"weights of node {k} do not match its parent list")
        flat = np.concatenate(cols)
        for i in np.flatnonzero(~(np.isfinite(flat) & (flat != 0.0)))[:1]:
            k = np.searchsorted(np.cumsum(dag.parent_sets.sizes), i, side="right")
            raise ValueError(f"non-finite or zero weight on an edge into node {k}")
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (dag.p,):
            raise ValueError("need one scale per node")
        if not np.all((scales > 0) & np.isfinite(scales)):
            raise ValueError("all noise scales must be finite and strictly positive")
        self.dag = dag
        self.edge_weights = flat
        self.weights = _views(flat, dag.parent_sets.sizes)
        self.family = family
        self.scales = scales

    @property
    def p(self) -> int:
        return self.dag.p


@dataclass(frozen=True)
class DataMatrix:
    """An n x p observation matrix.

    ``moments`` is the (mean, sd) of the columns the matrix was
    standardized from when :func:`standardize` made it, and None
    otherwise.
    """

    values: np.ndarray
    moments: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("data must be a non-empty 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "values", v)

    @classmethod
    def _standardized(cls, values: np.ndarray,
                      moments: tuple[np.ndarray, np.ndarray]) -> DataMatrix:
        """Values that are standardized by construction, with the source's
        ``moments``, skipping the finiteness pass of ``__post_init__``; for
        :func:`standardize`."""
        x = object.__new__(cls)
        object.__setattr__(x, "values", values)
        object.__setattr__(x, "moments", moments)
        return x

    @property
    def standardized(self) -> bool:
        """True when :func:`standardize` made this matrix: each
        column has mean 0 and standard deviation 1 (denominator n)."""
        return self.moments is not None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


class ZeroVarianceColumn(ValueError):
    """A data column is constant and cannot be standardized."""

    def __init__(self, column: int):
        super().__init__(f"column {column} has zero variance")
        self.column = column


class VarianceOverflow(ValueError):
    """A data column's variance overflows double precision."""

    def __init__(self, column: int):
        super().__init__(f"column {column} variance overflows")
        self.column = column


def block_ranges(count: int, width: int) -> list[tuple[int, int]]:
    """Ranges [lo, hi) that cover 0..count in steps of ``width``, except
    that a one-wide tail joins the range before it: numpy sums a lone column
    of a row-major array, and computes a one-column matrix product, in
    another order than it does for each column of a wider block."""
    bounds = [*range(0, max(count - 1, 1), width), count]
    return list(zip(bounds[:-1], bounds[1:]))


def chunked_moments(values: np.ndarray, out: np.ndarray | None = None,
                    visit: Callable[[int, np.ndarray], None] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations (denominator n), equal bit for
    bit to ``values.mean(axis=0)`` and ``values.std(axis=0)``, and the one
    place that standardizes columns by their own moments.

    ``out`` alone receives ``(values - mean) / sd``, which is NaN in a
    constant column.  With ``visit`` too, ``out`` is column-major scratch:
    each chunk's standardized columns lo.. are written to its leading
    columns, as z, and ``visit(lo, z)`` is called, unless one of them is
    constant or overflows; the next chunk overwrites z.

    Works on chunks of columns of about ``MOMENT_CHUNK_BYTES``, as
    :func:`block_ranges` cuts them with at least two columns each, and
    repeats numpy's arithmetic: the sum over rows divided by n, then the
    same for the squared deviations, which are formed in the source's
    layout because that sets numpy's summation order.  An overflow leaves
    an infinite or NaN sd and raises no warning; once the pass and its
    visits are done, it refuses: :class:`VarianceOverflow` names the lowest
    column whose sd is not finite.  A constant column's sd is 0, which it
    returns.
    """
    n, p = values.shape
    mean = np.empty(p)
    sd = np.empty(p)
    for lo, hi in block_ranges(p, max(2, MOMENT_CHUNK_BYTES // (8 * n))):
        block = values[:, lo:hi]
        z = None if out is None else out[:, :hi - lo] if visit else out[:, lo:hi]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = np.divide(np.add.reduce(block, axis=0), n, out=mean[lo:hi])
            if z is None:
                dev = block - m
                np.multiply(dev, dev, out=dev)
            else:
                np.subtract(block, m, out=z)
                dev = np.multiply(z, z, out=np.empty_like(block))
            s = np.sqrt(np.add.reduce(dev, axis=0) / n, out=sd[lo:hi])
            if z is not None:
                z /= s
        del dev  # the squares are not kept while visit scores the chunk
        if visit is not None and ((0.0 < s) & (s < np.inf)).all():
            visit(lo, z)
    for k in np.flatnonzero(~np.isfinite(sd))[:1]:
        raise VarianceOverflow(int(k))
    return mean, sd


def column_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column (mean, sd): :func:`chunked_moments` of ``values`` as floats."""
    return chunked_moments(np.asarray(values, dtype=float))


def standardize_pass(values: np.ndarray, out: np.ndarray | None = None,
                     visit: Callable[[int, np.ndarray], None] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """One chunked pass over an n x p array: its column moments (mean, sd),
    equal bit for bit to :func:`column_moments`, with its standardized
    columns ``(values - mean) / sd`` written to ``out``, or handed to
    ``visit`` a chunk at a time through the scratch ``out``, as
    :func:`chunked_moments` sets out.

    Raises ValueError for fewer than two rows, then the
    :class:`VarianceOverflow` of :func:`chunked_moments` for the lowest
    column whose variance overflows, then :class:`ZeroVarianceColumn` for
    the lowest constant column.
    """
    if values.shape[0] < 2:
        raise ValueError("standardization needs at least two rows")
    mean, sd = chunked_moments(values, out, visit)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise ZeroVarianceColumn(int(bad[0]))
    return mean, sd


def standardize(x: DataMatrix) -> DataMatrix:
    """Center and scale every column to mean 0, sd 1 (denominator n).

    The result is a fresh column-major array, written by
    :func:`standardize_pass`, whose errors it raises; its ``moments`` are
    the input's (mean, sd), equal bit for bit to :func:`column_moments`.
    """
    out = np.empty(x.values.shape, order="F")
    moments = standardize_pass(x.values, out)
    # a finite sd makes every entry finite, with |z| <= sqrt(n), so the result
    # skips DataMatrix's finiteness pass
    return DataMatrix._standardized(out, moments)


def apply_moments(x: DataMatrix, mean: np.ndarray, sd: np.ndarray) -> DataMatrix:
    """Apply a previously fitted standardization (e.g. training statistics).

    The result is not flagged ``standardized``: its columns are centered by
    the supplied moments, not its own.  One mean and one sd per column are
    required, each finite and each sd positive, or the first column that
    breaks the rule is named: an infinite sd would map its column to
    zeros, which score as data.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if mean.shape != (x.p,) or sd.shape != (x.p,):
        raise ValueError("moments do not match the data's column count")
    for k in np.flatnonzero(~((sd > 0) & np.isfinite(sd) & np.isfinite(mean)))[:1]:
        raise ValueError(f"column v{k}: mean {mean[k]}, sd {sd[k]}; need finite moments and sd > 0")
    return DataMatrix((x.values - mean) / sd)


@dataclass(frozen=True)
class Ordering:
    """A permutation of 0..p-1; ``perm[t]`` is the node placed at position t."""

    perm: tuple[int, ...]

    def __init__(self, perm: Iterable[int]):
        perm = tuple(int(k) for k in perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation of 0..p-1")
        object.__setattr__(self, "perm", perm)

    @property
    def p(self) -> int:
        return len(self.perm)

    def positions(self) -> np.ndarray:
        """Inverse permutation: positions()[k] is the position of node k."""
        pos = np.empty(self.p, dtype=np.int64)
        pos[list(self.perm)] = np.arange(self.p)
        return pos


class NeighborhoodSets:
    """One sorted set of node indices per node, which never holds the node
    itself: the sorter's candidate neighbor sets, and a :class:`Dag`'s
    parent sets.

    ``sets[k]`` is node k's set as a sorted int64 array without repeats,
    and ``sizes[k]`` its size.  The sets are views of one array,
    ``members``, which holds set 0, then set 1, and so on.  Construction
    checks every set in one pass over their concatenation: it refuses a
    member outside [0, p), then a node in its own set, naming the first set
    k with either, and sorts and dedupes by (owner, member) only when some
    set is unsorted or repeats a member.  A member too large for int64 is
    refused as out of range as its set is read, before that pass.
    :meth:`reverse` gives the sets that hold each node.
    """

    def __init__(self, sets: Sequence[Iterable[int]]):
        p = len(sets)
        parts = []
        for k, s in enumerate(sets):
            s = s if isinstance(s, np.ndarray) else list(s)
            try:
                parts.append(np.asarray(s, dtype=np.int64).ravel())
            except OverflowError:  # a member beyond int64 is out of range too
                bad = next(j for j in s if not 0 <= j < p)
                raise ValueError(f"index {bad} out of range in set {k}, not in [0, {p})") from None
        sizes = np.array([a.size for a in parts], dtype=np.int64)
        members = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        owner = np.repeat(np.arange(p), sizes)
        outside = (members < 0) | (members >= p)
        bad = np.flatnonzero(outside | (members == owner))
        if bad.size:
            k = int(owner[bad[0]])
            out = members[(owner == k) & outside]
            if out.size:
                raise ValueError(f"index {out[0]} out of range in set {k}, not in [0, {p})")
            raise ValueError(f"node {k} contained in its own set")
        key = owner  # (owner, member) as one int64, increasing along sorted sets
        key *= p
        key += members
        if not (key[1:] > key[:-1]).all():
            key.sort()
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
            owner, members = np.divmod(key, p)
            sizes = np.bincount(owner, minlength=p)
        self.members = members
        self.sizes = sizes
        self.sets = _views(members, sizes)

    @property
    def p(self) -> int:
        return len(self.sets)

    def reverse(self) -> tuple[np.ndarray, ...]:
        """The sets that hold each node: ``reverse()[j]`` is every k with j
        in set k, increasing, as int32 views of one array.  One stable
        argsort of ``members`` builds it, keeping each node's owners in
        order."""
        owners = np.repeat(np.arange(self.p, dtype=np.int32), self.sizes)
        return _views(owners[np.argsort(self.members, kind="stable")],
                      np.bincount(self.members, minlength=self.p))

    def to_lists(self) -> list[list[int]]:
        return [s.tolist() for s in self.sets]


def _views(flat: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """``flat`` cut into consecutive views of ``sizes[k]`` entries each."""
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    return tuple(flat[a:b] for a, b in zip(bounds[:-1], bounds[1:]))
