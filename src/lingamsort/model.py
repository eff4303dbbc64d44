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
bit without an n x p temporary; :func:`standardize_pass` standardizes in
the same pass, into a whole array for :func:`standardize` or one chunk at
a time for the sorter's first scoring.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Iterable, Iterator, Sequence

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

# Bytes of one column chunk of the moment pass, and so of its temporary.
MOMENT_CHUNK_BYTES = 2 << 20


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
            return cls.scaled_t(float(arg))
        if sep:
            raise ValueError(f"family {name!r} takes no parameter")
        return cls(name)

    def __str__(self) -> str:
        if self.tag == SCALED_T:
            return f"{self.tag}:{self.df:g}"
        return self.tag


class Dag:
    """Directed acyclic graph on ``p`` nodes, stored as sorted parent lists.

    Acyclicity is verified eagerly (a topological order must reach every
    node) so downstream code may assume it.
    """

    def __init__(self, p: int, parents: Sequence[Iterable[int]]):
        p = int(p)
        if p < 1:
            raise ValueError("node count must be positive")
        if len(parents) != p:
            raise ValueError(f"expected {p} parent lists, got {len(parents)}")
        norm: list[tuple[int, ...]] = []
        for k, pa in enumerate(parents):
            pa = tuple(sorted(int(j) for j in pa))
            for j in pa:
                if not 0 <= j < p:
                    raise ValueError(f"parent {j} of node {k} out of range [0, {p})")
                if j == k:
                    raise ValueError(f"node {k} lists itself as a parent")
            if len(set(pa)) != len(pa):
                raise ValueError(f"duplicate parent in list of node {k}")
            norm.append(pa)
        self.p = p
        self.parents: tuple[tuple[int, ...], ...] = tuple(norm)
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
    def children(self) -> tuple[tuple[int, ...], ...]:
        ch: list[list[int]] = [[] for _ in range(self.p)]
        for k, pa in enumerate(self.parents):
            for j in pa:
                ch[j].append(k)
        return tuple(tuple(c) for c in ch)

    def topological_order(self) -> list[int]:
        """One topological order (lowest-index-first Kahn), as node indices."""
        indeg = [len(pa) for pa in self.parents]
        heap = [k for k in range(self.p) if indeg[k] == 0]
        heapq.heapify(heap)
        out: list[int] = []
        while heap:
            j = heapq.heappop(heap)
            out.append(j)
            for k in self.children[j]:
                indeg[k] -= 1
                if indeg[k] == 0:
                    heapq.heappush(heap, k)
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (parent, child) sorted by child, then parent."""
        for k, pa in enumerate(self.parents):
            for j in pa:
                yield j, k

    @property
    def edge_count(self) -> int:
        return sum(len(pa) for pa in self.parents)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dag) and self.p == other.p and self.parents == other.parents

    def __repr__(self) -> str:
        return f"Dag(p={self.p}, edges={self.edge_count})"


class WeightedDag:
    """A Dag plus edge weights, noise family, and per-node noise scales.

    Weights are stored column-sparse: ``weights[k]`` is aligned with
    ``dag.parents[k]``, so no p x p matrix is ever built.
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
        cols: list[np.ndarray] = []
        for k, w in enumerate(weights):
            w = np.asarray(w, dtype=float)
            if w.shape != (len(dag.parents[k]),):
                raise ValueError(f"weights of node {k} do not match its parent list")
            if not np.all(np.isfinite(w) & (w != 0.0)):
                raise ValueError(f"non-finite or zero weight on an edge into node {k}")
            cols.append(w)
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (dag.p,):
            raise ValueError("need one scale per node")
        if not np.all((scales > 0) & np.isfinite(scales)):
            raise ValueError("all noise scales must be finite and strictly positive")
        self.dag = dag
        self.weights: tuple[np.ndarray, ...] = tuple(cols)
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


def _chunks(n: int, p: int, nbytes: int):
    """Column ranges [lo, hi) of about ``nbytes`` each.

    None is one column wide unless p is 1: numpy sums a lone column of a
    row-major array pairwise, but the columns of a wider block one row at a
    time, as ``np.mean`` does over the whole array.
    """
    width = max(2, nbytes // (8 * n))
    bounds = list(range(0, p, width))
    if p > 1 and p % width == 1:
        bounds.pop()  # the one-column tail joins the chunk before it
    bounds.append(p)
    return zip(bounds[:-1], bounds[1:])


def _moments(values: np.ndarray, out: np.ndarray | None = None,
             visit: Callable[[int, np.ndarray], None] | None = None,
             nbytes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations (denominator n), equal bit for
    bit to ``values.mean(axis=0)`` and ``values.std(axis=0)``.

    ``out`` alone receives ``(values - mean) / sd``.  With ``visit`` too,
    ``out`` is column-major scratch: each chunk's standardized columns
    lo.. are written to its leading columns, as z, and ``visit(lo, z)`` is
    called, unless one of them is constant or overflows, which the callers
    refuse; the next chunk overwrites z.

    Works one chunk of about ``nbytes`` (``MOMENT_CHUNK_BYTES`` by default)
    at a time and repeats numpy's arithmetic: the sum over rows divided by
    n, then the same for the squared deviations, which are formed in the
    source's layout because that sets numpy's summation order.  An
    overflow leaves an infinite or NaN sd and raises no warning; the
    callers check.
    """
    n, p = values.shape
    mean = np.empty(p)
    sd = np.empty(p)
    for lo, hi in _chunks(n, p, nbytes or MOMENT_CHUNK_BYTES):
        block = values[:, lo:hi]
        z = None if out is None else out[:, :hi - lo] if visit else out[:, lo:hi]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = np.add.reduce(block, axis=0) / n
            if z is None:
                dev = block - m
                np.multiply(dev, dev, out=dev)
            else:
                np.subtract(block, m, out=z)
                dev = np.multiply(z, z, out=np.empty_like(block))
            s = np.sqrt(np.add.reduce(dev, axis=0) / n)
            if z is not None:
                z /= s
        del dev  # the squares are not kept while visit scores the chunk
        mean[lo:hi] = m
        sd[lo:hi] = s
        if visit is not None and ((0.0 < s) & (s < np.inf)).all():
            visit(lo, z)
    return mean, sd


def _check_finite(sd: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(sd))
    if bad.size:
        raise VarianceOverflow(int(bad[0]))


def column_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation (denominator n).

    Bit for bit ``values.mean(axis=0)`` and ``values.std(axis=0)``, for
    row- and column-major input, without an n x p temporary.  Raises
    :class:`VarianceOverflow` when a column's variance overflows.
    """
    mean, sd = _moments(np.asarray(values, dtype=float))
    _check_finite(sd)
    return mean, sd


def standardize_pass(values: np.ndarray, out: np.ndarray | None = None,
                     visit: Callable[[int, np.ndarray], None] | None = None,
                     nbytes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One chunked pass over an n x p array: its column moments (mean, sd),
    equal bit for bit to :func:`column_moments`, with its standardized
    columns ``(values - mean) / sd`` written to ``out``, or handed to
    ``visit`` a chunk of about ``nbytes`` at a time through the scratch
    ``out``, as ``_moments`` sets out.

    Raises ValueError for fewer than two rows, then
    :class:`ZeroVarianceColumn` for the lowest constant column, then
    :class:`VarianceOverflow` for a column whose variance overflows.
    """
    if values.shape[0] < 2:
        raise ValueError("standardization needs at least two rows")
    mean, sd = _moments(values, out, visit, nbytes)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise ZeroVarianceColumn(int(bad[0]))
    _check_finite(sd)
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
    the supplied moments, not its own.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if mean.shape != (x.p,) or sd.shape != (x.p,):
        raise ValueError("moments do not match the data's column count")
    if not np.all(sd > 0):
        raise ValueError("standard deviations must be positive")
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
    """Per-node candidate neighbor sets; node k never contains itself."""

    def __init__(self, sets: Sequence[Iterable[int]]):
        p = len(sets)
        norm: list[np.ndarray] = []
        for k, s in enumerate(sets):
            arr = np.unique(np.asarray(s if isinstance(s, np.ndarray) else list(s),
                                       dtype=np.int64))
            if arr.size and (arr[0] < 0 or arr[-1] >= p):
                raise ValueError(f"neighbor index out of range in set {k}")
            if np.any(arr == k):
                raise ValueError(f"node {k} contained in its own neighborhood")
            norm.append(arr)
        self.sets: tuple[np.ndarray, ...] = tuple(norm)

    @property
    def p(self) -> int:
        return len(self.sets)

    def to_lists(self) -> list[list[int]]:
        return [[int(j) for j in s] for s in self.sets]


def is_topological(dag: Dag, ordering: Ordering) -> bool:
    """True iff every edge j -> k has j positioned before k in ``ordering``."""
    if ordering.p != dag.p:
        raise ValueError(f"ordering has {ordering.p} nodes, dag has {dag.p}")
    pos = ordering.positions()
    return all(pos[j] < pos[k] for j, k in dag.edges())
