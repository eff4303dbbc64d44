"""Core domain types: DAGs, weighted SEMs, orderings, data matrices.

A linear non-Gaussian acyclic model (LiNGAM) couples a DAG with a weighted
adjacency matrix B (B[j, k] != 0 exactly when j is a parent of k), a noise
family g(.; theta), and per-node scales theta_k, under the structural
equations

    X_k = sum_{j in PA_k} B[j, k] * X_j + eps_k,    eps_k ~ g(.; theta_k).

All types here are value types: construction validates the invariants and
instances are never mutated afterwards, so they are safe to share freely.
Node indices are 0-based everywhere, including file formats.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# Dense p x p matrices (B as a matrix, the mixing matrix M) are only
# materialized up to this node count; beyond it, storage stays column-sparse.
# A dense 10000 x 10000 double matrix would cost 800 MB.
DENSE_LIMIT = 2048

LAPLACE = "laplace"
LOGISTIC = "logistic"
SCALED_T = "scaled-t"
GAUSSIAN = "gaussian"

#: Families admissible as generating noise for the model class.  Gaussian is
#: deliberately excluded: a linear SEM with Gaussian errors has no
#: identifiable ordering, so it only appears as a negative control.
MODEL_FAMILIES = (LAPLACE, LOGISTIC, SCALED_T)


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
            if self.df is None or not self.df > 2:
                raise ValueError("scaled-t requires degrees of freedom > 2")
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

    Acyclicity is verified eagerly (Kahn traversal) so downstream code may
    assume it.
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
        self._check_acyclic()

    @classmethod
    def from_edges(cls, p: int, edges: Iterable[tuple[int, int]]) -> "Dag":
        parents: list[list[int]] = [[] for _ in range(int(p))]
        for j, k in edges:
            if not 0 <= int(k) < int(p):
                raise ValueError(f"child {k} of edge ({j}, {k}) out of range [0, {p})")
            parents[int(k)].append(int(j))
        return cls(p, parents)

    def _check_acyclic(self) -> None:
        # Kahn traversal; also yields an existence proof of a topological order.
        indeg = [len(pa) for pa in self.parents]
        children = self.children
        queue = [k for k in range(self.p) if indeg[k] == 0]
        seen = 0
        while queue:
            j = queue.pop()
            seen += 1
            for k in children[j]:
                indeg[k] -= 1
                if indeg[k] == 0:
                    queue.append(k)
        if seen != self.p:
            raise ValueError("graph contains a cycle")

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
    ``dag.parents[k]``.  Use :meth:`b_matrix` to materialize the dense
    adjacency matrix for small graphs.
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

    @classmethod
    def from_b_matrix(
        cls, dag: Dag, b: np.ndarray, family: NoiseFamily, scales: Sequence[float]
    ) -> "WeightedDag":
        """Build from a dense B, verifying its support matches the dag exactly."""
        b = np.asarray(b, dtype=float)
        if b.shape != (dag.p, dag.p):
            raise ValueError("B must be p x p")
        support = {(j, k) for j, k in zip(*np.nonzero(b))}
        declared = set(dag.edges())
        if support != declared:
            raise ValueError("support of B does not match the dag's parent lists")
        weights = [b[list(dag.parents[k]), k] for k in range(dag.p)]
        return cls(dag, weights, family, scales)

    @property
    def p(self) -> int:
        return self.dag.p

    def b_matrix(self) -> np.ndarray:
        """Dense p x p weight matrix; refused above DENSE_LIMIT nodes."""
        if self.p > DENSE_LIMIT:
            raise ValueError(
                f"dense B refused for p={self.p} > {DENSE_LIMIT}; use .weights columns"
            )
        b = np.zeros((self.p, self.p))
        for k in range(self.p):
            b[list(self.dag.parents[k]), k] = self.weights[k]
        return b

    def weighted_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (parent, child, weight) sorted by child, then parent."""
        for k in range(self.p):
            for j, w in zip(self.dag.parents[k], self.weights[k]):
                yield j, k, float(w)


@dataclass(frozen=True)
class DataMatrix:
    """An n x p observation matrix with a self-standardization flag.

    ``standardized`` means each column has sample mean 0 and sample
    standard deviation 1 (denominator n), which is verified at construction
    to absolute tolerance 1e-10.  ``moments`` is the (mean, sd) of the
    columns the matrix was standardized from when ``regression.standardize``
    made it, and None otherwise.
    """

    values: np.ndarray
    standardized: bool = False
    moments: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("data must be a non-empty 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "values", v)
        if self.standardized:
            mean = v.mean(axis=0)
            sd = v.std(axis=0)
            if np.max(np.abs(mean)) > 1e-10 or np.max(np.abs(sd - 1.0)) > 1e-10:
                raise ValueError("standardized flag set but columns are not standardized")

    @classmethod
    def _standardized(cls, values: np.ndarray,
                      moments: tuple[np.ndarray, np.ndarray]) -> DataMatrix:
        """Flag values that are standardized by construction, skipping the
        O(np) check of ``__post_init__``, and keep the source's ``moments``;
        for ``regression.standardize``."""
        x = object.__new__(cls)
        object.__setattr__(x, "values", values)
        object.__setattr__(x, "standardized", True)
        object.__setattr__(x, "moments", moments)
        return x

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


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

    def __iter__(self) -> Iterator[int]:
        return iter(self.perm)

    def __len__(self) -> int:
        return len(self.perm)


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


def mixing_matrix(w: WeightedDag) -> np.ndarray:
    """Mixing matrix M = (I - B)^{-T}, so that X = M eps.

    Computed row-by-row by back-substitution in topological order rather
    than general inversion: row k is e_k plus the weight-combination of its
    parents' rows.  Diagonal entries are exactly 1 and entries M[k, j] are
    exactly 0 unless j is k or an ancestor of k.
    """
    p = w.p
    if p > DENSE_LIMIT:
        raise ValueError(f"dense mixing matrix refused for p={p} > {DENSE_LIMIT}")
    m = np.zeros((p, p))
    for k in w.dag.topological_order():
        row = m[k]
        for j, wgt in zip(w.dag.parents[k], w.weights[k]):
            row += wgt * m[j]
        row[k] = 1.0
    return m


def is_topological(dag: Dag, ordering: Ordering) -> bool:
    """True iff every edge j -> k has j positioned before k in ``ordering``."""
    if ordering.p != dag.p:
        raise ValueError(f"ordering has {ordering.p} nodes, dag has {dag.p}")
    pos = ordering.positions()
    return all(pos[j] < pos[k] for j, k in dag.edges())
