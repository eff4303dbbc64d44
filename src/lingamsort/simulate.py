"""Synthetic model and data generation.

Two graph protocols are supported: the large sparse scheme (a fixed
fraction of root nodes, every other node drawing 1..2 parents uniformly
from its predecessors in a random permutation) and weighting a
user-supplied DAG.  Noise samplers cover the Laplace, Logistic, and
Scaled-t families, plus a Gaussian sampler reserved for negative controls.

Randomness comes from counter-based Philox streams keyed hierarchically
off one master seed (numpy ``SeedSequence`` spawn keys), so per-column
noise streams are independent of evaluation order and every output is
bit-reproducible from ``(config, seed)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GAUSSIAN,
    LAPLACE,
    LOGISTIC,
    MODEL_FAMILIES,
    SCALED_T,
    Dag,
    DataMatrix,
    NoiseFamily,
    Ordering,
    WeightedDag,
)

# Spawn-key domains under the master seed.  Noise streams additionally key
# on the column index: (STREAM_NOISE, k).
STREAM_GRAPH = 0
STREAM_WEIGHTS = 1
STREAM_SCALES = 2
STREAM_NOISE = 3
STREAM_SPLIT = 4
STREAM_REPLICATE = 5


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for one (seed, key path) slot."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit child seed for one (seed, key path) slot."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class LargeSparse:
    """Graph scheme of the large-network protocol."""

    root_frac: float = 0.05
    min_parents: int = 1
    max_parents: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.root_frac < 1:
            raise ValueError("root_frac must lie in (0, 1)")
        if self.min_parents < 1 or self.max_parents < self.min_parents:
            raise ValueError("need 1 <= min_parents <= max_parents")


@dataclass(frozen=True)
class FromDag:
    """Graph scheme that reuses a fixed DAG (e.g. loaded from an edge list)."""

    dag: Dag


@dataclass(frozen=True)
class SimConfig:
    """Full recipe for one synthetic data set."""

    p: int
    n: int
    seed: int
    family: NoiseFamily
    graph: LargeSparse | FromDag = LargeSparse()
    coef_low: float = 0.4
    coef_high: float = 0.9
    scale_low: float = 0.4
    scale_high: float = 0.7

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, found {self.seed}")
        if not 0 < self.coef_low <= self.coef_high:
            raise ValueError("need 0 < coef_low <= coef_high")
        if not 0 < self.scale_low <= self.scale_high:
            raise ValueError("need 0 < scale_low <= scale_high")
        if self.family.tag not in MODEL_FAMILIES:
            raise ValueError(f"{self.family.tag!r} is not a generating family")
        if isinstance(self.graph, FromDag) and self.graph.dag.p != self.p:
            raise ValueError("graph dag has a different node count than p")
        # the sampler's own condition, refused here before anything is sampled
        if isinstance(self.graph, LargeSparse) and not 1 <= math.ceil(
                self.graph.root_frac * self.p) < self.p:
            raise ValueError(f"root_frac {self.graph.root_frac} leaves no roots or no "
                             f"children among p={self.p} nodes")


def generate_large_sparse_dag(
    p: int,
    root_frac: float,
    min_parents: int,
    max_parents: int,
    rng: np.random.Generator,
) -> tuple[Dag, Ordering]:
    """Random sparse DAG plus the permutation that generated it.

    A uniform permutation sigma is drawn; its first ceil(root_frac * p)
    positions become roots.  The node at position t >= n_roots draws its
    parent count uniformly from {min_parents, ..., min(max_parents, t)} and
    its parents uniformly without replacement from sigma's first t
    positions.  The returned ordering is sigma, which is topological for
    the returned dag by construction.
    """
    if p < 2:
        raise ValueError("need at least two nodes")
    n_roots = math.ceil(root_frac * p)
    if n_roots < 1 or n_roots >= p:
        raise ValueError("root fraction leaves no roots or no children")
    sigma = rng.permutation(p)
    parents: list[list[int]] = [[] for _ in range(p)]
    for t in range(n_roots, p):
        lo = min(min_parents, t)
        hi = min(max_parents, t)
        count = int(rng.integers(lo, hi + 1))
        chosen = rng.choice(sigma[:t], size=count, replace=False)
        parents[int(sigma[t])] = [int(j) for j in chosen]
    return Dag(p, parents), Ordering(int(k) for k in sigma)


def sample_weights(
    dag: Dag, coef_low: float, coef_high: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """Edge weights with |w| ~ Uniform[coef_low, coef_high] and random sign.

    Returned per column, aligned with ``dag.parents``; edges are visited in
    (child, parent) sorted order so the draw sequence is reproducible.
    """
    if not 0 < coef_low <= coef_high:
        raise ValueError("need 0 < coef_low <= coef_high")
    out: list[np.ndarray] = []
    for k in range(dag.p):
        m = len(dag.parents[k])
        mag = rng.uniform(coef_low, coef_high, size=m)
        sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        out.append(mag * sign)
    return out


def sample_noise(
    family: NoiseFamily, scale: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n iid mean-zero draws from the family at the given scale.

    Laplace and Logistic use the inverse CDF on a uniform draw; Scaled-t
    uses the ratio construction theta * Z / sqrt(V / df) with Z standard
    normal and V chi-square(df).  The Gaussian branch exists for negative
    controls only.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    tag = family.tag
    if tag in (LAPLACE, LOGISTIC):
        u = rng.random(n)
        # keep u inside the open interval so the inverse CDFs stay finite
        tiny = np.finfo(float).tiny
        np.clip(u, tiny, 1.0 - 1e-16, out=u)
        if tag == LAPLACE:
            half = u - 0.5
            return -scale * np.sign(half) * np.log1p(-2.0 * np.abs(half))
        return scale * np.log(u / (1.0 - u))
    if tag == SCALED_T:
        z = rng.standard_normal(n)
        v = rng.chisquare(family.df, n)
        return scale * z / np.sqrt(v / family.df)
    if tag == GAUSSIAN:
        return scale * rng.standard_normal(n)
    raise ValueError(f"cannot sample family {tag!r}")


def sample_data(w: WeightedDag, n: int, seed: int) -> DataMatrix:
    """n iid observations from the structural equations of ``w``.

    Column k's noise comes from its own Philox stream keyed by
    (seed, STREAM_NOISE, k), so the result does not depend on the order in
    which columns are evaluated.  The output is unstandardized.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = w.p
    x = np.empty((n, p), order="F")
    for k in range(p):
        x[:, k] = sample_noise(w.family, float(w.scales[k]), n, rng_stream(seed, STREAM_NOISE, k))
    for k in w.dag.topological_order():
        for j, wgt in zip(w.dag.parents[k], w.weights[k]):
            x[:, k] += wgt * x[:, j]
    return DataMatrix(x)


def sample_model(cfg: SimConfig) -> tuple[WeightedDag, Ordering]:
    """Draw the model (graph, weights, scales) described by ``cfg``."""
    if isinstance(cfg.graph, LargeSparse):
        dag, ordering = generate_large_sparse_dag(
            cfg.p,
            cfg.graph.root_frac,
            cfg.graph.min_parents,
            cfg.graph.max_parents,
            rng_stream(cfg.seed, STREAM_GRAPH),
        )
    else:
        dag = cfg.graph.dag
        ordering = Ordering(dag.topological_order())
    weights = sample_weights(dag, cfg.coef_low, cfg.coef_high, rng_stream(cfg.seed, STREAM_WEIGHTS))
    scales = rng_stream(cfg.seed, STREAM_SCALES).uniform(cfg.scale_low, cfg.scale_high, size=cfg.p)
    return WeightedDag(dag, weights, cfg.family, scales), ordering


def sample_dataset(cfg: SimConfig) -> tuple[WeightedDag, Ordering, DataMatrix]:
    """Model plus data in one call; the usual entry point for benchmarks."""
    w, ordering = sample_model(cfg)
    return w, ordering, sample_data(w, cfg.n, cfg.seed)
