"""Shared builders for the test suite."""
from __future__ import annotations

from itertools import permutations

import numpy as np

from lingamsort import (
    Dag,
    NoiseFamily,
    Ordering,
    WeightedDag,
    is_topological,
    markov_blankets,
    sample_data,
    sort,
)
from lingamsort.metrics import RankDeficient
from lingamsort.model import GAUSSIAN, PIVOT_RTOL


def chain_dag(p: int) -> Dag:
    return Dag(p, [[]] + [[k - 1] for k in range(1, p)])


def diamond_dag() -> Dag:
    # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
    return Dag(4, [[], [0], [0], [1, 2]])


def weighted_chain(p: int, b: float, theta: float, family: NoiseFamily) -> WeightedDag:
    dag = chain_dag(p)
    return WeightedDag(dag, [[]] + [[b]] * (p - 1), family, np.full(p, theta))


def all_dags(p: int):
    """Every labeled DAG on p nodes (by filtering all edge subsets)."""
    pairs = [(j, k) for j in range(p) for k in range(p) if j != k]
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        try:
            yield Dag.from_edges(p, edges)
        except ValueError:
            continue


def all_orderings(p: int):
    for perm in permutations(range(p)):
        yield Ordering(perm)


def dense_b(w: WeightedDag) -> np.ndarray:
    """The p x p weight matrix B of ``w``: B[j, k] is the weight of j -> k."""
    b = np.zeros((w.p, w.p))
    for k, (pa, wt) in enumerate(zip(w.dag.parents, w.weights)):
        b[list(pa), k] = wt
    return b


def mixing_matrix(w: WeightedDag) -> np.ndarray:
    """Mixing matrix M = (I - B)^{-T}, so that X = M eps.

    Computed row by row in topological order rather than by inversion:
    row k is e_k plus the weight-combination of its parents' rows, so
    diagonal entries are exactly 1 and M[k, j] is exactly 0 unless j is k
    or an ancestor of k.
    """
    m = np.zeros((w.p, w.p))
    for k in w.dag.topological_order():
        row = m[k]
        for j, wgt in zip(w.dag.parents[k], w.weights[k]):
            row += wgt * m[j]
        row[k] = 1.0
    return m


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
    outcomes: list[bool] = []
    for seed in seeds:
        result = sort(sample_data(w, n_large, seed), score_family, nbhd)
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


def ols_residual(y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-node OLS oracle: residual and coefficients of y on the columns of z.

    Solves the normal equations (z'z) beta = z'y; raises
    :class:`RankDeficient` when the Cholesky factorization of z'z fails or
    its smallest pivot falls below ``PIVOT_RTOL`` times the largest
    diagonal entry of z'z.  An empty z (zero columns) returns y unchanged.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("z must be 2-d")
    n, m = z.shape
    if m == 0:
        return y.copy(), np.empty(0)
    if y.shape != (n,):
        raise ValueError("y and z disagree on the sample count")
    if m > n:
        raise RankDeficient(f"more regressors ({m}) than samples ({n})")
    gram = z.T @ z
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(str(exc)) from exc
    # classical pivots are the squared factor diagonals; compare on the
    # Gram matrix's own scale
    pivots = np.diag(lower) ** 2
    if pivots.min() < PIVOT_RTOL * np.max(np.diag(gram)):
        raise RankDeficient("Cholesky pivot below the relative floor")
    beta = np.linalg.solve(gram, z.T @ y)
    return y - z @ beta, beta
