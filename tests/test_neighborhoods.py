import numpy as np
import pytest

import lingamsort.neighborhoods as nbh
from conftest import chain_dag, diamond_dag
from lingamsort import (
    Dag,
    DataMatrix,
    full_neighborhoods,
    markov_blankets,
    rng_stream,
    top_correlated,
)


class TestMarkovBlankets:
    def test_chain(self):
        mb = markov_blankets(chain_dag(3))
        assert mb.to_lists() == [[1], [0, 2], [1]]

    def test_collider_includes_coparent(self):
        dag = Dag(3, [[], [], [0, 1]])  # 0 -> 2 <- 1
        mb = markov_blankets(dag)
        assert mb.to_lists()[0] == [1, 2]

    def test_empty_graph(self):
        mb = markov_blankets(Dag(4, [[], [], [], []]))
        assert mb.to_lists() == [[], [], [], []]

    def test_diamond(self):
        mb = markov_blankets(diamond_dag())
        assert mb.to_lists() == [[1, 2], [0, 2, 3], [0, 1, 3], [1, 2]]

    def test_contains_parents_and_is_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = int(rng.integers(2, 12))
            parents = [list(rng.choice(k, size=rng.integers(0, min(k, 3) + 1), replace=False))
                       for k in range(p)]
            dag = Dag(p, parents)
            mb = markov_blankets(dag)
            sets = [set(s) for s in mb.to_lists()]
            for k in range(p):
                assert set(dag.parents[k]) <= sets[k]
                for j in sets[k]:
                    assert k in sets[j]


class TestTopCorrelated:
    def test_perfect_copy_wins(self):
        rng = rng_stream(1, 0)
        col = rng.standard_normal(64)
        x = DataMatrix(np.column_stack([col, col, rng.standard_normal(64)]))
        nbhd = top_correlated(x, 1)
        assert nbhd.to_lists()[0] == [1]
        assert nbhd.to_lists()[1] == [0]

    def test_cardinality_and_self_exclusion(self):
        rng = rng_stream(2, 0)
        x = DataMatrix(rng.standard_normal((32, 6)))
        nbhd = top_correlated(x, 2)
        for k, s in enumerate(nbhd.to_lists()):
            assert len(s) == 2
            assert k not in s

    def test_ties_break_toward_lower_index(self):
        rng = rng_stream(3, 0)
        col = rng.standard_normal(50)
        # columns 1 and 2 both correlate exactly 1 with column 0
        x = DataMatrix(np.column_stack([col, col, col, rng.standard_normal(50)]))
        assert top_correlated(x, 1).to_lists()[0] == [1]

    def test_scale_invariance(self):
        rng = rng_stream(4, 0)
        values = rng.standard_normal((40, 5))
        base = top_correlated(DataMatrix(values), 2).to_lists()
        scaled = top_correlated(DataMatrix(values * rng.uniform(0.1, 9.0, 5)), 2).to_lists()
        assert base == scaled

    def test_zero_variance_column_correlates_as_zero(self):
        rng = rng_stream(5, 0)
        values = rng.standard_normal((30, 4))
        values[:, 2] = 3.14
        nbhd = top_correlated(DataMatrix(values), 2)
        # the constant column never wins a top-2 slot against real signal
        for k in (0, 1, 3):
            assert 2 not in nbhd.to_lists()[k]

    def test_requires_m_below_p(self):
        x = DataMatrix(np.random.default_rng(0).standard_normal((10, 3)))
        with pytest.raises(ValueError):
            top_correlated(x, 3)

    def test_blockwise_matches_direct(self):
        # force the chunked path to agree with a one-shot computation
        import lingamsort.neighborhoods as nbh

        rng = rng_stream(6, 0)
        x = DataMatrix(rng.standard_normal((25, 9)))
        expected = top_correlated(x, 3).to_lists()
        old = nbh._CHUNK
        try:
            nbh._CHUNK = 2
            assert top_correlated(x, 3).to_lists() == expected
        finally:
            nbh._CHUNK = old


def top_correlated_by_argsort(values: np.ndarray, m: int) -> list[list[int]]:
    """Reference selection: per column, a stable argsort of the other columns
    by descending |corr|, so ties go to the lower index; keep the first m."""
    n, p = values.shape
    mean, sd = values.mean(axis=0), values.std(axis=0)
    z = (values - mean) / np.where(sd > 0, sd, 1.0)
    z[:, sd == 0] = 0.0
    corr = np.clip(z.T @ z / n, -1.0, 1.0)
    sets = []
    for k in range(p):
        strength = np.abs(corr[:, k])
        strength[k] = -np.inf
        sets.append(sorted(np.argsort(-strength, kind="stable")[:m].tolist()))
    return sets


class TestTopCorrelatedMatchesArgsort:
    """The partition-based selection picks the stable-argsort sets, ties included."""

    @staticmethod
    def _tied_data(p: int, seed: int) -> np.ndarray:
        # balanced +-1 columns standardize to themselves, so every |corr| is
        # an exact multiple of 1/16 whatever order the Gram sums in: ties
        # everywhere.  Duplicated and negated columns tie at 1, and a
        # constant column's row is all ties at 0.
        rng = rng_stream(seed, 0)
        signs = np.repeat([1.0, -1.0], 16)
        values = np.column_stack([rng.permutation(signs) for _ in range(p)])
        values[:, 3] = values[:, 0]
        values[:, 5] = -values[:, 0]
        values[:, p - 1] = values[:, 1]
        values[:, p - 2] = -values[:, 1]
        values[:, 7] = 2.5
        values[:, p // 2] = -1.0
        return values

    @pytest.mark.parametrize("p", [12, 2 * nbh._CHUNK + 37])
    def test_ties_and_m_extremes(self, p):
        values = self._tied_data(p, seed=p)
        for m in (1, 2, p - 1):
            assert top_correlated(DataMatrix(values), m).to_lists() == \
                top_correlated_by_argsort(values, m), m

    def test_random_data_across_chunks(self):
        rng = rng_stream(7, 0)
        p = nbh._CHUNK + 50
        mixing = np.eye(p) + np.triu(rng.uniform(-1, 1, (p, p)) * (rng.random((p, p)) < 0.02))
        values = rng.standard_normal((20, p)) @ mixing
        for m in (1, 2, 10, p - 1):
            assert top_correlated(DataMatrix(values), m).to_lists() == \
                top_correlated_by_argsort(values, m), m


class TestFullNeighborhoods:
    def test_three_nodes(self):
        assert full_neighborhoods(3).to_lists() == [[1, 2], [0, 2], [0, 1]]

    def test_single_node(self):
        assert full_neighborhoods(1).to_lists() == [[]]

    def test_superset_of_any_markov_blanket(self):
        full = [set(s) for s in full_neighborhoods(4).to_lists()]
        mb = [set(s) for s in markov_blankets(diamond_dag()).to_lists()]
        assert all(m <= f for m, f in zip(mb, full))
