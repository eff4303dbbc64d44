import math

import numpy as np
import pytest

from conftest import chain_dag, mixing_matrix, weighted_chain
from lingamsort import (
    Dag,
    LargeSparse,
    NoiseFamily,
    SimConfig,
    WeightedDag,
    is_topological,
    rng_stream,
    sample_data,
    sample_dataset,
    sample_noise,
    sample_weights,
)
from lingamsort.simulate import STREAM_NOISE, generate_large_sparse_dag

LAP = NoiseFamily.laplace()


class TestGenerateLargeSparseDag:
    def test_two_nodes_forced_structure(self):
        dag, ordering = generate_large_sparse_dag(2, 0.5, 1, 1, rng_stream(0, 0))
        root, child = ordering.perm
        assert dag.parents[child] == (root,)
        assert dag.parents[root] == ()

    def test_degrees_and_topology(self):
        rng = rng_stream(123, 0)
        dag, ordering = generate_large_sparse_dag(20, 0.05, 1, 2, rng)
        roots = [k for k in range(20) if not dag.parents[k]]
        assert len(roots) == 1  # ceil(0.05 * 20)
        for k in range(20):
            if k not in roots:
                assert len(dag.parents[k]) in (1, 2)
        assert is_topological(dag, ordering)

    def test_root_fraction_thousand_nodes(self):
        # the large-network protocol: 5% of nodes are roots
        dag, _ = generate_large_sparse_dag(1000, 0.05, 1, 2, rng_stream(7, 0))
        assert sum(1 for k in range(1000) if not dag.parents[k]) == 50

    def test_generated_ordering_always_topological(self):
        for seed in range(10):
            dag, ordering = generate_large_sparse_dag(50, 0.1, 1, 3, rng_stream(seed, 0))
            assert is_topological(dag, ordering)


class TestSampleWeights:
    def test_degenerate_interval(self):
        dag = chain_dag(5)
        weights = sample_weights(dag, 0.5, 0.5, rng_stream(1, 1))
        for k in range(1, 5):
            assert np.abs(weights[k]) == pytest.approx(0.5)

    def test_mean_magnitude(self):
        # complete DAG on 450 nodes gives ~1e5 edges; E|w| = (0.4 + 0.9) / 2
        p = 450
        dag = Dag(p, [list(range(k)) for k in range(p)])
        weights = sample_weights(dag, 0.4, 0.9, rng_stream(2, 1))
        mags = np.concatenate([np.abs(w) for w in weights])
        assert mags.size >= 10**5
        assert abs(mags.mean() - 0.65) <= 0.01

    def test_signs_are_rademacher(self):
        p = 450
        dag = Dag(p, [list(range(k)) for k in range(p)])
        weights = sample_weights(dag, 0.4, 0.9, rng_stream(3, 1))
        signs = np.concatenate([np.sign(w) for w in weights])
        assert abs(signs.mean()) <= 0.02

    def test_empty_dag(self):
        weights = sample_weights(Dag(3, [[], [], []]), 0.4, 0.9, rng_stream(4, 1))
        assert all(w.size == 0 for w in weights)


class TestSampleNoise:
    N = 10**6

    def test_laplace_mean_absolute(self):
        x = sample_noise(LAP, 0.5, self.N, rng_stream(5, 2))
        assert abs(np.abs(x).mean() - 0.5) <= 0.005

    def test_logistic_variance(self):
        x = sample_noise(NoiseFamily.logistic(), 1.0, self.N, rng_stream(6, 2))
        assert abs(x.var() - math.pi**2 / 3) <= 0.05

    def test_scaled_t_variance(self):
        x = sample_noise(NoiseFamily.scaled_t(10), 1.0, self.N, rng_stream(7, 2))
        assert abs(x.var() - 10 / 8) <= 0.05

    def test_means_are_zero(self):
        for family in [LAP, NoiseFamily.logistic(), NoiseFamily.scaled_t(10)]:
            x = sample_noise(family, 1.0, self.N, rng_stream(8, 2))
            assert abs(x.mean()) <= 4 * x.std() / math.sqrt(self.N)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            sample_noise(LAP, 0.0, 10, rng_stream(9, 2))


class TestSampleData:
    def test_no_edges_returns_pure_noise(self):
        dag = Dag(3, [[], [], []])
        w = WeightedDag(dag, [[], [], []], LAP, [0.4, 0.5, 0.6])
        x = sample_data(w, 100, seed=77)
        for k in range(3):
            expected = sample_noise(LAP, w.scales[k], 100, rng_stream(77, STREAM_NOISE, k))
            assert np.array_equal(x.values[:, k], expected)

    def test_chain_variance_propagation(self):
        # Var X_1 = 0.8^2 * 2 * 0.25 + 2 * 0.25 = 0.82 for Laplace(0, 0.5) noise
        w = weighted_chain(2, 0.8, 0.5, LAP)
        x = sample_data(w, 10**6, seed=3)
        assert abs(x.values[:, 1].var() - 0.82) <= 0.01

    def test_bit_identical_reruns(self):
        w = weighted_chain(4, 0.6, 0.5, NoiseFamily.logistic())
        a = sample_data(w, 256, seed=11)
        b = sample_data(w, 256, seed=11)
        assert np.array_equal(a.values, b.values)
        c = sample_data(w, 256, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_covariance_matches_mixing_matrix(self):
        # empirical covariance converges to M diag(Var eps) M^T, where a
        # Laplace draw of scale theta has variance 2 theta^2
        dag = Dag(5, [[], [0], [0, 1], [2], [1, 3]])
        rng = rng_stream(21, 1)
        weights = [rng.uniform(0.4, 0.9, len(dag.parents[k])) for k in range(5)]
        w = WeightedDag(dag, weights, LAP, [0.5, 0.7, 0.4, 0.6, 0.5])
        x = sample_data(w, 10**6, seed=21)
        m = mixing_matrix(w)
        target = m @ np.diag(2.0 * w.scales**2) @ m.T
        empirical = np.cov(x.values, rowvar=False, bias=True)
        assert np.max(np.abs(empirical - target)) <= 0.02


class TestSimConfig:
    def test_rejects_gaussian_generating_family(self):
        with pytest.raises(ValueError, match="generating"):
            SimConfig(p=3, n=10, seed=0, family=NoiseFamily.gaussian())

    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            SimConfig(p=3, n=10, seed=0, family=LAP, coef_low=0.9, coef_high=0.4)
        with pytest.raises(ValueError):
            LargeSparse(root_frac=1.5)

    @pytest.mark.parametrize("bound", ["coef_high", "scale_high"])
    def test_refuses_an_infinite_bound(self, bound):
        # sampling from it raised OverflowError, after the graph was drawn
        with pytest.raises(ValueError, match=f"{bound} < inf, found 0.4 and inf"):
            SimConfig(p=3, n=10, seed=0, family=LAP, **{bound: math.inf})

    def test_sample_dataset_reproducible(self):
        cfg = SimConfig(p=12, n=64, seed=99, family=NoiseFamily.scaled_t(10))
        w1, o1, x1 = sample_dataset(cfg)
        w2, o2, x2 = sample_dataset(cfg)
        assert o1.perm == o2.perm
        assert w1.dag == w2.dag
        assert all(np.array_equal(a, b) for a, b in zip(w1.weights, w2.weights))
        assert np.array_equal(w1.scales, w2.scales)
        assert np.array_equal(x1.values, x2.values)

    def test_from_dag_scheme_uses_given_graph(self):
        dag = chain_dag(4)
        cfg = SimConfig(p=4, n=16, seed=5, family=LAP, graph=dag)
        w, ordering, _ = sample_dataset(cfg)
        assert w.dag == dag
        assert is_topological(dag, ordering)
