import math
import tracemalloc

import numpy as np
import pytest

from conftest import all_dags, all_orderings, chain_dag
from lingamsort import (
    Dag,
    DataMatrix,
    DegenerateResidual,
    NoiseFamily,
    Ordering,
    RankDeficient,
    SimConfig,
    WeightedDag,
    apply_moments,
    column_moments,
    fit_coefficients,
    fit_scale,
    full_neighborhoods,
    heldout_loglik,
    is_topological,
    log_density,
    markov_blankets,
    order_error,
    reversed_edge_count,
    rng_stream,
    sample_dataset,
    standardize,
)
import lingamsort.metrics
from lingamsort.model import DENSE_LIMIT

LAP = NoiseFamily.laplace()
GAU = NoiseFamily.gaussian()

TRIANGLE = Dag(3, [[], [0], [0, 1]])  # edges 0->1, 0->2, 1->2


def _no_edges(scales, family):
    """The model with no edges: each column scored on its own."""
    p = len(scales)
    return WeightedDag(Dag(p, [[]] * p), [[]] * p, family, scales)


class TestOrderError:
    def test_topological_orderings_score_zero(self):
        for ordering in all_orderings(3):
            if is_topological(TRIANGLE, ordering):
                assert order_error(TRIANGLE, ordering) == 0.0

    def test_single_reversal(self):
        # only edge 0 -> 1 is reversed by (1, 0, 2)
        assert order_error(TRIANGLE, Ordering([1, 0, 2])) == pytest.approx(1 / 9)

    def test_full_reversal(self):
        assert order_error(TRIANGLE, Ordering([2, 1, 0])) == pytest.approx(3 / 9)

    def test_zero_iff_topological_exhaustive(self):
        for p in (1, 2, 3, 4):
            for dag in all_dags(p):
                for ordering in all_orderings(p):
                    assert (order_error(dag, ordering) == 0.0) == is_topological(dag, ordering)

    def test_zero_iff_topological_all_permutations_p5(self):
        # all 120 permutations against a spread of 5-node graphs
        rng = np.random.default_rng(33)
        dags = [Dag(5, [[], [], [], [], []]), Dag(5, [[]] + [[k - 1] for k in range(1, 5)])]
        for _ in range(30):
            parents = [list(rng.choice(k, size=rng.integers(0, k + 1), replace=False))
                       for k in range(5)]
            dags.append(Dag(5, parents))
        for dag in dags:
            for ordering in all_orderings(5):
                assert (order_error(dag, ordering) == 0.0) == is_topological(dag, ordering)

    def test_bounded_by_edge_density(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = int(rng.integers(2, 6))
            parents = [list(rng.choice(k, size=rng.integers(0, k + 1), replace=False))
                       for k in range(p)]
            dag = Dag(p, parents)
            ordering = Ordering(rng.permutation(p))
            assert 0.0 <= order_error(dag, ordering) <= dag.edge_count / p**2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            order_error(TRIANGLE, Ordering([0, 1]))


class TestFitCoefficients:
    def test_recovers_true_weights(self):
        cfg = SimConfig(p=5, n=10**5, seed=13, family=LAP)
        w, ordering, x = sample_dataset(cfg)
        std = standardize(x)
        nbhd = markov_blankets(w.dag)
        model = fit_coefficients(std, ordering, nbhd, LAP)
        b_hat, scales = model.b_matrix(), model.scales
        # compare against the true B rescaled into standardized units
        sd = x.values.std(axis=0)
        b_std = w.b_matrix() * sd[:, None] / sd[None, :]
        assert np.max(np.abs(b_hat - b_std)) <= 0.02
        assert np.all(scales > 0)

    def test_root_node_gets_zero_column(self):
        cfg = SimConfig(p=4, n=500, seed=14, family=LAP)
        w, ordering, x = sample_dataset(cfg)
        std = standardize(x)
        model = fit_coefficients(std, ordering, markov_blankets(w.dag), LAP)
        b_hat, scales = model.b_matrix(), model.scales
        root = ordering.perm[0]
        assert np.array_equal(b_hat[:, root], np.zeros(4))
        eta, _ = fit_scale(LAP, std.values[:, root])
        assert scales[root] == pytest.approx(eta, abs=1e-12)

    def test_single_node(self):
        x = DataMatrix(np.random.default_rng(0).standard_normal((50, 1)))
        model = fit_coefficients(standardize(x), Ordering([0]), full_neighborhoods(1), LAP)
        assert np.array_equal(model.b_matrix(), np.zeros((1, 1)))

    def test_requires_standardized(self):
        x = DataMatrix(np.random.default_rng(1).standard_normal((20, 2)) * 3)
        with pytest.raises(ValueError, match="standardized"):
            fit_coefficients(x, Ordering([0, 1]), full_neighborhoods(2), LAP)

    def test_rank_deficient_reports_node(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(30)
        values = np.column_stack([col, col * 2.0, rng.standard_normal(30)])
        x = standardize(DataMatrix(values))
        with pytest.raises(RankDeficient) as err:
            fit_coefficients(x, Ordering([0, 1, 2]), full_neighborhoods(3), LAP)
        assert err.value.node == 2


    def test_degenerate_residual_reports_node(self):
        rng = np.random.default_rng(3)
        values = rng.laplace(size=(40, 3))
        values[:, 2] = values[:, 0]
        x = standardize(DataMatrix(values))
        with pytest.raises(DegenerateResidual) as err:
            fit_coefficients(x, Ordering([0, 1, 2]), full_neighborhoods(3), LAP)
        assert err.value.node == 2

    def test_parents_are_the_regressors_with_nonzero_coefficients(self, monkeypatch):
        # an exactly zero coefficient names no edge (WeightedDag rejects zero
        # weights); force one per regression through the OLS kernel
        ols = lingamsort.metrics.ols_residual

        def first_coefficient_zero(y, z):
            resid, beta = ols(y, z)
            return resid, np.concatenate([[0.0], beta[1:]])

        monkeypatch.setattr(lingamsort.metrics, "ols_residual", first_coefficient_zero)
        w, ordering, x = sample_dataset(SimConfig(p=8, n=400, seed=19, family=LAP))
        nbhd = markov_blankets(w.dag)
        model = fit_coefficients(standardize(x), ordering, nbhd, LAP)
        pos = ordering.positions()
        for k in range(8):
            regressors = [int(j) for j in nbhd.sets[k] if pos[j] < pos[k]]
            assert model.dag.parents[k] == tuple(regressors[1:])
            assert np.all(model.weights[k] != 0.0)


class TestHeldoutLoglik:
    def test_training_laplace_value_closed_form(self):
        # evaluated on the fitting data, the Laplace mean log-likelihood is
        # mean_k (-log(2 eta_k) - 1) exactly
        cfg = SimConfig(p=6, n=2000, seed=15, family=LAP)
        w, ordering, x = sample_dataset(cfg)
        std = standardize(x)
        nbhd = markov_blankets(w.dag)
        model = fit_coefficients(std, ordering, nbhd, LAP)
        scales = model.scales
        value = heldout_loglik(std, model)
        expected = float(np.mean([-math.log(2.0 * s) - 1.0 for s in scales]))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_zero_coefficient_model_is_marginal_loglik(self):
        rng = rng_stream(16, 0)
        x = standardize(DataMatrix(rng.standard_normal((500, 4))))
        scales = np.array([fit_scale(LAP, x.values[:, k])[0]
                           for k in range(4)])
        value = heldout_loglik(x, _no_edges(scales, LAP))
        marginal = np.mean([np.mean(log_density(LAP, x.values[:, k], scales[k]))
                            for k in range(4)])
        assert value == pytest.approx(float(marginal), abs=1e-12)

    def test_laplace_beats_gaussian_on_laplace_data(self):
        cfg = SimConfig(p=10, n=10**4, seed=17, family=LAP)
        w, ordering, x = sample_dataset(cfg)
        half = x.n // 2
        train, test = DataMatrix(x.values[:half]), DataMatrix(x.values[half:])
        mean, sd = column_moments(train.values)
        train_std = standardize(train)
        test_std = apply_moments(test, mean, sd)
        nbhd = markov_blankets(w.dag)
        values = {}
        for family in (LAP, GAU):
            model = fit_coefficients(train_std, ordering, nbhd, family)
            values[family.tag] = heldout_loglik(test_std, model)
        assert values["laplace"] > values["gaussian"]

    def test_row_permutation_invariance(self):
        rng = rng_stream(18, 0)
        x = DataMatrix(rng.standard_normal((200, 3)))
        b = np.zeros((3, 3))
        b[0, 1] = 0.4
        scales = np.array([0.5, 0.6, 0.7])
        model = WeightedDag.from_b_matrix(Dag(3, [[], [0], []]), b, LAP, scales)
        base = heldout_loglik(x, model)
        shuffled = DataMatrix(x.values[rng.permutation(200)])
        assert heldout_loglik(shuffled, model) == pytest.approx(base, abs=1e-10)

    def test_fit_never_below_null_on_training_data_gaussian(self):
        # OLS residual variance never exceeds the raw variance, so the
        # Gaussian training log-likelihood dominates the zero-coefficient model
        for seed in range(5):
            cfg = SimConfig(p=8, n=400, seed=seed, family=LAP)
            w, ordering, x = sample_dataset(cfg)
            std = standardize(x)
            nbhd = markov_blankets(w.dag)
            model = fit_coefficients(std, ordering, nbhd, GAU)
            fitted = heldout_loglik(std, model)
            null_scales = np.array([fit_scale(GAU, std.values[:, k])[0]
                                    for k in range(8)])
            null = heldout_loglik(std, _no_edges(null_scales, GAU))
            assert fitted >= null - 1e-9

    def test_dimension_mismatch(self):
        x = DataMatrix(np.ones((5, 2)) + np.arange(10).reshape(5, 2))
        with pytest.raises(ValueError):
            heldout_loglik(x, _no_edges(np.ones(3), LAP))

    @pytest.mark.parametrize("family", [LAP, GAU, NoiseFamily.logistic(),
                                        NoiseFamily.scaled_t(5.0)])
    def test_matches_dense_reference(self, family):
        # residuals from each column's own parents equal X - X B column by column
        w, ordering, x = sample_dataset(SimConfig(p=12, n=600, seed=20, family=LAP))
        train, test = DataMatrix(x.values[:300]), DataMatrix(x.values[300:])
        model = fit_coefficients(standardize(train), ordering, full_neighborhoods(12), family)
        assert model.dag.edge_count == 12 * 11 // 2
        test_std = apply_moments(test, *column_moments(train.values))
        resid = test_std.values - test_std.values @ model.b_matrix()
        dense = sum(float(np.sum(log_density(family, resid[:, k], model.scales[k])))
                    for k in range(12)) / resid.size
        assert heldout_loglik(test_std, model) == pytest.approx(dense, rel=1e-12, abs=0)


class TestSparseModelMemory:
    def test_fit_and_loglik_allocate_far_less_than_a_dense_b(self):
        # above DENSE_LIMIT, with Markov-blanket neighborhoods: the model is
        # O(p d), so the traced peak stays well under one p x p matrix
        p = 4000
        assert p > DENSE_LIMIT
        w, ordering, x = sample_dataset(SimConfig(p=p, n=100, seed=21, family=LAP))
        std = standardize(x)
        nbhd = markov_blankets(w.dag)
        tracemalloc.start()
        try:
            model = fit_coefficients(std, ordering, nbhd, LAP)
            value = heldout_loglik(std, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8 / 4
        assert model.dag.edge_count >= w.dag.edge_count
        assert math.isfinite(value)


class TestReversedEdgeCount:
    def test_matches_order_error_numerator(self):
        assert reversed_edge_count(TRIANGLE, Ordering([2, 1, 0])) == 3
        assert reversed_edge_count(chain_dag(4), Ordering([0, 1, 2, 3])) == 0
