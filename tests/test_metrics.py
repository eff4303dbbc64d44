import math

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

LAP = NoiseFamily.laplace()
GAU = NoiseFamily.gaussian()

TRIANGLE = Dag(3, [[], [0], [0, 1]])  # edges 0->1, 0->2, 1->2


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
        b_hat, scales = fit_coefficients(std, ordering, nbhd, LAP)
        # compare against the true B rescaled into standardized units
        sd = x.values.std(axis=0)
        b_std = w.b_matrix() * sd[:, None] / sd[None, :]
        assert np.max(np.abs(b_hat - b_std)) <= 0.02
        assert np.all(scales > 0)

    def test_root_node_gets_zero_column(self):
        cfg = SimConfig(p=4, n=500, seed=14, family=LAP)
        w, ordering, x = sample_dataset(cfg)
        std = standardize(x)
        b_hat, scales = fit_coefficients(std, ordering, markov_blankets(w.dag), LAP)
        root = ordering.perm[0]
        assert np.array_equal(b_hat[:, root], np.zeros(4))
        eta, _ = fit_scale(LAP, std.values[:, root])
        assert scales[root] == pytest.approx(eta, abs=1e-12)

    def test_single_node(self):
        x = DataMatrix(np.random.default_rng(0).standard_normal((50, 1)))
        b_hat, _ = fit_coefficients(standardize(x), Ordering([0]), full_neighborhoods(1), LAP)
        assert np.array_equal(b_hat, np.zeros((1, 1)))

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


class TestHeldoutLoglik:
    def test_training_laplace_value_closed_form(self):
        # evaluated on the fitting data, the Laplace mean log-likelihood is
        # mean_k (-log(2 eta_k) - 1) exactly
        cfg = SimConfig(p=6, n=2000, seed=15, family=LAP)
        w, ordering, x = sample_dataset(cfg)
        std = standardize(x)
        nbhd = markov_blankets(w.dag)
        b_hat, scales = fit_coefficients(std, ordering, nbhd, LAP)
        value = heldout_loglik(std, b_hat, scales, LAP)
        expected = float(np.mean([-math.log(2.0 * s) - 1.0 for s in scales]))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_zero_coefficient_model_is_marginal_loglik(self):
        rng = rng_stream(16, 0)
        x = standardize(DataMatrix(rng.standard_normal((500, 4))))
        scales = np.array([fit_scale(LAP, x.values[:, k])[0]
                           for k in range(4)])
        value = heldout_loglik(x, np.zeros((4, 4)), scales, LAP)
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
            b_hat, scales = fit_coefficients(train_std, ordering, nbhd, family)
            values[family.tag] = heldout_loglik(test_std, b_hat, scales, family)
        assert values["laplace"] > values["gaussian"]

    def test_row_permutation_invariance(self):
        rng = rng_stream(18, 0)
        x = DataMatrix(rng.standard_normal((200, 3)))
        b = np.zeros((3, 3))
        b[0, 1] = 0.4
        scales = np.array([0.5, 0.6, 0.7])
        base = heldout_loglik(x, b, scales, LAP)
        shuffled = DataMatrix(x.values[rng.permutation(200)])
        assert heldout_loglik(shuffled, b, scales, LAP) == pytest.approx(base, abs=1e-10)

    def test_fit_never_below_null_on_training_data_gaussian(self):
        # OLS residual variance never exceeds the raw variance, so the
        # Gaussian training log-likelihood dominates the zero-coefficient model
        for seed in range(5):
            cfg = SimConfig(p=8, n=400, seed=seed, family=LAP)
            w, ordering, x = sample_dataset(cfg)
            std = standardize(x)
            nbhd = markov_blankets(w.dag)
            b_hat, scales = fit_coefficients(std, ordering, nbhd, GAU)
            fitted = heldout_loglik(std, b_hat, scales, GAU)
            null_scales = np.array([fit_scale(GAU, std.values[:, k])[0]
                                    for k in range(8)])
            null = heldout_loglik(std, np.zeros((8, 8)), null_scales, GAU)
            assert fitted >= null - 1e-9

    def test_dimension_mismatch(self):
        x = DataMatrix(np.ones((5, 2)) + np.arange(10).reshape(5, 2))
        with pytest.raises(ValueError):
            heldout_loglik(x, np.zeros((3, 3)), np.ones(3), LAP)


class TestReversedEdgeCount:
    def test_matches_order_error_numerator(self):
        assert reversed_edge_count(TRIANGLE, Ordering([2, 1, 0])) == 3
        assert reversed_edge_count(chain_dag(4), Ordering([0, 1, 2, 3])) == 0
