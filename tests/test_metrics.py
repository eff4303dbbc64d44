import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import all_dags, all_orderings, chain_dag, dense_b, ols_residual
from lingamsort import (
    Dag,
    DataMatrix,
    NoiseFamily,
    Ordering,
    SimConfig,
    WeightedDag,
    apply_moments,
    column_moments,
    fit_coefficients,
    fit_scale,
    full_neighborhoods,
    heldout_loglik,
    is_topological,
    markov_blankets,
    order_error,
    rng_stream,
    sample_dataset,
    standardize,
    top_correlated,
)
import lingamsort.metrics
from lingamsort.metrics import RankDeficient, _chains, reversed_edge_count
from lingamsort.model import PIVOT_RTOL, NeighborhoodSets
from lingamsort.scoring import DEGENERATE_MEAN_SQUARE, DegenerateResidual, log_density

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
        b_hat, scales = dense_b(model), model.scales
        # compare against the true B rescaled into standardized units
        sd = x.values.std(axis=0)
        b_std = dense_b(w) * sd[:, None] / sd[None, :]
        assert np.max(np.abs(b_hat - b_std)) <= 0.02
        assert np.all(scales > 0)

    def test_root_node_gets_zero_column(self):
        cfg = SimConfig(p=4, n=500, seed=14, family=LAP)
        w, ordering, x = sample_dataset(cfg)
        std = standardize(x)
        model = fit_coefficients(std, ordering, markov_blankets(w.dag), LAP)
        b_hat, scales = dense_b(model), model.scales
        root = ordering.perm[0]
        assert np.array_equal(b_hat[:, root], np.zeros(4))
        eta, _ = fit_scale(LAP, std.values[:, root])
        assert scales[root] == pytest.approx(eta, abs=1e-12)

    def test_single_node(self):
        x = DataMatrix(np.random.default_rng(0).standard_normal((50, 1)))
        model = fit_coefficients(standardize(x), Ordering([0]), full_neighborhoods(1), LAP)
        assert np.array_equal(dense_b(model), np.zeros((1, 1)))

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
        # weights); force one per regression through the chain kernel, on the
        # chain's first column: each node's first regressor in ordering order
        ols = lingamsort.metrics.ols_residual
        calls = []

        def first_coefficient_zero(z, lead, floor):
            pivots, coef, resid = ols(z, lead, floor)
            coef = coef.copy()
            coef[:, lead == 0:, 0] = 0.0  # a lead-0 chain's first member has no regressor
            calls.append(z.shape)
            return pivots, coef, resid

        monkeypatch.setattr(lingamsort.metrics, "ols_residual", first_coefficient_zero)
        w, ordering, x = sample_dataset(SimConfig(p=8, n=400, seed=19, family=LAP))
        nbhd = markov_blankets(w.dag)
        model = fit_coefficients(standardize(x), ordering, nbhd, LAP)
        assert calls
        pos = ordering.positions()
        for k in range(8):
            regressors = sorted((int(j) for j in nbhd.sets[k] if pos[j] < pos[k]),
                                key=lambda j: pos[j])
            assert model.dag.parents[k] == tuple(sorted(regressors[1:]))
            assert np.all(model.weights[k] != 0.0)


def oracle_fit(x, ordering, nbhd, family):
    """The post-ordering fit one node at a time, on :func:`ols_residual`:
    each node's regressors in index order, a Gram matrix and a Cholesky
    rank check each.  Returns the model, or the (exception type, node) that
    ``fit_coefficients`` must raise."""
    pos = ordering.positions()
    parents, weights, scales = [], [], np.zeros(x.p)
    for k in range(x.p):
        regressors = nbhd.sets[k][pos[nbhd.sets[k]] < pos[k]]
        resid, beta = x.values[:, k], np.empty(0)
        if regressors.size:
            try:
                resid, beta = ols_residual(resid, x.values[:, regressors])
            except RankDeficient:
                return RankDeficient, k
        parents.append(regressors[beta != 0.0])
        weights.append(beta[beta != 0.0])
        if float(resid @ resid) / resid.size >= DEGENERATE_MEAN_SQUARE:
            scales[k] = fit_scale(family, resid)[0]
    if np.any(scales == 0.0):
        return DegenerateResidual, int(np.flatnonzero(scales == 0.0)[0])
    return WeightedDag(Dag(x.p, parents), weights, family, scales)


def _fit_or_error(x, ordering, nbhd, family):
    try:
        return fit_coefficients(x, ordering, nbhd, family)
    except (RankDeficient, DegenerateResidual) as exc:
        return type(exc), exc.node


def assert_same_fit(x, ordering, nbhd, family, rtol=1e-10):
    """``fit_coefficients`` against :func:`oracle_fit`: the same error and
    node, or the same parent sets, with weights within ``rtol`` of the
    largest weight and scales within ``rtol``."""
    got = _fit_or_error(x, ordering, nbhd, family)
    want = oracle_fit(x, ordering, nbhd, family)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, WeightedDag), got
    assert got.dag == want.dag
    big = max((float(np.max(np.abs(wt))) for wt in want.weights if wt.size), default=1.0)
    for a, b in zip(got.weights, want.weights):
        np.testing.assert_allclose(a, b, rtol=0, atol=rtol * big)
    np.testing.assert_allclose(got.scales, want.scales, rtol=rtol, atol=0)


@st.composite
def _fit_cases(draw):
    """Random data from a random DAG, a random ordering, random (asymmetric)
    neighborhood sets and a family; some sets fill n - 1 or n rows."""
    p = draw(st.integers(1, 8))
    low = max(3, p - 1)
    n = draw(st.one_of(st.integers(low, low + 3), st.integers(low, 60)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.laplace(size=(n, p))
    for k in range(1, p):  # a random lower-triangular mixing: a DAG in index order
        values[:, k] += values[:, :k] @ (rng.uniform(-1, 1, k) * (rng.random(k) < 0.5))
    x = standardize(DataMatrix(values))
    ordering = Ordering(draw(st.permutations(range(p))))
    sets = [draw(st.sets(st.integers(0, p - 1).filter(lambda j, k=k: j != k)))
            for k in range(p)]
    family = draw(st.sampled_from((LAP, GAU, NoiseFamily.logistic(), NoiseFamily.scaled_t(5.0))))
    return x, ordering, NeighborhoodSets(sets), family


class TestChainFit:
    """``fit_coefficients`` runs its regressions along chains of nested
    regressor sets, one QR per chain; :func:`oracle_fit` runs one Gram
    matrix per node."""

    @pytest.mark.parametrize("kind", ["full", "mb", "corr", "asymmetric-file"])
    @pytest.mark.parametrize("family", [LAP, NoiseFamily.logistic()], ids=["laplace", "logistic"])
    def test_matches_per_node_oracle(self, kind, family):
        w, ordering, raw = sample_dataset(SimConfig(p=30, n=400, seed=23, family=LAP))
        x = standardize(raw)
        rng = np.random.default_rng(24)
        if kind == "full":
            nbhd = full_neighborhoods(30)
        elif kind == "mb":
            nbhd = markov_blankets(w.dag)
        elif kind == "corr":
            nbhd = top_correlated(x, 6)
        else:  # j may list k without k listing j
            nbhd = NeighborhoodSets([[j for j in rng.choice(30, 8, replace=False) if j != k]
                                     for k in range(30)])
        for order in (ordering, Ordering(rng.permutation(30))):
            assert_same_fit(x, order, nbhd, family)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fit_cases())
    def test_matches_oracle_property(self, case):
        assert_same_fit(*case, rtol=1e-8)

    def test_chains_split_and_restart(self):
        x = standardize(DataMatrix(np.random.default_rng(25).laplace(size=(80, 7))))
        ordering = Ordering([0, 1, 2, 3, 4, 5, 6])
        nbhd = NeighborhoodSets([[], [0], [0, 1], [0], [0, 3], [1, 2], [0, 1, 2, 3, 4, 5]])
        assert _chains(ordering, nbhd) == [
            ([0, 1, 2], 0),  # 1 and 2 join the chain that 0 started
            ([0, 3, 4], 1),  # 3 regresses on a shorter prefix: a new chain
            ([1, 2, 5], 2),
            ([0, 1, 2, 3, 4, 5, 6], 6),
        ]
        assert_same_fit(x, ordering, nbhd, LAP)
        # the ordering, not the node index, sets a chain's column order
        shuffled = Ordering([3, 0, 4, 1, 2, 5, 6])
        assert _chains(shuffled, full_neighborhoods(7)) == [([3, 0, 4, 1, 2, 5, 6], 0)]
        assert_same_fit(x, shuffled, full_neighborhoods(7), LAP)

    def test_full_neighborhoods_make_one_chain(self, monkeypatch):
        shapes = []
        ols = lingamsort.metrics.ols_residual

        def spy(z, lead, floor):
            shapes.append(z.shape)
            return ols(z, lead, floor)

        monkeypatch.setattr(lingamsort.metrics, "ols_residual", spy)
        x = standardize(DataMatrix(np.random.default_rng(26).laplace(size=(50, 9))))
        fit_coefficients(x, Ordering(range(9)), full_neighborhoods(9), LAP)
        assert shapes == [(1, 9, 50)]

    def test_stacks_do_not_change_the_fit(self, monkeypatch):
        # one chain per ols_residual call gives the same bits as the stacks
        w, ordering, raw = sample_dataset(SimConfig(p=60, n=200, seed=27, family=LAP))
        x = standardize(raw)
        nbhd = top_correlated(x, 4)
        stacked = fit_coefficients(x, ordering, nbhd, LAP)
        monkeypatch.setattr(lingamsort.metrics, "STACK_BYTES", 1)
        alone = fit_coefficients(x, ordering, nbhd, LAP)
        assert alone.dag == stacked.dag
        assert all(np.array_equal(a, b) for a, b in zip(alone.weights, stacked.weights))
        assert np.array_equal(alone.scales, stacked.scales)

    @pytest.mark.parametrize("regressors, error", [
        (9, RankDeficient),        # n centered columns span only n - 1 dimensions
        (8, DegenerateResidual),   # n - 1 regressors explain the node exactly
        (7, None),
    ])
    def test_n_regressors_as_the_oracle(self, regressors, error):
        n = 9
        x = standardize(DataMatrix(np.random.default_rng(28).laplace(size=(n, regressors + 1))))
        p = regressors + 1
        ordering = Ordering(range(p))
        got = _fit_or_error(x, ordering, full_neighborhoods(p), LAP)
        if error is None:
            assert isinstance(got, WeightedDag)
        else:
            assert got == (error, regressors)
        assert_same_fit(x, ordering, full_neighborhoods(p), LAP)

    @pytest.mark.parametrize("gap, collinear", [(1e-7, False), (1e-13, True)],
                             ids=["above-floor", "below-floor"])
    @pytest.mark.parametrize("perm", [[0, 1, 2, 3], [1, 0, 3, 2]])
    def test_near_collinear_pivots(self, gap, collinear, perm):
        # column 1 is column 0 plus noise, so its pivot on column 0 (or 0's
        # on 1) is about gap * n, far on either side of PIVOT_RTOL * n
        assert gap > 100 * PIVOT_RTOL or gap < PIVOT_RTOL / 100
        rng = np.random.default_rng(29)
        n = 300
        values = rng.laplace(size=(n, 4))
        values[:, 1] = values[:, 0] + np.sqrt(gap) * values[:, 1]
        values[:, 3] += values[:, 0] - values[:, 2]
        x = standardize(DataMatrix(values))
        ordering = Ordering(perm)
        got = _fit_or_error(x, ordering, full_neighborhoods(4), LAP)
        if collinear:  # nodes 2 and 3 both follow the pair; 2 is the lower index
            assert got == (RankDeficient, 2)
            assert_same_fit(x, ordering, full_neighborhoods(4), LAP)
        else:
            # the oracle's normal equations square the condition number
            assert isinstance(got, WeightedDag)
            assert_same_fit(x, ordering, full_neighborhoods(4), LAP, rtol=1e-5)

    def test_rank_deficient_before_degenerate_lowest_index(self):
        # chains in ordering order, failures in index order: node 5 is
        # degenerate and nodes 4 and 2 have collinear regressors, in
        # separate chains, with the higher index met first
        rng = np.random.default_rng(30)
        values = rng.laplace(size=(100, 7))
        values[:, 1] = 2.0 * values[:, 0]
        values[:, 5] = values[:, 6] - values[:, 3]
        x = standardize(DataMatrix(values))
        ordering = Ordering([0, 1, 6, 3, 4, 5, 2])
        nbhd = NeighborhoodSets([[], [], [0, 1], [], [0, 1], [3, 6], []])
        with pytest.raises(RankDeficient) as err:
            fit_coefficients(x, ordering, nbhd, LAP)
        assert err.value.node == 2
        assert_same_fit(x, ordering, nbhd, LAP)
        # without the collinear pair, the degenerate node is named
        values[:, 1] = rng.laplace(size=100)
        values[:, 2] = values[:, 6] + values[:, 0]
        x = standardize(DataMatrix(values))
        nbhd = NeighborhoodSets([[], [], [0, 6], [], [0, 1], [3, 6], []])
        with pytest.raises(DegenerateResidual) as err:
            fit_coefficients(x, ordering, nbhd, LAP)
        assert err.value.node == 2
        assert_same_fit(x, ordering, nbhd, LAP)


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
        scales = np.array([0.5, 0.6, 0.7])
        model = WeightedDag(Dag(3, [[], [0], []]), [[], [0.4], []], LAP, scales)
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
        resid = test_std.values - test_std.values @ dense_b(model)
        dense = sum(float(np.sum(log_density(family, resid[:, k], model.scales[k])))
                    for k in range(12)) / resid.size
        assert heldout_loglik(test_std, model) == pytest.approx(dense, rel=1e-12, abs=0)


class TestSparseModelMemory:
    def test_fit_and_loglik_allocate_far_less_than_a_dense_b(self):
        # with Markov-blanket neighborhoods the model is O(p d), so the
        # traced peak stays well under one p x p matrix
        p = 4000
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
