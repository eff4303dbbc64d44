import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import chain_dag, ols_residual, population_check, weighted_chain
from lingamsort import (
    Dag,
    DataMatrix,
    LargeSparse,
    NoiseFamily,
    SimConfig,
    WeightedDag,
    derive_seed,
    fit_coefficients,
    full_neighborhoods,
    is_topological,
    llr_score,
    markov_blankets,
    order_error,
    rng_stream,
    sample_data,
    sample_dataset,
    sort,
    standardize,
    top_correlated,
)
import lingamsort
import lingamsort.sorter
from lingamsort.cli import estimation_input
from lingamsort.model import NeighborhoodSets
from lingamsort.scoring import DegenerateResidual

LAP = NoiseFamily.laplace()


def _oracle_score(family, resid):
    try:
        return llr_score(family, resid)
    except DegenerateResidual:
        return -np.inf


def oracle_sort(x, family, nbhd):
    """The selection rule, naively: at every step re-solve each unsorted
    node's joint OLS residual on its sorted neighbors, score it, and append
    the best node, ties going to the lowest index.  Returns the ordering and
    every step's (node, score) list."""
    values = standardize(x).values
    done = np.zeros(x.p, dtype=bool)
    perm, steps = [], []
    for _ in range(x.p):
        step = []
        for k in np.flatnonzero(~done):
            s = nbhd.sets[k]
            resid, _ = ols_residual(values[:, k], values[:, s[done[s]]])
            step.append((int(k), _oracle_score(family, resid)))
        sel = max(step, key=lambda ks: ks[1])[0]  # first maximum: lowest index
        perm.append(sel)
        steps.append(step)
        done[sel] = True
    return tuple(perm), steps


class TestSortFast:
    def test_single_node(self):
        x = DataMatrix(np.random.default_rng(0).standard_normal((10, 1)))
        res = sort(x, LAP, full_neighborhoods(1))
        assert res.ordering.perm == (0,)
        assert res.update_count == 0

    def test_two_node_chain(self):
        w = weighted_chain(2, 0.8, 0.5, LAP)
        x = sample_data(w, 5000, seed=7)
        res = sort(x, LAP, full_neighborhoods(2))
        assert res.ordering.perm == (0, 1)
        assert is_topological(w.dag, res.ordering)

    def test_twenty_node_chain_mostly_exact(self):
        # strong uniform signal (|b| = 0.8, theta = 0.5): near-certain recovery
        dag = chain_dag(20)
        nbhd = markov_blankets(dag)
        wins = 0
        for r in range(30):
            from lingamsort import sample_weights

            weights = sample_weights(dag, 0.8, 0.8, rng_stream(derive_seed(5000, r), 1))
            w = WeightedDag(dag, weights, LAP, np.full(20, 0.5))
            x = sample_data(w, 1000, derive_seed(5000, r, 9))
            res = sort(x, LAP, nbhd)
            wins += order_error(dag, res.ordering) == 0.0
        assert wins >= 27

    def test_deterministic(self):
        cfg = SimConfig(p=15, n=300, seed=44, family=LAP)
        _, _, x = sample_dataset(cfg)
        nbhd = full_neighborhoods(15)
        a = sort(x, LAP, nbhd)
        b = sort(x, LAP, nbhd)
        assert a.ordering.perm == b.ordering.perm
        assert a.update_count == b.update_count

    def test_numpy_buffer_size_restored_after_each_view_update(self, monkeypatch):
        # view steps shrink numpy's ufunc buffer for their rank-one update
        # only; what the caller set is in force before and after
        sizes = []
        setbufsize = np.setbufsize
        monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or setbufsize(size))
        cfg = SimConfig(p=15, n=300, seed=44, family=LAP)
        _, _, x = sample_dataset(cfg)
        before = setbufsize(4096)
        try:
            sort(x, LAP, full_neighborhoods(15))
            assert np.getbufsize() == 4096
        finally:
            setbufsize(before)
        assert sizes == [lingamsort.sorter.UPDATE_BUFSIZE, 4096] * (len(sizes) // 2)
        assert len(sizes) >= 2 * 13  # a pair for each view step's chunk

    def test_update_count_bounded(self):
        cfg = SimConfig(p=8, n=200, seed=9, family=LAP)
        _, _, x = sample_dataset(cfg)
        res = sort(x, LAP, full_neighborhoods(8))
        assert res.update_count <= 8 * 7

    def test_column_rescaling_invariance(self):
        for r in range(3):
            cfg = SimConfig(p=20, n=500, seed=derive_seed(7000, r), family=LAP)
            w, _, x = sample_dataset(cfg)
            nbhd = markov_blankets(w.dag)
            base = sort(x, LAP, nbhd).ordering.perm
            c = rng_stream(derive_seed(7000, r, 1), 0).uniform(0.1, 10.0, x.p)
            scaled = sort(DataMatrix(x.values * c), LAP, nbhd).ordering.perm
            assert base == scaled

    def test_duplicate_column_deferred_with_diagnostic(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(128)
        x = DataMatrix(np.column_stack([col, col, rng.standard_normal(128)]))
        res = sort(x, LAP, full_neighborhoods(3))
        assert sorted(res.ordering.perm) == [0, 1, 2]
        assert res.diagnostics["degenerate"]
        # one of the twins is perfectly explained and must come last
        assert res.ordering.perm[-1] in (0, 1)

    def test_degenerate_node_recorded_once_at_its_first_step(self, monkeypatch):
        # columns 200 and 201 copy column 43: once one of the three is sorted,
        # the others' residuals are zero at every later step, and each is
        # recorded once, at the first.  In 16-column chunks that step spans
        # several chunks, which visit the nodes in slot order; the record
        # still lists its pairs by step, then by node
        monkeypatch.setattr(lingamsort.sorter, "BLOCK_BYTES", 16 * 8 * 400)
        cfg = SimConfig(p=200, n=400, seed=derive_seed(9600, 1), family=LAP,
                        graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
        _, _, x = sample_dataset(cfg)
        col = x.values[:, 43]
        res = sort(DataMatrix(np.column_stack([x.values, col, col])), LAP,
                   full_neighborhoods(202))
        perm, degenerate = res.ordering.perm, res.diagnostics["degenerate"]
        twin = min((43, 200, 201), key=perm.index)
        first = 1 + perm.index(twin)
        assert 1 < first < 202 - 2 * 16  # a step of several chunks, after the first
        assert [pair for pair in degenerate if pair[0] in (43, 200, 201)] == [
            (k, first) for k in (43, 200, 201) if k != twin]
        assert degenerate == sorted(degenerate, key=lambda pair: (pair[1], pair[0]))

    def test_update_count_counts_inner_products(self):
        # full neighborhoods: every unsorted node shares the selected node's
        # factor, so each step costs 1 (delta = r_sel'r_sel) plus 1 per node
        p = 8
        cfg = SimConfig(p=p, n=200, seed=9, family=LAP)
        _, _, x = sample_dataset(cfg)
        res = sort(x, LAP, full_neighborhoods(p))
        assert res.diagnostics["rescore_events"] == p * (p - 1) // 2
        assert res.update_count == p * (p - 1) // 2 + p - 1

    def test_events_grow_as_d_and_inner_products_as_d_squared(self):
        # the module docstring's two cost units, fitted over m in
        # top-correlated sets of m = 4 to 32: rescore events are O(p d),
        # inner products O(sum_k d_k^2); one run measured exponents of 0.99
        # and 1.77
        cfg = SimConfig(p=300, n=600, seed=derive_seed(9700, 1), family=LAP,
                        graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
        _, _, x = sample_dataset(cfg)
        sizes = [4, 8, 16, 32]
        runs = [sort(x, LAP, top_correlated(x, m)) for m in sizes]
        events = [res.diagnostics["rescore_events"] for res in runs]
        products = [res.update_count for res in runs]
        slope = lambda counts: np.polyfit(np.log(sizes), np.log(counts), 1)[0]
        assert 0.9 <= slope(events) <= 1.1, events
        assert 1.6 <= slope(products) <= 2.0, products

    def test_collinear_regressor_skipped_and_recorded(self):
        col = np.random.default_rng(2).standard_normal(64)
        x = DataMatrix(np.column_stack([col, col, col]))
        res = sort(x, LAP, full_neighborhoods(3))
        assert res.ordering.perm == (0, 1, 2)
        # node 1's residual is zero once 0 is sorted, so it cannot serve
        # as a regressor for node 2
        assert res.diagnostics["skipped_updates"] == [(2, 1)]

    def test_trace_shapes(self):
        cfg = SimConfig(p=6, n=100, seed=2, family=LAP)
        _, _, x = sample_dataset(cfg)
        res = sort(x, LAP, full_neighborhoods(6), trace=True)
        assert len(res.step_scores) == 6
        assert [len(step) for step in res.step_scores] == [6, 5, 4, 3, 2, 1]

    def test_factor_extensions_go_through_partial_update(self, monkeypatch):
        # the sorter must look partial_update up in its own module at every
        # call, so that a wrapper there sees every factor extension: one
        # call per step that touches a node, with that step's factors
        cfg = SimConfig(p=30, n=300, seed=12, family=LAP)
        w, _, x = sample_dataset(cfg)
        nbhd = markov_blankets(w.dag)
        base = sort(x, LAP, nbhd)
        calls = []
        real = lingamsort.sorter.partial_update

        def counting(state, factors, sel, *args):
            calls.append((sel, len(factors)))
            return real(state, factors, sel, *args)

        monkeypatch.setattr(lingamsort.sorter, "partial_update", counting)
        wrapped = sort(x, LAP, nbhd)
        perm = base.ordering.perm
        touching = [sel for t, sel in enumerate(perm)
                    if any(sel in nbhd.sets[k] for k in perm[t + 1:])]
        assert [sel for sel, _ in calls] == touching
        # the 34 factor extensions of the one-call-per-factor sorter
        assert sum(groups for _, groups in calls) == 34
        assert wrapped.ordering.perm == perm
        assert wrapped.update_count == base.update_count

    def test_neighborhood_size_cannot_exceed_n(self):
        x = DataMatrix(np.random.default_rng(3).standard_normal((5, 8)))
        with pytest.raises(ValueError, match="neighborhood"):
            sort(x, LAP, full_neighborhoods(8))

    def test_neighborhood_p_mismatch(self):
        x = DataMatrix(np.random.default_rng(4).standard_normal((20, 3)))
        with pytest.raises(ValueError, match="nodes"):
            sort(x, LAP, full_neighborhoods(4))


class TestSortExact:
    """``sort`` on small cases, two of them against :func:`oracle_sort`."""

    def test_step_one_scores_are_raw_column_scores(self):
        cfg = SimConfig(p=5, n=200, seed=6, family=LAP)
        _, _, x = sample_dataset(cfg)
        std = standardize(x)
        res = sort(std, LAP, full_neighborhoods(5), trace=True)
        first = dict(res.step_scores[0])
        for k in range(5):
            assert first[k] == pytest.approx(llr_score(LAP, std.values[:, k]), abs=1e-12)

    def test_orthogonal_columns_agree_with_fast(self):
        # exactly orthogonal, exactly mean-zero columns: QR against a
        # constant column, then unit-sd scaling
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(np.column_stack([np.ones(48), rng.standard_normal((48, 5))]))
        cols = q[:, 1:]
        x = DataMatrix(cols / cols.std(axis=0))
        nbhd = full_neighborhoods(5)
        assert sort(x, LAP, nbhd).ordering.perm == oracle_sort(x, LAP, nbhd)[0]

    def test_sparse_graph_agreement_with_fast(self):
        agree, errs = 0, []
        for r in range(20):
            cfg = SimConfig(p=10, n=10**4, seed=derive_seed(6000, r), family=LAP,
                            graph=LargeSparse(root_frac=0.05))
            w, _, x = sample_dataset(cfg)
            nbhd = markov_blankets(w.dag)
            res = sort(x, LAP, nbhd)
            agree += res.ordering.perm == oracle_sort(x, LAP, nbhd)[0]
            errs.append(order_error(w.dag, res.ordering))
        assert agree == 20
        assert max(errs) <= 0.02

    def test_deterministic(self):
        cfg = SimConfig(p=9, n=500, seed=10, family=LAP)
        _, _, x = sample_dataset(cfg)
        nbhd = full_neighborhoods(9)
        a = sort(x, LAP, nbhd, trace=True)
        b = sort(x, LAP, nbhd, trace=True)
        assert a.ordering.perm == b.ordering.perm
        assert a.step_scores == b.step_scores


def _neighborhoods(kind, w, x):
    if kind == "mb":
        return markov_blankets(w.dag)
    if kind == "corr":
        # not symmetric: sel in N(k) does not imply k in N(sel)
        return top_correlated(x, 5)
    return full_neighborhoods(x.p)


# Laplace, the default scoring family, keeps the bare neighborhood id.
_FAMILY_CASES = [
    pytest.param(kind, family, id=kind if family == LAP else f"{kind}-{family.tag}")
    for family in (LAP, NoiseFamily.logistic(), NoiseFamily.scaled_t(10))
    for kind in ("mb", "corr", "full")
]


class TestFastMatchesExact:
    """``sort``'s incrementally updated residuals are the joint-OLS residuals
    that :func:`oracle_sort` re-solves at every step, so both must give the
    same ordering and scores for every kind of neighborhood and family."""

    @pytest.mark.parametrize("kind, family", _FAMILY_CASES)
    def test_same_ordering(self, kind, family):
        for r in range(3):
            for p in (15, 40):
                cfg = SimConfig(p=p, n=4 * p, seed=derive_seed(9100, p, r), family=family,
                                graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
                w, _, x = sample_dataset(cfg)
                nbhd = _neighborhoods(kind, w, x)
                res = sort(x, family, nbhd, trace=True)
                perm, steps = oracle_sort(x, family, nbhd)
                assert res.ordering.perm == perm, (kind, p, r)
                for a, b in zip(res.step_scores, steps):
                    assert [k for k, _ in a] == [k for k, _ in b]
                    np.testing.assert_allclose([s for _, s in a], [s for _, s in b],
                                               rtol=1e-8, atol=1e-10)


class TestBlockStep:
    """Block updates and block scoring inside ``sort``."""

    def test_zero_residual_in_a_block_scores_neginf(self, monkeypatch):
        # column 2 duplicates column 0: once 0 is sorted, 2's residual is
        # zero, and it is rescored in one block with the other live nodes
        rng = np.random.default_rng(5)
        a, b, c = rng.laplace(size=(3, 200))
        x = DataMatrix(np.column_stack([a, b + a, a, c - b]))
        nbhd = full_neighborhoods(4)
        blocks = []
        real = lingamsort.sorter.llr_score

        def recording(family, block):
            scores = real(family, block)
            blocks.append((block.shape[1], scores))
            return scores

        monkeypatch.setattr(lingamsort.sorter, "llr_score", recording)
        res = sort(x, LAP, nbhd, trace=True)
        perm, steps = oracle_sort(x, LAP, nbhd)
        assert res.ordering.perm == perm
        twin = 2 if perm[0] == 0 else 0
        assert any(width >= 2 and np.isneginf(scores).sum() == 1 for width, scores in blocks)
        assert (twin, 1) in res.diagnostics["degenerate"]
        assert dict(res.step_scores[1])[twin] == -np.inf
        assert perm[-1] == twin

    def test_all_live_degenerate_takes_lowest_live_index(self):
        # every column is the root's, and every other node's neighborhood is
        # the root alone: after node 0 is sorted, every live node scores
        # -inf, as do the sorted ones, so the choice must fall back to the
        # lowest live index, not to node 0 again
        col = np.random.default_rng(6).laplace(size=100)
        x = DataMatrix(np.column_stack([col] * 5))
        nbhd = NeighborhoodSets([[1, 2, 3, 4], [0], [0], [0], [0]])
        res = sort(x, LAP, nbhd, trace=True)
        assert res.ordering.perm == oracle_sort(x, LAP, nbhd)[0] == (0, 1, 2, 3, 4)
        assert res.diagnostics["degenerate"] == [(1, 1), (2, 1), (3, 1), (4, 1)]
        for step in res.step_scores[1:]:
            assert all(score == -np.inf for _, score in step)

    def test_blocks_wider_than_one_chunk(self, monkeypatch):
        # a chunk of 3 columns cuts every block; nothing else may change
        cfg = SimConfig(p=25, n=100, seed=13, family=NoiseFamily.logistic())
        _, _, x = sample_dataset(cfg)
        nbhd = full_neighborhoods(25)
        family = NoiseFamily.logistic()
        base = sort(x, family, nbhd, trace=True)
        monkeypatch.setattr(lingamsort.sorter, "BLOCK_BYTES", 3 * 8 * 100)
        cut = sort(x, family, nbhd, trace=True)
        assert cut.ordering.perm == base.ordering.perm
        assert cut.update_count == base.update_count
        for a, b in zip(cut.step_scores, base.step_scores):
            np.testing.assert_allclose([s for _, s in a], [s for _, s in b],
                                       rtol=1e-12, atol=1e-14)


_ALL_FAMILIES = [pytest.param(f, id=f.tag) for f in
                 (LAP, NoiseFamily.logistic(), NoiseFamily.scaled_t(10), NoiseFamily.gaussian())]


def _random_superset_case(seed, p=12, extra=3, n=200):
    """A random DAG's data, and neighborhoods that add ``extra`` random
    nodes to each Markov blanket."""
    rng = np.random.default_rng(seed)
    parents = [sorted(rng.choice(k, size=min(k, rng.integers(0, 3)), replace=False).tolist())
               if k else [] for k in range(p)]
    weights = [[float(rng.choice([-1, 1]) * rng.uniform(0.4, 0.9)) for _ in ps] for ps in parents]
    w = WeightedDag(Dag(p, parents), weights, LAP, rng.uniform(0.3, 1.0, p))
    values = sample_data(w, n, seed).values.copy()
    sets = [sorted(set(s) | set(rng.choice([j for j in range(p) if j != k], size=extra,
                                           replace=False).tolist()))
            for k, s in enumerate(markov_blankets(w.dag).to_lists())]
    return values, NeighborhoodSets(sets), rng


def _assert_matches_oracle(x, family, nbhd):
    res = sort(x, family, nbhd, trace=True)
    perm, steps = oracle_sort(x, family, nbhd)
    assert res.ordering.perm == perm
    for a, b in zip(res.step_scores, steps):
        assert [k for k, _ in a] == [k for k, _ in b]
        np.testing.assert_allclose([s for _, s in a], [s for _, s in b], rtol=1e-8, atol=1e-10)
    return res


class TestBatchedStep:
    """The batched step against :func:`oracle_sort` and against the counts
    of the sorter that extended one factor per call."""

    def test_hub_wider_than_one_chunk(self, monkeypatch):
        # node 0 is a parent of every other node, so it is in every Markov
        # blanket; with 4-column chunks, its step updates and rescores its
        # touched nodes in several chunks
        p, n = 40, 200
        rng = np.random.default_rng(11)
        parents = [[]] + [[0] + ([k - 1] if k > 1 and k % 2 else []) for k in range(1, p)]
        weights = [[float(rng.choice([-1, 1]) * rng.uniform(0.4, 0.9)) for _ in ps]
                   for ps in parents]
        w = WeightedDag(Dag(p, parents), weights, LAP, np.full(p, 0.5))
        x = sample_data(w, n, 21)
        nbhd = markov_blankets(w.dag)
        whole = sort(x, LAP, nbhd, trace=True)
        monkeypatch.setattr(lingamsort.sorter, "BLOCK_BYTES", 4 * 8 * n)
        cut = _assert_matches_oracle(x, LAP, nbhd)
        perm = cut.ordering.perm
        widest = max(sum(sel in nbhd.sets[k] for k in perm[t + 1:]) for t, sel in enumerate(perm))
        assert widest > 4 * 5
        assert cut.ordering.perm == whole.ordering.perm
        assert cut.update_count == whole.update_count
        assert cut.diagnostics == whole.diagnostics
        for a, b in zip(cut.step_scores, whole.step_scores):
            np.testing.assert_allclose([s for _, s in a], [s for _, s in b], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("family", _ALL_FAMILIES)
    @pytest.mark.filterwarnings("ignore:scoring with the Gaussian family")
    def test_root_shared_and_general_groups_in_one_step(self, family, monkeypatch):
        values, nbhd, _ = _random_superset_case(0)
        x = DataMatrix(values)
        kinds = []
        real = lingamsort.sorter.partial_update

        def spy(state, factors, sel, x_sel, own):
            kinds.append({"shared" if f == own else "root" if f == state.ROOT
                          else "general" if len(state.path(f)) >= 2 else "one"
                          for f in factors})
            return real(state, factors, sel, x_sel, own)

        monkeypatch.setattr(lingamsort.sorter, "partial_update", spy)
        _assert_matches_oracle(x, family, nbhd)
        if family == LAP:
            assert any({"root", "shared", "general"} <= step for step in kinds)

    def test_near_collinear_regressor_skipped_in_a_multi_group_step(self, monkeypatch):
        # column 11 is column 3 plus noise 1e-7 times smaller: 11 is sorted
        # first, and once it is a regressor, 3 adds nothing and is skipped,
        # in a step of three groups
        values, nbhd, rng = _random_superset_case(6, extra=4)
        values[:, 11] = values[:, 3] + 1e-7 * rng.standard_normal(values.shape[0])
        groups = {}
        real = lingamsort.sorter.partial_update

        def spy(state, factors, sel, *args):
            groups[sel] = len(factors)
            return real(state, factors, sel, *args)

        monkeypatch.setattr(lingamsort.sorter, "partial_update", spy)
        res = sort(DataMatrix(values), LAP, nbhd)
        # the one-call-per-factor sorter's results
        assert res.diagnostics["skipped_updates"] == [(6, 3), (10, 3)]
        assert groups[3] == 3
        assert res.ordering.perm == (7, 11, 3, 10, 9, 5, 0, 8, 6, 1, 2, 4)
        assert res.update_count == 108
        assert res.diagnostics["rescore_events"] == 36

    @pytest.mark.parametrize("kind, updates, rescores, digest", [
        ("mb", 1533, 587, "b85ce6ad9469fa27"),
        ("corr", 5224, 1355, "eea2f7c89e1ad5d3"),
        ("full", 45149, 44850, "7e9b2f24c4801e58"),
    ])
    def test_counts_work_not_calls(self, kind, updates, rescores, digest):
        # p = 300: the update and rescore counts, the ordering and the
        # winning score of every step (by their sha256) of the sorter that
        # extended one factor per call and gathered every step's residuals;
        # full sets are scored under Logistic, as in the pipe-full workload
        family = NoiseFamily.logistic() if kind == "full" else LAP
        won = {"mb": "8d28976625867159", "corr": "19ed2adbeca8739b",
               "full": "ba1ef80fafc47d2a"}[kind]
        cfg = SimConfig(p=300, n=600, seed=derive_seed(9400, 1), family=family,
                        graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
        w, _, x = sample_dataset(cfg)
        nbhd = (markov_blankets(w.dag) if kind == "mb" else top_correlated(x, 10)
                if kind == "corr" else full_neighborhoods(x.p))
        res = sort(x, family, nbhd, trace=True)
        assert res.update_count == updates
        assert res.diagnostics["rescore_events"] == rescores
        perm = ",".join(map(str, res.ordering.perm)).encode()
        assert hashlib.sha256(perm).hexdigest()[:16] == digest
        scores = np.array([dict(step)[k] for step, k in zip(res.step_scores, res.ordering.perm)])
        assert hashlib.sha256(scores.tobytes()).hexdigest()[:16] == won


_FAMILIES = (LAP, NoiseFamily.logistic(), NoiseFamily.scaled_t(10))


@st.composite
def _oracle_cases(draw):
    """A random small DAG with its data, a neighborhood kind and a family."""
    p = draw(st.integers(2, 12))
    label = draw(st.permutations(range(p)))  # topological position -> node
    parents: list[list[int]] = [[] for _ in range(p)]
    weights: list[list[float]] = [[] for _ in range(p)]
    for pos in range(1, p):
        for j in sorted(draw(st.sets(st.integers(0, pos - 1), max_size=min(pos, 3)))):
            parents[label[pos]].append(label[j])
            sign = draw(st.sampled_from((-1.0, 1.0)))
            weights[label[pos]].append(sign * draw(st.floats(0.3, 1.0)))
    family = draw(st.sampled_from(_FAMILIES))
    scales = [draw(st.floats(0.25, 1.0)) for _ in range(p)]
    w = WeightedDag(Dag(p, parents), weights, family, scales)
    x = sample_data(w, draw(st.integers(max(30, 4 * p), 150)), draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("mb", "corr", "superset", "full")))
    if kind == "mb":
        nbhd = markov_blankets(w.dag)
    elif kind == "corr":
        nbhd = top_correlated(x, draw(st.integers(1, p - 1)))
    elif kind == "superset":
        extra = [draw(st.sets(st.integers(0, p - 1).filter(lambda j, k=k: j != k)))
                 for k in range(p)]
        nbhd = NeighborhoodSets([set(s) | e for s, e in zip(markov_blankets(w.dag).to_lists(), extra)])
    else:
        nbhd = full_neighborhoods(p)
    return x, family, nbhd


class TestOracleProperty:
    """On random small DAGs, neighborhoods and families, ``sort`` reproduces
    :func:`oracle_sort`: the same ordering and the same per-step scores."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_oracle_cases())
    def test_matches_oracle(self, case):
        x, family, nbhd = case
        res = sort(x, family, nbhd, trace=True)
        perm, steps = oracle_sort(x, family, nbhd)
        assert res.ordering.perm == perm
        for a, b in zip(res.step_scores, steps):
            assert [k for k, _ in a] == [k for k, _ in b]
            np.testing.assert_allclose([s for _, s in a], [s for _, s in b],
                                       rtol=1e-8, atol=1e-10)


def _inputs(values):
    """The three ways data reach ``sort``: raw row-major, raw column-major
    and standardized by the caller."""
    return [DataMatrix(np.ascontiguousarray(values)), DataMatrix(np.asfortranarray(values)),
            standardize(DataMatrix(values))]


class TestColumnRelabelling:
    """Relabelling the columns, and the neighborhoods with them, relabels the
    ordering the same way and spends the same inner products."""

    @pytest.mark.parametrize("kind", ["mb", "corr", "full"])
    def test_permuted_columns_permute_the_ordering(self, kind):
        for r in range(2):
            cfg = SimConfig(p=30, n=300, seed=derive_seed(9300, r), family=LAP,
                            graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
            w, _, x = sample_dataset(cfg)
            nbhd = _neighborhoods(kind, w, x)
            perm = rng_stream(r, 7).permutation(x.p)  # new column j is old column perm[j]
            inv = np.argsort(perm)
            moved = NeighborhoodSets([np.sort(inv[nbhd.sets[old]]) for old in perm])
            base = [sort(v, LAP, nbhd) for v in _inputs(x.values)]
            relabelled = [sort(v, LAP, moved) for v in _inputs(x.values[:, perm])]
            expected = tuple(int(inv[k]) for k in base[0].ordering.perm)
            for a, b in zip(base, relabelled):
                assert a.ordering.perm == base[0].ordering.perm, (kind, r)
                assert b.ordering.perm == expected, (kind, r)
                assert a.update_count == b.update_count == base[0].update_count


def _slots_needed(perm, sets):
    """The most nodes that hold a residual at once: a node from the step
    that sorts its first neighbor until the step that sorts it, which
    frees its slot once the step has read it."""
    p = len(perm)
    pos = np.empty(p, dtype=int)
    pos[list(perm)] = np.arange(p)
    held = np.zeros(p + 1, dtype=int)  # +1 from step a, -1 after step b
    for k, s in enumerate(sets):
        first = pos[s].min(initial=p)
        if first < pos[k]:
            held[first] += 1
            held[pos[k] + 1] -= 1
    return int(np.cumsum(held).max())


class TestResidualSlots:
    """The pool holds a node's residual only while it is live and updated."""

    @pytest.mark.parametrize("kind", ["mb", "corr", "full"])
    def test_high_water_mark_is_the_most_columns_needed_at_once(self, kind):
        cfg = SimConfig(p=300, n=600, seed=derive_seed(9400, 1), family=LAP,
                        graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
        w, _, x = sample_dataset(cfg)
        nbhd = _neighborhoods(kind, w, x)
        res = sort(x, LAP, nbhd)
        needed = _slots_needed(res.ordering.perm, nbhd.sets)
        assert res.diagnostics["residual_slots"] == needed
        if kind == "full":
            assert needed == x.p - 1
        else:
            assert needed < x.p

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 11), max_size=40))
    def test_compact_moves_the_residuals_held_to_the_leading_slots(self, ops):
        # each op acquires a slot for a node that holds none, or releases
        # the slot it holds; every residual is its node's number
        state = lingamsort.sorter.ResidualState(np.empty((3, 12), order="F"))
        for k in ops:
            if state.slot[k] < 0:
                state.rows[state.acquire(k)] = k
            else:
                state.release(k)
        holders = sorted(k for k in range(12) if state.slot[k] >= 0)
        used = state.slots_used
        nodes = state.compact()
        assert sorted(nodes.tolist()) == holders
        assert [state.slot[k] for k in nodes.tolist()] == list(range(len(holders)))
        assert np.array_equal(state.rows[:len(holders)], np.repeat(nodes, 3).reshape(-1, 3))
        assert list(state.owner[len(holders):]) == [-1] * (12 - len(holders))
        assert state.slots_used == used  # the high-water mark stays
        if len(holders) < 12:  # the next slot given out is the first free one
            k = next(k for k in range(12) if state.slot[k] < 0)
            assert state.acquire(k) == len(holders)


class TestCallerData:
    def test_sort_never_writes_to_the_callers_data(self):
        cfg = SimConfig(p=40, n=200, seed=derive_seed(9500, 1), family=LAP,
                        graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
        w, _, x = sample_dataset(cfg)
        for kind in ("mb", "corr", "full"):
            nbhd = _neighborhoods(kind, w, x)
            for given in _inputs(x.values.copy()):
                base = sort(DataMatrix(given.values.copy(order="K")), LAP, nbhd)
                given.values.flags.writeable = False
                res = sort(given, LAP, nbhd)
                assert res.ordering.perm == base.ordering.perm, kind
                assert res.update_count == base.update_count, kind
                assert (res.diagnostics["residual_slots"]
                        == base.diagnostics["residual_slots"]), kind


class TestSortMatchesFitAtScale:
    """At p in the thousands, where the incremental-Cholesky engine is
    stressed most (the factor tree, deferred rows, slot reuse), each step's
    winning score is the score of the residual that ``fit_coefficients``
    finds by another algorithm, one Householder QR per chain, along the
    same ordering and sets (Golub & Van Loan, *Matrix Computations* 6.5
    against 5.2)."""

    @pytest.mark.parametrize("spec, p, n, family", [
        ("mb", 1000, 500, LAP),
        ("corr:10:0.2", 1000, 500, LAP),
        ("full", 300, 600, NoiseFamily.logistic()),
    ], ids=["mb-p1000", "corr-p1000", "full-p300-logistic"])
    def test_winning_scores_are_the_fit_residual_scores(self, spec, p, n, family):
        w, _, x = sample_dataset(SimConfig(p=p, n=n, seed=3, family=family))
        nbhd, rows = estimation_input(spec, x, spec, dag=w.dag, split_seed=3)
        res = sort(rows, family, nbhd, trace=True)
        train = standardize(rows)
        model = fit_coefficients(train, res.ordering, nbhd, family)
        z = train.values
        won = [dict(step)[k] for step, k in zip(res.step_scores, res.ordering.perm)]
        fit = [llr_score(family, z[:, k] - z[:, list(model.dag.parents[k])] @ model.weights[k])
               for k in res.ordering.perm]
        np.testing.assert_allclose(won, fit, rtol=1e-9, atol=0)


_VMHWM_SCRIPT = """
import json
from lingamsort import LargeSparse, NoiseFamily, SimConfig, markov_blankets, sample_dataset, sort

def status(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(field + ":"))

lap = NoiseFamily.laplace()
w, _, x = sample_dataset(SimConfig(p=2000, n=1000, seed=5, family=lap, graph=LargeSparse(),
                                   scale_low=0.25, scale_high=0.9))
nbhd = markov_blankets(w.dag)
rss, hwm = status("VmRSS"), status("VmHWM")
sort(x, lap, nbhd)
print(json.dumps({"nbytes": x.values.nbytes, "before": hwm - rss, "added": status("VmHWM") - rss}))
"""


class TestSorterMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
    def test_resident_peak_stays_under_an_n_x_p_copy(self, tmp_path):
        # resident pages, not allocations: the pool is one n x p array, of
        # which sort writes only the slots in use, about half at this size
        env = dict(os.environ)
        src = str(Path(lingamsort.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _VMHWM_SCRIPT], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True).stdout
        doc = json.loads(out)
        # the data were made without a transient peak that could hide sort's
        assert doc["before"] < 0.05 * doc["nbytes"]
        assert doc["added"] < 0.75 * doc["nbytes"], doc["added"] / doc["nbytes"]

    def test_raw_data_adds_one_array(self):
        # sort allocates one n x p array of its own, the pool of residual
        # slots, of which it writes only the slots in use; the chunk
        # temporaries (BLOCK_BYTES) are small against it at this size
        n, p = 500, 4000
        rng = np.random.default_rng(14)
        values = rng.laplace(size=(n, p))
        values[:, 1:] += 0.5 * values[:, :-1]
        nbhd = NeighborhoodSets([[j for j in (k - 1, k + 1) if 0 <= j < p] for k in range(p)])
        for x in _inputs(values)[:2]:
            tracemalloc.start()
            try:
                sort(x, LAP, nbhd)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * values.nbytes, (x.values.flags.f_contiguous, peak / values.nbytes)


class TestPopulationCheck:
    def test_single_edge_identified(self):
        w = weighted_chain(2, 0.8, 0.5, LAP)
        report = population_check(w, 10**5, list(range(5)))
        assert report["fraction"] == 1.0
        assert report["successes"] == 5

    def test_gaussian_control_defaults_to_laplace_scoring(self):
        w = weighted_chain(2, 0.8, 0.5, NoiseFamily.gaussian())
        report = population_check(w, 2000, list(range(4)))
        assert report["score_family"] == "laplace"
        assert set(report["topological"]) <= {True, False}
