import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import chain_dag, ols_residual, population_check, weighted_chain
from lingamsort import (
    Dag,
    DataMatrix,
    DegenerateResidual,
    LargeSparse,
    NeighborhoodSets,
    NoiseFamily,
    SimConfig,
    WeightedDag,
    derive_seed,
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
import lingamsort.sorter
from lingamsort.scoring import DEGENERATE_MEAN_SQUARE

LAP = NoiseFamily.laplace()


def _oracle_score(family, resid):
    if float(resid @ resid) / resid.size < DEGENERATE_MEAN_SQUARE:
        return -np.inf
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

    def test_update_count_counts_inner_products(self):
        # full neighborhoods: every unsorted node shares the selected node's
        # factor, so each step costs 1 (delta = r_sel'r_sel) plus 1 per node
        p = 8
        cfg = SimConfig(p=p, n=200, seed=9, family=LAP)
        _, _, x = sample_dataset(cfg)
        res = sort(x, LAP, full_neighborhoods(p))
        assert res.diagnostics["rescore_events"] == p * (p - 1) // 2
        assert res.update_count == p * (p - 1) // 2 + p - 1

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
    ])
    def test_counts_work_not_calls(self, kind, updates, rescores, digest):
        # p = 300: the update and rescore counts, and the ordering (by its
        # sha256), of the sorter that extended one factor per call
        cfg = SimConfig(p=300, n=600, seed=derive_seed(9400, 1), family=LAP,
                        graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
        w, _, x = sample_dataset(cfg)
        nbhd = markov_blankets(w.dag) if kind == "mb" else top_correlated(x, 10)
        res = sort(x, LAP, nbhd)
        assert res.update_count == updates
        assert res.diagnostics["rescore_events"] == rescores
        perm = ",".join(map(str, res.ordering.perm)).encode()
        assert hashlib.sha256(perm).hexdigest()[:16] == digest


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


class TestSorterMemory:
    def test_raw_data_adds_one_array(self):
        # sort keeps one n x p array of its own: the residuals, in which the
        # sorted columns hold their standardized values; the chunk
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
