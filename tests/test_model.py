import math

import numpy as np
import pytest

from conftest import chain_dag, dense_b, diamond_dag, mixing_matrix
from lingamsort import (
    Dag,
    DataMatrix,
    NoiseFamily,
    Ordering,
    WeightedDag,
    apply_moments,
    is_topological,
)
from lingamsort.model import NeighborhoodSets


class TestDag:
    def test_parent_lists_are_sorted_and_children_invert(self):
        dag = Dag(3, [[], [0], [1, 0]])
        assert [pa.tolist() for pa in dag.parents] == [[], [0], [0, 1]]
        assert [ch.tolist() for ch in dag.children] == [[1, 2], [2], []]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(2, [[1], [0]])
        with pytest.raises(ValueError, match="cycle"):
            Dag(3, [[2], [0], [1]])

    def test_self_parent_rejected(self):
        with pytest.raises(ValueError, match="node 0 contained in its own set"):
            Dag(2, [[0], []])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dag(2, [[], [5]])

    def test_duplicate_parent_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag(2, [[], [0, 0]])
        # an unsorted list: the repeat is found from the set's size, not by adjacency
        with pytest.raises(ValueError, match="duplicate parent in list of node 1"):
            Dag(3, [[], [2, 0, 2], []])

    def test_from_edges_round_trip(self):
        dag = Dag.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert dag == diamond_dag()
        assert [(j, k) for k, pa in enumerate(dag.parents) for j in pa.tolist()] == [
            (0, 1), (0, 2), (1, 3), (2, 3)]
        assert dag.edge_count == 4

    def test_parent_sets_are_one_layout_and_children_their_reverse(self):
        dag = Dag(5, [[3, 4], [0, 3], [], [2], [2]])
        assert dag.parent_sets.to_lists() == [[3, 4], [0, 3], [], [2], [2]]
        assert all(pa.dtype == np.int64 and pa.base is dag.parent_sets.members
                   for pa in dag.parents)
        assert [ch.tolist() for ch in dag.children] == [
            r.tolist() for r in dag.parent_sets.reverse()] == [[1], [], [3, 4], [0, 1], [0]]
        assert dag.edge_count == 6
        assert dag == Dag(5, [[4, 3], [3, 0], [], [2], [2]])
        assert dag != Dag(5, [[3, 4], [0, 3], [], [2], []])

    @pytest.mark.parametrize("child", [-1, 4])
    def test_from_edges_rejects_child_out_of_range(self, child):
        # a negative child must not wrap round to node p - 1
        with pytest.raises(ValueError, match="out of range"):
            Dag.from_edges(4, [(0, 1), (1, child)])

    def test_topological_order_exists_for_every_dag(self):
        # Kahn traversal provides the existence witness
        for dag in [chain_dag(6), diamond_dag(), Dag(4, [[], [], [], []])]:
            assert is_topological(dag, Ordering(dag.topological_order()))


class TestNoiseFamily:
    def test_from_string_round_trip(self):
        for text in ["laplace", "logistic", "scaled-t:10", "gaussian"]:
            assert str(NoiseFamily.from_string(text)) == text

    def test_scaled_t_needs_df_above_two(self):
        with pytest.raises(ValueError):
            NoiseFamily.scaled_t(2.0)
        with pytest.raises(ValueError):
            NoiseFamily.from_string("scaled-t")
        with pytest.raises(ValueError, match="not a decimal number: '1_0'"):
            NoiseFamily.from_string("scaled-t:1_0")  # float() read df 10
        assert NoiseFamily.scaled_t(2.5).df == 2.5

    @pytest.mark.parametrize("df", [math.inf, math.nan, "abc", "10", True, None])
    def test_scaled_t_needs_a_finite_real_df(self, df):
        # an infinite df scored every residual NaN; a string raised TypeError
        with pytest.raises(ValueError, match="finite real degrees of freedom"):
            NoiseFamily("scaled-t", df=df)

    def test_df_only_for_scaled_t(self):
        with pytest.raises(ValueError):
            NoiseFamily("laplace", df=3.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            NoiseFamily("cauchy")


class TestWeightedDag:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero weight"):
            WeightedDag(chain_dag(2), [[], [0.0]], NoiseFamily.laplace(), [1, 1])

    @pytest.mark.parametrize("weight, scale", [(np.nan, 1.0), (np.inf, 1.0), (0.5, np.inf),
                                               (0.5, np.nan)])
    def test_non_finite_weight_or_scale_rejected(self, weight, scale):
        with pytest.raises(ValueError, match="finite"):
            WeightedDag(chain_dag(2), [[], [weight]], NoiseFamily.laplace(), [1, scale])

    def test_weights_are_views_of_one_array_aligned_with_the_members(self):
        dag = Dag(4, [[], [0], [0, 1], [2, 1]])
        w = WeightedDag(dag, [[], [0.5], [0.6, -0.7], np.array([0.8, -0.9])],
                        NoiseFamily.laplace(), [1.0] * 4)
        assert w.edge_weights.tolist() == [0.5, 0.6, -0.7, 0.8, -0.9]
        assert w.edge_weights.size == dag.parent_sets.members.size
        assert all(wt.base is w.edge_weights for wt in w.weights)
        assert [wt.tolist() for wt in w.weights] == [[], [0.5], [0.6, -0.7], [0.8, -0.9]]

    @pytest.mark.parametrize("weights, node", [
        ([[], [0.5], [np.nan, 0.2], [0.0]], 2),
        ([[], [0.5], [0.1, 0.2], [np.inf]], 3),
        ([[], [0.0], [np.nan, 0.2], [1.0]], 1),
    ])
    def test_first_node_with_a_bad_weight_is_named(self, weights, node):
        dag = Dag(4, [[], [0], [0, 1], [2]])
        with pytest.raises(ValueError, match=f"non-finite or zero weight on an edge into node {node}$"):
            WeightedDag(dag, weights, NoiseFamily.laplace(), [1.0] * 4)

    @pytest.mark.parametrize("weights, node", [
        ([[], [[0.5]], [0.1, 0.2]], 1),  # node 1's one weight as a 1 x 1 array
        ([[], [0.5], [0.1]], 2),
        ([[], [0.5, 0.1], [0.2]], 1),
    ])
    def test_weights_must_be_one_per_parent_and_1d(self, weights, node):
        dag = Dag(3, [[], [0], [0, 1]])
        with pytest.raises(ValueError, match=f"^weights of node {node} do not match its parent list$"):
            WeightedDag(dag, weights, NoiseFamily.laplace(), [1.0] * 3)

    def test_scales_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedDag(chain_dag(2), [[], [0.5]], NoiseFamily.laplace(), [1, 0])


class TestMixingMatrix:
    def test_no_edges_gives_identity(self):
        w = WeightedDag(Dag(3, [[], [], []]), [[], [], []], NoiseFamily.laplace(), [1, 1, 1])
        assert np.array_equal(mixing_matrix(w), np.eye(3))

    def test_two_node_chain(self):
        # (I - B)^{-T} for B[0,1] = 0.5, expanded by hand: [[1, 0], [0.5, 1]]
        w = WeightedDag(chain_dag(2), [[], [0.5]], NoiseFamily.laplace(), [1, 1])
        assert np.array_equal(mixing_matrix(w), np.array([[1.0, 0.0], [0.5, 1.0]]))

    def test_path_sum(self):
        # 0 -> 1 -> 2 plus 0 -> 2: M[2, 0] collects both paths, c + a*b
        a, b, c = 0.7, -0.4, 0.9
        dag = Dag(3, [[], [0], [0, 1]])
        w = WeightedDag(dag, [[], [a], [c, b]], NoiseFamily.laplace(), [1, 1, 1])
        m = mixing_matrix(w)
        assert m[2, 0] == pytest.approx(c + a * b, abs=1e-15)
        assert np.array_equal(np.diag(m), np.ones(3))

    def test_inverse_identity_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(2, 8))
            parents = [list(rng.choice(k, size=rng.integers(0, k + 1), replace=False))
                       for k in range(p)]
            dag = Dag(p, parents)
            weights = [rng.uniform(0.4, 0.9, len(dag.parents[k])) for k in range(p)]
            w = WeightedDag(dag, weights, NoiseFamily.laplace(), np.ones(p))
            m = mixing_matrix(w)
            lhs = (np.eye(p) - dense_b(w)).T @ m
            assert np.max(np.abs(lhs - np.eye(p))) <= 1e-10
            # support confined to ancestors
            for k in range(p):
                assert m[k, k] == 1.0


class TestIsTopological:
    def test_chain_orders(self):
        dag = chain_dag(3)
        assert is_topological(dag, Ordering([0, 1, 2]))
        assert not is_topological(dag, Ordering([1, 0, 2]))

    def test_empty_graph_accepts_everything(self):
        dag = Dag(4, [[], [], [], []])
        assert is_topological(dag, Ordering([3, 1, 0, 2]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_topological(chain_dag(3), Ordering([0, 1]))


class TestOrdering:
    def test_must_be_permutation(self):
        with pytest.raises(ValueError):
            Ordering([0, 0, 1])
        with pytest.raises(ValueError):
            Ordering([1, 2])

    def test_positions_invert(self):
        ordering = Ordering([2, 0, 1])
        assert list(ordering.positions()) == [1, 2, 0]


class TestDataMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(np.array([[1.0, np.nan]]))


class TestApplyMoments:
    @pytest.mark.parametrize("mean, sd, named", [
        ([0.0, 0.0, 0.0], [1.0, math.inf, 1.0], "column v1: mean 0.0, sd inf"),
        ([0.0, 0.0, -math.inf], [1.0, 1.0, 1.0], "column v2: mean -inf, sd 1.0"),
        ([0.0, math.nan, 0.0], [1.0, 1.0, 1.0], "column v1: mean nan, sd 1.0"),
        ([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], "column v2: mean 0.0, sd 0.0"),
    ], ids=["infinite-sd", "infinite-mean", "nan-mean", "zero-sd"])
    def test_bad_moment_is_refused_naming_its_column(self, mean, sd, named):
        # an infinite sd mapped its column to zeros, which were scored as data
        x = DataMatrix(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError, match=f"^{named}; need finite moments and sd > 0$"):
            apply_moments(x, mean, sd)


class TestNeighborhoodSets:
    def test_self_membership_rejected(self):
        with pytest.raises(ValueError, match="node 0 contained in its own set"):
            NeighborhoodSets([[0], []])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"index 2 out of range in set 0, not in \[0, 2\)"):
            NeighborhoodSets([[2], [0]])

    def test_lists_round_trip(self):
        nbhd = NeighborhoodSets([[2, 1], [0], [0]])
        assert nbhd.to_lists() == [[1, 2], [0], [0]]
        assert NeighborhoodSets(nbhd.to_lists()).to_lists() == nbhd.to_lists()

    def test_first_bad_set_is_named(self):
        # set 1 holds itself and set 2 an index out of range: set 1 is named;
        # within one set an index out of range is named before self-membership
        with pytest.raises(ValueError, match="node 1 contained in its own"):
            NeighborhoodSets([[1], [0, 1], [5], [0]])
        with pytest.raises(ValueError, match="out of range in set 1"):
            NeighborhoodSets([[1], [1, -1], [0]])

    def test_sets_are_sorted_deduped_views_of_members(self):
        nbhd = NeighborhoodSets([[3, 1, 3], set(), np.array([0, 3]), (2, 0, 2, 1)])
        assert nbhd.to_lists() == [[1, 3], [], [0, 3], [0, 1, 2]]
        assert nbhd.sizes.tolist() == [2, 0, 2, 3]
        assert nbhd.members.tolist() == [1, 3, 0, 3, 0, 1, 2]
        assert all(s.dtype == np.int64 and s.base is nbhd.members for s in nbhd.sets)

    @pytest.mark.parametrize("sets", [
        [[1, 2], [], [0], []],  # node 3 is in no set; sets 1 and 3 are empty
        [[]],
        [[3, 1], [0, 3], [3], [0, 1, 2], []],
    ])
    def test_reverse_lists_the_sets_that_hold_each_node(self, sets):
        nbhd = NeighborhoodSets(sets)
        p = len(sets)
        brute = [[k for k in range(p) if j in sets[k]] for j in range(p)]
        reverse = nbhd.reverse()
        assert [r.tolist() for r in reverse] == brute
        assert all(r.dtype == np.int32 and r.base is reverse[0].base for r in reverse)

    def test_reverse_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(5)
        for p in (1, 2, 7, 30):
            sets = [[j for j in rng.choice(p, size=rng.integers(0, p + 1), replace=False).tolist()
                     if j != k] for k in range(p)]
            brute = [[k for k in range(p) if j in sets[k]] for j in range(p)]
            assert [r.tolist() for r in NeighborhoodSets(sets).reverse()] == brute
