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
        assert dag.parents == ((), (0,), (0, 1))
        assert dag.children == ((1, 2), (2,), ())

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(2, [[1], [0]])
        with pytest.raises(ValueError, match="cycle"):
            Dag(3, [[2], [0], [1]])

    def test_self_parent_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            Dag(2, [[0], []])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dag(2, [[], [5]])

    def test_duplicate_parent_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag(2, [[], [0, 0]])

    def test_from_edges_round_trip(self):
        dag = Dag.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert dag == diamond_dag()
        assert list(dag.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert dag.edge_count == 4

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
        with pytest.raises(ValueError):
            NeighborhoodSets([[0], []])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
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
