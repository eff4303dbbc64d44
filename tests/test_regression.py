import warnings
from itertools import permutations

import numpy as np
import pytest

import lingamsort.model
import lingamsort.sorter
from lingamsort import (
    DataMatrix,
    NoiseFamily,
    apply_moments,
    column_moments,
    full_neighborhoods,
    sort,
    standardize,
)
import conftest
from lingamsort.metrics import RankDeficient, ols_residual
from lingamsort.model import PIVOT_RTOL, VarianceOverflow, ZeroVarianceColumn, chunked_moments
from lingamsort.sorter import ResidualState, partial_update


class TestStandardize:
    def test_two_point_column(self):
        # mean 2, sd (denominator n) = 1, so (1, 3) -> (-1, 1)
        x = standardize(DataMatrix(np.array([[1.0], [3.0]])))
        assert np.array_equal(x.values, np.array([[-1.0], [1.0]]))
        assert x.standardized

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = standardize(DataMatrix(rng.standard_normal((50, 4))))
        again = standardize(x)
        assert np.max(np.abs(again.values - x.values)) <= 1e-12

    def test_constant_column_raises(self):
        with pytest.raises(ZeroVarianceColumn) as err:
            standardize(DataMatrix(np.array([[1.0, 2.0], [1.5, 2.0]])))
        assert err.value.column == 1

    def test_output_passes_the_standardized_check(self):
        # standardize flags its output without checking it: every column
        # has mean 0 and sd 1 (denominator n)
        rng = np.random.default_rng(1)
        x = standardize(DataMatrix(rng.laplace(3.0, 7.0, size=(40, 6))))
        assert x.standardized
        assert np.max(np.abs(x.values.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(x.values.std(axis=0) - 1.0)) <= 1e-10

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_variance_raises(self):
        # the overflow is named before a constant column, here columns 0 and 1
        constant_too = np.array([[1.0, 1.0, 1e200], [1.0, 1.0, -1e200]] * 2)
        for values, column in ([[1e308, 1.0], [-1e308, 2.0]], 0), (constant_too, 2):
            with pytest.raises(VarianceOverflow, match=f"column {column} variance overflows"):
                standardize(DataMatrix(np.array(values)))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            standardize(DataMatrix(np.array([[1.0, 2.0]])))

    def test_apply_moments_uses_given_transform(self):
        train = DataMatrix(np.array([[0.0, 2.0], [2.0, 6.0]]))
        mean, sd = column_moments(train.values)
        test = apply_moments(DataMatrix(np.array([[1.0, 4.0]])), mean, sd)
        assert np.array_equal(test.values, np.array([[0.0, 0.0]]))
        assert not test.standardized


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestChunkedMoments:
    """The moment pass works a chunk of columns at a time and must still equal
    numpy's whole-array arithmetic bit for bit: ``sort`` rebuilds a sorted
    column from the raw one and relies on matching ``standardize``."""

    @pytest.mark.parametrize("width", [4, None], ids=["4-columns", "module-chunk"])
    def test_bit_equal_to_numpy(self, monkeypatch, width):
        n = 1000
        if width is not None:
            monkeypatch.setattr(lingamsort.model, "MOMENT_CHUNK_BYTES", 8 * n * width)
        rng = np.random.default_rng(12)
        # p below one chunk, a multiple of it, and one or two past a multiple;
        # a one-column tail of a row-major array is where numpy's order differs
        for p in (1, 2, 3, 8, 9, 10):
            raw = rng.laplace(3.0, 7.0, size=(n, p)) * rng.uniform(0.01, 1e4, size=p)
            for v in (np.ascontiguousarray(raw), np.asfortranarray(raw)):
                mean, sd = column_moments(v)
                assert np.array_equal(_bits(mean), _bits(v.mean(axis=0)))
                assert np.array_equal(_bits(sd), _bits(v.std(axis=0)))
                x = standardize(DataMatrix(v))
                assert x.values.flags.f_contiguous
                expected = (v - v.mean(axis=0)) / v.std(axis=0)
                assert np.array_equal(_bits(x.values), _bits(expected))
                assert all(np.array_equal(_bits(a), _bits(b))
                           for a, b in zip(x.moments, (mean, sd)))

    def test_overflow_names_the_column_without_a_warning(self, monkeypatch):
        # chunks of two columns; columns 3 and 5 overflow, so the pass names
        # 3 in each of its modes, and visits only the chunks without them
        monkeypatch.setattr(lingamsort.model, "MOMENT_CHUNK_BYTES", 8 * 30 * 2)
        values = np.random.default_rng(13).laplace(size=(30, 8))
        values[:, [3, 5]] *= 1e200
        visited = []
        calls = (column_moments, lambda v: standardize(DataMatrix(v)), chunked_moments,
                 lambda v: chunked_moments(v, np.empty_like(v)),
                 lambda v: chunked_moments(v, np.empty_like(v, order="F"),
                                           lambda lo, z: visited.append(lo)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(VarianceOverflow) as err:
                    call(values)
                assert err.value.column == 3
        assert visited == [0, 6]


def _chain(*columns, lead):
    """One chain of columns through the kernel, with the rank floor."""
    z = np.array(columns, dtype=float)[None]
    return ols_residual(z, lead, PIVOT_RTOL * z.shape[2])


class TestOlsResidual:
    """The chain kernel: each column of a chain regressed on the columns
    before it, from one QR."""

    def test_exact_fit(self):
        # y = z leaves y nothing: its pivot is under the floor and no
        # coefficient or residual is formed
        z = np.array([1.0, 2.0, 3.0])
        pivots, coef, resid = _chain(z, z, lead=1)
        assert pivots[0, 0] == pytest.approx(14.0)
        assert pivots[0, 1] <= 1e-24
        assert coef is None and resid is None

    def test_orthogonal_target(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        y = np.array([0.0, 0.0, 2.0])
        pivots, coef, resid = _chain(*z.T, y, lead=2)
        assert np.array_equal(resid[0, 0], y)
        assert np.array_equal(coef[0, 0], [0.0, 0.0, 1.0])
        assert np.array_equal(pivots[0], [1.0, 1.0, 4.0])

    def test_intercept_column_by_hand(self):
        # beta = mean(y) = 2, residual (-1, 0, 1)
        y = np.array([1.0, 2.0, 3.0])
        pivots, coef, resid = _chain(np.ones(3), y, lead=1)
        assert -coef[0, 0, 0] == pytest.approx(2.0)
        assert coef[0, 0, 1] == 1.0
        assert resid[0, 0] == pytest.approx([-1.0, 0.0, 1.0])
        assert pivots[0] == pytest.approx([3.0, 2.0])

    def test_residual_orthogonal_to_design(self):
        # every column of a lead-0 chain gets its residual on the columns
        # before it, and its pivot is that residual's squared norm
        rng = np.random.default_rng(1)
        z = rng.standard_normal((200, 6))
        pivots, coef, resid = _chain(*z.T, lead=0)
        for t in range(6):
            assert np.all(np.abs(z[:, :t].T @ resid[0, t]) <= 1e-9 * np.linalg.norm(z[:, t]))
            assert np.array_equal(coef[0, t, t + 1:], np.zeros(5 - t))
            assert coef[0, t, t] == 1.0
            assert float(resid[0, t] @ resid[0, t]) == pytest.approx(pivots[0, t], rel=1e-12)

    def test_duplicate_columns_rank_deficient(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(50)
        pivots, coef, _ = _chain(col, col, rng.standard_normal(50), lead=2)
        assert pivots[0, 1] < PIVOT_RTOL * 50 < pivots[0, 0]
        assert coef is None

    def test_more_regressors_than_samples(self):
        # a column past the n-th has pivot 0
        z = np.eye(2, 3) + 1
        pivots, coef, _ = _chain(*z.T, np.ones(2), lead=3)
        assert pivots.shape == (1, 4)
        assert np.array_equal(pivots[0, 2:], [0.0, 0.0]) and np.all(pivots[0, :2] > 0)
        assert coef is None

    def test_empty_design_returns_target(self):
        y = np.array([1.0, -1.0])
        pivots, coef, resid = _chain(y, lead=0)
        assert np.array_equal(resid[0, 0], y)
        assert np.array_equal(coef, [[[1.0]]])
        assert pivots[0, 0] == pytest.approx(2.0)


def _state(values):
    """A state on a column-major copy of ``values`` in which node k holds
    slot k, each acquired in turn, with column k as its residual."""
    state = ResidualState(np.array(values, order="F"))
    for k in range(values.shape[1]):
        assert state.acquire(k) == k
    return state


def _cols(state, factor):
    return [state.col[g] for g in state.path(factor)]


def _inverse(state, factor):
    """The factor's W = L^-1 as an m x m array, its deferred rows filled in."""
    state.complete(factor, state.rows[_cols(state, factor)])
    path = state.path(factor)
    w = np.zeros((len(path), len(path)))
    for i, g in enumerate(path):
        w[i, :i + 1] = state.w[state.row[g]:state.row[g] + i + 1]
    return w


def _take(state, values, factor, k, sel, own=-1):
    """Extend node k's factor by column ``sel`` of ``values`` in a one-group
    batch and update r_k as the sorter does; returns the extended factor.
    ``own`` is the factor ``sel`` was regressed on (none by default)."""
    (child,), u, delta = partial_update(state, [factor], sel, values.T.__getitem__, own)
    rk = state.pool[:, k]
    rk -= (float(u[0] @ rk) / delta[0]) * u[0]
    return child


class TestPartialUpdate:
    def test_identical_columns_zero_out(self):
        values = np.array([[1.0, 1.0], [-1.0, -1.0]], order="F")
        state = _state(values)
        _take(state, values, state.ROOT, 1, 0)
        assert np.array_equal(state.pool[:, 1], np.zeros(2))
        # extending the empty factor costs 1 inner product, for delta
        assert state.inner_products == 1

    def test_orthogonal_columns_record_zero(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0]], order="F")
        state = _state(values)
        _take(state, values, state.ROOT, 1, 0)  # coefficient u'r_1 / delta = 0
        assert np.array_equal(state.pool[:, 1], np.array([0.0, 1.0]))

    def test_hand_case(self):
        # u = (1, 0), delta = 1, coefficient <(1,0),(1,1)> = 1; residual (0, 1)
        values = np.array([[1.0, 1.0], [0.0, 1.0]], order="F")
        state = _state(values)
        factor = _take(state, values, state.ROOT, 1, 0)
        assert np.array_equal(state.pool[:, 1], np.array([0.0, 1.0]))
        assert _cols(state, factor) == [0]
        # G = [[1]], so L = W = [[1]]
        assert np.array_equal(_inverse(state, factor), np.array([[1.0]]))

    def test_collinear_column_returns_none(self):
        # a collinear regressor is skipped: its group keeps its factor and
        # gets delta = inf, so that its nodes' update is zero
        rng = np.random.default_rng(6)
        z = rng.standard_normal((50, 2))
        values = np.asfortranarray(np.column_stack([z, z @ [0.5, -2.0]]))
        state = _state(values)
        factor = partial_update(state, [state.ROOT], 0, values.T.__getitem__, -1)[0][0]
        factor = partial_update(state, [factor], 1, values.T.__getitem__, -1)[0][0]
        count = len(state.parent)
        (child,), _, delta = partial_update(state, [factor], 2, values.T.__getitem__, -1)
        assert child == factor and delta[0] == np.inf
        # a column already in the factor is in its span too; in a batch,
        # only the collinear group is skipped
        children, _, delta = partial_update(state, [factor, state.ROOT], 0, values.T.__getitem__, -1)
        assert children[0] == factor and delta[0] == np.inf
        assert children[1] != state.ROOT and np.isfinite(delta[1])
        assert len(state.parent) == count + 1  # only the root gained a child

    def test_shared_deferred_row_equals_direct_row(self):
        # nodes 1 and 2 both sit on the factor of column 0; when 1 is
        # selected, u = r_1 and the new row of W = L^-1 is deferred
        rng = np.random.default_rng(7)
        mixed = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 3))
        values = np.asfortranarray(standardize(DataMatrix(mixed)).values)
        state = _state(values)
        base = _take(state, values, state.ROOT, 1, 0)
        _take(state, values, state.ROOT, 2, 0)
        (shared,), u, _ = partial_update(state, [base], 1, values.T.__getitem__, base)
        assert np.array_equal(u[0], state.pool[:, 1])  # the shared direction is r_1
        (direct,), _, _ = partial_update(state, [base], 1, values.T.__getitem__, -1)
        assert state.row[shared] is None and state.row[direct] is not None
        state.pool[:, 1] = values[:, 1]  # node 1 is sorted: its step is done
        before = state.inner_products
        w = _inverse(state, shared)
        assert state.inner_products - before == 1  # |S| = 1 for the deferred row
        _inverse(state, shared)
        assert state.inner_products - before == 1  # filled once
        assert np.max(np.abs(w - _inverse(state, direct))) <= 1e-10
        gram = values[:, :2].T @ values[:, :2]
        assert np.max(np.abs(w @ np.linalg.cholesky(gram) - np.eye(2))) <= 1e-10

    def test_inverse_factor_whitens_gram(self):
        # after five extensions on a correlated design, W G W' = I and
        # W'W = G^-1 for the Gram matrix G of the factor's columns, in the
        # order they joined
        rng = np.random.default_rng(8)
        mix = np.eye(6) + 0.7 * rng.standard_normal((6, 6))
        values = np.asfortranarray(standardize(DataMatrix(rng.laplace(size=(60, 6)) @ mix)).values)
        state = _state(values)
        factor = state.ROOT
        for a in (3, 0, 4, 1, 2):
            factor = _take(state, values, factor, 5, a)
        assert _cols(state, factor) == [3, 0, 4, 1, 2]
        z = values[:, _cols(state, factor)]
        w = _inverse(state, factor)
        assert np.array_equal(w, np.tril(w))
        assert np.max(np.abs(w @ (z.T @ z) @ w.T - np.eye(5))) <= 1e-10
        assert np.max(np.abs(w.T @ w @ (z.T @ z) - np.eye(5))) <= 1e-10

    def test_norm_never_increases(self):
        rng = np.random.default_rng(3)
        values = np.asfortranarray(rng.standard_normal((100, 6)))
        state = _state(values)
        factor = state.ROOT
        for a in range(5):
            before = np.linalg.norm(state.pool[:, 5])
            factor = _take(state, values, factor, 5, a)
            assert np.linalg.norm(state.pool[:, 5]) <= before + 1e-12

    def test_state_does_not_alias_input(self, monkeypatch):
        # the state takes its array over, so sort standardizes into a fresh
        # one and leaves the caller's data as they were, whatever the layout
        aliased = []

        def spy(state, *args, **kwargs):
            aliased.append(np.shares_memory(state.pool, values))
            return partial_update(state, *args, **kwargs)

        monkeypatch.setattr(lingamsort.sorter, "partial_update", spy)
        for order in "CF":
            h = np.sqrt(2.0)
            values = np.array([[1.0, h], [-1.0, 0.0], [1.0, 0.0], [-1.0, -h]], order=order)
            before = values.copy()
            sort(DataMatrix(values), NoiseFamily.laplace(), full_neighborhoods(2))
            assert np.array_equal(values, before)
        assert aliased == [False, False]

    def test_batch_equals_one_group_at_a_time(self):
        # one batch over a root, a shared and two general factors (m = 1
        # and m = 3) gives each group the u, delta and new row of W that a
        # one-group call gives it, and the same inner-product count
        rng = np.random.default_rng(9)
        mix = np.eye(7) + 0.5 * rng.standard_normal((7, 7))
        values = np.asfortranarray(standardize(DataMatrix(rng.laplace(size=(90, 7)) @ mix)).values)

        def build():
            state = _state(values)
            one = _take(state, values, state.ROOT, 6, 0)
            three = state.ROOT
            for a in (1, 2, 3):
                three = _take(state, values, three, 5, a)
            for k in (0, 1, 2, 3):
                state.pool[:, k] = values[:, k]  # sorted
            return state, [state.ROOT, one, three, one]

        state, factors = build()
        before = state.inner_products
        own = factors[1]
        children, u, delta = partial_update(state, factors[:3], 4, values.T.__getitem__, own)
        spent = state.inner_products - before
        alone_spent = 0
        for g, f in enumerate(factors[:3]):
            ref, _ = build()
            start = ref.inner_products
            (child,), ref_u, ref_delta = partial_update(ref, [f], 4, values.T.__getitem__, own)
            alone_spent += ref.inner_products - start
            np.testing.assert_allclose(u[g], ref_u[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(delta[g], ref_delta[0], rtol=1e-12)
            assert _cols(state, children[g]) == _cols(ref, child) == _cols(state, f) + [4]
            if f == own:
                assert state.row[children[g]] is None
            else:
                np.testing.assert_allclose(_inverse(state, children[g]), _inverse(ref, child),
                                           rtol=0, atol=1e-12)
        assert spent == alone_spent == (0 + 1) + 1 + (3 + 1)  # |S| + 1, or 1 when shared
        assert np.array_equal(u[1], state.pool[:, 4])  # the shared group's u is r_4


class TestJointVsSequential:
    def test_any_column_order_gives_joint_ols_residual(self):
        # on a correlated, non-orthogonal design, taking the regressors one
        # at a time reproduces the joint OLS residual in any order
        rng = np.random.default_rng(4)
        mix = np.eye(4) + 0.6 * rng.standard_normal((4, 4))
        values = standardize(DataMatrix(rng.laplace(size=(40, 4)) @ mix)).values
        joint, _ = conftest.ols_residual(values[:, 3], values[:, :3])
        for order in permutations(range(3)):
            state = _state(values)
            factor = state.ROOT
            for a in order:
                factor = _take(state, values, factor, 3, a)
            assert np.max(np.abs(state.pool[:, 3] - joint)) <= 1e-10

    def test_mean_zero_preserved(self):
        rng = np.random.default_rng(5)
        x = standardize(DataMatrix(rng.standard_normal((64, 5))))
        state = _state(x.values)
        factor = state.ROOT
        for a in range(4):
            factor = _take(state, x.values, factor, 4, a)
        assert np.max(np.abs(state.pool.mean(axis=0))) <= 1e-8
