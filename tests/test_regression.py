import warnings
from itertools import permutations

import numpy as np
import pytest

import lingamsort.regression
import lingamsort.sorter
from lingamsort import (
    DataMatrix,
    NoiseFamily,
    RankDeficient,
    SortConfig,
    VarianceOverflow,
    ZeroVarianceColumn,
    apply_moments,
    column_moments,
    full_neighborhoods,
    ols_residual,
    sort,
    standardize,
)
from lingamsort.regression import ResidualState, partial_update


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
        # standardize flags its output without DataMatrix's check; the check
        # itself must still accept it
        rng = np.random.default_rng(1)
        x = standardize(DataMatrix(rng.laplace(3.0, 7.0, size=(40, 6))))
        assert DataMatrix(x.values, standardized=True).standardized

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_variance_raises(self):
        with pytest.raises(ValueError, match="overflows"):
            standardize(DataMatrix(np.array([[1e308, 1.0], [-1e308, 2.0]])))

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
            monkeypatch.setattr(lingamsort.regression, "MOMENT_CHUNK_BYTES", 8 * n * width)
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

    def test_overflow_names_the_column_without_a_warning(self):
        values = np.random.default_rng(13).laplace(size=(30, 4))
        values[:, 2] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (column_moments, lambda v: standardize(DataMatrix(v))):
                with pytest.raises(VarianceOverflow) as err:
                    call(values)
                assert err.value.column == 2


class TestOlsResidual:
    def test_exact_fit(self):
        z = np.array([[1.0], [2.0], [3.0]])
        resid, beta = ols_residual(z[:, 0], z)
        assert beta == pytest.approx([1.0])
        assert np.max(np.abs(resid)) <= 1e-12

    def test_orthogonal_target(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        y = np.array([0.0, 0.0, 2.0])
        resid, beta = ols_residual(y, z)
        assert np.array_equal(resid, y)
        assert np.array_equal(beta, np.zeros(2))

    def test_intercept_column_by_hand(self):
        # normal equations: beta = mean(y) = 2, residual (-1, 0, 1)
        y = np.array([1.0, 2.0, 3.0])
        z = np.ones((3, 1))
        resid, beta = ols_residual(y, z)
        assert beta == pytest.approx([2.0])
        assert resid == pytest.approx([-1.0, 0.0, 1.0])

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(200)
        z = rng.standard_normal((200, 5))
        resid, _ = ols_residual(y, z)
        assert np.max(np.abs(z.T @ resid)) <= 1e-6 * np.linalg.norm(y)

    def test_duplicate_columns_rank_deficient(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(50)
        with pytest.raises(RankDeficient):
            ols_residual(rng.standard_normal(50), np.column_stack([col, col]))

    def test_more_regressors_than_samples(self):
        with pytest.raises(RankDeficient):
            ols_residual(np.ones(2), np.eye(2, 3) + 1)

    def test_empty_design_returns_target(self):
        y = np.array([1.0, -1.0])
        resid, beta = ols_residual(y, np.empty((2, 0)))
        assert np.array_equal(resid, y)
        assert beta.size == 0


def _take(state, values, factor, k, sel, shared=False):
    """Extend node k's factor by column ``sel`` of ``values`` and update r_k
    as the sorter does; returns the extended factor."""
    factor, u, delta = partial_update(state, factor, sel, values[:, sel], shared)
    rk = state.r[:, k]
    rk -= (float(u @ rk) / delta) * u
    return factor


class TestPartialUpdate:
    def test_identical_columns_zero_out(self):
        values = np.array([[1.0, 1.0], [-1.0, -1.0]], order="F")
        state = ResidualState(values.copy(order="F"))
        _take(state, values, state.root, 1, 0)
        assert np.array_equal(state.r[:, 1], np.zeros(2))
        # extending the empty factor costs 1 inner product, for delta
        assert state.inner_products == 1

    def test_orthogonal_columns_record_zero(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0]], order="F")
        state = ResidualState(values.copy(order="F"))
        _take(state, values, state.root, 1, 0)  # coefficient u'r_1 / delta = 0
        assert np.array_equal(state.r[:, 1], np.array([0.0, 1.0]))

    def test_hand_case(self):
        # u = (1, 0), delta = 1, coefficient <(1,0),(1,1)> = 1; residual (0, 1)
        values = np.array([[1.0, 1.0], [0.0, 1.0]], order="F")
        state = ResidualState(values.copy(order="F"))
        factor = _take(state, values, state.root, 1, 0)
        assert np.array_equal(state.r[:, 1], np.array([0.0, 1.0]))
        assert np.array_equal(factor.cols, [0])
        # G = [[1]], so L = W = [[1]]
        assert np.array_equal(state.inverse(factor), np.array([[1.0]]))

    def test_collinear_column_returns_none(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((50, 2))
        values = np.asfortranarray(np.column_stack([z, z @ [0.5, -2.0]]))
        state = ResidualState(values.copy(order="F"))
        factor = partial_update(state, state.root, 0, values[:, 0], shared=False)[0]
        factor = partial_update(state, factor, 1, values[:, 1], shared=False)[0]
        assert partial_update(state, factor, 2, values[:, 2], shared=False) is None
        # a column already in the factor is in its span too
        assert partial_update(state, factor, 0, values[:, 0], shared=False) is None

    def test_shared_deferred_row_equals_direct_row(self):
        # nodes 1 and 2 both sit on the factor of column 0; when 1 is
        # selected, u = r_1 and the new row of W = L^-1 is deferred
        rng = np.random.default_rng(7)
        mixed = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 3))
        values = np.asfortranarray(standardize(DataMatrix(mixed)).values)
        state = ResidualState(values.copy(order="F"))
        base = _take(state, values, state.root, 1, 0)
        _take(state, values, state.root, 2, 0)
        shared = partial_update(state, base, 1, values[:, 1], shared=True)[0]
        direct = partial_update(state, base, 1, values[:, 1], shared=False)[0]
        assert shared.inv is None and direct.inv is not None
        state.r[:, 1] = values[:, 1]  # node 1 is sorted: its step is done
        before = state.inner_products
        w = state.inverse(shared)
        assert state.inner_products - before == 1  # |S| = 1 for the deferred row
        assert np.max(np.abs(w - direct.inv)) <= 1e-10
        gram = values[:, :2].T @ values[:, :2]
        assert np.max(np.abs(w @ np.linalg.cholesky(gram) - np.eye(2))) <= 1e-10

    def test_inverse_factor_whitens_gram(self):
        # after five extensions on a correlated design, W G W' = I for the
        # Gram matrix G of the factor's columns, in the order they joined
        rng = np.random.default_rng(8)
        mix = np.eye(6) + 0.7 * rng.standard_normal((6, 6))
        values = np.asfortranarray(standardize(DataMatrix(rng.laplace(size=(60, 6)) @ mix)).values)
        state = ResidualState(values.copy(order="F"))
        factor = state.root
        for a in (3, 0, 4, 1, 2):
            factor = _take(state, values, factor, 5, a)
        z = values[:, factor.cols]
        w = state.inverse(factor)
        assert np.array_equal(w, np.tril(w))
        assert np.max(np.abs(w @ (z.T @ z) @ w.T - np.eye(5))) <= 1e-10

    def test_norm_never_increases(self):
        rng = np.random.default_rng(3)
        values = np.asfortranarray(rng.standard_normal((100, 6)))
        state = ResidualState(values.copy(order="F"))
        factor = state.root
        for a in range(5):
            before = np.linalg.norm(state.r[:, 5])
            factor = _take(state, values, factor, 5, a)
            assert np.linalg.norm(state.r[:, 5]) <= before + 1e-12

    def test_state_does_not_alias_input(self, monkeypatch):
        # the state takes its array over, so sort copies caller-standardized
        # data into it once, whatever the layout
        aliased = []

        def spy(state, *args, **kwargs):
            aliased.append(np.shares_memory(state.r, values))
            return partial_update(state, *args, **kwargs)

        monkeypatch.setattr(lingamsort.sorter, "partial_update", spy)
        cfg = SortConfig(family=NoiseFamily.laplace(), neighborhoods=full_neighborhoods(2))
        for order in "CF":
            h = np.sqrt(2.0)
            values = np.array([[1.0, h], [-1.0, 0.0], [1.0, 0.0], [-1.0, -h]], order=order)
            before = values.copy()
            sort(DataMatrix(values, standardized=True), cfg)
            assert np.array_equal(values, before)
        assert aliased == [False, False]


class TestJointVsSequential:
    def test_any_column_order_gives_joint_ols_residual(self):
        # on a correlated, non-orthogonal design, taking the regressors one
        # at a time reproduces the joint OLS residual in any order
        rng = np.random.default_rng(4)
        mix = np.eye(4) + 0.6 * rng.standard_normal((4, 4))
        values = standardize(DataMatrix(rng.laplace(size=(40, 4)) @ mix)).values
        joint, _ = ols_residual(values[:, 3], values[:, :3])
        for order in permutations(range(3)):
            state = ResidualState(np.array(values, order="F"))
            factor = state.root
            for a in order:
                factor = _take(state, values, factor, 3, a)
            assert np.max(np.abs(state.r[:, 3] - joint)) <= 1e-10

    def test_mean_zero_preserved(self):
        rng = np.random.default_rng(5)
        x = standardize(DataMatrix(rng.standard_normal((64, 5))))
        state = ResidualState(np.array(x.values, order="F"))
        factor = state.root
        for a in range(4):
            factor = _take(state, x.values, factor, 4, a)
        assert np.max(np.abs(state.r.mean(axis=0))) <= 1e-8
