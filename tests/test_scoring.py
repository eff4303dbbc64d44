import math

import numpy as np
import pytest
import scipy.stats
from scipy.integrate import quad

from lingamsort import (
    NoiseFamily,
    fit_scale,
    laplace_fast_score,
    llr_score,
    rng_stream,
    sample_noise,
)
from lingamsort.scoring import DegenerateResidual, log_density

LAP = NoiseFamily.laplace()
LOGI = NoiseFamily.logistic()
T10 = NoiseFamily.scaled_t(10)
GAU = NoiseFamily.gaussian()

# mean Laplace log-likelihood at the MLE minus mean Gaussian log-likelihood
# at the matched sd: log(pi/2)/2 - 1/2 for any vector
LAPLACE_GAP = 0.5 * math.log(math.pi / 2.0) - 0.5


class TestLogDensity:
    def test_laplace_at_zero(self):
        assert log_density(LAP, 0.0, 1.0) == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_logistic_at_zero(self):
        # logistic density at the mode is 1/(4 eta)
        assert log_density(LOGI, 0.0, 1.0) == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)

    def test_symmetry(self):
        for family in (LAP, LOGI, T10, GAU):
            for c in (0.3, 1.7, 42.0):
                assert log_density(family, c, 0.8) == pytest.approx(
                    log_density(family, -c, 0.8), abs=1e-14
                )

    def test_logistic_stable_in_far_tail(self):
        with np.errstate(over="raise"):
            value = log_density(LOGI, np.array([1e6, -1e6]), 1.0)
        assert np.all(np.isfinite(value))
        assert value[0] == pytest.approx(-1e6, rel=1e-9)

    @pytest.mark.parametrize("family,ref", [
        (LAP, lambda r, eta: scipy.stats.laplace.logpdf(r, scale=eta)),
        (LOGI, lambda r, eta: scipy.stats.logistic.logpdf(r, scale=eta)),
        (T10, lambda r, eta: scipy.stats.t.logpdf(r / eta, df=10) - math.log(eta)),
        (GAU, lambda r, eta: scipy.stats.norm.logpdf(r, scale=eta)),
    ])
    def test_against_scipy_reference(self, family, ref):
        r = np.linspace(-30, 30, 101)
        for eta in (0.25, 1.0, 3.5):
            mine = log_density(family, r, eta)
            assert np.max(np.abs(mine - ref(r, eta))) <= 1e-10

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            log_density(LAP, 0.0, 0.0)


class TestFitScale:
    def test_laplace_unit_vector(self):
        eta, sigma = fit_scale(LAP, np.array([1.0, -1.0, 1.0, -1.0]))
        assert eta == 1.0 and sigma == 1.0

    def test_logistic_plugin_inverts(self):
        c = math.pi / math.sqrt(3.0)
        eta, _ = fit_scale(LOGI, np.array([c, -c]))
        assert eta == pytest.approx(1.0, abs=1e-12)

    def test_scaled_t_plugin(self):
        # sigma_hat = 1 and df = 10 give eta_hat = sqrt(0.8)
        eta, sigma = fit_scale(T10, np.array([1.0, -1.0]))
        assert sigma == 1.0
        assert eta == pytest.approx(math.sqrt(0.8), abs=1e-12)

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateResidual):
            fit_scale(LAP, np.zeros(8))

    @pytest.mark.parametrize("n", [7, 300])
    def test_stack_matches_each_vector_bit_for_bit(self, n):
        # a stack along the last axis gets, per vector, the one-vector sums:
        # r'r by one dot product and sum |r| pairwise
        stack = rng_stream(32, 0).laplace(size=(3, 4, n))
        for family in (LAP, LOGI, T10):
            eta, sigma = fit_scale(family, stack)
            for r, e, s in zip(stack.reshape(-1, n), eta.ravel(), sigma.ravel()):
                want = math.sqrt(float(r @ r) / n)
                assert s == want
                assert e == (float(np.abs(r).mean()) if family == LAP
                             else fit_scale(family, r)[0])

    def test_estimator_consistency(self):
        # the plug-in estimators recover a known generating scale
        theta = 0.5
        for family, tol in ((LAP, 0.005), (LOGI, 0.01), (T10, 0.01)):
            draws = sample_noise(family, theta, 10**6, rng_stream(31, 2, hashable(family)))
            eta, _ = fit_scale(family, draws)
            assert abs(eta - theta) <= tol


def hashable(family: NoiseFamily) -> int:
    return {"laplace": 0, "logistic": 1, "scaled-t": 2, "gaussian": 3}[family.tag]


class TestLlrScore:
    def test_laplace_hand_value(self):
        r = np.array([1.0, -1.0, 1.0, -1.0])
        assert llr_score(LAP, r) == pytest.approx(LAPLACE_GAP, abs=1e-12)
        assert fit_scale(LAP, r) == (1.0, 1.0)

    def test_scale_invariance(self):
        rng = rng_stream(17, 0)
        r = rng.standard_normal(512) + rng.uniform(-1, 1, 512)
        for family in (LAP, LOGI, T10):
            base = llr_score(family, r)
            for c in (1e-3, 0.7, 13.0, 1e4):
                assert llr_score(family, c * r) == pytest.approx(base, abs=1e-10)

    def test_matches_quadrature_oracle_for_laplace_data(self):
        # population value of E[log g(R; eta*) - log phi(R; sigma*)] under
        # Laplace(0,1), computed by numerical integration: eta* = E|R| = 1,
        # sigma*^2 = Var R = 2
        def integrand(r):
            f = 0.5 * math.exp(-abs(r))
            log_g = -math.log(2.0) - abs(r)
            log_phi = -0.5 * math.log(2.0 * math.pi * 2.0) - r * r / 4.0
            return f * (log_g - log_phi)

        oracle = quad(integrand, -40.0, 40.0)[0]
        assert oracle == pytest.approx(0.5 * math.log(math.pi) - 0.5, abs=1e-9)
        draws = sample_noise(LAP, 1.0, 10**6, rng_stream(19, 2, 0))
        assert llr_score(LAP, draws) == pytest.approx(oracle, abs=0.005)

    def test_degenerate(self):
        with pytest.raises(DegenerateResidual):
            llr_score(LAP, np.zeros(4))

    def test_vector_is_refused_where_its_one_column_block_scores_minus_inf(self):
        # mean square 2.2e-16, under the bar: the vector forms scored it
        r = np.random.default_rng(0).laplace(size=400) * 1e-8
        for family in (LAP, LOGI, T10):
            assert llr_score(family, r[:, None])[0] == -np.inf
            with pytest.raises(DegenerateResidual):
                llr_score(family, r)
        with pytest.raises(DegenerateResidual):
            laplace_fast_score(r)

    def test_matched_family_positive_gaussian_smaller(self):
        n = 10**5
        matched = {}
        for family in (LAP, LOGI, T10):
            draws = sample_noise(family, 1.0, n, rng_stream(23, 2, hashable(family)))
            matched[family.tag] = llr_score(family, draws)
            assert matched[family.tag] > 0
        gauss_draws = rng_stream(23, 2, 9).standard_normal(n)
        gauss_under_laplace = llr_score(LAP, gauss_draws)
        assert gauss_under_laplace < 0.02
        assert gauss_under_laplace < matched["laplace"]


class TestLaplaceFastScore:
    def test_balanced_vector(self):
        assert laplace_fast_score(np.array([1.0, -1.0, 1.0, -1.0])) == 0.0

    def test_spike_vector(self):
        # sigma = 1/2, eta = 1/4: log 2
        assert laplace_fast_score(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(
            math.log(2.0), abs=1e-14
        )

    def test_constant_offset_from_full_score(self):
        rng = rng_stream(29, 0)
        for _ in range(25):
            r = rng.standard_normal(int(rng.integers(8, 400)))
            gap = llr_score(LAP, r) - laplace_fast_score(r)
            assert gap == pytest.approx(LAPLACE_GAP, abs=1e-12)

    def test_argmax_equivalence(self):
        rng = rng_stream(37, 0)
        for _ in range(50):
            vectors = [rng.standard_normal(64) * rng.uniform(0.1, 10) for _ in range(12)]
            fast = np.array([laplace_fast_score(v) for v in vectors])
            full = np.array([llr_score(LAP, v) for v in vectors])
            assert int(np.argmax(fast)) == int(np.argmax(full))

    def test_degenerate(self):
        with pytest.raises(DegenerateResidual):
            laplace_fast_score(np.zeros(3))


class TestBlockScore:
    """``llr_score`` on an n x K block scores each column in one pass."""

    @staticmethod
    def _block(n=300, k=6, seed=41):
        rng = rng_stream(seed, 0)
        cols = [rng.laplace(size=n), rng.logistic(size=n), rng.standard_t(10, size=n),
                rng.standard_normal(n), rng.uniform(-1, 1, n), rng.standard_normal(n) ** 3]
        return np.column_stack(cols[:k]) * rng.uniform(0.01, 100.0, k)

    @pytest.mark.parametrize("family", [LAP, LOGI, T10, GAU], ids=lambda f: f.tag)
    def test_matches_column_scores(self, family):
        block = self._block()
        per_column = [llr_score(family, block[:, k]) for k in range(block.shape[1])]
        np.testing.assert_allclose(llr_score(family, block), per_column, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("family", [LAP, LOGI, T10, GAU], ids=lambda f: f.tag)
    def test_far_tail_column(self, family):
        # |z| = |r| / eta reaches sqrt(n) pi / sqrt(3) for a single spike,
        # past 700 at this n, where exp(|z|) would overflow
        n = 160_000
        spike = np.zeros(n)
        spike[0] = 1.0
        spike[1:] = 1e-9 * rng_stream(43, 0).standard_normal(n - 1)
        block = np.column_stack([spike, rng_stream(43, 1).laplace(size=n)])
        eta, _ = fit_scale(LOGI, spike)
        assert spike[0] / eta > 700
        with np.errstate(over="raise"):
            scores = llr_score(family, block)
        assert np.all(np.isfinite(scores))
        per_column = [llr_score(family, block[:, k]) for k in range(2)]
        np.testing.assert_allclose(scores, per_column, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("family", [LAP, LOGI, T10], ids=lambda f: f.tag)
    def test_column_rescaling_invariance(self, family):
        block = self._block()
        scale = np.array([1e-4, 0.3, 1.0, 7.0, 1e3, 1e5])
        np.testing.assert_allclose(llr_score(family, block * scale), llr_score(family, block),
                                   rtol=1e-12, atol=1e-13)

    def test_degenerate_column_scores_neginf(self):
        block = self._block(k=3)
        block[:, 1] = 0.0
        block[:, 2] *= 1e-7 / np.abs(block[:, 2]).max()  # mean square under 1e-12
        for family in (LAP, LOGI, T10, GAU):
            scores = llr_score(family, block)
            assert scores[1] == scores[2] == -np.inf
            assert scores[0] == pytest.approx(llr_score(family, block[:, 0]), rel=1e-12)

    def test_laplace_gap_on_the_block_path(self):
        # criterion 03's bar, on the block path that the sorter takes
        rng = rng_stream(1303, 0)
        for _ in range(20):
            n = int(rng.integers(16, 400))
            block = rng.standard_normal((n, 20)) * rng.uniform(0.05, 20, 20)
            full = np.array([llr_score(LAP, block[:, k]) for k in range(20)])
            assert np.max(np.abs(llr_score(LAP, block) - full)) <= 1e-12
            assert np.max(np.abs(full - laplace_fast_score(block) - LAPLACE_GAP)) <= 1e-12
