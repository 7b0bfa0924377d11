import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gppca.gaussian_geometry import DecompositionError, MomentGaussian
from gppca.kernels_gp import (
    GpPrior,
    InducingSet,
    KernelConfig,
    TaskData,
    exact_posterior,
    gp_predictive_batch,
    gram,
    predictive_batch,
    union_inputs,
)
from gppca.sparse_gp import sparse_predictive_batch


def _prior(lengthscale=1.0, beta=100.0, mean=0.0):
    return GpPrior(kernel=KernelConfig(lengthscale=lengthscale), beta=beta, mean_fn=mean)


class TestKernelEval:
    def test_zero_distance(self):
        assert gram(KernelConfig(lengthscale=1.0), [0.3], [0.3])[0, 0] == 1.0

    def test_unit_distance(self):
        assert gram(KernelConfig(lengthscale=1.0), [0.0], [1.0])[0, 0] == pytest.approx(
            math.exp(-0.5)
        )

    def test_scale_invariance(self):
        assert gram(KernelConfig(lengthscale=2.0), [0.0], [2.0])[0, 0] == pytest.approx(
            math.exp(-0.5)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram(KernelConfig(), [[0.0]], [[0.0, 1.0]])

    def test_bad_config(self):
        with pytest.raises(ValueError):
            KernelConfig(kind="matern")
        with pytest.raises(ValueError):
            KernelConfig(lengthscale=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_hyperparameters_are_rejected(self, value):
        with pytest.raises(ValueError, match=f"^lengthscale must be positive and finite, got {value}$"):
            KernelConfig(lengthscale=value)
        with pytest.raises(ValueError, match=f"^beta must be positive and finite, got {value}$"):
            GpPrior(beta=value)


class TestGram:
    def test_singleton(self):
        np.testing.assert_allclose(gram(KernelConfig(), [[0.5]], [[0.5]]), [[1.0]])

    def test_two_points(self):
        k = gram(KernelConfig(lengthscale=1.0), [[0.0], [1.0]], [[0.0], [1.0]])
        e = math.exp(-0.5)
        np.testing.assert_allclose(k, [[1.0, e], [e, 1.0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
    def test_cross_transpose(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(m, 2))
        cfg = KernelConfig(lengthscale=0.7)
        np.testing.assert_allclose(gram(cfg, a, b), gram(cfg, b, a).T)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_the_broadcast_sum_formula_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.uniform(-1.0, 2.0, (40, dim))
        b = rng.uniform(-1.0, 2.0, (30, dim))
        b[:5] = a[:5]  # zero distances too
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        for lengthscale in (0.05, 0.6, 7.0):
            want = np.exp(-d2 / (2.0 * lengthscale**2))
            for args in ((a, b), (a[:, 0], b[:, 0])) if dim == 1 else ((a, b),):
                got = gram(KernelConfig(lengthscale=lengthscale), *args)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 10_000))
    def test_psd(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 1))
        k = gram(KernelConfig(lengthscale=0.5), a, a)
        assert np.linalg.eigvalsh(k).min() >= -1e-10


class TestUnionInputs:
    def test_dedup_and_order(self):
        t1 = TaskData([[0.1], [0.4]], [0.0, 0.0], 0)
        t2 = TaskData([[0.4], [0.7]], [0.0, 0.0], 1)
        u = union_inputs([t1, t2])
        np.testing.assert_allclose(u, [[0.1], [0.4], [0.7]])

    def test_tolerance_merge(self):
        t1 = TaskData([[0.1]], [0.0], 0)
        t2 = TaskData([[0.1 + 1e-15]], [0.0], 1)
        assert union_inputs([t1, t2]).shape == (1, 1)

    def test_row_close_only_to_a_dropped_row_is_kept(self):
        t1 = TaskData([[0.1]], [0.0], 0)
        t2 = TaskData([[0.1 + 8e-13], [0.1 + 1.6e-12]], [0.0, 0.0], 1)
        u = union_inputs([t1, t2])
        assert np.array_equal(u, [[0.1], [0.1 + 1.6e-12]])

    def test_max_norm_in_two_dimensions(self):
        t = TaskData([[0.0, 0.0], [5e-13, -5e-13], [0.0, 2e-12]], [0.0, 0.0, 0.0], 0)
        assert np.array_equal(union_inputs([t]), [[0.0, 0.0], [0.0, 2e-12]])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_row_by_row_reference(self, dim):
        # Offsets of 0.4e-12 put many rows within tol of each other, in chains.
        rng = np.random.default_rng(dim)
        tasks = []
        for i in range(6):
            x = rng.choice([0.1, 0.7], size=(10, dim)) + 0.4e-12 * rng.integers(0, 6, size=(10, dim))
            tasks.append(TaskData(x, np.zeros(10), i))
        u = union_inputs(tasks)
        assert 2 < len(u) < 60
        assert np.array_equal(u, oracles.union_inputs_rowwise(tasks))

    def test_no_inputs(self):
        with pytest.raises(ValueError, match="no inputs"):
            union_inputs([TaskData(np.zeros((0, 1)), np.zeros(0), 0)])


class TestExactPosterior:
    def test_empty_task_recovers_prior(self):
        prior = _prior(lengthscale=0.5)
        anchor = np.array([[0.0], [0.3], [0.9]])
        rho = exact_posterior(prior, TaskData(np.zeros((0, 1)), np.zeros(0), 0), anchor)
        np.testing.assert_allclose(rho.mu, np.zeros(3))
        np.testing.assert_allclose(rho.sigma, gram(prior.kernel, anchor, anchor))

    def test_single_observation_closed_form(self):
        # K = 1, C = 1.01: mu = 1/1.01, Sigma = 1 - 1/1.01
        prior = _prior(lengthscale=1.0, beta=100.0)
        rho = exact_posterior(prior, TaskData([[0.0]], [1.0], 0), [[0.0]])
        assert rho.mu[0] == pytest.approx(1 / 1.01, abs=1e-12)
        assert rho.sigma[0, 0] == pytest.approx(1 - 1 / 1.01, abs=1e-12)

    def test_interpolation_limit(self):
        prior = _prior(lengthscale=0.8, beta=1e12)
        x = np.array([[0.0], [0.5], [1.0]])
        y = np.array([0.3, -0.1, 0.8])
        rho = exact_posterior(prior, TaskData(x, y, 0), x)
        np.testing.assert_allclose(rho.mu, y, atol=1e-6)

    def test_variance_reduction(self):
        # posterior covariance below the prior in the Loewner order
        rng = np.random.default_rng(0)
        prior = _prior(lengthscale=0.4, beta=25.0)
        anchor = rng.uniform(0, 1, (6, 1))
        task = TaskData(rng.uniform(0, 1, (4, 1)), rng.normal(size=4), 0)
        rho = exact_posterior(prior, task, anchor)
        k = gram(prior.kernel, anchor, anchor)
        assert np.linalg.eigvalsh(k - rho.sigma).min() >= -1e-10

    def test_nonzero_prior_mean(self):
        prior = _prior(lengthscale=1.0, beta=100.0, mean=2.0)
        rho = exact_posterior(prior, TaskData(np.zeros((0, 1)), np.zeros(0), 0), [[0.0]])
        assert rho.mu[0] == pytest.approx(2.0)


class TestPredictive:
    def test_prior_reproduction(self):
        prior = _prior(lengthscale=0.5, mean=1.5)
        anchor = np.array([[0.0], [0.6]])
        rho_prior = exact_posterior(prior, TaskData(np.zeros((0, 1)), np.zeros(0), 0), anchor)
        means, variances = predictive_batch(prior, rho_prior, anchor, [[0.3]])
        assert means[0] == pytest.approx(1.5, abs=1e-9)
        assert variances[0] == pytest.approx(1.0, abs=1e-9)

    def test_anchor_point_consistency(self):
        rng = np.random.default_rng(1)
        prior = _prior(lengthscale=0.4, beta=25.0)
        anchor = np.array([[0.05], [0.35], [0.65], [0.95]])
        task = TaskData(rng.uniform(0, 1, (5, 1)), rng.normal(size=5), 0)
        rho = exact_posterior(prior, task, anchor)
        means, variances = predictive_batch(prior, rho, anchor, anchor)
        np.testing.assert_allclose(means, rho.mu, atol=1e-8)
        np.testing.assert_allclose(variances, np.diag(rho.sigma), atol=1e-8)

    def test_two_route_equivalence(self):
        # anchor-posterior route equals the direct predictive equations
        rng = np.random.default_rng(2)
        prior = _prior(lengthscale=0.4, beta=25.0)
        for trial in range(5):
            x = np.sort(rng.uniform(0, 1, 5)).reshape(-1, 1)
            task = TaskData(x, rng.normal(size=5), trial)
            rho = exact_posterior(prior, task, x)
            test = rng.uniform(-0.2, 1.2, (50, 1))
            m1, v1 = predictive_batch(prior, rho, x, test)
            m2, v2 = gp_predictive_batch(prior, task, test)
            np.testing.assert_allclose(m1, m2, atol=1e-8)
            np.testing.assert_allclose(v1, v2, atol=1e-8)

    def test_monotone_information(self):
        # an extra observation never increases predictive variance
        rng = np.random.default_rng(3)
        prior = _prior(lengthscale=0.5, beta=50.0)
        x = rng.uniform(0, 1, (5, 1))
        y = rng.normal(size=5)
        grid = np.linspace(-0.2, 1.2, 30).reshape(-1, 1)
        _, v_before = gp_predictive_batch(prior, TaskData(x, y, 0), grid)
        x2 = np.vstack([x, [[0.42]]])
        y2 = np.append(y, 0.1)
        _, v_after = gp_predictive_batch(prior, TaskData(x2, y2, 0), grid)
        assert np.all(v_after <= v_before + 1e-10)

    @pytest.mark.parametrize(
        "predictive", [predictive_batch, sparse_predictive_batch], ids=["exact", "sparse"]
    )
    def test_negative_variance_is_clamped_with_one_warning(self, predictive):
        # Sigma = -I is no covariance: at an anchor point the exact route gives
        # 1 + (-1 - 1) = -1, the sparse route 1 - 1 - |k|^2.
        prior = _prior(lengthscale=0.5)
        anchor = InducingSet([[0.0], [0.6]])
        rho = MomentGaussian(np.zeros(2), -np.eye(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, variances = predictive(prior, rho, anchor, [[0.0], [5.0]])
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "clamped" in str(caught[0].message)
        assert variances[0] == 0.0

    def test_empty_task_prior_predictive(self):
        prior = _prior()
        means, variances = gp_predictive_batch(
            prior, TaskData(np.zeros((0, 1)), np.zeros(0), 0), [[0.1]]
        )
        assert means[0] == 0.0 and variances[0] == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_inducing_set_rejects_non_finite_points(value):
    # A NaN is not coincident with anything, and its kernel row would factor to NaNs.
    with pytest.raises(ValueError, match=rf"^inducing points must be finite, got {value} at \[1, 0\]$"):
        InducingSet(np.array([[0.0], [value], [0.5]]))
